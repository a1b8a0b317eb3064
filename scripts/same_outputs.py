"""Compare the outputs of the package at a base revision with the working tree's.

    python3 scripts/same_outputs.py --base <rev>

Run from the root of a git checkout.  As in ``scripts/ab_compare.py``, the
committed files of ``--base`` are exported (``git archive``) into a
temporary directory and both packages are imported into this one process.
Every operation of the ``points``, ``analysis`` and ``sweep`` workloads of
``perfbench/workloads.build``, one round of each of the benchmark's seeds
101 to 105, runs once on each version; a sweep runs through ``cli.main``.
Then the six invocations of the README run through ``cli.main`` on each
version, ``dmc`` on the README's channel document in a temporary directory.
Last, both ``bounds`` run on a fixed corpus of 3,000 channels that the
workloads never draw (``corpus``): powers in 10^[-12, 15], every 9th pair
of them at a ratio of 1 + 1e-7, every 11th C1, every 13th C2 and every 7th
g zero, on budgets that cycle through inf, 0.3, 0.02, 0 and one drawn in
[0, 2].  Then ``detect_thresholds`` runs on a fixed corpus of 60 calls
(``thresholds_corpus``): powers in 10^[-2, 2], g in [0, 0.95], both
scenarios, the default scheme groups on two calls in five and a drawn split
of the scenario's schemes on the rest, budgets that cycle through inf, 0
and one drawn in [0, 2], and grids of 2, 3, 121 and 2001 points in turn.

The last line of standard output is one JSON object: the operations
compared, how many of them differ in the ``repr`` of their outputs (a
sweep's: its exit code and standard output; a README invocation's: its exit
code, standard output and standard error), those counts per workload, and
the first few that differ, each as its workload, seed and index in that
seed's list; a README invocation as "readme", None and its index in
``README``, a channel of the corpus as "corpus", None and its index in it,
and a call of the thresholds corpus as "thresholds", None and its index in
it.  Among the differing operations it also gives the largest absolute
change of any number in an output and, apart, of any field named ``rho``,
each with where it occurred and the field's path, and how many operations
differ only in fields named ``rho`` or ``binding``.  Over every ``point``
operation, of the workloads and of the corpus, it gives the largest rise and
the largest fall, new - base, of the headline bounds ``ub1``, ``ub2``,
``lb1`` and ``lb2`` (None where none rises or falls), and on each side the
largest ``lb1 - ub1``, ``lb2 - ub2``, ``ub2 - ub1`` and ``lb2 - lb1``, each
with where it occurred: a lower bound above its upper bound, or scenario 2
above scenario 1, breaks an invariant of the bounds.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import random
import sys
import tempfile
from collections import Counter
from collections.abc import Mapping
from functools import partial
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from ab_compare import ROOT, _call, _cli, _export, _workloads, load  # noqa: E402

WORKLOADS = ("points", "analysis", "sweep")
# the seeds of the benchmark's pairs of runs (scripts/bench_compare.py)
SEEDS = range(101, 106)
# the README's invocations, without the program name; {channel} is the path
# of the README's channel document
README = (
    ("eval", "--p", "10", "--c", "1.5", "--g", "0.1"),
    ("sweep", "--param", "c", "--from", "0", "--to", "3", "--steps", "121", "--p", "10", "--g", "0.1"),
    ("thresholds", "--p", "1", "--g", "0.1", "--scenario", "1"),
    ("capacity", "--p", "10", "--c", "1.5", "--g", "0.1"),
    ("oracle-check", "--trials", "1000", "--seed", "0", "--tol", "1e-9"),
    ("dmc", "--file", "{channel}"),
)
# the README's channel document: Y = (X1, X2) exactly, Z constant
CHANNEL = {
    "alphabet_sizes": [2, 2, 4, 1],
    "transition": [float(y == 2 * x1 + x2) for x1 in range(2) for x2 in range(2) for y in range(4)],
    "input_pmf": [0.25, 0.25, 0.25, 0.25],
    "c1": 3.0,
    "c2": 3.0,
}
# differing operations listed in the report
_SHOWN = 10
# the channels of the corpus, and the seed of their draw
CORPUS = 3000
CORPUS_SEED = 7919
# the calls of the thresholds corpus, and the seed of their draw
THRESHOLDS = 60
THRESHOLDS_SEED = 7927
# the headline bounds of a point operation, and the differences of them
# whose largest value each side reports
HEADLINE = ("ub1", "ub2", "lb1", "lb2")
GAPS = (("lb1", "ub1"), ("lb2", "ub2"), ("ub2", "ub1"), ("lb2", "lb1"))


def corpus(channel) -> list[dict]:
    """The corpus of the module docstring, as ``point`` operations of
    ``perfbench/workloads`` on ``channel``, a ``ChannelParams`` class."""
    rng = random.Random(CORPUS_SEED)
    ops = []
    for i in range(CORPUS):
        p1 = 10.0 ** rng.uniform(-12.0, 15.0)
        p2 = p1 * (1.0 + 1e-7) if i % 9 == 0 else 10.0 ** rng.uniform(-12.0, 15.0)
        c1 = 0.0 if i % 11 == 0 else rng.uniform(0.0, 4.0)
        c2 = 0.0 if i % 13 == 0 else rng.uniform(0.0, 4.0)
        g = 0.0 if i % 7 == 0 else rng.uniform(0.0, 0.99)
        r_prime = (math.inf, 0.3, 0.02, 0.0)[i % 5] if i % 5 < 4 else rng.uniform(0.0, 2.0)
        ops.append({"kind": "point", "params": channel(p1, p2, c1, c2, g), "r_prime": r_prime})
    return ops


def thresholds_corpus() -> list[dict]:
    """The thresholds corpus of the module docstring, as keyword arguments of
    ``detect_thresholds``, with the budget as its ``r_prime``."""
    rng = random.Random(THRESHOLDS_SEED)
    calls = []
    for i in range(THRESHOLDS):
        scenario = 1 + i % 2
        call = {"p": 10.0 ** rng.uniform(-2.0, 2.0), "g": rng.uniform(0.0, 0.95), "scenario": scenario,
                "r_prime": (math.inf, 0.0, rng.uniform(0.0, 2.0))[i % 3], "steps": (2, 3, 121, 2001)[i // 2 % 4]}
        if i % 5 >= 2:
            names = rng.sample(("df", "pdf", "pdfm") if scenario == 1 else ("df", "pdfdfm", "pdfpdfm"), 3)
            split = rng.randint(1, 2)
            call.update(schemes_a=tuple(names[:split]), schemes_b=tuple(names[split:]))
        calls.append(call)
    return calls


def _thresholds(pkg, call: dict):
    """``detect_thresholds`` of the package ``pkg`` on one call of ``thresholds_corpus``."""
    kwargs = dict(call)
    return pkg.analysis.detect_thresholds(budget=pkg.RandomnessBudget(kwargs.pop("r_prime")), **kwargs)


def _leaves(out, path=()):
    """The leaves of an output as (path, value): a dataclass's fields and a
    mapping's items by name, a sequence's items by index, and a tuple of
    names, such as a ``binding``, as one leaf."""
    if dataclasses.is_dataclass(out):
        for f in dataclasses.fields(out):
            yield from _leaves(getattr(out, f.name), (*path, f.name))
    elif isinstance(out, Mapping):
        for key, value in out.items():
            yield from _leaves(value, (*path, key))
    elif isinstance(out, (tuple, list)) and not all(isinstance(x, str) for x in out):
        for i, value in enumerate(out):
            yield from _leaves(value, (*path, i))
    else:
        yield path, out


def _headline(out) -> dict:
    """The headline bounds of a ``point`` operation's output, the bounds of
    scenario 1 and of scenario 2."""
    one, two = out
    return {"ub1": one.upper.value, "ub2": two.upper.value, "lb1": one.lower, "lb2": two.lower}


def _track(record: dict, key, value: float, where: dict, sign: float = 1.0) -> None:
    """Keep in ``record[key]`` the largest ``sign * value`` seen, with where it occurred."""
    if not math.isnan(value) and (record[key] is None or sign * value > sign * record[key]["value"]):
        record[key] = {"value": value, **where}


def _number(x) -> bool:
    """Whether ``x`` is a number, not a flag."""
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _moves(base, new) -> list:
    """The leaves in which two outputs of one operation differ, as (path,
    change): the absolute change of a number, None for any other leaf, and
    one ((), None) for outputs of different shapes."""
    old, now = list(_leaves(base)), list(_leaves(new))
    if [path for path, _ in old] != [path for path, _ in now]:
        return [((), None)]
    return [(path, abs(y - x) if _number(x) and _number(y) else None)
            for (path, x), (_, y) in zip(old, now) if repr(x) != repr(y)]


def compare(packages: dict, ops: int | None) -> dict:
    """Run the first ``ops`` operations (None: all), in the order of the
    module docstring, on ``packages["base"]`` and ``packages["new"]``; the
    report of the module docstring."""
    workloads = _workloads()
    with tempfile.TemporaryDirectory(prefix="same_outputs_readme_") as docs:
        channel = Path(docs, "channel.json")
        channel.write_text(json.dumps(CHANNEL))
        todo = [({"workload": workload, "seed": seed, "index": i}, partial(_call, op=op))
                for workload in WORKLOADS for seed in SEEDS
                for i, op in enumerate(workloads.build(workload, seed, 1))]
        todo += [({"workload": "readme", "seed": None, "index": i},
                  partial(_cli, argv=tuple(arg.format(channel=channel) for arg in argv)))
                 for i, argv in enumerate(README)]
        todo += [({"workload": "corpus", "seed": None, "index": i}, partial(_call, op=op))
                 for i, op in enumerate(corpus(packages["new"].ChannelParams))]
        todo += [({"workload": "thresholds", "seed": None, "index": i}, partial(_thresholds, call=call))
                 for i, call in enumerate(thresholds_corpus())]
        todo = todo[:ops]
        differ, only_rho_or_binding = [], 0
        largest = {"largest_change": None, "largest_rho_change": None}
        rises, falls = dict.fromkeys(HEADLINE), dict.fromkeys(HEADLINE)
        gaps = {side: dict.fromkeys(f"{x} - {y}" for x, y in GAPS) for side in ("base", "new")}
        for where, run in todo:
            base, new = run(packages["base"]), run(packages["new"])
            if run.keywords.get("op", {}).get("kind") == "point":
                heads = {"base": _headline(base), "new": _headline(new)}
                for side, head in heads.items():
                    for x, y in GAPS:
                        _track(gaps[side], f"{x} - {y}", head[x] - head[y], where)
                for name, value in heads["new"].items():
                    change = value - heads["base"][name]
                    if change > 0.0:
                        _track(rises, name, change, where)
                    elif change < 0.0:
                        _track(falls, name, change, where, -1.0)
            if repr(base) == repr(new):
                continue
            differ.append(where)
            moves = _moves(base, new)
            only_rho_or_binding += all(path and path[-1] in ("rho", "binding") for path, _ in moves)
            for path, change in moves:
                key = "largest_rho_change" if path and path[-1] == "rho" else "largest_change"
                if change is not None and (largest[key] is None or change > largest[key]["change"]):
                    largest[key] = {"change": change, **where, "field": ".".join(map(str, path))}
    return {"compared": len(todo), "differ": len(differ),
            "differ_by_workload": dict(Counter(where["workload"] for where in differ)),
            "only_rho_or_binding": only_rho_or_binding, **largest, "first_differing": differ[:_SHOWN],
            "bound_rises": rises, "bound_falls": falls, "largest_gaps": gaps}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--base", required=True, help="revision to compare the working tree against")
    args = ap.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="same_outputs_") as exported:
        sha = _export(args.base, exported)
        packages = {"base": load(Path(exported, "src"), "same_base"), "new": load(ROOT / "src", "same_new")}
        report = compare(packages, None)
    print(json.dumps({"base": {"rev": args.base, "sha": sha}, **report}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
