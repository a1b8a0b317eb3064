"""Compare the outputs and the CPU time of the package at a base revision with the working tree's.

    python3 scripts/same_outputs.py --base <rev>

Run from the root of a git checkout.  The committed files of ``--base`` are
exported (``git archive``) into a temporary directory, and the package of
its ``src`` and that of the working tree's ``src`` are imported into this
one process under distinct names.  Every operation of the ``points``,
``analysis`` and ``sweep`` workloads of ``perfbench/workloads.build``, one
round of each of the benchmark's seeds 101 to 105, runs once on each
version; a sweep runs through ``cli.main``.  Then the six invocations of the
README run through ``cli.main`` on each version, ``dmc`` on the README's
channel document in a temporary directory.  Next, both ``bounds`` run on a
fixed corpus of 3,000 channels that the workloads never draw (``corpus``):
powers in 10^[-12, 15], every 9th pair of them at a ratio of 1 + 1e-7,
every 11th C1, every 13th C2 and every 7th g zero, on budgets that cycle
through inf, 0.3, 0.02, 0 and one drawn in [0, 2].  Last, ``detect_thresholds``
runs on a fixed corpus of 60 calls (``thresholds_corpus``): powers in
10^[-2, 2], g in [0, 0.95], both scenarios, the default scheme groups on
two calls in five and a drawn split of the scenario's schemes on the rest,
budgets that cycle through inf, 0 and one drawn in [0, 2], and grids of 2,
3, 121 and 2001 points in turn.

Every call is timed in CPU time (``time.process_time``), after one untimed
call of the first operation on each side, and the version that runs first
alternates from operation to operation.  One process sees the host's speed
swings on both sides alike, which separate benchmark processes do not.  The
kind of an operation is its ``perfbench/workloads`` kind, "readme" for a
README invocation and "thresholds" for a call of the thresholds corpus.
After the first round, the operations of each workload's kinds with fewer
than 20 operations run again, in turn and alternating the same way, until
that kind has 20 ratios new/base: the five seeds of ``analysis`` hold five
``validate`` operations, too few for a median to show a change of a few
percent.  Outputs are compared on the first round only.

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
above scenario 1, breaks an invariant of the bounds.  Its ``timing`` holds
one block for each of ``points``, ``analysis``, ``sweep``, ``readme``,
``corpus`` and ``thresholds``: the median of all the ratios new/base that
workload took, the scarce kinds' repeats included, and their quartiles, the
operations on which the new version was faster in the first round, both
CPU totals of that round, and for each kind of operation its count, its
number of ratios and their median: ``analysis`` mixes kinds whose costs
differ about 20-fold, so one median hides which kind moved.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import importlib
import importlib.util
import io
import itertools
import json
import math
import random
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from collections.abc import Mapping
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
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
# the fewest ratios new/base taken of each kind of operation of a workload
KIND_RATIOS = 20
# the submodules that the operations call
_SUBMODULES = ("scenario_one", "scenario_two", "analysis", "oracles", "cli")
# the order of the two versions on even turns; odd turns run it reversed
_SIDES = ("base", "new")
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


def _export(rev: str, into: str) -> str:
    """The files committed at ``rev``, without a .git of their own; their sha."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", into], input=archive, check=True)
    return subprocess.run(["git", "rev-parse", rev], cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()


def load(src: Path, name: str):
    """The package under ``src`` imported as ``name``, with the submodules the operations call."""
    package = Path(src) / "diamond_wiretap"
    spec = importlib.util.spec_from_file_location(name, package / "__init__.py",
                                                  submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    for sub in _SUBMODULES:
        importlib.import_module(f"{name}.{sub}")
    return module


def _workloads():
    """``perfbench/workloads``, which imports its checker and builds the
    operations with the working tree's package, imported under its own name."""
    paths = [str(ROOT / "perfbench"), str(ROOT / "src")]
    sys.path[:0] = paths
    try:
        import workloads
    finally:
        del sys.path[:len(paths)]
    return workloads


def _cli(pkg, argv) -> tuple[int, str, str]:
    """The exit code, standard output and standard error of ``cli.main(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = pkg.cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _call(pkg, op: dict):
    """One operation of ``perfbench/workloads`` on the package ``pkg``."""
    kind = op["kind"]
    if kind == "point":
        params = pkg.ChannelParams(**dataclasses.asdict(op["params"]))
        budget = pkg.RandomnessBudget(op["r_prime"])
        return pkg.scenario_one.bounds(params, budget), pkg.scenario_two.bounds(params, budget)
    if kind == "sweep":
        return _cli(pkg, op["argv"])[:2]
    if kind == "thresholds":
        return pkg.analysis.detect_thresholds(op["p"], op["g"], op["scenario"],
                                              budget=pkg.RandomnessBudget(op["r_prime"]))
    if kind == "capacity":
        return pkg.analysis.capacity_condition(pkg.ChannelParams.symmetric(op["p"], op["c"], op["g"]))
    if kind == "pdf_gap":
        return pkg.analysis.pdf_gap_vs_power(op["g"], op["c"], op["c"], op["powers"])
    if kind == "validate":
        return pkg.oracles.validate_closed_forms(trials=op["trials"], seed=op["seed"])
    raise ValueError(f"unknown operation {kind!r}")


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


def _timed(run, packages: dict, turn: int) -> tuple[dict, tuple[float, float]]:
    """The outputs of ``run`` on the base package and on the new one, and
    the CPU seconds of each call; the base runs first on even turns."""
    outs, cpu = {}, {}
    for side in _SIDES if turn % 2 == 0 else _SIDES[::-1]:
        start = time.process_time()
        outs[side] = run(packages[side])
        cpu[side] = time.process_time() - start
    return (outs["base"], outs["new"]), (cpu["base"], cpu["new"])


def _timing(groups: dict, samples: list) -> dict:
    """The ``timing`` of the report: one block per workload of ``groups``,
    which holds the indices of its operations by kind, from ``samples``,
    each operation's (base, new) CPU seconds, the first round's first."""
    timing = {}
    for workload, kinds in groups.items():
        first = [samples[i][0] for of in kinds.values() for i in of]
        of_kind = {kind: [new / base for i in of for base, new in samples[i]] for kind, of in kinds.items()}
        ratios = [ratio for of in of_kind.values() for ratio in of]
        q1, median, q3 = statistics.quantiles(ratios, n=4, method="inclusive") if len(ratios) > 1 else ratios * 3
        timing[workload] = {
            "ops": len(first), "ratio_median": median, "ratio_q1": q1, "ratio_q3": q3,
            "new_wins": sum(new < base for base, new in first),
            "base_cpu_s": sum(base for base, _ in first), "new_cpu_s": sum(new for _, new in first),
            "kinds": {kind: {"ops": len(kinds[kind]), "ratios": len(of), "ratio_median": statistics.median(of)}
                      for kind, of in of_kind.items()}}
    return timing


def compare(packages: dict, ops: int | None) -> dict:
    """Run and time the first ``ops`` operations (None: all), in the order
    of the module docstring, on ``packages["base"]`` and ``packages["new"]``;
    the report of the module docstring."""
    workloads = _workloads()
    with tempfile.TemporaryDirectory(prefix="same_outputs_readme_") as docs:
        channel = Path(docs, "channel.json")
        channel.write_text(json.dumps(CHANNEL))
        todo = [({"workload": workload, "seed": seed, "index": i}, op["kind"], partial(_call, op=op))
                for workload in WORKLOADS for seed in SEEDS
                for i, op in enumerate(workloads.build(workload, seed, 1))]
        todo += [({"workload": "readme", "seed": None, "index": i}, "readme",
                  partial(_cli, argv=tuple(arg.format(channel=channel) for arg in argv)))
                 for i, argv in enumerate(README)]
        todo += [({"workload": "corpus", "seed": None, "index": i}, "point", partial(_call, op=op))
                 for i, op in enumerate(corpus(packages["new"].ChannelParams))]
        todo += [({"workload": "thresholds", "seed": None, "index": i}, "thresholds", partial(_thresholds, call=call))
                 for i, call in enumerate(thresholds_corpus())]
        todo = todo[:ops]
        for side in _SIDES:  # untimed
            todo[0][2](packages[side])
        turns = itertools.count()
        samples = []
        differ, only_rho_or_binding = [], 0
        largest = {"largest_change": None, "largest_rho_change": None}
        rises, falls = dict.fromkeys(HEADLINE), dict.fromkeys(HEADLINE)
        gaps = {side: dict.fromkeys(f"{x} - {y}" for x, y in GAPS) for side in _SIDES}
        for where, kind, run in todo:
            (base, new), cpu = _timed(run, packages, next(turns))
            samples.append([cpu])
            if kind == "point":
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
        # the operations of each workload by kind, and each scarce kind's again in turn
        groups = {}
        for i, (where, kind, _) in enumerate(todo):
            groups.setdefault(where["workload"], {}).setdefault(kind, []).append(i)
        for i in [of[j % len(of)] for kinds in groups.values() for of in kinds.values()
                  for j in range(len(of), KIND_RATIOS)]:
            samples[i].append(_timed(todo[i][2], packages, next(turns))[1])
    return {"compared": len(todo), "differ": len(differ),
            "differ_by_workload": dict(Counter(where["workload"] for where in differ)),
            "only_rho_or_binding": only_rho_or_binding, **largest, "first_differing": differ[:_SHOWN],
            "bound_rises": rises, "bound_falls": falls, "largest_gaps": gaps, "timing": _timing(groups, samples)}


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
