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
code, standard output and standard error), and the first few that differ,
each as its workload, seed and index in that seed's list; a README
invocation as "readme", None and its index in ``README``, a channel of the
corpus as "corpus", None and its index in it, and a call of the thresholds
corpus as "thresholds", None and its index in it.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
import tempfile
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
        differ = [where for where, run in todo if repr(run(packages["base"])) != repr(run(packages["new"]))]
    return {"compared": len(todo), "differ": len(differ), "first_differing": differ[:_SHOWN]}


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
