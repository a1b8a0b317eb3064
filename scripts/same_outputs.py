"""Compare the outputs of the package at a base revision with the working tree's.

    python3 scripts/same_outputs.py --base <rev>

Run from the root of a git checkout.  As in ``scripts/ab_compare.py``, the
committed files of ``--base`` are exported (``git archive``) into a
temporary directory and both packages are imported into this one process.
Every operation of the ``points``, ``analysis`` and ``sweep`` workloads of
``perfbench/workloads.build``, one round of each of the benchmark's seeds
101 to 105, runs once on each version; a sweep runs through ``cli.main``.

The last line of standard output is one JSON object: the operations
compared, how many of them differ in the ``repr`` of their outputs (a
sweep's: its exit code and standard output), and the first few that differ,
each as its workload, seed and index in that seed's list.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from ab_compare import ROOT, _call, _export, load  # noqa: E402

WORKLOADS = ("points", "analysis", "sweep")
# the seeds of the benchmark's pairs of runs (scripts/bench_compare.py)
SEEDS = range(101, 106)
# differing operations listed in the report
_SHOWN = 10


def compare(packages: dict, ops: int | None) -> dict:
    """Run the first ``ops`` operations (None: all), in the order of the
    module docstring, on ``packages["base"]`` and ``packages["new"]``; the
    report of the module docstring."""
    paths = [str(ROOT / "perfbench"), str(ROOT / "src")]
    sys.path[:0] = paths
    try:
        import workloads
    finally:
        del sys.path[:len(paths)]
    todo = [(workload, seed, i, op) for workload in WORKLOADS for seed in SEEDS
            for i, op in enumerate(workloads.build(workload, seed, 1))][:ops]
    differ = [{"workload": workload, "seed": seed, "index": i} for workload, seed, i, op in todo
              if repr(_call(packages["base"], op)) != repr(_call(packages["new"], op))]
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
