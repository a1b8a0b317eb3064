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

The last line of standard output is one JSON object: the operations
compared, how many of them differ in the ``repr`` of their outputs (a
sweep's: its exit code and standard output; a README invocation's: its exit
code, standard output and standard error), and the first few that differ,
each as its workload, seed and index in that seed's list; a README
invocation as "readme", None and its index in ``README``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import tempfile
from functools import partial
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from ab_compare import ROOT, _call, _export, load  # noqa: E402

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


def _cli(pkg, argv: tuple[str, ...]) -> tuple[int, str, str]:
    """The exit code, standard output and standard error of ``cli.main(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = pkg.cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


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
    with tempfile.TemporaryDirectory(prefix="same_outputs_readme_") as docs:
        channel = Path(docs, "channel.json")
        channel.write_text(json.dumps(CHANNEL))
        todo = [({"workload": workload, "seed": seed, "index": i}, partial(_call, op=op))
                for workload in WORKLOADS for seed in SEEDS
                for i, op in enumerate(workloads.build(workload, seed, 1))]
        todo += [({"workload": "readme", "seed": None, "index": i},
                  partial(_cli, argv=tuple(arg.format(channel=channel) for arg in argv)))
                 for i, argv in enumerate(README)]
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
