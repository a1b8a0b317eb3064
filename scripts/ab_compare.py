"""In-process A/B timing of the package at a base revision against the working tree.

    python3 scripts/ab_compare.py --base <rev> --workload {points,sweep,analysis}

Run from the root of a git checkout.  The committed files of ``--base`` are
exported (``git archive``) into a temporary directory, and the package of
its ``src`` and that of the working tree's ``src`` are imported into this one
process under distinct names, ``ab_base`` and ``ab_new``.  The workload's
operations are built by ``perfbench/workloads.build`` from one round of
seed 1, and each runs once on each version, the version that runs first
alternating from operation to operation; a sweep runs through ``cli.main``.
Every call is timed in CPU time (``time.process_time``), after one untimed
call of the first operation on each side.  One process sees the host's speed
swings on both sides alike, which separate benchmark processes do not.

The last line of standard output is one JSON object: the median of the
per-operation ratios new/base and their quartiles, the operations on which
the new version was faster, both CPU totals, the operations whose outputs
differ in ``repr`` (a sweep's: its exit code and standard output), and for
each kind of operation its count and the median of its ratios: the
``analysis`` workload mixes kinds whose costs differ about 20-fold, so one
median hides which kind moved.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import importlib
import importlib.util
import io
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# one fixed list of operations, so that runs on different days compare
SEED = 1
_SUBMODULES = ("scenario_one", "scenario_two", "analysis", "oracles", "cli")


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


def compare(packages: dict, workload: str, ops: int | None) -> dict:
    """Time the first ``ops`` operations of ``workload`` (None: all) on
    ``packages["base"]`` and ``packages["new"]``, alternating call by call;
    the report of the module docstring."""
    todo = _workloads().build(workload, SEED, 1)[:ops]
    for side in ("base", "new"):
        _call(packages[side], todo[0])
    times = {"base": [], "new": []}
    differ = 0
    for i, op in enumerate(todo):
        outs = {}
        for side in ("base", "new") if i % 2 == 0 else ("new", "base"):
            start = time.process_time()
            outs[side] = _call(packages[side], op)
            times[side].append(time.process_time() - start)
        differ += repr(outs["base"]) != repr(outs["new"])
    ratios = [new / base for base, new in zip(times["base"], times["new"])]
    q1, median, q3 = statistics.quantiles(ratios, n=4, method="inclusive")
    kinds = {}
    for op, ratio in zip(todo, ratios):
        kinds.setdefault(op["kind"], []).append(ratio)
    return {"workload": workload, "seed": SEED, "ops": len(todo),
            "ratio_median": median, "ratio_q1": q1, "ratio_q3": q3,
            "new_wins": sum(new < base for base, new in zip(times["base"], times["new"])),
            "base_cpu_s": sum(times["base"]), "new_cpu_s": sum(times["new"]), "outputs_differ": differ,
            "kinds": {kind: {"ops": len(of), "ratio_median": statistics.median(of)} for kind, of in kinds.items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--base", required=True, help="revision to compare the working tree against")
    ap.add_argument("--workload", required=True, choices=("points", "sweep", "analysis"))
    args = ap.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="ab_compare_") as scratch:
        sha = _export(args.base, scratch)
        packages = {"base": load(Path(scratch, "src"), "ab_base"), "new": load(ROOT / "src", "ab_new")}
        report = compare(packages, args.workload, None)
    print(json.dumps({"base": {"rev": args.base, "sha": sha}, **report}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
