"""Alternating base/head runs of the benchmark, summarized into BENCH_<n>.json.

    python3 scripts/bench_compare.py --base <rev> --runs 10 --out BENCH_<n>.json

Run from the root of a git checkout.  The committed files of ``--base`` and
of HEAD are exported (``git archive``) into two temporary directories,
and every workload that ``BENCHMARK.json`` declares runs there in pairs:
one run of each side per pair, with the same seed, the side that runs first
alternating from pair to pair.  Each run is ``perfbench/run.py`` with the
declared run length and tracing off.  The output file holds, for every
workload and end-to-end metric, each side's median and quartiles, the pairs
the head wins (ties counting for neither side), whether its median is worse
than the base's by more than the declared bound, whether it is a gain:
better in nine tenths of the pairs, and in the median by more than the
distance between the base's quartiles, and whether it is unresolved: the
base's quartile distance exceeds the declared bound relative to its median,
so that a median within the bound says little, unless every head run beats
every base run.  It also records both shas, the Python and numpy versions,
``nproc`` and every run's failed and correct flags.  It exits with 2,
running nothing, while ``src``, ``perfbench`` or ``BENCHMARK.json`` hold
uncommitted changes, which the export would leave out.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from same_outputs import _export  # noqa: E402

# pair i runs seed _FIRST_SEED + i on both sides
_FIRST_SEED = 101


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], check=True, capture_output=True, text=True).stdout.strip()


def _run(root: str, command: list[str], workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run([*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)],
                          cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{workload} seed {seed} in {root} printed nothing: {proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def _spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def _summary(metric: dict, base: list[float], head: list[float]) -> dict:
    sign = 1.0 if metric["better"] == "higher" else -1.0
    wins = sum(sign * (h - b) > 0 for b, h in zip(base, head))
    losses = sum(sign * (h - b) < 0 for b, h in zip(base, head))
    b, h = _spread(base), _spread(head)
    worse_by = sign * (b["median"] - h["median"]) / abs(b["median"]) if b["median"] else 0.0
    spread_exceeds_bound = b["q3"] - b["q1"] > metric["bound"] * abs(b["median"])
    head_beats_every_base_run = min(sign * v for v in head) > max(sign * v for v in base)
    return {
        "unit": metric["unit"], "better": metric["better"], "base": b, "head": h,
        "head_wins": wins, "head_losses": losses,
        "head_worse_by": worse_by, "within_bound": worse_by <= metric["bound"],
        "gain": wins >= 0.9 * len(base) and sign * (h["median"] - b["median"]) > b["q3"] - b["q1"],
        "unresolved": spread_exceeds_bound and not head_beats_every_base_run,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--base", required=True, help="revision to compare against")
    ap.add_argument("--runs", type=int, default=10, help="pairs of runs per workload")
    ap.add_argument("--out", required=True, help="output file, BENCH_<n>.json at the repository root")
    args = ap.parse_args(argv)

    dirty = _git("status", "--porcelain", "--", "src", "perfbench", "BENCHMARK.json")
    if dirty:
        print(f"uncommitted changes would not be benchmarked, commit them first:\n{dirty}", file=sys.stderr)
        return 2
    shas = {"base": _git("rev-parse", args.base), "head": _git("rev-parse", "HEAD")}
    with tempfile.TemporaryDirectory(prefix="bench_compare_") as scratch:
        roots = {side: os.path.join(scratch, side) for side in shas}
        for side, root in roots.items():
            os.mkdir(root)
            _export(shas[side], root)
        spec = json.loads(Path(roots["head"], "BENCHMARK.json").read_text())
        command = [sys.executable if part in ("python", "python3") else part for part in spec["command"]]
        results = {}
        for workload in (w["name"] for w in spec["workloads"]):
            runs = {"base": [], "head": []}
            for i in range(args.runs):
                for side in ("base", "head") if i % 2 == 0 else ("head", "base"):
                    runs[side].append(_run(roots[side], command, workload, _FIRST_SEED + i, spec["run_seconds"]))
                    print(f"{workload} pair {i + 1}/{args.runs} {side}: {runs[side][-1]['metrics']}", file=sys.stderr)
            results[workload] = {
                "metrics": {m["name"]: _summary(m, *([r["metrics"][m["name"]]["value"] for r in runs[side]]
                                                     for side in ("base", "head")))
                            for m in spec["end_to_end"]},
                **{f"{side}_runs": [{k: r[k] for k in ("correct", "attempted", "failed")} for r in runs[side]]
                   for side in ("base", "head")},
            }
    try:
        numpy_version = importlib.metadata.version("numpy")  # perfbench/run.py imports it
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    record = {
        "base": {"rev": args.base, "sha": shas["base"]}, "head": {"rev": "HEAD", "sha": shas["head"]},
        "pairs": args.runs, "first_seed": _FIRST_SEED, "run_seconds": spec["run_seconds"],
        "python": platform.python_version(), "numpy": numpy_version, "nproc": os.cpu_count(),
        "machine": platform.machine(), "workloads": results,
    }
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
