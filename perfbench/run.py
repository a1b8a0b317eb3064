"""Benchmark of the diamond-wiretap bounds library and its CLI.

    python3 perfbench/run.py --workload {points,sweep,analysis} --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  One process, one caller, no extra threads:
the workload's fixed, seeded list of operations runs to its end after a few
untimed warm-up operations, and every output is then checked against the
paper's formulas.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics of a traced run
with ``--trace 1``.  Per-operation records go to ``perfbench/out/``.  The exit
code is 0 when every operation passed its checks; the one failure tolerated
is a fixed extreme point of ``points`` stopped by its time limit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Set-up probes spread through the timed loop, after one before it that may
# write bytecode caches and is not counted.  Spread out, no single phase of
# the host decides their median.
SETUP_PROBES = 8
# The traced run always draws from this seed, so that its counts repeat
# exactly from run to run and can be compared across commits.
TRACE_SEED = 0


def _setup_cmd(workload: str, seed: int, rounds: int) -> list[str]:
    """A fresh interpreter that imports the package and builds the inputs; for
    ``sweep``, a CLI process that does no numerical work."""
    if workload == "sweep":
        return [sys.executable, "-m", "diamond_wiretap", "--help"]
    return [sys.executable, str(ROOT / "perfbench" / "probe.py"), workload, str(seed), str(rounds)]


def _time_process(cmd: list[str], env: dict) -> float:
    t0 = time.perf_counter()
    # no timeout: with one, the wait polls in sleeps of up to 50 ms
    subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, check=True)
    return time.perf_counter() - t0


def _tail(times: list[float]) -> float:
    """The 11th-slowest time, the highest percentile with at least ten
    operations beyond it.  A run of fewer than forty operations (``sweep``)
    has no such percentile and gives its slowest operation."""
    ordered = sorted(times)
    return ordered[-11] if len(ordered) >= 40 else ordered[-1]


def _run_op(workloads, op: dict, in_process: bool):
    # CPU time bounds work in this process, wall time a CLI process it waits for;
    # subprocess.run kills the CLI process when the limit interrupts it
    timer = signal.ITIMER_REAL if op["kind"] == "sweep" and not in_process else signal.ITIMER_PROF
    signal.setitimer(timer, workloads.TIME_LIMIT_S[op["kind"]])
    try:
        return workloads.execute(op, str(ROOT), in_process)
    finally:
        signal.setitimer(timer, 0)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=("points", "sweep", "analysis"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "diamond_wiretap" / "__init__.py").is_file():
        print(f"perfbench: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(1, str(ROOT / "src"))
    import numpy as np
    import tracing
    import workloads

    trace = args.trace == 1
    rounds = workloads.rounds_for(args.workload, args.seconds)
    env = workloads.child_env(str(ROOT))
    seed = TRACE_SEED if trace else args.seed
    setup_cmd = _setup_cmd(args.workload, seed, rounds)
    if not trace:
        _time_process(setup_cmd, env)

    ops = workloads.build(args.workload, seed, rounds)
    probe_at = [] if trace else [k * len(ops) // SETUP_PROBES for k in range(SETUP_PROBES)]

    def on_deadline(signum, frame):
        raise workloads.Deadline("time limit reached")

    signal.signal(signal.SIGPROF, on_deadline)
    signal.signal(signal.SIGALRM, on_deadline)
    for op in workloads.warmup(args.workload, seed):
        _run_op(workloads, op, trace)

    tracer = tracing.Tracer() if trace else None
    if tracer:
        tracer.install()
    records = []
    setup = []
    t_start = time.perf_counter()
    for i, op in enumerate(ops):
        setup += [_time_process(setup_cmd, env) for _ in range(probe_at.count(i))]
        snap = tracer.snapshot() if tracer else None
        t0 = time.perf_counter()
        try:
            out, exc = _run_op(workloads, op, trace), None
        except Exception as e:  # judged with the outputs, after the loop
            out, exc = None, e
        dt = time.perf_counter() - t0
        if exc and tracer:
            tracer.restore(snap)
        records.append([op, dt, out, exc])
    wall = time.perf_counter() - t_start - sum(setup)
    usage = resource.RUSAGE_CHILDREN if args.workload == "sweep" and not trace else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(usage).ru_maxrss / 1024.0
    if tracer:
        tracer.uninstall()

    correct = True
    log = []
    for op, dt, out, exc in records:
        problems = workloads.problems(op, out, exc)
        correct = correct and not problems
        log.append({"op": workloads.describe(op), "ms": dt * 1e3,
                    "error": exc and f"{type(exc).__name__}: {exc}", "problems": problems})
        for msg in problems:
            print(f"check failed: {workloads.describe(op)}: {msg}", file=sys.stderr)

    done = [dt for _, dt, _, exc in records if exc is None]
    if not done:
        print(f"perfbench: none of {len(records)} operations completed", file=sys.stderr)
        return 1
    if trace:
        needed = {m: sum(op["needed"][m] for op, _, _, exc in records if exc is None)
                  for m in ("scenario_one", "scenario_two")}
        metrics = tracer.per_layer(len(done), needed, tracing.import_times(str(ROOT), env))
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "ops_per_s": {"value": len(done) / wall, "unit": "1/s"},
            "op_p50_ms": {"value": statistics.median(done) * 1e3, "unit": "ms"},
            "op_tail_ms": {"value": _tail(done) * 1e3, "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
        }
    result = {"correct": correct, "attempted": len(records), "failed": len(records) - len(done),
              "metrics": metrics}

    out_dir = ROOT / "perfbench" / "out"
    out_dir.mkdir(exist_ok=True)
    with open(out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({"workload": args.workload, "seed": seed, "rounds": rounds, "trace": args.trace,
                   "wall_s": wall, "setup_s": setup,
                   "python": platform.python_version(), "numpy": np.__version__, "nproc": os.cpu_count(),
                   "result": result, "trace_spans": tracer.stats if tracer else None,
                   "ops": log}, fh, indent=1)

    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"attempted = {len(records)}, failed = {len(records) - len(done)}, correct = {str(correct).lower()}")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
