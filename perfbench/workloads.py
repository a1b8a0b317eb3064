"""Seeded inputs of the three workloads, and how one operation runs and is checked.

A run is a whole number of rounds.  Every round of a workload has the same
make-up, so the share of failed operations does not depend on the seed or on
the length of the run; only the drawn values change with the seed.

Operations call the package through module attributes (``scenario_one.bounds``,
``analysis.detect_thresholds``, ``cli.main``), so that the traced run sees
every call once the tracer has replaced those attributes.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import subprocess
import sys

import numpy as np

from diamond_wiretap import ChannelParams, RandomnessBudget, analysis, oracles, scenario_one, scenario_two

import checks

# Nominal length of one round on the reference machine; a run of --seconds S
# holds max(1, round(S / ROUND_SECONDS)) rounds.
ROUND_SECONDS = {"points": 25.0, "sweep": 40.0, "analysis": 25.0}

POINTS_PER_ROUND = 200
# (p1, p2) with power ratios 1e8, 1e9 and 1e10 in both orders, c1 = c2 = 1,
# g = 0.5.  The six are the same in every round, whatever the seed.
EXTREME_POWERS = ((1e4, 1e-4), (1e-4, 1e4), (1e-2, 1e7), (1e7, 1e-2), (1e5, 1e-5), (1e-5, 1e5))

# A round of `sweep` holds six drawn sweeps of 21 rows, which cover every
# value of each setting, and the sweep the package's README documents, 121
# rows along c.  On the reference machine a 121-row sweep takes 13 to 19 s,
# a 21-row one 2.6 to 4.3 s and a start with no rows about 0.3 s.
SWEEP_STEPS = 21
# (--param, --scenario, --format, finite --rprime) of the drawn sweeps
SWEEP_DRAWN = (("c", "1", "kv", True), ("p", "2", "csv", False), ("g", "both", "kv", True),
               ("c", "2", "csv", False), ("p", "both", "kv", True), ("g", "1", "csv", False))
DOCUMENTED_SWEEP = ("--param", "c", "--from", "0", "--to", "3", "--steps", "121", "--p", "10", "--g", "0.1")
# Twelve pdf-gap calls of about 0.55 s each put the 11th-slowest operation of
# a round, op_tail_ms, inside a group of like calls that each span more than
# the host's short speed swings.
GAP_OPS_PER_ROUND = 12
CAPACITY_PER_ROUND = 40
GAP_POWERS = tuple(float(x) for x in np.logspace(1.0, 7.0, 25))
VALIDATION_TRIALS = 1000

# Time limit of one operation: CPU time in this process, wall time for a CLI
# process.  No drawn point has taken more than 0.4 s, so a point still
# running after 1 s is caught in a loop.
TIME_LIMIT_S = {"point": 1.0, "sweep": 60.0, "thresholds": 60.0, "capacity": 60.0,
                "pdf_gap": 60.0, "validate": 60.0}


def rounds_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / ROUND_SECONDS[workload]))


def build(workload: str, seed, rounds: int) -> list[dict]:
    rng = np.random.default_rng(seed)
    make = {"points": _points_round, "sweep": _sweep_round, "analysis": _analysis_round}[workload]
    ops = []
    for _ in range(rounds):
        ops += make(rng)
    return ops


def warmup(workload: str, seed: int) -> list[dict]:
    """A few operations drawn from a stream of their own, run before timing."""
    if workload == "sweep":
        return [_sweep(np.random.default_rng([seed, 1]), *SWEEP_DRAWN[0], steps=3)]
    ops = build(workload, [seed, 1], 1)
    if workload == "points":
        return [op for op in ops if not op.get("extreme")][:2]
    return [next(op for op in ops if op["kind"] == "capacity")]


class Deadline(Exception):
    """An operation ran past its time limit."""


def problems(op: dict, out, exc) -> list[str]:
    """What is wrong with one operation's outcome: its output, or the exception
    it raised.  The one failure tolerated is a fixed extreme point stopped by
    its time limit, where the golden-section loop never ends."""
    if exc is None:
        return check(op, out)
    if isinstance(exc, Deadline) and op.get("extreme"):
        return []
    return [f"raised {type(exc).__name__}: {exc}"]


# --- points ----------------------------------------------------------------

def _point(params: ChannelParams, r_prime: float, extreme: bool = False) -> dict:
    return {"kind": "point", "params": params, "r_prime": r_prime, "extreme": extreme,
            "needed": {"scenario_one": 1, "scenario_two": 1}}


def _points_round(rng) -> list[dict]:
    # drawn as in acceptance criterion 08
    ops = []
    for i in range(POINTS_PER_ROUND):
        g = 0.0 if i % 10 == 0 else float(rng.uniform(0.0, 0.99))
        params = ChannelParams(
            p1=float(10.0 ** rng.uniform(-2.0, 2.0)),
            p2=float(10.0 ** rng.uniform(-2.0, 2.0)),
            c1=float(rng.uniform(0.0, 5.0)),
            c2=float(rng.uniform(0.0, 5.0)),
            g=g,
        )
        r_prime = float(rng.uniform(0.0, 2.0)) if i % 3 == 0 else math.inf
        ops.append(_point(params, r_prime))
    stride = POINTS_PER_ROUND // len(EXTREME_POWERS)
    for k, (p1, p2) in enumerate(EXTREME_POWERS):
        ops.insert(k * (stride + 1) + stride // 2, _point(ChannelParams(p1, p2, 1.0, 1.0, 0.5), math.inf, True))
    return ops


# --- sweep -----------------------------------------------------------------

def _sweep(rng, param, scenario, fmt, finite, steps=SWEEP_STEPS) -> dict:
    base = {"p": float(10.0 ** rng.uniform(-1.0, 2.0)), "c": float(rng.uniform(0.0, 3.0)),
            "g": float(rng.uniform(0.0, 0.9))}
    if param == "c":
        lo = float(rng.uniform(0.0, 1.5))
        hi = lo + float(rng.uniform(0.5, 2.0))
    elif param == "p":
        lo = float(10.0 ** rng.uniform(-1.0, 1.0))
        hi = lo * float(10.0 ** rng.uniform(0.5, 1.5))
    else:
        lo = float(rng.uniform(0.0, 0.4))
        hi = float(rng.uniform(0.5, 0.95))
    rprime = repr(float(rng.uniform(0.1, 2.0))) if finite else "inf"
    argv = ["--param", param, "--from", repr(lo), "--to", repr(hi), "--steps", str(steps)]
    for name, value in base.items():
        if name != param:
            argv += [f"--{name}", repr(value)]
    return _sweep_op(argv, scenario, fmt, rprime)


def _sweep_op(args, scenario, fmt, rprime) -> dict:
    opts = dict(zip(args[::2], args[1::2]))
    steps = int(opts["--steps"])
    s1 = scenario in ("1", "both")
    s2 = scenario in ("2", "both")
    return {"kind": "sweep", "argv": ["sweep", *args, "--scenario", scenario, "--format", fmt, "--rprime", rprime],
            "param": opts["--param"], "scenario": scenario, "format": fmt,
            "from": float(opts["--from"]), "to": float(opts["--to"]), "steps": steps,
            # the no-eavesdropper columns need one scenario-1 bound per row
            "needed": {"scenario_one": steps * (1 + s1), "scenario_two": steps * s2}}


def _sweep_round(rng) -> list[dict]:
    ops = [_sweep(rng, *settings) for settings in SWEEP_DRAWN]
    # the documented sweep runs mid-round, so that no phase of the run always falls on it
    ops.insert(len(ops) // 2, _sweep_op(list(DOCUMENTED_SWEEP), "both", "csv", "inf"))
    return ops


# --- analysis --------------------------------------------------------------

def _analysis_round(rng) -> list[dict]:
    none = {"scenario_one": 0, "scenario_two": 0}

    def thresholds(p, g, scenario, r_prime=math.inf, low_crossing=False):
        return {"kind": "thresholds", "p": p, "g": g, "scenario": scenario, "r_prime": r_prime,
                "low_crossing": low_crossing, "needed": none}

    def drawn_pg():
        return float(10.0 ** rng.uniform(-0.5, 1.5)), float(rng.uniform(0.05, 0.5))

    detect = [
        thresholds(1.0, 0.1, 1, low_crossing=True),
        thresholds(*drawn_pg(), 2),
        thresholds(*drawn_pg(), 1),
        thresholds(*drawn_pg(), 2, r_prime=float(rng.uniform(0.3, 1.5))),
    ]
    gaps = [{"kind": "pdf_gap", "g": float(rng.uniform(0.01, 0.9)), "c": float(rng.uniform(0.2, 4.0)),
             "powers": GAP_POWERS, "needed": {"scenario_one": len(GAP_POWERS), "scenario_two": 0}}
            for _ in range(GAP_OPS_PER_ROUND)]
    per = len(gaps) // len(detect)
    ops = [op for k, d in enumerate(detect) for op in (d, *gaps[k * per:(k + 1) * per])]
    ops.append({"kind": "validate", "trials": VALIDATION_TRIALS, "seed": int(rng.integers(2**31)),
                "needed": none})
    # the window at P = 10, g = 0.1 is about [1.10, 2.18]
    round_ops = [{"kind": "capacity", "p": 10.0, "c": float(rng.uniform(0.9, 2.4)), "g": 0.1,
                  "needed": {"scenario_one": 0, "scenario_two": 1}} for _ in range(CAPACITY_PER_ROUND)]
    # spread the slow calls evenly through the round
    step = len(round_ops) / len(ops)
    for k, op in enumerate(ops):
        round_ops.insert(round(k * step) + k, op)
    return round_ops


# --- running and checking --------------------------------------------------

def execute(op: dict, root: str, in_process: bool):
    kind = op["kind"]
    if kind == "point":
        budget = RandomnessBudget(op["r_prime"])
        return scenario_one.bounds(op["params"], budget), scenario_two.bounds(op["params"], budget)
    if kind == "sweep":
        if in_process:
            from diamond_wiretap import cli
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(op["argv"])
            return code, out.getvalue()
        # no timeout here: with one, the wait for the exit polls in sleeps of up to 50 ms
        proc = subprocess.run([sys.executable, "-m", "diamond_wiretap", *op["argv"]],
                              cwd=root, env=child_env(root), capture_output=True, text=True)
        return proc.returncode, proc.stdout
    if kind == "thresholds":
        return analysis.detect_thresholds(op["p"], op["g"], op["scenario"], budget=RandomnessBudget(op["r_prime"]))
    if kind == "capacity":
        return analysis.capacity_condition(ChannelParams.symmetric(op["p"], op["c"], op["g"]))
    if kind == "pdf_gap":
        return analysis.pdf_gap_vs_power(op["g"], op["c"], op["c"], op["powers"])
    if kind == "validate":
        return oracles.validate_closed_forms(trials=op["trials"], seed=op["seed"])
    raise ValueError(f"unknown operation {kind!r}")


def check(op: dict, out) -> list[str]:
    kind = op["kind"]
    if kind == "point":
        return checks.check_point(op["params"], op["r_prime"], *out)
    if kind == "sweep":
        return checks.check_sweep(op, *out)
    return {"thresholds": checks.check_thresholds, "capacity": checks.check_capacity,
            "pdf_gap": checks.check_pdf_gap, "validate": checks.check_validation}[kind](op, out)


def describe(op: dict) -> str:
    if op["kind"] == "point":
        p = op["params"]
        return f"point p1={p.p1:.6g} p2={p.p2:.6g} c1={p.c1:.6g} c2={p.c2:.6g} g={p.g:.6g} r'={op['r_prime']:.6g}"
    if op["kind"] == "sweep":
        return " ".join(op["argv"])
    return op["kind"] + " " + " ".join(f"{k}={v}" for k, v in op.items()
                                       if k in ("p", "g", "c", "scenario", "r_prime", "seed"))


def child_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env
