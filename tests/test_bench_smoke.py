"""Smoke test of the benchmark's own runs: what makes ``perfbench/run.py`` exit 1.

``run.py`` exits 1 when a check of an operation fails, or when something
raises outside its per-operation ``try``: the set-up probe (which builds a
workload's inputs), the warm-up operations, and the checks reading the
report fields.  This runs the probe's build and the warm-ups of every
workload for seeds 1-30, and the full ``points`` round of seed 101, through
``workloads.execute`` and ``workloads.problems``, in this process.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import tracing  # noqa: E402
import workloads  # noqa: E402
from diamond_wiretap import scenario_two  # noqa: E402
from diamond_wiretap.rate_functions import ChannelParams, RandomnessBudget  # noqa: E402

SEEDS = range(1, 31)


def _problems(op):
    try:
        out, exc = workloads.execute(op, str(ROOT), True), None
    except Exception as e:  # noqa: BLE001 - judged as run.py judges it
        out, exc = None, e
    return workloads.problems(op, out, exc)


@pytest.mark.parametrize("workload", ["points", "sweep", "analysis"])
def test_warmups_and_set_up_probe_run_clean(workload, deadline):
    with deadline(120.0):
        for seed in SEEDS:
            assert workloads.build(workload, seed, 1)
            for op in workloads.warmup(workload, seed):
                assert _problems(op) == [], (seed, workloads.describe(op))


def test_a_full_points_round_runs_clean(deadline):
    with deadline(120.0):
        ops = workloads.build("points", 101, 1)
        bad = [(workloads.describe(op), msgs) for op in ops for msgs in [_problems(op)] if msgs]
    assert bad == []


def test_the_tracer_sees_scenario_two_reach_its_converse_and_the_solver():
    """The benchmark's tracer wraps names where their callers look them up.
    One ``scenario_two.bounds`` call must then record one
    ``scenario_two.upper_bound`` span and at least one
    ``scalar_opt.maximize_min`` span.  A ``bounds`` that reached its converse
    through a reference captured at import would read 0 upper-bound calls,
    and ``scenario_two.useful_ratio`` would fall back to its default of 1.0."""
    tracer = tracing.Tracer()
    tracer.install()
    try:
        scenario_two.bounds(ChannelParams.symmetric(10.0, 1.5, 0.1), RandomnessBudget.unbounded())
    finally:
        tracer.uninstall()
    assert tracer.stats["scenario_two.upper_bound"][0] == 1
    assert tracer.stats["scalar_opt.maximize_min"][0] >= 1
