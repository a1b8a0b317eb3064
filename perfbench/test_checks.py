"""The benchmark's own test: every checker passes real output and rejects corrupted output.

    python3 -m pytest -q perfbench/test_checks.py
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(1, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from diamond_wiretap import ChannelParams, RandomnessBudget, analysis, cli, oracles, scenario_one, scenario_two  # noqa: E402

replace = dataclasses.replace


# --- points ----------------------------------------------------------------

def _point(params, r_prime=math.inf):
    budget = RandomnessBudget(r_prime)
    return params, r_prime, scenario_one.bounds(params, budget), scenario_two.bounds(params, budget)


@pytest.fixture(scope="module")
def point():
    return _point(ChannelParams(3.0, 0.7, 1.2, 0.9, 0.3))


@pytest.fixture(scope="module")
def budget_point():
    return _point(ChannelParams(3.0, 0.7, 1.2, 0.9, 0.3), 0.4)


def test_point_passes(point, budget_point):
    assert checks.check_point(*point) == []
    assert checks.check_point(*budget_point) == []
    assert budget_point[2].rho_max < 1.0


def test_point_rejects_upper_bound_lowered_by_1e6(point):
    p, r, b1, b2 = point
    bad = replace(b1, upper=replace(b1.upper, value=b1.upper.value - 1e-6))
    assert checks.check_point(p, r, bad, b2)


def test_point_rejects_consistent_but_underreported_converse(point):
    # a branch optimum moved to a worse rho, with its value re-evaluated there:
    # only the dense-grid comparison can see it
    p, r, b1, b2 = point
    name = b2.upper.branch
    opt = b2.upper.sub_reports[name]
    lo, hi = checks.UPPER_BRANCHES[name][0](p)
    rho = lo + 0.5 * (opt.rho - lo) if opt.rho - lo > hi - opt.rho else hi - 0.5 * (hi - opt.rho)
    value = float(checks.UPPER_BRANCHES[name][1](p, rho))
    assert value < opt.value - 1e-6
    subs = dict(b2.upper.sub_reports, **{name: replace(opt, rho=rho, value=value)})
    bad = replace(b2, upper=replace(b2.upper, rho=rho, value=value, raw_value=value, sub_reports=subs))
    errs = checks.check_point(p, r, b1, bad)
    assert any("dense-grid" in e for e in errs), errs


def test_point_rejects_lower_above_upper(point):
    p, r, b1, b2 = point
    bad = replace(b2, lower=b2.upper.value + 1e-3)
    assert checks.check_point(p, r, b1, bad)


def test_point_rejects_misreported_scheme_rate(point):
    p, r, b1, b2 = point
    pdfm = b1.lower_pdf_m
    bad = replace(b1, lower_pdf_m=replace(pdfm, raw_value=pdfm.raw_value + 1e-6, value=pdfm.value + 1e-6))
    assert checks.check_point(p, r, bad, b2)


def test_point_rejects_rho_beyond_budget(budget_point):
    p, r, b1, b2 = budget_point
    df = b1.lower_df
    raw = float(checks.SCHEMES["s1_df"](p, 1.0))
    bad = replace(b1, lower_df=replace(df, rho=1.0, raw_value=raw, value=max(0.0, raw)))
    assert any("leaks" in e for e in checks.check_point(p, r, bad, b2))


def test_point_rejects_scenarios_apart_at_g0():
    p, r, b1, b2 = _point(ChannelParams(2.0, 5.0, 0.8, 1.5, 0.0))
    assert checks.check_point(p, r, b1, b2) == []
    bad = replace(b2, lower=b2.lower - 1e-6)
    assert checks.check_point(p, r, b1, bad)


# --- sweep -----------------------------------------------------------------

def _sweep(param, fmt, lo, hi, steps=3, scenario="both", extra=("--p", "10", "--g", "0.1")):
    argv = ["sweep", "--param", param, "--from", repr(lo), "--to", repr(hi), "--steps", str(steps),
            "--scenario", scenario, "--format", fmt, *extra]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    op = {"param": param, "scenario": scenario, "format": fmt, "from": lo, "to": hi, "steps": steps}
    return op, code, out.getvalue()


@pytest.fixture(scope="module")
def sweep_csv():
    return _sweep("c", "csv", 0.5, 2.0)


@pytest.fixture(scope="module")
def sweep_kv():
    return _sweep("g", "kv", 0.1, 0.6, scenario="1", extra=("--p", "10", "--c", "1.5"))


def _edit_csv(text, row, column, value):
    lines = text.strip("\n").split("\n")
    header = lines[0].split(",")
    fields = lines[row + 1].split(",")
    fields[header.index(column)] = value
    lines[row + 1] = ",".join(fields)
    return "\n".join(lines) + "\n"


def test_sweep_passes(sweep_csv, sweep_kv):
    assert checks.check_sweep(*sweep_csv) == []
    assert checks.check_sweep(*sweep_kv) == []


def test_sweep_rejects_dropped_row(sweep_csv, sweep_kv):
    op, code, text = sweep_csv
    assert checks.check_sweep(op, code, "\n".join(text.split("\n")[:-2]) + "\n")
    op, code, text = sweep_kv
    assert checks.check_sweep(op, code, "\n\n".join(text.split("\n\n")[:-1]) + "\n")


def test_sweep_rejects_failed_process(sweep_csv):
    op, _, text = sweep_csv
    assert checks.check_sweep(op, 2, text)


def test_sweep_rejects_wrong_grid(sweep_csv):
    op, code, text = sweep_csv
    assert checks.check_sweep(op, code, _edit_csv(text, 1, "swept_value", "1.3"))


def test_sweep_rejects_lower_above_upper(sweep_csv):
    op, code, text = sweep_csv
    row = checks.parse_table(text, "csv")[2]
    assert checks.check_sweep(op, code, _edit_csv(text, 2, "lb2", f"{float(row['ub2']) + 1e-3:.6g}"))


def test_sweep_rejects_broken_monotonicity(sweep_csv, sweep_kv):
    op, code, text = sweep_csv
    row = checks.parse_table(text, "csv")[0]
    assert checks.check_sweep(op, code, _edit_csv(text, 1, "lb1", f"{float(row['lb1']) - 1e-3:.6g}"))
    op, code, text = sweep_kv
    rows = checks.parse_table(text, "kv")
    bumped = text.replace(f"ub1 = {rows[2]['ub1']}\n", f"ub1 = {float(rows[1]['ub1']) + 1e-3:.10g}\n")
    assert bumped != text
    assert checks.check_sweep(op, code, bumped)


# --- analysis --------------------------------------------------------------

@pytest.fixture(scope="module")
def thresholds():
    op = {"p": 1.0, "g": 0.1, "low_crossing": True}
    return op, analysis.detect_thresholds(1.0, 0.1, 1, c_min=0.25, c_max=0.45, steps=11)


def test_thresholds_pass_and_reject_a_moved_crossing(thresholds):
    op, report = thresholds
    assert checks.check_thresholds(op, report) == []
    moved = replace(report.crossings[0], c=report.crossings[0].c + 1e-3)
    assert checks.check_thresholds(op, replace(report, crossings=(moved,)))
    lone = replace(report.crossings[0], schemes=("pdfm",))
    assert checks.check_thresholds(op, replace(report, crossings=(lone,)))


@pytest.fixture(scope="module")
def capacity():
    op = {"p": 10.0, "c": 1.5, "g": 0.1}
    return op, analysis.capacity_condition(ChannelParams.symmetric(10.0, 1.5, 0.1))


def test_capacity_passes_and_rejects_corruption(capacity):
    op, verdict = capacity
    assert verdict.applies
    assert checks.check_capacity(op, verdict) == []
    assert checks.check_capacity(op, replace(verdict, capacity=verdict.capacity + 1e-6))
    assert checks.check_capacity(op, replace(verdict, condition_lower=verdict.condition_lower + 1e-6))
    assert checks.check_capacity(op, replace(verdict, upper_value=verdict.upper_value + 1e-3))
    # a verdict that stops applying inside the window, where the auxiliary inequalities hold
    assert checks.check_capacity(op, replace(verdict, applies=False, capacity=None, rho_prime=None))


def test_capacity_outside_the_window_rejects_lower_above_upper():
    op = {"p": 10.0, "c": 0.95, "g": 0.1}
    verdict = analysis.capacity_condition(ChannelParams.symmetric(10.0, 0.95, 0.1))
    assert not verdict.applies
    assert checks.check_capacity(op, verdict) == []
    assert checks.check_capacity(op, replace(verdict, lower_value=verdict.upper_value + 1e-3))
    assert checks.check_capacity(op, replace(verdict, applies=True))


@pytest.fixture(scope="module")
def pdf_gap():
    op = {"g": 0.1, "c": 1.0, "powers": (1e1, 1e3, 1e5, 1e7)}
    return op, analysis.pdf_gap_vs_power(0.1, 1.0, 1.0, op["powers"])


def test_pdf_gap_passes_and_rejects_corruption(pdf_gap):
    op, report = pdf_gap
    assert checks.check_pdf_gap(op, report) == []
    rows = list(report.rows)
    rows[2] = replace(rows[2], upper=rows[1].upper + 1.0, gap=rows[1].gap + 1.0)
    assert checks.check_pdf_gap(op, replace(report, rows=tuple(rows)))
    assert checks.check_pdf_gap(op, replace(report, mac_limit=report.mac_limit + 1e-6))
    assert checks.check_pdf_gap(op, replace(report, rows=report.rows[:-1]))


def test_validation_passes_and_rejects_failures():
    op = {"trials": 40}
    report = oracles.validate_closed_forms(trials=40, seed=3)
    assert checks.check_validation(op, report) == []
    assert checks.check_validation(op, replace(report, failures=((0, "f4", 1e-3),)))
    assert checks.check_validation(op, replace(report, checked=report.checked - 1))


# --- failed operations -------------------------------------------------------

def test_only_a_deadline_on_an_extreme_point_is_a_tolerated_failure():
    drawn = workloads._point(ChannelParams(3.0, 0.7, 1.2, 0.9, 0.3), math.inf)
    extreme = workloads._point(ChannelParams(1e5, 1e-5, 1.0, 1.0, 0.5), math.inf, True)
    assert workloads.problems(extreme, None, workloads.Deadline("time limit reached")) == []
    assert workloads.problems(drawn, None, workloads.Deadline("time limit reached"))
    assert workloads.problems(extreme, None, ValueError("domain"))
    capacity = {"kind": "capacity", "p": 10.0, "c": 1.5, "g": 0.1}
    assert workloads.problems(capacity, None, RuntimeError("no sign change"))


# --- tracing ---------------------------------------------------------------

def test_tracer_wraps_names_where_callers_look_them_up_and_restores_them():
    before = scenario_one.maximize_min
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert scenario_one.maximize_min is not before
        scenario_one.bounds(ChannelParams.symmetric(10.0, 1.5, 0.1), RandomnessBudget.unbounded())
    finally:
        tracer.uninstall()
    assert scenario_one.maximize_min is before
    assert tracer.stats["scenario_one.upper_bound"][0] == 1
    assert tracer.stats["scalar_opt.maximize_min"][0] > 0  # reached through scenario_one's own name
    assert sum(tracer.stats[k][0] for k in ("rate_functions.scalar", "rate_functions.vector") if k in tracer.stats) > 0
