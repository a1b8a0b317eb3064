"""Capacity verdicts, asymptotic gap study, threshold detection, comparisons."""

import math
import re
import tracemalloc
from dataclasses import replace

import pytest

from diamond_wiretap import analysis, rate_functions as rf, scenario_one, scenario_two
from diamond_wiretap.errors import AsymmetricParams, ParameterError
from diamond_wiretap.rate_functions import ChannelParams, RandomnessBudget

# frozen with an independent high-precision evaluation
CAPACITY_P10_C15 = 1.49403001061
RHO_PRIME_P10 = 0.678189370176
WINDOW_P10 = (1.09807935569, 2.17921543992)
WINDOW_P100 = (1.91276292279, 3.82373371036)
MAC_LIMIT_G01 = 1.66096404744   # 0.5 log2(1/g) at g = 0.1
DF_PDF_CROSS_P1 = 0.660964047444  # f4 - f5 at rho = 0, p = 1, g = 0.1


def test_capacity_condition_applies():
    v = analysis.capacity_condition(ChannelParams.symmetric(10.0, 1.5, 0.1))
    assert v.applies
    assert v.capacity == pytest.approx(CAPACITY_P10_C15, abs=1e-9)
    assert v.rho_prime == pytest.approx(RHO_PRIME_P10, abs=1e-9)
    assert v.auxiliary in ("f1", "both")
    assert abs(v.upper_value - v.capacity) <= 1e-6
    assert abs(v.lower_value - v.capacity) <= 1e-6
    # self-consistency: the capacity is the cut value at the matching correlation
    p = ChannelParams.symmetric(10.0, 1.5, 0.1)
    assert v.capacity == pytest.approx(rf.f3(p, v.rho_prime) - rf.f5(p, v.rho_prime), abs=1e-9)
    assert rf.f3(p, v.rho_prime) == pytest.approx(rf.f4(p, v.rho_prime), abs=1e-8)


def test_capacity_window_endpoints():
    v10 = analysis.capacity_condition(ChannelParams.symmetric(10.0, 1.5, 0.1))
    assert v10.condition_lower == pytest.approx(WINDOW_P10[0], abs=1e-9)
    assert v10.condition_upper == pytest.approx(WINDOW_P10[1], abs=1e-9)
    v100 = analysis.capacity_condition(ChannelParams.symmetric(100.0, 2.5, 0.1))
    assert v100.condition_lower == pytest.approx(WINDOW_P100[0], abs=1e-9)
    assert v100.condition_upper == pytest.approx(WINDOW_P100[1], abs=1e-9)
    assert v100.applies


def test_capacity_condition_outside_window():
    low = analysis.capacity_condition(ChannelParams.symmetric(10.0, 0.5, 0.1))
    assert not low.applies
    assert low.capacity is None
    assert "outside" in low.note
    high = analysis.capacity_condition(ChannelParams.symmetric(10.0, 2.5, 0.1))
    assert not high.applies
    # the bounds are still reported for context
    assert low.upper_value > 0.0 and low.lower_value >= 0.0


def test_capacity_condition_inside_the_window_without_an_auxiliary_inequality():
    # P = 0.1, g = 0.01: C = 0.067 lies in the window [0.0658, 0.0752], where
    # f1(rho*) - f5(rho*) and f3(0) - f5(rho*) both exceed the candidate
    verdict = analysis.capacity_condition(ChannelParams.symmetric(0.1, 0.067, 0.01))
    assert verdict.condition_lower <= 0.067 <= verdict.condition_upper
    assert not verdict.applies and verdict.capacity is None and verdict.rho_prime is None
    assert verdict.auxiliary == "none"
    assert verdict.note == "neither auxiliary inequality holds"


def test_capacity_condition_reports_bounds_that_miss_the_candidate():
    # no difference is at most a negative tolerance
    verdict = analysis.capacity_condition(ChannelParams.symmetric(10.0, 1.5, 0.1), tol=-1.0)
    assert not verdict.applies and verdict.capacity is None
    assert verdict.auxiliary == "f1"
    assert verdict.note == "bounds failed to meet the candidate 1.49403001 within -1"


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf])
def test_capacity_condition_rejects_a_tolerance_that_is_not_finite(tol):
    # a nan tolerance would reject every window, an infinite one accept any
    with pytest.raises(ParameterError, match=f"^tol must be finite, got {tol}$"):
        analysis.capacity_condition(ChannelParams.symmetric(10.0, 1.5, 0.1), tol=tol)


def test_capacity_condition_rejects_asymmetric():
    with pytest.raises(AsymmetricParams):
        analysis.capacity_condition(ChannelParams(p1=4.0, p2=1.0, c1=1.0, c2=1.0, g=0.1))


def test_pdf_gap_shrinks_with_power():
    rep = analysis.pdf_gap_vs_power(0.1, 1.0, 1.0, [10.0, 100.0, 1000.0, 10000.0])
    gaps = [row.gap for row in rep.rows]
    assert all(gap >= -1e-9 for gap in gaps)
    assert all(b <= a + 1e-9 for a, b in zip(gaps, gaps[1:]))
    assert rep.mac_limit == pytest.approx(MAC_LIMIT_G01, abs=1e-9)
    for row in rep.rows:
        assert row.gap == pytest.approx(row.upper - row.pdf, abs=1e-12)
    # the MAC term climbs toward the g-only limit
    macs = [row.mac_term for row in rep.rows]
    assert all(b >= a - 1e-9 for a, b in zip(macs, macs[1:]))
    assert macs[-1] < rep.mac_limit


def test_pdf_gap_no_eavesdropper_limit():
    rep = analysis.pdf_gap_vs_power(0.0, 1.0, 1.0, [10.0])
    assert rep.mac_limit == math.inf


def test_detect_thresholds_default_scenario_one():
    rep = analysis.detect_thresholds(1.0, 0.1, 1, c_min=0.25, c_max=0.45, steps=11)
    assert rep.scenario == 1
    assert len(rep.crossings) == 1
    cross = rep.crossings[0]
    assert cross.c == pytest.approx(0.330482023722, abs=1e-4)
    assert "pdfm" in cross.schemes and "pdf" in cross.schemes


def test_detect_thresholds_custom_pair():
    # df passes plain pdf where the link rate c reaches f4 - f5 at rho = 0
    rep = analysis.detect_thresholds(
        1.0, 0.1, 1, schemes_a=("df",), schemes_b=("pdf",),
        c_min=0.5, c_max=0.8, steps=16,
    )
    assert len(rep.crossings) == 1
    cross = rep.crossings[0]
    assert cross.c == pytest.approx(DF_PDF_CROSS_P1, abs=1e-4)
    assert cross.schemes == ("df", "pdf")


def test_detect_thresholds_no_crossing():
    rep = analysis.detect_thresholds(
        1.0, 0.1, 1, schemes_a=("df",), schemes_b=("pdfm",),
        c_min=0.1, c_max=0.5, steps=9,
    )
    # multicoded pdf dominates df on this whole stretch
    assert rep.crossings == ()


def test_detect_thresholds_ends_where_float_spacing_exceeds_tol(deadline):
    # a tolerance below the float spacing at a crossing once made the
    # bisection loop forever; it now stops at adjacent floats
    with deadline(20.0):
        fine = analysis.detect_thresholds(1.0, 0.1, 1, steps=21, tol=1e-20)
    coarse = analysis.detect_thresholds(1.0, 0.1, 1, steps=21)
    assert len(fine.crossings) == len(coarse.crossings) == 2
    # a tolerance of 0 or below also narrows to adjacent floats
    for tol in (0.0, -1.0):
        assert analysis.detect_thresholds(1.0, 0.1, 1, steps=21, tol=tol) == fine
    for a, b in zip(fine.crossings, coarse.crossings):
        assert a.c == pytest.approx(b.c, abs=1e-4)
        assert a.schemes == b.schemes


def test_detect_thresholds_validation():
    with pytest.raises(ValueError):
        analysis.detect_thresholds(1.0, 0.1, 3)
    with pytest.raises(ValueError):
        analysis.detect_thresholds(1.0, 0.1, 1, schemes_a=("nope",))
    with pytest.raises(ParameterError):
        analysis.detect_thresholds(1.0, 0.1, 1, c_min=-0.5)
    # a grid size that is not an int and a tolerance that is not finite are
    # named, not left to fail inside the float arithmetic
    for kwargs in ({"steps": 2.5}, {"steps": 3.0}, {"tol": math.nan}, {"tol": math.inf}, {"tol": -math.inf}):
        (name, value), = kwargs.items()
        with pytest.raises(ParameterError, match=re.escape(f"{name}={value!r}")):
            analysis.detect_thresholds(1.0, 0.1, 1, **kwargs)


def test_detect_thresholds_on_a_grid_too_large_to_build(deadline):
    # as a list, 10**12 grid points would take terabytes; the scan reads each
    # point it solves off its index, so its memory follows those points only
    readme = analysis.detect_thresholds(1.0, 0.1, 1)
    tracemalloc.start()
    try:
        with deadline(20.0):
            report = analysis.detect_thresholds(1.0, 0.1, 1, steps=10**12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert [cr.schemes for cr in report.crossings] == [cr.schemes for cr in readme.crossings]
    assert len(report.crossings) == 2
    for cr, ref in zip(report.crossings, readme.crossings):
        assert abs(cr.c - ref.c) <= 0.01 * 1e-4, (cr, ref)


def full_scan_thresholds(p, g, scenario, schemes_a=None, schemes_b=None, budget=None,
                         c_min=0.0, c_max=3.0, steps=121, tol=1e-4):
    """Reference: ``detect_thresholds`` as it was before the scan was pruned,
    evaluating every grid point, with each crossing bisected to adjacent
    floats."""
    known = analysis.SCENARIO_ONE_SCHEMES if scenario == 1 else analysis.SCENARIO_TWO_SCHEMES
    if schemes_a is None:
        schemes_a = ("pdfm",) if scenario == 1 else ("pdfpdfm",)
    if schemes_b is None:
        schemes_b = ("pdf", "df") if scenario == 1 else ("pdfdfm", "df")
    if budget is None:
        budget = RandomnessBudget.unbounded()
    module = scenario_one if scenario == 1 else scenario_two

    def advantage(c):
        values = module.scheme_rates(ChannelParams.symmetric(p, c, g), budget)
        return max(values[s] for s in schemes_a) - max(values[s] for s in schemes_b)

    def strictly_ahead(c):
        return advantage(c) > 1e-9

    cs = [c_min + (c_max - c_min) * i / (steps - 1) for i in range(steps)]
    flags = [strictly_ahead(c) for c in cs]
    tie_tol = max(1e-6, 0.04 * tol)
    crossings = []
    for (c_lo, on_lo), (c_hi, on_hi) in zip(zip(cs, flags), zip(cs[1:], flags[1:])):
        if on_lo == on_hi:
            continue
        lo, hi = c_lo, c_hi
        while True:
            mid = 0.5 * (lo + hi)
            if mid in (lo, hi):
                break
            if strictly_ahead(mid) == on_lo:
                lo = mid
            else:
                hi = mid
        c_star = 0.5 * (lo + hi)
        values = module.scheme_rates(ChannelParams.symmetric(p, c_star, g), budget)
        best = max(values[s] for s in (*schemes_a, *schemes_b))
        tied = tuple(
            s for s in known
            if s in (*schemes_a, *schemes_b) and abs(values[s] - best) <= tie_tol * max(1.0, abs(best))
        )
        crossings.append(analysis.Crossing(c=c_star, schemes=tied))
    return analysis.ThresholdReport(
        scenario=scenario, schemes_a=tuple(schemes_a), schemes_b=tuple(schemes_b),
        crossings=tuple(crossings), c_min=c_min, c_max=c_max, steps=steps,
    )


@pytest.mark.parametrize("args, kwargs", [
    ((1.0, 0.1, 1), {}),
    ((10.0, 0.1, 2), {"steps": 241}),
    ((1.0, 0.1, 1), {"schemes_a": ("df",), "schemes_b": ("pdf",), "c_min": 0.5, "c_max": 0.8, "steps": 11}),
    ((3.0, 0.3, 2), {"schemes_a": ("df",), "schemes_b": ("pdfpdfm",), "budget": RandomnessBudget(0.6)}),
    ((2.0, 0.2, 1), {"budget": RandomnessBudget(0.0), "steps": 3}),
    ((0.5, 0.05, 2), {"budget": RandomnessBudget(0.0), "steps": 11}),
    ((30.0, 0.5, 1), {"schemes_a": ("df",), "schemes_b": ("pdf", "pdfm"), "budget": RandomnessBudget(1.2),
                      "c_min": 0.4, "c_max": 2.5, "steps": 241}),
    ((10.0, 0.1, 2), {"budget": RandomnessBudget(0.8)}),
    ((5.0, 0.1, 2), {"schemes_a": ("pdfdfm", "pdfpdfm"), "schemes_b": ("df",), "steps": 2}),
    ((1.0, 0.1, 1), {"c_min": 0.2, "c_max": 0.5, "steps": 2}),
    ((1.0, 0.1, 1), {"c_min": 0.3, "c_max": 0.35, "steps": 3}),
])
def test_pruned_scan_reports_what_the_full_scan_reports(args, kwargs):
    # the reported point is the midpoint of a bracket of 0.01 * tol around
    # the crossing, so within 0.005 * tol of it
    report, reference = analysis.detect_thresholds(*args, **kwargs), full_scan_thresholds(*args, **kwargs)
    assert replace(report, crossings=()) == replace(reference, crossings=())
    assert [cr.schemes for cr in report.crossings] == [cr.schemes for cr in reference.crossings]
    tol = kwargs.get("tol", 1e-4)
    for cr, ref in zip(report.crossings, reference.crossings):
        assert abs(cr.c - ref.c) <= 0.005 * tol, (cr, ref)


def test_threshold_scan_skips_the_points_monotonicity_decides(monkeypatch):
    # the full 121-point scan plus bisection made 153 evaluations here, and
    # the pruned scan plus bisection 57
    calls = []
    real = scenario_one.scheme_rates
    monkeypatch.setattr(scenario_one, "scheme_rates", lambda *args: calls.append(args) or real(*args))
    report = analysis.detect_thresholds(1.0, 0.1, 1)
    assert len(report.crossings) == 2
    assert len(calls) <= 32


@pytest.mark.parametrize("p, g", [(1.0, 0.1), (0.3, 0.05), (10.0, 0.5), (100.0, 0.9), (0.01, 0.0)])
@pytest.mark.parametrize("share", [None, 1.5, 0.9, 0.0])
def test_where_the_pdf_tie_rule_holds_pdfm_equals_pdf(p, g, share):
    """Wherever ``_pdf_ties`` says PDF-M ties plain PDF, the scheme rates
    agree bit for bit, on unbounded budgets and on finite ones above, below
    and at 0 times f5(0); the rule holds on a prefix of the grid.  Below
    f5(0) rho = 0 is infeasible, so PDF is 0 while PDF-M need not be, and
    the rule must not apply."""
    f5_zero = rf.f5(ChannelParams.symmetric(p, 0.0, g), 0.0)
    budget = RandomnessBudget.unbounded() if share is None else RandomnessBudget(share * f5_zero)
    tied = analysis._pdf_ties(p, g, budget, 0.0)
    assert (tied is None) == (rf.f5_inverse(ChannelParams.symmetric(p, 0.0, g), budget) < 0.0)
    if tied is None:
        return
    cs = [3.0 * i / 240 for i in range(241)]
    holds = [tied(c) for c in cs]
    assert holds[0] and holds == sorted(holds, reverse=True)
    for c, rule in zip(cs, holds):
        if rule:
            rates = scenario_one.scheme_rates(ChannelParams.symmetric(p, c, g), budget)
            assert rates["pdfm"] == rates["pdf"], (c, rates)


@pytest.mark.parametrize("kink, slope", [(0.3, 1.0), (0.3101, 1e-6), (1.2345678, 2.0), (2.9999, 50.0),
                                         (0.0001, 1e-3)])
@pytest.mark.parametrize("tol", [1e-4, 1e-9])
def test_refinement_takes_at_most_one_step_more_than_bisection(monkeypatch, kink, slope, tol):
    """On a lead that is flat up to a kink and rises after it, where
    interpolation does worst, the ITP steps stay within bisection's count
    plus one, and the crossing within 0.005 * tol of where the lead first
    exceeds 1e-9."""
    calls = []

    def rates(params, budget):
        calls.append(params.c1)
        return {"df": 0.0, "pdfdfm": 0.0, "pdfpdfm": slope * max(0.0, params.c1 - kink)}

    monkeypatch.setattr(scenario_two, "scheme_rates", rates)
    report = analysis.detect_thresholds(1.0, 0.1, 2, steps=2, tol=tol)
    assert len(report.crossings) == 1
    bisection = math.ceil(math.log2(3.0 / (0.01 * tol)))
    # two grid points, the refinement, and the tie check at the crossing
    assert len(calls) - 3 <= bisection + 1
    assert abs(report.crossings[0].c - (kink + 1e-9 / slope)) <= 0.005 * tol + 1e-15


def test_scheme_name_constants():
    assert analysis.SCENARIO_ONE_SCHEMES == ("df", "pdf", "pdfm")
    assert analysis.SCENARIO_TWO_SCHEMES == ("df", "pdfdfm", "pdfpdfm")


def test_no_secrecy_compare_flags():
    cmp = analysis.no_secrecy_compare(
        ChannelParams.symmetric(10.0, 0.5, 0.1), RandomnessBudget.unbounded(),
    )
    assert cmp.nosecrecy_upper == pytest.approx(1.0, abs=1e-9)
    assert cmp.s1_lower_matches_nosecrecy_upper
    assert cmp.nosecrecy_lower_exceeds_s2_upper
    assert cmp.nosecrecy_lower > cmp.s2.upper.value
