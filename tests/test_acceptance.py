"""Acceptance gate: ten end-to-end checks, one test (and one report line) each.

Run with ``pytest -v tests/test_acceptance.py`` to get a PASS/FAIL line per
criterion.  Tolerances are fixed here and nowhere else; loosening them is a
behavior change, not a test fix.
"""

import math
import time

import numpy as np
import pytest

from diamond_wiretap import analysis, oracles, rate_functions as rf
from diamond_wiretap import scenario_one as s1, scenario_two as s2
from diamond_wiretap.oracles import DmcChannel
from diamond_wiretap.rate_functions import ChannelParams, RandomnessBudget

UNBOUNDED = RandomnessBudget.unbounded()


def sym(p, c, g):
    return ChannelParams.symmetric(p, c, g)


def test_criterion_01_capacity_coincides_across_window():
    """P=10, g=0.1: verdict applies for 20 link values spanning the window,
    with upper and lower bound equal to the closed-form capacity."""
    probe = analysis.capacity_condition(sym(10.0, 1.5, 0.1))
    lo, hi = probe.condition_lower, probe.condition_upper
    start = time.perf_counter()
    for frac in np.linspace(0.025, 0.975, 20):
        c = lo + frac * (hi - lo)
        v = analysis.capacity_condition(sym(10.0, c, 0.1))
        assert v.applies, f"verdict must apply at c={c:.6f}: {v.note}"
        assert abs(v.upper_value - v.lower_value) <= 1e-6, f"bounds split at c={c:.6f}"
        p = sym(10.0, c, 0.1)
        closed = rf.f3(p, v.rho_prime) - rf.f5(p, v.rho_prime)
        assert v.capacity == pytest.approx(closed, abs=1e-9), f"capacity formula at c={c:.6f}"
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"20 verdicts took {elapsed:.2f}s, budget is 5s"
    print(f"criterion 01: 20/20 window points coincide, {elapsed:.2f}s")


def test_criterion_02_window_endpoints_and_formula():
    """Capacity windows at P=10 and P=100 sit at the expected link values and
    the capacity matches the matched-correlation cut value."""
    v10 = analysis.capacity_condition(sym(10.0, 1.5, 0.1))
    assert v10.condition_lower == pytest.approx(1.098, abs=0.01)
    assert v10.condition_upper == pytest.approx(2.179, abs=0.01)
    v100 = analysis.capacity_condition(sym(100.0, 2.5, 0.1))
    assert v100.condition_lower == pytest.approx(1.913, abs=0.01)
    assert v100.condition_upper == pytest.approx(3.824, abs=0.01)
    for p_val, v in ((10.0, v10), (100.0, v100)):
        assert v.applies
        p = sym(p_val, (v.condition_lower + v.condition_upper) / 2.0, 0.1)
        mid = analysis.capacity_condition(p)
        closed = rf.f3(p, mid.rho_prime) - rf.f5(p, mid.rho_prime)
        assert mid.capacity == pytest.approx(closed, abs=1e-9)
    print("criterion 02: windows (1.098, 2.179) and (1.913, 3.824) confirmed")


def test_criterion_03_scheme_thresholds_small_power():
    """P=1, g=0.1, scenario 1: multicoding pays off between link values near
    0.33 and 0.89; the low end equals half the zero-correlation MAC margin."""
    rep = analysis.detect_thresholds(1.0, 0.1, 1)
    assert len(rep.crossings) == 2, f"expected 2 crossings, got {rep.crossings}"
    c_low, c_high = rep.crossings[0].c, rep.crossings[1].c
    assert c_low == pytest.approx(0.33, abs=0.01)
    assert c_high == pytest.approx(0.89, abs=0.01)
    p = sym(1.0, 1.0, 0.1)
    anchor = 0.5 * (rf.f4(p, 0.0) - rf.f5(p, 0.0))
    assert c_low == pytest.approx(anchor, abs=1e-4), f"low end {c_low} vs anchor {anchor}"
    refined = analysis.detect_thresholds(1.0, 0.1, 1, steps=241)
    assert len(refined.crossings) == 2
    for a, b in zip(rep.crossings, refined.crossings):
        assert abs(a.c - b.c) < 1e-4, "crossing moved under grid refinement"
    print(f"criterion 03: crossings at {c_low:.5f} and {c_high:.5f}, anchor {anchor:.6f}")


def test_criterion_04_scenario_one_tight_regimes():
    """Scenario 1 is tight (upper = lower) in the link-limited regime
    c <= (f4 - f5)(0)/2 and in the MAC-limited regime c >= (f4 - f5)(1)."""
    checked = 0
    for p_val in (1.0, 10.0, 100.0):
        for g in (0.1, 0.5):
            base = sym(p_val, 1.0, g)
            half_margin = 0.5 * (rf.f4(base, 0.0) - rf.f5(base, 0.0))
            top = rf.f4(base, 1.0) - rf.f5(base, 1.0)
            for frac in (0.05, 0.3, 0.55, 0.8, 0.95):
                c = frac * half_margin
                b = s1.bounds(sym(p_val, c, g), UNBOUNDED)
                assert b.upper.value == pytest.approx(2.0 * c, abs=1e-6), (p_val, g, c)
                assert b.lower == pytest.approx(2.0 * c, abs=1e-6), (p_val, g, c)
                checked += 1
            for mult in (1.05, 1.3, 1.8, 2.5, 4.0):
                c = mult * top
                b = s1.bounds(sym(p_val, c, g), UNBOUNDED)
                assert b.upper.value == pytest.approx(top, abs=1e-6), (p_val, g, c)
                assert b.lower == pytest.approx(top, abs=1e-6), (p_val, g, c)
                checked += 1
    print(f"criterion 04: {checked} tight scenario-1 points across 6 parameter sets")


def test_criterion_05_scenario_two_df_regime_tight():
    """Scenario 2 is tight at c >= f4(1): both bounds equal f4(1) - f5(1)."""
    checked = 0
    for p_val in (1.0, 10.0, 100.0):
        for g in (0.1, 0.5):
            base = sym(p_val, 1.0, g)
            target = rf.f4(base, 1.0) - rf.f5(base, 1.0)
            for mult in (1.0, 1.5, 2.5):
                c = mult * rf.f4(base, 1.0)
                b = s2.bounds(sym(p_val, c, g), UNBOUNDED)
                assert b.upper.value == pytest.approx(target, abs=1e-6), (p_val, g, c)
                assert b.lower == pytest.approx(target, abs=1e-6), (p_val, g, c)
                checked += 1
    print(f"criterion 05: {checked} tight scenario-2 points across 6 parameter sets")


def test_criterion_06_pdf_gap_vanishes_with_power():
    """The gap between the scenario-1 upper bound and plain PDF shrinks
    monotonically in P and is below 1e-3 by P = 1e6; the MAC margin
    approaches half a log of 1/g."""
    rep = analysis.pdf_gap_vs_power(0.1, 1.0, 1.0, [1e1, 1e2, 1e3, 1e4, 1e5, 1e6])
    gaps = [row.gap for row in rep.rows]
    assert all(g >= -1e-9 for g in gaps)
    assert all(b <= a + 1e-9 for a, b in zip(gaps, gaps[1:])), f"gaps not shrinking: {gaps}"
    assert gaps[-1] <= 1e-3, f"gap at P=1e6 is {gaps[-1]:.3e}"
    assert rep.mac_limit == pytest.approx(0.5 * math.log2(10.0), abs=1e-9)
    assert rep.rows[-1].mac_term == pytest.approx(rep.mac_limit, abs=1e-3)
    print(f"criterion 06: gap falls {gaps[0]:.3e} -> {gaps[-1]:.3e} over six decades")


def test_criterion_07_closed_forms_match_log_det_oracle():
    """1000 random parameter draws: every closed form agrees with the
    covariance log-determinant evaluation to 1e-9."""
    rep = oracles.validate_closed_forms(trials=1000, seed=0, tolerance=1e-9)
    assert rep.passed, f"failures: {rep.failures[:5]}"
    assert rep.failures == ()
    assert rep.checked >= 6500
    assert rep.max_deviation <= 1e-9
    print(f"criterion 07: {rep.checked} identities checked, max deviation {rep.max_deviation:.2e}")


def test_criterion_08_bound_ordering_invariants():
    """1000 seeded parameter tuples: lower bounds never exceed upper bounds,
    randomness at the source only never beats randomness shared by all three
    nodes, and g = 0 makes the two scenarios agree."""
    rng = np.random.default_rng(12345)
    zero_g_draws = 0
    for i in range(1000):
        g = 0.0 if i % 10 == 0 else float(rng.uniform(0.0, 0.99))
        p = ChannelParams(
            p1=float(10.0 ** rng.uniform(-2.0, 2.0)),
            p2=float(10.0 ** rng.uniform(-2.0, 2.0)),
            c1=float(rng.uniform(0.0, 5.0)),
            c2=float(rng.uniform(0.0, 5.0)),
            g=g,
        )
        if i % 3 == 0:
            budget = RandomnessBudget.finite(float(rng.uniform(0.0, 2.0)))
        else:
            budget = UNBOUNDED
        b1 = s1.bounds(p, budget)
        b2 = s2.bounds(p, budget)
        assert b1.lower <= b1.upper.value + 1e-7, (i, p, budget)
        assert b2.lower <= b2.upper.value + 1e-7, (i, p, budget)
        assert b2.lower <= b1.lower + 1e-7, (i, p, budget)
        assert b2.upper.value <= b1.upper.value + 1e-7, (i, p, budget)
        if g == 0.0:
            zero_g_draws += 1
            assert abs(b1.lower - b2.lower) <= 1e-9, (i, p, budget)
            assert abs(b1.upper.value - b2.upper.value) <= 1e-9, (i, p, budget)
    assert zero_g_draws == 100
    print(f"criterion 08: 1000 tuples ordered, {zero_g_draws} with g = 0 coincide")


def test_criterion_09_no_secrecy_comparison():
    """P=10, g=0.1: below the half-margin link value the no-eavesdropper upper
    bound is achievable under secrecy with shared randomness, yet the plain
    no-eavesdropper lower bound always exceeds the upper bound with randomness
    at the source only."""
    base = sym(10.0, 1.0, 0.1)
    half_margin = 0.5 * (rf.f4(base, 0.0) - rf.f5(base, 0.0))
    for c in np.linspace(0.05, 0.9, 8) * half_margin:
        cmp_ = analysis.no_secrecy_compare(sym(10.0, float(c), 0.1), UNBOUNDED)
        assert cmp_.s1_lower_matches_nosecrecy_upper, f"mismatch at c={c:.4f}"
    for c in np.linspace(0.1, 3.0, 12):
        cmp_ = analysis.no_secrecy_compare(sym(10.0, float(c), 0.1), UNBOUNDED)
        assert cmp_.nosecrecy_lower_exceeds_s2_upper, f"no strict gap at c={c:.4f}"
    print("criterion 09: shared randomness hides secrecy cost, source-only pays")


def test_criterion_10_dmc_reference_channels():
    """Discrete oracle on two exactly solvable channels: a perfectly revealing
    MAC with a blind eavesdropper, and one fully copied by the eavesdropper."""
    reveal = np.zeros((2, 2, 4, 1))
    copy = np.zeros((2, 2, 4, 4))
    for x1 in range(2):
        for x2 in range(2):
            y = 2 * x1 + x2
            reveal[x1, x2, y, 0] = 1.0
            copy[x1, x2, y, y] = 1.0
    uniform = np.full((2, 2), 0.25)

    blind = oracles.dmc_rates(DmcChannel(reveal), uniform, c1=3.0, c2=3.0)
    assert blind.pdfm1 == pytest.approx(2.0, abs=1e-12)
    assert blind.df1 == pytest.approx(2.0, abs=1e-12)
    assert blind.r_prime == pytest.approx(0.0, abs=1e-12)
    capped = oracles.dmc_rates(DmcChannel(reveal), uniform, c1=0.5, c2=3.0)
    assert capped.df1 == pytest.approx(0.5, abs=1e-12)

    copied = oracles.dmc_rates(DmcChannel(copy), uniform, c1=3.0, c2=3.0)
    assert copied.r_prime == pytest.approx(2.0, abs=1e-12)
    for rate in (copied.df1, copied.pdfm1, copied.df2, copied.pdfdfm2, copied.pdfpdfm2):
        assert rate == 0.0
    print("criterion 10: blind-eavesdropper and full-copy channels solved exactly")
