"""Bounds for the scenario where only the relays share the randomness."""

import math

import numpy as np
import pytest

from diamond_wiretap import rate_functions as rf
from diamond_wiretap import scenario_one as s1
from diamond_wiretap import scenario_two as s2
from diamond_wiretap.rate_functions import ChannelParams, RandomnessBudget

UNBOUNDED = RandomnessBudget.unbounded()

# frozen with an independent high-precision evaluation
UB_COINCIDENT = 1.494030010602  # upper bound at p = 10, c = 1.5, g = 0.1
F45_AT_1 = 1.51781195487        # f4 - f5 at rho = 1, p = 10, g = 0.1
DF_SPOT = 0.0357154239016       # 0.05 - f5(-0.9) at p = 1, g = 0.1
PDFDFM_SPOT = 1.25728658641     # p1 = 10, p2 = 1, c1 = 2, c2 = 4, g = 0.1, rho = 0


def params(c, p=10.0, g=0.1):
    return ChannelParams.symmetric(p, c, g)


def test_upper_bound_middle_branch():
    ub = s2.upper_bound(params(1.5))
    assert ub.value == pytest.approx(UB_COINCIDENT, abs=1e-9)
    assert ub.branch == "T2"
    assert ub.rho_in_unit_interval
    assert set(ub.sub_reports) == {"T1", "T2", "T3"}


def test_upper_bound_left_branch_can_leave_unit_interval():
    # small links with very uneven powers push the left-branch optimum below -1
    p = ChannelParams(p1=9.0, p2=1.0, c1=0.2, c2=0.2, g=0.1)
    ub = s2.upper_bound(p)
    assert ub.branch == "T1"
    assert ub.rho < -1.0
    assert not ub.rho_in_unit_interval
    # interior optimum sits where f4 meets the cut constant c1 + c2
    s_hat = 2.0 ** (2.0 * (p.c1 + p.c2)) - 1.0
    rho_hat = (s_hat - p.p1 - p.p2) / (2.0 * math.sqrt(p.p1 * p.p2))
    assert ub.rho == pytest.approx(rho_hat, abs=1e-6)
    assert ub.value == pytest.approx(p.c1 + p.c2 - rf.f5(p, rho_hat), abs=1e-9)


def test_df_rate_frozen_point():
    assert s2.df_rate(params(0.05, p=1.0), UNBOUNDED, -0.9) == pytest.approx(DF_SPOT, abs=1e-9)


def test_df_prefers_interior_negative_rho():
    # reducing leakage at negative rho beats rho = 0 when the links bind
    b = s2.bounds(params(1.5), UNBOUNDED)
    assert b.lower_df.rho == pytest.approx(-0.65, abs=1e-3)
    expected = 1.5 - rf.f5(params(1.5), b.lower_df.rho)
    assert b.lower_df.value == pytest.approx(expected, abs=1e-9)


def test_pdf_df_m_rate_frozen_point():
    p = ChannelParams(p1=10.0, p2=1.0, c1=2.0, c2=4.0, g=0.1)
    assert s2.pdf_df_m_rate(p, UNBOUNDED, 0.0) == pytest.approx(PDFDFM_SPOT, abs=1e-9)


def test_multicoding_condition_is_strict():
    base = params(1.0)
    c_eq = rf.f6(base, 0.0)
    # equality on both links fails the strict test
    p_eq = ChannelParams.symmetric(10.0, c_eq, 0.1)
    assert not s2.multicoding_feasible(p_eq, 0.0)
    p_above = ChannelParams.symmetric(10.0, c_eq + 1e-9, 0.1)
    assert s2.multicoding_feasible(p_above, 0.0)
    assert s2.pdf_pdf_m_rate(p_eq, UNBOUNDED, 0.0) == 0.0
    # with ample links the condition holds and the rate is the leakage-corrected cut
    expected = min(2.0 * 1.0, rf.f4(base, 0.0)) - rf.f5(base, 0.0)
    assert s2.pdf_pdf_m_rate(base, UNBOUNDED, 0.0) == pytest.approx(expected, abs=1e-9)


def test_bounds_coincide_at_capacity_point():
    b = s2.bounds(params(1.5), UNBOUNDED)
    assert b.indicator_satisfied
    assert abs(b.upper.value - b.lower) <= 1e-6
    assert b.lower_pdf_pdf_m.value == pytest.approx(UB_COINCIDENT, abs=1e-6)
    assert b.lower == max(0.0, b.lower_df.value, b.lower_pdf_df_m.value, b.lower_pdf_pdf_m.value)


def test_bounds_tight_in_df_regime():
    b = s2.bounds(params(3.0), UNBOUNDED)
    assert b.upper.value == pytest.approx(F45_AT_1, abs=1e-6)
    assert b.lower == pytest.approx(F45_AT_1, abs=1e-6)
    assert b.lower_df.value == pytest.approx(F45_AT_1, abs=1e-6)


def test_bounds_empty_feasible_set():
    asym = ChannelParams(p1=4.0, p2=1.0, c1=1.0, c2=1.0, g=0.1)
    b = s2.bounds(asym, RandomnessBudget.finite(0.0))
    assert b.lower == 0.0
    assert b.rho_max is None
    assert not b.indicator_satisfied
    assert "no feasible correlation" in b.note


def test_zero_budget_symmetric_pins_rho_at_minus_one():
    b = s2.bounds(params(1.0, p=1.0), RandomnessBudget.finite(0.0))
    assert b.rho_max == pytest.approx(-1.0, abs=1e-9)
    # at rho = -1 the MAC collapses, so nothing is achievable
    assert b.lower == 0.0


def test_indicator_off_reported():
    # c1 = 0 can never exceed f6 >= 0, so multicoding is ruled out everywhere
    p = ChannelParams(p1=10.0, p2=10.0, c1=0.0, c2=3.0, g=0.1)
    b = s2.bounds(p, UNBOUNDED)
    assert not b.indicator_satisfied
    assert b.lower_pdf_pdf_m.value == 0.0
    assert b.lower_pdf_pdf_m.note is not None
    # the other schemes are unaffected
    assert b.lower_pdf_df_m.value > 0.0


def test_scenario_two_never_beats_scenario_one():
    rng = np.random.default_rng(11)
    for _ in range(20):
        p = ChannelParams(
            p1=float(rng.uniform(0.2, 30.0)),
            p2=float(rng.uniform(0.2, 30.0)),
            c1=float(rng.uniform(0.0, 3.0)),
            c2=float(rng.uniform(0.0, 3.0)),
            g=float(rng.uniform(0.0, 0.9)),
        )
        budget = UNBOUNDED if rng.uniform() < 0.5 else RandomnessBudget.finite(float(rng.uniform(0.0, 1.5)))
        lb1 = s1.bounds(p, budget).lower
        b2 = s2.bounds(p, budget)
        assert b2.lower <= lb1 + 1e-7
        assert b2.lower <= b2.upper.value + 1e-7


@pytest.mark.parametrize(
    "p1, p2", [(1e5, 1e-5), (1e-2, 1e7), (3e4, 1e-4)],
)
def test_bounds_return_at_extreme_power_ratios(deadline, p1, p2):
    # power ratios of 3e8 and above put the T1 optimum where adjacent floats
    # are farther apart than 1e-12
    p = ChannelParams(p1=p1, p2=p2, c1=1.0, c2=1.0, g=0.5)
    with deadline(10.0):
        b = s2.bounds(p, UNBOUNDED)
    assert math.isfinite(b.upper.value)
    assert b.lower <= b.upper.value + 1e-7
    t1 = b.upper.sub_reports["T1"]
    assert -rf.rho_bar(p) <= t1.rho <= 0.0
