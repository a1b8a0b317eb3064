"""The open defects of the ROADMAP's Baseline, each pinned as a strict xfail
that names its item.  Each case writes its channel out in full and holds the
values the Baseline states.  A fix shows as an unexpected pass, which strict
mode reports as a failure, so the fix's change removes the mark; a mended
case that regresses fails.  Only an ``AssertionError`` counts as the known
failure: a case that raises anything else fails."""

import math

import pytest

from diamond_wiretap import rate_functions as rf
from diamond_wiretap import scenario_one as s1
from diamond_wiretap import scenario_two as s2
from diamond_wiretap.rate_functions import ChannelParams, RandomnessBudget
from diamond_wiretap.scalar_opt import _ordinal


def known(reason):
    """The mark of an open defect: a strict xfail on an assertion."""
    return pytest.mark.xfail(strict=True, raises=AssertionError, reason=reason)


# The q error: the maximum of S2 over [float rho*, 1], as the package poses
# it, at 60 digits (mpmath, at the Baseline's re-anchor), attained at the left
# end rho = 0.9999999921925851.  The package reads 1.1317110721680372.
Q_CHANNEL = ChannelParams(19336438.38775621, 212104066.56239694, 0.07753768726365264, 1.4169280399713087,
                          0.22959950428823964)
S2_60_DIGITS = 1.1317110739445396


@known("ROADMAP item 20: q formed as 1 - rho*rho puts S2 1.78e-9 low near rho = 1")
def test_s2_on_the_q_channel_reaches_its_60_digit_maximum():
    assert s1.upper_bound(Q_CHANNEL).sub_reports["S2"].value >= S2_60_DIGITS - 1e-14


# Scenario 2's DF at equal powers, C = 0.3 and g = 0.1 with an unbounded
# budget is C - f5(2^(2C) - 1) = 0.2637264189 at every power.  The package
# reads 0.2637159529 at 1e12, 0.2031141283 at 1e14 and 0 at 1e15.
DF_C, DF_G = 0.3, 0.1


@known("ROADMAP item 13: scenario 2's DF collapses at large equal powers")
@pytest.mark.parametrize("p", [1e12, 1e14, 1e15])
def test_scenario_two_df_at_large_equal_powers_matches_its_closed_form(p):
    exact = DF_C - 0.5 * math.log2(1.0 + DF_G * (2.0 ** (2.0 * DF_C) - 1.0))
    assert exact == pytest.approx(0.2637264189, abs=1e-10)
    df = s2.bounds(ChannelParams(p, p, DF_C, DF_C, DF_G), RandomnessBudget.unbounded()).lower_df.value
    assert abs(df - exact) <= 1e-9


# The package puts lb1 above ub1 by 5.68e-14 here: f4 - f5 is a difference
# of two logs near 259.
HUGE = 5.604983770848844e155
HUGE_CHANNEL = ChannelParams(HUGE, HUGE, 3.403143155092361, 2.4576399424432855, 0.7187162937748759)


@known("ROADMAP item 1: lb1 lies above ub1 at huge powers")
def test_lower_bound_stays_under_the_upper_at_huge_powers():
    bounds = s1.bounds(HUGE_CHANNEL, RandomnessBudget.unbounded())
    assert bounds.lower <= bounds.upper.value


# f5(-1) with the factor (sqrt(P1) - sqrt(P2))^2 reads 9.01e-4, above the
# budget, so no rho fits it; the kernel reads f5(-1) = 0, and both scenarios
# report rho_max = -0.9999999999999941 and no note.
NEAR_CHANNEL = ChannelParams(1e12, 1e12 * (1.0 + 1e-7), 1.0, 1.0, 0.5)
NEAR_BUDGET = RandomnessBudget(4.5e-4)


@known("ROADMAP items 7 and 13: near-equal powers read f5(-1) as 0, so an infeasible budget reads feasible")
@pytest.mark.parametrize("scenario", [s1, s2], ids=["scenario_one", "scenario_two"])
def test_near_equal_powers_with_a_budget_below_the_least_leakage_are_infeasible(scenario):
    bounds = scenario.bounds(NEAR_CHANNEL, NEAR_BUDGET)
    assert (bounds.rho_max, bounds.note) == (None, s1._INFEASIBLE)


# At 60 digits the link interval on [-1, 1] is [-1, -0.627670258894097]; the
# package returns None.
TINY_G_CHANNEL = ChannelParams(1.0, 1.0, 1.0, 1e-17, 1e-16)
LINK_RIGHT_END = -0.627670258894097


@known("ROADMAP item 7: the link interval at a tiny positive g reads empty")
def test_the_link_interval_at_a_tiny_gain_is_not_empty():
    link = rf.link_interval(TINY_G_CHANNEL, -1.0, 1.0)
    assert link is not None
    assert abs(_ordinal(link[1]) - _ordinal(LINK_RIGHT_END)) <= 1
