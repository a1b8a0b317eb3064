"""Structural invariants of the bounds, as property tests over random channels.

Swapping the relays leaves every bound unchanged, each lower bound stays
below its upper bound, randomness at the source only never beats randomness
shared by all three nodes, and without an eavesdropper the two scenarios
coincide.  Every bound grows with the link capacities and shrinks with the
eavesdropper's gain, and every lower bound grows with the budget.  A binding
budget caps rho at the last float whose leakage fits, a budget below f5(-1)
leaves none, and each scheme is achieved at a rho whose leakage fits the
budget.
"""

import math

import pytest
from hypothesis import assume, given, settings, strategies as st

from diamond_wiretap import analysis, rate_functions as rf, scenario_one as s1, scenario_two as s2
from diamond_wiretap.rate_functions import ChannelParams, RandomnessBudget

PROPERTY = settings(max_examples=50, derandomize=True, deadline=None)

powers = st.floats(-2.0, 2.0).map(lambda e: 10.0 ** e)
links = st.floats(0.0, 5.0)
gains = st.floats(0.0, 0.99)
fractions = st.floats(0.0, 1.0, exclude_max=True)
budgets = st.one_of(st.just(math.inf), st.floats(0.0, 2.0))


def bound_values(p, r_prime):
    """Every reported value of both scenarios, keyed by scenario and bound."""
    budget = RandomnessBudget(r_prime)
    b1, b2 = s1.bounds(p, budget), s2.bounds(p, budget)
    return {
        "ub1": b1.upper.value, "lb1": b1.lower, "lb1_df": b1.lower_df.value,
        "lb1_pdf": b1.lower_pdf.value, "lb1_pdfm": b1.lower_pdf_m.value,
        "ub2": b2.upper.value, "lb2": b2.lower, "lb2_df": b2.lower_df.value,
        "lb2_pdfdfm": b2.lower_pdf_df_m.value, "lb2_pdfpdfm": b2.lower_pdf_pdf_m.value,
        **{f"ub1_{k}": v.value for k, v in b1.upper.sub_reports.items()},
        **{f"ub2_{k}": v.value for k, v in b2.upper.sub_reports.items()},
    }


@PROPERTY
@given(p1=powers, p2=powers, c1=links, c2=links, g=gains, r_prime=budgets)
def test_swapping_the_relays_changes_no_bound(p1, p2, c1, c2, g, r_prime):
    one = bound_values(ChannelParams(p1, p2, c1, c2, g), r_prime)
    other = bound_values(ChannelParams(p2, p1, c2, c1, g), r_prime)
    assert one == pytest.approx(other, abs=1e-12)


@PROPERTY
@given(p1=powers, p2=powers, c1=links, c2=links, g=gains, r_prime=budgets)
def test_lower_bounds_stay_below_upper_bounds(p1, p2, c1, c2, g, r_prime):
    v = bound_values(ChannelParams(p1, p2, c1, c2, g), r_prime)
    assert v["lb1"] <= v["ub1"] + 1e-9
    assert v["lb2"] <= v["ub2"] + 1e-9


@PROPERTY
@given(p1=powers, p2=powers, c1=links, c2=links, g=gains, r_prime=budgets)
def test_source_only_randomness_never_beats_shared_randomness(p1, p2, c1, c2, g, r_prime):
    v = bound_values(ChannelParams(p1, p2, c1, c2, g), r_prime)
    assert v["ub2"] <= v["ub1"] + 1e-9
    assert v["lb2"] <= v["lb1"] + 1e-9


@PROPERTY
@given(p1=powers, p2=powers, c1=links, c2=links, r_prime=budgets)
def test_without_eavesdropper_the_scenarios_agree(p1, p2, c1, c2, r_prime):
    v = bound_values(ChannelParams(p1, p2, c1, c2, 0.0), r_prime)
    assert abs(v["ub1"] - v["ub2"]) <= 1e-9
    assert abs(v["lb1"] - v["lb2"]) <= 1e-9


def assert_no_smaller(larger, smaller, keys, tol=1e-9):
    for k in keys:
        assert larger[k] >= smaller[k] - tol, (k, larger[k], smaller[k])


@PROPERTY
@given(p1=powers, p2=powers, c1=links, c2=links, g=gains, r_prime=budgets, more=links,
       which=st.sampled_from(("c1", "c2", "both")))
def test_every_bound_grows_with_a_link_capacity(p1, p2, c1, c2, g, r_prime, more, which):
    base = bound_values(ChannelParams(p1, p2, c1, c2, g), r_prime)
    wider = {"c1": (c1 + more, c2), "c2": (c1, c2 + more), "both": (c1 + more, c2 + more)}[which]
    grown = bound_values(ChannelParams(p1, p2, *wider, g), r_prime)
    lower = [k for k in base if k.startswith("lb")]
    assert_no_smaller(grown, base, [k for k in base if k not in lower])
    # the threshold scan of analysis prunes on this growth, within its margin
    assert_no_smaller(grown, base, lower, tol=0.5 * analysis._MONOTONE_MARGIN)


@PROPERTY
@given(p1=powers, p2=powers, c1=links, c2=links, g=gains, r_prime=st.floats(0.0, 2.0), more=st.floats(0.0, 2.0))
def test_every_lower_bound_grows_with_the_budget(p1, p2, c1, c2, g, r_prime, more):
    p = ChannelParams(p1, p2, c1, c2, g)
    base = bound_values(p, r_prime)
    lower = [k for k in base if k.startswith("lb")]
    assert_no_smaller(bound_values(p, r_prime + more), base, lower)
    assert_no_smaller(bound_values(p, math.inf), base, lower)


@PROPERTY
@given(p1=powers, p2=powers, c1=links, c2=links, g=gains, r_prime=budgets, t=fractions)
def test_every_bound_shrinks_with_the_eavesdropper_gain(p1, p2, c1, c2, g, r_prime, t):
    base = bound_values(ChannelParams(p1, p2, c1, c2, g), r_prime)
    stronger = g + t * (0.99 - g)
    assert_no_smaller(base, bound_values(ChannelParams(p1, p2, c1, c2, stronger), r_prime), base)


@PROPERTY
@given(p1=powers, p2=powers, c1=links, c2=links, g=gains.filter(lambda g: g > 0.0), r_prime=st.floats(0.0, 2.0))
def test_every_scheme_is_achieved_within_the_budget(p1, p2, c1, c2, g, r_prime):
    p, budget = ChannelParams(p1, p2, c1, c2, g), RandomnessBudget.finite(r_prime)
    b1, b2 = s1.bounds(p, budget), s2.bounds(p, budget)
    assume(b1.rho_max is not None)  # some rho fits the budget
    for report in (b1.lower_df, b1.lower_pdf_m, b2.lower_df, b2.lower_pdf_df_m, b2.lower_pdf_pdf_m):
        assert rf.f5(p, report.rho) <= r_prime, report


@PROPERTY
@given(p1=powers, p2=powers, g=gains.filter(lambda g: g > 0.0), t=st.floats(-1.0, 1.0, exclude_max=True))
def test_budget_cap_is_the_last_float_within_the_budget(p1, p2, g, t):
    p = ChannelParams(p1, p2, 1.0, 1.0, g)
    least, most = rf.f5(p, -1.0), rf.f5(p, 1.0)
    # t < 0 puts the budget below f5(-1), which is positive for unequal powers
    r_prime = least + t * (most - least) if t >= 0.0 else least * (1.0 + t)
    assume(r_prime < most)  # finite and binding: r' < f5(1)
    budget = RandomnessBudget.finite(r_prime)
    rho_max = rf.f5_inverse(p, budget)
    assert (rho_max is None) == (r_prime < least)  # no rho fits exactly there
    if rho_max is None:
        for table in (s1.TABLE, s2.TABLE):
            lows = s1.lower(p, budget, table)
            assert lows["rho_max"] is None and lows["lower"] == 0.0
            assert lows["note"] == "randomness budget below the minimum leakage f5(-1): no feasible correlation"
        return
    assert -1.0 <= rho_max < 1.0
    assert rf.f5(p, rho_max) <= r_prime < rf.f5(p, math.nextafter(rho_max, 1.0))
