"""Bounds for the scenario where all three encoding nodes share the randomness."""

import math

import numpy as np
import pytest

from diamond_wiretap import rate_functions as rf
from diamond_wiretap import scenario_one as s1
from diamond_wiretap import scenario_two as s2
from diamond_wiretap import schemes
from diamond_wiretap.errors import EmptyInterval
from diamond_wiretap.rate_functions import ChannelParams, RandomnessBudget
from diamond_wiretap.scalar_opt import maximize_min

UNBOUNDED = RandomnessBudget.unbounded()

# frozen with an independent high-precision evaluation
F45_AT_1 = 1.51781195487    # f4 - f5 at rho = 1, p = 10, g = 0.1
MIN_AT_HALF = 1.47709815519  # min(f1, f2, f3, f4 - f5) at rho = 0.5, p = 10, c = 1, g = 0.1
F45_AT_0_P1 = 0.660964047444  # f4 - f5 at rho = 0, p = 1, g = 0.1


def params(c, p=10.0, g=0.1):
    return ChannelParams.symmetric(p, c, g)


def table_rate(p, name, rho):
    """The rate of ``schemes.TABLE[name]`` on the Gaussian channel at ``rho``, clamped at 0."""
    branch, _ = schemes.gaussian(p, name)
    return max(0.0, min(values[0] for values in branch([rho]).values()))


def test_upper_bound_cut_limited():
    # small links: the bound collapses to c1 + c2 at rho = 0
    ub = s1.upper_bound(params(0.5))
    assert ub.value == pytest.approx(1.0, abs=1e-9)
    assert ub.branch == "S1"
    assert "f3" in ub.binding
    assert ub.rho == pytest.approx(0.0, abs=1e-9)
    assert set(ub.sub_reports) == {"S1", "S2", "S3", "S4"}


def test_upper_bound_mac_limited():
    ub = s1.upper_bound(params(2.0))
    assert ub.value == pytest.approx(F45_AT_1, abs=1e-9)
    assert ub.branch == "S4"
    assert ub.rho == pytest.approx(1.0, abs=2e-3)


def test_df_rate_monotone_and_capped():
    p = params(2.0)
    rhos = [0.0, 0.3, 0.6, 0.9, 1.0]
    vals = [table_rate(p, "df1", r) for r in rhos]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
    assert vals[-1] == pytest.approx(F45_AT_1, abs=1e-9)
    # links below the MAC term cap the rate at c
    assert table_rate(params(0.3), "df1", 1.0) == pytest.approx(0.3, abs=1e-12)


def test_pdf_m_rate_frozen_point():
    assert table_rate(params(1.0), "pdfm1", 0.5) == pytest.approx(MIN_AT_HALF, abs=1e-9)


def test_pdf_equals_pdf_m_at_zero():
    p = params(0.8)
    assert s1.bounds(p, UNBOUNDED).lower_pdf.value == pytest.approx(table_rate(p, "pdfm1", 0.0), abs=1e-12)


def test_bounds_tight_in_link_limited_regime():
    for c in (0.2, 0.4, 0.7):
        b = s1.bounds(params(c), UNBOUNDED)
        assert b.upper.value == pytest.approx(2.0 * c, abs=1e-6)
        assert b.lower == pytest.approx(2.0 * c, abs=1e-6)
        assert b.lower <= b.upper.value + 1e-9


def test_bounds_tight_in_mac_limited_regime():
    b = s1.bounds(params(3.0), UNBOUNDED)
    assert b.upper.value == pytest.approx(F45_AT_1, abs=1e-6)
    assert b.lower == pytest.approx(F45_AT_1, abs=1e-6)


def test_bounds_fields_consistent():
    b = s1.bounds(params(1.5), UNBOUNDED)
    assert b.rho_max == 1.0
    assert b.lower == max(0.0, b.lower_df.value, b.lower_pdf.value, b.lower_pdf_m.value)
    assert b.lower <= b.upper.value + 1e-9
    assert b.note is None


def test_bounds_budget_pins_rho_max():
    # f5(-0.5) = 0.5 at p = 10, g = 0.1
    b = s1.bounds(params(1.5), RandomnessBudget.finite(0.5))
    assert b.rho_max == pytest.approx(-0.5, abs=1e-9)
    # rho = 0 infeasible: plain PDF reports zero with a note
    assert b.lower_pdf.value == 0.0
    assert b.lower_pdf.note is not None
    # remaining schemes evaluate at the budget cap
    expected = min(
        rf.f1(params(1.5), -0.5),
        rf.f3(params(1.5), -0.5),
        rf.f4(params(1.5), -0.5) - rf.f5(params(1.5), -0.5),
    )
    assert b.lower_pdf_m.value == pytest.approx(expected, abs=1e-6)
    assert b.lower_df.rho == pytest.approx(-0.5, abs=1e-9)


def test_bounds_pdf_frozen_small_power():
    b = s1.bounds(params(1.0, p=1.0), UNBOUNDED)
    assert b.lower_pdf.value == pytest.approx(F45_AT_0_P1, abs=1e-9)
    assert "f4-f5" in b.lower_pdf.binding


def test_bounds_empty_feasible_set():
    asym = ChannelParams(p1=4.0, p2=1.0, c1=1.0, c2=1.0, g=0.1)
    b = s1.bounds(asym, RandomnessBudget.finite(0.0))
    assert b.lower == 0.0
    assert b.rho_max is None
    assert "no feasible correlation" in b.note
    assert b.upper.value > 0.0


def test_no_eavesdropper_reduction():
    # with g = 0 the upper bound is the plain network bound and DF meets the
    # links whenever they are the bottleneck
    b = s1.bounds(params(0.5, g=0.0), UNBOUNDED)
    assert b.upper.value == pytest.approx(1.0, abs=1e-9)
    assert b.lower == pytest.approx(1.0, abs=1e-6)


def test_lower_never_exceeds_upper_random_sweep():
    rng = np.random.default_rng(7)
    for _ in range(25):
        p = ChannelParams(
            p1=float(rng.uniform(0.2, 30.0)),
            p2=float(rng.uniform(0.2, 30.0)),
            c1=float(rng.uniform(0.0, 3.0)),
            c2=float(rng.uniform(0.0, 3.0)),
            g=float(rng.uniform(0.0, 0.9)),
        )
        budget = UNBOUNDED if rng.uniform() < 0.5 else RandomnessBudget.finite(float(rng.uniform(0.0, 1.5)))
        b = s1.bounds(p, budget)
        assert b.lower <= b.upper.value + 1e-7
        assert b.lower >= 0.0


def test_seeds_cover_every_pair_of_a_rising_and_another_term():
    """The crossing seeds cover every meeting point: each entry has terms
    that rise, those whose peak lies above -1, and each has a seed against
    every term that can fall while it rises, one that peaks before it."""
    p = ChannelParams(3.0, 0.5, 0.8, 1.1, 0.3)
    for name in schemes.TABLE:
        branch, fixed = schemes.gaussian(p, name)
        terms = set(branch([0.5]))
        peaks = {term: rf.peak(p, term) for term in terms}
        rising = [term for term in terms if peaks[term] > -1.0]
        assert rising, name
        for up in rising:
            for other in terms:
                if peaks[other] < peaks[up]:
                    lo, hi = max(-1.0, peaks[other]), min(1.0, peaks[up])
                    seed = s1._meeting(p, {**fixed, "indicator": 0.0}, up, other, lo, hi)
                    assert isinstance(seed, float), (name, up, other)


def test_each_meeting_point_is_asked_for_on_its_piece_alone(monkeypatch):
    """Over every entry of both scenarios, on drawn channels with finite and
    unbounded budgets: each piece the solver hands ``_meeting`` lies inside
    the solve's interval; one whose other term is the indicator ends outside
    the link interval, where the indicator is 0, and holds none of it inside;
    and each finite seed that Newton's steps find lies on its piece."""
    meeting, solve, newton = s1._meeting, s1.solve, rf._newton_crossing
    calls, steps, counts = [], [], {"calls": 0, "newton": 0, "indicator": 0}

    def recorded_newton(*args):
        steps.append(None)
        return newton(*args)

    def recorded_meeting(params, levels, up, other, a, b):
        before = len(steps)
        seed = meeting(params, levels, up, other, a, b)
        calls.append((up, other, a, b, seed, len(steps) > before))
        return seed

    def checked_solve(params, name, lo, hi):
        del calls[:]
        opt, link = solve(params, name, lo, hi)
        for up, other, a, b, seed, stepped in calls:
            where = (params, name, up, other, a, b)
            assert lo <= a < b <= hi, where
            if other == "indicator":
                assert link is None or b < link[0] or link[1] <= a, (where, link)
            if stepped and math.isfinite(seed):
                assert a <= seed <= b, (where, seed)
            counts["calls"] += 1
            counts["newton"] += stepped
            counts["indicator"] += other == "indicator"
        return opt, link

    monkeypatch.setattr(s1, "_meeting", recorded_meeting)
    monkeypatch.setattr(s1, "solve", checked_solve)
    monkeypatch.setattr(rf, "_newton_crossing", recorded_newton)
    rng = np.random.default_rng(43)
    for i in range(120):
        p = ChannelParams(float(10.0 ** rng.uniform(-2.0, 4.0)), float(10.0 ** rng.uniform(-2.0, 4.0)),
                          float(rng.uniform(0.0, 3.0)), float(rng.uniform(0.0, 3.0)), float(rng.uniform(0.0, 0.95)))
        budget = UNBOUNDED if i % 2 else RandomnessBudget.finite(float(rng.uniform(0.0, 2.0)))
        s1.bounds(p, budget)
        s2.bounds(p, budget)
    assert counts["newton"] > 100 and counts["indicator"] > 10 and counts["calls"] > counts["newton"], counts


def test_linked_entries_are_those_with_an_indicator():
    """``solve`` splits at the link interval exactly the entries whose terms
    include the indicator of the link conditions."""
    p = ChannelParams(3.0, 0.5, 0.8, 1.1, 0.3)
    for name, entry in schemes.TABLE.items():
        branch, _ = schemes.gaussian(p, name)
        assert entry.linked == ("indicator" in branch([0.5])), name


def test_a_degenerate_interval_is_one_evaluation_of_the_branch():
    """On single points x of every ``schemes.TABLE`` entry, the optimizer's
    one-cut call, ends = (x, x), returns rho = x, the minimum of the terms
    and the terms within 1e-9 (relative) of it, in binding order, as the
    branch gives them there; ``solve`` on [x, x] returns the same.  A branch
    with no terms raises ``EmptyInterval``."""
    def never(*_):
        raise AssertionError("a single point has no meeting point to search")

    rng = np.random.default_rng(15)
    for _ in range(25):
        p = ChannelParams(float(10.0 ** rng.uniform(-2.0, 2.0)), float(10.0 ** rng.uniform(-2.0, 2.0)),
                          float(rng.uniform(0.0, 5.0)), float(rng.uniform(0.0, 5.0)), float(rng.uniform(0.0, 0.99)))
        for name, entry in schemes.TABLE.items():
            branch, _ = schemes.gaussian(p, name)
            peaks = {term: rf.peak(p, term) for term in entry.names}
            for x in (-1.0, 0.0, 1.0, float(rng.uniform(-1.0, 1.0))):
                terms = {term: values[0] for term, values in branch([x]).items()}
                value = min(terms.values())
                tol = 1e-9 * max(1.0, abs(value)) if math.isfinite(value) else 0.0
                binding = tuple(term for term, v in terms.items() if v == value or v <= value + tol)
                res = maximize_min(branch, (x, x), peaks, never)
                assert (res.rho, res.value, res.binding) == (x, value, binding), (p, name, x)
                assert s1.solve(p, name, x, x)[0] == res, (p, name, x)
    with pytest.raises(EmptyInterval):
        maximize_min(lambda xs: {}, (0.5, 0.5), {}, never)


@pytest.mark.parametrize("p1, p2", [(1e-12, 1e-12), (1e-12, 1e-7), (1e-9, 1e-9), (1e-12, 1e12)])
def test_tiny_power_products_return_ordered_bounds(p1, p2):
    # a tiny power product puts rho* and rho_h close to 0, where floats are dense
    b = s1.bounds(ChannelParams(p1, p2, 1.0, 0.7, 0.5), UNBOUNDED)
    assert 0.0 <= b.lower <= b.upper.value + 1e-9
