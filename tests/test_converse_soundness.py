"""The upper-bound branches S1..S4 and T1..T3 are converses, so the refined
optimum must not fall short of the objective's maximum, and the value each
branch reports must be what its own terms give at the reported rho.

Every branch is solved exactly at its crossings (S3 as two pieces, either
side of the peak of (f3+f4)/2), so no value may fall below any point of the
fine grid.

The objectives are written out again here from the branch formulas in the
scenario modules' docstrings, independently of the term lists of
``schemes.TABLE``."""

import numpy as np
import pytest

from diamond_wiretap import rate_functions as rf
from diamond_wiretap import scenario_one as s1
from diamond_wiretap import scenario_two as s2
from diamond_wiretap.rate_functions import ChannelParams, RandomnessBudget

FINE_POINTS = 2**16 + 1
DRAWS = 30


def criterion_08_draws(n):
    """The first ``n`` parameter tuples of acceptance criterion 08."""
    rng = np.random.default_rng(12345)
    out = []
    for i in range(n):
        g = 0.0 if i % 10 == 0 else float(rng.uniform(0.0, 0.99))
        p = ChannelParams(
            p1=float(10.0 ** rng.uniform(-2.0, 2.0)),
            p2=float(10.0 ** rng.uniform(-2.0, 2.0)),
            c1=float(rng.uniform(0.0, 5.0)),
            c2=float(rng.uniform(0.0, 5.0)),
            g=g,
        )
        if i % 3 == 0:
            rng.uniform(0.0, 2.0)  # the budget draw; converses ignore the budget
        out.append(p)
    return out


def branch_objectives(p):
    """Branch name -> (objective over an array of rho, lo, hi)."""
    def f1(r): return rf.f1(p, r)
    def f2(r): return rf.f2(p, r)
    def f3(r): return rf.f3(p, r)
    def f4(r): return rf.f4(p, r)
    def f5(r): return rf.f5(p, r)

    f10, f20, f30 = f1(0.0), f2(0.0), f3(0.0)
    rs, rb = rf.rho_star(p), rf.rho_bar(p)
    return {
        "S1": (lambda r: np.minimum.reduce([f1(r), f2(r), f3(r), f4(r)]), 0.0, rs),
        "S2": (lambda r: np.minimum.reduce([f1(r), f2(r), np.full_like(r, f30), f4(r)]), rs, 1.0),
        "S3": (lambda r: np.minimum.reduce([
            f1(r), f2(r), np.full_like(r, f30), 0.5 * (f3(r) + f4(r)), f4(r) - f5(r),
        ]), 0.0, rs),
        "S4": (lambda r: np.minimum.reduce([f1(r), f2(r), np.full_like(r, f30), f4(r) - f5(r)]), rs, 1.0),
        "T1": (lambda r: np.minimum(min(f10, f20, f30), f4(r)) - f5(r), -rb, 0.0),
        "T2": (lambda r: np.minimum.reduce([f1(r), f2(r), f3(r), f4(r)]) - f5(r), 0.0, rs),
        "T3": (lambda r: np.minimum.reduce([f1(r), f2(r), np.full_like(r, f30), f4(r)]) - f5(r), rs, 1.0),
    }


@pytest.mark.parametrize("i, p", list(enumerate(criterion_08_draws(DRAWS))))
def test_upper_bound_branches_are_sound(i, p):
    reports = {**s1.upper_bound(p).sub_reports, **s2.upper_bound(p).sub_reports}
    for name, (objective, lo, hi) in branch_objectives(p).items():
        rep = reports[name]
        fine_max = float(np.max(objective(np.linspace(lo, hi, FINE_POINTS))))
        assert rep.value >= fine_max, (i, name, rep.value, fine_max)
        assert lo <= rep.rho <= hi, (i, name, rep.rho, lo, hi)
        # a few ulps of slack, for libm builds that round a 1-element array
        # differently from a long one
        again = float(objective(np.array([rep.rho]))[0])
        assert rep.value == pytest.approx(again, rel=0.0, abs=1e-14), (i, name, rep.value, again)


STRUCTURE_POINTS = 4097


@pytest.mark.parametrize("i, p", list(enumerate(criterion_08_draws(DRAWS))))
def test_solved_branches_have_a_monotone_envelope(i, p, monkeypatch):
    """Each piece handed to the crossing solver (S1, S2, both pieces of S3,
    S4, PDF-M, T1..T3 and scenario-2 DF; the schemes over the widest
    interval, that of an unbounded budget) has each of its rising terms
    nondecreasing and every other term nonincreasing, sampled finely."""
    calls = []

    def record(branch, lo, hi, rising, seed, solve=s1.maximize_crossing):
        calls.append((branch, lo, hi, rising))
        return solve(branch, lo, hi, rising, seed)
    monkeypatch.setattr(s1, "maximize_crossing", record)  # scenario_one.solve serves both scenarios
    s1.bounds(p, RandomnessBudget.unbounded())
    s2.bounds(p, RandomnessBudget.unbounded())
    assert len(calls) == 10
    assert sum(len(rising) == 2 for _, _, _, rising in calls) == 1  # S3 up to the peak of (f3+f4)/2
    for branch, lo, hi, rising in calls:
        rho = np.linspace(lo, hi, STRUCTURE_POINTS)
        terms = branch(rho)
        for name, values in terms.items():
            steps = np.diff(np.broadcast_to(values, rho.shape))
            if name in rising:
                assert np.all(steps >= 0.0), (i, name, lo, hi)
            else:
                assert np.all(steps <= 0.0), (i, name, lo, hi)


@pytest.mark.parametrize("budget", [RandomnessBudget.unbounded(), RandomnessBudget.finite(0.3)])
def test_scenario_one_runs_no_grid_search(budget, monkeypatch):
    """Every scenario-1 branch and scheme is solved at its crossings: the grid
    search of ``maximize_min`` only evaluates degenerate intervals (DF at the
    budget cap, plain PDF at rho = 0, PDF-M when the budget forces rho < 0)."""
    intervals = []

    def record(branch, lo, hi, solve=s1.maximize_min):
        intervals.append((lo, hi))
        return solve(branch, lo, hi)
    monkeypatch.setattr(s1, "maximize_min", record)
    for p in criterion_08_draws(DRAWS):
        s1.bounds(p, budget)
    assert intervals  # DF at the cap, wherever some rho fits the budget
    assert all(lo == hi for lo, hi in intervals), intervals
