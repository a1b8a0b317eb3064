"""The upper-bound branches S1..S4 and T1..T3 are converses, so the refined
optimum must not fall short of the objective's maximum, and the value each
branch reports must be what its own terms give at the reported rho.

The objectives are written out again here from the branch formulas in the
scenario modules' docstrings, independently of the term lists the modules
pass to the optimizer."""

import numpy as np
import pytest

from diamond_wiretap import rate_functions as rf
from diamond_wiretap import scenario_one as s1
from diamond_wiretap import scenario_two as s2
from diamond_wiretap.rate_functions import ChannelParams

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
        assert rep.value >= fine_max - 1e-12, (i, name, rep.value, fine_max)
        assert lo <= rep.rho <= hi, (i, name, rep.rho, lo, hi)
        # a few ulps of slack, for libm builds that round a 1-element array
        # differently from a long one
        again = float(objective(np.array([rep.rho]))[0])
        assert rep.value == pytest.approx(again, rel=0.0, abs=1e-14), (i, name, rep.value, again)
