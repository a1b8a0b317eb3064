"""The scenario-2 multicoding schemes PDF-DF-M and PDF-PDF-M are solved at
their crossings, so each reported optimum must not fall short of the
objective anywhere on [-1, rho_max], must be what the scheme's terms give at
the reported rho, and must lie within the budget cap; the reported link
conditions must be those at that rho.

The objectives are written out again here from the scheme formulas in the
``scenario_two`` docstring, independently of the term lists of
``schemes.TABLE``."""

import math

import numpy as np
import pytest

from diamond_wiretap import rate_functions as rf
from diamond_wiretap import scenario_two as s2
from diamond_wiretap.rate_functions import ChannelParams, RandomnessBudget

from test_converse_soundness import DRAWS, FINE_POINTS, criterion_08_draws

EXTREME_POWERS = ((1e4, 1e-4), (1e-4, 1e4), (1e-2, 1e7), (1e7, 1e-2), (1e5, 1e-5), (1e-5, 1e5))
# Criterion-08 draw 544: the link conditions hold only on [-1, -0.965],
# where f3 - f5 is negative, and every term is positive near rho = -0.94,
# so PDF-PDF-M reaches 0 outside the link interval.
DRAW_544 = ChannelParams(0.3143957145838717, 0.06275737121706006, 0.03788662365147577, 1.5668421218848678,
                         0.5316619620651701)
CHANNELS = (criterion_08_draws(DRAWS) + [ChannelParams(p1, p2, 1.0, 1.0, 0.5) for p1, p2 in EXTREME_POWERS]
            + [DRAW_544])


def link_conditions(p, r):
    return (p.c1 > rf.f6(p, r)) & (p.c2 > rf.f7(p, r))


def scheme_objectives(p):
    """Scheme name -> raw objective over an array of rho."""
    def f(n, r):
        return getattr(rf, f"f{n}")(p, r)

    def pdfpdfm(r):
        rate = np.minimum.reduce([f(1, r), f(2, r), f(3, r), f(4, r)]) - f(5, r)
        return np.where(link_conditions(p, r), rate, np.minimum(rate, 0.0))

    return {
        "lower_pdf_df_m": lambda r: np.minimum.reduce([f(1, r) - f(5, r), f(2, r) - f(5, r),
                                                       f(3, r) - 2.0 * f(5, r), f(4, r) - f(5, r)]),
        "lower_pdf_pdf_m": pdfpdfm,
    }


@pytest.mark.parametrize("r_prime", [math.inf, 0.3])
@pytest.mark.parametrize("i, p", list(enumerate(CHANNELS)))
def test_multicoding_schemes_are_sound(i, p, r_prime):
    b = s2.bounds(p, RandomnessBudget(r_prime))
    if b.rho_max is None:
        return  # no correlation fits the budget: zero reports with a note
    grid = np.linspace(-1.0, b.rho_max, FINE_POINTS)
    for name, objective in scheme_objectives(p).items():
        rep = getattr(b, name)
        with np.errstate(divide="ignore"):
            fine_max = float(np.max(objective(grid)))
            again = float(objective(np.array([rep.rho]))[0])
        assert rep.raw_value >= fine_max, (i, name, rep.raw_value, fine_max)
        assert -1.0 <= rep.rho <= b.rho_max, (i, name, rep.rho, b.rho_max)
        # a few ulps of slack, for libm builds that round a 1-element array
        # differently from a long one
        assert rep.raw_value == pytest.approx(again, rel=0.0, abs=1e-14), (i, name, rep.raw_value, again)
    assert b.indicator_satisfied == bool(link_conditions(p, b.lower_pdf_pdf_m.rho)), i
