"""The scenario-2 multicoding schemes PDF-DF-M and PDF-PDF-M are solved at
their crossings, so each reported optimum must not fall short of the
objective anywhere on [-1, rho_max], must be what the scheme's terms give at
the reported rho, and must lie within the budget cap; the reported link
conditions must be those at that rho.

The objectives are written out again here from the scheme formulas in the
``scenario_two`` docstring, independently of the term lists of
``schemes.TABLE``.  As in ``test_converse_soundness``, the numpy reference
evaluates the fine grid and the float kernel every point near its
maximum."""

import math

import numpy as np
import pytest

from diamond_wiretap import rate_functions as rf
from diamond_wiretap import scenario_two as s2
from diamond_wiretap.rate_functions import ChannelParams, RandomnessBudget

from test_converse_soundness import DRAWS, criterion_08_draws, fine_max, kernel_rates

EXTREME_POWERS = ((1e4, 1e-4), (1e-4, 1e4), (1e-2, 1e7), (1e7, 1e-2), (1e5, 1e-5), (1e-5, 1e5))
# Criterion-08 draw 544: the link conditions hold only on [-1, -0.965],
# where f3 - f5 is negative, and every term is positive near rho = -0.94,
# so PDF-PDF-M reaches 0 outside the link interval.
DRAW_544 = ChannelParams(0.3143957145838717, 0.06275737121706006, 0.03788662365147577, 1.5668421218848678,
                         0.5316619620651701)
CHANNELS = (criterion_08_draws(DRAWS) + [ChannelParams(p1, p2, 1.0, 1.0, 0.5) for p1, p2 in EXTREME_POWERS]
            + [DRAW_544])


def link_conditions(p, r):
    return p.c1 > rf.f6(p, r) and p.c2 > rf.f7(p, r)


def pdfpdfm(r):
    rate = np.minimum.reduce([r["f1"], r["f2"], r["f3"], r["f4"]]) - r["f5"]
    return np.where(r["indicator"] > 0.0, rate, np.minimum(rate, 0.0))


# scheme name -> (raw objective of a mapping of rate arrays, the rates it reads)
SCHEME_OBJECTIVES = {
    "lower_pdf_df_m": (lambda r: np.minimum.reduce([r["f1"] - r["f5"], r["f2"] - r["f5"],
                                                    r["f3"] - 2.0 * r["f5"], r["f4"] - r["f5"]]),
                       ("f1", "f2", "f3", "f4", "f5")),
    "lower_pdf_pdf_m": (pdfpdfm, ("f1", "f2", "f3", "f4", "f5", "indicator")),
}


@pytest.mark.parametrize("r_prime", [math.inf, 0.3])
@pytest.mark.parametrize("i, p", list(enumerate(CHANNELS)))
def test_multicoding_schemes_are_sound(i, p, r_prime):
    b = s2.bounds(p, RandomnessBudget(r_prime))
    if b.rho_max is None:
        return  # no correlation fits the budget: zero reports with a note
    for name, (objective, names) in SCHEME_OBJECTIVES.items():
        rep = getattr(b, name)
        best = fine_max(p, objective, names, -1.0, b.rho_max)
        again = float(objective(kernel_rates(p, [rep.rho], names))[0])
        assert rep.raw_value >= best, (i, name, rep.raw_value, best)
        assert -1.0 <= rep.rho <= b.rho_max, (i, name, rep.rho, b.rho_max)
        assert rep.raw_value == again, (i, name, rep.raw_value, again)
    assert b.indicator_satisfied == link_conditions(p, b.lower_pdf_pdf_m.rho), i
