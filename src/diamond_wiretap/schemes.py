"""Every converse branch and achievable scheme of the paper, written once.

``TABLE`` maps each name to an ``Entry`` whose ``terms`` turn a mapping of
rates into the branch's terms, ``{name: value}`` in binding order.  A bound
or rate is the minimum of the terms, maximized over the correlation rho on
an interval that the scenario modules set.  The rates an entry reads are its
``uses``: f1..f7 at rho, the rho-free f1(0), f2(0), f3(0), and the link
capacities C1, C2.  ``gaussian`` fills them for the Gaussian channel, f1..f7
with one ``rate_functions.rates`` call per evaluation; ``oracles.dmc_rates``
fills f1..f7 for a discrete channel from entropies:

    f1 = C1 + I(X2;Y|X1)    f2 = C2 + I(X1;Y|X2)    f3 = C1 + C2 - I(X1;X2)
    f4 = I(X1,X2;Y)         f5 = I(X1,X2;Z)         f6 = I(X1;Z)    f7 = I(X2;Z)

Converse branches S1..S4 (scenario 1) and T1..T3 (scenario 2); schemes df1,
pdfm1 (scenario 1) and df2, pdfdfm2, pdfpdfm2 (scenario 2).  S3 is written
as two pieces, S3a and S3b, for the intervals either side of the peak of
(f3+f4)/2.  The ``indicator`` of pdfpdfm2 is +inf where its strict link
conditions C1 > f6 and C2 > f7 hold and 0 where they fail.

Solver choice.  On an entry with ``rising`` each of those terms is
nondecreasing on the interval and every other term constant or
nonincreasing: f4 and f4 - f5 rise with rho (g < 1), f1, f2 and f3 fall
for rho >= 0, constants less f5 fall, and the concave (f3+f4)/2 rises up to
its peak ``rate_functions.rho_h`` and falls after it, which splits S3 into
S3a on [0, rho_h], with both (f3+f4)/2 and f4 - f5 rising, and S3b on
[rho_h, rho*].  The maximum lies at an end or where the rising minimum
first meets the others, and ``meets`` names the terms it can meet.
``rate_functions.crossing`` seeds each meeting point without a kernel call:
where both terms subtract f5 it cancels, leaving f4 against f1, f2, f3 (a
quadratic) or a constant (linear); f4 - f5 against f1, f2, f3 or (f3+f4)/2,
and (f3+f4)/2 against f1, f2 or a constant, take a few Newton steps.
``scalar_opt.maximize_crossing`` solves these entries (S1, S2, S3a, S3b,
S4, T1..T3, pdfm1, df2); on a plateau it reports the first float where the
rising minimum reaches the others.  The grid search of
``scalar_opt.maximize_min`` is left with pdfdfm2 and pdfpdfm2, where f1 - f5
is not monotone on [-1, 0] and pdfpdfm2 carries the indicator, with df1,
which is only ever evaluated at the budget cap, and with every degenerate
interval.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from . import rate_functions as rf
from .rate_functions import ChannelParams

__all__ = ["Entry", "TABLE", "gaussian"]


@dataclass(frozen=True)
class Entry:
    """One branch or scheme: the rates it reads, its terms, and, on the
    monotone-envelope branches, the rising terms and the terms they meet."""

    uses: tuple[str, ...]
    terms: Callable[[Mapping], dict]
    rising: tuple[str, ...] = ()
    meets: tuple[str, ...] = ()


def _as_is(r: Mapping, *names: str) -> dict:
    """Each rate under its own name."""
    return {name: r[name] for name in names}


def _less_f5(r: Mapping, *names: str) -> dict:
    """Each rate less the leakage f5, named ``<rate>-f5``."""
    return {f"{name}-f5": r[name] - r["f5"] for name in names}


def _s3(r: Mapping) -> dict:
    """The terms of S3, which both of its pieces share."""
    return {**_as_is(r, "f1", "f2", "f3(0)"), "(f3+f4)/2": 0.5 * (r["f3"] + r["f4"]), "f4-f5": r["f4"] - r["f5"]}


TABLE: dict[str, Entry] = {
    "S1": Entry(("f1", "f2", "f3", "f4"), lambda r: _as_is(r, "f1", "f2", "f3", "f4"),
                rising=("f4",), meets=("f1", "f2", "f3")),
    "S2": Entry(("f1", "f2", "f4", "f3(0)"), lambda r: _as_is(r, "f1", "f2", "f3(0)", "f4"),
                rising=("f4",), meets=("f1", "f2", "f3(0)")),
    "S3a": Entry(("f1", "f2", "f3", "f4", "f5", "f3(0)"), _s3,
                 rising=("(f3+f4)/2", "f4-f5"), meets=("f1", "f2", "f3(0)")),
    "S3b": Entry(("f1", "f2", "f3", "f4", "f5", "f3(0)"), _s3,
                 rising=("f4-f5",), meets=("f1", "f2", "f3(0)", "(f3+f4)/2")),
    "S4": Entry(("f1", "f2", "f4", "f5", "f3(0)"),
                lambda r: {**_as_is(r, "f1", "f2", "f3(0)"), "f4-f5": r["f4"] - r["f5"]},
                rising=("f4-f5",), meets=("f1", "f2", "f3(0)")),
    "T1": Entry(("f4", "f5", "f1(0)", "f2(0)", "f3(0)"), lambda r: _less_f5(r, "f1(0)", "f2(0)", "f3(0)", "f4"),
                rising=("f4-f5",), meets=("f1(0)-f5", "f2(0)-f5", "f3(0)-f5")),
    "T2": Entry(("f1", "f2", "f3", "f4", "f5"), lambda r: _less_f5(r, "f1", "f2", "f3", "f4"),
                rising=("f4-f5",), meets=("f1-f5", "f2-f5", "f3-f5")),
    "T3": Entry(("f1", "f2", "f4", "f5", "f3(0)"), lambda r: _less_f5(r, "f1", "f2", "f3(0)", "f4"),
                rising=("f4-f5",), meets=("f1-f5", "f2-f5", "f3(0)-f5")),
    "df1": Entry(("f4", "f5", "C1", "C2"), lambda r: {**_as_is(r, "C1", "C2"), "f4-f5": r["f4"] - r["f5"]}),
    "pdfm1": Entry(("f1", "f2", "f3", "f4", "f5"),
                   lambda r: {**_as_is(r, "f1", "f2", "f3"), "f4-f5": r["f4"] - r["f5"]},
                   rising=("f4-f5",), meets=("f1", "f2", "f3")),
    "df2": Entry(("f4", "f5", "C1", "C2"), lambda r: _less_f5(r, "C1", "C2", "f4"),
                 rising=("f4-f5",), meets=("C1-f5", "C2-f5")),
    "pdfdfm2": Entry(("f1", "f2", "f3", "f4", "f5"),
                     lambda r: {**_less_f5(r, "f1", "f2"), "f3-2f5": r["f3"] - 2.0 * r["f5"], **_less_f5(r, "f4")}),
    "pdfpdfm2": Entry(("f1", "f2", "f3", "f4", "f5", "f6", "f7", "C1", "C2"),
                      lambda r: {**_less_f5(r, "f1", "f2", "f3", "f4"),
                                 "indicator": np.where((r["C1"] > r["f6"]) & (r["C2"] > r["f7"]), np.inf, 0.0)}),
}

_AT_ZERO = {"f1(0)": lambda p: rf.f1(p, 0.0), "f2(0)": lambda p: rf.f2(p, 0.0), "f3(0)": lambda p: rf.f3(p, 0.0)}


def gaussian(params: ChannelParams, name: str) -> tuple[Callable, dict]:
    """``TABLE[name]`` on the Gaussian channel ``params``: the branch
    ``rho -> {term: values}`` and the rho-free rates it was given."""
    entry = TABLE[name]
    fixed = {"C1": params.c1, "C2": params.c2}
    fixed.update({u: _AT_ZERO[u](params) for u in entry.uses if u in _AT_ZERO})
    at_rho = tuple(u for u in entry.uses if u not in fixed)

    def branch(rho):
        return entry.terms({**fixed, **rf.rates(params, rho, at_rho)})

    return branch, fixed
