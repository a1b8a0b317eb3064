"""Every converse branch and achievable scheme of the paper, written once.

``TABLE`` maps each name to an ``Entry``: the names of its terms in binding
order, each a weighted sum of rates written once in ``rate_functions.TERMS``.
A bound or rate is the minimum of the terms, maximized over the correlation
rho on an interval that the scenario modules set.  The rates are f1..f5 and
the ``indicator`` (``rate_functions.link_indicator``: +inf where the strict
link conditions C1 > f6 and C2 > f7 of pdfpdfm2 hold, 0 where they fail) at
rho, the rho-free f3(0), and the link capacities C1, C2.  ``rate_functions``
alone compiles an entry's sums, ``Entry.terms``, and the loop over points
that ``gaussian`` binds to the Gaussian channel, both from one sum rule.
``oracles.dmc_rates`` fills the rates for a discrete channel from entropies:

    f1 = C1 + I(X2;Y|X1)    f2 = C2 + I(X1;Y|X2)    f3 = C1 + C2 - I(X1;X2)
    f4 = I(X1,X2;Y)         f5 = I(X1,X2;Z)         f6 = I(X1;Z)    f7 = I(X2;Z)

Converse branches S1..S4 (scenario 1) and T2, T3 (scenario 2, T1 has a closed
form); schemes df1, pdfm1 (scenario 1) and df2, pdfdfm2, pdfpdfm2 (scenario 2).

Solver choice.  Each term rises up to its peak, ``rate_functions.peak``,
which derives them all, and falls after it: a term that never rises peaks
at -inf, one that rises throughout at +inf.  So the peaks inside an entry's
interval split it into pieces on which every term is monotone, all that the
solver needs of them: rho_h splits S3, and the peaks of
f1 - f5, f2 - f5, f3 - f5 and f3 - 2 f5 split pdfdfm2 and pdfpdfm2 into up
to four pieces.  The indicator of pdfpdfm2, which ``peak`` counts as never
rising, is constant between the ends of the one interval where its link
conditions hold: C1 > f6 reads 1 + g*s < 2^(2 C1)*(1 + g*q*P2), a
quadratic in rho with a positive leading coefficient, which holds between
its roots, and C2 > f7 is the same with P1 for P2
(``rate_functions.link_interval``).  Its ends split each ``linked`` entry,
the one that reads the indicator, further.

``scalar_opt.maximize_min`` evaluates every piece end in one call,
searches every piece where the minimum of the rising terms meets the others
for the two floats around the meeting point, and reports the best of those
floats and the piece ends; elsewhere the maximum lies at an end.  Where
the sign change is unique, a seed decides only how many points the search
evaluates, not what it reports.
``scenario_one.solve`` has the solver ask ``scenario_one._meeting`` where
one rising term first reaches one other term on the piece being searched,
which it answers without a kernel call, by ``rate_functions.crossing``:
where both terms subtract f5 it cancels, and f4 against f1, f2, f3 (a
quadratic) or a constant (linear) has a closed form; every other pair takes
a few Newton steps on the piece.  On a plateau the solver reports the first
float where the rising terms reach the others.  A degenerate interval, df1
at the budget cap or pdfm1 at rho = 0, is one piece end: one evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

from . import rate_functions as rf
from .rate_functions import ChannelParams

__all__ = ["Entry", "TABLE", "gaussian"]


@dataclass(frozen=True)
class Entry:
    """One branch or scheme: its term names in binding order and the rates
    they read, ``uses``; ``rate_functions`` compiles its sums and its loop."""

    names: tuple[str, ...]
    uses: tuple[str, ...] = field(init=False)
    linked: bool = field(init=False)  # whether a term is the indicator of the link conditions

    def __post_init__(self) -> None:
        object.__setattr__(self, "uses", tuple(sorted({rate for name in self.names for rate in rf.TERMS[name]})))
        object.__setattr__(self, "linked", "indicator" in self.uses)

    def terms(self, r: Mapping) -> dict:
        """``{name: value}`` in binding order from the rates ``r``, floats or
        numpy arrays alike (``rate_functions.term_sums``)."""
        return rf.term_sums(self.names)(r)


TABLE: dict[str, Entry] = {
    "S1": Entry(("f1", "f2", "f3", "f4")),
    "S2": Entry(("f1", "f2", "f3(0)", "f4")),
    "S3": Entry(("f1", "f2", "f3(0)", "(f3+f4)/2", "f4-f5")),
    "S4": Entry(("f1", "f2", "f3(0)", "f4-f5")),
    "T2": Entry(("f1-f5", "f2-f5", "f3-f5", "f4-f5")),
    "T3": Entry(("f1-f5", "f2-f5", "f3(0)-f5", "f4-f5")),
    "df1": Entry(("C1", "C2", "f4-f5")),
    "pdfm1": Entry(("f1", "f2", "f3", "f4-f5")),
    "df2": Entry(("C1-f5", "C2-f5", "f4-f5")),
    "pdfdfm2": Entry(("f1-f5", "f2-f5", "f3-2f5", "f4-f5")),
    "pdfpdfm2": Entry(("f1-f5", "f2-f5", "f3-f5", "f4-f5", "indicator")),
}


def gaussian(params: ChannelParams, name: str) -> tuple[Callable, dict]:
    """``TABLE[name]`` on the Gaussian channel ``params``: the branch, which
    maps a list of points to ``{term: values}``, and the rho-free rates it
    was given.  The branch is the entry's loop, compiled in
    ``rate_functions`` on its first solve (``term_loop``), bound to them."""
    entry = TABLE[name]
    fixed = {"C1": params.c1, "C2": params.c2}
    # f3(0) by the public f3, a call the benchmark tracer sees in scenario 1
    if "f3(0)" in entry.uses:
        fixed["f3(0)"] = rf.f3(params, 0.0)
    return rf.term_loop(entry.names)(params, fixed), fixed
