"""Every converse branch and achievable scheme of the paper, written once.

``TABLE`` maps each name to an ``Entry``: the names of its terms in binding
order, each a weighted sum of rates written once in ``rate_functions.TERMS``.
A bound or rate is the minimum of the terms, maximized over the correlation
rho on an interval that the scenario modules set.  ``Entry.terms`` turns the
rates an entry reads, its ``uses``, into its terms by plain arithmetic that
applies alike to floats, to lists of them (``_Column``) and to numpy arrays.
The rates are f1..f5 and the ``indicator`` (``rate_functions.link_indicator``:
+inf where the strict link conditions C1 > f6 and C2 > f7 of pdfpdfm2 hold,
0 where they fail) at rho, the rho-free f3(0), and the link capacities C1,
C2.  ``gaussian`` fills them for the Gaussian channel, with one
``rate_functions.rates`` call per list of points; ``oracles.dmc_rates``
fills them for a discrete channel from entropies:

    f1 = C1 + I(X2;Y|X1)    f2 = C2 + I(X1;Y|X2)    f3 = C1 + C2 - I(X1;X2)
    f4 = I(X1,X2;Y)         f5 = I(X1,X2;Z)         f6 = I(X1;Z)    f7 = I(X2;Z)

Converse branches S1..S4 (scenario 1) and T2, T3 (scenario 2, T1 has a closed
form); schemes df1, pdfm1 (scenario 1) and df2, pdfdfm2, pdfpdfm2 (scenario 2).

Solver choice.  Each term rises up to its peak, ``rate_functions.peak``,
which derives them all, and falls after it: a term that never rises peaks
at -inf, one that rises throughout at +inf.  So the minimum of the terms is
quasi-concave, and the peaks inside an entry's interval split it into
pieces on which every term is monotone: rho_h splits S3, and the peaks of
f1 - f5, f2 - f5, f3 - f5 and f3 - 2 f5 split pdfdfm2 and pdfpdfm2 into up
to four pieces.  The indicator of pdfpdfm2, which ``peak`` counts as never
rising, is constant between the ends of the one interval where its link
conditions hold: C1 > f6 reads 1 + g*s < 2^(2 C1)*(1 + g*q*P2), a
quadratic in rho with a positive leading coefficient, which holds between
its roots, and C2 > f7 is the same with P1 for P2
(``rate_functions.link_interval``).  Its ends split each ``linked`` entry,
the one that reads the indicator, further.

``scalar_opt.maximize_min`` evaluates every piece end in one call and
searches only the pieces beside the best end, where the maximum lies at an
end or where the minimum of the rising terms first meets the others.
``scenario_one.solve`` seeds each meeting point without a kernel call, by
``rate_functions.crossing``: where both terms subtract f5 it cancels, and f4
against f1, f2, f3 (a quadratic) or a constant (linear) has a closed form;
every other pair takes a few Newton steps on the bracket where the one term
rises and the other falls.  On a plateau the solver reports the first float
where the rising terms reach the others.  A degenerate interval, df1 at the
budget cap or pdfm1 at rho = 0, is one piece end: one evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

from . import rate_functions as rf
from .rate_functions import ChannelParams

__all__ = ["Entry", "TABLE", "gaussian"]


@dataclass(frozen=True)
class Entry:
    """One branch or scheme: its term names in binding order.  The rates it
    reads, ``uses``, and the sums of its terms come from ``TERMS`` once, here."""

    names: tuple[str, ...]
    uses: tuple[str, ...] = field(init=False)
    _sums: tuple = field(init=False, repr=False, compare=False)  # per term: (name, rate, weight, other pairs)

    def __post_init__(self) -> None:
        weights = {name: tuple(rf.TERMS[name].items()) for name in self.names}
        object.__setattr__(self, "_sums", tuple((name, *w[0], w[1:]) for name, w in weights.items()))
        object.__setattr__(self, "uses", tuple(sorted({rate for w in weights.values() for rate, _ in w})))

    @property
    def linked(self) -> bool:
        """Whether the terms include the indicator of the link conditions."""
        return "indicator" in self.uses

    def terms(self, r: Mapping) -> dict:
        """``{name: value}`` in binding order from the rates ``r``: each term
        the sum of its weights times the rates, to the bits of the sum from
        -0.0 in ``rate_functions.crossing`` (a weight of 1 or -1 adds or subtracts)."""
        out = {}
        for name, rate, c, rest in self._sums:
            v = r[rate] if c == 1.0 else c * r[rate]
            for rate, c in rest:
                v = v - r[rate] if c == -1.0 else v + c * r[rate]
            out[name] = v
        return out


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


class _Column(list):
    """Rates at a list of points, with the pointwise arithmetic of ``TABLE``."""

    def __add__(self, other):
        return _Column([a + b for a, b in zip(self, other)])

    def __sub__(self, other):
        return _Column([a - b for a, b in zip(self, other)])

    def __rsub__(self, level):
        return _Column([level - a for a in self])

    def __rmul__(self, factor):
        return _Column([factor * a for a in self])


def gaussian(params: ChannelParams, name: str) -> tuple[Callable, dict]:
    """``TABLE[name]`` on the Gaussian channel ``params``: the branch, which
    maps a list of points to ``{term: values}``, and the rho-free rates it
    was given."""
    entry = TABLE[name]
    fixed = {"C1": params.c1, "C2": params.c2}
    # f3(0) by the public f3, a call the benchmark tracer sees in scenario 1
    if "f3(0)" in entry.uses:
        fixed["f3(0)"] = rf.f3(params, 0.0)
    at_rho = tuple(u for u in entry.uses if u not in fixed)

    def branch(rho):
        r = {u: _Column(values) for u, values in rf.rates(params, rho, at_rho).items()}
        terms = entry.terms({**r, **fixed})
        return {term: v if isinstance(v, list) else [v] * len(rho) for term, v in terms.items()}

    return branch, fixed
