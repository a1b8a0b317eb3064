"""Every converse branch and achievable scheme of the paper, written once.

``TABLE`` maps each name to an ``Entry``: the names of its terms in binding
order, each a weighted sum of rates written once in ``rate_functions.TERMS``.
A bound or rate is the minimum of the terms, maximized over the correlation
rho on an interval that the scenario modules set.  ``Entry.terms`` turns the
rates an entry reads, its ``uses``, into its terms by plain arithmetic that
applies alike to floats and to numpy arrays.  The rates are f1..f5 and the
``indicator`` (``rate_functions.link_indicator``: +inf where the strict link
conditions C1 > f6 and C2 > f7 of pdfpdfm2 hold, 0 where they fail) at rho,
the rho-free f3(0), and the link capacities C1, C2.  ``gaussian`` evaluates
an entry on the Gaussian channel by one loop over the points, compiled on
the entry's first solve from the text of the forms in ``rate_functions``
(``_loop``): per point it computes each rate once and appends each term, to
the bits of ``Entry.terms`` over ``rate_functions.rates``.
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

import functools
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


def gaussian(params: ChannelParams, name: str) -> tuple[Callable, dict]:
    """``TABLE[name]`` on the Gaussian channel ``params``: the branch, which
    maps a list of points to ``{term: values}``, and the rho-free rates it
    was given.  The branch is the entry's loop (``_loop``) bound to them."""
    entry = TABLE[name]
    fixed = {"C1": params.c1, "C2": params.c2}
    # f3(0) by the public f3, a call the benchmark tracer sees in scenario 1
    if "f3(0)" in entry.uses:
        fixed["f3(0)"] = rf.f3(params, 0.0)
    return _loop(name)(params, fixed, rf._atoms(params)), fixed


@functools.cache
def _loop(name: str) -> Callable:
    """The loop of ``TABLE[name]``, compiled from ``rate_functions._TEXT``
    on the entry's first solve: ``bind(p, fixed, atoms)`` returns a branch
    that checks its points as ``rate_functions.rates`` does, then at each
    point takes its atoms, each rate of rho the entry uses once, and appends
    each term as ``Entry.terms`` sums it, to the same bits."""
    entry = TABLE[name]
    at_rho = tuple(u for u in entry.uses if u in rf._TEXT)
    var = {u: u.replace("(0)", "_0") for u in entry.uses}  # f3(0) is no name
    sums = []
    for _, rate, c, rest in entry._sums:
        text = var[rate] if c == 1.0 else f"{c!r} * {var[rate]}"
        for rate, c in rest:
            text += f" - {var[rate]}" if c == -1.0 else f" + {c!r} * {var[rate]}"
        sums.append(text)
    lines = [
        "def bind(p, fixed, atoms):",
        *(f"    {var[u]} = fixed[{u!r}]" for u in entry.uses if u not in rf._TEXT),
        "    def branch(rho):",
        *(f"        t{i} = []" for i in range(len(sums))),
        f"        for q, s in map(atoms, points(rho, {at_rho!r})):",
        *(f"            {u} = {rf._TEXT[u]}" for u in at_rho),
        *(f"            t{i}.append({text})" for i, text in enumerate(sums)),
        "        return {" + ", ".join(f"{term!r}: t{i}" for i, term in enumerate(entry.names)) + "}",
        "    return branch",
    ]
    return rf._compiled("\n".join(lines) + "\n", f"<schemes:{name}>")["bind"]
