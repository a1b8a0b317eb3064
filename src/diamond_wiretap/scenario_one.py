"""Secrecy-rate bounds when the source and both relays share the randomness.

The upper bound takes the smaller of two branch maxima,

    min( max(S1, S2), max(S3, S4) ),

where S1, S2 optimize the no-eavesdropper cut rates over the correlation and
S3, S4 add the leakage-corrected terms:

    S1 = max_{0 <= rho <= rho*}   min(f1, f2, f3, f4)
    S2 = max_{rho* <= rho <= 1}   min(f1, f2, f3(0), f4)
    S3 = max_{0 <= rho <= rho*}   min(f1, f2, f3(0), (f3+f4)/2, f4-f5)
    S4 = max_{rho* <= rho <= 1}   min(f1, f2, f3(0), f4-f5)

(f3+f4)/2 peaks at rho_h inside (0, rho*), where the solver splits S3.

Achievability comes from decode-and-forward (DF) and partial decode-and-
forward with multicoding (PDF-M); plain PDF is PDF-M pinned at rho = 0.
Every achievable rate requires the randomness budget to cover the leakage,
R' >= f5(rho), which caps rho at rho_max.

``TABLE`` writes this scenario once, and ``upper`` and ``lower`` walk it
and ``scenario_two.TABLE`` alike.  The terms of every branch and scheme live
in ``schemes.TABLE``, whose docstring says how ``solve``, the one route from
a table to an optimum, solves each; it also returns the link interval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping

from . import rate_functions as rf
from . import schemes
from .rate_functions import ChannelParams, RandomnessBudget, RateValue
from .scalar_opt import OptimizationResult, maximize_min

__all__ = [
    "BoundReport",
    "ScenarioOneBounds",
    "Table",
    "TABLE",
    "solve",
    "upper",
    "lower",
    "upper_bound",
    "scheme_rates",
    "bounds",
]


@dataclass(frozen=True)
class BoundReport:
    """A single bound: headline value, achieving correlation, binding terms.

    ``raw_value`` keeps the pre-clamp formula value for lower bounds (it can
    be negative or -inf); ``value`` is the reported rate.  ``branch`` and
    ``sub_reports`` are populated for upper bounds assembled from several
    optimization branches.  ``rho_in_unit_interval`` is False when the
    achieving correlation lies outside [-1, 1], which only the closed form
    of T1 in the scenario-2 upper bound can produce.
    """

    value: RateValue
    rho: float
    binding: tuple[str, ...]
    raw_value: RateValue
    branch: str | None = None
    sub_reports: Mapping[str, OptimizationResult] = field(default_factory=dict)
    rho_in_unit_interval: bool = True
    note: str | None = None


@dataclass(frozen=True)
class ScenarioOneBounds:
    """Assembled scenario-1 picture: upper bound, per-scheme lower bounds."""

    upper: BoundReport
    lower_df: BoundReport
    lower_pdf: BoundReport
    lower_pdf_m: BoundReport
    lower: RateValue  # best achievable rate, clamped at 0
    rho_max: float | None  # budget-feasible correlation cap, None if no rho is feasible
    note: str | None = None


def solve(
    params: ChannelParams, name: str, lo: float, hi: float,
) -> tuple[OptimizationResult, tuple[float, float] | None]:
    """Maximize ``schemes.TABLE[name]`` on the Gaussian channel over [lo, hi],
    with the solver its structure fixes (see ``schemes``); and for an entry
    with link conditions (``linked``) the first and last float of [lo, hi]
    where they hold (``rate_functions.link_interval``), None where they hold
    at none and for every other entry.  The indicator is constant between the
    floats either side of each end, so those floats split the solve."""
    branch, fixed = schemes.gaussian(params, name)
    entry = schemes.TABLE[name]
    link = rf.link_interval(params, lo, hi) if entry.linked else None
    peaks = {term: rf.peak(params, term) for term in entry.names}
    edges = () if link is None else (
        math.nextafter(link[0], -math.inf), link[0], link[1], math.nextafter(link[1], math.inf))
    ends = [lo, *(x for x in edges if lo < x < hi), hi]

    def seed(a, b, rising, others):
        levels = dict(fixed)
        inside = link is not None and link[0] <= a and b <= link[1]
        levels["indicator"] = math.inf if inside else 0.0
        # each rising term first reaches the others where it meets the
        # first of them, and their minimum where the last of them does
        return max(min(_meeting(params, levels, peaks, up, other) for other in others) for up in rising)

    return maximize_min(branch, ends, peaks, seed), link


def _meeting(params: ChannelParams, levels: Mapping, peaks: Mapping, up: str, other: str) -> float:
    """Where the rising term ``up`` meets the term ``other``, by
    ``rate_functions.crossing``: a rho-free term by its value, any other by
    name, and the leakage f5 that both terms may subtract cancels.  The
    bracket of the Newton steps is where up - other rises: from the peak of
    ``other`` to that of ``up``, both read from the solve's ``peaks``."""
    lo, hi = max(-1.0, peaks[other]), min(1.0, peaks[up])
    if up.endswith("-f5") and other.endswith("-f5"):
        up, other = up[:-3], other[:-3]
    return rf.crossing(params, up, levels.get(other, other), lo, hi)


@dataclass(frozen=True)
class Table:
    """One scenario, for ``upper`` and ``lower`` to walk.  ``converse``:
    groups of (entry, lo, hi), a ``schemes.TABLE`` entry on [lo, hi] with ends
    among "0", "rho*" and "1", or the closed form ``closed[entry]`` where the
    ends are None; the upper bound is the least group best, the first of
    equal values winning both ways.  ``schemes``: (report, entry, lo, hi,
    field), the key in ``scheme_rates``, the entry on [lo, hi] with ends among
    "-1", "0", "cap" (rho_max) and "min(0, cap)", solved where ``hi`` fits the
    cap, and its field of the bounds; the last entry is the multicoded scheme,
    which ``detect_thresholds`` compares with the others by default.
    ``linked``: a scheme reads the link indicator, and the bounds report
    ``indicator_satisfied``."""

    converse: tuple[tuple[tuple[str, str | None, str | None], ...], ...]
    closed: Mapping[str, Callable[[ChannelParams], OptimizationResult]]
    schemes: tuple[tuple[str, str, str, str, str], ...]
    linked: bool = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "linked", any(schemes.TABLE[entry].linked for _, entry, *_ in self.schemes))


TABLE = Table(
    converse=((("S1", "0", "rho*"), ("S2", "rho*", "1")), (("S3", "0", "rho*"), ("S4", "rho*", "1"))),
    closed={},
    # DF at the cap, as min(C1, C2, f4 - f5) is nondecreasing in rho; PDF is
    # PDF-M at rho = 0, which the budget may exclude; PDF-M where nonnegative
    # correlations dominate, or at the cap when the budget keeps it below 0
    schemes=(("df", "df1", "cap", "cap", "lower_df"),
             ("pdf", "pdfm1", "0", "0", "lower_pdf"),
             ("pdfm", "pdfm1", "min(0, cap)", "cap", "lower_pdf_m")),
)

_INFEASIBLE = "randomness budget below the minimum leakage f5(-1): no feasible correlation"


def upper(params: ChannelParams, table: Table) -> BoundReport:
    """The upper bound of ``table``'s scenario, every branch in ``sub_reports``."""
    at = {"0": 0.0, "rho*": rf.rho_star(params), "1": 1.0}
    subs = {name: table.closed[name](params) if lo is None else solve(params, name, at[lo], at[hi])[0]
            for group in table.converse for name, lo, hi in group}
    value = {name: opt.value for name, opt in subs.items()}
    # max() and min() keep the first of equal values
    branch = min((max((name for name, _, _ in group), key=value.get) for group in table.converse), key=value.get)
    opt = subs[branch]
    return BoundReport(value=opt.value, rho=opt.rho, binding=opt.binding, raw_value=opt.value,
                       branch=branch, sub_reports=subs, rho_in_unit_interval=opt.rho >= -1.0)


def lower(params: ChannelParams, budget: RandomnessBudget, table: Table) -> dict:
    """The fields of ``table``'s bounds but the upper: each scheme's optimum
    clamped at 0, ``lower``, ``rho_max``, the note and, if linked,
    ``indicator_satisfied``; zeros with a note where no rho fits the budget."""
    rho_max = rf.f5_inverse(params, budget)
    at = {} if rho_max is None else {"-1": -1.0, "0": 0.0, "cap": rho_max, "min(0, cap)": min(0.0, rho_max)}
    out = {"indicator_satisfied": False} if table.linked else {}
    for _, name, lo, hi, attr in table.schemes:
        if rho_max is None or at[hi] > rho_max:
            note = _INFEASIBLE if rho_max is None else f"rho = {hi} violates the randomness budget"
            out[attr] = BoundReport(value=0.0, rho=0.0, binding=(), raw_value=0.0, note=note)
            continue
        opt, link = solve(params, name, at[lo], at[hi])
        note = None
        if schemes.TABLE[name].linked:
            out["indicator_satisfied"] = link is not None and link[0] <= opt.rho <= link[1]
            note = None if out["indicator_satisfied"] else "link conditions C1 > f6, C2 > f7 not met at the optimum"
        out[attr] = BoundReport(value=max(0.0, opt.value), rho=opt.rho, binding=opt.binding, raw_value=opt.value,
                                 note=note)
    out.update(lower=max(0.0, *(out[attr].value for *_, attr in table.schemes)), rho_max=rho_max,
               note=_INFEASIBLE if rho_max is None else None)
    return out


def upper_bound(params: ChannelParams) -> BoundReport:
    """Converse bound on the scenario-1 secrecy capacity."""
    return upper(params, TABLE)


def scheme_rates(params: ChannelParams, budget: RandomnessBudget) -> dict[str, float]:
    """Clamped rate of each achievability scheme, skipping the upper bound."""
    lows = lower(params, budget, TABLE)
    return {report: lows[attr].value for report, *_, attr in TABLE.schemes}


def bounds(params: ChannelParams, budget: RandomnessBudget) -> ScenarioOneBounds:
    """Upper bound plus the best achievable rate over the schemes of
    ``TABLE``; zeros with a note, not an error, where no rho fits the budget."""
    return ScenarioOneBounds(upper=upper_bound(params), **lower(params, budget, TABLE))
