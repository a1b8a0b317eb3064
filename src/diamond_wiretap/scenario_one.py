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
R' >= f5(rho), which caps rho at rho_max.  DF is taken at the cap, PDF-M
over [0, rho_max] (at the cap alone when it is negative), and PDF only
where rho = 0 fits the budget.  The terms of every branch and scheme live
in ``schemes.TABLE``, whose docstring also says how each one is solved;
``solve`` is the one route from the table to an optimum, for both
scenarios, and ``solve_linked`` also returns the link interval it splits
PDF-PDF-M at.  ``scalar_opt.maximize_min`` solves every branch and scheme
at its crossings; a degenerate interval is one evaluation.  ``upper_report``
builds the upper bound of both scenarios from their branch optima.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

from . import rate_functions as rf
from . import schemes
from .rate_functions import ChannelParams, RandomnessBudget, RateValue
from .scalar_opt import OptimizationResult, maximize_min

__all__ = [
    "BoundReport",
    "ScenarioOneBounds",
    "solve",
    "solve_linked",
    "upper_report",
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


def solve(params: ChannelParams, name: str, lo: float, hi: float) -> OptimizationResult:
    """Maximize ``schemes.TABLE[name]`` on the Gaussian channel over [lo, hi],
    with the solver its structure fixes (see ``schemes``)."""
    return solve_linked(params, name, lo, hi)[0]


def solve_linked(
    params: ChannelParams, name: str, lo: float, hi: float,
) -> tuple[OptimizationResult, tuple[float, float] | None]:
    """``solve``, and for an entry with link conditions (``linked``) the
    first and last float of [lo, hi] where they hold
    (``rate_functions.link_interval``), None where they hold at none and for
    every other entry.  The indicator is constant between the floats either
    side of each end, so those floats split the solve."""
    branch, fixed = schemes.gaussian(params, name)
    entry = schemes.TABLE[name]
    link = rf.link_interval(params, lo, hi) if entry.linked else None
    peaks = {term: rf.peak(params, term) for term in entry.rising}
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
    ``other`` (a rho-free term, less f5 or not, falls everywhere) to that of
    ``up``, read from the solve's ``peaks`` where they hold them."""
    if other in levels or other[:-3] in levels:
        lo = -1.0
    else:
        lo = max(-1.0, peaks[other] if other in peaks else rf.peak(params, other))
    hi = min(1.0, peaks[up])
    if up.endswith("-f5") and other.endswith("-f5"):
        up, other = up[:-3], other[:-3]
    return rf.crossing(params, up, levels.get(other, other), lo, hi)


def _scheme_report(opt: OptimizationResult, note: str | None = None) -> BoundReport:
    """An achievable rate: the optimum of a scheme, clamped at 0."""
    return BoundReport(value=max(0.0, opt.value), rho=opt.rho, binding=opt.binding, raw_value=opt.value, note=note)


_INFEASIBLE = "randomness budget below the minimum leakage f5(-1): no feasible correlation"


def _zero_report(note: str) -> BoundReport:
    return BoundReport(value=0.0, rho=0.0, binding=(), raw_value=0.0, note=note)


def upper_report(sub_reports: dict[str, OptimizationResult], branch: str) -> BoundReport:
    """The upper bound of either scenario: the optimum of ``branch`` among
    the branch optima ``sub_reports``."""
    opt = sub_reports[branch]
    return BoundReport(value=opt.value, rho=opt.rho, binding=opt.binding, raw_value=opt.value,
                       branch=branch, sub_reports=sub_reports, rho_in_unit_interval=opt.rho >= -1.0)


def upper_bound(params: ChannelParams) -> BoundReport:
    """Converse bound on the scenario-1 secrecy capacity."""
    rs = rf.rho_star(params)
    subs = {name: solve(params, name, lo, hi)
            for name, lo, hi in (("S1", 0.0, rs), ("S2", rs, 1.0), ("S3", 0.0, rs), ("S4", rs, 1.0))}
    v = {name: opt.value for name, opt in subs.items()}
    left = "S1" if v["S1"] >= v["S2"] else "S2"
    right = "S3" if v["S3"] >= v["S4"] else "S4"
    return upper_report(subs, left if v[left] <= v[right] else right)


def _achievability(
    params: ChannelParams, budget: RandomnessBudget,
) -> tuple[dict[str, BoundReport], float | None]:
    """The report of each scheme, by its name in ``scheme_rates``, and
    rho_max; zeros with a note when no rho is feasible."""
    rho_max = rf.budget_cap(params, budget)
    if rho_max is None:
        return dict.fromkeys(("df", "pdf", "pdfm"), _zero_report(_INFEASIBLE)), None
    lows = dict.fromkeys(("df", "pdf", "pdfm"), _zero_report("rho = 0 violates the randomness budget"))
    # DF at the cap: min(C1, C2, f4 - f5) is nondecreasing in rho.  PDF-M on
    # [0, rho_max], where nonnegative correlations dominate, unless the budget
    # forces the whole feasible set below 0.  PDF is PDF-M at rho = 0.  Each
    # is solved where its interval fits the budget; only PDF's can miss it.
    lows.update((report, _scheme_report(solve(params, name, lo, hi)))
                for report, name, lo, hi in (("df", "df1", rho_max, rho_max),
                                             ("pdfm", "pdfm1", min(0.0, rho_max), rho_max),
                                             ("pdf", "pdfm1", 0.0, 0.0)) if hi <= rho_max)
    return lows, rho_max


def scheme_rates(params: ChannelParams, budget: RandomnessBudget) -> dict[str, float]:
    """Clamped rate of each achievability scheme, skipping the upper bound."""
    return {name: report.value for name, report in _achievability(params, budget)[0].items()}


def bounds(params: ChannelParams, budget: RandomnessBudget) -> ScenarioOneBounds:
    """Upper bound plus the best achievable rate over all scenario-1 schemes.

    When no correlation satisfies the budget the lower bounds are reported
    as 0 with a diagnostic note rather than raising.
    """
    ub = upper_bound(params)
    lows, rho_max = _achievability(params, budget)
    lower = max(0.0, *(report.value for report in lows.values()))
    return ScenarioOneBounds(
        upper=ub, lower_df=lows["df"], lower_pdf=lows["pdf"], lower_pdf_m=lows["pdfm"],
        lower=lower, rho_max=rho_max, note=_INFEASIBLE if rho_max is None else None,
    )
