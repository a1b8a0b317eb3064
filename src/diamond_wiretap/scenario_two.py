"""Secrecy-rate bounds when only the source can randomize.

With deterministic relays the eavesdropper resolves the fictitious message,
so the leakage f5 is paid on top of every cut.  The upper bound is

    max(T1, T2, T3)

    T1 = max_{-rho_bar <= rho <= 0}  min(f1(0), f2(0), f3(0), f4(rho)) - f5(rho)
    T2 = max_{0 <= rho <= rho*}      min(f1, f2, f3, f4) - f5
    T3 = max_{rho* <= rho <= 1}      min(f1, f2, f3(0), f4) - f5

T1 has a closed form in s = P1 + P2 + 2*rho*sqrt(P1*P2) in [0, P1 + P2].
With m = min(f1(0), f2(0), f3(0)), f4 - f5 rises with s and m - f5 falls,
so T1 = f4(0) - f5(0) if f4(0) <= m, else m - f5(s*) at s* = 2^(2m) - 1,
where f4 = m (for g = 0, the plateau's left end); a rho below -1 is flagged.

Achievable schemes, each optimized over the budget-feasible correlations
[-1, rho_max]: decode-and-forward (DF), partial decode-and-forward where the
fictitious message rides only the source-relay links (PDF-DF-M), and partial
decode-and-forward with the fictitious message also multicoded onto the MAC
(PDF-PDF-M).  The last one requires each link to out-rate what the
eavesdropper learns about that relay's signal: C1 > f6(rho) and
C2 > f7(rho), both strict.  They hold on one interval of correlations,
which ``rate_functions.link_interval`` closes on adjacent floats; outside it
PDF-PDF-M is min(terms, 0).  That interval splits the solve of PDF-PDF-M
and gives ``indicator_satisfied`` at the optimum.  The terms of T2, T3 and
every scheme live in ``schemes.TABLE``, whose docstring also says how each
one is solved: every one at its crossings, PDF-DF-M and PDF-PDF-M split at
the peaks of their terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import rate_functions as rf
from .rate_functions import ChannelParams, RandomnessBudget, RateValue
from .scalar_opt import OptimizationResult, _binding_terms
from .scenario_one import _INFEASIBLE, BoundReport, _scheme_report, _zero_report, solve, solve_linked, upper_report

__all__ = [
    "ScenarioTwoBounds",
    "upper_bound",
    "scheme_rates",
    "bounds",
]


@dataclass(frozen=True)
class ScenarioTwoBounds:
    """Assembled scenario-2 picture: upper bound, per-scheme lower bounds."""

    upper: BoundReport
    lower_df: BoundReport
    lower_pdf_df_m: BoundReport
    lower_pdf_pdf_m: BoundReport
    lower: RateValue  # best achievable rate, clamped at 0
    rho_max: float | None
    indicator_satisfied: bool  # PDF-PDF-M link conditions at its achieving rho
    note: str | None = None


def _t1(params: ChannelParams) -> OptimizationResult:
    """T1 in closed form in s (see the module docstring)."""
    at_zero = rf.rates(params, 0.0, ("f1", "f2", "f3", "f4"))
    m = min(at_zero["f1"], at_zero["f2"], at_zero["f3"])
    base = params.p1 + params.p2
    # s* is where f4 reaches m; rounding can put it a few floats past s(0)
    s = min(math.expm1(2.0 * m * math.log(2.0)), base) if at_zero["f4"] > m else base
    f5 = rf._FORMS["f5"](params, math.nan, s)  # f5 reads s alone
    terms = {"f1(0)-f5": [at_zero["f1"] - f5], "f2(0)-f5": [at_zero["f2"] - f5],
             "f3(0)-f5": [at_zero["f3"] - f5], "f4-f5": [min(m, at_zero["f4"]) - f5]}
    value = min(values[0] for values in terms.values())
    rho = (s - base) / (2.0 * rf._k(params))
    return OptimizationResult(rho=rho, value=value, binding=_binding_terms(terms, 0, value))


def upper_bound(params: ChannelParams) -> BoundReport:
    """Converse bound on the scenario-2 secrecy capacity."""
    rs = rf.rho_star(params)
    subs = {"T1": _t1(params)}
    subs.update((name, solve(params, name, lo, hi)) for name, lo, hi in (("T2", 0.0, rs), ("T3", rs, 1.0)))
    # max() keeps the first of equal values, so ties resolve to the lowest index
    return upper_report(subs, max(subs, key=lambda name: subs[name].value))


def _achievability(
    params: ChannelParams, budget: RandomnessBudget,
) -> tuple[dict[str, BoundReport], float | None, bool]:
    """The report of each scheme, by its name in ``scheme_rates``, rho_max
    and indicator_ok; zeros with a note when no rho is feasible."""
    rho_max = rf.budget_cap(params, budget)
    if rho_max is None:
        return dict.fromkeys(("df", "pdfdfm", "pdfpdfm"), _zero_report(_INFEASIBLE)), None, False

    solved = {report: solve_linked(params, name, lo, hi) for report, name, lo, hi in (
        ("df", "df2", -1.0, rho_max), ("pdfdfm", "pdfdfm2", -1.0, rho_max), ("pdfpdfm", "pdfpdfm2", -1.0, rho_max))}
    opt, link = solved["pdfpdfm"]
    ind_ok = link is not None and link[0] <= opt.rho <= link[1]
    notes = {"pdfpdfm": None if ind_ok else "link conditions C1 > f6, C2 > f7 not met at the optimum"}
    return {report: _scheme_report(opt, notes.get(report)) for report, (opt, _) in solved.items()}, rho_max, ind_ok


def scheme_rates(params: ChannelParams, budget: RandomnessBudget) -> dict[str, float]:
    """Clamped rate of each achievability scheme, skipping the upper bound."""
    return {name: report.value for name, report in _achievability(params, budget)[0].items()}


def bounds(params: ChannelParams, budget: RandomnessBudget) -> ScenarioTwoBounds:
    """Upper bound plus the best achievable rate over all scenario-2 schemes.

    All schemes are optimized over the budget-feasible correlations
    [-1, rho_max].  An empty feasible set reports 0 with a diagnostic.
    """
    ub = upper_bound(params)
    lows, rho_max, ind_ok = _achievability(params, budget)
    lower = max(0.0, *(report.value for report in lows.values()))
    return ScenarioTwoBounds(
        upper=ub, lower_df=lows["df"], lower_pdf_df_m=lows["pdfdfm"], lower_pdf_pdf_m=lows["pdfpdfm"],
        lower=lower, rho_max=rho_max, indicator_satisfied=ind_ok, note=_INFEASIBLE if rho_max is None else None,
    )
