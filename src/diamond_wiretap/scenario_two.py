"""Secrecy-rate bounds when only the source can randomize.

With deterministic relays the eavesdropper resolves the fictitious message,
so the leakage f5 is paid on top of every cut.  The upper bound is

    max(T1, T2, T3)

    T1 = max_{-rho_bar <= rho <= 0}  min(f1(0), f2(0), f3(0), f4(rho)) - f5(rho)
    T2 = max_{0 <= rho <= rho*}      min(f1, f2, f3, f4) - f5
    T3 = max_{rho* <= rho <= 1}      min(f1, f2, f3(0), f4) - f5

T1 has a closed form in s = P1 + P2 + 2*rho*sqrt(P1*P2), which lies in
[0, P1 + P2] on T1's interval: s = 0 at -rho_bar = -(P1 + P2)/(2*sqrt(P1*P2)).
With m = min(f1(0), f2(0), f3(0)), f4 - f5 rises with s and m - f5 falls,
so T1 = f4(0) - f5(0) if f4(0) <= m, else m - f5(s*) at s* = 2^(2m) - 1,
where f4 = m (for g = 0, the plateau's left end); a rho below -1 is flagged.

The schemes of ``TABLE``, each optimized over the budget-feasible
correlations, are decode-and-forward (DF), partial decode-and-forward where
the fictitious message rides only the source-relay links (PDF-DF-M), and
partial decode-and-forward with the fictitious message also multicoded onto
the MAC (PDF-PDF-M).  The last one requires each link to out-rate what the
eavesdropper learns about that relay's signal: C1 > f6(rho) and
C2 > f7(rho), both strict.  They hold on one interval of correlations,
which ``rate_functions.link_interval`` closes on adjacent floats; outside it
PDF-PDF-M is min(terms, 0).  That interval splits the solve of PDF-PDF-M
and gives ``indicator_satisfied`` at the optimum.  ``scenario_one`` walks
``TABLE``; ``schemes.TABLE`` holds the terms and says how each is solved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import rate_functions as rf
from .rate_functions import ChannelParams, RandomnessBudget, RateValue
from .scalar_opt import OptimizationResult, _binding_terms
from .scenario_one import BoundReport, Table, lower, upper

__all__ = [
    "ScenarioTwoBounds",
    "TABLE",
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


TABLE = Table(
    converse=((("T1", None, None), ("T2", "0", "rho*"), ("T3", "rho*", "1")),),
    closed={"T1": _t1},
    schemes=(("df", "df2", "-1", "cap", "lower_df"),
             ("pdfdfm", "pdfdfm2", "-1", "cap", "lower_pdf_df_m"),
             ("pdfpdfm", "pdfpdfm2", "-1", "cap", "lower_pdf_pdf_m")),
)


def upper_bound(params: ChannelParams) -> BoundReport:
    """Converse bound on the scenario-2 secrecy capacity."""
    return upper(params, TABLE)


def scheme_rates(params: ChannelParams, budget: RandomnessBudget) -> dict[str, float]:
    """Clamped rate of each achievability scheme, skipping the upper bound."""
    lows = lower(params, budget, TABLE)
    return {report: lows[attr].value for report, *_, attr in TABLE.schemes}


def bounds(params: ChannelParams, budget: RandomnessBudget) -> ScenarioTwoBounds:
    """Upper bound plus the best achievable rate over the schemes of
    ``TABLE``; zeros with a note, not an error, where no rho fits the budget."""
    return ScenarioTwoBounds(upper=upper_bound(params), **lower(params, budget, TABLE))
