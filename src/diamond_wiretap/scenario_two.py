"""Secrecy-rate bounds when only the source can randomize.

With deterministic relays the eavesdropper resolves the fictitious message,
so the leakage f5 is paid on top of every cut.  The upper bound is

    max(T1, T2, T3)

    T1 = max_{-rho_bar <= rho <= 0}  min(f1(0), f2(0), f3(0), f4(rho)) - f5(rho)
    T2 = max_{0 <= rho <= rho*}      min(f1, f2, f3, f4) - f5
    T3 = max_{rho* <= rho <= 1}      min(f1, f2, f3(0), f4) - f5

T1's interval reaches down to -rho_bar, which lies below -1 for unequal
powers; the report flags an achieving correlation outside [-1, 1].

T1, T2, T3 and the DF scheme have a monotone envelope: f4 - f5 rises with
rho (g < 1), while f1 - f5, f2 - f5 and f3 - f5 fall for rho >= 0 and each
constant less f5 falls everywhere.  Their maximum therefore lies at an end
of the interval or where f4 - f5 first meets the others.  The common -f5
cancels there, so each meeting point solves f4 = f1, f4 = f2 or f4 = f3 (a
quadratic in rho) or f4 = constant (linear), and these branches are solved
at those crossings (``scalar_opt.maximize_crossing``).  On a plateau, for
instance T1 with g = 0, the reported rho is the first float where f4 - f5
reaches the others.  PDF-DF-M and PDF-PDF-M keep the grid search of
``maximize_min``: on [-1, 0] f1 - f5 is not monotone, and PDF-PDF-M carries
the link-condition indicator.

Achievable schemes: decode-and-forward (DF), partial decode-and-forward
where the fictitious message rides only the source-relay links (PDF-DF-M),
and partial decode-and-forward with the fictitious message also multicoded
onto the MAC (PDF-PDF-M).  The last one requires each link to out-rate what
the eavesdropper learns about that relay's signal: C1 > f6(rho) and
C2 > f7(rho), both strict.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rate_functions as rf
from .errors import BudgetInfeasible, EmptyFeasibleSet
from .rate_functions import ChannelParams, RandomnessBudget, RateValue
from .scalar_opt import maximize_crossing, maximize_min
from .scenario_one import BoundReport

__all__ = [
    "ScenarioTwoBounds",
    "upper_bound",
    "df_rate",
    "pdf_df_m_rate",
    "pdf_pdf_m_rate",
    "multicoding_feasible",
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


def _net_of_leakage(cuts: dict, f5) -> dict:
    """Each cut rate less the leakage f5, named ``<cut>-f5``."""
    return {f"{name}-f5": v - f5 for name, v in cuts.items()}


def upper_bound(params: ChannelParams) -> BoundReport:
    """Converse bound on the scenario-2 secrecy capacity."""
    f10 = rf.f1(params, 0.0)
    f20 = rf.f2(params, 0.0)
    f30 = rf.f3(params, 0.0)

    def t1_terms(r):
        a = rf.rates(params, r, ("f4", "f5"))
        return _net_of_leakage({"f1(0)": f10, "f2(0)": f20, "f3(0)": f30, "f4": a["f4"]}, a["f5"])

    def t2_terms(r):
        a = rf.rates(params, r, ("f1", "f2", "f3", "f4", "f5"))
        f5 = a.pop("f5")
        return _net_of_leakage(a, f5)

    def t3_terms(r):
        a = rf.rates(params, r, ("f1", "f2", "f4", "f5"))
        return _net_of_leakage({"f1": a["f1"], "f2": a["f2"], "f3(0)": f30, "f4": a["f4"]}, a["f5"])

    def meets(*others):  # where f4 meets each other term; -f5 cancels
        return [rf.crossing(params, "f4", other) for other in others]

    rs = rf.rho_star(params)
    t1 = maximize_crossing(t1_terms, -rf.rho_bar(params), 0.0, "f4-f5", meets(f10, f20, f30))
    t2 = maximize_crossing(t2_terms, 0.0, rs, "f4-f5", meets("f1", "f2", "f3"))
    t3 = maximize_crossing(t3_terms, rs, 1.0, "f4-f5", meets("f1", "f2", f30))

    branch, opt = max(
        (("T1", t1), ("T2", t2), ("T3", t3)),
        key=lambda item: item[1].value,
    )
    # max() keeps the first of equal values, so ties resolve to the lowest index
    return BoundReport(
        value=opt.value,
        rho=opt.rho,
        binding=opt.binding,
        raw_value=opt.value,
        branch=branch,
        sub_reports={"T1": t1, "T2": t2, "T3": t3},
        rho_in_unit_interval=opt.rho >= -1.0,
    )


def _require_budget(params: ChannelParams, budget: RandomnessBudget, rho: float) -> None:
    leak = rf.f5(params, rho)
    if leak > budget.r_prime:
        raise BudgetInfeasible(
            f"rho={rho} leaks f5={leak:.6g} bits/use, above the budget {budget.r_prime:.6g}"
        )


def df_rate(params: ChannelParams, budget: RandomnessBudget, rho: float) -> RateValue:
    """Decode-and-forward rate min(C1, C2, f4) - f5 at ``rho``, clamped at 0."""
    _require_budget(params, budget, rho)
    raw = min(params.c1, params.c2, rf.f4(params, rho)) - rf.f5(params, rho)
    return max(0.0, raw)


def pdf_df_m_rate(params: ChannelParams, budget: RandomnessBudget, rho: float) -> RateValue:
    """PDF with the fictitious message on the links only, clamped at 0."""
    _require_budget(params, budget, rho)
    f5v = rf.f5(params, rho)
    raw = min(
        rf.f1(params, rho),
        rf.f2(params, rho),
        rf.f3(params, rho) - f5v,
        rf.f4(params, rho),
    ) - f5v
    return max(0.0, raw)


def multicoding_feasible(params: ChannelParams, rho) -> bool:
    """Strict link conditions C1 > f6(rho) and C2 > f7(rho) for PDF-PDF-M."""
    ok = (params.c1 > rf.f6(params, rho)) & (params.c2 > rf.f7(params, rho))
    return bool(ok) if np.ndim(rho) == 0 else ok


def pdf_pdf_m_rate(params: ChannelParams, budget: RandomnessBudget, rho: float) -> RateValue:
    """PDF with the fictitious message multicoded onto the MAC, clamped at 0.

    The rate is 0 whenever either strict link condition fails; no tolerance
    is applied to the comparison.
    """
    _require_budget(params, budget, rho)
    if not multicoding_feasible(params, rho):
        return 0.0
    raw = min(
        rf.f1(params, rho),
        rf.f2(params, rho),
        rf.f3(params, rho),
        rf.f4(params, rho),
    ) - rf.f5(params, rho)
    return max(0.0, raw)


def _scheme_report(opt, feasible_note: str | None = None) -> BoundReport:
    return BoundReport(
        value=max(0.0, opt.value), rho=opt.rho, binding=opt.binding,
        raw_value=opt.value, note=feasible_note,
    )


def _achievability(
    params: ChannelParams, budget: RandomnessBudget,
) -> tuple[BoundReport, BoundReport, BoundReport, float | None, bool, str | None]:
    """(df, pdfdfm, pdfpdfm, rho_max, indicator_ok, note)."""
    try:
        rho_max = rf.f5_inverse(params, budget)
    except EmptyFeasibleSet:
        note = "randomness budget below the minimum leakage f5(-1): no feasible correlation"
        zero = BoundReport(value=0.0, rho=0.0, binding=(), raw_value=0.0, note=note)
        return zero, zero, zero, None, False, note

    def df_terms(r):
        a = rf.rates(params, r, ("f4", "f5"))
        return _net_of_leakage({"C1": params.c1, "C2": params.c2, "f4": a["f4"]}, a["f5"])

    def pdfdfm_terms(r):
        a = rf.rates(params, r, ("f1", "f2", "f3", "f4", "f5"))
        f5 = a["f5"]
        return {"f1-f5": a["f1"] - f5, "f2-f5": a["f2"] - f5,
                "f3-2f5": a["f3"] - 2.0 * f5, "f4-f5": a["f4"] - f5}

    def pdfpdfm_terms(r):
        a = rf.rates(params, r, ("f1", "f2", "f3", "f4", "f5", "f6", "f7"))
        on = (params.c1 > a.pop("f6")) & (params.c2 > a.pop("f7"))
        f5 = a.pop("f5")
        return {**_net_of_leakage(a, f5), "indicator": np.where(on, np.inf, 0.0)}

    df_seeds = [rf.crossing(params, "f4", c) for c in (params.c1, params.c2)]
    df = _scheme_report(maximize_crossing(df_terms, -1.0, rho_max, "f4-f5", df_seeds))
    pdfdfm = _scheme_report(maximize_min(pdfdfm_terms, -1.0, rho_max))
    pdfpdfm_opt = maximize_min(pdfpdfm_terms, -1.0, rho_max)
    ind_ok = multicoding_feasible(params, pdfpdfm_opt.rho)
    pdfpdfm = _scheme_report(
        pdfpdfm_opt,
        None if ind_ok else "link conditions C1 > f6, C2 > f7 not met at the optimum",
    )

    return df, pdfdfm, pdfpdfm, rho_max, bool(ind_ok), None


def scheme_rates(params: ChannelParams, budget: RandomnessBudget) -> dict[str, float]:
    """Clamped rate of each achievability scheme, skipping the upper bound."""
    df, pdfdfm, pdfpdfm, _, _, _ = _achievability(params, budget)
    return {"df": df.value, "pdfdfm": pdfdfm.value, "pdfpdfm": pdfpdfm.value}


def bounds(params: ChannelParams, budget: RandomnessBudget) -> ScenarioTwoBounds:
    """Upper bound plus the best achievable rate over all scenario-2 schemes.

    All schemes are optimized over the budget-feasible correlations
    [-1, rho_max].  An empty feasible set reports 0 with a diagnostic.
    """
    ub = upper_bound(params)
    df, pdfdfm, pdfpdfm, rho_max, ind_ok, note = _achievability(params, budget)
    lower = max(0.0, df.value, pdfdfm.value, pdfpdfm.value)
    return ScenarioTwoBounds(
        upper=ub, lower_df=df, lower_pdf_df_m=pdfdfm, lower_pdf_pdf_m=pdfpdfm,
        lower=lower, rho_max=rho_max, indicator_satisfied=ind_ok, note=note,
    )
