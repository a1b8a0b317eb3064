"""Secrecy-rate bounds when the source and both relays share the randomness.

The upper bound takes the smaller of two branch maxima,

    min( max(S1, S2), max(S3, S4) ),

where S1, S2 optimize the no-eavesdropper cut rates over the correlation and
S3, S4 add the leakage-corrected terms:

    S1 = max_{0 <= rho <= rho*}   min(f1, f2, f3, f4)
    S2 = max_{rho* <= rho <= 1}   min(f1, f2, f3(0), f4)
    S3 = max_{0 <= rho <= rho*}   min(f1, f2, f3(0), (f3+f4)/2, f4-f5)
    S4 = max_{rho* <= rho <= 1}   min(f1, f2, f3(0), f4-f5)

S1 and S2 have a monotone envelope: on rho >= 0, f4 rises while f1, f2 and
f3 fall and f3(0) is constant.  Their maximum therefore lies at an end of
the interval or where f4 first meets the others, and f4 = f1, f4 = f2 and
f4 = f3 are quadratics in rho (f4 = f3(0) is linear), so they are solved at
those crossings (``scalar_opt.maximize_crossing``).  On a plateau, where a
constant f3(0) binds, the reported rho is the first float where f4 reaches
it.  S3, S4 and PDF-M keep the grid search of ``maximize_min``: (f3+f4)/2 is
not monotone, and f4-f5 meets f1, f2 and f3(0) at roots of cubics.

Achievability comes from decode-and-forward (DF) and partial decode-and-
forward with multicoding (PDF-M); plain PDF is PDF-M pinned at rho = 0.
Every achievable rate requires the randomness budget to cover the leakage,
R' >= f5(rho).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from . import rate_functions as rf
from .errors import BudgetInfeasible, EmptyFeasibleSet
from .rate_functions import ChannelParams, RandomnessBudget, RateValue
from .scalar_opt import OptimizationResult, maximize_crossing, maximize_min

__all__ = [
    "BoundReport",
    "ScenarioOneBounds",
    "upper_bound",
    "df_rate",
    "pdf_rate",
    "pdf_m_rate",
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
    achieving correlation lies outside [-1, 1], which only the extended
    branch of the scenario-2 upper bound can produce.
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


def _branches(params: ChannelParams) -> dict:
    """S1..S4 and PDF-M, each as rho -> {term: values} in binding order."""
    f30 = rf.f3(params, 0.0)

    def s1(r):
        return rf.rates(params, r, ("f1", "f2", "f3", "f4"))

    def s2(r):
        a = rf.rates(params, r, ("f1", "f2", "f4"))
        return {"f1": a["f1"], "f2": a["f2"], "f3(0)": f30, "f4": a["f4"]}

    def s3(r):
        a = rf.rates(params, r, ("f1", "f2", "f3", "f4", "f5"))
        return {"f1": a["f1"], "f2": a["f2"], "f3(0)": f30,
                "(f3+f4)/2": 0.5 * (a["f3"] + a["f4"]), "f4-f5": a["f4"] - a["f5"]}

    def s4(r):
        a = rf.rates(params, r, ("f1", "f2", "f4", "f5"))
        return {"f1": a["f1"], "f2": a["f2"], "f3(0)": f30, "f4-f5": a["f4"] - a["f5"]}

    def pdfm(r):
        a = rf.rates(params, r, ("f1", "f2", "f3", "f4", "f5"))
        return {"f1": a["f1"], "f2": a["f2"], "f3": a["f3"], "f4-f5": a["f4"] - a["f5"]}

    return {"S1": s1, "S2": s2, "S3": s3, "S4": s4, "pdfm": pdfm}


def upper_bound(params: ChannelParams) -> BoundReport:
    """Converse bound on the scenario-1 secrecy capacity."""
    b = _branches(params)
    rs = rf.rho_star(params)

    def meets(*others):  # where f4 meets each other term
        return [rf.crossing(params, "f4", other) for other in others]

    s1 = maximize_crossing(b["S1"], 0.0, rs, "f4", meets("f1", "f2", "f3"))
    s2 = maximize_crossing(b["S2"], rs, 1.0, "f4", meets("f1", "f2", params.c1 + params.c2))  # f3(0) = C1 + C2
    s3 = maximize_min(b["S3"], 0.0, rs)
    s4 = maximize_min(b["S4"], rs, 1.0)

    left = ("S1", s1) if s1.value >= s2.value else ("S2", s2)
    right = ("S3", s3) if s3.value >= s4.value else ("S4", s4)
    branch, opt = left if left[1].value <= right[1].value else right
    return BoundReport(
        value=opt.value,
        rho=opt.rho,
        binding=opt.binding,
        raw_value=opt.value,
        branch=branch,
        sub_reports={"S1": s1, "S2": s2, "S3": s3, "S4": s4},
    )


def _require_budget(params: ChannelParams, budget: RandomnessBudget, rho: float) -> None:
    leak = rf.f5(params, rho)
    if leak > budget.r_prime:
        raise BudgetInfeasible(
            f"rho={rho} leaks f5={leak:.6g} bits/use, above the budget {budget.r_prime:.6g}"
        )


def df_rate(params: ChannelParams, budget: RandomnessBudget, rho: float) -> RateValue:
    """Decode-and-forward rate min(C1, C2, f4 - f5) at ``rho``, clamped at 0."""
    _require_budget(params, budget, rho)
    raw = min(params.c1, params.c2, rf.f4(params, rho) - rf.f5(params, rho))
    return max(0.0, raw)


def pdf_m_rate(params: ChannelParams, budget: RandomnessBudget, rho: float) -> RateValue:
    """Partial decode-and-forward with multicoding at ``rho``, clamped at 0."""
    _require_budget(params, budget, rho)
    raw = min(
        rf.f1(params, rho),
        rf.f2(params, rho),
        rf.f3(params, rho),
        rf.f4(params, rho) - rf.f5(params, rho),
    )
    return max(0.0, raw)


def pdf_rate(params: ChannelParams, budget: RandomnessBudget) -> RateValue:
    """Partial decode-and-forward without multicoding: PDF-M at rho = 0."""
    return pdf_m_rate(params, budget, 0.0)


def _binding_of(entries, raw: float) -> tuple[str, ...]:
    tol = 1e-9 * max(1.0, abs(raw))
    return tuple(n for n, v in entries if v <= raw + tol)


def _df_report(params: ChannelParams, budget: RandomnessBudget, rho_cap: float) -> BoundReport:
    # min(C1, C2, f4 - f5) is nondecreasing in rho, so the cap is optimal
    entries = (
        ("C1", params.c1),
        ("C2", params.c2),
        ("f4-f5", rf.f4(params, rho_cap) - rf.f5(params, rho_cap)),
    )
    raw = min(v for _, v in entries)
    return BoundReport(value=max(0.0, raw), rho=rho_cap, binding=_binding_of(entries, raw), raw_value=raw)


def _zero_report(note: str) -> BoundReport:
    return BoundReport(value=0.0, rho=0.0, binding=(), raw_value=0.0, note=note)


def _achievability(
    params: ChannelParams, budget: RandomnessBudget,
) -> tuple[BoundReport, BoundReport, BoundReport, float | None, str | None]:
    """(df, pdf, pdfm, rho_max, note); zeros with a note when no rho is feasible."""
    try:
        rho_max = rf.f5_inverse(params, budget)
    except EmptyFeasibleSet:
        note = "randomness budget below the minimum leakage f5(-1): no feasible correlation"
        zero = _zero_report(note)
        return zero, zero, zero, None, note

    df = _df_report(params, budget, rho_max)

    pdfm_terms = _branches(params)["pdfm"]
    # nonnegative correlations dominate for PDF-M, so search [0, rho_max]
    # unless the budget forces the whole feasible set below 0
    lo = 0.0 if rho_max >= 0.0 else rho_max
    opt = maximize_min(pdfm_terms, lo, rho_max)
    pdfm = BoundReport(value=max(0.0, opt.value), rho=opt.rho, binding=opt.binding, raw_value=opt.value)

    if rho_max >= 0.0:
        entries = tuple((name, float(v)) for name, v in pdfm_terms(0.0).items())
        raw_pdf = min(v for _, v in entries)
        pdf = BoundReport(
            value=max(0.0, raw_pdf), rho=0.0,
            binding=_binding_of(entries, raw_pdf), raw_value=raw_pdf,
        )
    else:
        pdf = _zero_report("rho = 0 violates the randomness budget")

    return df, pdf, pdfm, rho_max, None


def scheme_rates(params: ChannelParams, budget: RandomnessBudget) -> dict[str, float]:
    """Clamped rate of each achievability scheme, skipping the upper bound."""
    df, pdf, pdfm, _, _ = _achievability(params, budget)
    return {"df": df.value, "pdf": pdf.value, "pdfm": pdfm.value}


def bounds(params: ChannelParams, budget: RandomnessBudget) -> ScenarioOneBounds:
    """Upper bound plus the best achievable rate over all scenario-1 schemes.

    When no correlation satisfies the budget the lower bounds are reported
    as 0 with a diagnostic note rather than raising.
    """
    ub = upper_bound(params)
    df, pdf, pdfm, rho_max, note = _achievability(params, budget)
    lower = max(0.0, df.value, pdf.value, pdfm.value)
    return ScenarioOneBounds(
        upper=ub, lower_df=df, lower_pdf=pdf, lower_pdf_m=pdfm,
        lower=lower, rho_max=rho_max, note=note,
    )
