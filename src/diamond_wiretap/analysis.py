"""Higher-level analyses on top of the scenario bounds.

* ``capacity_condition``: certifies the parameter window where the scenario-2
  bounds coincide, yielding the exact secrecy capacity.
* ``pdf_gap_vs_power``: gap between the scenario-1 upper bound and the plain
  PDF rate along a power grid; the gap vanishes as the power grows.
* ``detect_thresholds``: locates the link capacities where one achievable
  scheme starts or stops beating another.
* ``no_secrecy_compare``: the same bounds with the eavesdropper removed
  (g = 0), as a reference point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

from . import scenario_one, scenario_two
from . import rate_functions as rf
from .errors import AsymmetricParams
from .rate_functions import ChannelParams, RandomnessBudget
from .scenario_one import ScenarioOneBounds
from .scenario_two import ScenarioTwoBounds

__all__ = [
    "CapacityVerdict",
    "capacity_condition",
    "PdfGapRow",
    "PdfGapReport",
    "pdf_gap_vs_power",
    "Crossing",
    "ThresholdReport",
    "detect_thresholds",
    "NoSecrecyComparison",
    "no_secrecy_compare",
    "SCENARIO_ONE_SCHEMES",
    "SCENARIO_TWO_SCHEMES",
]


@dataclass(frozen=True)
class CapacityVerdict:
    """Outcome of the coincidence check for symmetric parameters.

    ``auxiliary`` records which of the two sufficient side inequalities held
    at rho*: "f1" (the relay-link cut), "f3(0)" (the uncorrelated both-links
    cut), "both", or "none".  ``capacity`` and ``rho_prime`` are populated
    only when ``applies`` is True.
    """

    applies: bool
    capacity: float | None
    rho_prime: float | None
    condition_lower: float
    condition_upper: float
    auxiliary: str
    upper_value: float
    lower_value: float
    note: str | None = None


def capacity_condition(params: ChannelParams, tol: float = 1e-6) -> CapacityVerdict:
    """Check whether the scenario-2 bounds meet, and if so return the capacity.

    Requires symmetric parameters (P1 = P2, C1 = C2) and assumes an
    unbounded randomness budget.  The link capacity must lie in

        (1/4)*log2(1 + 2P)  <=  C  <=  (1/4)*log2(1 + 2(1+rho*)P) + (1/4)*log2(1/(1 - rho*^2))

    which is exactly when f3 - f4 changes sign on [0, rho*]; the crossing
    rho' then gives the candidate capacity f3(rho') - f5(rho').  One of two
    auxiliary inequalities must additionally hold.  The verdict re-computes
    both scenario-2 bounds and only claims ``applies`` when they agree with
    the candidate within ``tol``.
    """
    if not params.is_symmetric:
        raise AsymmetricParams(
            f"capacity condition needs p1 == p2 and c1 == c2, got {params}"
        )
    p, c, g = params.p1, params.c1, params.g
    rs = rf.rho_star(params)
    cond_lower = 0.25 * math.log2(1.0 + 2.0 * p)
    cond_upper = 0.25 * math.log2(1.0 + 2.0 * (1.0 + rs) * p) + 0.25 * math.log2(1.0 / (1.0 - rs * rs))

    b2 = scenario_two.bounds(params, RandomnessBudget.unbounded())
    ub, lb = b2.upper.value, b2.lower

    if not cond_lower <= c <= cond_upper:
        return CapacityVerdict(
            applies=False, capacity=None, rho_prime=None,
            condition_lower=cond_lower, condition_upper=cond_upper,
            auxiliary="none", upper_value=ub, lower_value=lb,
            note=f"link capacity {c:.6g} outside [{cond_lower:.6g}, {cond_upper:.6g}]",
        )

    rho_p = rf.crossing(params, "f4", "f3")
    if not 0.0 <= rho_p <= rs:
        # only reachable through round-off at the window edge
        return CapacityVerdict(
            applies=False, capacity=None, rho_prime=None,
            condition_lower=cond_lower, condition_upper=cond_upper,
            auxiliary="none", upper_value=ub, lower_value=lb,
            note="f3 - f4 did not change sign despite the window condition",
        )
    candidate = rf.f3(params, rho_p) - rf.f5(params, rho_p)

    aux1 = rf.f1(params, rs) - rf.f5(params, rs) <= candidate
    aux2 = rf.f3(params, 0.0) - rf.f5(params, rs) <= candidate
    auxiliary = {(True, True): "both", (True, False): "f1", (False, True): "f3(0)", (False, False): "none"}[(aux1, aux2)]
    if not (aux1 or aux2):
        return CapacityVerdict(
            applies=False, capacity=None, rho_prime=None,
            condition_lower=cond_lower, condition_upper=cond_upper,
            auxiliary=auxiliary, upper_value=ub, lower_value=lb,
            note="neither auxiliary inequality holds",
        )

    coincide = abs(ub - candidate) <= tol and abs(lb - candidate) <= tol
    if not coincide:
        return CapacityVerdict(
            applies=False, capacity=None, rho_prime=None,
            condition_lower=cond_lower, condition_upper=cond_upper,
            auxiliary=auxiliary, upper_value=ub, lower_value=lb,
            note=f"bounds failed to meet the candidate {candidate:.9g} within {tol:g}",
        )
    return CapacityVerdict(
        applies=True, capacity=candidate, rho_prime=rho_p,
        condition_lower=cond_lower, condition_upper=cond_upper,
        auxiliary=auxiliary, upper_value=ub, lower_value=lb,
    )


@dataclass(frozen=True)
class PdfGapRow:
    power: float
    upper: float
    pdf: float
    gap: float
    mac_term: float  # f4(0) - f5(0) at this power


@dataclass(frozen=True)
class PdfGapReport:
    rows: tuple[PdfGapRow, ...]
    mac_limit: float  # large-power limit of f4(0) - f5(0): 0.5*log2(1/g)


def pdf_gap_vs_power(
    g: float,
    c1: float,
    c2: float,
    powers: Sequence[float],
) -> PdfGapReport:
    """Scenario-1 upper bound minus the plain PDF rate over a power sweep.

    Uses symmetric powers P1 = P2 = P and an unbounded budget.  The MAC term
    f4(0) - f5(0) increases to 0.5*log2(1/g), and the gap shrinks to 0.
    """
    rows = []
    for p in powers:
        params = ChannelParams(p1=p, p2=p, c1=c1, c2=c2, g=g)
        ub = scenario_one.upper_bound(params).value
        pdf = max(0.0, scenario_one.solve(params, "pdfm1", 0.0, 0.0).value)
        mac = rf.f4(params, 0.0) - rf.f5(params, 0.0)
        rows.append(PdfGapRow(power=float(p), upper=ub, pdf=pdf, gap=ub - pdf, mac_term=mac))
    limit = math.inf if g == 0.0 else 0.5 * math.log2(1.0 / g)
    return PdfGapReport(rows=tuple(rows), mac_limit=limit)


SCENARIO_ONE_SCHEMES = ("df", "pdf", "pdfm")
SCENARIO_TWO_SCHEMES = ("df", "pdfdfm", "pdfpdfm")


@dataclass(frozen=True)
class Crossing:
    c: float
    schemes: tuple[str, ...]  # schemes tying at the crossing


@dataclass(frozen=True)
class ThresholdReport:
    scenario: int
    schemes_a: tuple[str, ...]
    schemes_b: tuple[str, ...]
    crossings: tuple[Crossing, ...]
    c_min: float
    c_max: float
    steps: int


def _scheme_values(scenario: int, params: ChannelParams, budget: RandomnessBudget) -> dict[str, float]:
    module = scenario_one if scenario == 1 else scenario_two
    return module.scheme_rates(params, budget)


def detect_thresholds(
    p: float,
    g: float,
    scenario: int,
    schemes_a: Sequence[str] | None = None,
    schemes_b: Sequence[str] | None = None,
    budget: RandomnessBudget | None = None,
    c_min: float = 0.0,
    c_max: float = 3.0,
    steps: int = 121,
    tol: float = 1e-4,
) -> ThresholdReport:
    """Find the link capacities where scheme group A starts/stops beating group B.

    Symmetric parameters P1 = P2 = p, C1 = C2 = C with C swept over
    [c_min, c_max].  The advantage function is

        max over A of the best scheme rate  -  max over B of the best rate,

    and a crossing is a boundary of the strict-advantage region, bracketed on
    the coarse grid and bisected to |dC| <= tol.  Each crossing lists the
    schemes within 1e-6 of the common best value there.  Defaults compare the
    multicoded PDF scheme against the rest of its scenario.
    """
    if scenario not in (1, 2):
        raise ValueError(f"scenario must be 1 or 2, got {scenario}")
    known = SCENARIO_ONE_SCHEMES if scenario == 1 else SCENARIO_TWO_SCHEMES
    if schemes_a is None:
        schemes_a = ("pdfm",) if scenario == 1 else ("pdfpdfm",)
    if schemes_b is None:
        schemes_b = ("pdf", "df") if scenario == 1 else ("pdfdfm", "df")
    for s in (*schemes_a, *schemes_b):
        if s not in known:
            raise ValueError(f"unknown scheme {s!r} for scenario {scenario}; pick from {known}")
    if budget is None:
        budget = RandomnessBudget.unbounded()
    if steps < 2 or c_min >= c_max:
        raise ValueError("need c_min < c_max and at least 2 steps")

    def advantage(c: float) -> float:
        params = ChannelParams.symmetric(p, c, g)
        values = _scheme_values(scenario, params, budget)
        return max(values[s] for s in schemes_a) - max(values[s] for s in schemes_b)

    # strict advantage, so that the flat "equal rates" stretches count as off
    def strictly_ahead(c: float) -> bool:
        return advantage(c) > 1e-9

    cs = [c_min + (c_max - c_min) * i / (steps - 1) for i in range(steps)]
    flags = [strictly_ahead(c) for c in cs]

    # bisect well below the reporting tolerance so that the scheme rates at
    # the reported point sit within the tie tolerance of each other (the
    # advantage changes with slope up to ~2 in C)
    bracket = 0.01 * tol
    tie_tol = max(1e-6, 4.0 * bracket)

    crossings = []
    for (c_lo, on_lo), (c_hi, on_hi) in zip(zip(cs, flags), zip(cs[1:], flags[1:])):
        if on_lo == on_hi:
            continue
        lo, hi = c_lo, c_hi
        while hi - lo > bracket:
            mid = 0.5 * (lo + hi)
            if mid in (lo, hi):  # adjacent floats: the bracket cannot shrink
                break
            if strictly_ahead(mid) == on_lo:
                lo = mid
            else:
                hi = mid
        c_star = 0.5 * (lo + hi)
        params = ChannelParams.symmetric(p, c_star, g)
        values = _scheme_values(scenario, params, budget)
        best = max(values[s] for s in (*schemes_a, *schemes_b))
        tied = tuple(
            s for s in known
            if s in (*schemes_a, *schemes_b) and abs(values[s] - best) <= tie_tol * max(1.0, abs(best))
        )
        crossings.append(Crossing(c=c_star, schemes=tied))

    return ThresholdReport(
        scenario=scenario,
        schemes_a=tuple(schemes_a),
        schemes_b=tuple(schemes_b),
        crossings=tuple(crossings),
        c_min=c_min,
        c_max=c_max,
        steps=steps,
    )


@dataclass(frozen=True)
class NoSecrecyComparison:
    """All four bound families at one parameter point.

    The no-secrecy reference runs the identical scenario-1 code with g = 0.
    """

    nosecrecy_upper: float
    nosecrecy_lower: float
    s1: ScenarioOneBounds
    s2: ScenarioTwoBounds
    s1_lower_matches_nosecrecy_upper: bool  # within 1e-6
    nosecrecy_lower_exceeds_s2_upper: bool  # strict


def no_secrecy_compare(params: ChannelParams, budget: RandomnessBudget) -> NoSecrecyComparison:
    baseline = replace(params, g=0.0)
    ns = scenario_one.bounds(baseline, budget)
    s1 = scenario_one.bounds(params, budget)
    s2 = scenario_two.bounds(params, budget)
    return NoSecrecyComparison(
        nosecrecy_upper=ns.upper.value,
        nosecrecy_lower=ns.lower,
        s1=s1,
        s2=s2,
        s1_lower_matches_nosecrecy_upper=abs(s1.lower - ns.upper.value) <= 1e-6,
        nosecrecy_lower_exceeds_s2_upper=ns.lower > s2.upper.value,
    )
