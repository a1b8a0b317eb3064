"""Higher-level analyses on top of the scenario bounds.

* ``capacity_condition``: certifies the parameter window where the scenario-2
  bounds coincide, yielding the exact secrecy capacity.
* ``pdf_gap_vs_power``: gap between the scenario-1 upper bound and the plain
  PDF rate along a power grid; the gap vanishes as the power grows.
* ``detect_thresholds``: locates the link capacities where one achievable
  scheme starts or stops beating another.  Every scheme rate is
  nondecreasing in C, so its scan never builds the grid and evaluates only
  the points whose verdict those evaluated around them leave open (by a
  margin of 1e-12).  In scenario 1 it reads off one kernel call at rho = 0
  where PDF-M equals plain PDF, and it narrows each crossing by ITP steps
  (Oliveira & Takahashi, ACM TOMS 47(1), 2020), at most one more than
  bisection.
* ``no_secrecy_compare``: the same bounds with the eavesdropper removed
  (g = 0), as a reference point.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, replace
from typing import Sequence

from . import scenario_one, scenario_two, schemes
from . import rate_functions as rf
from .errors import AsymmetricParams, ParameterError
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


# how near the candidate both scenario-2 bounds must come for the capacity to apply
_CAPACITY_TOL = 1e-6


def capacity_condition(params: ChannelParams) -> CapacityVerdict:
    """Check whether the scenario-2 bounds meet, and if so return the capacity.

    Requires symmetric parameters (P1 = P2, C1 = C2) and assumes an
    unbounded randomness budget.  The link capacity must lie in

        (1/4)*log2(1 + 2P)  <=  C  <=  (1/4)*log2(1 + 2(1+rho*)P) + (1/4)*log2(1/(1 - rho*^2))

    where rho*^2 + rho*/P = 1 gives 1/(1 - rho*^2) = P/rho*, the form the
    code takes: 1 - rho*^2 cancels as rho* nears 1, and rho* rounds to 1
    from about P = 1e16.  The window is exactly where f3 - f4 changes sign
    on [0, rho*]; the crossing rho' then gives the candidate capacity
    f3(rho') - f5(rho').  One of two auxiliary inequalities must
    additionally hold.  The verdict re-computes both scenario-2 bounds and
    only claims ``applies`` when they agree with the candidate within 1e-6
    (``_CAPACITY_TOL``).
    """
    if not params.is_symmetric:
        raise AsymmetricParams(
            f"capacity condition needs p1 == p2 and c1 == c2, got {params}"
        )
    p, c, g = params.p1, params.c1, params.g
    rs = rf.rho_star(params)
    cond_lower = 0.25 * math.log2(1.0 + 2.0 * p)
    cond_upper = 0.25 * math.log2(1.0 + 2.0 * (1.0 + rs) * p) + 0.25 * math.log2(p / rs)

    b2 = scenario_two.bounds(params, RandomnessBudget.unbounded())
    ub, lb = b2.upper.value, b2.lower

    def rejected(note: str, auxiliary: str = "none") -> CapacityVerdict:
        return CapacityVerdict(
            applies=False, capacity=None, rho_prime=None,
            condition_lower=cond_lower, condition_upper=cond_upper,
            auxiliary=auxiliary, upper_value=ub, lower_value=lb, note=note,
        )

    if not cond_lower <= c <= cond_upper:
        return rejected(f"link capacity {c:.6g} outside [{cond_lower:.6g}, {cond_upper:.6g}]")

    rho_p = rf.crossing(params, "f4", "f3")
    if not 0.0 <= rho_p <= rs:
        # only reachable through round-off at the window edge
        return rejected("f3 - f4 did not change sign despite the window condition")
    at = rf.rates(params, [0.0, rho_p, rs], ("f1", "f3", "f5"))
    f1, f3, f5 = at["f1"], at["f3"], at["f5"]
    candidate = f3[1] - f5[1]

    aux1 = f1[2] - f5[2] <= candidate
    aux2 = f3[0] - f5[2] <= candidate
    auxiliary = {(True, True): "both", (True, False): "f1", (False, True): "f3(0)", (False, False): "none"}[(aux1, aux2)]
    if not (aux1 or aux2):
        return rejected("neither auxiliary inequality holds", auxiliary)

    coincide = abs(ub - candidate) <= _CAPACITY_TOL and abs(lb - candidate) <= _CAPACITY_TOL
    if not coincide:
        return rejected(f"bounds failed to meet the candidate {candidate:.9g} within {_CAPACITY_TOL:g}", auxiliary)
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
        # plain PDF is PDF-M at rho = 0: the least of its terms there, one of
        # which is the MAC term
        branch, _ = schemes.gaussian(params, "pdfm1")
        terms = branch([0.0])
        pdf = max(0.0, min(values[0] for values in terms.values()))
        mac = terms["f4-f5"][0]
        rows.append(PdfGapRow(power=float(p), upper=ub, pdf=pdf, gap=ub - pdf, mac_term=mac))
    limit = math.inf if g == 0.0 else 0.5 * math.log2(1.0 / g)
    return PdfGapReport(rows=tuple(rows), mac_limit=limit)


SCENARIO_ONE_SCHEMES = tuple(report for report, *_ in scenario_one.TABLE.schemes)
SCENARIO_TWO_SCHEMES = tuple(report for report, *_ in scenario_two.TABLE.schemes)
_SCENARIOS = {1: (scenario_one, SCENARIO_ONE_SCHEMES), 2: (scenario_two, SCENARIO_TWO_SCHEMES)}


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


# how far a reported crossing may lie from the true one (|dC|)
_THRESHOLD_TOL = 1e-4

# how far group A must lead group B to count as ahead, so that the flat
# "equal rates" stretches count as off
_AHEAD_BY = 1e-9

# Every scheme rate is nondecreasing in C up to round-off, whose largest
# measured decrease is 4.4e-16.  A verdict is read off the ends of a stretch
# of the scan only when the lead misses or clears _AHEAD_BY there by this
# margin, which is far above that round-off and far below _AHEAD_BY.
_MONOTONE_MARGIN = 1e-12


def _scan(first: int, last: int, c_at, bests) -> dict[int, float]:
    """The lead A(c) - B(c) - ``_AHEAD_BY`` by index k, ``first`` <= k <=
    ``last``, at the grid points ``c_at(k)`` that the scan evaluates; it is
    positive exactly where group A is ahead.

    ``bests(c)`` returns the best rates A(c) and B(c) of the two groups, both
    nondecreasing in c, and is called only where the values elsewhere leave
    the sign of the lead open: for grid points i < k < j, the lead at k is
    not positive when A(c_j) - B(c_i) misses ``_AHEAD_BY`` by the margin, and
    positive when A(c_i) - B(c_j) clears it by the margin.  A stretch that
    neither decides is split at its middle point, which is evaluated.  A
    stretch that one rule decides has the sign of both its ends, so every
    change of sign lies between two adjacent points evaluated.
    """
    known = {k: bests(c_at(k)) for k in sorted({first, last})}
    stretches = [(first, last)]
    while stretches:
        i, j = stretches.pop()
        (a_i, b_i), (a_j, b_j) = known[i], known[j]
        if j - i < 2 or a_j - b_i <= _AHEAD_BY - _MONOTONE_MARGIN or a_i - b_j > _AHEAD_BY + _MONOTONE_MARGIN:
            continue
        k = (i + j) // 2
        known[k] = bests(c_at(k))
        stretches += [(i, k), (k, j)]
    return {k: a - b - _AHEAD_BY for k, (a, b) in known.items()}


def _pdf_ties(p: float, g: float, budget: RandomnessBudget, c_min: float):
    """A test of C, one kernel call at rho = 0, that holds where scenario 1's
    PDF-M equals plain PDF bit for bit at P1 = P2 = p, C1 = C2 = C; None
    where rho = 0 does not fit the budget.

    PDF is PDF-M at rho = 0, and PDF-M maximizes min(f1, f2, f3, f4 - f5)
    over [0, rho_max], where f1, f2, f3 fall and f4 - f5 rises.  So where
    f4(0) - f5(0) >= min(f1(0), f2(0), f3(0)), the solver never leaves 0.
    f1(0), f2(0), f3(0) grow with C and the rest does not depend on it, so
    the test holds on a prefix of every ascending grid of C.
    """
    rho_max = rf.f5_inverse(ChannelParams.symmetric(p, c_min, g), budget)
    if rho_max is None or rho_max < 0.0:
        return None

    def tied(c: float) -> bool:
        at = rf.rates(ChannelParams.symmetric(p, c, g), 0.0, ("f1", "f2", "f3", "f4", "f5"))
        return at["f4"] - at["f5"] >= min(at["f1"], at["f2"], at["f3"])

    return tied


def _refine(lead, lo: float, hi: float, lead_lo: float, lead_hi: float, width: float) -> tuple[float, float]:
    """Narrow [lo, hi], where ``lead`` is positive at one end only
    (``lead_lo`` and ``lead_hi``), to a bracket of its change of sign at
    most ``width`` wide, or to adjacent floats.

    Each step is one of the ITP method (Oliveira & Takahashi, ACM TOMS
    47(1), 2020): the regula falsi point, moved toward the midpoint by
    0.2 w^2 / w0 (w the bracket's width, w0 the first), then projected
    near enough to the midpoint that at most n + 1 steps are taken, where
    bisection takes n; rounding may leave the last bracket a few floats
    wider than ``width``.
    """
    width = max(width, math.ulp(lo))  # below the float spacing, adjacent floats end it
    on_lo = lead_lo > 0.0
    kappa = 0.2 / (hi - lo)
    halvings = max(0, math.ceil(math.log2((hi - lo) / width)))
    reach = math.ldexp(width, halvings)
    for _ in range(halvings + 1):
        if hi - lo <= width:
            break
        mid = 0.5 * (lo + hi)
        radius = max(0.0, reach - 0.5 * (hi - lo))
        reach *= 0.5
        x = lo + (hi - lo) * lead_lo / (lead_lo - lead_hi)
        # truncated toward the midpoint, then projected to within radius of it
        x = mid - math.copysign(min(radius, max(0.0, abs(mid - x) - kappa * (hi - lo) ** 2)), mid - x)
        if not lo < x < hi:
            x = mid
            if not lo < x < hi:  # adjacent floats: the bracket cannot shrink
                break
        d = lead(x)
        if (d > 0.0) == on_lo:
            lo, lead_lo = x, d
        else:
            hi, lead_hi = x, d
    return lo, hi


def detect_thresholds(
    p: float,
    g: float,
    scenario: int,
    schemes_a: Sequence[str] | None = None,
    schemes_b: Sequence[str] | None = None,
    budget: RandomnessBudget = RandomnessBudget(),
    c_min: float = 0.0,
    c_max: float = 3.0,
    steps: int = 121,
) -> ThresholdReport:
    """Find the link capacities where scheme group A starts/stops beating group B.

    Symmetric parameters P1 = P2 = p, C1 = C2 = C with C swept over
    [c_min, c_max].  The advantage function is

        max over A of the best scheme rate  -  max over B of the best rate,

    and a crossing is a boundary of the strict-advantage region (advantage
    above 1e-9), bracketed on the coarse grid and narrowed to a bracket of
    1e-6, 0.01 times ``_THRESHOLD_TOL`` (or adjacent floats), whose midpoint
    is reported, so that |dC| <= 1e-4.  Each crossing lists the schemes
    within 4e-6 of the common best value there (relative to it above 1).
    The default groups come from the scenario's table: its last scheme, the
    multicoded one, against the others, nearest first.

    The grid is neither built nor evaluated point by point: point i is
    c_min + (c_max - c_min)*i/(steps - 1), computed where needed.  At fixed
    p, g and budget every scheme rate is nondecreasing in C: each term of
    ``schemes.TABLE`` has a C-slope of 0, 1 or 2, the PDF-PDF-M link
    indicator (C1 > f6 and C2 > f7) can only switch on as C grows, and
    neither the budget cap rho_max nor plain PDF's rho = 0 depends on C.  So
    the group bests A(C) and B(C) are nondecreasing, and between grid points
    c_i < c_j A is behind everywhere when A(c_j) - B(c_i) <= 1e-9 - margin
    and ahead when A(c_i) - B(c_j) > 1e-9 + margin.  The margin, 1e-12, is
    far above the round-off by which a rate can fall as C grows (4.4e-16 at
    most, measured), so the verdicts are those of the full scan.  Only the
    stretches that neither rule decides are split at their middle point,
    which is evaluated once.

    In scenario 1, with A among PDF and PDF-M and B holding PDF, A cannot
    lead B where PDF-M equals PDF; one kernel call at rho = 0 finds where
    (``_pdf_ties``), a prefix of the grid that is off without solving, and
    a lead of 0, its bound, at narrowing steps inside it.  Each crossing is
    narrowed by ITP steps (``_refine``) from the leads at its grid points.
    """
    if scenario not in _SCENARIOS:
        raise ValueError(f"scenario must be {' or '.join(map(str, _SCENARIOS))}, got {scenario}")
    module, known = _SCENARIOS[scenario]
    schemes_a = known[-1:] if schemes_a is None else schemes_a
    schemes_b = known[-2::-1] if schemes_b is None else schemes_b
    for s in (*schemes_a, *schemes_b):
        if s not in known:
            raise ValueError(f"unknown scheme {s!r} for scenario {scenario}; pick from {known}")
    if not isinstance(steps, int):
        raise ParameterError(f"steps must be an int, got steps={steps!r}")
    if steps < 2 or c_min >= c_max:
        raise ValueError("need c_min < c_max and at least 2 steps")
    if not all(map(math.isfinite, (c_min, c_max, (c_max - c_min) * (steps - 1)))):
        raise ParameterError(f"c_min, c_max and (c_max - c_min)*(steps - 1) must be finite, "
                             f"got c_min={c_min}, c_max={c_max}, steps={steps}")

    def bests(c: float) -> tuple[float, float]:
        values = module.scheme_rates(ChannelParams.symmetric(p, c, g), budget)
        return max(values[s] for s in schemes_a), max(values[s] for s in schemes_b)

    tied = None
    if scenario == 1 and {*schemes_a} <= {"pdf", "pdfm"} and "pdf" in schemes_b:
        tied = _pdf_ties(p, g, budget, c_min)

    def lead(c: float) -> float:
        if tied is not None and tied(c):
            return -_AHEAD_BY
        a, b = bests(c)
        return a - b - _AHEAD_BY

    def c_at(i: int) -> float:
        return c_min + (c_max - c_min) * i / (steps - 1)

    # the points where PDF-M ties PDF, a prefix of the grid, are off
    start = 0 if tied is None else bisect.bisect_left(range(steps), True, key=lambda i: not tied(c_at(i)))
    leads = {start - 1: -_AHEAD_BY} if start else {}
    if start < steps:
        leads.update(_scan(start, steps - 1, c_at, bests))

    # narrow well below the reporting tolerance so that the scheme rates at
    # the reported point sit within the tie tolerance of each other (the
    # advantage changes with slope up to ~2 in C)
    bracket = 0.01 * _THRESHOLD_TOL
    tie_tol = max(1e-6, 4.0 * bracket)

    crossings = []
    ends = sorted(leads)
    for k, m in zip(ends, ends[1:]):
        if (leads[k] > 0.0) == (leads[m] > 0.0):
            continue
        lo, hi = _refine(lead, c_at(k), c_at(m), leads[k], leads[m], bracket)
        c_star = 0.5 * (lo + hi)
        params = ChannelParams.symmetric(p, c_star, g)
        values = module.scheme_rates(params, budget)
        best = max(values[s] for s in (*schemes_a, *schemes_b))
        tied_schemes = tuple(
            s for s in known
            if s in (*schemes_a, *schemes_b) and abs(values[s] - best) <= tie_tol * max(1.0, abs(best))
        )
        crossings.append(Crossing(c=c_star, schemes=tied_schemes))

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
