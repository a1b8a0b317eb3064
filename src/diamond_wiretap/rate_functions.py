"""Problem instance types and the seven closed-form rate functions.

Channel model: a source reaches two relays over noiseless links of capacities
C1 and C2 (bits/channel-use).  The relays transmit X1, X2 with average power
constraints P1, P2 over a Gaussian multiple-access channel to the legitimate
receiver, Y = X1 + X2 + N_Y, while an eavesdropper observes a degraded signal
that is statistically equivalent to Z = sqrt(g)*X1 + sqrt(g)*X2 + N_Z with
unit noise and gain g in [0, 1).  All rates are in bits per channel use; logs
are base 2 throughout.

For jointly Gaussian inputs with correlation coefficient rho the cut-set and
leakage quantities reduce to seven scalar functions of rho:

    f1(rho) = C1 + 0.5*log2(1 + (1 - rho^2)*P2)
    f2(rho) = C2 + 0.5*log2(1 + (1 - rho^2)*P1)
    f3(rho) = C1 + C2 - 0.5*log2(1/(1 - rho^2))          (-inf at |rho| = 1)
    f4(rho) = 0.5*log2(1 + P1 + P2 + 2*rho*sqrt(P1*P2))
    f5(rho) = 0.5*log2(1 + g*(P1 + P2 + 2*rho*sqrt(P1*P2)))
    f6(rho) = 0.5*log2((1 + g*s(rho)) / (1 + g*(1 - rho^2)*P2))
    f7(rho) = 0.5*log2((1 + g*s(rho)) / (1 + g*(1 - rho^2)*P1))

with s(rho) = P1 + P2 + 2*rho*sqrt(P1*P2).  All seven live on [-1, 1],
where s(rho) >= s(-1) = (sqrt(P1) - sqrt(P2))^2 >= 0.  sqrt(P1*P2) is taken
as sqrt(P1)*sqrt(P2) wherever P1*P2 would overflow or underflow.

Each rate is one scalar form of q = 1 - rho^2 and s(rho) (``_FORMS``), shared
by ``rates``, the crossing seeds and scenario 2's T1.  Values are plain floats
(``math``, no numpy); f3 is -inf at |rho| = 1, which ``min`` keeps and ``max`` drops.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import DomainError, ParameterError
from .scalar_opt import sign_change

__all__ = [
    "RateValue",
    "ChannelParams",
    "RandomnessBudget",
    "TERMS",
    "f1",
    "f2",
    "f3",
    "f4",
    "f5",
    "f6",
    "f7",
    "rho_star",
    "rho_h",
    "peak",
    "crossing",
    "f5_inverse",
    "link_indicator",
    "link_interval",
]

# Extended-real rate in bits/channel-use; -inf marks an impossible rate.
RateValue = float

# Slack for correlation domain checks at interval endpoints.
_DOMAIN_TOL = 1e-12
# The float after -1, where the peaks of f3 - f5 and f3 - 2 f5 stop.
_ABOVE_MINUS_ONE = math.nextafter(-1.0, 0.0)


@dataclass(frozen=True)
class ChannelParams:
    """One channel instance.

    p1, p2: relay power constraints, strictly positive, with s(1) =
        p1 + p2 + 2*sqrt(p1*p2) finite.
    c1, c2: source-to-relay link capacities in bits/channel-use, nonnegative.
    g: eavesdropper gain, in [0, 1); g = 0 removes the eavesdropper.
    """

    p1: float
    p2: float
    c1: float
    c2: float
    g: float

    def __post_init__(self) -> None:
        for name in ("p1", "p2", "c1", "c2", "g"):
            v = getattr(self, name)
            if not isinstance(v, (int, float)) or not math.isfinite(v):
                raise ParameterError(f"{name} must be a finite number, got {v!r}")
            object.__setattr__(self, name, float(v))
        if self.p1 <= 0 or self.p2 <= 0:
            raise ParameterError(f"powers must be positive, got p1={self.p1}, p2={self.p2}")
        if self.c1 < 0 or self.c2 < 0:
            raise ParameterError(f"link capacities must be nonnegative, got c1={self.c1}, c2={self.c2}")
        if not 0.0 <= self.g < 1.0:
            raise ParameterError(f"eavesdropper gain must lie in [0, 1), got g={self.g}")
        if not math.isfinite(self.p1 + self.p2 + 2.0 * _k(self)):
            raise ParameterError(f"powers too large: s(1) = p1 + p2 + 2*sqrt(p1*p2) overflows, "
                                 f"got p1={self.p1}, p2={self.p2}")

    @classmethod
    def symmetric(cls, p: float, c: float, g: float) -> "ChannelParams":
        """Shorthand for p1 = p2 = p and c1 = c2 = c."""
        return cls(p1=p, p2=p, c1=c, c2=c, g=g)

    @property
    def is_symmetric(self) -> bool:
        return self.p1 == self.p2 and self.c1 == self.c2


@dataclass(frozen=True)
class RandomnessBudget:
    """Rate of fictitious-message randomness available for stochastic encoding.

    ``r_prime`` is in bits/channel-use; ``math.inf`` means unbounded.
    """

    r_prime: float = math.inf

    def __post_init__(self) -> None:
        v = self.r_prime
        if not isinstance(v, (int, float)) or math.isnan(v):
            raise ParameterError(f"r_prime must be a number, got {v!r}")
        if v < 0:
            raise ParameterError(f"r_prime must be nonnegative, got {v}")
        object.__setattr__(self, "r_prime", float(v))

    @classmethod
    def unbounded(cls) -> "RandomnessBudget":
        return cls(math.inf)

    @classmethod
    def finite(cls, r_prime: float) -> "RandomnessBudget":
        if not math.isfinite(r_prime):
            raise ParameterError(f"finite budget requires a finite rate, got {r_prime}")
        return cls(r_prime)

    @property
    def is_unbounded(self) -> bool:
        return math.isinf(self.r_prime)


# s(rho) carries round-off of a few ulps of P1 + P2, and snaps to 0 below this
# many: f4 and f5 are never negative, and vanish at rho = -1 for P1 = P2.
_SNAP = 32.0 * sys.float_info.epsilon
_log2 = math.log2


def link_indicator(c1: float, c2: float, f6: float, f7: float) -> float:
    """The indicator of the strict link conditions of PDF-PDF-M: +inf where
    C1 > f6 and C2 > f7 both hold, 0 where either fails.  f6 and f7 are
    never negative (s - q*P2 = (sqrt(P1) + rho*sqrt(P2))^2, and likewise with
    P1 and P2 swapped), so each capacity must exceed max(f, 0): a value
    rounded below 0 does not let a zero capacity pass.  Four comparisons
    say so in a fifth of the time of two calls of ``max``."""
    return math.inf if c1 > f6 and c2 > f7 and c1 > 0.0 and c2 > 0.0 else 0.0


# Each closed form at one point, from the atoms q = 1 - rho^2 and s = s(rho).
_FORMS = {
    "f1": lambda p, q, s: p.c1 + 0.5 * _log2(1.0 + q * p.p2),
    "f2": lambda p, q, s: p.c2 + 0.5 * _log2(1.0 + q * p.p1),
    "f3": lambda p, q, s: p.c1 + p.c2 + 0.5 * _log2(q) if q > 0.0 else -math.inf,
    "f4": lambda p, q, s: 0.5 * _log2(1.0 + s),
    "f5": lambda p, q, s: 0.5 * _log2(1.0 + p.g * s),
    "f6": lambda p, q, s: 0.5 * _log2((1.0 + p.g * s) / (1.0 + p.g * q * p.p2)),
    "f7": lambda p, q, s: 0.5 * _log2((1.0 + p.g * s) / (1.0 + p.g * q * p.p1)),
    "indicator": lambda p, q, s: link_indicator(p.c1, p.c2, _FORMS["f6"](p, q, s), _FORMS["f7"](p, q, s)),
}


def _k(params: ChannelParams) -> float:
    """sqrt(P1*P2), as written while the product is a normal float (to the
    bit of the closed forms as written), else as sqrt(P1)*sqrt(P2)."""
    product = params.p1 * params.p2
    if sys.float_info.min <= product < math.inf:
        return math.sqrt(product)
    return math.sqrt(params.p1) * math.sqrt(params.p2)


def _atoms(params: ChannelParams):
    """rho in [-1, 1] -> (1 - rho^2, s(rho)), with s snapped to 0 below ``_SNAP`` * (P1 + P2)."""
    base, k2, snap = params.p1 + params.p2, 2.0 * _k(params), _SNAP * (params.p1 + params.p2)

    def atoms(r: float) -> tuple[float, float]:
        s = base + k2 * r
        return 1.0 - r * r, s if s >= snap else 0.0
    return atoms


def rates(params: ChannelParams, rho, names) -> dict:
    """The closed forms ``names`` (a subset of f1..f7 and ``indicator``, in
    order) at ``rho``: floats for a float ``rho``, lists for a sequence.

    The kernel behind f1..f7 and the optimizer's branches: rho must lie in
    [-1, 1], and values within round-off outside it are clipped onto it.
    Each scalar form of ``_FORMS`` maps over the atoms of the points (``_atoms``).
    """
    scalar = isinstance(rho, (int, float))
    xs = (rho,) if scalar else rho
    # min and max can step over a NaN, which makes the sum NaN
    lo, hi = min(xs, default=0.0), max(xs, default=0.0)
    if not -1.0 - _DOMAIN_TOL <= lo <= hi <= 1.0 + _DOMAIN_TOL or math.isnan(sum(xs)):
        raise DomainError(f"correlation must lie in [-1, 1] for {', '.join(names)}, got {rho!r}")
    if hi > 1.0 or lo < -1.0:
        xs = [max(-1.0, min(r, 1.0)) for r in xs]
    if scalar:
        q, s = _atoms(params)(xs[0])
        return {name: _FORMS[name](params, q, s) for name in names}
    pairs = list(map(_atoms(params), xs))
    return {name: [_FORMS[name](params, q, s) for q, s in pairs] for name in names}


def f1(params: ChannelParams, rho) -> RateValue:
    """Cut rate through relay 1's link plus relay 2's clean MAC contribution."""
    return rates(params, rho, ("f1",))["f1"]


def f2(params: ChannelParams, rho) -> RateValue:
    """Cut rate through relay 2's link plus relay 1's clean MAC contribution."""
    return rates(params, rho, ("f2",))["f2"]


def f3(params: ChannelParams, rho) -> RateValue:
    """Both-links cut rate net of the correlation cost; -inf at |rho| = 1."""
    return rates(params, rho, ("f3",))["f3"]


def f4(params: ChannelParams, rho) -> RateValue:
    """Coherent-combining rate of the main MAC; 0 at rho = -1 for equal powers."""
    return rates(params, rho, ("f4",))["f4"]


def f5(params: ChannelParams, rho) -> RateValue:
    """Rate leaked to the eavesdropper from the combined transmission."""
    return rates(params, rho, ("f5",))["f5"]


def f6(params: ChannelParams, rho) -> RateValue:
    """Eavesdropper's rate about X1 alone (X2 acting as noise)."""
    return rates(params, rho, ("f6",))["f6"]


def f7(params: ChannelParams, rho) -> RateValue:
    """Eavesdropper's rate about X2 alone (X1 acting as noise)."""
    return rates(params, rho, ("f7",))["f7"]


def rho_star(params: ChannelParams) -> float:
    """Correlation above which the correlation cost term is frozen at rho = 0.

    rho_star is the positive root of rho^2 + rho/k = 1 with k = sqrt(P1*P2),
    written 2k/(1 + sqrt(1 + (2k)^2)) so that no digits cancel for small
    powers, with k and the root taken so that nothing overflows for large
    ones; always in (0, 1].
    """
    k = math.sqrt(params.p1) * math.sqrt(params.p2)
    return 2.0 * k / (1.0 + math.hypot(1.0, 2.0 * k))


def rho_h(params: ChannelParams) -> float:
    """Peak of the concave (f3 + f4)/2 on [0, 1]: it rises before, falls after.

    rho_h is the positive root of 3*k*rho^2 + (1 + P1 + P2)*rho - k = 0 with
    k = sqrt(P1*P2); it lies strictly inside (0, rho_star).  A power of two
    scales 1 + P1 + P2 into [1/2, 1), so that no square overflows.
    """
    b = 1.0 + params.p1 + params.p2
    scale = math.ldexp(1.0, -math.frexp(b)[1])
    b, k = b * scale, _k(params) * scale
    return 2.0 * k / (b + math.sqrt(b * b + 12.0 * k * k))


def peak(params: ChannelParams, term: str) -> float:
    """Where the term ``term`` of ``TERMS`` stops rising and starts to fall
    on [-1, 1]:

    - -inf for a term with no positive weight on a rate of rho, which never
      rises: C1, C2, f3(0) and the indicator, less f5 or not (f5 rises);
    - +inf for f4 and f4 - f5, which rise throughout: s(rho) rises, and
      f4 - f5 is 0.5*log2((1 + s)/(1 + g*s)), which rises with s as g < 1;
    - 0 for f1, f2 and f3, which are even and fall for rho >= 0;
    - ``rho_h`` for the concave (f3+f4)/2;
    - for f1 - f5, f2 - f5, f3 - f5 and f3 - 2 f5, the root of their
      slope nearest 0.  With k = sqrt(P1*P2) and
      G = 1 + g*(P1 + P2), the slope of f1 - f5 times 2 ln 2 is
      -2*rho*P2/(1 + q*P2) - 2gk/(1 + g*s), q = 1 - rho^2; over its
      positive denominator its sign is that of
      -(g*k*P2*rho^2 + P2*G*rho + g*k*(1 + P2)).  In the same way f2 - f5
      gives P1 for P2, f3 - f5 gives -(g*k*rho^2 + G*rho + g*k), and
      f3 - 2 f5 gives -(G*rho + 2gk).  Divided by P2*G, P1*G, G and G,
      they read -(a*rho^2 + rho + c) with a, c >= 0, and no product of two
      powers is formed.  For g > 0 both roots (if real) are negative, their
      product, c/a, is (1 + P2)/P2 > 1, (1 + P1)/P1 or 1: the root nearest
      0, -2c/(1 + sqrt(1 - 4ac)), is the only one that can lie in (-1, 0],
      and g = 0 puts it at 0.  It may lie below -1 for f1 - f5 and f2 - f5,
      which then fall on all of [-1, 1]; for f3 - f5 and f3 - 2 f5 it lies
      above -1, where f3 is -inf, and huge powers would round it to -1.

    The indicator is constant between the ends of its link interval
    (``link_interval``), at which ``scenario_one.solve`` splits.
    """
    if term in _NEVER_RISES:
        return -math.inf
    if term in ("f4", "f4-f5"):
        return math.inf
    if term in ("f1", "f2", "f3"):
        return 0.0
    if term == "(f3+f4)/2":
        return rho_h(params)
    u = params.g * _k(params) / (1.0 + params.g * (params.p1 + params.p2))  # gk/G
    if term == "f3-2f5":  # a = 0, c = 2u
        return max(-2.0 * u, _ABOVE_MINUS_ONE)
    # a = u, and c = u for f3 - f5, else u*(1 + P2)/P2 or u*(1 + P1)/P1
    c = u if term == "f3-f5" else u * (1.0 + 1.0 / (params.p2 if term == "f1-f5" else params.p1))
    root = -2.0 * c / (1.0 + math.sqrt(max(1.0 - 4.0 * u * c, 0.0)))
    return max(root, _ABOVE_MINUS_ONE) if term == "f3-f5" else root


# Every term of ``schemes.TABLE``, as weights on the rates it reads (see
# ``schemes``).  ``crossing`` meets those on f1..f5 by Newton's method, with
# the slope times ln 2 of each of f1..f5 (valued by ``_FORMS``) at rho in
# [-1, 1]: q = 1 - rho^2, k = sqrt(P1*P2), s = s(rho).
TERMS = {
    "f1": {"f1": 1.0}, "f2": {"f2": 1.0}, "f3": {"f3": 1.0}, "f4": {"f4": 1.0},
    "C1": {"C1": 1.0}, "C2": {"C2": 1.0}, "f3(0)": {"f3(0)": 1.0}, "indicator": {"indicator": 1.0},
    "f1-f5": {"f1": 1.0, "f5": -1.0}, "f2-f5": {"f2": 1.0, "f5": -1.0}, "f3-f5": {"f3": 1.0, "f5": -1.0},
    "f3-2f5": {"f3": 1.0, "f5": -2.0}, "f4-f5": {"f4": 1.0, "f5": -1.0}, "(f3+f4)/2": {"f3": 0.5, "f4": 0.5},
    "C1-f5": {"C1": 1.0, "f5": -1.0}, "C2-f5": {"C2": 1.0, "f5": -1.0}, "f3(0)-f5": {"f3(0)": 1.0, "f5": -1.0},
}
_SLOPES = {
    "f1": lambda p, r, q, k, s: -r * p.p2 / (1.0 + q * p.p2),
    "f2": lambda p, r, q, k, s: -r * p.p1 / (1.0 + q * p.p1),
    "f3": lambda p, r, q, k, s: -r / q if q > 0.0 else -math.inf,
    "f4": lambda p, r, q, k, s: k / (1.0 + s),
    "f5": lambda p, r, q, k, s: p.g * k / (1.0 + p.g * s),
}
# the terms with no positive weight on a rate of rho, which never rise (``peak``)
_NEVER_RISES = frozenset(term for term, weights in TERMS.items()
                         if not any(c > 0.0 for rate, c in weights.items() if rate in _SLOPES))
_LN2 = math.log(2.0)
# Newton's method takes at most _NEWTON_STEPS steps and stops at a step of
# _SEED_FLOATS floats or fewer; it converges quadratically, so that step
# mostly lands within a float of the root, where ``scalar_opt.sign_change``
# closes the bracket in one call of 5 points; a seed a few floats off costs
# it two to four calls more.
_NEWTON_STEPS = 40
_SEED_FLOATS = 16


def _below(params: ChannelParams, w: float, e: float, u: float, v: float) -> tuple[float, float]:
    """The ends, in closed form, of the interval of rho on which
    1 + w*s(rho) < 2^(2e)*(u + v*(1 - rho^2)); for w, u, v >= 0 the left
    side less the right is a*rho^2 + 2*b*rho + c with a, b >= 0.  The
    coefficients are scaled by a power of two that brings the largest into
    [1/2, 1), so that b*b - a*c neither overflows nor underflows.  (-inf,
    inf) where 2^(2e) or a coefficient overflows, (-inf, -inf) where the
    inequality holds nowhere; the ends carry rounding (``_edges``)."""
    if 2.0 * e >= 1024.0:
        return -math.inf, math.inf
    big = 2.0 ** (2.0 * e)
    a, b, c = big * v, w * _k(params), 1.0 + w * (params.p1 + params.p2) - big * (u + v)
    top = max(abs(a), abs(b), abs(c))
    if not top < math.inf:
        return -math.inf, math.inf
    shift = -math.frexp(top)[1]
    a, b, c = math.ldexp(a, shift), math.ldexp(b, shift), math.ldexp(c, shift)
    disc = b * b - a * c
    if disc < 0.0:
        return -math.inf, -math.inf
    den = b + math.sqrt(disc)  # both roots without cancellation, as b >= 0
    if den > 0.0:
        return (-den / a if a > 0.0 else -math.inf), -c / den
    return (-math.inf, math.inf) if c < 0.0 else (-math.inf, -math.inf)


def crossing(params: ChannelParams, term: str, other, lo: float = 0.0, hi: float = 1.0) -> float:
    """Where ``term`` meets ``other``: a rate level or a term of ``TERMS``.

    For ``term`` "f4", and ``other`` a level, "f1", "f2" or "f3", the right
    end of the interval where 1 + s(rho) lies below
    2^(2e)*(u + v*(1 - rho^2)) (``_below``), with (e, u, v) = (L, 1, 0) for
    a level L, (C1, 1, P2) for f1, (C2, 1, P1) for f2 and (C1 + C2, 0, 1)
    for f3.  Cancellation in its coefficients can put this root hundreds of
    floats from the float where the two rates meet, and near rho = 0, where
    floats are dense, far more.

    For any other ``term``, the root on [lo, hi], where term - other must
    rise: ``peak`` says where each term rises and falls.  These equations
    are cubics or quartics in rho.  Newton's method on term - other, in
    plain floats, steps in t = -ln(1 - rho), where the log singularity of f3
    at rho = 1 is linear, and falls back on bisection when a step leaves the
    bracket.  For f4 - f5 against f1, f2, f3 or a level it starts from the
    root of f4; it stops within a few floats of where the two rates meet.

    The result is a seed, not a final answer: callers that need the float
    where the rates meet bracket it (``scalar_opt.sign_change``).  Returns
    -inf when ``term`` lies at or above ``other`` on the whole range, and
    +inf when it lies below (or when 2^(2e) or a coefficient overflows).
    """
    if term != "f4":
        if term not in TERMS or not _SLOPES.keys() >= TERMS[term].keys():
            raise ValueError(f"crossing solves for f4 or a term of TERMS on f1..f5, got {term!r}")
        return _newton_crossing(params, term, other, lo, hi)
    if other == "f1":
        e, u, v = params.c1, 1.0, params.p2
    elif other == "f2":
        e, u, v = params.c2, 1.0, params.p1
    elif other == "f3":
        e, u, v = params.c1 + params.c2, 0.0, 1.0
    else:
        e, u, v = float(other), 1.0, 0.0
    return _below(params, 1.0, e, u, v)[1]


def _newton_crossing(params: ChannelParams, term: str, other, a: float, b: float) -> float:
    """``crossing`` for the terms of ``TERMS`` on f1..f5, on [a, b]."""
    weights = dict(TERMS[term])
    level = 0.0
    if isinstance(other, str):
        for name, c in TERMS[other].items():
            weights[name] = weights.get(name, 0.0) - c
    else:
        level = float(other)
    forms = [(c, _FORMS[name], _SLOPES[name]) for name, c in weights.items() if c != 0.0]
    k, atoms = _k(params), _atoms(params)

    def rise(r):  # term - other at r, and its slope times ln 2
        q, s = atoms(r)
        v, d = -level, 0.0
        for c, value, slope in forms:
            v, d = v + c * value(params, q, s), d + c * slope(params, r, q, k, s)
        return v, d

    if rise(a)[0] >= 0.0:
        return -math.inf
    if rise(b)[0] < 0.0:
        return math.inf
    closed = term == "f4-f5" and (other in ("f1", "f2", "f3") or not isinstance(other, str))
    x = crossing(params, "f4", other) if closed else math.nan
    if not a < x < b:
        x = 0.5 * (a + b)
    for _ in range(_NEWTON_STEPS):
        v, d = rise(x)
        if v < 0.0:
            a = x
        else:
            b = x
        # the step in t = -ln(1 - rho) never passes 1
        y = 1.0 - (1.0 - x) * math.exp(min(v * _LN2 / (d * (1.0 - x)), 700.0)) if d > 0.0 else math.nan
        if abs(y - x) <= _SEED_FLOATS * math.ulp(x):
            return y
        if not a < y < b:
            y = 0.5 * (a + b)
        x = y
    return x


def f5_inverse(params: ChannelParams, budget: RandomnessBudget) -> float | None:
    """Largest rho in [-1, 1] whose leakage f5(rho) stays within the budget;
    None where no rho does.

    f5 is increasing on [-1, 1] (for g > 0), so the feasible set
    {rho : f5(rho) <= r_prime} is [-1, rho_max], and ``_edges`` closes
    rho_max on adjacent floats: f5(rho_max) <= r_prime <
    f5(nextafter(rho_max, 1)).  1.0 when the budget is unbounded or g = 0;
    None, for unequal powers only, when even f5(-1) exceeds the budget.
    """
    if budget.is_unbounded or params.g == 0.0:
        return 1.0
    r_prime = budget.r_prime

    def fits(xs):
        return [v <= r_prime for v in rates(params, xs, ("f5",))["f5"]]

    edges = _edges(fits, -1.0, 1.0, *_below(params, params.g, r_prime, 1.0, 0.0))
    return None if edges is None else edges[1]


def link_interval(params: ChannelParams, lo: float, hi: float) -> tuple[float, float] | None:
    """The first and last floats of [lo, hi] at which both strict link
    conditions of PDF-PDF-M, C1 > f6(rho) and C2 > f7(rho), hold; None
    where they hold at none.

    C1 > f6 reads 1 + g*s < 2^(2 C1)*(1 + g*q*P2) (``schemes`` derives it),
    and C2 > f7 the same with P1 for P2: each holds on one interval
    (``_below``), so both do, and ``_edges`` closes its ends.  A zero
    capacity meets its condition nowhere (``link_indicator``).
    """
    if not (params.c1 > 0.0 and params.c2 > 0.0):
        return None
    (left1, right1), (left2, right2) = (_below(params, params.g, cap, 1.0, params.g * p_other)
                                        for cap, p_other in ((params.c1, params.p2), (params.c2, params.p1)))
    left, right = max(left1, left2), min(right1, right2)
    if not left < right:
        return None

    def holds(xs):
        return [v > 0.0 for v in rates(params, xs, ("indicator",))["indicator"]]

    return _edges(holds, lo, hi, left, right)


def _edges(test, lo: float, hi: float, left: float, right: float) -> tuple[float, float] | None:
    """The first and last floats of [lo, hi] at which ``test``, a map from a
    list of points to a list of booleans, holds; None where it holds at none.
    It holds on one interval, whose ends the closed form puts at ``left``
    and ``right`` up to rounding (``_below``), so the test decides: it
    checks lo and hi wherever the closed form puts an end at or past them,
    and ``scalar_opt.sign_change``, seeded by the closed form, closes each
    end inside on adjacent floats."""
    seen = {}

    def holds(xs):
        ok = test(xs)
        seen.update(zip(xs, ok))
        return ok

    edges = [x for x, past in ((lo, left <= lo), (hi, right >= hi)) if past]
    if edges:
        holds(edges)
    if (right <= lo and not seen[lo]) or (left >= hi and not seen[hi]):
        return None  # the interval lies beyond lo or hi
    first, last = lo, hi
    if not seen.get(lo):
        # past a point well inside the interval the test counts as met, so
        # that it turns true once, at the first float of the interval
        inside = 0.5 * (max(left, lo) + min(right, hi))
        _, first = sign_change(lambda xs: [ok or x >= inside for ok, x in zip(holds(xs), xs)],
                               math.nextafter(lo, -math.inf), hi, left)
        if not seen.get(first):
            return None
    if not seen.get(hi):
        last, _ = sign_change(lambda xs: [not ok for ok in holds(xs)], first, math.nextafter(hi, math.inf), right)
    return first, last
