"""Deterministic scalar optimization used by every bound in the package.

A branch is one callable that maps a list of points to its terms,
``{name: values}`` in binding order, one value per point, in plain floats.
Every bound is the maximum over an interval of the minimum of a branch's
terms.  Every branch and scheme has the structure ``schemes`` sets out, and
``maximize_min`` solves them all.

``maximize_min`` takes, for each term that rises, the point where it stops
rising and starts to fall (+inf for a term that rises to the end); every
other term is constant or nonincreasing.  Split at those peaks, and at any
further ends the caller names, the interval falls into pieces on each of
which every term is monotone.  On a piece, the minimum rises with the
minimum of the rising terms until that first meets the minimum of the
others, and falls with the others afterwards, so its maximum lies at an end
or at that meeting point.  The solver evaluates the branch at every piece
end in one call.  It searches every piece on which the rising minimum
starts below the minimum of the others and ends at or above it, whatever
its ends read against the best, so an end that rounding puts an ulp low
cannot hide the maximum.  There it asks the caller's ``meet`` where each
rising term first reaches each other term that the rising minimum has
reached at the piece's right end, on that piece alone, starts from the
latest of the rising terms' first meetings, and closes a bracket from
that start on the two adjacent floats where "rising minimum minus the
minimum of the others" changes sign.
A degenerate interval, lo == hi, is the case of one piece end: one
evaluation at that point.

It returns the best of a fixed set of candidates, the piece ends and, on
each piece it searches, the two floats around the meeting point, and breaks
ties toward the smallest argmax: on a plateau of the maximum, the first
float where the rising terms reach the others.  Each candidate's terms,
binding ones included, are read from the evaluation already made there.
No other point a pass probes can decide the result, so where the sign
change is unique the seed moves only the cost, not the reported numbers.
No randomness anywhere, so equal inputs give bitwise-equal results.

``sign_change`` locates, to adjacent floats, where a monotone predicate
first turns true; ``maximize_min`` and ``rate_functions._edges``, which
closes the budget cap and the link interval, use it.  The starts that
Newton's steps give mostly lie within a float or two of the change, those
of the closed forms of f4 and of the edges less often, so its first pass
covers only the seed and two floats either side: one call of at most 5
points, and a few more for a seed that misses.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from .errors import EmptyInterval

__all__ = ["OptimizationResult", "maximize_min", "sign_change"]

# The first pass of sign_change evaluates the seed and the _NEAR floats on
# either side of it, enough for a seed within a float of the change; in plain
# floats a point costs about a tenth of the fixed cost of a call of the
# branch.  A change beyond them gets a pass of points _STRIDE times further
# apart each (2^2, 2^5, 2^8, ... floats from the seed, on its side), and
# every later pass splits the bracket with _SPLITS points.
_NEAR = 2
_STRIDE = 8
_SPLITS = 8

# A term counts as binding when it sits within this distance of the minimum.
_BINDING_TOL = 1e-9

# A branch maps a list of points to its terms, ``{name: values}`` in binding
# order, one value per point.
Branch = Callable[[list], Mapping[str, Sequence[float]]]


@dataclass(frozen=True)
class OptimizationResult:
    """Argmax, value, and the terms attaining the minimum there."""

    rho: float
    value: float
    binding: tuple[str, ...]


def _least(columns, n: int) -> list:
    """The pointwise minimum of ``columns``, lists of values at n points."""
    if len(columns) == 1:
        return columns[0]
    return [min(values) for values in zip(*columns)] if columns else [math.inf] * n


def _binding_terms(terms: Mapping, j: int, value: float) -> tuple[str, ...]:
    """The terms within the binding tolerance of ``value`` at point ``j``."""
    tol = _BINDING_TOL * max(1.0, abs(value)) if math.isfinite(value) else 0.0
    return tuple(name for name, v in terms.items() if v[j] == value or v[j] <= value + tol)


def maximize_min(
    branch: Branch,
    ends: Sequence[float],
    peaks: Mapping[str, float],
    meet: Callable[[str, str, float, float], float],
) -> OptimizationResult:
    """Maximize the minimum of the terms of ``branch`` on [ends[0], ends[-1]].

    Each term named in ``peaks`` is nondecreasing up to its peak and
    nonincreasing after it; every other term is constant or nonincreasing.
    The interval is split at ``ends`` and at the peaks inside it, and the
    branch is evaluated at every piece end in one call.  On each piece
    [a, b], the terms peaking at b or later rise and the others do not; when
    the minimum of the rising terms starts below the others and ends at or
    above them, ``meet(up, other, a, b)`` estimates where the rising term
    ``up`` first reaches ``other`` on [a, b], for each rising term and each
    other term that minimum has reached at b: one above it there is above
    it on the whole piece, since it does not rise.  Each rising term first
    reaches the others where it meets the first of them, and their minimum
    where the last of them does, so the bracket (``sign_change``) starts on
    the largest over the rising terms of the least of their estimates.  An
    estimate may be off by many floats, or infinite, and none is asked for
    otherwise.  Returns the best of the piece ends and the two floats around
    each meeting point, which bound the maximum when the structure holds,
    ties going to the smallest rho, with their terms from the evaluations
    already made; no other point probed counts.  A degenerate interval,
    ``ends = (x, x)``, is one evaluation at x.
    """
    lo, hi = ends[0], ends[-1]
    if lo > hi:
        raise EmptyInterval(f"empty interval [{lo}, {hi}]")
    cuts = sorted({*ends, *(p for p in peaks.values() if lo < p < hi)})
    at = branch(cuts)  # the terms at the piece ends
    if not at:
        raise EmptyInterval("a branch needs at least one term")
    objective = _least(list(at.values()), len(cuts))
    # the best candidate, (value, rho, terms, index), ties going to the
    # smaller rho: first the best piece end, the first of equal ones
    top = max(objective)
    j = objective.index(top)
    best = (top, cuts[j], at, j)

    for i in range(len(cuts) - 1):
        a, b = cuts[i], cuts[i + 1]
        rising = [name for name in at if peaks.get(name, -math.inf) >= b]
        others = [name for name in at if name not in rising]

        def split(terms, n):
            """The minima of the rising terms and of the others, pointwise."""
            return _least([terms[name] for name in rising], n), _least([terms[name] for name in others], n)

        def reached(points):
            terms = branch(points)
            up, down = split(terms, len(points))
            log.append((points, terms, up, down))
            return [u >= d for u, d in zip(up, down)]

        up, down = split(at, len(cuts))
        if up[i + 1] >= down[i + 1] and not up[i] >= down[i]:
            met = [name for name in others if at[name][i + 1] <= up[i + 1]]
            start = max(min(meet(term, other, a, b) for other in met) for term in rising)
            # the search's evaluations: their points, terms and two minima
            log = [(cuts, at, up, down)]
            for x in sign_change(reached, a, b, start):
                points, terms, up, down = [e for e in log if x in e[0]][0]
                j = points.index(x)
                value = min(up[j], down[j])
                if value > best[0] or value == best[0] and x < best[1]:
                    best = (value, x, terms, j)

    value, rho, terms, j = best
    return OptimizationResult(rho=rho, value=value, binding=_binding_terms(terms, j, value))


def _ordinal(x: float) -> int:
    """Position of ``x`` among the floats: adjacent floats differ by 1."""
    i = struct.unpack("<q", struct.pack("<d", x))[0]
    return i if i >= 0 else -(i & 0x7FFF_FFFF_FFFF_FFFF)


def _floats(ordinals: list) -> list:
    """The floats at ``ordinals``."""
    n = len(ordinals)
    return list(struct.unpack(f"<{n}d", struct.pack(f"<{n}q", *(k if k >= 0 else -k - (1 << 63) for k in ordinals))))


def sign_change(
    reached: Callable[[list], Sequence[bool]],
    lo: float,
    hi: float,
    seed: float,
) -> tuple[float, float]:
    """The adjacent floats a < b in [lo, hi] where ``reached`` first turns
    from false to true, given that it is false at ``lo`` and true at ``hi``.

    ``reached`` maps a list of points to a list of booleans.  The first pass
    evaluates the seed and the 2 floats either side of it; a change beyond
    them gets one pass at 2^2, 2^5, 2^8, ... floats from the seed, on its
    side, and every later pass splits the bracket with 8 points.  A seed
    within a float of the change costs one call of at most 5 points, one
    up to 32 floats away two to four calls more, and every further factor
    of 9 in its distance about one call of 8 more.
    """
    a, b = _ordinal(lo), _ordinal(hi)
    k0 = _ordinal(min(max(seed, lo), hi)) if not math.isnan(seed) else a
    ks = list(range(max(k0 - _NEAR, a + 1), min(k0 + _NEAR, b - 1) + 1))
    first = True
    while ks:
        hits = reached(_floats(ks))
        i = hits.index(True) if True in hits else len(ks)
        a, b = ks[i - 1] if i else a, ks[i] if i < len(ks) else b
        if b - a <= 1:
            break
        ks = []
        if first and i in (0, len(hits)):
            # the change lies beyond the first pass: step out from the seed
            # on its side, _STRIDE times further each point
            side = 2 * _NEAR if i else -2 * _NEAR
            ks = sorted(k for k in (k0 + side * _STRIDE ** j for j in range(20)) if a < k < b)
        first = False
        if not ks:
            n = min(b - a - 1, _SPLITS)
            ks = [a + (b - a) * j // (n + 1) for j in range(1, n + 1)]
    a, b = _floats([a, b])
    return a, b
