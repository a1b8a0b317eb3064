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
minimum of the others" changes sign.  A degenerate interval, lo == hi, is
one piece end: one evaluation at that point.

Each solve keeps one log of its evaluations, the piece ends' first, each
with its points, its terms and the minimum of all the terms at each point.
The candidates are the piece ends and, on each piece searched, the two
floats around the meeting point.  The result is the candidate with the
largest logged minimum, ties going to the smallest rho (on a plateau of the
maximum, the first float where the rising terms reach the others), and its
binding terms come from the same log entry.  No other point a pass probes
can decide the result, so where the sign change is unique the seed moves
only the cost, not the reported numbers.  No randomness anywhere, so equal
inputs give bitwise-equal results.

``sign_change`` locates, to adjacent floats, where a monotone predicate
first turns true; ``maximize_min`` and ``rate_functions._edges``, which
closes the budget cap and the link interval between floats it has
evaluated, use it.  The starts that Newton's steps give mostly lie within
a float or two of the change, those of the closed forms of f4 and of the
edges less often, so its first pass covers only the seed and two floats
either side: one call of at most 5 points, and a few more for a seed that
misses.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from operator import ge, itemgetter
from typing import Callable, Mapping, Sequence

from .errors import EmptyInterval

__all__ = ["OptimizationResult", "maximize_min", "sign_change"]

# The first pass of sign_change evaluates the seed and the _NEAR floats on
# either side of it, enough for a seed within a float of the change; in plain
# floats a point costs about a tenth of the fixed cost of a call of the
# branch.  A change beyond them gets one pass at the _STRIDE distances from
# the seed, on its side: 3 to 6 floats one by one, then 8, 11 and 16, where
# most misses lie, then ever wider steps that hold the 2^5, 2^8, ..., 2^20 of
# a stride of 8, so that no change up to 2^20 floats away costs more calls
# than that stride would.  Every later pass splits the bracket with _SPLITS points.
_NEAR = 2
_STRIDE = (3, 4, 5, 6, 8, 11, 16, 32, 256, 2048, 2**14, 2**17, 2**20, 2**40, 2**62)
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


def _binding_terms(terms: Mapping, j: int, value: float) -> tuple[str, ...]:
    """The terms within the binding tolerance of ``value`` at point ``j``."""
    tol = _BINDING_TOL * max(1.0, abs(value)) if math.isfinite(value) else 0.0
    return tuple(name for name, v in terms.items() if v[j] == value or v[j] <= value + tol)


def _minima(columns: list) -> list:
    """The pointwise minimum of one or more lists of values at the same points."""
    return list(map(min, *columns)) if len(columns) > 1 else columns[0]


def _evaluated(branch: Branch, points: list) -> tuple:
    """A log entry: ``points``, the terms of ``branch`` there and the minimum of all of them."""
    terms = branch(points)
    if not terms:
        raise EmptyInterval("a branch needs at least one term")
    return points, terms, _minima(list(terms.values()))


def _reached(entry: tuple, others: list) -> list:
    """At each point of a log entry, whether the minimum of the rising terms
    has reached that of ``others``: whether the minimum of all reaches it."""
    return list(map(ge, entry[2], _minima([entry[1][name] for name in others])))


def maximize_min(
    branch: Branch,
    ends: Sequence[float],
    peaks: Mapping[str, float],
    meet: Callable[[str, str, float, float], float],
) -> OptimizationResult:
    """Maximize the minimum of the terms of ``branch`` on [ends[0], ends[-1]],
    split at ``ends`` and at the peaks inside it, as the module docstring sets out.

    Each term named in ``peaks`` is nondecreasing up to its peak and
    nonincreasing after it; every other term is constant or nonincreasing.
    On a piece [a, b] the terms peaking at b or later rise.  Where their
    minimum starts below the others and ends at or above them, ``meet(up,
    other, a, b)`` estimates where the rising term ``up`` first reaches
    ``other`` on [a, b], for each rising term and each other term that
    minimum has reached at b (one above it there is above it on the whole
    piece, since it does not rise).  The search starts on the largest over
    the rising terms of the least of their estimates, where the rising
    minimum first reaches the others.  An estimate may be off by many
    floats, or infinite, and none is asked for otherwise.  The result is
    the candidate with the largest logged minimum, ties going to the
    smallest rho, with its binding terms from the same log entry.
    """
    lo, hi = ends[0], ends[-1]
    if lo > hi:
        raise EmptyInterval(f"empty interval [{lo}, {hi}]")
    cuts = sorted({*ends, *(p for p in peaks.values() if lo < p < hi)})
    log = [_evaluated(branch, cuts)]  # every evaluation: its points, terms and minima
    _, at, least = log[0]
    # the candidates in increasing rho, as (minimum, log entry, index): the
    # first of the largest minima is the result
    candidates = [(least[0], 0, 0)]
    for i in range(len(cuts) - 1):
        a, b = cuts[i], cuts[i + 1]
        rising = [name for name in at if peaks.get(name, -math.inf) >= b]
        others = [name for name in at if name not in rising]
        if others and (ended := _reached(log[0], others))[i + 1] and not ended[i]:
            up = min(at[name][i + 1] for name in rising)
            met = [name for name in others if at[name][i + 1] <= up]
            start = max(min(meet(term, other, a, b) for other in met) for term in rising)

            def reached(points):
                log.append(_evaluated(branch, points))
                return _reached(log[-1], others)

            for x in sign_change(reached, a, b, start):
                e = next(e for e, entry in enumerate(log) if x in entry[0])
                j = log[e][0].index(x)
                candidates.append((log[e][2][j], e, j))
        candidates.append((least[i + 1], 0, i + 1))

    value, e, j = max(candidates, key=itemgetter(0))
    return OptimizationResult(rho=log[e][0][j], value=value, binding=_binding_terms(log[e][1], j, value))


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
    them gets one pass at 3, 4, 5, 6, 8, 11, 16, 32, 256, 2048, 2^14, 2^17,
    2^20, 2^40 and 2^62 floats from the seed, on its side, and every later
    pass splits the bracket with 8 points.  A seed within two floats of the
    change costs one call of at most 5 points, one 3 to 6 floats away two
    calls, one up to 32 away three or four, and every further factor of 9 in
    its distance about one call of 8 points more.
    """
    a, b = _ordinal(lo), _ordinal(hi)
    k0 = _ordinal(min(max(seed, lo), hi)) if not math.isnan(seed) else a
    ks = list(range(max(k0 - _NEAR, a + 1), min(k0 + _NEAR, b - 1) + 1))
    steps = _STRIDE  # for the first pass alone
    while ks:
        hits = reached(_floats(ks))
        i = hits.index(True) if True in hits else len(ks)
        a, b = ks[i - 1] if i else a, ks[i] if i < len(ks) else b
        if b - a <= 1:
            break
        # a first pass that misses the change steps out from the seed on its side
        ks = sorted(k for k in (k0 + d if i else k0 - d for d in steps) if a < k < b)
        steps = ()
        if not ks:
            n = min(b - a - 1, _SPLITS)
            ks = [a + (b - a) * j // (n + 1) for j in range(1, n + 1)]
    return tuple(_floats([a, b]))
