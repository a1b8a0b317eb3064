"""Deterministic scalar optimization used by every bound in the package.

A branch is one callable that maps an array of evaluation points (or one
point) to its terms, ``{name: values}`` in binding order.  Every bound is the
maximum over an interval of the minimum of a branch's terms.  Which of the
two solvers below a branch uses is fixed by the proven structure of its
terms, as ``schemes`` sets out; no branch has a choice of solver.

``maximize_crossing`` solves the branches with a monotone envelope: one or
more rising terms (nondecreasing on the interval) and other terms that are
each constant or nonincreasing.  Their minimum rises with the rising
minimum until it first reaches the others and falls with them afterwards,
so the maximum lies at an end of the interval or where the rising minimum
first meets the others.  The solver evaluates the branch at both ends and,
when the two meet in between, closes a bracket from a seed for the meeting
point on the two adjacent floats where "rising minimum minus the minimum
of the others" changes sign.

``maximize_min`` handles the rest, whose terms are not monotone, and the
degenerate intervals: a uniform 4097-point grid locates the best bracket,
then a fixed number of zoom passes re-grid the bracket around the best
point, each with one call of the branch on the whole array.  A refined
candidate is only accepted when it beats the best point so far, so the
returned value never falls below the objective at any grid point.  The pass
count is fixed, so every call ends, even where float spacing is coarser
than the bracket.

Both solvers return the best point they evaluated, and break ties toward the
smallest argmax: on a plateau of the maximum, the first float where the
rising term reaches the others.  The binding terms are read from the
evaluation that found the optimum.  No randomness anywhere, so equal inputs
give bitwise-equal results.

``sign_change`` locates, to adjacent floats, where a monotone predicate
first turns true; ``maximize_crossing`` and ``rate_functions.f5_inverse``
use it.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .errors import EmptyInterval

__all__ = ["GRID_POINTS", "OptimizationResult", "maximize_min", "maximize_crossing", "sign_change"]

GRID_POINTS = 4097

# Each zoom pass re-grids the bracket with ZOOM_POINTS points and keeps the
# two neighbours of the best one, shrinking the bracket by (ZOOM_POINTS - 1) / 2
# = 128.  Six passes take the two-step grid bracket of an interval of length L
# to 1.1e-16 * L.  Five would reach 1.4e-14 * L, too coarse for the T1 interval
# of scenario 2, which is about 50 long when the powers differ by 1e4.
ZOOM_POINTS = 257
ZOOM_PASSES = 6
# a + k * step with the last point set to b is np.linspace(a, b, ZOOM_POINTS)
# bit for bit, without its per-call overhead.
_ZOOM_STEPS = np.arange(ZOOM_POINTS, dtype=float)

# The first pass of sign_change evaluates the seed and the floats at these
# offsets from it: every offset up to 32, then the powers of two beyond.
# Each later pass splits the bracket with _SPLITS points.
_LADDER = np.array(sorted({*range(-32, 33), *(s << j for j in range(6, 63) for s in (1, -1))}),
                   dtype=np.int64)
_SPLITS = 64

# A term counts as binding when it sits within this distance of the minimum.
_BINDING_TOL = 1e-9

Branch = Callable[[np.ndarray], Mapping[str, np.ndarray]]


@dataclass(frozen=True)
class OptimizationResult:
    """Argmax, value, and the terms attaining the minimum there."""

    rho: float
    value: float
    binding: tuple[str, ...]


def _min_of(values: Iterable):
    acc = None
    for v in values:
        acc = v if acc is None else np.minimum(acc, v)
    if acc is None:
        raise EmptyInterval("a branch needs at least one term")
    return acc


def _binding_terms(terms: Mapping, j: int, value: float) -> tuple[str, ...]:
    """The terms within the binding tolerance of ``value`` at index ``j`` of
    an evaluation (constants and scalar evaluations have no index)."""
    tol = _BINDING_TOL * max(1.0, abs(value)) if math.isfinite(value) else 0.0
    at = {name: float(v[j]) if np.ndim(v) else float(v) for name, v in terms.items()}
    return tuple(name for name, v in at.items() if v == value or v <= value + tol)


def maximize_min(
    branch: Branch,
    lo: float,
    hi: float,
    grid_points: int = GRID_POINTS,
) -> OptimizationResult:
    """Maximize the minimum of the terms of ``branch`` on [lo, hi].

    Guarantees: the result value is never below the objective at any grid
    point; with continuous terms the argmax is located to about 1e-16 of the
    interval length within its grid bracket, or to float spacing where that
    is coarser; deterministic for identical inputs.
    """
    if lo > hi:
        raise EmptyInterval(f"empty interval [{lo}, {hi}]")
    if lo == hi:
        terms = branch(lo)
        value = float(_min_of(terms.values()))
        return OptimizationResult(rho=lo, value=value, binding=_binding_terms(terms, 0, value))

    grid = np.linspace(lo, hi, grid_points)
    terms = branch(grid)
    on_grid = _min_of(terms.values())
    i = int(np.argmax(on_grid))  # first occurrence: smallest argmax on plateaus
    best_x, best_v, best_at = float(grid[i]), float(on_grid[i]), (terms, i)

    a = float(grid[i - 1]) if i > 0 else lo
    b = float(grid[i + 1]) if i + 1 < grid_points else hi
    for _ in range(ZOOM_PASSES):
        xs = a + _ZOOM_STEPS * ((b - a) / (ZOOM_POINTS - 1))
        xs[-1] = b
        terms = branch(xs)
        vs = _min_of(terms.values())
        j = int(np.argmax(vs))
        x, v = float(xs[j]), float(vs[j])
        if v > best_v or (v == best_v and x < best_x):
            best_x, best_v, best_at = x, v, (terms, j)
        a = float(xs[j - 1]) if j > 0 else a
        b = float(xs[j + 1]) if j + 1 < ZOOM_POINTS else b

    return OptimizationResult(rho=best_x, value=best_v, binding=_binding_terms(*best_at, best_v))


def maximize_crossing(
    branch: Branch,
    lo: float,
    hi: float,
    rising: str | Sequence[str],
    seed: Callable[[], float],
) -> OptimizationResult:
    """Maximize the minimum of the terms of ``branch`` on [lo, hi], where the
    term ``rising``, or each of the terms it names, is nondecreasing and
    every other term is constant or nonincreasing.

    The minimum of the rising terms rises too.  The branch is evaluated at
    lo and hi.  When the rising minimum starts below the others and ends at
    or above them, ``seed()`` estimates where it first reaches them, and
    starts a bracket on that float (``sign_change``); the estimate may be
    off by many floats, or infinite, and is not asked for otherwise.
    Returns the best point evaluated, ties going to the smallest rho: never
    below the objective at the two floats around the meeting point, which
    bound the maximum when the structure holds.
    """
    if lo > hi:
        raise EmptyInterval(f"empty interval [{lo}, {hi}]")
    rising = (rising,) if isinstance(rising, str) else tuple(rising)
    evaluations = []  # (points, terms, objective) of every call of the branch

    def reached(xs):
        terms = branch(xs)
        up = _min_of(terms[name] for name in rising)
        rest = [v for name, v in terms.items() if name not in rising]
        others = _min_of(rest) if rest else math.inf
        evaluations.append((xs, terms, np.minimum(up, others)))
        return up >= others

    at_ends = reached(np.array([lo, hi]))
    if at_ends[-1] and not at_ends[0]:
        sign_change(reached, lo, hi, seed())

    value = max(float(np.max(objective)) for _, _, objective in evaluations)
    rho, terms, j = min(
        ((float(points[j]), terms, j)
         for points, terms, objective in evaluations
         for j in np.flatnonzero(objective == value)),
        key=lambda candidate: candidate[0],
    )
    return OptimizationResult(rho=rho, value=value, binding=_binding_terms(terms, j, value))


def _ordinal(x: float) -> int:
    """Position of ``x`` among the floats: adjacent floats differ by 1."""
    i = struct.unpack("<q", struct.pack("<d", x))[0]
    return i if i >= 0 else -(i & 0x7FFF_FFFF_FFFF_FFFF)


def _floats(ordinals) -> np.ndarray:
    k = np.asarray(ordinals, dtype=np.int64)
    return np.where(k < 0, -k | np.int64(-(1 << 63)), k).view(np.float64)


def sign_change(
    reached: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    seed: float,
) -> tuple[float, float]:
    """The adjacent floats a < b in [lo, hi] where ``reached`` first turns
    from false to true, given that it is false at ``lo`` and true at ``hi``.

    ``reached`` maps an array of points to a boolean array.  The first pass
    evaluates a ladder about ``seed``, one float apart near it and doubling
    the distance further out; each later pass splits the bracket with 64
    points.  A seed within 32 floats of the change costs one call, and every
    further factor of 65 in its distance one more call.
    """
    a, b = _ordinal(lo), _ordinal(hi)
    k0 = _ordinal(min(max(seed, lo), hi)) if not math.isnan(seed) else a
    limit = 1 << 62  # keeps the offsets' bounds inside int64
    offsets = _LADDER[(_LADDER > max(a - k0, -limit)) & (_LADDER < min(b - k0, limit))]
    ks = k0 + offsets
    while True:
        if len(ks):
            hit = np.asarray(reached(_floats(ks)), dtype=bool)
            i = int(np.argmax(hit)) if hit.any() else len(ks)
            if i < len(ks):
                b = int(ks[i])
            if i > 0:
                a = int(ks[i - 1])
        if b - a <= 1:
            pair = _floats([a, b])
            return float(pair[0]), float(pair[1])
        n = min(b - a - 1, _SPLITS)
        ks = np.array([a + (b - a) * j // (n + 1) for j in range(1, n + 1)], dtype=np.int64)
