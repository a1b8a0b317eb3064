"""Deterministic scalar optimization used by every bound in the package.

Two entry points:

``maximize_min`` maximizes the pointwise minimum of named terms over a closed
interval: a uniform 4097-point grid locates the best bracket, then a fixed
number of zoom passes re-grid the bracket around the best point, each with one
call of the branch on the whole array.  A refined candidate is only accepted
when it beats the best point so far, so the returned value never falls below
the objective at any grid point.  Ties resolve toward the smallest argmax.  The pass count is
fixed, so every call ends, even where float spacing is coarser than the
bracket.  No randomness anywhere, so equal inputs give bitwise-equal results.

``bisect_root`` is plain interval bisection for monotone crossings.

A branch is one callable that maps an array of evaluation points (or one
point) to its terms, ``{name: values}`` in binding order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .errors import EmptyInterval, NoSignChange

__all__ = ["GRID_POINTS", "OptimizationResult", "maximize_min", "bisect_root"]

GRID_POINTS = 4097

# Each zoom pass re-grids the bracket with ZOOM_POINTS points and keeps the
# two neighbours of the best one, shrinking the bracket by (ZOOM_POINTS - 1) / 2
# = 128.  Six passes take the two-step grid bracket of an interval of length L
# to 1.1e-16 * L.  Five would reach 1.4e-14 * L, too coarse for the T1 interval
# of scenario 2, which is about 50 long when the powers differ by 1e4.
ZOOM_POINTS = 257
ZOOM_PASSES = 6

# A term counts as binding when it sits within this distance of the minimum.
_BINDING_TOL = 1e-9

Branch = Callable[[np.ndarray], Mapping[str, np.ndarray]]


@dataclass(frozen=True)
class OptimizationResult:
    """Argmax, value, and the terms attaining the minimum there."""

    rho: float
    value: float
    binding: tuple[str, ...]


def _min_of_terms(branch: Branch, rho):
    acc = None
    for v in branch(rho).values():
        acc = v if acc is None else np.minimum(acc, v)
    if acc is None:
        raise EmptyInterval("maximize_min needs at least one term")
    return acc


def _binding_terms(branch: Branch, rho: float, value: float) -> tuple[str, ...]:
    tol = _BINDING_TOL * max(1.0, abs(value)) if math.isfinite(value) else 0.0
    terms = {name: float(v) for name, v in branch(rho).items()}
    return tuple(name for name, v in terms.items() if v == value or v <= value + tol)


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
        value = float(_min_of_terms(branch, lo))
        return OptimizationResult(rho=lo, value=value, binding=_binding_terms(branch, lo, value))

    grid = np.linspace(lo, hi, grid_points)
    on_grid = _min_of_terms(branch, grid)
    i = int(np.argmax(on_grid))  # first occurrence: smallest argmax on plateaus
    best_x = float(grid[i])
    best_v = float(on_grid[i])

    a = float(grid[i - 1]) if i > 0 else lo
    b = float(grid[i + 1]) if i + 1 < grid_points else hi
    for _ in range(ZOOM_PASSES):
        xs = np.linspace(a, b, ZOOM_POINTS)
        vs = _min_of_terms(branch, xs)
        j = int(np.argmax(vs))
        x, v = float(xs[j]), float(vs[j])
        if v > best_v or (v == best_v and x < best_x):
            best_x, best_v = x, v
        a = float(xs[j - 1]) if j > 0 else a
        b = float(xs[j + 1]) if j + 1 < ZOOM_POINTS else b

    return OptimizationResult(rho=best_x, value=best_v, binding=_binding_terms(branch, best_x, best_v))


def bisect_root(
    fn: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float = 1e-12,
) -> float:
    """Root of ``fn`` on [lo, hi] by bisection, to a bracket width of ``tol``
    or to adjacent floats where their spacing is coarser than ``tol``.

    Requires a sign change across the interval (an endpoint sitting exactly
    at zero counts); raises NoSignChange otherwise.
    """
    if lo > hi:
        raise EmptyInterval(f"empty interval [{lo}, {hi}]")
    flo = float(fn(lo))
    fhi = float(fn(hi))
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0.0) == (fhi > 0.0):
        raise NoSignChange(f"no sign change on [{lo}, {hi}]: f(lo)={flo:.6g}, f(hi)={fhi:.6g}")
    mid = 0.5 * (lo + hi)
    while hi - lo > tol and lo < mid < hi:
        fmid = float(fn(mid))
        if fmid == 0.0:
            return mid
        if (fmid > 0.0) == (flo > 0.0):
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    return mid
