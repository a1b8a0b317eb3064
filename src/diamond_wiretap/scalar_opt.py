"""Deterministic scalar optimization used by every bound in the package.

A branch is one callable that maps an array of evaluation points (or one
point) to its terms, ``{name: values}`` in binding order.  Every bound is the
maximum over an interval of the minimum of a branch's terms.  Every branch
and scheme has the structure ``schemes`` sets out, and ``maximize_crossing``
solves them all.

``maximize_crossing`` takes, for each term that rises, the point where it
stops rising and starts to fall (+inf for a term that rises to the end);
every other term is constant or nonincreasing.  Split at those peaks, and
at any further ends the caller names, the interval falls into pieces on
each of which every term is monotone.  On a piece, the minimum rises with
the minimum of the rising terms until that first meets the minimum of the
others, and falls with the others afterwards, so its maximum lies at an end
or at that meeting point.  The solver evaluates the branch at every piece
end in one call.  The minimum of the terms is quasi-concave on the whole
interval, since each term is, so the maximum lies on a piece beside the
best end; only there, when the two minima meet inside the piece, does it
close a bracket, from a seed for the meeting point, on the two adjacent
floats where "rising minimum minus the minimum of the others" changes sign.

``maximize_min`` evaluates the degenerate intervals, lo == hi.

Both return the best point they evaluated, and break ties toward the
smallest argmax: on a plateau of the maximum, the first float where the
rising terms reach the others.  The binding terms are read from the
evaluation that found the optimum.  No randomness anywhere, so equal inputs
give bitwise-equal results.

``sign_change`` locates, to adjacent floats, where a monotone predicate
first turns true; ``maximize_crossing``, ``rate_functions.f5_inverse`` and
``rate_functions.link_interval`` use it.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .errors import EmptyInterval

__all__ = ["OptimizationResult", "maximize_min", "maximize_crossing", "sign_change"]

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


def maximize_min(branch: Branch, lo: float, hi: float) -> OptimizationResult:
    """The minimum of the terms of ``branch`` on the degenerate interval
    [lo, hi], lo == hi: one evaluation at that point."""
    if lo > hi:
        raise EmptyInterval(f"empty interval [{lo}, {hi}]")
    if lo < hi:
        raise ValueError(f"maximize_min evaluates a single point, got [{lo}, {hi}]")
    terms = branch(lo)
    value = float(_min_of(terms.values()))
    return OptimizationResult(rho=lo, value=value, binding=_binding_terms(terms, 0, value))


def maximize_crossing(
    branch: Branch,
    ends: Sequence[float],
    peaks: Mapping[str, float],
    seed: Callable[[float, float, tuple[str, ...], tuple[str, ...]], float],
) -> OptimizationResult:
    """Maximize the minimum of the terms of ``branch`` on [ends[0], ends[-1]].

    Each term named in ``peaks`` is nondecreasing up to its peak and
    nonincreasing after it; every other term is constant or nonincreasing.
    The interval is split at ``ends`` and at the peaks inside it, and the
    branch is evaluated at every piece end in one call.  On a piece [a, b]
    beside the best end, the terms peaking at b or later rise and the others
    do not; when the minimum of the rising terms starts below the others and
    ends at or above them, ``seed(a, b, rising, others)`` estimates where it
    first reaches them, and starts a bracket on that float (``sign_change``);
    the estimate may be off by many floats, or infinite, and is not asked
    for otherwise.  Returns the best point evaluated, ties going to the
    smallest rho: never below the objective at the two floats around each
    meeting point searched, which bound the maximum when the structure
    holds.
    """
    lo, hi = ends[0], ends[-1]
    if lo > hi:
        raise EmptyInterval(f"empty interval [{lo}, {hi}]")
    cuts = sorted({*ends, *(p for p in peaks.values() if lo < p < hi)})
    xs = np.array(cuts)
    terms = branch(xs)
    # each term at the piece ends, in plain floats
    at = {name: v.tolist() if np.ndim(v) else [float(v)] * len(cuts) for name, v in terms.items()}
    objective = [min(values) for values in zip(*at.values())]
    evaluations = [(xs, terms, np.array(objective))]  # (points, terms, objective) of every call of the branch
    top = max(objective)

    for i in range(len(cuts) - 1):
        if top not in (objective[i], objective[i + 1]):
            continue  # only the pieces beside a best end can hold the maximum
        a, b = cuts[i], cuts[i + 1]
        rising = tuple(name for name in terms if peaks.get(name, -math.inf) >= b)
        others = tuple(name for name in terms if name not in rising)

        def reached_at(j):
            up = min((at[name][j] for name in rising), default=math.inf)
            return up >= min((at[name][j] for name in others), default=math.inf)

        def reached(points):
            values = branch(points)
            up = _min_of(values[name] for name in rising) if rising else math.inf
            down = _min_of(values[name] for name in others) if others else math.inf
            evaluations.append((points, values, np.minimum(up, down)))
            return up >= down

        if reached_at(i + 1) and not reached_at(i):
            sign_change(reached, a, b, seed(a, b, rising, others))

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
