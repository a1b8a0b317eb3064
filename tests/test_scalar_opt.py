"""Grid + zoom-pass max-min optimizer and the bisection root finder."""

import math

import numpy as np
import pytest

from diamond_wiretap.errors import EmptyInterval, NoSignChange
from diamond_wiretap.scalar_opt import GRID_POINTS, bisect_root, maximize_min


def lin(a, b):
    return lambda x: a * np.asarray(x, dtype=float) + b


def test_tent_crossing():
    res = maximize_min([("up", lin(1.0, 0.0)), ("down", lin(-1.0, 1.0))], 0.0, 1.0)
    assert res.rho == pytest.approx(0.5, abs=1e-9)
    assert res.value == pytest.approx(0.5, abs=1e-9)
    assert set(res.binding) == {"up", "down"}


def test_binding_preserves_term_order():
    res = maximize_min([("down", lin(-1.0, 1.0)), ("up", lin(1.0, 0.0))], 0.0, 1.0)
    assert res.binding == ("down", "up")


def test_slack_term_not_binding():
    res = maximize_min(
        [("up", lin(1.0, 0.0)), ("down", lin(-1.0, 1.0)), ("high", lin(0.0, 5.0))],
        0.0, 1.0,
    )
    assert "high" not in res.binding


def test_monotone_argmax_at_endpoint():
    res = maximize_min([("down", lin(-2.0, 3.0))], 0.0, 1.0)
    assert res.rho == 0.0
    assert res.value == pytest.approx(3.0, abs=1e-12)
    res = maximize_min([("up", lin(0.5, 0.0))], -1.0, 1.0)
    assert res.rho == 1.0


def test_constant_ties_break_to_smallest():
    res = maximize_min([("const", lin(0.0, 2.0))], -0.7, 0.9)
    assert res.rho == -0.7
    assert res.value == 2.0


def test_two_equal_peaks_pick_left():
    def two_peaks(x):
        x = np.asarray(x, dtype=float)
        return -((np.abs(x) - 1.0) ** 2)

    res = maximize_min([("peaks", two_peaks)], -2.0, 2.0)
    assert res.rho == pytest.approx(-1.0, abs=1e-6)
    assert res.value == pytest.approx(0.0, abs=1e-12)


def test_refinement_beats_coarse_grid():
    # peak at 0.35 is off the 5-point grid; the zoom passes must find it
    res = maximize_min(
        [("up", lin(1.0, 0.0)), ("down", lin(-1.0, 0.7))], 0.0, 1.0, grid_points=5,
    )
    assert res.rho == pytest.approx(0.35, abs=1e-9)
    assert res.value == pytest.approx(0.35, abs=1e-9)


def test_never_below_any_grid_point():
    def wiggle(x):
        x = np.asarray(x, dtype=float)
        return np.sin(7.0 * x) + 0.3 * x

    res = maximize_min([("w", wiggle)], -2.0, 2.0)
    grid = np.linspace(-2.0, 2.0, GRID_POINTS)
    assert res.value >= float(np.max(wiggle(grid)))


def test_refinement_ends_where_float_spacing_exceeds_the_bracket(deadline):
    # near -12345.6 adjacent floats are 1.8e-12 apart, so the bracket cannot
    # shrink to 1e-12 there; the pass count alone must end the refinement
    def peak(x):
        return -np.abs(np.asarray(x, dtype=float) + 12345.6)

    with deadline(10.0):
        res = maximize_min([("peak", peak)], -2.0e4, 0.0)
    assert res.rho == pytest.approx(-12345.6, abs=1e-8)
    assert res.value >= float(np.max(peak(np.linspace(-2.0e4, 0.0, GRID_POINTS))))


def test_degenerate_interval():
    res = maximize_min([("up", lin(1.0, 0.0))], 0.25, 0.25)
    assert res.rho == 0.25
    assert res.value == pytest.approx(0.25, abs=1e-12)


def test_empty_inputs_raise():
    with pytest.raises(EmptyInterval):
        maximize_min([], 0.0, 1.0)
    with pytest.raises(EmptyInterval):
        maximize_min([("up", lin(1.0, 0.0))], 1.0, 0.0)


def test_minus_infinity_term():
    def bottom(x):
        return np.full_like(np.asarray(x, dtype=float), -np.inf)

    res = maximize_min([("up", lin(1.0, 0.0)), ("bottom", bottom)], 0.0, 1.0)
    assert res.value == -math.inf
    assert "bottom" in res.binding


def test_deterministic():
    def wiggle(x):
        x = np.asarray(x, dtype=float)
        return np.cos(3.0 * x) - 0.1 * x * x

    a = maximize_min([("w", wiggle)], -3.0, 3.0)
    b = maximize_min([("w", wiggle)], -3.0, 3.0)
    assert a.rho == b.rho and a.value == b.value and a.binding == b.binding


def test_bisect_root_sqrt2():
    root = bisect_root(lambda x: x * x - 2.0, 0.0, 2.0)
    assert root == pytest.approx(math.sqrt(2.0), abs=1e-10)


def test_bisect_root_decreasing():
    root = bisect_root(lambda x: 1.0 - x, 0.0, 3.0)
    assert root == pytest.approx(1.0, abs=1e-10)


def test_bisect_root_endpoint():
    assert bisect_root(lambda x: x, 0.0, 1.0) == 0.0
    assert bisect_root(lambda x: x - 1.0, 0.0, 1.0) == 1.0


def test_bisect_root_no_sign_change():
    with pytest.raises(NoSignChange):
        bisect_root(lambda x: x * x + 1.0, 0.0, 1.0)
