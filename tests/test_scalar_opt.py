"""The crossing solver for branches whose terms rise up to a peak and fall
after it, degenerate intervals included, and the float-exact sign-change
locator."""

import math

import numpy as np
import pytest

from diamond_wiretap.errors import EmptyInterval
from diamond_wiretap import scalar_opt
from diamond_wiretap.scalar_opt import OptimizationResult, _floats, _ordinal, maximize_min, sign_change

RISES = math.inf  # the peak of a term that rises on the whole interval


def lin(a, b):
    return lambda x: a * x + b


def branch(**terms):
    """A branch over the named term functions of one point, in keyword order:
    a list of points to ``{name: values}``."""
    return lambda xs: {name: [fn(x) for x in xs] for name, fn in terms.items()}


def never(*_):
    """A ``meet`` for a solve that must not search for a meeting point."""
    raise AssertionError("no meeting point inside the interval")


def test_tent_crossing():
    # one term that peaks inside the interval: the peak is a piece end
    def tent(x):
        return min(x, 1.0 - x)

    res = maximize_min(branch(tent=tent), (0.0, 1.0), {"tent": 0.5}, lambda *_: math.nan)
    assert (res.rho, res.value) == (0.5, 0.5)
    assert res.binding == ("tent",)


def test_binding_preserves_term_order():
    res = maximize_min(branch(down=lin(-1.0, 1.0), up=lin(1.0, 0.0)), (0.5, 0.5), {"up": RISES}, never)
    assert res.binding == ("down", "up")


def test_slack_term_not_binding():
    res = maximize_min(branch(up=lin(1.0, 0.0), down=lin(-1.0, 1.0), high=lin(0.0, 5.0)), (0.5, 0.5), {}, never)
    assert res.binding == ("up", "down")


def test_monotone_argmax_at_endpoint():
    res = maximize_min(branch(down=lin(-2.0, 3.0)), (0.0, 1.0), {}, lambda *_: math.nan)
    assert (res.rho, res.value) == (0.0, 3.0)
    res = maximize_min(branch(up=lin(0.5, 0.0)), (-1.0, 1.0), {"up": RISES}, lambda *_: math.nan)
    assert (res.rho, res.value) == (1.0, 0.5)


def test_constant_ties_break_to_smallest():
    res = maximize_min(branch(const=lin(0.0, 2.0)), (-0.7, 0.9), {}, lambda *_: math.nan)
    assert (res.rho, res.value) == (-0.7, 2.0)
    res = maximize_min(branch(const=lin(0.0, 2.0)), (-0.7, 0.9), {"const": RISES}, lambda *_: math.nan)
    assert (res.rho, res.value) == (-0.7, 2.0)


def test_searches_only_the_pieces_where_the_rising_minimum_meets_the_others():
    # the terms peak at 0.2 and 0.6; only on [0.2, 0.6] does the minimum of
    # the rising terms start below the others and end at or above them:
    # up meets the falling half of left at 0.45
    calls = []

    def left(x):
        return 0.7 - abs(x - 0.2)

    def right(x):
        return 2.0 - abs(x - 0.6)

    def meet(up, other, a, b):
        calls.append((up, other, a, b))
        return 0.55

    three = branch(up=lin(1.0, 0.0), left=left, right=right)
    res = maximize_min(three, (0.0, 1.0), {"up": RISES, "left": 0.2, "right": 0.6}, meet)
    assert calls == [("up", "left", 0.2, 0.6), ("right", "left", 0.2, 0.6)]
    assert res.rho == pytest.approx(0.45, abs=1e-15)
    assert res.value == pytest.approx(0.45, abs=1e-15)
    assert res.binding == ("up", "left")


def test_an_end_an_ulp_low_by_rounding_does_not_hide_the_far_piece():
    # up is declared rising but reads one ulp lower at the cut 0.5 than at 0,
    # as rounding can make it, so 0 is the only best end; the maximum lies on
    # the far piece [0.5, 1], where up meets down at 0.725.  high falls but
    # stays above up, so no meeting point with it is asked for
    calls = []

    def up(x):
        return math.nextafter(1.0, 0.0) if x == 0.5 else max(1.0, x + 0.5)

    def meet(up, other, a, b):
        calls.append((up, other, a, b))
        return 0.725

    three = branch(up=up, down=lin(-1.0, 1.95), high=lin(-1.0, 3.0))
    res = maximize_min(three, (0.0, 0.5, 1.0), {"up": RISES}, meet)
    assert calls == [("up", "down", 0.5, 1.0)]
    assert res.rho == pytest.approx(0.725, abs=1e-15)
    assert res.value == pytest.approx(1.225, abs=1e-15)
    assert res.binding == ("up", "down")


def test_a_probe_past_the_meeting_point_does_not_decide_the_result():
    # level is constant but reads one ulp high two floats past the meeting
    # point 0.5, as rounding can make it; the first pass, seeded at 0.5,
    # probes that float, yet the result is the better of the two floats
    # around the meeting point
    past = _floats([_ordinal(0.5) + 2])[0]
    points = []

    def level(x):
        points.append(x)
        return math.nextafter(0.5, 1.0) if x == past else 0.5

    res = maximize_min(branch(up=lin(1.0, 0.0), level=level), (0.0, 1.0), {"up": RISES}, lambda *_: 0.5)
    assert past in points
    assert (res.rho, res.value, res.binding) == (0.5, 0.5, ("up", "level"))


def test_the_result_does_not_depend_on_the_seed():
    # level is constant but reads one ulp high at every third float between
    # the meeting point 0.5 and 0.75, so the floats each seed's passes probe
    # differ in what they read; the result comes from the two floats around
    # the meeting point whatever the seed
    def level(x):
        return math.nextafter(0.5, 1.0) if 0.5 < x < 0.75 and _ordinal(x) % 3 == 0 else 0.5

    two = branch(up=lin(1.0, 0.0), level=level)
    k = _ordinal(0.5)
    seeds = _floats([k + j for j in range(-3, 4)] + [k + 2**20])
    runs = {maximize_min(two, (0.0, 1.0), {"up": RISES}, lambda *_, s=s: s) for s in seeds}
    assert runs == {OptimizationResult(rho=0.5, value=0.5, binding=("up", "level"))}


def test_a_searched_float_that_ties_a_later_piece_end_wins_with_its_own_binding():
    # up meets level at 0.5 on the piece [0, 0.75]; the piece ends 0.75 and 1
    # read the same minimum 0.5, bound by level alone
    two = branch(up=lin(1.0, 0.0), level=lin(0.0, 0.5))
    res = maximize_min(two, (0.0, 0.75, 1.0), {"up": RISES}, lambda *_: 0.5)
    assert res == OptimizationResult(rho=0.5, value=0.5, binding=("up", "level"))


def test_a_piece_end_that_ties_a_later_searched_float_wins_with_its_own_binding():
    # the rising term is flat at 0.5 and meets down at 0.75, so the piece end
    # 0.25, bound by up alone, and both floats around 0.75 read 0.5
    two = branch(up=lin(0.0, 0.5), down=lin(-1.0, 1.25))
    res = maximize_min(two, (0.25, 1.0), {"up": RISES}, lambda *_: 0.75)
    assert res == OptimizationResult(rho=0.25, value=0.5, binding=("up",))


def test_a_searched_float_that_beats_every_piece_end():
    # up meets down at 0.5, on the second piece; the ends read 0, 0.25 and 0
    three = branch(up=lin(1.0, 0.0), down=lin(-1.0, 1.0), high=lin(0.0, 2.0))
    res = maximize_min(three, (0.0, 0.25, 1.0), {"up": RISES}, lambda *_: 0.5)
    assert res == OptimizationResult(rho=0.5, value=0.5, binding=("up", "down"))


def test_degenerate_interval():
    # one piece end and no piece: one evaluation of the branch, at that point
    calls = []

    def up(xs):
        calls.append(list(xs))
        return {"up": list(xs)}

    res = maximize_min(up, (0.25, 0.25), {"up": RISES}, never)
    assert (res.rho, res.value, res.binding) == (0.25, 0.25, ("up",))
    assert calls == [[0.25]]


def test_empty_inputs_raise():
    with pytest.raises(EmptyInterval):
        maximize_min(branch(), (0.5, 0.5), {}, never)
    with pytest.raises(EmptyInterval):
        maximize_min(branch(), (0.0, 1.0), {}, never)
    with pytest.raises(EmptyInterval):
        maximize_min(branch(up=lin(1.0, 0.0)), (1.0, 0.0), {"up": RISES}, never)


def test_minus_infinity_term():
    def bottom(x):
        return -math.inf

    res = maximize_min(branch(up=lin(1.0, 0.0), bottom=bottom), (0.5, 0.5), {"up": RISES}, never)
    assert res.value == -math.inf
    assert "bottom" in res.binding


def test_deterministic():
    def hump(x):
        return math.cos(3.0 * x)

    two = branch(up=lin(0.7, 0.1), hump=hump)
    runs = [maximize_min(two, (-1.0, 1.0), {"up": RISES, "hump": 0.0}, lambda *_: 0.3) for _ in range(2)]
    assert runs[0] == runs[1]


def test_crossing_tent():
    tent = branch(up=lin(1.0, 0.0), down=lin(-1.0, 1.0))
    res = maximize_min(tent, (0.0, 1.0), {"up": RISES}, lambda *_: 0.5)
    assert res.rho == 0.5 and res.value == 0.5
    assert res.binding == ("up", "down")


def test_crossing_polishes_a_far_seed_to_adjacent_floats():
    # up meets down at 1/3, which no float hits exactly; found by stepping
    # float by float, b is the first float where up >= down and a the last before
    b = 1.0 / 3.0
    while b < -2.0 * b + 1.0:
        b = math.nextafter(b, math.inf)
    while math.nextafter(b, -math.inf) >= -2.0 * math.nextafter(b, -math.inf) + 1.0:
        b = math.nextafter(b, -math.inf)
    a = math.nextafter(b, -math.inf)
    best = max((a, b), key=lambda x: min(x, -2.0 * x + 1.0))
    tent = branch(up=lin(1.0, 0.0), down=lin(-2.0, 1.0))
    for seed in (0.3, 0.9, math.inf, -math.inf, math.nan):
        res = maximize_min(tent, (0.0, 1.0), {"up": RISES}, lambda *_: seed)
        assert res.rho == best, seed
        assert res.value == min(best, -2.0 * best + 1.0), seed


def test_crossing_at_the_ends():
    # the rising term already above the other at lo, or still below it at hi
    res = maximize_min(branch(up=lin(1.0, 2.0), down=lin(-1.0, 1.0)), (0.0, 1.0), {"up": RISES}, lambda *_: -1.5)
    assert (res.rho, res.value) == (0.0, 1.0)
    res = maximize_min(branch(up=lin(1.0, -2.0), down=lin(-1.0, 1.0)), (0.0, 1.0), {"up": RISES}, lambda *_: 1.5)
    assert (res.rho, res.value) == (1.0, -1.0)


def test_crossing_with_two_rising_terms():
    # min(up, steep) = steep below 0.5 meets down where 3x - 1 = 0.8 - x, at 0.45
    two = branch(up=lin(1.0, 0.0), steep=lin(3.0, -1.0), down=lin(-1.0, 0.8))
    res = maximize_min(two, (0.0, 1.0), {"up": RISES, "steep": RISES}, lambda *_: 0.45 + 1e-9)
    grid = np.linspace(0.0, 1.0, 4097)
    assert res.value >= np.max(np.minimum.reduce([grid, 3.0 * grid - 1.0, 0.8 - grid]))
    assert res.rho == pytest.approx(0.45, abs=1e-15)
    assert res.binding == ("steep", "down")


def test_crossing_asks_for_a_seed_only_where_the_terms_meet():
    res = maximize_min(branch(up=lin(1.0, 2.0), down=lin(-1.0, 1.0)), (0.0, 1.0), {"up": RISES}, never)
    assert (res.rho, res.value) == (0.0, 1.0)


def test_crossing_plateau_picks_the_first_float_reaching_it():
    flat = branch(up=lin(1.0, 0.0), level=lin(0.0, 0.3))
    res = maximize_min(flat, (-1.0, 1.0), {"up": RISES}, lambda *_: 0.3 + 1e-13)
    assert res.rho == 0.3 and res.value == 0.3
    assert res.binding == ("up", "level")


def test_crossing_degenerate_and_empty_intervals():
    tent = branch(up=lin(1.0, 0.0), down=lin(-1.0, 1.0))
    res = maximize_min(tent, (0.25, 0.25), {"up": RISES}, lambda *_: 0.5)
    assert (res.rho, res.value) == (0.25, 0.25)
    with pytest.raises(EmptyInterval):
        maximize_min(tent, (1.0, 0.0), {"up": RISES}, lambda *_: 0.5)


def test_sign_change_returns_adjacent_floats():
    a, b = sign_change(lambda xs: [x * x >= 2.0 for x in xs], 0.0, 2.0, 1.0)
    assert b == math.nextafter(a, math.inf)
    assert a * a < 2.0 <= b * b


def test_sign_change_ends_where_float_spacing_is_coarse(deadline):
    # near 1.4e5 adjacent floats are 2.9e-11 apart, and no float is an exact root
    with deadline(10.0):
        a, b = sign_change(lambda xs: [x * x - 2e10 - 0.123 >= 0.0 for x in xs], 0.0, 2e5, 0.0)
    assert b == math.nextafter(a, math.inf)
    assert a == pytest.approx(math.sqrt(2e10 + 0.123), rel=1e-15)


def test_sign_change_across_zero_and_from_a_nan_seed():
    a, b = sign_change(lambda xs: [x >= 1e-300 for x in xs], -1.0, 1.0, math.nan)
    assert a < 1e-300 <= b and b == math.nextafter(a, math.inf)
    a, b = sign_change(lambda xs: [x > -0.0 for x in xs], -1.0, 1.0, 0.5)
    assert a == 0.0 and b == 5e-324


def counted(predicate):
    """``reached`` for ``predicate`` of one float, and the number of points
    of each of its calls."""
    calls = []

    def reached(xs):
        calls.append(len(xs))
        return [predicate(x) for x in xs]
    return reached, calls


def brute_force(predicate, k_from, k_to):
    """The adjacent floats where ``predicate`` first turns true, found by
    evaluating it at every positive float with an ordinal in [k_from, k_to]."""
    xs = np.arange(k_from, k_to + 1, dtype=np.int64).view(np.float64)
    i = int(np.argmax(predicate(xs)))
    assert i > 0 and predicate(xs[i])
    return float(xs[i - 1]), float(xs[i])


def above_root_two(x):
    return x * x >= 2.0


ROOT_TWO = _ordinal(math.sqrt(2.0))


@pytest.mark.parametrize("seed", [math.nextafter(math.sqrt(2.0), 0.0), math.sqrt(2.0)])
def test_a_seed_on_the_sign_change_costs_one_call_of_five_points(seed):
    reached, calls = counted(above_root_two)
    a, b = sign_change(reached, 1.0, 2.0, seed)
    assert (a, b) == brute_force(above_root_two, ROOT_TWO - 8, ROOT_TWO + 8)
    assert seed in (a, b)
    assert len(calls) == 1 and calls[0] <= 5


@pytest.mark.parametrize("distance", [3, 17, 10**6, -3, -17, -10**6])
def test_a_far_seed_finds_the_floats_of_a_brute_force_scan(distance):
    reached, calls = counted(above_root_two)
    seed = _floats([ROOT_TWO + distance])[0]
    a, b = sign_change(reached, 1.0, 2.0, seed)
    k_from, k_to = sorted((ROOT_TWO, ROOT_TWO + distance))
    assert (a, b) == brute_force(above_root_two, k_from - 8, k_to + 8)
    assert len(calls) <= 5 if abs(distance) <= 32 else len(calls) <= 12


def test_a_nan_seed_finds_the_floats_of_a_brute_force_scan():
    # with no seed the first pass starts at lo, a thousand floats below the change
    lo, hi = _floats([ROOT_TWO - 1000, ROOT_TWO + 1000])
    reached, _ = counted(above_root_two)
    assert sign_change(reached, lo, hi, math.nan) == brute_force(above_root_two, ROOT_TWO - 1000, ROOT_TWO + 1000)


# the step-out of a stride of 8: 4, 32, 256, ... floats from the seed
STRIDE_OF_EIGHT = tuple(4 * 8**j for j in range(20))


def calls_and_points(k):
    """The calls and points of ``sign_change`` on [0.25, 0.75] from the seed
    0.5, for a predicate that turns true k floats past the seed."""
    change = _floats([_ordinal(0.5) + k])[0]
    reached, calls = counted(lambda x: x >= change)
    assert sign_change(reached, 0.25, 0.75, 0.5) == (math.nextafter(change, 0.0), change)
    return len(calls), sum(calls)


def total(ks):
    """The calls and the points of ``calls_and_points`` summed over ``ks``."""
    costs = [calls_and_points(k) for k in ks]
    return sum(c for c, _ in costs), sum(p for _, p in costs)


def test_a_seed_three_to_ten_floats_off_costs_at_most_twenty_calls_and_160_points(monkeypatch):
    calls, points = total(range(3, 11))
    assert calls <= 20 and points <= 160
    monkeypatch.setattr(scalar_opt, "_STRIDE", STRIDE_OF_EIGHT)
    assert total(range(3, 11)) == (30, 238)


def test_no_change_up_to_two_to_the_twenty_floats_away_costs_more_calls_than_a_stride_of_eight(monkeypatch):
    # every distance up to 4096, every one within two floats of a step of
    # either step-out, and every 1009th beyond
    steps = [s + d for s in (*scalar_opt._STRIDE, *STRIDE_OF_EIGHT) if s <= 2**20 for d in range(-2, 3)]
    ks = sorted({*range(3, 4097), *range(4097, 2**20 + 1, 1009), *(k for k in steps if 3 <= k <= 2**20)})
    now = [calls_and_points(k)[0] for k in ks]
    monkeypatch.setattr(scalar_opt, "_STRIDE", STRIDE_OF_EIGHT)
    assert [k for k, calls in zip(ks, now) if calls > calls_and_points(k)[0]] == []
