"""Closed-form rate functions: frozen values, domains, and shape handling.

The frozen constants were computed with an independent 40-digit
implementation of the same closed forms and rounded to 12 significant
digits; tests compare at 1e-9 absolute.
"""

import dataclasses
import decimal
import math
import sys

import numpy as np
import pytest

from diamond_wiretap import rate_functions as rf
from diamond_wiretap import scenario_one as s1
from diamond_wiretap import scenario_two as s2
from diamond_wiretap import schemes
from diamond_wiretap.errors import DomainError, ParameterError
from diamond_wiretap.rate_functions import ChannelParams, RandomnessBudget
from diamond_wiretap.scalar_opt import sign_change

from conftest import reference_rates, rho_bar

SYM = ChannelParams.symmetric(10.0, 1.5, 0.1)
ASYM = ChannelParams(p1=4.0, p2=1.0, c1=1.0, c2=1.0, g=0.1)

# independently computed spot values
F1_SPOT = 1.98219916638        # f1 at p2=10, c1=1.5, rho=0.9512492
F3_SPOT = 1.79248125036        # f3 at c1=c2=1, rho=0.5
F4_SPOT = 2.19615871139        # f4 at p=10 symmetric, rho=0
F5_SPOT = 0.792481250361       # f5 at p=10 symmetric, g=0.1, rho=0
F6_SPOT = 0.750072407459       # f6 at p=10 symmetric, g=0.1, rho=0.67819
F5_ASYM_NEG1 = 0.068751761875  # f5 at p1=4, p2=1, g=0.1, rho=-1
RHO_STAR_10 = 0.951249219725
RHO_STAR_100 = 0.995012499922


def test_params_validation():
    with pytest.raises(ParameterError):
        ChannelParams(p1=0.0, p2=1.0, c1=1.0, c2=1.0, g=0.1)
    with pytest.raises(ParameterError):
        ChannelParams(p1=1.0, p2=-2.0, c1=1.0, c2=1.0, g=0.1)
    with pytest.raises(ParameterError):
        ChannelParams(p1=1.0, p2=1.0, c1=-0.5, c2=1.0, g=0.1)
    with pytest.raises(ParameterError):
        ChannelParams(p1=1.0, p2=1.0, c1=1.0, c2=1.0, g=1.0)
    with pytest.raises(ParameterError):
        ChannelParams(p1=1.0, p2=1.0, c1=1.0, c2=1.0, g=-0.1)
    with pytest.raises(ParameterError):
        ChannelParams(p1=math.nan, p2=1.0, c1=1.0, c2=1.0, g=0.1)
    # s(1) = P1 + P2 + 2*sqrt(P1*P2), as the kernel forms it, is inf here:
    # f4 - f5 at rho = 1 would read inf - inf
    for p1, p2 in ((4.5e307, 4.5e307), (1e308, 1e308), (1.5e308, 1e307)):
        with pytest.raises(ParameterError, match="overflows"):
            ChannelParams(p1=p1, p2=p2, c1=1.0, c2=1.0, g=0.5)
    # g = 0 (no eavesdropper) is allowed
    ChannelParams(p1=1.0, p2=1.0, c1=0.0, c2=0.0, g=0.0)


def test_flags_are_no_numbers_and_minus_zero_is_stored_as_zero():
    with pytest.raises(ParameterError, match="c1 must be a finite number"):
        ChannelParams(2.0, 2.0, True, 0.0, 0.1)
    with pytest.raises(ParameterError, match="p1 must be a finite number"):
        ChannelParams(True, 2, True, 0, False)
    with pytest.raises(ParameterError, match="r_prime must be a number"):
        RandomnessBudget(True)
    p, budget = ChannelParams(1.0, 1.0, -0.0, -0.0, -0.0), RandomnessBudget(-0.0)
    assert all(math.copysign(1.0, v) == 1.0 for v in (p.c1, p.c2, p.g, budget.r_prime))


def test_symmetric_constructor():
    p = ChannelParams.symmetric(10.0, 1.5, 0.1)
    assert p.p1 == p.p2 == 10.0
    assert p.c1 == p.c2 == 1.5
    assert p.is_symmetric
    assert not ASYM.is_symmetric


def test_budget_validation():
    assert RandomnessBudget.unbounded().is_unbounded
    b = RandomnessBudget.finite(2.0)
    assert not b.is_unbounded
    assert b.r_prime == 2.0
    with pytest.raises(ParameterError):
        RandomnessBudget(-1.0)
    with pytest.raises(ParameterError, match="finite budget requires a finite rate, got inf"):
        RandomnessBudget.finite(math.inf)
    with pytest.raises(ParameterError, match="r_prime must be a number, got '0.3'"):
        RandomnessBudget("0.3")


def test_frozen_spot_values():
    assert rf.f1(SYM, 0.9512492) == pytest.approx(F1_SPOT, abs=1e-9)
    assert rf.f2(SYM, 0.9512492) == pytest.approx(F1_SPOT, abs=1e-9)
    p = ChannelParams.symmetric(10.0, 1.0, 0.1)
    assert rf.f3(p, 0.5) == pytest.approx(F3_SPOT, abs=1e-9)
    assert rf.f4(SYM, 0.0) == pytest.approx(F4_SPOT, abs=1e-9)
    assert rf.f5(SYM, 0.0) == pytest.approx(F5_SPOT, abs=1e-9)
    assert rf.f6(SYM, 0.67819) == pytest.approx(F6_SPOT, abs=1e-9)
    assert rf.f5(ASYM, -1.0) == pytest.approx(F5_ASYM_NEG1, abs=1e-9)


def test_f1_f2_swap_symmetry():
    # f1 depends on (c1, p2) the way f2 depends on (c2, p1)
    a = ChannelParams(p1=4.0, p2=9.0, c1=0.7, c2=1.3, g=0.2)
    b = ChannelParams(p1=9.0, p2=4.0, c1=1.3, c2=0.7, g=0.2)
    for rho in (-0.8, 0.0, 0.6):
        assert rf.f1(a, rho) == pytest.approx(rf.f2(b, rho), abs=1e-12)
        assert rf.f6(a, rho) == pytest.approx(rf.f7(b, rho), abs=1e-12)


def test_even_in_rho():
    # f1, f2, f3 see the correlation only through rho^2
    for fn in (rf.f1, rf.f2, rf.f3):
        assert fn(SYM, 0.4) == pytest.approx(fn(SYM, -0.4), abs=1e-12)


def test_f3_divergence_at_full_correlation():
    p = ChannelParams.symmetric(10.0, 1.0, 0.1)
    assert rf.f3(p, 1.0) == -math.inf
    assert rf.f3(p, -1.0) == -math.inf


def test_array_and_scalar_shapes():
    # a sequence of points (a numpy array included) gives a list, a float a float
    for rho in (np.linspace(-0.9, 0.9, 7), [-0.9, 0.0, 0.9], (0.5,)):
        out = rf.f4(SYM, rho)
        assert isinstance(out, list) and len(out) == len(rho)
        assert all(type(v) is float for v in out)
    val = rf.f4(SYM, 0.5)
    assert isinstance(val, float)


def test_domain_errors():
    with pytest.raises(DomainError):
        rf.f1(SYM, 1.001)
    with pytest.raises(DomainError):
        rf.f3(SYM, -1.001)
    # f4 and f5 share the one domain [-1, 1], also for unequal powers, whose
    # -rho_bar lies below -1
    assert rho_bar(ASYM) == pytest.approx(1.25, abs=1e-12)
    for fn in (rf.f4, rf.f5):
        assert fn(ASYM, -1.0) > 0.0
        with pytest.raises(DomainError):
            fn(ASYM, -1.001)
    with pytest.raises(DomainError):
        rf.f5(SYM, -1.001)


RATES = (rf.f1, rf.f2, rf.f3, rf.f4, rf.f5, rf.f6, rf.f7)
NAMES = ("f1", "f2", "f3", "f4", "f5", "f6", "f7")


@pytest.mark.parametrize("bad", [math.nan, 1.0 + 1e-9, -1.0 - 1e-6, 1.0 + 5e-13, -1.0 - 5e-13])
def test_one_bad_element_in_an_array_raises(bad):
    # the domain is exactly [-1, 1]: a point a round-off past an end raises too
    rho = np.array([0.0, 0.3, bad, 0.5])
    for fn in RATES:
        for points in (rho, bad):
            with pytest.raises(DomainError):
                fn(SYM, points)
    for points in (rho, [bad], bad):
        with pytest.raises(DomainError):
            rf.rates(SYM, points, NAMES)


def test_f4_and_f5_reject_nan_and_points_below_minus_one():
    # between -rho_bar and -1, where s(rho) is still positive, f4 and f5 raise
    # like the other forms, alone or in a request of several names
    for bad in (math.nan, -1.0 - 1e-6, -1.1, -rho_bar(ASYM)):
        for fn in (rf.f4, rf.f5):
            with pytest.raises(DomainError):
                fn(ASYM, np.array([0.2, bad]))
        for names in (("f4", "f5"), ("f5",), ("f1", "f4")):
            with pytest.raises(DomainError):
                rf.rates(ASYM, np.array([0.2, bad]), names)


def test_minus_rho_bar_is_in_the_domain_of_no_form():
    bar = rho_bar(ASYM)
    for fn in RATES:
        fn(ASYM, -1.0)
        with pytest.raises(DomainError):
            fn(ASYM, -bar)
    with pytest.raises(DomainError):
        rf.rates(ASYM, np.array([-bar, 0.0]), ("f4", "f5"))


def test_empty_array_returns_empty():
    for fn in RATES:
        assert fn(SYM, []) == []
    assert all(v == [] for v in rf.rates(SYM, np.array([]), NAMES).values())


def test_scalar_returns_float():
    for fn in RATES:
        assert type(fn(SYM, 0.25)) is float
        assert type(fn(SYM, np.float64(-0.25))) is float
    assert rf.f3(SYM, 1.0) == -math.inf


def test_kernel_matches_the_public_forms():
    rho = np.linspace(-1.0, 1.0, 33)
    together = rf.rates(ASYM, rho, NAMES)
    for name, fn in zip(NAMES, RATES):
        assert np.array_equal(together[name], fn(ASYM, rho))
        assert rf.rates(ASYM, 0.3, NAMES)[name] == fn(ASYM, 0.3)


def test_rho_bar_symmetric_is_exactly_one():
    assert rho_bar(SYM) == 1.0


@pytest.mark.parametrize("power", [1e-300, 1e-12, 3.0, 1e154, 1e300])
def test_combined_power_vanishes_at_minus_rho_bar(power):
    # for equal powers -rho_bar = -1, where s(rho) snaps to exactly 0, not a
    # tiny residual, also where P1*P2 under- or overflows and sqrt(P1*P2) is
    # taken as sqrt(P1)*sqrt(P2)
    sym = ChannelParams.symmetric(power, 1.0, 0.2)
    assert rho_bar(sym) == 1.0
    assert rf.f4(sym, -1.0) == 0.0
    assert rf.f5(sym, -1.0) == 0.0


def test_combined_power_is_never_negative_at_minus_one():
    # s(-1) = (sqrt(P1) - sqrt(P2))^2 is all round-off for near-equal powers,
    # where it may come out below 0: f4 and f5 must not read below 0 there
    rng = np.random.default_rng(17)
    gaps = (1e-15, 1e-14, 1e-13, 1e-12, 1e-11, 1e-10, 1e-9, 1e-8)
    for power in 10.0 ** rng.uniform(-300.0, 300.0, 400):
        partners = [power, math.nextafter(power, 0.0), math.nextafter(power, math.inf)]
        partners += [power * (1.0 + sign * gap) for gap in gaps for sign in (-1.0, 1.0)]
        for other in partners:
            for p1, p2 in ((power, other), (other, power)):
                at = rf.rates(ChannelParams(p1, p2, 1.0, 1.0, 0.5), -1.0, ("f4", "f5"))
                assert at["f4"] >= 0.0 and at["f5"] >= 0.0, (p1, p2, at)


def test_rho_star_values():
    assert rf.rho_star(ChannelParams.symmetric(10.0, 1.0, 0.1)) == pytest.approx(RHO_STAR_10, abs=1e-9)
    assert rf.rho_star(ChannelParams.symmetric(100.0, 1.0, 0.1)) == pytest.approx(RHO_STAR_100, abs=1e-9)
    # direct formula for asymmetric powers
    expected = math.sqrt(1.0 + 1.0 / (4.0 * 4.0 * 1.0)) - 1.0 / (2.0 * math.sqrt(4.0))
    assert rf.rho_star(ASYM) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("power", [1e-12, 1e-8, 0.01])
def test_rho_star_is_exact_for_small_powers(power):
    # rho* = (sqrt(1 + 4k^2) - 1)/(2k) with k = P, evaluated to 50 digits
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        k = decimal.Decimal(power)
        exact = float(((1 + 4 * k * k).sqrt() - 1) / (2 * k))
    assert abs(rf.rho_star(ChannelParams.symmetric(power, 1.0, 0.5)) - exact) <= math.ulp(exact)


EXTREME_PAIRS = [(1e154, 1e154), (1e300, 1e300), (1e300, 1e-300), (1e-300, 1e-300)]


@pytest.mark.parametrize("p1, p2", EXTREME_PAIRS)
def test_rho_star_does_not_overflow(p1, p2):
    # 4*P1*P2 overflows for P1 = P2 = 1e154, where rho* is 1 to double precision
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        k = (decimal.Decimal(p1) * decimal.Decimal(p2)).sqrt()
        exact = float(2 * k / (1 + (1 + 4 * k * k).sqrt()))
    assert abs(rf.rho_star(ChannelParams(p1, p2, 1.0, 1.0, 0.5)) - exact) <= math.ulp(exact)


# rho = +-(1 - 2^-k) and 1 - 3*2^-k, each exact in floats, for k = 2..50
NEAR_ONE = sorted({x for k in range(2, 51) for x in (1.0 - 2.0 ** -k, 2.0 ** -k - 1.0, 1.0 - 3.0 * 2.0 ** -k)})


@pytest.mark.xfail(strict=True, reason="q is formed as 1 - rho*rho, off by up to 2.7e-9 in f3; the product form "
                                       "waits for perfbench/checks.py to form q the same way (ROADMAP item 1)")
@pytest.mark.parametrize("p1, p2", [(3.0, 0.5), (1e7, 3e8), (1e12, 1e12)])
def test_f1_and_f3_near_full_correlation_match_50_digits(p1, p2):
    """f1 and f3 read q = 1 - rho^2 where it is tiny, so q must keep its
    relative precision: formed as 1 - rho*rho it loses the digits that
    rho*rho rounds away, formed as (1 - rho)(1 + rho) it rounds once.  The
    reference evaluates the closed forms at 50 digits."""
    p = ChannelParams(p1, p2, 1.0, 2.0, 0.5)
    at = rf.rates(p, NEAR_ONE, ("f1", "f3"))
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        ln2 = decimal.Decimal(2).ln()
        for j, rho in enumerate(NEAR_ONE):
            r = decimal.Decimal(rho)
            q = (1 - r) * (1 + r)
            f1 = float(1 + (1 + q * decimal.Decimal(p2)).ln() / (2 * ln2))
            f3 = float(3 + q.ln() / (2 * ln2))
            assert abs(at["f1"][j] - f1) <= 1e-14, (rho, at["f1"][j], f1)
            assert abs(at["f3"][j] - f3) <= 1e-14, (rho, at["f3"][j], f3)


def _floats_of(report):
    """Every float field of a bounds report, sub-reports included."""
    if dataclasses.is_dataclass(report):
        return [x for f in dataclasses.fields(report) for x in _floats_of(getattr(report, f.name))]
    if isinstance(report, dict):
        return [x for v in report.values() for x in _floats_of(v)]
    return [report] if isinstance(report, float) else []


@pytest.mark.parametrize("r_prime", [math.inf, 0.3])
@pytest.mark.parametrize("p1, p2", EXTREME_PAIRS)
def test_bounds_are_finite_and_ordered_at_extreme_powers(p1, p2, r_prime):
    # P1*P2 overflows or underflows at each pair, where s(rho), rho_bar,
    # rho_h, the peaks and the quadratics take sqrt(P1)*sqrt(P2), and none
    # squares a term of order P^2: nothing may turn into inf or NaN
    p = ChannelParams(p1, p2, 1.0, 1.0, 0.5)
    assert 0.0 < rf.rho_h(p) <= rf.rho_star(p)
    for bounds in (s1.bounds(p, RandomnessBudget(r_prime)), s2.bounds(p, RandomnessBudget(r_prime))):
        assert all(math.isfinite(x) for x in _floats_of(bounds)), bounds
        assert bounds.lower <= bounds.upper.value, bounds


@pytest.mark.parametrize("power", [1e16, 1e18, 1e100, 1e300])
def test_scenario_two_converse_is_not_under_reported_at_huge_powers(power):
    # from p = 1e12 upwards T1 is m - f5 where f4 = m = 2C = 2, at s = 2^(2m) - 1 = 15:
    # 2 - 0.5*log2(1 + 0.5*15) = 0.456268579374830..., which ub2 reads at 1e15
    p = ChannelParams.symmetric(power, 1.0, 0.5)
    t1 = 2.0 - 0.5 * math.log2(8.5)
    assert s2.bounds(p, RandomnessBudget.unbounded()).upper.value == pytest.approx(t1, abs=1e-12)


def test_bounds_just_below_the_power_limit_read_as_at_1e300():
    # s(1) = 1.796e308 is finite at P = 4.49e307, where ub1 and lb1 once read 1
    # and later calls raised; the bounds there are those at P = 1e300
    budget = RandomnessBudget.unbounded()
    for power in (4.49e307, 1e300):
        p = ChannelParams.symmetric(power, 1.0, 0.5)
        b1, b2 = s1.bounds(p, budget), s2.bounds(p, budget)
        assert b1.upper.value == b1.lower == 0.5
        assert b2.upper.value == pytest.approx(0.4562685793748, abs=1e-13)


# near-equal powers where s(-1) forms as -4.0 before the snap of the kernel
NEWTON_SNAP_CHANNEL = ChannelParams(9197080981995644.0, 9197080981995654.0,
                                    1.1113047397073321, 0.5771255846900749, 0.8585070489458081)


@pytest.mark.parametrize("r_prime", [math.inf, 0.3])
def test_crossing_seeds_snap_s_as_the_kernel_does(r_prime):
    # the Newton steps of S3's seeds once formed s(-1) themselves, unsnapped,
    # and log2(1 + s) raised a math domain error out of scenario_one.bounds
    budget = RandomnessBudget(r_prime)
    b1, b2 = s1.bounds(NEWTON_SNAP_CHANNEL, budget), s2.bounds(NEWTON_SNAP_CHANNEL, budget)
    assert b1.upper.value == pytest.approx(0.1100490575, abs=1e-10)
    assert b2.upper.value == pytest.approx(0.09869433464, abs=1e-10)
    assert b1.lower <= b1.upper.value and b2.lower <= b2.upper.value


def test_bounds_scan_huge_powers_up_to_the_limit():
    # symmetric, near-equal and 2:1 powers from 1e10 to the largest whose
    # s(1) is finite, with drawn links and gains; f4 - f5 carries round-off
    # of up to 6e-14 there, within the 1e-7 of the acceptance gate
    rng = np.random.default_rng(19)
    for ratio in (1.0, 1.0 + 1e-15, 2.0):
        # s(1) = (sqrt(ratio) + 1)^2 * P2 reaches the largest float at P2 = top
        top = sys.float_info.max / (math.sqrt(ratio) + 1.0) ** 2 * (1.0 - 1e-12)
        for power in [*(top * 10.0 ** -rng.uniform(0.0, math.log10(top) - 10.0, 40)), top]:
            p = ChannelParams(power * ratio, power, float(rng.uniform(0.0, 5.0)), float(rng.uniform(0.0, 5.0)),
                              float(rng.uniform(0.0, 0.99)))
            for budget in (RandomnessBudget.unbounded(), RandomnessBudget.finite(0.3)):
                for bounds in (s1.bounds(p, budget), s2.bounds(p, budget)):
                    assert bounds.lower <= bounds.upper.value + 1e-7, (p, budget)


@pytest.mark.parametrize("p1", [1e-12, 1e-9, 1e-6, 1e-3, 1.0, 1e3])
@pytest.mark.parametrize("p2", [1e-12, 1e-7, 1e-2, 1e2, 1e12])
def test_rho_h_lies_inside_zero_to_rho_star(p1, p2):
    # S3 is split at rho_h inside [0, rho*]: no clamp is needed at any power
    p = ChannelParams(p1, p2, 1.0, 0.7, 0.5)
    assert 0.0 < rf.rho_h(p) <= rf.rho_star(p)


def test_rho_star_is_root_of_quadratic():
    # rho* is the positive root of rho^2 + rho / sqrt(p1 p2) = 1
    for p in (ChannelParams.symmetric(10.0, 1.0, 0.1), ASYM):
        r = rf.rho_star(p)
        assert r * r + r / math.sqrt(p.p1 * p.p2) == pytest.approx(1.0, abs=1e-9)
        assert 0.0 < r < 1.0


def test_monotonicity_grids():
    rho = np.linspace(-1.0, 1.0, 401)
    for fn in (rf.f4, rf.f5):
        vals = fn(ASYM, rho)
        assert np.all(np.diff(vals) >= -1e-12)
    pos = np.linspace(0.0, 0.999, 200)
    for fn in (rf.f1, rf.f2, rf.f3):
        vals = fn(SYM, pos)
        assert np.all(np.diff(vals) <= 1e-12)


def test_leakage_below_legitimate_rate():
    # g < 1 keeps the eavesdropper rate strictly below the MAC rate
    r = {name: np.array(v) for name, v in rf.rates(SYM, np.linspace(-0.99, 0.99, 101), NAMES).items()}
    assert np.all(r["f5"] <= r["f4"] + 1e-12)
    assert np.all(r["f6"] <= r["f5"] + 1e-12)
    assert np.all(r["f7"] <= r["f5"] + 1e-12)


def test_no_eavesdropper_zeroes_leakage():
    p = ChannelParams.symmetric(10.0, 1.0, 0.0)
    rho = np.linspace(-1.0, 1.0, 41)
    for name, values in rf.rates(p, rho, ("f5", "f6", "f7")).items():
        assert values == [0.0] * len(rho), name


def test_f5_inverse_unbounded_and_saturated():
    assert rf.f5_inverse(SYM, RandomnessBudget.unbounded()) == 1.0
    # budget above the maximum leakage: all correlations feasible
    top = rf.f5(SYM, 1.0)
    assert rf.f5_inverse(SYM, RandomnessBudget.finite(top + 0.1)) == 1.0
    # no eavesdropper: leakage is 0 everywhere
    noeve = ChannelParams.symmetric(10.0, 1.0, 0.0)
    assert rf.f5_inverse(noeve, RandomnessBudget.finite(0.0)) == 1.0


def test_f5_inverse_interior_roots():
    p1 = ChannelParams.symmetric(1.0, 1.0, 0.1)
    # f5(0) = 0.5 log2(1.2)
    r = 0.5 * math.log2(1.2)
    assert rf.f5_inverse(p1, RandomnessBudget.finite(r)) == pytest.approx(0.0, abs=1e-9)
    # f5(-0.5) = 0.5 log2(2) = 0.5 at p = 10, g = 0.1
    p10 = ChannelParams.symmetric(10.0, 1.0, 0.1)
    assert rf.f5_inverse(p10, RandomnessBudget.finite(0.5)) == pytest.approx(-0.5, abs=1e-9)
    # zero budget with symmetric powers pins rho at -1 where the leakage vanishes
    assert rf.f5_inverse(p1, RandomnessBudget.finite(0.0)) == pytest.approx(-1.0, abs=1e-9)


def test_f5_inverse_empty_feasible_set():
    # asymmetric powers leak even at rho = -1, so a zero budget is infeasible
    assert rf.f5_inverse(ASYM, RandomnessBudget.finite(0.0)) is None


def test_f5_inverse_monotone_in_budget():
    p = ChannelParams.symmetric(10.0, 1.0, 0.1)
    budgets = [0.0, 0.1, 0.3, 0.5, 0.8, 1.2]
    roots = [rf.f5_inverse(p, RandomnessBudget.finite(b)) for b in budgets]
    assert all(b >= a - 1e-12 for a, b in zip(roots, roots[1:]))
    # the returned correlation never overshoots the budget
    for b, r in zip(budgets, roots):
        assert rf.f5(p, r) <= b + 1e-9


def test_crossing_solves_its_equation():
    p = ChannelParams(3.0, 0.5, 0.8, 1.1, 0.3)
    for other in ("f1", "f2", "f3"):
        rho = rf.crossing(p, "f4", other)
        assert 0.0 < rho < 1.0, other
        assert rf.f4(p, rho) == pytest.approx(getattr(rf, other)(p, rho), abs=1e-12), other
    rho = rf.crossing(p, "f4", 1.0)
    assert rf.f4(p, rho) == pytest.approx(1.0, abs=1e-12)
    # the leakage equation f5 = r' is the budget cap's
    rho = rf.f5_inverse(p, RandomnessBudget(0.25))
    assert rf.f5(p, rho) == pytest.approx(0.25, abs=1e-12)


@pytest.mark.parametrize("power", [1e154, 1e300])
def test_crossing_solves_its_equation_at_huge_powers(power):
    # the quadratics are scaled by a power of two, so that b*b - a*c does
    # not overflow: f4 meets f1 and f2 at rho = 1/2 as P grows
    p = ChannelParams(power, power, 1.0, 1.0, 0.5)
    for other in ("f1", "f2"):
        rho = rf.crossing(p, "f4", other)
        assert rho == pytest.approx(0.5, abs=1e-12), other
        assert rf.f4(p, rho) == pytest.approx(getattr(rf, other)(p, rho), rel=1e-15), other


def test_crossing_reports_rates_that_never_meet():
    p = ChannelParams(3.0, 0.5, 0.8, 1.1, 0.3)
    assert rf.crossing(p, "f4", 600.0) == math.inf  # 2**1200 overflows
    assert rf.crossing(ChannelParams(3.0, 0.5, 0.0, 0.0, 0.3), "f4", "f3") == -math.inf


def test_rho_h_is_the_peak_of_the_half_sum():
    for p in (SYM, ASYM, ChannelParams(1e-3, 50.0, 0.0, 0.0, 0.5), ChannelParams(1e4, 1e4, 0.0, 0.0, 0.5)):
        rh, k = rf.rho_h(p), math.sqrt(p.p1 * p.p2)
        assert 3.0 * k * rh * rh + (1.0 + p.p1 + p.p2) * rh - k == pytest.approx(0.0, abs=1e-12)
        assert 0.0 < rh < rf.rho_star(p)
        rho = np.linspace(0.0, 1.0, 10001)[:-1]
        half = 0.5 * (np.array(rf.f3(p, rho)) + np.array(rf.f4(p, rho)))
        assert abs(rho[np.argmax(half)] - rh) <= 1e-4


def _named(p, name, rho):
    if not isinstance(name, str):
        return np.full(np.shape(rho), name)
    r = {n: np.array(v) for n, v in rf.rates(p, rho, ("f1", "f2", "f3", "f4", "f5")).items()}
    return {"f4-f5": r["f4"] - r["f5"], "(f3+f4)/2": 0.5 * (r["f3"] + r["f4"])}.get(name, r.get(name))


def _floats_apart(x, y):
    return abs(int(np.float64(x).view(np.int64)) - int(np.float64(y).view(np.int64)))


# f4 - f5 meets f3 about 1e-6 below 1 in the last but one, about 36 floats below 1 in the last
NEWTON_CASES = [ASYM, SYM, ChannelParams(3.0, 0.5, 0.8, 1.1, 0.3), ChannelParams(0.05, 40.0, 0.2, 2.5, 0.9),
                ChannelParams(2.47, 0.0558, 3.36, 4.71, 0.33), ChannelParams(1.0, 1.0, 5.0, 5.0, 0.5),
                ChannelParams(1.0, 1.0, 12.0, 12.0, 0.5)]


@pytest.mark.parametrize("p", NEWTON_CASES)
@pytest.mark.parametrize("term, other", [
    ("f4-f5", "f1"), ("f4-f5", "f2"), ("f4-f5", "f3"), ("f4-f5", "(f3+f4)/2"), ("f4-f5", 0.5),
    ("(f3+f4)/2", "f1"), ("(f3+f4)/2", "f2"), ("(f3+f4)/2", 1.0),
])
def test_newton_seeds_land_where_the_rates_meet(p, term, other):
    """A finite seed lies within 64 floats of the first float where the
    kernel's term reaches the other (one sign_change call within 32); an
    infinite one means the two do not meet on the seed's range."""
    _check_seed(p, term, other, 64)


@pytest.mark.parametrize("p", NEWTON_CASES[:5])
@pytest.mark.parametrize("other", ["f1", "f2", "level"])
def test_half_sum_seeds_land_where_the_rates_meet(p, other):
    """(f3+f4)/2 made to meet f1, f2 or a level at rho_h / 2, by the choice
    of a link capacity or the level.  The half sum is flat towards its peak,
    so rounding blurs the float where the two meet over more floats."""
    r = rf.rho_h(p) / 2.0
    q, f4 = 1.0 - r * r, rf.f4(p, r)
    if other == "f1":  # (f3+f4)/2 - f1 = (c2 - c1 + log2(q)/2 + f4)/2 - log2(1 + q P2)/2
        p = dataclasses.replace(p, c1=3.0, c2=3.0 + math.log2(1.0 + q * p.p2) - 0.5 * math.log2(q) - f4)
    elif other == "f2":
        p = dataclasses.replace(p, c1=3.0 + math.log2(1.0 + q * p.p1) - 0.5 * math.log2(q) - f4, c2=3.0)
    else:
        other = 0.5 * (rf.f3(p, r) + f4)
    seed = rf.crossing(p, "(f3+f4)/2", other, 0.0, rf.rho_h(p))
    assert seed == pytest.approx(r, rel=1e-6)
    _check_seed(p, "(f3+f4)/2", other, 2**14)


def _check_seed(p, term, other, floats):
    lo = rf.rho_h(p) if other == "(f3+f4)/2" else 0.0
    hi = rf.rho_h(p) if term == "(f3+f4)/2" else 1.0
    seed = rf.crossing(p, term, other, lo, hi)
    above = _named(p, term, np.array([lo, hi])) >= _named(p, other, np.array([lo, hi]))
    if math.isinf(seed):
        assert (seed < 0.0 and above[0]) or (seed > 0.0 and not above[1]), (seed, above)
        return
    assert lo < seed < hi and not above[0] and above[1]
    _, b = sign_change(lambda xs: list(_named(p, term, xs) >= _named(p, other, xs)), lo, hi, seed)
    assert _floats_apart(seed, b) <= floats, (seed, b)


def test_newton_seeds_near_one():
    for p, gap in ((ChannelParams(1.0, 1.0, 5.0, 5.0, 0.5), 1e-5), (ChannelParams(1.0, 1.0, 12.0, 12.0, 0.5), 1e-13)):
        seed = rf.crossing(p, "f4-f5", "f3")
        assert 1.0 - gap < seed < 1.0


def _drawn_channels(n, seed):
    """n channels with powers in 10^[-3, 6], c in [0, 5] and g in [0, 0.99)."""
    rng = np.random.default_rng(seed)
    return [ChannelParams(float(10.0 ** rng.uniform(-3.0, 6.0)), float(10.0 ** rng.uniform(-3.0, 6.0)),
                          float(rng.uniform(0.0, 5.0)), float(rng.uniform(0.0, 5.0)), float(rng.uniform(0.0, 0.99)))
            for _ in range(n)]


def test_newton_terms_sum_the_kernel_rates_as_the_branches_do():
    """Every term of a ``schemes.TABLE`` branch, summed from the kernel's
    rates as the Newton seeds sum it (from -0.0, in ``TERMS`` order), is the
    branch's value to the bit; every term of ``TERMS`` is a term of some
    branch."""
    rho = [-1.0, -0.99, -0.5, -0.1, 0.0, 0.3, 0.9, 0.99, 1.0]
    seen = set()
    for p in _drawn_channels(300, 20):
        at = rf.rates(p, rho, ("f1", "f2", "f3", "f4", "f5", "indicator"))
        at.update((name, [value] * len(rho)) for name, value in (("C1", p.c1), ("C2", p.c2), ("f3(0)", rf.f3(p, 0.0))))
        for name in schemes.TABLE:
            branch, _ = schemes.gaussian(p, name)
            for term, values in branch(rho).items():
                seen.add(term)
                for j, value in enumerate(values):
                    v = -0.0
                    for rate, c in rf.TERMS[term].items():
                        v = v + c * at[rate][j]
                    assert v.hex() == value.hex(), (p, name, term, rho[j], v, value)
    assert seen == set(rf.TERMS)


def test_newton_slopes_match_central_differences_of_the_kernel():
    """Each ``_SLOPES`` entry, over ln 2, is the slope of its kernel rate to
    a relative 1e-5, beyond the rounding of the rates over the step."""
    h = 1e-6
    for p in _drawn_channels(300, 21):
        k, atoms = rf._k(p), rf._atoms(p)
        for r in np.linspace(-0.99, 0.99, 12).tolist():
            q, s = atoms(r)
            ends = rf.rates(p, [r - h, r + h], tuple(rf._SLOPES))
            for name, slope in rf._SLOPES.items():
                lo, hi = ends[name]
                exact = slope(p, r, q, k, s) / math.log(2.0)
                rounding = 4.0 * sys.float_info.epsilon * max(abs(lo), abs(hi)) / h
                assert abs((hi - lo) / (2.0 * h) - exact) <= 1e-5 * abs(exact) + rounding, (p, name, r)


PEAK_CASES = NEWTON_CASES[:5] + [ChannelParams(1e-2, 1e2, 1.0, 0.5, 0.99), ChannelParams(1e2, 1e-2, 0.3, 2.0, 0.6),
                                 ChannelParams(1.0, 1.0, 0.5, 0.5, 0.0)]
PEAKED = {"f1-f5": ("f1", 1.0), "f2-f5": ("f2", 1.0), "f3-f5": ("f3", 1.0), "f3-2f5": ("f3", 2.0)}


@pytest.mark.parametrize("p", PEAK_CASES)
@pytest.mark.parametrize("term", sorted(PEAKED))
def test_peaks_are_where_the_slopes_change_sign(p, term):
    """Each closed-form peak is where its term turns from rising to falling:
    the argmax of a fine grid on [-1, 1] (in the numpy reference) sits
    within a grid step of it (at -1 when it lies below -1), and the term
    falls on either side of it."""
    rate, leak = PEAKED[term]

    def at(rho, rates=rf.rates):
        r = rates(p, rho, (rate, "f5"))
        return r[rate] - leak * r["f5"]

    peak = rf.peak(p, term)
    assert peak <= 0.0 and (term in ("f1-f5", "f2-f5") or peak > -1.0)
    grid = np.linspace(-1.0, 1.0, 200001)
    assert abs(grid[np.argmax(at(grid, reference_rates))] - max(peak, -1.0)) <= grid[1] - grid[0]
    if peak > -1.0 + 1e-3:
        h = 1e-4 * (1.0 + abs(peak))
        assert at(peak - h) < at(peak) > at(peak + h)


def test_the_peaks_at_zero_gain_are_a_positive_zero():
    """At g = 0 the four peaked terms peak at 0.0, not at -0.0, which the
    solver would keep as a piece end and report as a rho."""
    for p in (ChannelParams(10.0, 10.0, 0.0, 0.0, 0.0), ChannelParams(1e-3, 1e6, 1.0, 2.0, 0.0)):
        assert [math.copysign(1.0, rf.peak(p, term)) for term in sorted(PEAKED)] == [1.0] * 4
        assert [rf.peak(p, term) for term in sorted(PEAKED)] == [0.0] * 4


def test_every_term_rises_up_to_its_peak_and_falls_after_it():
    """``peak`` answers for every term of ``TERMS``, and on the peak cases
    and on drawn channels each term is nondecreasing on a grid of [-1, 1]
    up to its peak and nonincreasing after it, to a relative 1e-12: a term
    at -inf, which never rises, is nonincreasing on all of [-1, 1].  The
    indicator is left out: it is constant between the ends of its link
    interval, which split every solve that reads it."""
    grid = np.linspace(-1.0, 1.0, 201).tolist()
    for p in PEAK_CASES + _drawn_channels(100, 22):
        at = rf.rates(p, grid, ("f1", "f2", "f3", "f4", "f5"))
        at.update((name, [value] * len(grid)) for name, value in (("C1", p.c1), ("C2", p.c2), ("f3(0)", rf.f3(p, 0.0))))
        for term, weights in rf.TERMS.items():
            peak = rf.peak(p, term)
            assert isinstance(peak, float) and not math.isnan(peak), (p, term)
            if term == "indicator":
                continue
            values = [sum(c * at[rate][j] for rate, c in weights.items()) for j in range(len(grid))]
            for j in range(len(grid) - 1):
                x, y = values[j], values[j + 1]
                tol = 1e-12 * max(1.0, *(abs(v) for v in (x, y) if math.isfinite(v)))
                if grid[j + 1] <= peak:
                    assert y >= x - tol, (p, term, grid[j], peak)
                elif grid[j] >= peak:
                    assert y <= x + tol, (p, term, grid[j], peak)


# Criterion-08 draws 3, 23, 544 and 27, whose link conditions hold on part of
# [-1, 1], and three channels where they hold nowhere or everywhere.
LINK_CASES = [
    ChannelParams(6.16330981915495, 0.20225136263465737, 3.6696408166503325, 1.100674777727431, 0.8776151201342425),
    ChannelParams(0.3255565986888797, 0.2440033734563739, 2.5812785055768135, 0.044970136856651854,
                  0.3281485870741433),
    ChannelParams(0.3143957145838717, 0.06275737121706006, 0.03788662365147577, 1.5668421218848678,
                  0.5316619620651701),
    ChannelParams(28.15557433361902, 2.531578135609509, 1.7212897924254544, 0.2780128839447271, 0.28742047595675574),
    ChannelParams(10.0, 10.0, 0.0, 3.0, 0.1), ChannelParams(10.0, 10.0, 3.0, 3.0, 0.1),
    ChannelParams(10.0, 10.0, 3.0, 3.0, 0.0),
]


LINK_BOUNDS = [(-1.0, 1.0), (-1.0, -0.5), (-0.9, 0.6)]


@pytest.mark.parametrize("p", LINK_CASES)
@pytest.mark.parametrize("lo, hi", LINK_BOUNDS)
def test_link_interval_ends_are_the_last_floats_of_the_strict_conditions(p, lo, hi):
    _check_link_interval(p, lo, hi)


@pytest.mark.parametrize("p1, p2, g", [(0.13906105515171974, 0.016433225301749045, 0.3950319927069664),
                                       (99.24404574858076, 4.068894658540161, 0.2610591815028415),
                                       (0.5492754757289624, 78.83966550820475, 0.8579098472976939)])
@pytest.mark.parametrize("lo, hi", LINK_BOUNDS)
def test_link_interval_ends_where_a_condition_is_an_equality(p1, p2, g, lo, hi):
    # C1 = f6(lo), then C2 = f7(hi), to the bit: the strict condition fails
    # at that bound, wherever the closed-form root rounds to
    base = ChannelParams(p1, p2, 1.0, 1.0, g)
    for c1, c2 in ((rf.f6(base, lo), 5.0), (5.0, rf.f7(base, hi))):
        _check_link_interval(ChannelParams(p1, p2, c1, c2, g), lo, hi)


def _check_link_interval(p, lo, hi):
    def holds(rho):
        r = {name: np.array(v) for name, v in rf.rates(p, np.atleast_1d(rho), ("f6", "f7")).items()}
        return (p.c1 > r["f6"]) & (p.c2 > r["f7"])

    link = rf.link_interval(p, lo, hi)
    grid = np.linspace(lo, hi, 4097)
    if link is None:
        assert not holds(grid).any()
        return
    first, last = link
    assert lo <= first <= last <= hi
    assert holds(first) and holds(last)
    assert first == lo or not holds(math.nextafter(first, -math.inf))
    assert last == hi or not holds(math.nextafter(last, math.inf))
    assert np.array_equal(holds(grid), (grid >= first) & (grid <= last))


def _up(x, n):
    """The float ``n`` floats above ``x`` (below for negative ``n``)."""
    for _ in range(abs(n)):
        x = math.nextafter(x, math.copysign(math.inf, n))
    return x


# (lo, hi, a, b, left, right): the test holds on [a, b] and the closed form
# puts its interval at (left, right), up to rounding or worse
EDGE_CASES = {
    "covering lo": (-1.0, 1.0, -2.0, 0.3, -math.inf, _up(0.3, 1)),
    "covering hi": (-1.0, 1.0, -0.2, 2.0, _up(-0.2, -1), math.inf),
    "inside": (-1.0, 1.0, -0.25, 0.5, _up(-0.25, 7), _up(0.5, -40)),
    "nowhere": (-1.0, 1.0, 2.0, 3.0, -math.inf, -math.inf),
    "beyond hi": (-1.0, 1.0, 1.5, 2.0, 1.5, 2.0),
    "midpoint misses, lo holds": (-1.0, 1.0, -1.0, -0.9, -math.inf, 0.8),
    "sliver left of the midpoint": (-1.0, 1.0, -0.5, _up(-0.5, 2), _up(-0.5, 3), _up(-0.5, 5)),
    "lo == hi, holding": (0.25, 0.25, 0.0, 0.5, 0.2, 0.3),
    "lo == hi, failing": (0.25, 0.25, 0.3, 0.5, 0.3, 0.5),
}


@pytest.mark.parametrize("case", EDGE_CASES)
def test_edges_are_the_first_and_last_floats_where_the_test_holds(case):
    lo, hi, a, b, left, right = EDGE_CASES[case]
    calls = []

    def test(xs):
        calls.append(list(xs))
        return [a <= x <= b for x in xs]

    edges = rf._edges(test, lo, hi, left, right)
    first, last = max(a, lo), min(b, hi)
    assert edges == ((first, last) if first <= last else None)
    if case == "beyond hi":
        assert len(calls) == 1  # one probe finds the interval beyond hi
