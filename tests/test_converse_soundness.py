"""The upper-bound branches S1..S4 and T1..T3 are converses, so the refined
optimum must not fall short of the objective's maximum, and the value each
branch reports must be what its own terms give at the reported rho.

Every solved branch is solved exactly at its crossings (S3 as two pieces,
either side of the peak of (f3+f4)/2), so no value may fall below any point
of the fine grid.  T1 is computed in closed form in s, and its interval
reaches below -1, outside the kernel's domain: it is held to the numpy
reference to within its rounding, and to a 50-digit ``decimal`` evaluation.

The objectives are written out again here from the branch formulas in the
scenario modules' docstrings, independently of the term lists of
``schemes.TABLE``.  The numpy reference of the closed forms evaluates the
fine grids, and the package's float kernel evaluates again every grid point
near their maximum, so that each bound is held, exactly and in its own
arithmetic, to the best point of the grid."""

import decimal
import math

import numpy as np
import pytest

from diamond_wiretap import rate_functions as rf
from diamond_wiretap import scenario_one as s1
from diamond_wiretap import scenario_two as s2
from diamond_wiretap import schemes
from diamond_wiretap.rate_functions import ChannelParams, RandomnessBudget

from conftest import reference_rates, rho_bar

FINE_POINTS = 2**16 + 1
DRAWS = 30
# The numpy reference and the float kernel differ by a few ulps of the
# rates, far less than this: every grid point whose objective in the kernel
# could reach the grid's maximum lies this close to it in the reference.
NEAR_TOP = 1e-12


def kernel_rates(p, rho, names):
    """The rates ``names`` of ``p`` at the points ``rho``, by the package's
    own kernel, as numpy arrays."""
    return {name: np.array(values) for name, values in rf.rates(p, list(rho), names).items()}


def fine_max(p, objective, names, lo, hi, rates=kernel_rates):
    """The maximum over the 2^16 + 1-point grid on [lo, hi] of ``objective``
    of the rates ``names``, in the package's arithmetic: the values of
    ``rates`` (the kernel's) at the grid points within NEAR_TOP of the
    reference's maximum."""
    grid = np.linspace(lo, hi, FINE_POINTS)
    values = objective(reference_rates(p, grid, names))
    near = grid[values >= np.max(values) - NEAR_TOP]
    return float(np.max(objective(rates(p, near, names))))


def criterion_08_draws(n):
    """The first ``n`` parameter tuples of acceptance criterion 08."""
    rng = np.random.default_rng(12345)
    out = []
    for i in range(n):
        g = 0.0 if i % 10 == 0 else float(rng.uniform(0.0, 0.99))
        p = ChannelParams(
            p1=float(10.0 ** rng.uniform(-2.0, 2.0)),
            p2=float(10.0 ** rng.uniform(-2.0, 2.0)),
            c1=float(rng.uniform(0.0, 5.0)),
            c2=float(rng.uniform(0.0, 5.0)),
            g=g,
        )
        if i % 3 == 0:
            rng.uniform(0.0, 2.0)  # the budget draw; converses ignore the budget
        out.append(p)
    return out


def branch_objectives(p):
    """Branch name -> (objective of a mapping of rate arrays, the rates it
    reads, lo, hi)."""
    f10, f20, f30 = rf.f1(p, 0.0), rf.f2(p, 0.0), rf.f3(p, 0.0)
    rs, rb = rf.rho_star(p), rho_bar(p)
    least = np.minimum.reduce
    cuts = ("f1", "f2", "f3", "f4")
    return {
        "S1": (lambda r: least([r["f1"], r["f2"], r["f3"], r["f4"]]), cuts, 0.0, rs),
        "S2": (lambda r: least([r["f1"], r["f2"], np.full_like(r["f1"], f30), r["f4"]]), cuts, rs, 1.0),
        "S3": (lambda r: least([
            r["f1"], r["f2"], np.full_like(r["f1"], f30), 0.5 * (r["f3"] + r["f4"]), r["f4"] - r["f5"],
        ]), cuts + ("f5",), 0.0, rs),
        "S4": (lambda r: least([r["f1"], r["f2"], np.full_like(r["f1"], f30), r["f4"] - r["f5"]]),
               cuts + ("f5",), rs, 1.0),
        "T1": (lambda r: np.minimum(min(f10, f20, f30), r["f4"]) - r["f5"], ("f4", "f5"), -rb, 0.0),
        "T2": (lambda r: least([r["f1"], r["f2"], r["f3"], r["f4"]]) - r["f5"], cuts + ("f5",), 0.0, rs),
        "T3": (lambda r: least([r["f1"], r["f2"], np.full_like(r["f1"], f30), r["f4"]]) - r["f5"],
               cuts + ("f5",), rs, 1.0),
    }


# T1 in closed form against the numpy reference on its grid: a few ulps of
# rates below 8, for the rounding of the two arithmetics.
T1_ROUNDING = 4.0 * np.spacing(8.0)


@pytest.mark.parametrize("i, p", list(enumerate(criterion_08_draws(DRAWS))))
def test_upper_bound_branches_are_sound(i, p):
    reports = {**s1.upper_bound(p).sub_reports, **s2.upper_bound(p).sub_reports}
    for name, (objective, names, lo, hi) in branch_objectives(p).items():
        rep = reports[name]
        assert lo <= rep.rho <= hi, (i, name, rep.rho, lo, hi)
        if name == "T1":
            # the reference recomputes s from rho, with round-off of ulp(P1 + P2)
            best = fine_max(p, objective, names, lo, hi, reference_rates)
            assert rep.value >= best - T1_ROUNDING, (i, name, rep.value, best)
            again = float(objective(reference_rates(p, [rep.rho], names))[0])
            assert abs(rep.value - again) <= NEAR_TOP, (i, name, rep.value, again)
            continue
        best = fine_max(p, objective, names, lo, hi)
        assert rep.value >= best, (i, name, rep.value, best)
        again = float(objective(kernel_rates(p, [rep.rho], names))[0])
        assert rep.value == again, (i, name, rep.value, again)


def t1_draws(n):
    """Asymmetric channels for T1: powers in 10^[-3, 15], up to 1e4 apart,
    links in [0, 3] or, for every other draw, in [0, 0.3], where s* is
    small; g = 0 on every tenth draw."""
    rng = np.random.default_rng(2017)
    out = []
    for i in range(n):
        e1 = rng.uniform(-3.0, 15.0)
        e2 = min(max(e1 + rng.uniform(-4.0, 4.0), -3.0), 15.0)
        link = 3.0 if i % 2 else 0.3
        g = 0.0 if i % 10 == 0 else float(rng.uniform(0.0, 0.99))
        out.append(ChannelParams(float(10.0 ** e1), float(10.0 ** e2),
                                 float(rng.uniform(0.0, link)), float(rng.uniform(0.0, link)), g))
    return out


def t1_edge_draws(n):
    """7n channels with small powers so near-equal, |P2/P1 - 1| < 0.9 P1,
    that m = f3(0), and f4(0) at most 6 floats above m: s* rounds to within
    floats of P1 + P2, and past it on about one channel in six."""
    rng = np.random.default_rng(2018)
    out = []
    for _ in range(n):
        p1 = float(10.0 ** rng.uniform(-3.0, 0.0))
        p2 = float(p1 * (1.0 + rng.uniform(-0.9, 0.9) * p1))
        c, g = 0.25 * math.log2(1.0 + p1 + p2), float(rng.uniform(0.0, 0.99))
        for _ in range(7):
            out.append(ChannelParams(p1, p2, c, c, g))
            c = math.nextafter(c, 0.0)
    return out


def decimal_t1(p):
    """T1 of ``p``, its correlation and its binding terms (within the
    solver's 1e-9) to 50 digits, by stdlib ``decimal``: the closed form in
    s, with s* = 2^(2m) - 1 capped at P1 + P2.  The objective
    min(m, f4) - f5 at sampled s in [0, P1 + P2] must not beat its value at
    s* beyond the reference's own rounding."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        big = decimal.Decimal
        ln2 = big(2).ln()

        def half_log2(x):
            return x.ln() / ln2 / 2

        p1, p2, c1, c2, g = (big(x) for x in (p.p1, p.p2, p.c1, p.c2, p.g))
        m = min(c1 + half_log2(1 + p2), c2 + half_log2(1 + p1), c1 + c2)
        top = p1 + p2

        def objective(s):
            return min(m, half_log2(1 + s)) - half_log2(1 + g * s)

        s_star = min((2 * m * ln2).exp() - 1, top)
        best = objective(s_star)
        samples = [top * j / 8 for j in range(9)] + [top / big(10) ** k for k in range(2, 32, 2)]
        samples += [s_star * big(f) for f in ("0.5", "0.999", "0.999999", "1.000001", "1.001", "2")]
        # on the plateau of g = 0 the samples tie with s*, to the 50th digit
        beaten = [s for s in samples if s <= top and objective(s) > best + big(10) ** -45]
        assert not beaten, (p, s_star, beaten[:3])
        f5 = half_log2(1 + g * s_star)
        terms = {"f1(0)-f5": c1 + half_log2(1 + p2) - f5, "f2(0)-f5": c2 + half_log2(1 + p1) - f5,
                 "f3(0)-f5": c1 + c2 - f5, "f4-f5": best}
        binding = tuple(name for name, v in terms.items() if v <= best + big("1e-9") * max(1, abs(best)))
        return float(best), float((s_star - top) / (2 * (p1 * p2).sqrt())), binding


def test_t1_and_ub2_match_a_50_digit_reference():
    """T1 is within 1e-15 of the 50-digit closed form, with its binding
    terms, its rho within 1e-12 of rho_bar and never above 0, and
    ub2 = max(T1, T2, T3) is never below the reference T1 by more than
    that."""
    for i, p in enumerate(t1_draws(160) + t1_edge_draws(10)):
        ub = s2.upper_bound(p)
        t1 = ub.sub_reports["T1"]
        value, rho, binding = decimal_t1(p)
        bar = rho_bar(p)
        assert abs(t1.value - value) <= 1e-15 and t1.binding == binding, (i, p, t1, value, binding)
        assert -bar <= t1.rho <= 0.0 and abs(t1.rho - rho) <= 1e-12 * bar, (i, p, t1, rho)
        assert ub.value == max(sub.value for sub in ub.sub_reports.values()), (i, p, ub)
        assert ub.value >= value - 1e-15, (i, p, ub.value, value)


STRUCTURE_POINTS = 4097
# Within FLAT_TOP of its closed-form peak, a rate less f5 that turns moves
# less between samples than the rounding of its two logs: a few ulps of the
# larger rate, below 16 on these draws (f1 - f5 broke exact order by one ulp
# 2e-8 past its peak on draw 28).  Every other term and step, (f3+f4)/2 at
# its peak included, is held to exact order.
TURNING_LESS_F5 = ("f1-f5", "f2-f5", "f3-f5", "f3-2f5")
FLAT_TOP = 1e-6
ROUNDING = 8.0 * np.spacing(16.0)


@pytest.mark.parametrize("i, p", list(enumerate(criterion_08_draws(DRAWS))))
def test_solved_branches_have_a_monotone_envelope(i, p, monkeypatch):
    """Every branch and scheme handed to the crossing solver (the schemes
    over the widest interval, that of an unbounded budget): on each piece
    between its ends and the peaks inside them, each term peaking at the
    right end or later is nondecreasing and every other term nonincreasing,
    sampled finely with the numpy reference.  S3 and the two multicoding
    schemes of scenario 2 are split at peaks."""
    entries, calls = {}, []

    def gaussian(params, name, make=schemes.gaussian):
        branch, fixed = make(params, name)
        entries[branch] = (schemes.TABLE[name], fixed)
        return branch, fixed

    def record(branch, ends, peaks, seed, solve=s1.maximize_min):
        calls.append((entries[branch], ends, peaks))
        return solve(branch, ends, peaks, seed)
    # scenario_one.solve serves both scenarios
    monkeypatch.setattr(s1.schemes, "gaussian", gaussian)
    monkeypatch.setattr(s1, "maximize_min", record)
    s1.bounds(p, RandomnessBudget.unbounded())
    s2.bounds(p, RandomnessBudget.unbounded())
    assert len(calls) == 12  # DF at the cap and PDF at 0 are single points; T1 is not solved
    for (entry, fixed), ends, peaks in calls:
        lo, hi = ends[0], ends[-1]
        cuts = sorted({*ends, *(x for x in peaks.values() if lo < x < hi)})
        for a, b in zip(cuts, cuts[1:]):
            if np.nextafter(a, np.inf) == b:
                continue  # nothing between: the indicator of pdfpdfm2 jumps here
            rho = np.linspace(a, b, STRUCTURE_POINTS)
            at_rho = [u for u in entry.uses if u not in fixed]
            for name, values in entry.terms({**fixed, **reference_rates(p, rho, at_rho)}).items():
                values = np.broadcast_to(values, rho.shape)
                peak = peaks.get(name, math.nan) if name in TURNING_LESS_F5 else math.nan
                flat = np.abs(rho - peak) <= FLAT_TOP
                noise = np.where(flat[1:] | flat[:-1], ROUNDING, 0.0)
                if peaks.get(name, -np.inf) >= b:
                    assert np.all(values[1:] >= values[:-1] - noise), (i, name, a, b)
                else:
                    assert np.all(values[1:] <= values[:-1] + noise), (i, name, a, b)


def _solves(monkeypatch):
    """A function of a ``bounds`` call that returns the (entry, lo, hi) of
    every solve it made, in order."""
    names, solves = {}, []

    def gaussian(params, name, make=schemes.gaussian):
        branch, fixed = make(params, name)
        names[branch] = name
        return branch, fixed

    def record(branch, ends, peaks, seed, solve=s1.maximize_min):
        solves.append((names[branch], ends[0], ends[-1]))
        return solve(branch, ends, peaks, seed)
    monkeypatch.setattr(s1.schemes, "gaussian", gaussian)
    monkeypatch.setattr(s1, "maximize_min", record)

    def run(bounds, p, budget):
        solves.clear()
        bounds(p, budget)
        return list(solves)
    return run


BUDGETS = [RandomnessBudget.unbounded(), RandomnessBudget.finite(0.3), RandomnessBudget.finite(0.02)]


@pytest.mark.parametrize("budget", BUDGETS)
def test_scenario_one_solves_the_intervals_of_its_docstring(budget, monkeypatch):
    """Every scenario-1 solve is on the interval the ``scenario_one``
    docstring and ``TABLE`` give it, in the table's order: S1, S3 on
    [0, rho*], S2, S4 on [rho*, 1], DF at the budget cap, PDF at rho = 0
    where that fits the budget, and PDF-M on [0, rho_max] (at the cap alone
    when it is negative); no scheme where no rho fits."""
    solves = _solves(monkeypatch)
    for p in criterion_08_draws(DRAWS):
        rs, cap = rf.rho_star(p), rf.f5_inverse(p, budget)
        expected = [("S1", 0.0, rs), ("S2", rs, 1.0), ("S3", 0.0, rs), ("S4", rs, 1.0)]
        if cap is not None:
            expected += [("df1", cap, cap)]
            expected += [("pdfm1", 0.0, 0.0)] if cap >= 0.0 else []
            expected += [("pdfm1", 0.0 if cap >= 0.0 else cap, cap)]
        assert solves(s1.bounds, p, budget) == expected, p


@pytest.mark.parametrize("budget", BUDGETS)
def test_scenario_two_solves_the_intervals_of_its_docstring(budget, monkeypatch):
    """Every scenario-2 solve is on the interval the ``scenario_two``
    docstring gives it: T2 on [0, rho*], T3 on [rho*, 1], and each scheme
    on [-1, rho_max]; no scheme where no rho fits the budget.  T1 has a
    closed form, and no solve."""
    solves = _solves(monkeypatch)
    for p in criterion_08_draws(DRAWS):
        rs, cap = rf.rho_star(p), rf.f5_inverse(p, budget)
        expected = [("T2", 0.0, rs), ("T3", rs, 1.0)]
        if cap is not None:
            expected += [(name, -1.0, cap) for name in ("df2", "pdfdfm2", "pdfpdfm2")]
        assert solves(s2.bounds, p, budget) == expected, p


# Kernel calls per scenario_two.bounds on the 30 draws, measured with the
# crossing solver: 13.30 (unbounded) and 12.57 (r' = 0.3) with a first
# sign_change pass of 33 floats, three calls for T1's rho-free rates and
# two for the budget probes f5(1), f5(-1); 12.67 and 10.90 with a first pass
# of 5, two calls for T1's rates and one for the probes; 10.20 and 8.43 with
# T1 in closed form, one call at rho = 0 and no solve.  The grid search that
# PDF-DF-M and PDF-PDF-M used before took 7 calls each, 23.6 and 17.7 in all.
# A kernel call is a call of ``rates`` or of a branch of ``schemes.gaussian``,
# whose compiled loop evaluates the forms without ``rates``.
KERNEL_CALLS_CEILING = {math.inf: 10.5, 0.3: 8.7}


@pytest.mark.parametrize("r_prime", sorted(KERNEL_CALLS_CEILING))
def test_scenario_two_kernel_calls(r_prime, monkeypatch):
    calls = []

    def counted(params, rho, names, rates=rf.rates):
        calls.append(names)
        return rates(params, rho, names)

    def gaussian(params, name, make=schemes.gaussian):
        branch, fixed = make(params, name)

        def counted_branch(rho):
            calls.append(name)
            return branch(rho)
        return counted_branch, fixed
    monkeypatch.setattr(rf, "rates", counted)
    monkeypatch.setattr(s1.schemes, "gaussian", gaussian)
    draws = criterion_08_draws(DRAWS)
    for p in draws:
        s2.bounds(p, RandomnessBudget(r_prime))
    assert len(calls) / len(draws) <= KERNEL_CALLS_CEILING[r_prime]
