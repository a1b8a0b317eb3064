"""The term table: ``schemes.Entry.terms``, the loops that ``schemes.gaussian``
binds and ``rate_functions.TERMS``.

One ``Entry.terms`` serves the discrete oracle (floats) and the numpy
references of the soundness tests (arrays), so it must give the same bits on
each; the loop that ``rate_functions.term_loop`` compiles for each entry
must give the bits of ``Entry.terms`` over ``rate_functions.rates``.
"""

import math

import numpy as np
import pytest

from diamond_wiretap import rate_functions as rf
from diamond_wiretap import schemes
from diamond_wiretap.errors import DomainError
from diamond_wiretap.rate_functions import ChannelParams

RHO = [-1.0, -0.999, -0.6, -0.1, 0.0, 0.25, 0.7, 0.999, 1.0]


def _channels(n, seed):
    rng = np.random.default_rng(seed)
    return [ChannelParams(float(10.0 ** rng.uniform(-3.0, 6.0)), float(10.0 ** rng.uniform(-3.0, 6.0)),
                          float(rng.uniform(0.0, 5.0)), float(rng.uniform(0.0, 5.0)), float(rng.uniform(0.0, 0.99)))
            for _ in range(n)]


def _bits(values):
    return [float(v).hex() for v in np.broadcast_to(values, (len(RHO),))]


def test_entry_terms_agree_on_floats_and_arrays():
    """For every ``TABLE`` entry, its terms from the same rates are the same
    bits point by point on floats and on numpy arrays; the terms come in the
    entry's binding order."""
    for p in _channels(100, 22):
        at = rf.rates(p, RHO, ("f1", "f2", "f3", "f4", "f5", "indicator"))
        fixed = {"C1": p.c1, "C2": p.c2, "f3(0)": rf.f3(p, 0.0)}
        for name, entry in schemes.TABLE.items():
            array = entry.terms({**{u: np.array(v) for u, v in at.items()}, **fixed})
            points = [entry.terms({**{u: v[j] for u, v in at.items()}, **fixed}) for j in range(len(RHO))]
            assert list(array) == list(entry.names), name
            for term in entry.names:
                assert _bits(array[term]) == [point[term].hex() for point in points], (p, name, term)


# the ends, 0 and points inside
EDGES = [-1.0, -0.999, -0.3, 0.0, 0.4, 0.999, 1.0]


def _extreme_channels():
    """Powers in 10^[-12, 15], every third pair near-equal (ratio
    1 + 1e-7), and zero C1, zero C2 and zero g in turn."""
    rng = np.random.default_rng(32)
    out = []
    for i in range(60):
        p1 = float(10.0 ** rng.uniform(-12.0, 15.0))
        p2 = p1 * (1.0 + 1e-7) if i % 3 == 0 else float(10.0 ** rng.uniform(-12.0, 15.0))
        c1, c2, g = float(rng.uniform(0.0, 4.0)), float(rng.uniform(0.0, 4.0)), float(rng.uniform(0.0, 0.99))
        c1, c2, g = (0.0 if i % 4 == 1 else c1), (0.0 if i % 4 == 2 else c2), (0.0 if i % 4 == 3 else g)
        out.append(ChannelParams(p1, p2, c1, c2, g))
    return out


@pytest.mark.parametrize("p", _extreme_channels())
def test_compiled_loops_give_the_bits_of_entry_terms_over_rates(p):
    """Each entry's compiled loop, bound by ``schemes.gaussian``, gives at
    every point the bits of ``Entry.terms`` over the rates of ``rates``; a
    NaN or a point outside [-1, 1], even by round-off, raises the
    ``DomainError`` that ``rates`` raises."""
    for name, entry in schemes.TABLE.items():
        branch, fixed = schemes.gaussian(p, name)
        at_rho = tuple(u for u in entry.uses if u not in fixed)
        at = rf.rates(p, EDGES, at_rho)
        got = branch(EDGES)
        assert list(got) == list(entry.names), name
        for j, rho in enumerate(EDGES):
            want = entry.terms({**{u: v[j] for u, v in at.items()}, **fixed})
            assert [got[term][j].hex() for term in entry.names] == [want[term].hex() for term in entry.names], \
                (p, name, rho)
        for bad in ([0.2, math.nan], [1.1], [-1.0 - 1e-13], [0.2, 1.0 + 1e-13]):
            with pytest.raises(DomainError) as raised:
                branch(bad)
            with pytest.raises(DomainError) as expected:
                rf.rates(p, bad, at_rho)
            assert str(raised.value) == str(expected.value)
        assert all(values == [] for values in branch([]).values())


def test_one_sum_rule_writes_every_term():
    """A weight of 1 or -1 adds or subtracts and any other multiplies, in
    the sums and the loops alike: both read one text per term."""
    assert rf._sum({"f1": 1.0, "f5": -1.0}, str) == "f1 - f5"
    assert rf._sum({"f3": 1.0, "f5": -2.0}, str) == "f3 + -2.0 * f5"
    assert rf._sum({"f3": 0.5, "f4": 0.5}, str) == "0.5 * f3 + 0.5 * f4"
    assert rf._sum({"f5": -1.0, "f4": 1.0}, str) == "- f5 + f4"
    assert rf.term_sums(("f3-2f5", "C1-f5"))({"f3": 1.0, "f5": 0.25, "C1": 2.0}) == {"f3-2f5": 0.5, "C1-f5": 1.75}
    assert rf.term_sums(("f1",)) is rf.term_sums(("f1",))


@pytest.mark.parametrize("term", ["f9", "C1", "f3(0)-f5", "indicator", "f6", "f5"])
def test_crossing_rejects_a_term_it_cannot_solve(term):
    """``crossing`` solves for f4 and the terms of ``TERMS`` on f1..f5; a
    name outside ``TERMS`` (f5 and f6 among them), or a term on a rho-free
    rate or the indicator, raises."""
    p = ChannelParams(3.0, 0.5, 0.8, 1.1, 0.3)
    with pytest.raises(ValueError, match="crossing solves for"):
        rf.crossing(p, term, "f1", -1.0, 1.0)
    assert 0.0 < rf.crossing(p, "f4-f5", "f3", 0.0, 1.0) < 1.0
