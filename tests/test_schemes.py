"""The term table: ``schemes.Entry.terms`` and ``rate_functions.TERMS``.

One ``Entry.terms`` serves the Gaussian branches (lists of points, as a
``_Column``), the discrete oracle (floats) and the numpy references of the
soundness tests (arrays), so it must give the same bits on each.
"""

import numpy as np
import pytest

from diamond_wiretap import rate_functions as rf
from diamond_wiretap import schemes
from diamond_wiretap.rate_functions import ChannelParams

RHO = [-1.0, -0.999, -0.6, -0.1, 0.0, 0.25, 0.7, 0.999, 1.0]


def _channels(n, seed):
    rng = np.random.default_rng(seed)
    return [ChannelParams(float(10.0 ** rng.uniform(-3.0, 6.0)), float(10.0 ** rng.uniform(-3.0, 6.0)),
                          float(rng.uniform(0.0, 5.0)), float(rng.uniform(0.0, 5.0)), float(rng.uniform(0.0, 0.99)))
            for _ in range(n)]


def _bits(values):
    return [float(v).hex() for v in np.broadcast_to(values, (len(RHO),))]


def test_entry_terms_agree_on_floats_columns_and_arrays():
    """For every ``TABLE`` entry, its terms from the same rates are the same
    bits point by point on floats, on one ``_Column`` of all the points, and
    on numpy arrays; the terms come in the entry's binding order."""
    for p in _channels(100, 22):
        at = rf.rates(p, RHO, ("f1", "f2", "f3", "f4", "f5", "indicator"))
        fixed = {"C1": p.c1, "C2": p.c2, "f3(0)": rf.f3(p, 0.0)}
        for name, entry in schemes.TABLE.items():
            column = entry.terms({**{u: schemes._Column(v) for u, v in at.items()}, **fixed})
            array = entry.terms({**{u: np.array(v) for u, v in at.items()}, **fixed})
            points = [entry.terms({**{u: v[j] for u, v in at.items()}, **fixed}) for j in range(len(RHO))]
            assert list(column) == list(array) == list(entry.names), name
            for term in entry.names:
                expected = [point[term].hex() for point in points]
                assert _bits(column[term]) == expected, (p, name, term)
                assert _bits(array[term]) == expected, (p, name, term)


@pytest.mark.parametrize("term", ["f9", "C1", "f3(0)-f5", "indicator", "f6", "f5"])
def test_crossing_rejects_a_term_it_cannot_solve(term):
    """``crossing`` solves for f4 and the terms of ``TERMS`` on f1..f5; a
    name outside ``TERMS`` (f5 and f6 among them), or a term on a rho-free
    rate or the indicator, raises."""
    p = ChannelParams(3.0, 0.5, 0.8, 1.1, 0.3)
    with pytest.raises(ValueError, match="crossing solves for"):
        rf.crossing(p, term, "f1", -1.0, 1.0)
    assert 0.0 < rf.crossing(p, "f4-f5", "f3", 0.0, 1.0) < 1.0
