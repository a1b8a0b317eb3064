"""Independent cross-checks for the closed forms.

``_IDENTITIES`` writes each closed form f1..f7 once as a mutual information
I(A;B|C) of (X1, X2, Y, Z), net of the link capacities it adds.  Each
I(A;B|C) = h(AC) + h(BC) - h(C) - h(ABC) comes from a block entropy h on two
independent paths:

* jointly Gaussian vectors (X1, X2, Y, Z) with the model covariance, where h
  is half the log-determinant of a principal block; and
* discrete memoryless channels given by an explicit transition table
  p(y, z | x1, x2), where h is the entropy of a marginal and the
  general-distribution secrecy rates are direct sums.

The closed-form rate functions must agree with the Gaussian path to
round-off; ``validate_closed_forms`` drives that comparison over seeded
random parameter draws.  The Gaussian path is evaluated as one stack: the
covariances of all draws form one (n, 4, 4) array, and each principal block
that a mutual information needs gets its log-determinant for every draw
from one stacked ``slogdet``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import rate_functions as rf
from . import scenario_one, scenario_two
from .errors import InvalidPmf, SingularCovariance
from .rate_functions import ChannelParams
from .schemes import TABLE

__all__ = [
    "DMC_SCHEMES",
    "DmcChannel",
    "DmcRates",
    "dmc_rates",
    "load_dmc",
    "ValidationReport",
    "validate_closed_forms",
]

_LN2 = math.log(2.0)
_VARIABLES = ("X1", "X2", "Y", "Z")
_X1, _X2, _Y, _Z = range(4)

# Each closed form f, the link capacities it adds, a sign and the blocks
# (A, B, C) of indices into (X1, X2, Y, Z) with sign*(f - links) = I(A;B|C).
# In the order of the failures within a trial of validate_closed_forms; f3 is
# last, as it is skipped at |rho| = 1
_IDENTITIES = (
    ("f1", ("C1",), 1, ((_X2,), (_Y,), (_X1,))),
    ("f2", ("C2",), 1, ((_X1,), (_Y,), (_X2,))),
    ("f4", (), 1, ((_X1, _X2), (_Y,), ())),
    ("f5", (), 1, ((_X1, _X2), (_Z,), ())),
    ("f6", (), 1, ((_X1,), (_Z,), ())),
    ("f7", (), 1, ((_X2,), (_Z,), ())),
    ("f3", ("C1", "C2"), -1, ((_X1,), (_X2,), ())),
)


def _conditional_mi(h, a, b, c):
    """I(A;B|C) = h(AC) + h(BC) - h(C) - h(ABC) from the entropy ``h`` of a
    sorted block of indices into (X1, X2, Y, Z); h of no variables is 0."""
    ac, bc, c, abc = (tuple(sorted(block)) for block in (a + c, b + c, c, a + b + c))
    return h(ac) + h(bc) - (h(c) if c else 0.0) - h(abc)


def _label(a, b, c) -> str:
    """I(A;B|C) as text in the variable names, such as "I(X1,X2;Y)"."""
    a, b, c = (",".join(_VARIABLES[i] for i in part) for part in (a, b, c))
    return f"I({a};{b}|{c})" if c else f"I({a};{b})"


def _covariances(p1, p2, rho, g) -> np.ndarray:
    """Covariance of (X1, X2, Y, Z) for each element of the equally shaped
    arrays (or floats) p1, p2, rho, g: shape p1.shape + (4, 4).

    Y = X1 + X2 + N_Y and Z = sqrt(g)*(X1 + X2) + N_Z with independent unit
    noises, E[X_i^2] = P_i, and E[X1 X2] = rho*sqrt(P1*P2).
    """
    p1, p2, rho, g = (np.asarray(x, dtype=float) for x in (p1, p2, rho, g))
    q = rho * np.sqrt(p1 * p2)
    s = p1 + p2 + 2.0 * q
    sg = np.sqrt(g)
    a, b = p1 + q, p2 + q
    rows = [
        p1, q, a, sg * a,
        q, p2, b, sg * b,
        a, b, s + 1.0, sg * s,
        sg * a, sg * b, sg * s, g * s + 1.0,
    ]
    return np.stack(rows, axis=-1).reshape(p1.shape + (4, 4))


def _mutual_informations(cov: np.ndarray, triples) -> list[np.ndarray]:
    """I(A;B|C) in bits for every covariance of the stack ``cov`` (n, 4, 4),
    for each index triple (A, B, C) of ``triples``:
    0.5*log2(det S_AC * det S_BC / (det S_C * det S_ABC)).

    Each distinct principal block gets one stacked ``slogdet`` over all n
    covariances, shared by the triples that need it.
    """
    half_logdets = {}

    def h(block):
        if block not in half_logdets:
            sign, ld = np.linalg.slogdet(cov[:, block][:, :, block])
            if not np.all((sign > 0.0) & np.isfinite(ld)):
                raise SingularCovariance(f"covariance block {block} is not positive definite")
            half_logdets[block] = 0.5 * ld
        return half_logdets[block]

    return [_conditional_mi(h, *triple) / _LN2 for triple in triples]


def _check_pmf(p: np.ndarray, what: str, axis=None) -> None:
    if not np.all(np.isfinite(p)):
        raise InvalidPmf(f"{what} has non-finite entries")
    if np.any(p < 0.0):
        raise InvalidPmf(f"{what} has negative entries")
    sums = p.sum() if axis is None else p.sum(axis=axis)
    if np.any(np.abs(sums - 1.0) > 1e-12):
        raise InvalidPmf(f"{what} rows must sum to 1 within 1e-12")


@dataclass(frozen=True)
class DmcChannel:
    """Discrete channel p(y, z | x1, x2) with finite alphabets."""

    transition: np.ndarray  # shape (n1, n2, ny, nz)

    def __post_init__(self) -> None:
        t = np.asarray(self.transition, dtype=float)
        if t.ndim != 4:
            raise InvalidPmf(f"transition must be 4-dimensional, got shape {t.shape}")
        _check_pmf(t, "transition p(y,z|x1,x2)", axis=(2, 3))
        object.__setattr__(self, "transition", t)


def _entropy(p: np.ndarray) -> float:
    # 0*log(0) = 0 by convention
    q = p[p > 0.0]
    return float(-np.sum(q * np.log2(q)))


# each entry of the scenario tables' schemes once, in order: the rate fields
# of ``DmcRates`` and the scheme columns of the ``dmc`` report
DMC_SCHEMES = tuple(dict.fromkeys(entry for module in (scenario_one, scenario_two)
                                  for _, entry, *_ in module.TABLE.schemes))


@dataclass(frozen=True)
class DmcRates:
    """The five secrecy rates of a discrete channel plus their ingredients.

    Scenario-1 schemes carry suffix 1, scenario-2 schemes suffix 2; the
    scenario-2 fictitious-message rate r_prime sits at its smallest
    admissible value I(X1,X2;Z).
    """

    df1: float
    pdfm1: float
    df2: float
    pdfdfm2: float
    pdfpdfm2: float
    r_prime: float
    mi: dict[str, float]


def dmc_rates(channel: DmcChannel, input_pmf: np.ndarray, c1: float, c2: float) -> DmcRates:
    """Evaluate all five secrecy rates for one input distribution.

    ``input_pmf`` is p(x1, x2) over the input alphabets.  Rates are clamped
    at 0; the PDF-PDF-M scheme additionally requires the strict link
    conditions C1 > I(X1;Z) and C2 > I(X2;Z).
    """
    pin = np.asarray(input_pmf, dtype=float)
    n1, n2, _, _ = channel.transition.shape
    if pin.shape != (n1, n2):
        raise InvalidPmf(f"input pmf shape {pin.shape} does not match alphabets ({n1}, {n2})")
    _check_pmf(pin, "input pmf")
    if not (0.0 <= c1 < math.inf and 0.0 <= c2 < math.inf):
        raise InvalidPmf(f"link capacities must be finite and nonnegative, got c1={c1}, c2={c2}")

    pxy = pin[:, :, None] * channel.transition.sum(axis=3)  # p(x1, x2, y)
    pxz = pin[:, :, None] * channel.transition.sum(axis=2)  # p(x1, x2, z)

    def h(block):
        # the marginal of a block with Z from pxz, with Y from pxy, else from
        # pin; no block holds both Y and Z
        joint = pxz if _Z in block else pxy if _Y in block else pin
        return _entropy(joint.sum(axis=tuple(x for x in (_X1, _X2) if x not in block)))

    # the rates of schemes.TABLE, from the mutual informations of this input
    mi, r = {}, {"C1": c1, "C2": c2}
    for name, links, sign, (a, b, c) in _IDENTITIES:
        mi[_label(a, b, c)] = value = _conditional_mi(h, a, b, c)
        r[name] = sum(r[link] for link in links) + sign * value
    r["indicator"] = rf.link_indicator(c1, c2, r["f6"], r["f7"])
    rates = {name: max(0.0, float(min(TABLE[name].terms(r).values())))
             for name in DMC_SCHEMES}
    return DmcRates(**rates, r_prime=r["f5"], mi=mi)


def _flags(value) -> bool:
    """Whether a JSON value holds a true or a false anywhere."""
    items = value.values() if isinstance(value, dict) else value if isinstance(value, list) else ()
    return isinstance(value, bool) or any(map(_flags, items))


def load_dmc(path: str) -> tuple[DmcChannel, np.ndarray, float, float]:
    """Read a channel document: alphabet_sizes, transition, input_pmf, c1, c2.

    The transition is the row-major flattening of p(y, z | x1, x2) indexed
    (x1, x2, y, z); the input pmf is the row-major p(x1, x2).
    """
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    fields = ("alphabet_sizes", "transition", "input_pmf", "c1", "c2")
    for field in fields:
        if not isinstance(doc, dict) or field not in doc:
            raise InvalidPmf(f"channel document needs to be a JSON object with the field {field!r}")
    try:
        sizes, trans, pin, c1, c2 = values = [np.asarray(doc[field]) for field in fields]
    except ValueError as exc:  # lists of unequal lengths
        raise InvalidPmf(f"channel document has lists of unequal lengths: {exc}") from exc
    # a string, a null, true, false, an object or an integer beyond 64 bits
    # is no number here; numpy would read a true among numbers as 1
    if _flags(doc) or any(value.dtype.kind not in "iuf" for value in values) or c1.shape or c2.shape:
        raise InvalidPmf("channel document needs a number for c1 and for c2, and numbers in the other fields")
    if sizes.shape != (4,) or not np.all(np.isfinite(sizes) & (sizes >= 1) & (sizes == np.floor(sizes))):
        raise InvalidPmf(f"alphabet_sizes needs four positive integers, got {doc['alphabet_sizes']!r}")
    n1, n2, ny, nz = (int(n) for n in sizes)
    trans, pin, c1, c2 = trans.astype(float), pin.astype(float), float(c1) + 0.0, float(c2) + 0.0
    if trans.size != n1 * n2 * ny * nz:
        raise InvalidPmf(f"transition has {trans.size} entries, expected {n1 * n2 * ny * nz}")
    if pin.size != n1 * n2:
        raise InvalidPmf(f"input_pmf has {pin.size} entries, expected {n1 * n2}")
    pin = pin.reshape(n1, n2)
    _check_pmf(pin, "input_pmf")
    channel = DmcChannel(transition=trans.reshape(n1, n2, ny, nz))
    return channel, pin, c1, c2


@dataclass(frozen=True)
class ValidationReport:
    """Result of comparing the closed forms against the Gaussian oracle."""

    trials: int
    seed: int
    tolerance: float
    checked: int
    skipped: int
    max_deviation: float
    failures: tuple[tuple[int, str, float], ...]

    @property
    def passed(self) -> bool:
        return not self.failures


# Per trial: P1, P2, C1, C2, g, rho
_DRAW_BOUNDS = np.array([[1e-3, 100.0], [1e-3, 100.0], [0.0, 5.0], [0.0, 5.0], [0.0, 0.99], [-1.0, 1.0]])


def _draws(rng: np.random.Generator, trials: int) -> np.ndarray:
    """Columns P1, P2, C1, C2, g, rho of each trial, drawn from ``rng`` in
    that order trial after trial; g is not drawn but 0 in every 25th trial,
    counted from the first."""
    drawn = np.ones((trials, len(_DRAW_BOUNDS)), dtype=bool)
    drawn[::25, 4] = False
    bounds = np.broadcast_to(_DRAW_BOUNDS, (trials, *_DRAW_BOUNDS.shape))[drawn]
    draws = np.zeros(drawn.shape)
    draws[drawn] = rng.uniform(bounds[:, 0], bounds[:, 1])
    return draws


# Trials per stack of validate_closed_forms, so that its memory stays bounded
# for any number of trials.  A multiple of 25, so that every chunk starts on
# the g pattern and the draws run on from chunk to chunk as in one stack.
_CHUNK = 10_000


def validate_closed_forms(trials: int = 1000, seed: int = 0, tolerance: float = 1e-9) -> ValidationReport:
    """Compare f1..f7 with log-determinant mutual informations on random draws.

    Draws P1, P2 in (0, 100], C1, C2 in [0, 5], g in [0, 0.99] (forced to 0
    every 25th draw), rho in [-1, 1].  The f3 identity is skipped at
    |rho| = 1 where the input covariance is singular and f3 is -inf.  The
    closed forms take one ``rate_functions.rates`` call per draw; the
    mutual informations are evaluated for up to ``_CHUNK`` draws at once.
    """
    if trials < 0:
        raise ValueError(f"trials must be nonnegative, got {trials}")
    if not tolerance >= 0.0:
        raise ValueError(f"tolerance must be a nonnegative number, got {tolerance}")
    names = [name for name, *_ in _IDENTITIES]
    rng = np.random.default_rng(seed)
    checked = skipped = 0
    max_deviation = 0.0
    failures = []
    for start in range(0, trials, _CHUNK):
        draws = _draws(rng, min(_CHUNK, trials - start))
        rates = np.array([list(rf.rates(ChannelParams(p1=p1, p2=p2, c1=c1, c2=c2, g=g), rho, names).values())
                          for p1, p2, c1, c2, g, rho in draws.tolist()])
        p1, p2, c1, c2, g, rho = draws.T
        links = {"C1": c1, "C2": c2}
        closed = np.stack([sign * (rates[:, k] - sum(links[link] for link in added))
                           for k, (_, added, sign, _) in enumerate(_IDENTITIES)], axis=-1)
        mi = _mutual_informations(_covariances(p1, p2, rho, g), [triple for *_, triple in _IDENTITIES])
        dev = np.abs(closed - np.stack(mi, axis=-1))

        compared = np.ones(dev.shape, dtype=bool)
        compared[:, -1] = np.abs(rho) != 1.0  # f3 is -inf there; covariance of (X1, X2) is singular
        failed = compared & ~(dev <= tolerance)  # a NaN deviation fails
        checked += int(compared.sum())
        skipped += len(draws) - int(compared[:, -1].sum())
        max_deviation = max(max_deviation, float(np.max(dev, where=compared & ~np.isnan(dev), initial=0.0)))
        failures += [(start + i, _IDENTITIES[j][0], float(dev[i, j])) for i, j in np.argwhere(failed).tolist()]
    return ValidationReport(trials=trials, seed=seed, tolerance=tolerance, checked=checked, skipped=skipped,
                            max_deviation=max_deviation, failures=tuple(failures))
