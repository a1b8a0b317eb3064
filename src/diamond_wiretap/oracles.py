"""Independent cross-checks for the closed forms.

Two independent evaluation paths:

* jointly Gaussian vectors (X1, X2, Y, Z) with the model covariance, where
  any mutual information reduces to log-determinant ratios; and
* discrete memoryless channels given by an explicit transition table
  p(y, z | x1, x2), where the general-distribution secrecy rates are direct
  sums.  A quantized version of the Gaussian model ties the two together.

The closed-form rate functions must agree with the Gaussian path to
round-off; ``validate_closed_forms`` drives that comparison over seeded
random parameter draws.  The Gaussian path is evaluated as one stack: the
covariances of all draws form one (n, 4, 4) array, and each principal block
that a mutual information needs gets its log-determinant for every draw
from one stacked ``slogdet``.  ``gaussian_mi`` is the one-row case.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import rate_functions as rf
from .errors import InvalidPmf, SingularCovariance
from .rate_functions import ChannelParams
from .schemes import TABLE

__all__ = [
    "GaussianSystem",
    "gaussian_mi",
    "DmcChannel",
    "DmcRates",
    "dmc_rates",
    "load_dmc",
    "discretized_gaussian_channel",
    "ValidationReport",
    "validate_closed_forms",
]

_LN2 = math.log(2.0)
_VARS = {"X1": 0, "X2": 1, "Y": 2, "Z": 3}


def _covariances(p1, p2, rho, g) -> np.ndarray:
    """Covariance of (X1, X2, Y, Z) for each element of the equally shaped
    arrays (or floats) p1, p2, rho, g: shape p1.shape + (4, 4)."""
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


@dataclass(frozen=True)
class GaussianSystem:
    """Covariance of (X1, X2, Y, Z) for correlated Gaussian inputs.

    Y = X1 + X2 + N_Y and Z = sqrt(g)*(X1 + X2) + N_Z with independent unit
    noises, E[X_i^2] = P_i, and E[X1 X2] = rho*sqrt(P1*P2).
    """

    p1: float
    p2: float
    rho: float
    g: float

    @property
    def covariance(self) -> np.ndarray:
        return _covariances(self.p1, self.p2, self.rho, self.g)


def _parse_mi_spec(spec: str) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """The principal blocks (A+C, B+C, C, A+B+C) of I(A;B|C), each sorted."""
    s = spec.replace(" ", "")
    if not (s.startswith("I(") and s.endswith(")")):
        raise ValueError(f"malformed mutual-information spec {spec!r}")
    body = s[2:-1]
    parts = body.split(";")
    if len(parts) != 2:
        raise ValueError(f"expected exactly one ';' in {spec!r}")
    a_part, rest = parts
    b_part, _, c_part = rest.partition("|")

    def to_idx(chunk: str) -> tuple[int, ...]:
        if not chunk:
            return ()
        idx = []
        for name in chunk.split(","):
            if name not in _VARS:
                raise ValueError(f"unknown variable {name!r} in {spec!r}")
            idx.append(_VARS[name])
        return tuple(idx)

    a, b, c = to_idx(a_part), to_idx(b_part), to_idx(c_part)
    if not a or not b:
        raise ValueError(f"both sides of ';' need variables in {spec!r}")
    if set(a) & set(b) or set(a) & set(c) or set(b) & set(c):
        raise ValueError(f"variable groups must be disjoint in {spec!r}")
    return tuple(tuple(sorted(block)) for block in (a + c, b + c, c, a + b + c))


def _mutual_informations(cov: np.ndarray, specs) -> dict[str, np.ndarray]:
    """I(A;B|C) in bits for every covariance of the stack ``cov`` (n, 4, 4),
    for each of ``specs``: 0.5*log2(det S_AC * det S_BC / (det S_C * det S_ABC)).

    Each distinct principal block gets one stacked ``slogdet`` over all n
    covariances, shared by the specs that need it.
    """
    logdets = {(): 0.0}

    def logdet(idx: tuple[int, ...]):
        if idx not in logdets:
            sign, ld = np.linalg.slogdet(cov[:, idx][:, :, idx])
            if not np.all((sign > 0.0) & np.isfinite(ld)):
                raise SingularCovariance(f"covariance block {idx} is not positive definite")
            logdets[idx] = ld
        return logdets[idx]

    out = {}
    for spec in specs:
        ac, bc, c, abc = _parse_mi_spec(spec)
        out[spec] = 0.5 * (logdet(ac) + logdet(bc) - logdet(c) - logdet(abc)) / _LN2
    return out


def gaussian_mi(system: GaussianSystem, spec: str) -> float:
    """Mutual information in bits from the log-determinant identity.

    ``spec`` looks like "I(X1,X2;Y)" or "I(X1;Y|X2)" over the variables
    X1, X2, Y, Z.  I(A;B|C) = 0.5*log2(det S_AC * det S_BC / (det S_C * det S_ABC)).
    """
    return float(_mutual_informations(system.covariance[None], (spec,))[spec][0])


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

    @property
    def alphabet_sizes(self) -> tuple[int, int, int, int]:
        return self.transition.shape


def _entropy(p: np.ndarray) -> float:
    # 0*log(0) = 0 by convention
    q = p[p > 0.0]
    return float(-np.sum(q * np.log2(q)))


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
    n1, n2, _, _ = channel.alphabet_sizes
    if pin.shape != (n1, n2):
        raise InvalidPmf(f"input pmf shape {pin.shape} does not match alphabets ({n1}, {n2})")
    _check_pmf(pin, "input pmf")
    if not (0.0 <= c1 < math.inf and 0.0 <= c2 < math.inf):
        raise InvalidPmf(f"link capacities must be finite and nonnegative, got c1={c1}, c2={c2}")

    pxy = pin[:, :, None] * channel.transition.sum(axis=3)  # p(x1, x2, y)
    pxz = pin[:, :, None] * channel.transition.sum(axis=2)  # p(x1, x2, z)

    h_x1x2 = _entropy(pin)
    h_x1 = _entropy(pin.sum(axis=1))
    h_x2 = _entropy(pin.sum(axis=0))
    h_y = _entropy(pxy.sum(axis=(0, 1)))
    h_z = _entropy(pxz.sum(axis=(0, 1)))
    h_x1x2y = _entropy(pxy)
    h_x1x2z = _entropy(pxz)
    h_x1y = _entropy(pxy.sum(axis=1))
    h_x2y = _entropy(pxy.sum(axis=0))
    h_x1z = _entropy(pxz.sum(axis=1))
    h_x2z = _entropy(pxz.sum(axis=0))

    mi = {
        "I(X1,X2;Y)": h_x1x2 + h_y - h_x1x2y,
        "I(X1,X2;Z)": h_x1x2 + h_z - h_x1x2z,
        "I(X1;Y|X2)": h_x1x2 + h_x2y - h_x2 - h_x1x2y,
        "I(X2;Y|X1)": h_x1x2 + h_x1y - h_x1 - h_x1x2y,
        "I(X1;X2)": h_x1 + h_x2 - h_x1x2,
        "I(X1;Z)": h_x1 + h_z - h_x1z,
        "I(X2;Z)": h_x2 + h_z - h_x2z,
    }
    # the rates of schemes.TABLE, from the mutual informations of this input
    r = {
        "C1": c1, "C2": c2,
        "f1": c1 + mi["I(X2;Y|X1)"], "f2": c2 + mi["I(X1;Y|X2)"], "f3": c1 + c2 - mi["I(X1;X2)"],
        "f4": mi["I(X1,X2;Y)"], "f5": mi["I(X1,X2;Z)"],
        "indicator": rf.link_indicator(c1, c2, mi["I(X1;Z)"], mi["I(X2;Z)"]),
    }
    rates = {name: max(0.0, float(min(TABLE[name].terms(r).values())))
             for name in ("df1", "pdfm1", "df2", "pdfdfm2", "pdfpdfm2")}
    return DmcRates(**rates, r_prime=r["f5"], mi=mi)


def load_dmc(path: str) -> tuple[DmcChannel, np.ndarray, float, float]:
    """Read a channel document: alphabet_sizes, transition, input_pmf, c1, c2.

    The transition is the row-major flattening of p(y, z | x1, x2) indexed
    (x1, x2, y, z); the input pmf is the row-major p(x1, x2).
    """
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    for field in ("alphabet_sizes", "transition", "input_pmf", "c1", "c2"):
        if not isinstance(doc, dict) or field not in doc:
            raise InvalidPmf(f"channel document needs to be a JSON object with the field {field!r}")
    try:  # a null, a list or an object where a number belongs, or an infinite size
        sizes = doc["alphabet_sizes"]
        if not isinstance(sizes, list) or len(sizes) != 4 or any(int(n) != n or n < 1 for n in sizes):
            raise InvalidPmf(f"alphabet_sizes needs four positive integers, got {sizes!r}")
        n1, n2, ny, nz = (int(n) for n in sizes)
        trans, pin = (np.asarray(doc[field], dtype=float) for field in ("transition", "input_pmf"))
        c1, c2 = float(doc["c1"]), float(doc["c2"])
    except (TypeError, OverflowError) as exc:
        raise InvalidPmf(f"channel document has a value of the wrong type: {exc}") from exc
    if trans.size != n1 * n2 * ny * nz:
        raise InvalidPmf(f"transition has {trans.size} entries, expected {n1 * n2 * ny * nz}")
    if pin.size != n1 * n2:
        raise InvalidPmf(f"input_pmf has {pin.size} entries, expected {n1 * n2}")
    pin = pin.reshape(n1, n2)
    _check_pmf(pin, "input_pmf")
    channel = DmcChannel(transition=trans.reshape(n1, n2, ny, nz))
    return channel, pin, c1, c2


def _gaussian_bins(n: int, lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
    edges = np.linspace(lo, hi, n + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    return edges, centers


def _phi(x: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.vectorize(math.erf)(x / math.sqrt(2.0)))


def _bin_probs(edges: np.ndarray, mean, scale: float) -> np.ndarray:
    # P(bin) for N(mean, scale^2), renormalized over the covered range
    z = (edges[None, :] - np.asarray(mean, dtype=float)[:, None]) / scale
    cdf = _phi(z)
    p = np.diff(cdf, axis=1)
    return p / p.sum(axis=1, keepdims=True)


def discretized_gaussian_channel(
    p1: float,
    p2: float,
    g: float,
    n_input: int = 64,
    n_output: int = 64,
    span: float = 5.0,
) -> tuple[DmcChannel, np.ndarray]:
    """Quantized Gaussian model with independent inputs (rho = 0).

    Inputs are quantized on uniform grids over +/- span standard deviations
    with ``n_input`` bins each; Y and Z get ``n_output`` bins covering the
    reachable range plus the same noise margin.  Given the inputs, Y and Z
    are conditionally independent, so the transition factorizes.
    """
    e1, x1 = _gaussian_bins(n_input, -span * math.sqrt(p1), span * math.sqrt(p1))
    e2, x2 = _gaussian_bins(n_input, -span * math.sqrt(p2), span * math.sqrt(p2))
    pm1 = np.diff(_phi(e1[None, :] / math.sqrt(p1)), axis=1).ravel()
    pm2 = np.diff(_phi(e2[None, :] / math.sqrt(p2)), axis=1).ravel()
    pin = np.outer(pm1 / pm1.sum(), pm2 / pm2.sum())

    sums = (x1[:, None] + x2[None, :]).ravel()
    ey, _ = _gaussian_bins(n_output, sums.min() - span, sums.max() + span)
    sg = math.sqrt(g)
    ez, _ = _gaussian_bins(n_output, sg * sums.min() - span, sg * sums.max() + span)

    py = _bin_probs(ey, sums, 1.0)  # (n_input^2, n_output)
    pz = _bin_probs(ez, sg * sums, 1.0)
    trans = (py[:, :, None] * pz[:, None, :]).reshape(n_input, n_input, n_output, n_output)
    return DmcChannel(transition=trans), pin


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


# Each closed form beside the mutual information it equals, in the order of
# the failures within a trial; f3 is last, as it is skipped at |rho| = 1
_IDENTITIES = (
    ("f1", "I(X2;Y|X1)"), ("f2", "I(X1;Y|X2)"), ("f4", "I(X1,X2;Y)"), ("f5", "I(X1,X2;Z)"),
    ("f6", "I(X1;Z)"), ("f7", "I(X2;Z)"), ("f3", "I(X1;X2)"),
)
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
    rng = np.random.default_rng(seed)
    checked = skipped = 0
    max_deviation = 0.0
    failures = []
    for start in range(0, trials, _CHUNK):
        draws = _draws(rng, min(_CHUNK, trials - start))
        closed = []
        for p1, p2, c1, c2, g, rho in draws.tolist():
            r = rf.rates(ChannelParams(p1=p1, p2=p2, c1=c1, c2=c2, g=g), rho, [name for name, _ in _IDENTITIES])
            closed.append((r["f1"] - c1, r["f2"] - c2, r["f4"], r["f5"], r["f6"], r["f7"], c1 + c2 - r["f3"]))
        p1, p2, _, _, g, rho = draws.T
        mi = _mutual_informations(_covariances(p1, p2, rho, g), [spec for _, spec in _IDENTITIES])
        dev = np.abs(np.array(closed) - np.stack(list(mi.values()), axis=-1))

        compared = np.ones(dev.shape, dtype=bool)
        compared[:, -1] = np.abs(rho) != 1.0  # f3 is -inf there; covariance of (X1, X2) is singular
        failed = compared & ~(dev <= tolerance)  # a NaN deviation fails
        checked += int(compared.sum())
        skipped += len(draws) - int(compared[:, -1].sum())
        max_deviation = max(max_deviation, float(np.max(dev, where=compared & ~np.isnan(dev), initial=0.0)))
        failures += [(start + i, _IDENTITIES[j][0], float(dev[i, j])) for i, j in np.argwhere(failed).tolist()]
    return ValidationReport(trials=trials, seed=seed, tolerance=tolerance, checked=checked, skipped=skipped,
                            max_deviation=max_deviation, failures=tuple(failures))
