"""A quantized version of the Gaussian model as a discrete channel, which ties
the discrete-channel oracle to the closed forms in the tests."""

import math

import numpy as np

from diamond_wiretap.oracles import DmcChannel


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
