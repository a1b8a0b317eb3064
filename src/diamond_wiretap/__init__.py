"""Secrecy-capacity bounds for the degraded Gaussian diamond wiretap channel.

A source talks to two relays over noiseless finite-capacity links; the relays
share a Gaussian multiple-access channel to the receiver, and an eavesdropper
hears a degraded version of the received signal.  This package computes upper
and lower bounds on the secrecy capacity under two randomness scenarios (all
three nodes share the stochastic-encoding randomness, or only the source),
certifies the parameter window where the bounds meet, and cross-validates the
closed forms against log-determinant and discrete-channel oracles.
"""

from .errors import (
    AsymmetricParams,
    DiamondWiretapError,
    DomainError,
    EmptyInterval,
    InvalidPmf,
    ParameterError,
    SingularCovariance,
)
from .rate_functions import ChannelParams, RandomnessBudget

__version__ = "0.1.0"

__all__ = [
    "ChannelParams",
    "RandomnessBudget",
    "DiamondWiretapError",
    "ParameterError",
    "DomainError",
    "EmptyInterval",
    "SingularCovariance",
    "InvalidPmf",
    "AsymmetricParams",
    "__version__",
]
