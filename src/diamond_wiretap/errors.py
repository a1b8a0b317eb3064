"""Exception types shared across the package.

Every failure mode that callers are expected to handle gets its own class so
that the CLI can map validation problems and numerical problems to distinct
exit codes without string matching.  A randomness budget that no correlation
fits is not an error: ``rate_functions.f5_inverse`` returns None, and the
bounds report zeros with a note.
"""

__all__ = [
    "DiamondWiretapError",
    "ParameterError",
    "DomainError",
    "EmptyInterval",
    "SingularCovariance",
    "InvalidPmf",
    "AsymmetricParams",
]


class DiamondWiretapError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(DiamondWiretapError, ValueError):
    """Channel parameters outside their admissible ranges."""


class DomainError(DiamondWiretapError, ValueError):
    """A correlation coefficient outside the domain of a rate function."""


class EmptyInterval(DiamondWiretapError, ValueError):
    """An optimization interval with lower end above the upper end."""


class SingularCovariance(DiamondWiretapError):
    """A covariance block needed for a mutual information is singular."""


class InvalidPmf(DiamondWiretapError, ValueError):
    """A probability table with negative mass or rows not summing to one."""


class AsymmetricParams(DiamondWiretapError, ValueError):
    """An operation that requires symmetric parameters got unequal ones."""
