"""Exception hierarchy shared across the package."""

__all__ = [
    "AccuracyError",
    "AnsatzError",
    "ConfigError",
    "DegenerateConfigurationError",
    "DegreeError",
    "LaxchainError",
    "PoleError",
    "UnsupportedCurveError",
]


class LaxchainError(Exception):
    """Base class for all library errors."""


class DegenerateConfigurationError(LaxchainError):
    """Two chain sites that must stay distinct have collided.

    ``sites`` names the colliding indices so integrators and verification
    drivers can report where a trajectory broke down.
    """

    def __init__(self, sites, message=None):
        self.sites = tuple(sites)
        super().__init__(message or f"degenerate configuration at sites {self.sites}")


class PoleError(LaxchainError):
    """A formula was evaluated at a pole (vanishing denominator)."""


class UnsupportedCurveError(LaxchainError):
    """The spectral curve does not meet a routine's requirements."""


class AccuracyError(LaxchainError):
    """A numeric run exceeded its accuracy budget (e.g. energy drift)."""


class AnsatzError(LaxchainError):
    """A commutant search ansatz is empty, ill-posed, or inapplicable."""


class DegreeError(LaxchainError):
    """Polynomial degree bookkeeping failed (inconsistent seed data)."""


class ConfigError(LaxchainError):
    """A run configuration failed to parse or validate; names the field."""
