"""Exception types shared across the package, and its one input check.

`require_positive` is the single finite-and-positive check of a scalar
parameter: every "must be finite and positive" ConfigurationError comes
from it, so NaN and inf fail where a bare ``> 0`` would let inf through.
"""

import math


class BolabError(Exception):
    """Base class for all package errors."""


class ConfigurationError(BolabError):
    """Invalid numerical or physical configuration (bad grid size, gamma <= 0, ...)."""


class UsageError(BolabError):
    """Operation applied to inputs that violate its contract (mismatched grids, wrong frame, ...)."""


class DecompositionError(BolabError):
    """Soliton-parameter fit failed: data outside the tube or Newton divergence."""


class EvolutionError(BolabError):
    """Time integration aborted (blow-up guard or seam guard triggered)."""


class DiagnosticError(BolabError):
    """A diagnostic estimate failed to converge.  Carries the partial estimate."""

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class ExperimentError(BolabError):
    """An experiment sweep produced no usable runs."""


def require_positive(name: str, value) -> float:
    """float(value) if it is finite and positive; otherwise a
    ConfigurationError naming the parameter."""
    if not (math.isfinite(value) and value > 0):
        raise ConfigurationError(f"{name} must be finite and positive, got {value}")
    return float(value)
