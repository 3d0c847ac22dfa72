"""Exception types shared across the package, and its input checks.

`require_positive` is the single finite-and-positive check of a scalar
parameter: every "must be finite and positive" ConfigurationError comes
from it, so NaN and inf fail where a bare ``> 0`` would let inf through.
`require_count` is the one check of a count (a stride, a thread count):
an integer, so NaN, inf and 2.5 fail where a bare ``< 1`` would pass them.
"""

import math
import numbers


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


def require_count(name: str, value) -> int:
    """int(value) if it is an integer (numpy integers too) of at least 1;
    otherwise a ConfigurationError naming the parameter."""
    if not isinstance(value, numbers.Integral):
        raise ConfigurationError(f"{name} must be an integer, got {value}")
    if value < 1:
        raise ConfigurationError(f"{name} must be at least 1, got {value}")
    return int(value)
