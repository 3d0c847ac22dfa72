"""Soliton family, its derivatives, eigenfunctions, and exact values.

The traveling-wave profile is the algebraically decaying bump
``q(y) = 4/(1 + y^2)`` and the two-parameter family is
``q_{a,c}(x) = c*q(c*(x-a))``.  On a periodic box of length L the exact
wave is the image sum ``periodic_profile``, which the profile-equation
residual checks.  Every field here is sampled from closed formulas;
nothing is obtained by solving the profile equation numerically.  This
module is the one home of those formulas: the Newton fit of
``modulation._constraint_fields`` builds the (a, c) derivatives of
q_{a,c} from ``profile``, ``profile_derivative`` and ``scaled_profile``.
``eigenfunction_field`` gives the closed-form bound states of the
linearized operator, the oracle of the operator and soliton tests and of
``bolab identities``.  The exact values of L = 1 + |D| - q and of q (the
bound-state eigenvalues and the integral table) are the module constants
below, each written once as its formula in pi and sqrt(5); the commands,
the operators and the tests read them from here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, require_positive
from .grid import Field, Grid, derivative, hilbert, l2_norm


# exact values of L = 1 + |D| - q and of q (Kenig-Martel)
LAMBDA_PLUS = (math.sqrt(5.0) - 1.0) / 2.0              # positive bound-state eigenvalue
LAMBDA_MINUS = -(math.sqrt(5.0) + 1.0) / 2.0            # negative bound-state eigenvalue
NORM_Q_SQ = 8.0 * math.pi                               # ||q||^2
NORM_YQ_PRIME_SQ = 4.0 * math.pi                        # ||(yq)'||^2
INNER_YQ_PRIME_Q = 4.0 * math.pi                        # <(yq)', q>
NORM_E_MINUS_SQ = 2.0 * (5.0 + math.sqrt(5.0)) * math.pi  # ||q + LAMBDA_PLUS (yq)'||^2
INT_Z2_Q_QPP = 4.0 * math.pi                            # int z^2 q(z) q''(z) dz
COS2_BETA = 0.5 + math.sqrt(5.0) / 10.0                 # alignment of (yq)' with e-


def qprime_norm_sq(c: float) -> float:
    """||d/dx q_{a,c}||^2 = 4 pi c^3."""
    return 4.0 * math.pi * c ** 3


@dataclass(frozen=True)
class SolitonParams:
    """Translation/scale pair (a, c) with c > 0."""

    a: float
    c: float = 1.0

    def __post_init__(self):
        require_positive("scale c", self.c)


def profile(y):
    """q(y) = 4/(1+y^2)."""
    y = np.asarray(y, dtype=float)
    return 4.0 / (1.0 + y * y)


def profile_derivative(y):
    """q'(y) = -8y/(1+y^2)^2."""
    y = np.asarray(y, dtype=float)
    return -8.0 * y / (1.0 + y * y) ** 2


def profile_second_derivative(y):
    """q''(y) = (24y^2 - 8)/(1+y^2)^3."""
    y = np.asarray(y, dtype=float)
    return (24.0 * y * y - 8.0) / (1.0 + y * y) ** 3


def scaled_profile(y):
    """(y q)'(y) = 4(1-y^2)/(1+y^2)^2, the scale-direction generator."""
    y = np.asarray(y, dtype=float)
    return 4.0 * (1.0 - y * y) / (1.0 + y * y) ** 2


def periodic_profile(y, length: float):
    """q_per(y) = sum_n q(y + nL) = (2 pi/L) sinh(k)/(sinh^2(k/2) + sin^2(k y/2)).

    The L-periodic image sum of q, with k = 2 pi/L: the periodic
    Benjamin-Ono wave, which solves c_L q - H q' - q^2/2 = 0 on the box
    exactly, at speed c_L = k coth k.  The denominator, half of
    cosh k - cos(k y), is written free of cancellation for large L.
    """
    y = np.asarray(y, dtype=float)
    k = 2.0 * math.pi / length
    return k * math.sinh(k) / (math.sinh(0.5 * k) ** 2 + np.sin(0.5 * k * y) ** 2)


def periodic_profile_hilbert(y, length: float):
    """H(q_per)(y) = -(4 pi/L) sin(2 pi y/L)/(cosh(2 pi/L) - cos(2 pi y/L)).

    The Hilbert transform (multiplier i sgn(xi), as `grid.hilbert`) of
    the L-periodic image sum q_per(y) = sum_n q(y + nL), whose Fourier
    coefficients are 4 pi/L exp(-2 pi |k|/L).  It tends to the real-line
    transform H(q) = -y q as L -> infinity; on a box of length L the two
    differ by O(L^(-1/2)) in L^2.  The denominator is evaluated as
    2 (sinh^2(pi/L) + sin^2(pi y/L)), free of cancellation for large L.
    """
    y = np.asarray(y, dtype=float)
    k = 2.0 * math.pi / length
    return -k * np.sin(k * y) / (math.sinh(0.5 * k) ** 2 + np.sin(0.5 * k * y) ** 2)


def soliton_field(grid: Grid, p: SolitonParams) -> Field:
    """Sample c*q(c*(x-a)) exactly at the grid nodes."""
    return Field(grid, p.c * profile(p.c * (grid.nodes - p.a)))


def soliton_residual(p: SolitonParams, grid: Grid) -> float:
    """L2 norm of the periodised soliton's profile-equation residual.

    The box soliton c*q_per(c*(y - a); c*L) is the scaled periodic wave,
    so its speed is c*k_c*coth(k_c) with k_c = 2 pi/(c*L); the residual
    s*q - H(q') - q^2/2 at that speed s is left with the discretisation
    error alone, not the far-field defect of the line profile's 4/y^2
    tail.
    """
    cl = p.c * grid.domain_length
    k_c = 2.0 * math.pi / cl
    q = Field(grid, p.c * periodic_profile(p.c * (grid.nodes - p.a), cl))
    speed = p.c * k_c / math.tanh(k_c)
    res = speed * q - hilbert(derivative(q)) - 0.5 * q * q
    return l2_norm(res)


def eigenfunction_field(grid: Grid, sign: str):
    """Bound-state eigenfunction and eigenvalue of the linearized operator.

    sign "+" gives e+ = q + LAMBDA_MINUS (yq)' with eigenvalue LAMBDA_PLUS,
    sign "-" gives e- = q + LAMBDA_PLUS (yq)' with eigenvalue LAMBDA_MINUS;
    both eigenfunctions are even.
    """
    if sign not in ("+", "-"):
        raise ConfigurationError(f"sign must be '+' or '-', got {sign!r}")
    y = grid.nodes
    if sign == "+":
        coef = LAMBDA_MINUS
        lam = LAMBDA_PLUS
    else:
        coef = LAMBDA_PLUS
        lam = LAMBDA_MINUS
    e = Field(grid, profile(y) + coef * scaled_profile(y))
    return e, lam
