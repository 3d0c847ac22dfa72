"""Linearized operators around the soliton and the commutator-norm probe.

The operator family, by kind:

* "linearized":        I + D - q          (D = |xi| multiplier)
* "linearized_scaled": c + D - c*q(c x)
* "virial":            2D + I - (y q)'    (the quadratic form arising in
                                           the localized virial identity)
* "projector":         rank-one projection onto q' weighted by the
                       curvature functional <f, (linearized) q''>/||q'||^2
* "dual":              (1 + gamma d/dy)^{-1} (linearized)  -- the change
                       of variable used to pass to the dual flow.

The commutator probe measures the operator that the regularized inverse
fails to commute with the soliton-weighted linearized operator by.  Its
maps are built from the grid's multiplier operators and
`apply_operator`; its norm is the top singular value from ARPACK
(`scipy.sparse.linalg.svds`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import ArpackError, LinearOperator, svds

from .errors import ConfigurationError, DiagnosticError, UsageError
from .grid import (Field, Grid, apply_multiplier, dgamma_inverse,
                   dgamma_inverse_adjoint, fractional_derivative, inner)
from .soliton import (profile, profile_derivative, profile_second_derivative,
                      scaled_profile)

VALID_KINDS = ("linearized", "linearized_scaled", "virial", "projector", "dual")


@dataclass(frozen=True)
class OperatorSpec:
    """Which operator to apply, plus its parameters where required."""

    kind: str
    c: float | None = None
    gamma: float | None = None

    def __post_init__(self):
        if self.kind not in VALID_KINDS:
            raise ConfigurationError(f"unknown operator kind {self.kind!r}")
        if self.kind == "linearized_scaled":
            if self.c is None or not (self.c > 0):
                raise ConfigurationError("linearized_scaled requires c > 0")
        elif self.c is not None:
            raise ConfigurationError(f"kind {self.kind!r} takes no c parameter")
        if self.kind == "dual":
            if self.gamma is None or not (self.gamma > 0):
                raise ConfigurationError("dual requires gamma > 0")
        elif self.gamma is not None:
            raise ConfigurationError(f"kind {self.kind!r} takes no gamma parameter")


def _linearized(f: Field) -> Field:
    q = profile(f.grid.nodes)
    return f + fractional_derivative(f, 1.0) - Field(f.grid, q * f.values)


def projector_weight_field(grid: Grid) -> Field:
    """(linearized operator applied to q''), the weight in the rank-one projector."""
    qpp = Field(grid, profile_second_derivative(grid.nodes))
    return _linearized(qpp)


def apply_operator(spec: OperatorSpec, f: Field) -> Field:
    """Apply the operator named by spec to f."""
    g = f.grid
    y = g.nodes
    if spec.kind == "linearized":
        return _linearized(f)
    if spec.kind == "linearized_scaled":
        c = spec.c
        qc = c * profile(c * y)
        return c * f + fractional_derivative(f, 1.0) - Field(g, qc * f.values)
    if spec.kind == "virial":
        w = scaled_profile(y)          # (yq)' = yq' + q
        return 2.0 * fractional_derivative(f, 1.0) + f - Field(g, w * f.values)
    if spec.kind == "projector":
        qp = Field(g, profile_derivative(y))
        coef = inner(f, projector_weight_field(g)) / (4.0 * math.pi)
        return coef * qp
    if spec.kind == "dual":
        return dgamma_inverse(_linearized(f), spec.gamma)
    raise ConfigurationError(f"unknown operator kind {spec.kind!r}")


def quadratic_form(spec: OperatorSpec, f: Field) -> float:
    """<op f, f> by quadrature; only the symmetric kinds qualify."""
    if spec.kind not in ("linearized", "linearized_scaled", "virial"):
        raise UsageError(f"quadratic form undefined for kind {spec.kind!r}")
    return inner(apply_operator(spec, f), f)


# ---------------------------------------------------------------------------
# commutator probe
# ---------------------------------------------------------------------------

BAND_FRACTION = 0.5


def top_singular_value(forward, adjoint, n: int) -> float:
    """Largest singular value of a linear map on length-n sample vectors.

    ARPACK (`scipy.sparse.linalg.svds`, tol 1e-7) works on A*A from a
    fixed start vector, so repeated calls give the same bits.  Any ARPACK
    failure, non-convergence or the zero start vector of a zero map,
    raises DiagnosticError; its partial value is the square root of the
    largest converged eigenvalue of A*A, or None when none converged.
    """
    op = LinearOperator((n, n), matvec=forward, rmatvec=adjoint, dtype=float)
    v0 = np.random.default_rng(0).standard_normal(n)
    try:
        sigma = svds(op, k=1, tol=1e-7, v0=v0, return_singular_vectors=False)
    except ArpackError as exc:
        eigs = getattr(exc, "eigenvalues", None)
        partial = (math.sqrt(max(float(np.max(eigs)), 0.0))
                   if eigs is not None and np.size(eigs) else None)
        raise DiagnosticError(f"top singular value not found: {exc}",
                              partial=partial) from exc
    return float(sigma[0])


@dataclass(frozen=True)
class CommutatorProbeResult:
    gamma: float
    norm: float
    reference_scale: float       # gamma * ln(1/gamma)
    ratio: float                 # norm / reference_scale
    grid_key: tuple


def _commutator_maps(grid: Grid, gamma: float):
    """Forward/adjoint sample-space maps of the weighted commutator.

    The map is w |-> (<gy>^{-1} R L - L R <gy>^{-1})(<gy> w) with
    R = (1 + gamma d/dy)^{-1} and L the linearized operator, projected
    onto |xi| <= BAND_FRACTION * xi_max on both sides.  The projection
    removes a Nyquist-wraparound artifact of the discrete |xi| symbol
    (the continuum symbol tends to a constant at infinity; the discrete
    one jumps across the alias boundary, which otherwise dominates the
    norm with an O(1/gamma) spurious mode).  Both maps flatten their
    input, so they take the (n, 1) columns a LinearOperator passes.
    """
    lin = OperatorSpec("linearized")
    w = np.sqrt(1.0 + (gamma * grid.nodes) ** 2)
    xi = grid.rfft_wavenumbers
    band = np.where(xi <= BAND_FRACTION * xi[-1], 1.0, 0.0)

    def project(v):
        return apply_multiplier(Field(grid, np.ravel(v)), band)

    def forward(v):
        f = project(v)
        weighted = dgamma_inverse(apply_operator(lin, f * w), gamma)
        out = (Field(grid, weighted.values / w)
               - apply_operator(lin, dgamma_inverse(f, gamma)))
        return project(out.values).values

    def adjoint(v):
        f = project(v)
        smoothed = dgamma_inverse_adjoint(Field(grid, f.values / w), gamma)
        out = (apply_operator(lin, smoothed) * w
               - dgamma_inverse_adjoint(apply_operator(lin, f), gamma))
        return project(out.values).values

    return forward, adjoint


def commutator_probe(gamma: float, grid: Grid | None = None) -> CommutatorProbeResult:
    """Measure the weighted-commutator operator norm and its ratio to gamma*ln(1/gamma).

    The default grid resolves both the kernel scale gamma (spacing <=
    gamma/3) and the weight scale 1/gamma; matvecs run through the grid's
    multiplier operators, so no dense matrix is formed.  The norm comes
    from `top_singular_value` (ARPACK on A*A).  The top singular pair is
    nearly degenerate for small gamma (the two largest values are
    0.12069 and 0.12076 at gamma = 0.05), which stalled the power
    iteration used before below the top value; ARPACK's Krylov subspace
    separates the pair.
    """
    if not (0 < gamma <= 0.5):
        raise ConfigurationError(f"gamma must lie in (0, 1/2], got {gamma}")
    if grid is None:
        grid = Grid(8192, 128.0)
    if grid.spacing > gamma / 2:
        raise ConfigurationError(
            f"grid spacing {grid.spacing} does not resolve the kernel scale gamma={gamma}")
    norm = top_singular_value(*_commutator_maps(grid, gamma), grid.n_points)
    ref = gamma * math.log(1.0 / gamma)
    return CommutatorProbeResult(gamma=gamma, norm=norm, reference_scale=ref,
                                 ratio=norm / ref, grid_key=grid.key())


def commutator_matrix(grid: Grid, gamma: float) -> np.ndarray:
    """Dense matrix of the probed commutator; cross-check oracle for small grids."""
    if grid.n_points > 2048:
        raise ConfigurationError("dense commutator assembly capped at n = 2048")
    forward, _ = _commutator_maps(grid, gamma)
    cols = [forward(col) for col in np.eye(grid.n_points)]
    return np.stack(cols, axis=1)
