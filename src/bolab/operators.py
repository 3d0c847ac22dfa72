"""The symmetric operators around the soliton and the commutator-norm probe.

The paper works with two self-adjoint operators, each a
`SymmetricOperator`, the triple (identity coefficient c0, |D|
coefficient k, weight samples w) on a grid, read as c0 f + k |D| f - w f:

* ``SymmetricOperator.linearized(grid, c)``:  L_c = c + D - c q(c y)
  (D = |xi| multiplier; c > 0, default 1, where it is L = I + D - q),
  the triple (c, 1, c q(c y));
* ``SymmetricOperator.virial(grid)``:  2D + I - (y q)', the quadratic
  form arising in the localized virial identity, the triple (1, 2, (y q)').

`SymmetricOperator.apply`, `quadratic_form`, the ARPACK maps of
`spectral` and the linearized flow of `evolution` all read the triple.
The rank-one projector P f = <f, L q''>/||q'||^2 q' of the linearized
flow is not symmetric; its parts (L q'', q', ||q'||^2) come from
``projector_parts`` alone.  The dual variable of the virial
estimate, (1 + gamma d/dy)^{-1} L f, is `grid.dgamma_inverse` of L f.

The commutator probe measures the operator that the regularized inverse
fails to commute with the soliton-weighted linearized operator by.  Its
maps are built from the grid's multiplier operators and the linearized
operator; its norm is the top singular value from ARPACK
(`scipy.sparse.linalg.svds`).  `run_arpack` is the one call into ARPACK
for this module and `spectral`: a fixed start vector, and every ARPACK
failure as a DiagnosticError that carries what did converge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import ArpackError, LinearOperator, svds

from .errors import ConfigurationError, DiagnosticError, UsageError, require_positive
from .grid import (Field, Grid, apply_multiplier, dgamma_inverse,
                   dgamma_inverse_adjoint, fractional_derivative, inner)
from .soliton import profile, profile_derivative, qprime_norm_sq, scaled_profile


@dataclass(frozen=True, eq=False)
class SymmetricOperator:
    """c0 f + k |D| f - w f on `grid`; w holds read-only samples at the nodes."""

    grid: Grid
    c0: float
    k: float
    w: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.w, dtype=float)
        if w.shape != (self.grid.n_points,):
            raise UsageError(f"weight must have shape ({self.grid.n_points},), got {w.shape}")
        object.__setattr__(self, "w", w)
        self.w.setflags(write=False)

    @classmethod
    def linearized(cls, grid: Grid, c: float = 1.0) -> "SymmetricOperator":
        """L_c = c + D - c q(c y), the linearization around the soliton of scale c."""
        require_positive("c", c)
        return cls(grid, c, 1.0, c * profile(c * grid.nodes))

    @classmethod
    def virial(cls, grid: Grid) -> "SymmetricOperator":
        """2D + I - (y q)', the virial form."""
        return cls(grid, 1.0, 2.0, scaled_profile(grid.nodes))     # (yq)' = yq' + q

    def apply(self, f: Field) -> Field:
        if f.grid != self.grid:
            raise UsageError("field lives on a different grid than the operator")
        return (self.c0 * f + self.k * fractional_derivative(f, 1.0)
                - Field(f.grid, self.w * f.values))


def projector_parts(grid: Grid):
    """(L q'', q', ||q'||^2) of the rank-one projector P f = <f, L q''>/||q'||^2 q'.

    L q'' is (q')^2 in closed form: differentiating L q' = 0 gives
    L q'' - q' q' = 0, since d/dy commutes with 1 + D.
    """
    qp = profile_derivative(grid.nodes)
    return qp * qp, qp, qprime_norm_sq(1.0)


def quadratic_form(op: SymmetricOperator, f: Field) -> float:
    """<op f, f> by quadrature."""
    return inner(op.apply(f), f)


# ---------------------------------------------------------------------------
# commutator probe
# ---------------------------------------------------------------------------

BAND_FRACTION = 0.5


def run_arpack(solver, op: LinearOperator, what: str, partial, **kwargs):
    """`solver(op, v0=v0, **kwargs)` for an ARPACK solver of scipy.sparse.linalg.

    v0 is one fixed standard-normal draw, so repeated calls give the same
    bits.  Any ARPACK failure, non-convergence or the zero start vector of
    a zero map, raises DiagnosticError naming `what`; its partial value is
    `partial` of the eigenvalues that did converge, or None when none did.
    """
    v0 = np.random.default_rng(0).standard_normal(op.shape[0])
    try:
        return solver(op, v0=v0, **kwargs)
    except ArpackError as exc:
        eigs = getattr(exc, "eigenvalues", None)
        value = (partial(np.asarray(eigs, dtype=float))
                 if eigs is not None and np.size(eigs) else None)
        raise DiagnosticError(f"{what} not found: {exc}", partial=value) from exc


def top_singular_value(forward, adjoint, n: int) -> float:
    """Largest singular value of a linear map on length-n sample vectors.

    ARPACK (`scipy.sparse.linalg.svds`, tol 1e-7) works on A*A through
    `run_arpack`; a failure's partial value is the square root of the
    largest converged eigenvalue of A*A.
    """
    op = LinearOperator((n, n), matvec=forward, rmatvec=adjoint, dtype=float)
    sigma = run_arpack(svds, op, "top singular value",
                       lambda eigs: math.sqrt(max(float(np.max(eigs)), 0.0)),
                       k=1, tol=1e-7, return_singular_vectors=False)
    return float(sigma[0])


@dataclass(frozen=True)
class CommutatorProbeResult:
    gamma: float
    norm: float
    reference_scale: float       # gamma * ln(1/gamma)
    ratio: float                 # norm / reference_scale


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
    w = np.sqrt(1.0 + (gamma * grid.nodes) ** 2)
    lin = SymmetricOperator.linearized(grid).apply
    xi = grid.rfft_wavenumbers
    band = np.where(xi <= BAND_FRACTION * xi[-1], 1.0, 0.0)

    def project(v):
        return apply_multiplier(Field(grid, np.ravel(v)), band)

    def forward(v):
        f = project(v)
        weighted = dgamma_inverse(lin(f * w), gamma)
        out = (Field(grid, weighted.values / w)
               - lin(dgamma_inverse(f, gamma)))
        return project(out.values).values

    def adjoint(v):
        f = project(v)
        smoothed = dgamma_inverse_adjoint(Field(grid, f.values / w), gamma)
        out = (lin(smoothed) * w
               - dgamma_inverse_adjoint(lin(f), gamma))
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
                                 ratio=norm / ref)

