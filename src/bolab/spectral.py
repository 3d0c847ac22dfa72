"""Matrix-free eigen-analysis and constrained coercivity.

Every value here comes from ARPACK (`scipy.sparse.linalg.eigsh`, through
`operators.run_arpack`) on a `LinearOperator` whose matvec is the
operator's own `apply`, so no n x n array is formed.  The operator is a
`SymmetricOperator` or anything with a `.grid` and an `.apply` that is
symmetric in L2; with the uniform quadrature weight, L2 self-adjointness
and symmetry on the sample vectors coincide, which `eigsh` relies on.
Constrained Rayleigh quotients are the smallest eigenvalue of the
operator compressed to the orthogonal complement of the constraints,
with the constraint directions shifted above that minimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse.linalg import LinearOperator, eigsh

from .errors import ConfigurationError, UsageError, require_positive
from .grid import Field, apply_multiplier, inner, l2_norm
from .operators import run_arpack

# the first number of eigenvalues `spectrum_below_continuum` asks for: 21
# lie at or below 1.1 on the `spectrum` default grid (2048, 512), so one
# call covers it; (8192, 1024) takes a second, with k = 64
_FIRST_K = 32


@dataclass
class EigenReport:
    """Discrete spectrum below the continuum threshold."""

    discrete_eigenvalues: list
    continuum_edge: float
    eigenvector_fields: list
    edge_ambiguous: list = field(default_factory=list)
    warnings: list = field(default_factory=list)


def _sample_map(n: int, matvec) -> LinearOperator:
    """A LinearOperator on length-n sample vectors; it flattens the (n, 1)
    columns a LinearOperator may pass."""
    return LinearOperator((n, n), matvec=lambda v: matvec(np.ravel(v)), dtype=float)


def _apply_values(op, v: np.ndarray) -> np.ndarray:
    return op.apply(Field(op.grid, v)).values


def spectrum_below_continuum(op, threshold: float, margin: float = 0.1) -> EigenReport:
    """Isolated eigenvalues below threshold - margin, with L2-normalized eigenvectors.

    Eigenvalues inside [threshold - margin, threshold + margin] are
    reported as edge-ambiguous; they cannot be told apart from the
    discretized continuum at finite resolution.  A warning is attached
    when no clear spectral gap separates the discrete set from the rest.
    The smallest k eigenvalues come from `eigsh`, k doubling from
    _FIRST_K until the largest exceeds threshold + margin, so every value
    up to there and the next one are found.  A grid on which ARPACK's
    largest k (n - 1) does not get there raises ConfigurationError, as
    does a margin that is not finite and positive.
    """
    require_positive("margin", margin)
    grid = op.grid
    n = grid.n_points
    lin = _sample_map(n, lambda v: _apply_values(op, v))
    k = min(_FIRST_K, n - 1)
    while True:
        vals, vecs = run_arpack(eigsh, lin, "eigenvalues below the continuum",
                                lambda eigs: sorted(float(v) for v in eigs),
                                k=k, which="SA")
        order = np.argsort(vals)
        vals, vecs = vals[order], vecs[:, order]
        if vals[-1] > threshold + margin:
            break
        if k == n - 1:
            raise ConfigurationError(
                f"all {k} eigenvalues ARPACK returns on {n} points lie at or "
                f"below threshold + margin = {threshold + margin}")
        k = min(2 * k, n - 1)
    keep = vals < threshold - margin
    idx = np.nonzero(keep)[0]
    scale = 1.0 / math.sqrt(grid.spacing)   # unit L2 norm on the grid
    fields = []
    for i in idx:
        v = vecs[:, i] * scale
        j = np.argmax(np.abs(v))
        if v[j] < 0:
            v = -v
        fields.append(Field(grid, v))
    ambiguous = [float(v) for v in vals if threshold - margin <= v <= threshold + margin]
    warnings = []
    if idx.size:
        gap = vals[idx[-1] + 1] - vals[idx[-1]]
        if gap < margin / 2:
            warnings.append(
                f"no clear spectral gap at threshold {threshold}: gap {gap:.3e}")
    return EigenReport(
        discrete_eigenvalues=[float(v) for v in vals[keep]],
        continuum_edge=float(threshold),
        eigenvector_fields=fields,
        edge_ambiguous=ambiguous,
        warnings=warnings,
    )


_NORM_EXPONENT = {"L2": 0.0, "Hhalf": 0.5, "H1": 1.0}


def constrained_min_rayleigh(op, constraints, norm: str = "L2") -> float:
    """Minimum of <op f, f>/||f||_norm^2 over f L2-orthogonal to the constraints.

    With B the <xi>^{2s} multiplier of the norm (the identity for L2) and
    f = B^{-1/2} g, f is orthogonal to a constraint c iff g is orthogonal
    to B^{-1/2} c, and the quotient is that of M = B^{-1/2} op B^{-1/2}
    at g.  The minimum is then the smallest eigenvalue (`eigsh`, k = 1)
    of P M P + sigma (I - P), with P the orthogonal projector off the
    B^{-1/2} constraints.  sigma is one more than the quotient of M at a
    fixed random vector of the complement, an upper bound of the minimum,
    so the constraint directions never hold the smallest eigenvalue.
    """
    if norm not in _NORM_EXPONENT:
        raise UsageError(f"norm must be one of {sorted(_NORM_EXPONENT)}, got {norm!r}")
    grid = op.grid
    cols = [c.values if isinstance(c, Field) else np.asarray(c, dtype=float)
            for c in constraints]
    cmat = np.stack(cols, axis=1)
    if np.linalg.cond(cmat.T @ cmat) > 1e12:
        raise UsageError("constraint Gram matrix is numerically singular")
    symbol = (1.0 + grid.rfft_wavenumbers ** 2) ** (-0.5 * _NORM_EXPONENT[norm])

    def b_inv_half(v):
        return apply_multiplier(Field(grid, v), symbol).values

    basis, _ = np.linalg.qr(np.stack([b_inv_half(c) for c in cols], axis=1))

    def project(v):
        return v - basis @ (basis.T @ v)

    def compressed(pv):                 # P M pv for pv = P v
        return project(b_inv_half(_apply_values(op, b_inv_half(pv))))

    def shifted(v):
        pv = project(v)
        return compressed(pv) + sigma * (v - pv)

    n = grid.n_points
    g = project(np.random.default_rng(0).standard_normal(n))
    sigma = float(g @ compressed(g)) / float(g @ g) + 1.0
    vals = run_arpack(eigsh, _sample_map(n, shifted), "constrained minimum",
                      lambda eigs: float(np.min(eigs)),
                      k=1, which="SA", return_eigenvectors=False)
    return float(vals[0])


def angle_lemma_bound(mu1: float, mu_perp: float, e1: Field, f: Field) -> float:
    """Quadratic-form lower bound mu_perp - (mu_perp - mu1) * sin^2(beta).

    e1 is the extremal eigenfunction, f the constraint direction;
    cos(beta) is their L2 alignment.  Inputs are normalized internally.
    """
    n1, n2 = l2_norm(e1), l2_norm(f)
    if n1 <= 0 or n2 <= 0:
        raise UsageError("angle bound needs nonzero e1 and f")
    cosb = inner(e1, f) / (n1 * n2)
    sin2 = 1.0 - cosb * cosb
    return float(mu_perp - (mu_perp - mu1) * sin2)
