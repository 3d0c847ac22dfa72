"""Dense discretization, eigen-analysis, and constrained coercivity.

A symmetric operator on n grid points becomes an n x n matrix that is
symmetric by construction (its multiplier is the circulant of the even
part of its first column), and `DenseOperator` accepts no other; with
the uniform quadrature weight, matrix symmetry and L2 self-adjointness
coincide, so plain symmetric eigensolvers apply.  Constrained Rayleigh
quotients are computed exactly on the orthogonal complement of the
constraint span (null-space basis + dense (generalized) eigensolve).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.fft
from scipy.linalg import circulant, eigh, null_space

from .errors import ConfigurationError, UsageError
from .grid import Field, Grid, _real_nyquist, inner, l2_norm
from .operators import SymmetricOperator

DENSE_BUDGET = 4096


@dataclass(frozen=True)
class DenseOperator:
    """Symmetric matrix of an operator on a specific grid.

    A matrix that is not exactly symmetric raises UsageError, so `eigh`
    never reads half of an asymmetric matrix.
    """

    matrix: np.ndarray
    grid: Grid

    def __post_init__(self):
        if not _is_symmetric(self.matrix):
            raise UsageError("operator matrix is not symmetric")


def _is_symmetric(m: np.ndarray) -> bool:
    """m == m.T exactly, one row block of the upper triangle at a time.

    Rows i:i+128 from the diagonal on are compared with the matching
    columns, transposed, so the temporary is one block, not n x n.
    """
    block = 128
    n = m.shape[0]
    if m.shape != (n, n):
        return False
    return all(np.array_equal(m[i:i + block, i:], m[i:, i:i + block].T)
               for i in range(0, n, block))


@dataclass
class EigenReport:
    """Discrete spectrum below the continuum threshold."""

    discrete_eigenvalues: list
    continuum_edge: float
    eigenvector_fields: list
    edge_ambiguous: list = field(default_factory=list)
    warnings: list = field(default_factory=list)


def _multiplier_matrix(grid: Grid, rfft_symbol) -> np.ndarray:
    """Dense matrix of a Fourier multiplier: the circulant of its first column.

    A multiplier commutes with translation, so column j is column 0 moved
    down j rows, and column 0, the image of the unit vector at node 0,
    is the irfft of the symbol.
    """
    return circulant(scipy.fft.irfft(_real_nyquist(rfft_symbol), n=grid.n_points))


def _even_multiplier_matrix(grid: Grid, rfft_symbol) -> np.ndarray:
    """Symmetric matrix of a real symbol: the circulant of the even part of its column.

    The column is even up to rounding; its even part 0.5 (col[j] + col[-j])
    makes the circulant exactly symmetric and equal to 0.5 (m + m^T) of
    the raw circulant m, without an n x n temporary.
    """
    col = scipy.fft.irfft(_real_nyquist(rfft_symbol), n=grid.n_points)
    return circulant(0.5 * (col + np.roll(col[::-1], 1)))


def discretize(op: SymmetricOperator) -> DenseOperator:
    """Assemble the dense matrix c0 I + k M - diag(w) of a symmetric operator.

    (c0, k, w) is the operator's triple (linearized(c) = (c, 1, c q(c y)),
    virial = (1, 2, (y q)')) and M the symmetric matrix of the |xi|
    multiplier.
    """
    grid = op.grid
    if grid.n_points > DENSE_BUDGET:
        raise ConfigurationError(
            f"dense discretization capped at n = {DENSE_BUDGET}, got {grid.n_points}")
    # in place in M: no further n x n temporaries (32 MB each at n = 2048)
    m = _even_multiplier_matrix(grid, grid.rfft_wavenumbers)
    m *= op.k
    diag = np.diag_indices(grid.n_points)
    m[diag] = op.c0 + m[diag] - op.w
    return DenseOperator(m, grid)


def sobolev_gram_matrix(grid: Grid, s: float) -> np.ndarray:
    """Dense Gram matrix of the H^s inner product: multiplier <xi>^{2s}."""
    return _even_multiplier_matrix(grid, (1.0 + grid.rfft_wavenumbers ** 2) ** s)


def spectrum_below_continuum(op: DenseOperator, threshold: float,
                             margin: float = 0.1) -> EigenReport:
    """Isolated eigenvalues below threshold - margin, with L2-normalized eigenvectors.

    Eigenvalues inside [threshold - margin, threshold + margin] are
    reported as edge-ambiguous; they cannot be told apart from the
    discretized continuum at finite resolution.  A warning is attached
    when no clear spectral gap separates the discrete set from the rest.
    """
    vals, vecs = np.linalg.eigh(op.matrix)
    keep = vals < threshold - margin
    idx = np.nonzero(keep)[0]
    scale = 1.0 / math.sqrt(op.grid.spacing)   # unit L2 norm on the grid
    fields = []
    for i in idx:
        v = vecs[:, i] * scale
        j = np.argmax(np.abs(v))
        if v[j] < 0:
            v = -v
        fields.append(Field(op.grid, v))
    ambiguous = [float(v) for v in vals if threshold - margin <= v <= threshold + margin]
    warnings = []
    if idx.size:
        nxt = vals[idx[-1] + 1] if idx[-1] + 1 < vals.size else np.inf
        gap = nxt - vals[idx[-1]]
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


def parity_restriction(op: DenseOperator, parity: str):
    """Restrict a symmetric operator matrix to the odd or even subspace.

    Returns (reduced_matrix, basis) with basis columns orthonormal in
    sample coordinates; reduced = basis.T @ M @ basis.
    """
    if parity not in ("odd", "even"):
        raise UsageError(f"parity must be 'odd' or 'even', got {parity!r}")
    n = op.grid.n_points
    refl = (n - np.arange(n)) % n        # j -> index of -y_j
    cols = []
    s = 1.0 / math.sqrt(2.0)
    for j in range(1, n // 2):
        e = np.zeros(n)
        if parity == "odd":
            e[j], e[refl[j]] = s, -s
        else:
            e[j], e[refl[j]] = s, s
        cols.append(e)
    if parity == "even":
        for j in (0, n // 2):            # fixed points of the reflection
            e = np.zeros(n)
            e[j] = 1.0
            cols.append(e)
    basis = np.stack(cols, axis=1)
    reduced = basis.T @ op.matrix @ basis
    return reduced, basis


_NORM_EXPONENT = {"L2": 0.0, "Hhalf": 0.5, "H1": 1.0}


def constrained_min_rayleigh(op: DenseOperator, constraints, norm: str = "L2") -> float:
    """Minimum of <op f, f>/||f||_norm^2 over f L2-orthogonal to the constraints.

    The constraint complement is built explicitly (null space of the
    constraint Gram system) and the reduced pencil is solved densely;
    norms other than L2 enter through the <xi>^{2s} Gram matrix.
    """
    if norm not in _NORM_EXPONENT:
        raise UsageError(f"norm must be one of {sorted(_NORM_EXPONENT)}, got {norm!r}")
    cols = []
    for c in constraints:
        v = c.values if isinstance(c, Field) else np.asarray(c, dtype=float)
        cols.append(v)
    cmat = np.stack(cols, axis=1)
    gram = cmat.T @ cmat
    if np.linalg.cond(gram) > 1e12:
        raise UsageError("constraint Gram matrix is numerically singular")
    z = null_space(cmat.T)
    a_red = z.T @ op.matrix @ z
    a_red = 0.5 * (a_red + a_red.T)
    s = _NORM_EXPONENT[norm]
    if s == 0.0:
        vals = eigh(a_red, eigvals_only=True, subset_by_index=[0, 0])
    else:
        b = sobolev_gram_matrix(op.grid, s)
        b_red = z.T @ b @ z
        b_red = 0.5 * (b_red + b_red.T)
        vals = eigh(a_red, b_red, eigvals_only=True, subset_by_index=[0, 0])
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
