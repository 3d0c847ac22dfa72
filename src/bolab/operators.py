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

Norm estimates are randomized power iterations; the commutator probe
measures the operator that the regularized inverse fails to commute with
the soliton-weighted linearized operator by.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DiagnosticError, UsageError
from .grid import (Field, Grid, apply_multiplier, dgamma_inverse,
                   fractional_derivative, inner)
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
# operator-norm estimation
# ---------------------------------------------------------------------------

def operator_norm_estimate(apply_fn, apply_adjoint_fn, n: int, trials: int = 8,
                           seed: int = 0, max_iters: int = 5000,
                           rel_tol: float = 1e-9) -> float:
    """Largest singular value of a linear map via power iteration on A*A.

    apply_fn/apply_adjoint_fn map length-n sample vectors to length-n
    sample vectors.  Runs `trials` random restarts and keeps the max.
    Raises DiagnosticError (with the best partial estimate attached) if
    any restart fails to converge within max_iters.
    """
    rng = np.random.default_rng(seed)
    best = 0.0
    for trial in range(trials):
        v = rng.standard_normal(n)
        v /= np.linalg.norm(v)
        lam = -1.0
        converged = False
        for _ in range(max_iters):
            w = apply_adjoint_fn(apply_fn(v))
            nw = np.linalg.norm(w)
            if nw <= 1e-300:
                lam = 0.0
                converged = True
                break
            if abs(nw - lam) <= rel_tol * nw:
                lam = nw
                converged = True
                break
            v = w / nw
            lam = nw
        if not converged:
            raise DiagnosticError(
                f"power iteration did not converge in {max_iters} iterations "
                f"(trial {trial})",
                partial=max(best, math.sqrt(max(lam, 0.0))))
        best = max(best, math.sqrt(max(lam, 0.0)))
    return best


@dataclass(frozen=True)
class CommutatorProbeResult:
    gamma: float
    norm: float
    reference_scale: float       # gamma * ln(1/gamma)
    ratio: float                 # norm / reference_scale
    grid_key: tuple
    band_fraction: float


def _commutator_maps(grid: Grid, gamma: float, band_fraction: float):
    """Forward/adjoint sample-space maps of the weighted commutator.

    The map is w |-> (<gy>^{-1} R L - L R <gy>^{-1})(<gy> w) with
    R = (1 + gamma d/dy)^{-1} and L the linearized operator, projected
    onto |xi| <= band_fraction * xi_max on both sides.  The projection
    removes a Nyquist-wraparound artifact of the discrete |xi| symbol
    (the continuum symbol tends to a constant at infinity; the discrete
    one jumps across the alias boundary, which otherwise dominates the
    norm with an O(1/gamma) spurious mode).
    """
    n = grid.n_points
    y = grid.nodes
    xi = grid.rfft_wavenumbers
    q = profile(y)
    w = np.sqrt(1.0 + (gamma * y) ** 2)
    band = xi <= band_fraction * xi[-1]
    mg = 1.0 / (1.0 + 1j * gamma * xi)
    mgc = 1.0 / (1.0 - 1j * gamma * xi)

    def project(v):
        return np.fft.irfft(np.where(band, np.fft.rfft(v), 0.0), n=n)

    def lop(v):
        return v + np.fft.irfft(xi * np.fft.rfft(v), n=n) - q * v

    def smooth(v):
        return np.fft.irfft(mg * np.fft.rfft(v), n=n)

    def smooth_adj(v):
        return np.fft.irfft(mgc * np.fft.rfft(v), n=n)

    def forward(v):
        v = project(v)
        return project(smooth(lop(w * v)) / w - lop(smooth(v)))

    def adjoint(v):
        v = project(v)
        return project(w * lop(smooth_adj(v / w)) - smooth_adj(lop(v)))

    return forward, adjoint


def commutator_probe(gamma: float, trials: int = 8, grid: Grid | None = None,
                     band_fraction: float = 0.5, seed: int = 0) -> CommutatorProbeResult:
    """Measure the weighted-commutator operator norm and its ratio to gamma*ln(1/gamma).

    The default grid resolves both the kernel scale gamma (spacing <=
    gamma/3) and the weight scale 1/gamma; matvecs run through FFTs, so
    no dense matrix is formed.
    """
    if not (0 < gamma <= 0.5):
        raise ConfigurationError(f"gamma must lie in (0, 1/2], got {gamma}")
    if trials < 8:
        raise ConfigurationError(f"need at least 8 trials, got {trials}")
    if grid is None:
        grid = Grid(8192, 128.0)
    if grid.spacing > gamma / 2:
        raise ConfigurationError(
            f"grid spacing {grid.spacing} does not resolve the kernel scale gamma={gamma}")
    forward, adjoint = _commutator_maps(grid, gamma, band_fraction)
    # the top singular pair is nearly degenerate for small gamma; 1e-7
    # relative stagnation is far below the factor-band resolution needed
    norm = operator_norm_estimate(forward, adjoint, grid.n_points,
                                  trials=trials, seed=seed, rel_tol=1e-7)
    ref = gamma * math.log(1.0 / gamma)
    return CommutatorProbeResult(gamma=gamma, norm=norm, reference_scale=ref,
                                 ratio=norm / ref, grid_key=grid.key(),
                                 band_fraction=band_fraction)


def commutator_matrix(grid: Grid, gamma: float, band_fraction: float = 0.5) -> np.ndarray:
    """Dense matrix of the probed commutator; cross-check oracle for small grids."""
    if grid.n_points > 2048:
        raise ConfigurationError("dense commutator assembly capped at n = 2048")
    forward, _ = _commutator_maps(grid, gamma, band_fraction)
    cols = [forward(col) for col in np.eye(grid.n_points)]
    return np.stack(cols, axis=1)
