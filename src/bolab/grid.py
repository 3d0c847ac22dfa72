"""Periodic grid, Fourier-multiplier operators and norms.

Everything downstream works on a uniform grid over [-L/2, L/2) with
spectral (FFT-based) realizations of the Hilbert transform, fractional
derivatives |xi|^s, the regularizing inverse (1 + gamma*d/dy)^{-1}, and
the Plancherel-consistent Sobolev norms.

All multiplier operators act through the real FFT, so real-valuedness of
fields is preserved structurally.  Every transform in the package calls
``scipy.fft`` (one plan cache per process); only the frequency table
comes from ``numpy.fft``.  A symbol keeps only its real part on the
Nyquist mode, the unique choice consistent with a real transform, so odd
symbols (i*sgn(xi), i*xi) are zero there; `_real_nyquist` is that rule's
one home, for the multipliers here and the ETDRK4 tables alike.

Unit-cell norms (||f||_{L2[n, n+1)} over integer n, the quantity of the
local estimates) all come from `cell_l2_profile`, which holds the one
spacing rule for them (at most 1/4) and works out its cells from the
nodes on each call.  The local sup norm sup_n ||f||_{L2[n, n+1)} is the
profile's maximum, taken by the caller that holds the profile
(`modulation._track_record`, whose cell norms also feed a sweep
member's cell masses).
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np
import scipy.fft

from .errors import ConfigurationError, UsageError, require_positive


class Grid:
    """Uniform periodic grid on [-L/2, L/2) with its wavenumber table.

    Attributes:
        n_points: number of nodes (power of two, >= 8).
        domain_length: box length L.
        spacing: L / n_points.
        nodes: node coordinates, nodes[j] = -L/2 + j*spacing.
        rfft_wavenumbers: 2*pi*m/L for m = 0, ..., n_points/2, the
            half axis of every transform (the last entry is Nyquist).
    """

    __slots__ = ("n_points", "domain_length", "spacing", "nodes",
                 "rfft_wavenumbers")

    def __init__(self, n_points: int, domain_length: float):
        self.n_points = Grid.require_size(n_points)
        self.domain_length = require_positive("domain_length", domain_length)
        self.spacing = self.domain_length / self.n_points
        self.nodes = -self.domain_length / 2 + self.spacing * np.arange(self.n_points)
        self.nodes.setflags(write=False)
        self.rfft_wavenumbers = 2 * np.pi * np.fft.rfftfreq(self.n_points, d=self.spacing)
        self.rfft_wavenumbers.setflags(write=False)

    @staticmethod
    def require_size(n_points) -> int:
        """int(n_points) if it is an integer power of two >= 8; otherwise a
        ConfigurationError.  The one grid-size rule, which a config also
        checks before anything runs."""
        if not (isinstance(n_points, numbers.Integral) and n_points >= 8
                and (n_points & (n_points - 1)) == 0):
            raise ConfigurationError(f"n_points must be a power of two >= 8, got {n_points}")
        return int(n_points)

    def __eq__(self, other):
        return (isinstance(other, Grid)
                and other.n_points == self.n_points
                and other.domain_length == self.domain_length)

    def __hash__(self):
        return hash((self.n_points, self.domain_length))

    def __repr__(self):
        return f"Grid(n_points={self.n_points}, domain_length={self.domain_length})"


class Field:
    """Real-valued function sampled on a Grid.

    Values are validated to be finite at construction and stored
    read-only; operators return new Field instances.  Numpy ufuncs do not
    take a Field (``__array_ufunc__ = None``), so ``ndarray * Field``
    reaches ``Field.__rmul__`` instead of an object array of Fields.
    """

    __slots__ = ("grid", "values")
    __array_ufunc__ = None

    def __init__(self, grid: Grid, values):
        values = np.asarray(values, dtype=float)
        if values.shape != (grid.n_points,):
            raise UsageError(
                f"field length {values.shape} does not match grid ({grid.n_points},)")
        if not np.all(np.isfinite(values)):
            raise UsageError("field contains NaN or Inf")
        self.grid = grid
        self.values = values
        self.values.setflags(write=False)

    @classmethod
    def zeros(cls, grid: Grid) -> "Field":
        return cls(grid, np.zeros(grid.n_points))

    # Small pointwise algebra layer; keeps tests and diagnostics readable.
    def __add__(self, other):
        return Field(self.grid, self.values + _coerce(other, self.grid))

    __radd__ = __add__

    def __sub__(self, other):
        return Field(self.grid, self.values - _coerce(other, self.grid))

    def __rsub__(self, other):
        return Field(self.grid, _coerce(other, self.grid) - self.values)

    def __mul__(self, other):
        return Field(self.grid, self.values * _coerce(other, self.grid))

    __rmul__ = __mul__

    def __neg__(self):
        return Field(self.grid, -self.values)

    def __repr__(self):
        return f"Field(n={self.grid.n_points}, L={self.grid.domain_length})"


def _coerce(other, grid):
    if isinstance(other, Field):
        if other.grid != grid:
            raise UsageError("fields live on different grids")
        return other.values
    return other


def _check_same_grid(*fields):
    g = fields[0].grid
    for f in fields[1:]:
        if f.grid != g:
            raise UsageError("fields live on different grids")
    return g


# ---------------------------------------------------------------------------
# spectral multipliers
# ---------------------------------------------------------------------------

def _real_nyquist(symbol) -> np.ndarray:
    """A complex copy of an rfft half-axis symbol with only the real part on Nyquist.

    A real transform cannot carry an imaginary Nyquist component, so this
    is the symbol a real multiplier applies; an odd symbol (i*xi,
    i*sgn(xi)) is zero there.
    """
    m = np.asarray(symbol, dtype=complex).copy()
    m[-1] = m[-1].real
    return m


def apply_multiplier(f: Field, symbol) -> Field:
    """Apply a Fourier multiplier given as symbol(xi) on the rfft half-axis,
    with the Nyquist rule of `_real_nyquist`."""
    m = _real_nyquist(symbol)
    if m.shape != f.grid.rfft_wavenumbers.shape:
        raise UsageError("symbol length does not match rfft spectrum")
    out = scipy.fft.irfft(m * scipy.fft.rfft(f.values), n=f.grid.n_points)
    return Field(f.grid, out)


def hilbert(f: Field) -> Field:
    """Hilbert transform: multiplier i*sgn(xi), zero mode and Nyquist -> 0."""
    xi = f.grid.rfft_wavenumbers
    sym = np.where(xi > 0, 1j, 0.0)
    return apply_multiplier(f, sym)


def derivative(f: Field) -> Field:
    """Spectral d/dy, zero on the Nyquist mode by the rule of `_real_nyquist`."""
    return apply_multiplier(f, 1j * f.grid.rfft_wavenumbers)


def fractional_derivative(f: Field, s: float) -> Field:
    """|xi|^s multiplier for an order s >= 0."""
    if not (s >= 0):
        raise ConfigurationError(f"fractional order must be >= 0, got {s}")
    xi = f.grid.rfft_wavenumbers
    return apply_multiplier(f, xi ** s if s != 0 else np.ones_like(xi))


def dgamma_inverse(f: Field, gamma: float) -> Field:
    """(1 + gamma*d/dy)^{-1}: multiplier (1 + i*gamma*xi)^{-1}; output real."""
    require_positive("gamma", gamma)
    xi = f.grid.rfft_wavenumbers
    return apply_multiplier(f, 1.0 / (1.0 + 1j * gamma * xi))


def dgamma_inverse_adjoint(f: Field, gamma: float) -> Field:
    """L2 adjoint of dgamma_inverse: multiplier (1 - i*gamma*xi)^{-1}."""
    require_positive("gamma", gamma)
    xi = f.grid.rfft_wavenumbers
    return apply_multiplier(f, 1.0 / (1.0 - 1j * gamma * xi))


def translate(f: Field, shift: float) -> Field:
    """Sampled f(y + shift) via the spectral shift multiplier."""
    xi = f.grid.rfft_wavenumbers
    return apply_multiplier(f, np.exp(1j * xi * shift))


# ---------------------------------------------------------------------------
# quadrature and norms
# ---------------------------------------------------------------------------

def integral(f: Field) -> float:
    """Trapezoid (= spectral) quadrature of f over the periodic box."""
    return float(f.grid.spacing * np.sum(f.values))


def inner(f: Field, g: Field) -> float:
    """L2 inner product by periodic trapezoid quadrature."""
    _check_same_grid(f, g)
    return float(f.grid.spacing * np.sum(f.values * g.values))


def l2_norm(f: Field) -> float:
    return float(np.sqrt(f.grid.spacing) * np.linalg.norm(f.values))


def sobolev_norm(f: Field, s: float) -> float:
    """H^s norm: (sum <xi>^{2s} |f_hat|^2 * weight)^{1/2}.

    The Plancherel weight L/N^2 (doubled off the DC/Nyquist bins of the
    half spectrum) makes s = 0 agree with the quadrature of f^2.
    """
    return _spectrum_sobolev_norm(scipy.fft.rfft(f.values), f.grid, s)


@functools.lru_cache(maxsize=16)
def _sobolev_weight(g: Grid, s: float) -> np.ndarray:
    """Read-only half-spectrum weight times <xi>^{2s} on grid g.

    The weight is 2 off the DC and Nyquist bins (n_points is even).
    """
    w = np.full(g.rfft_wavenumbers.shape, 2.0)
    w[0] = w[-1] = 1.0
    weight = w * (1.0 + g.rfft_wavenumbers ** 2) ** s
    weight.setflags(write=False)
    return weight


def _spectrum_sobolev_norm(spec, g: Grid, s: float) -> float:
    """sobolev_norm of the field whose rfft spectrum on grid g is spec."""
    total = (np.sum(_sobolev_weight(g, s) * np.abs(spec) ** 2)
             * g.domain_length / g.n_points ** 2)
    return float(np.sqrt(total))


def cell_l2_profile(f: Field):
    """Per-unit-cell L2 norms: values ||f||_{L2[n, n+1)} for integer n.

    Cells are integer intervals [n, n+1); a grid spacing above 1/4 is a
    ConfigurationError.  When cell boundaries fall on nodes (1/spacing is
    an integer m and the first node an integer, each to rounding; the
    first cell starts at that integer), cell j's squared samples
    are row j of ``v**2`` reshaped to m columns, added column by column,
    i.e. in node order, and the trapezoid rule then moves half of each
    boundary node's weight to the cell on its left.  Node order keeps the
    bits of a running sum: numpy's pairwise ``sum(axis=1)`` rounds
    differently and changes the last digits of many cells (424 to 431 of
    the 1,024 at N = 8192, L = 1024 for random band-limited fields).  On
    other grids each sample goes to the cell floor(x) with uniform weight.

    Returns (cell_starts, cell_norms) as arrays; cell_starts is read-only.
    """
    g = f.grid
    if g.spacing > 0.25 + 1e-12:
        raise ConfigurationError(
            f"grid spacing {g.spacing} too coarse for unit-cell norms (need <= 1/4)")
    x, v2 = g.nodes, f.values ** 2
    per = 1.0 / g.spacing
    if (abs(per - round(per)) < 1e-9
            and abs(x[0] - round(x[0])) < 1e-9 * max(1.0, abs(x[0]))):
        m, n_lo = round(per), round(x[0])
        masses = np.zeros(g.n_points // m)
        for column in v2.reshape(-1, m).T:
            masses += column
        masses *= g.spacing
        half = 0.5 * g.spacing * v2[::m]
        masses -= half
        masses[:-1] += half[1:]
        # the last cell's right boundary is the (periodic) first node
        masses[-1] += half[0]
    else:
        n_lo = int(np.floor(x[0]))
        masses = np.bincount(np.floor(x).astype(int) - n_lo, weights=v2) * g.spacing
    starts = n_lo + np.arange(masses.size)
    starts.setflags(write=False)
    return starts, np.sqrt(np.maximum(masses, 0.0))


# ---------------------------------------------------------------------------
# localizer
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LocalizerSpec:
    """Arctan localizer parameters: scale gamma in (0, 1], finite center y0.
    Specs compare and hash by value."""

    gamma: float
    y_center: float = 0.0

    def __post_init__(self):
        if not (0 < self.gamma <= 1):
            raise ConfigurationError(f"localizer gamma must be in (0, 1], got {self.gamma}")
        if not math.isfinite(self.y_center):
            raise ConfigurationError(
                f"localizer y_center must be finite, got {self.y_center}")


def localizer(spec: LocalizerSpec, grid: Grid):
    """Sampled (g, g') with g = arctan(gamma*(y - y0))/gamma, g' = <gamma*(y-y0)>^{-2}."""
    z = spec.gamma * (grid.nodes - spec.y_center)
    g = Field(grid, np.arctan(z) / spec.gamma)
    gp = Field(grid, 1.0 / (1.0 + z ** 2))
    return g, gp
