"""Slowly varying external potentials V(x) = W(h*x).

The shape W is compactly supported.  Three variants:

* "bump": W(x) = beta * exp(-1/(1 - (x/width)^2)) inside |x| < width,
  zero outside -- genuinely smooth with closed-form W', W'', W'''.
* "zero": the free equation.
* "custom": tabulated samples with not-a-knot cubic-spline interpolation
  (derivatives come from the spline, exact for polynomial data up to
  cubic, which the tests exploit).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.interpolate import CubicSpline

from .errors import ConfigurationError

_BUMP_EDGE = 1.0 - 1e-12      # the bump is taken as zero from |s/width| = _BUMP_EDGE on


def _bump_chain(beta, w, t, r, phi):
    """(W, W', W'', W''') of the bump from t = s/w, r = 1 - t^2, phi = exp(-1/r).

    With g = -1/r: W = beta*phi, W' = beta*phi*g1/w,
    W'' = beta*phi*(g2 + g1^2)/w^2, W''' = beta*phi*(g3 + 3 g1 g2 + g1^3)/w^3.
    Only arithmetic operators, so the inputs may be floats or arrays.
    """
    g1 = -2.0 * t / r ** 2
    g2 = -2.0 / r ** 2 - 8.0 * t ** 2 / r ** 3
    g3 = -24.0 * t / r ** 3 - 48.0 * t ** 3 / r ** 4
    return (beta * phi,
            beta * phi * g1 / w,
            beta * phi * (g2 + g1 ** 2) / w ** 2,
            beta * phi * (g3 + 3.0 * g1 * g2 + g1 ** 3) / w ** 3)


class PotentialSpec:
    """Shape W plus the slow scale h; evaluates W and derivatives at shape arguments."""

    def __init__(self, h: float, shape: str = "bump", amplitude: float = 0.2,
                 width: float = 1.0, table_x=None, table_w=None):
        if not (0 < h <= 1):
            raise ConfigurationError(f"h must lie in (0, 1], got {h}")
        if shape not in ("bump", "zero", "custom"):
            raise ConfigurationError(f"unknown potential shape {shape!r}")
        self.h = float(h)
        self.shape = shape
        self.amplitude = float(amplitude)
        self.width = float(width)
        self._spline = None
        if shape == "bump" and not (width > 0):
            raise ConfigurationError("bump width must be positive")
        if shape == "custom":
            if table_x is None or table_w is None:
                raise ConfigurationError("custom shape requires table_x and table_w")
            tx = np.asarray(table_x, dtype=float)
            tw = np.asarray(table_w, dtype=float)
            if tx.ndim != 1 or tx.size < 4 or tx.shape != tw.shape:
                raise ConfigurationError("custom table needs >= 4 matching samples")
            self._spline = CubicSpline(tx, tw, bc_type="not-a-knot")
            self._table_range = (float(tx[0]), float(tx[-1]))

    @classmethod
    def zero(cls, h: float = 1.0) -> "PotentialSpec":
        return cls(h, shape="zero")

    @classmethod
    def bump(cls, h: float, amplitude: float = 0.2, width: float = 1.0) -> "PotentialSpec":
        return cls(h, shape="bump", amplitude=amplitude, width=width)

    @classmethod
    def custom(cls, h: float, table_x, table_w) -> "PotentialSpec":
        return cls(h, shape="custom", table_x=table_x, table_w=table_w)

    # -- shape evaluations (argument is the slow variable, i.e. W(s)) --

    def shape_derivatives(self, s):
        """(W, W', W'', W''') evaluated at shape argument s.

        Scalar input gives scalar outputs.  A scalar s (rank 0) of a
        "bump" or "zero" shape takes a scalar path on plain Python floats
        and ``math.exp``, returning a 4-tuple of floats: the parameter
        ODEs' hot loop.  Arrays, and every "custom" input, take the array
        path, which is the scalar path's reference.  Both paths share the
        derivative chain `_bump_chain` and differ only in the masking and
        the ``exp``; they agree to the last ulps of ``exp`` (about 1e-12
        relative as |s| -> width).

        Rank 0 is decided by ``isinstance(s, float)`` before ``np.ndim``:
        Python floats and ``np.float64`` (a ``float`` subclass) skip
        numpy's dispatch, which costs about as much as the scalar
        arithmetic; ints, other numpy scalars and 0-d arrays still reach
        ``np.ndim``, so every input takes the path its rank gives it.
        """
        scalar = isinstance(s, float) or np.ndim(s) == 0
        if scalar and self.shape != "custom":
            if self.shape == "bump":
                t = float(s) / self.width
                if abs(t) < _BUMP_EDGE:
                    r = 1.0 - t * t
                    return _bump_chain(self.amplitude, self.width, t, r,
                                       math.exp(-1.0 / r))
            return (0.0, 0.0, 0.0, 0.0)
        s = np.atleast_1d(np.asarray(s, dtype=float))
        if self.shape == "zero":
            out = tuple(np.zeros_like(s) for _ in range(4))
        elif self.shape == "custom":
            sp = self._spline
            lo, hi = self._table_range
            inside = (s >= lo) & (s <= hi)
            vals = []
            for k in range(4):
                v = np.zeros_like(s)
                v[inside] = sp(s[inside], k) if k else sp(s[inside])
                vals.append(v)
            out = tuple(vals)
        else:
            out = self._bump_derivatives(s)
        if scalar:
            return tuple(float(v[0]) for v in out)
        return out

    def _bump_derivatives(self, s):
        t = s / self.width
        r = 1.0 - t * t
        m = np.abs(t) < _BUMP_EDGE
        out = tuple(np.zeros_like(s) for _ in range(4))
        inside = _bump_chain(self.amplitude, self.width, t[m], r[m],
                             np.exp(-1.0 / r[m]))
        for v, vm in zip(out, inside):
            v[m] = vm
        return out

    def w(self, s):
        return self.shape_derivatives(s)[0]

    def w1(self, s):
        return self.shape_derivatives(s)[1]

    def sampled_potential(self, x):
        """V(x) = W(h*x) on physical coordinates x."""
        return self.w(self.h * np.asarray(x, dtype=float))

    def shape_key(self):
        """Identity of the shape W alone: `key` without the slow scale h."""
        if self.shape == "custom":
            return ("custom", self._table_range, self._spline.c.tobytes())
        return (self.shape, self.amplitude, self.width)

    def key(self):
        shape, *rest = self.shape_key()
        return (shape, self.h, *rest)

    def __eq__(self, other):
        return isinstance(other, PotentialSpec) and other.key() == self.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        if self.shape == "bump":
            return (f"PotentialSpec(h={self.h}, bump, amplitude={self.amplitude}, "
                    f"width={self.width})")
        return f"PotentialSpec(h={self.h}, {self.shape})"
