"""Slowly varying external potentials V(x) = W(h*x).

W is the paper's compactly supported smooth shape, the bump
W(x) = beta * exp(-1/(1 - (x/width)^2)) inside |x| < width and zero
outside, with closed-form W', W'', W''' (the corrected parameter ODE
reads W''').  The scalar path takes all four as exactly 0 from
|s/width| = _BUMP_EDGE on (the outside rule), and
`PotentialSpec.vanishes_at(s)` is that rule as a predicate: where it is
true, ``shape_derivatives(s)`` is (0.0, 0.0, 0.0, 0.0), so the parameter
flows right of the bump are free translation.  The free equation has no
potential: the evolution layer and ``invariants`` take
``potential=None`` for it.

`PotentialSpec` is a frozen dataclass: specs compare and hash by value,
so the trajectory cache keys on the spec itself.  It checks the paper's
domain: 0 < h <= 1, a finite amplitude and a finite, positive width.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, require_positive

_BUMP_EDGE = 1.0 - 1e-12      # the bump is taken as zero from |s/width| = _BUMP_EDGE on


def _bump_chain(beta, w, t, r, phi):
    """(W, W', W'', W''') of the bump from t = s/w, r = 1 - t^2, phi = exp(-1/r).

    With g = -1/r: W = beta*phi, W' = beta*phi*g1/w,
    W'' = beta*phi*(g2 + g1^2)/w^2, W''' = beta*phi*(g3 + 3 g1 g2 + g1^3)/w^3,
    where g1 = -2t/r^2, g2 = -2/r^2 - 8t^2/r^3, g3 = -24t/r^3 - 48t^3/r^4.
    1/r and 1/w are formed once and every power is a product: no ``**``
    and two divisions, on the parameter ODEs' hot path.  Only arithmetic
    operators, so the inputs may be floats or arrays.
    """
    u = 1.0 / r
    iw = 1.0 / w
    u2 = u * u
    u3 = u2 * u
    tt = t * t
    g1 = -2.0 * t * u2
    g2 = -2.0 * u2 - 8.0 * tt * u3
    g3 = -24.0 * t * u3 - 48.0 * tt * t * u3 * u
    bp = beta * phi
    return (bp,
            bp * g1 * iw,
            bp * (g2 + g1 * g1) * iw * iw,
            bp * (g3 + 3.0 * g1 * g2 + g1 * g1 * g1) * iw * iw * iw)


@dataclass(frozen=True)
class PotentialSpec:
    """The bump W (amplitude, width) plus the slow scale h; evaluates W and
    its derivatives at shape arguments.  Specs compare and hash by value."""

    h: float
    amplitude: float = 0.2
    width: float = 1.0

    def __post_init__(self):
        if not (0 < self.h <= 1):
            raise ConfigurationError(f"h must lie in (0, 1], got {self.h}")
        if not math.isfinite(self.amplitude):
            raise ConfigurationError(f"amplitude must be finite, got {self.amplitude}")
        require_positive("width", self.width)

    @classmethod
    def bump(cls, h: float, amplitude: float = 0.2, width: float = 1.0) -> "PotentialSpec":
        return cls(h, amplitude, width)

    # -- shape evaluations (argument is the slow variable, i.e. W(s)) --

    def shape_derivatives(self, s):
        """(W, W', W'', W''') evaluated at shape argument s.

        Scalar input gives scalar outputs.  A scalar s (rank 0) takes a
        scalar path on plain Python floats and ``math.exp``, returning a
        4-tuple of floats: the parameter ODEs' hot loop.  Arrays take the
        array path, which is the scalar path's reference.  Both paths
        share the derivative chain `_bump_chain` and differ only in the
        masking and the ``exp``; they agree to the last ulp of ``exp``
        (at most 4.4e-16 relative over 2e5 points with |s| < width).

        Rank 0 is decided by ``isinstance(s, float)`` before ``np.ndim``:
        Python floats and ``np.float64`` (a ``float`` subclass) skip
        numpy's dispatch, which costs about as much as the scalar
        arithmetic; ints, other numpy scalars and 0-d arrays still reach
        ``np.ndim``, so every input takes the path its rank gives it.
        """
        if isinstance(s, float) or np.ndim(s) == 0:
            t = float(s) / self.width
            if abs(t) < _BUMP_EDGE:
                r = 1.0 - t * t
                return _bump_chain(self.amplitude, self.width, t, r,
                                   math.exp(-1.0 / r))
            return (0.0, 0.0, 0.0, 0.0)
        t = np.asarray(s, dtype=float) / self.width
        r = 1.0 - t * t
        m = np.abs(t) < _BUMP_EDGE
        out = tuple(np.zeros_like(t) for _ in range(4))
        inside = _bump_chain(self.amplitude, self.width, t[m], r[m],
                             np.exp(-1.0 / r[m]))
        for v, vm in zip(out, inside):
            v[m] = vm
        return out

    def vanishes_at(self, s: float) -> bool:
        """True where the scalar path of `shape_derivatives` returns
        (0.0, 0.0, 0.0, 0.0): its outside rule, not |s/width| < _BUMP_EDGE."""
        return not abs(s / self.width) < _BUMP_EDGE

    def sampled_potential(self, x):
        """V(x) = W(h*x) on physical coordinates x."""
        return self.shape_derivatives(self.h * np.asarray(x, dtype=float))[0]
