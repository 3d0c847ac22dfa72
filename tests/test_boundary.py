"""The input boundary: every positive scalar parameter passes one
finite-and-positive check, `errors.require_positive`, which names it.

The config keys have their own table in test_experiments.py.
"""

import math
import re

import numpy as np
import pytest

from bolab import (ExperimentConfig, Field, Grid, PotentialSpec, SolitonParams,
                   SymmetricOperator, convert_frame, dgamma_inverse, g_remainder,
                   integrate_exact, integrate_reference, local_smoothing_lhs,
                   spectrum_below_continuum)
from bolab.errors import ConfigurationError, require_count, require_positive
from bolab.evolution import _step_count
from bolab.grid import LocalizerSpec, dgamma_inverse_adjoint

GRID = Grid(64, 16.0)
F = Field(GRID, np.exp(-GRID.nodes ** 2))
POT = PotentialSpec.bump(0.1)
SPEC = LocalizerSpec(0.2, 0.0)

# (name in the message, call with the value under test)
BOUNDARY = [
    ("domain_length", lambda v: Grid(64, v)),
    ("dt", lambda v: _step_count(1.0, v)),
    ("t_end", lambda v: _step_count(v, 0.1)),
    ("width", lambda v: PotentialSpec(0.1, 0.2, v)),
    ("scale c", lambda v: SolitonParams(0.0, v)),
    ("c", lambda v: SymmetricOperator.linearized(GRID, v)),
    ("gamma", lambda v: dgamma_inverse(F, v)),
    ("gamma", lambda v: dgamma_inverse_adjoint(F, v)),
    ("margin", lambda v: spectrum_below_continuum(
        SymmetricOperator.linearized(GRID), 1.0, v)),
    ("s_end", lambda v: integrate_reference(POT, v)),
    ("ds", lambda v: integrate_reference(POT, 1.0, v)),
    ("s_end", lambda v: integrate_exact(POT, v)),
    ("ds", lambda v: integrate_exact(POT, 1.0, v)),
    ("h", lambda v: convert_frame(integrate_exact(POT, 0.01), v)),
    ("dt", lambda v: local_smoothing_lhs([F, F], v, SPEC)),
    ("dt", lambda v: g_remainder([F, F], [F, F], v, SPEC, 0.2)),
    ("C0", lambda v: integrate_exact(POT, 0.01, y0=(0.0, v))),
]


@pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1.0])
@pytest.mark.parametrize("name, call", BOUNDARY,
                         ids=[f"{k}-{name}" for k, (name, _) in enumerate(BOUNDARY)])
def test_rejects_non_finite_or_non_positive(name, call, value):
    with pytest.raises(ConfigurationError,
                       match=f"^{re.escape(name)} must be finite and positive, got {value}$"):
        call(value)


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_integrate_exact_rejects_a_start_position_that_is_not_finite(value):
    with pytest.raises(ConfigurationError, match=f"^A0 must be finite, got {value}$"):
        integrate_exact(POT, 0.01, y0=(value, 1.0))


@pytest.mark.parametrize("value, want", [(2, 2.0), (0.5, 0.5), (np.float64(3.0), 3.0),
                                         (1e-300, 1e-300)])
def test_require_positive_returns_a_float(value, want):
    got = require_positive("x", value)
    assert type(got) is float and got == want


# (name in the message, call with the count under test)
COUNTS = [
    ("snapshot_stride", lambda v: ExperimentConfig(snapshot_stride=v)),
    ("threads", lambda v: ExperimentConfig(threads=v)),
    ("snapshot_stride", lambda v: _step_count(1.0, 0.1, v)),
]


@pytest.mark.parametrize("value, rule", [(math.nan, "an integer"), (math.inf, "an integer"),
                                         (2.5, "an integer"), (0, "at least 1")])
@pytest.mark.parametrize("name, call", COUNTS,
                         ids=[f"{k}-{name}" for k, (name, _) in enumerate(COUNTS)])
def test_rejects_a_count_below_1_or_not_an_integer(name, call, value, rule):
    with pytest.raises(ConfigurationError, match=f"^{name} must be {rule}, got {value}$"):
        call(value)


@pytest.mark.parametrize("value", [1, 7, np.int64(3), np.int32(2)])
def test_require_count_returns_an_int(value):
    got = require_count("x", value)
    assert type(got) is int and got == value
