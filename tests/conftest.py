import tracemalloc

import numpy as np
import pytest

from bolab import Field, Grid


@pytest.fixture(scope="session")
def grid_default():
    return Grid(8192, 1024.0)


@pytest.fixture(scope="session")
def grid_wide():
    return Grid(16384, 2048.0)


@pytest.fixture(scope="session")
def grid_small():
    return Grid(1024, 256.0)


def random_band_limited(grid, rng, max_mode_frac=0.25, n_modes=40, envelope=None):
    """Smooth random periodic field built from low Fourier modes."""
    n = grid.n_points
    spec = np.zeros(n // 2 + 1, dtype=complex)
    top = max(2, int(max_mode_frac * (n // 2)))
    idx = rng.integers(1, top, size=n_modes)
    spec[idx] += rng.standard_normal(n_modes) + 1j * rng.standard_normal(n_modes)
    vals = np.fft.irfft(spec, n=n)
    if envelope is not None:
        vals = vals * envelope(grid.nodes)
    vals /= max(np.max(np.abs(vals)), 1e-300)
    return Field(grid, vals)


def dense_oracle(matvec, n):
    """The n x n matrix of a linear map on length-n sample vectors: its
    images of the identity columns, the reference for matrix-free solvers."""
    return np.stack([matvec(col) for col in np.eye(n)], axis=1)


def traced_peak(run) -> int:
    """Peak bytes that tracemalloc traces while run() executes."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
