"""Grid construction, multiplier operators, and norms."""

import numpy as np
import pytest

from bolab import (ConfigurationError, Field, Grid, UsageError, derivative,
                   dgamma_inverse, fractional_derivative, hilbert, inner,
                   l2_norm, localizer, sobolev_norm, translate)
from bolab.grid import LocalizerSpec, _real_nyquist, cell_l2_profile

from conftest import random_band_limited


class TestMakeGrid:
    def test_basic_spacing_and_nodes(self):
        g = Grid(8, 8.0)
        assert g.spacing == 1.0
        assert np.allclose(g.nodes, np.arange(-4, 4))

    def test_large_grid_spacing(self):
        g = Grid(8192, 1024.0)
        assert g.spacing == 0.125

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ConfigurationError):
            Grid(7, 8.0)

    def test_nonpositive_length_rejected(self):
        # an infinite box would have NaN nodes
        for length in (-1.0, 0.0, np.inf, np.nan):
            with pytest.raises(ConfigurationError, match="finite and positive"):
                Grid(8, length)

    def test_wavenumber_antisymmetry(self):
        g = Grid(64, 16.0)
        k = g.rfft_wavenumbers
        full = 2 * np.pi * np.fft.fftfreq(64, d=g.spacing)
        # the half axis is the full table's modes 0..N/2; all modes except
        # DC and Nyquist pair up as +-
        assert k[0] == 0.0 and k[-1] == pytest.approx(np.pi / g.spacing, rel=1e-15)
        assert np.array_equal(k[:32], full[:32])
        assert np.allclose(np.sort(k[1:32]), np.sort(-full[33:]))

    def test_spacing_times_n_is_length(self):
        g = Grid(512, 37.5)
        assert g.spacing * g.n_points == pytest.approx(g.domain_length, rel=1e-15)


class TestNyquistRule:
    def test_real_part_kept_on_nyquist_only(self):
        xi = Grid(16, 8.0).rfft_wavenumbers
        for symbol in (1j * xi, 1j * xi * np.abs(xi), np.exp(1j * xi * 0.3), np.abs(xi)):
            got = _real_nyquist(symbol)
            assert got.dtype == complex
            assert np.array_equal(got[:-1], symbol[:-1])
            assert got[-1] == np.real(symbol[-1])
        assert _real_nyquist(1j * xi)[-1] == 0.0         # odd symbols vanish there
        symbol = 1j * xi
        _real_nyquist(symbol)
        assert symbol[-1] == 1j * xi[-1]                 # the input is not changed


class TestHilbert:
    def test_single_cosine_mode(self):
        g = Grid(256, 32.0)
        k = 2 * np.pi * 5 / g.domain_length
        f = Field(g, np.cos(k * g.nodes))
        out = hilbert(f)
        assert np.allclose(out.values, -np.sin(k * g.nodes), atol=1e-12)

    def test_constant_maps_to_zero(self):
        g = Grid(64, 16.0)
        out = hilbert(Field(g, np.ones(64)))
        assert np.max(np.abs(out.values)) < 1e-14

    def test_soliton_image_matches_tail_scaling(self, grid_default, grid_wide):
        # H(q) = -y q holds up to the periodization of the slowly decaying
        # image; the L2 defect scales like L^{-1/2}
        from bolab.soliton import profile
        errs = {}
        for g in (grid_default, grid_wide):
            q = Field(g, profile(g.nodes))
            err = hilbert(q) + Field(g, g.nodes) * q
            errs[g.domain_length] = l2_norm(err)
        assert errs[2048.0] < errs[1024.0]
        ratio = errs[1024.0] / errs[2048.0]
        assert ratio == pytest.approx(np.sqrt(2.0), rel=0.05)

    def test_double_application_is_minus_identity(self, grid_small):
        rng = np.random.default_rng(7)
        f = random_band_limited(grid_small, rng)
        mean = inner(f, Field(grid_small, np.ones(grid_small.n_points)))
        mean /= grid_small.domain_length
        twice = hilbert(hilbert(f))
        err = twice.values + (f.values - mean)
        assert np.max(np.abs(err)) < 1e-12 * max(1.0, np.max(np.abs(f.values)))


class TestFractionalDerivative:
    def test_single_sine_mode(self):
        g = Grid(256, 32.0)
        k = 2 * np.pi * 7 / g.domain_length
        f = Field(g, np.sin(k * g.nodes))
        out = fractional_derivative(f, 1.0)
        assert np.allclose(out.values, k * np.sin(k * g.nodes), atol=1e-12)

    def test_identity_multiplier(self, grid_small):
        rng = np.random.default_rng(3)
        f = random_band_limited(grid_small, rng)
        out = fractional_derivative(f, 0.0)
        assert np.allclose(out.values, f.values, atol=1e-13)

    def test_matches_minus_d_hilbert(self, grid_small):
        rng = np.random.default_rng(11)
        f = random_band_limited(grid_small, rng)
        a = fractional_derivative(f, 1.0)
        b = -1.0 * derivative(hilbert(f))
        assert l2_norm(a - b) <= 1e-10 * max(l2_norm(a), 1.0)

    def test_below_floor_rejected(self, grid_small):
        f = Field.zeros(grid_small)
        with pytest.raises(ConfigurationError, match="fractional order must be >= 0"):
            fractional_derivative(f, -0.75)


class TestDgammaInverse:
    def test_constant_passes_through(self, grid_small):
        f = Field(grid_small, np.ones(grid_small.n_points))
        out = dgamma_inverse(f, 0.3)
        assert np.allclose(out.values, 1.0, atol=1e-13)

    def test_inverse_pair(self, grid_small):
        rng = np.random.default_rng(5)
        f = random_band_limited(grid_small, rng)
        gamma = 0.2
        forward = f + gamma * derivative(f)
        back = dgamma_inverse(forward, gamma)
        assert l2_norm(back - f) <= 1e-10 * l2_norm(f)

    def test_cosine_amplitude(self):
        g = Grid(256, 32.0)
        k = 2 * np.pi * 9 / g.domain_length
        gamma = 0.4
        f = Field(g, np.cos(k * g.nodes))
        out = dgamma_inverse(f, gamma)
        # the output is a phase-shifted cosine; read its amplitude from the
        # L2 mass of the single mode
        amp = l2_norm(out) * np.sqrt(2.0 / g.domain_length)
        assert amp == pytest.approx((1 + gamma**2 * k**2) ** -0.5, rel=1e-10)

    def test_gamma_must_be_positive(self, grid_small):
        with pytest.raises(ConfigurationError):
            dgamma_inverse(Field.zeros(grid_small), 0.0)


class TestRealness:
    def test_full_fft_path_agrees_and_stays_real(self, grid_small):
        # reference computation through the full complex FFT: the imaginary
        # residue stays at rounding level and matches the rfft-based operator
        rng = np.random.default_rng(17)
        f = random_band_limited(grid_small, rng)
        k_full = 2 * np.pi * np.fft.fftfreq(grid_small.n_points, d=grid_small.spacing)
        sym = np.where(k_full > 0, 1j, np.where(k_full < 0, -1j, 0))
        full = np.fft.ifft(sym * np.fft.fft(f.values))
        assert np.max(np.abs(full.imag)) <= 1e-12 * max(np.max(np.abs(f.values)), 1e-300)
        assert np.allclose(full.real, hilbert(f).values, atol=1e-12)


class TestSobolevNorm:
    def test_plancherel_matches_quadrature(self, grid_small):
        rng = np.random.default_rng(23)
        f = random_band_limited(grid_small, rng)
        direct = l2_norm(f)
        spectral = sobolev_norm(f, 0.0)
        assert spectral == pytest.approx(direct, rel=1e-10)

    def test_profile_mass(self, grid_default):
        from bolab.soliton import profile
        q = Field(grid_default, profile(grid_default.nodes))
        assert sobolev_norm(q, 0.0) ** 2 == pytest.approx(8 * np.pi, rel=1e-6)

    def test_profile_derivative_mass(self, grid_default):
        from bolab.soliton import profile_derivative
        qp = Field(grid_default, profile_derivative(grid_default.nodes))
        assert sobolev_norm(qp, 0.0) ** 2 == pytest.approx(4 * np.pi, rel=1e-6)

    def test_zero_field(self, grid_small):
        assert sobolev_norm(Field.zeros(grid_small), 0.5) == 0.0

    def test_single_mode_closed_form(self):
        g = Grid(512, 64.0)
        k = 2 * np.pi * 11 / g.domain_length
        f = Field(g, np.cos(k * g.nodes))
        expected = np.sqrt((1 + k * k) ** 0.5 * g.domain_length / 2)
        assert sobolev_norm(f, 0.5) == pytest.approx(expected, rel=1e-12)


def local_sup(f):
    """sup over integer n of ||f||_{L2[n, n+1)}: the largest cell norm."""
    return np.max(cell_l2_profile(f)[1])


class TestLocalSupNorm:
    def test_profile_value(self, grid_default):
        from bolab.soliton import profile
        q = Field(grid_default, profile(grid_default.nodes))
        # closed form of the cell integral on [0, 1):
        # 16 * (y/(2(1+y^2)) + arctan(y)/2) evaluated at 1 -> 4 + 2 pi
        expected = np.sqrt(4 + 2 * np.pi)
        assert local_sup(q) == pytest.approx(expected, rel=5e-3)

    def test_profile_value_against_simpson_oracle(self, grid_default):
        from scipy.integrate import simpson
        from bolab.soliton import profile
        y = np.linspace(0.0, 1.0, 2001)
        oracle = np.sqrt(simpson(profile(y) ** 2, x=y))
        q = Field(grid_default, profile(grid_default.nodes))
        assert local_sup(q) == pytest.approx(oracle, rel=5e-3)

    def test_zero(self, grid_small):
        assert local_sup(Field.zeros(grid_small)) == 0.0

    def test_single_cell_bump_equals_global_norm(self, grid_small):
        x = grid_small.nodes
        vals = np.where((x >= 5.0) & (x < 6.0), np.sin(np.pi * (x - 5.0)) ** 2, 0.0)
        f = Field(grid_small, vals)
        assert local_sup(f) == pytest.approx(l2_norm(f), rel=1e-12)

    def test_coarse_grid_rejected(self):
        g = Grid(16, 16.0)   # spacing 1 > 1/4
        with pytest.raises(ConfigurationError):
            local_sup(Field.zeros(g))

    def test_cell_profile_total_mass(self, grid_small):
        rng = np.random.default_rng(2)
        f = random_band_limited(grid_small, rng)
        _, norms = cell_l2_profile(f)
        assert np.sqrt(np.sum(norms**2)) == pytest.approx(l2_norm(f), rel=1e-10)

    @staticmethod
    def _direct_cell_profile(f):
        # reference: every index array worked out from the nodes on each call
        g, x = f.grid, f.grid.nodes
        v2 = f.values ** 2
        per = 1.0 / g.spacing
        n_lo = int(np.floor(x[0]))
        cells = np.floor(x).astype(int) - n_lo
        n_cells = int(np.floor(x[-1])) - n_lo + 1
        masses = np.bincount(cells, weights=v2, minlength=n_cells) * g.spacing
        if (abs(per - round(per)) < 1e-9
                and abs(x[0] - round(x[0])) < 1e-9 * max(1.0, abs(x[0]))):
            idx = np.arange(0, g.n_points, int(round(per)))
            contrib = 0.5 * g.spacing * v2[idx]
            masses[cells[idx]] -= contrib
            left = cells[idx] - 1
            np.add.at(masses, left[left >= 0], contrib[left >= 0])
            masses[-1] += 0.5 * g.spacing * v2[0]
        return n_lo + np.arange(n_cells), np.sqrt(np.maximum(masses, 0.0))

    # aligned at 8 and 4 nodes per cell; 10.24 nodes per cell; 64 nodes per
    # cell with the first node off the integers
    @pytest.mark.parametrize("n, length", [(8192, 1024.0), (512, 128.0),
                                           (1024, 100.0), (64, 1.0)])
    def test_cell_layout_gives_the_direct_profile(self, n, length):
        g = Grid(n, length)
        f = random_band_limited(g, np.random.default_rng(n))
        want_starts, want = self._direct_cell_profile(f)
        for _ in range(2):          # a second call works its cells out anew
            starts, norms = cell_l2_profile(f)
            assert np.array_equal(starts, want_starts)
            assert np.array_equal(norms, want)
        assert not starts.flags.writeable

    @pytest.mark.parametrize("length", [128.0 + 1e-10, 128.0 - 1e-10])
    def test_a_box_within_rounding_of_aligned_has_the_aligned_cells(self, length):
        # the first node -L/2 sits 5e-11 off -64; its cells are still [-64, 64)
        aligned = Grid(1024, 128.0)
        values = random_band_limited(aligned, np.random.default_rng(3)).values
        want_starts, want = cell_l2_profile(Field(aligned, values))
        starts, norms = cell_l2_profile(Field(Grid(1024, length), values))
        assert np.array_equal(starts, want_starts)
        assert norms == pytest.approx(want, rel=1e-9)


class TestLocalizer:
    def test_center_value_and_oddness(self, grid_small):
        spec = LocalizerSpec(0.25, 16.0)
        g, gp = localizer(spec, grid_small)
        j0 = np.argmin(np.abs(grid_small.nodes - 16.0))
        assert gp.values[j0] == pytest.approx(1.0, abs=1e-12)
        # oddness about the center: g(y0 + r) = -g(y0 - r)
        r = 32
        assert g.values[j0 + r] == pytest.approx(-g.values[j0 - r], rel=1e-12)

    def test_amplitude_bound(self, grid_small):
        spec = LocalizerSpec(0.1, 0.0)
        g, _ = localizer(spec, grid_small)
        assert np.max(np.abs(g.values)) <= np.pi / (2 * 0.1)

    def test_gamma_validated(self):
        with pytest.raises(ConfigurationError):
            LocalizerSpec(0.0, 0.0)
        with pytest.raises(ConfigurationError):
            LocalizerSpec(1.5, 0.0)

    def test_specs_compare_by_value_and_need_a_finite_center(self):
        assert LocalizerSpec(0.1, 2.0) == LocalizerSpec(0.1, 2.0)
        assert hash(LocalizerSpec(0.1, 2.0)) == hash(LocalizerSpec(0.1, 2.0))
        assert LocalizerSpec(0.1, 2.0) != LocalizerSpec(0.1, 3.0)
        for y0 in (np.nan, np.inf, -np.inf):
            with pytest.raises(ConfigurationError, match="y_center must be finite"):
                LocalizerSpec(0.1, y0)


class TestFieldBasics:
    def test_finite_enforced(self, grid_small):
        vals = np.zeros(grid_small.n_points)
        vals[0] = np.nan
        with pytest.raises(UsageError):
            Field(grid_small, vals)

    def test_grid_mismatch(self, grid_small, grid_default):
        with pytest.raises(UsageError):
            Field.zeros(grid_small) + Field.zeros(grid_default)

    def test_translate_exact_on_modes(self, grid_small):
        k = 2 * np.pi * 4 / grid_small.domain_length
        f = Field(grid_small, np.cos(k * grid_small.nodes))
        shifted = translate(f, 1.7)
        assert np.allclose(shifted.values, np.cos(k * (grid_small.nodes + 1.7)),
                           atol=1e-12)

    def test_array_on_the_left_gives_a_field(self):
        # a weight array on the left must reach Field's reflected operators,
        # not broadcast the Field into an object array
        g = Grid(8, 1.0)
        w = np.arange(8.0)
        f = Field(g, np.ones(8))
        for out, expect in ((w * f, w), (w + f, w + 1.0), (w - f, w - 1.0)):
            assert isinstance(out, Field)
            assert np.array_equal(out.values, expect)
