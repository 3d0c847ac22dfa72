"""Soliton family, residuals, eigenfunctions, and the exact values."""

import numpy as np
import pytest

from bolab import (ConfigurationError, Field, Grid, SolitonParams,
                   eigenfunction_field, hilbert, inner, l2_norm, soliton_field,
                   soliton_residual)
from bolab.modulation import _constraint_fields
from bolab.soliton import (COS2_BETA, INNER_YQ_PRIME_Q, INT_Z2_Q_QPP, LAMBDA_MINUS,
                           LAMBDA_PLUS, NORM_E_MINUS_SQ, NORM_Q_SQ, NORM_YQ_PRIME_SQ,
                           periodic_profile, periodic_profile_hilbert, profile,
                           profile_derivative, qprime_norm_sq, scaled_profile)


def _family_derivatives(grid, p):
    """(d_a q_{a,c}, d_c q_{a,c}): the fields the Newton fit samples."""
    _, (d_a_m1, _), (d_c_m1, _) = _constraint_fields(grid, p.a, p.c)
    return d_a_m1, d_c_m1


class TestProfileSampling:
    def test_peak_value(self, grid_default):
        f = soliton_field(grid_default, SolitonParams(0.0, 1.0))
        j = np.argmin(np.abs(grid_default.nodes))
        assert f.values[j] == pytest.approx(4.0)

    def test_scaled_peak(self):
        g = Grid(1024, 256.0)
        f = soliton_field(g, SolitonParams(3.0, 2.0))
        j = np.argmin(np.abs(g.nodes - 3.0))
        assert f.values[j] == pytest.approx(8.0)

    def test_half_height_point(self, grid_default):
        f = soliton_field(grid_default, SolitonParams(0.0, 1.0))
        j = np.argmin(np.abs(grid_default.nodes - 1.0))
        assert f.values[j] == pytest.approx(2.0)

    def test_invalid_scale(self):
        with pytest.raises(ConfigurationError):
            SolitonParams(0.0, -1.0)

    def test_derivative_fields_match_spectral(self, grid_default):
        from bolab import derivative
        # d/dx q_{a,c} = -d_a q_{a,c}
        # c = 1: dominated by the periodization tail of the cubic-decay
        # derivative, ~1e-6 at L = 1024
        p1 = SolitonParams(2.0, 1.0)
        q1 = soliton_field(grid_default, p1)
        d_a, _ = _family_derivatives(grid_default, p1)
        assert l2_norm(derivative(q1) + d_a) < 2e-6
        # c = 1.5 narrows the profile; aliasing of the e^{-|xi|/c} tail
        # dominates and sits near 1e-5 at this resolution
        p2 = SolitonParams(2.0, 1.5)
        q2 = soliton_field(grid_default, p2)
        d_a, _ = _family_derivatives(grid_default, p2)
        assert l2_norm(derivative(q2) + d_a) < 1e-4

    def test_scale_derivative_matches_finite_difference(self, grid_default):
        p = SolitonParams(1.0, 1.2)
        eps = 1e-6
        up = soliton_field(grid_default, SolitonParams(1.0, 1.2 + eps))
        dn = soliton_field(grid_default, SolitonParams(1.0, 1.2 - eps))
        fd = (up.values - dn.values) / (2 * eps)
        _, an = _family_derivatives(grid_default, p)
        assert np.max(np.abs(fd - an)) < 1e-8


class TestProfileEquation:
    def test_residual_unit_soliton(self, grid_default):
        assert soliton_residual(SolitonParams(0.0, 1.0), grid_default) <= 1e-3

    def test_residual_translated_scaled(self, grid_default):
        assert soliton_residual(SolitonParams(5.0, 2.0), grid_default) <= 1e-3

    @pytest.mark.parametrize("n, length", [(2048, 256.0), (4096, 512.0), (8192, 1024.0)])
    def test_residual_at_rounding_level_on_every_box(self, n, length):
        # the periodised soliton solves the box equation exactly: no far-field
        # defect from the line profile's 4/y^2 tail (4e-3 at L = 256)
        assert soliton_residual(SolitonParams(0.0, 1.0), Grid(n, length)) <= 1e-8

    def test_wrong_speed_leaves_exact_defect(self, grid_default):
        # testing c=2 against the c=1 profile leaves exactly one profile copy
        q = soliton_field(grid_default, SolitonParams(0.0, 1.0))
        from bolab import derivative
        res = 2.0 * q - hilbert(derivative(q)) - 0.5 * q * q
        base = q - hilbert(derivative(q)) - 0.5 * q * q
        assert l2_norm(res - (base + q)) < 1e-14
        assert l2_norm(res) == pytest.approx(np.sqrt(8 * np.pi), rel=1e-3)


class TestPointwiseIdentities:
    def test_scale_generator_identity(self, grid_default):
        # y q' = q^2/2 - 2 q holds pointwise to rounding
        y = grid_default.nodes
        lhs = y * profile_derivative(y)
        rhs = 0.5 * profile(y) ** 2 - 2 * profile(y)
        assert np.max(np.abs(lhs - rhs)) < 1e-14

    def test_hilbert_image_tail_scaling(self, grid_default, grid_wide):
        errs = []
        for g in (grid_default, grid_wide):
            q = Field(g, profile(g.nodes))
            errs.append(l2_norm(hilbert(q) + Field(g, g.nodes * profile(g.nodes))))
        assert errs[1] < errs[0]

    def test_hilbert_matches_periodised_profile(self):
        # the box transform of q is the transform of the image sum q_per;
        # the residual falls as L^(-3/2), the real-line one as L^(-1/2)
        errs = []
        for n, length in ((2048, 256.0), (8192, 1024.0)):
            g = Grid(n, length)
            hq = hilbert(Field(g, profile(g.nodes)))
            errs.append(l2_norm(hq - Field(g, periodic_profile_hilbert(g.nodes, length))))
        assert errs[0] < 1e-3 and errs[1] < 1e-4
        assert errs[0] / errs[1] == pytest.approx(8.0, rel=0.05)

    def test_periodised_hilbert_tends_to_real_line(self):
        y = np.linspace(-20.0, 20.0, 81)
        got = periodic_profile_hilbert(y, 1e6)
        np.testing.assert_allclose(got, -y * profile(y), rtol=0.0, atol=1e-9)

    def test_periodic_profile_is_the_image_sum(self):
        # the truncated sum over |n| <= 2000 misses a tail of about
        # 8/(2000 L^2) = 9.8e-7 at L = 64
        y = np.linspace(-32.0, 32.0, 65)
        length = 64.0
        images = sum(profile(y + n * length) for n in range(-2000, 2001))
        np.testing.assert_allclose(periodic_profile(y, length), images,
                                   rtol=0.0, atol=1.2e-6)
        np.testing.assert_allclose(periodic_profile(y, 1e6), profile(y),
                                   rtol=0.0, atol=1e-9)


class TestEigenfunctions:
    def test_eigenvalues(self, grid_default):
        _, lam_p = eigenfunction_field(grid_default, "+")
        _, lam_m = eigenfunction_field(grid_default, "-")
        assert lam_p == pytest.approx((np.sqrt(5) - 1) / 2, rel=1e-14)
        assert lam_m == pytest.approx(-(np.sqrt(5) + 1) / 2, rel=1e-14)

    def test_e_minus_is_q_plus_lambda_plus_yq_prime(self, grid_default):
        # the field `bolab identities` measures, bit for bit
        y = grid_default.nodes
        e, lam = eigenfunction_field(grid_default, "-")
        hand = (soliton_field(grid_default, SolitonParams(0.0, 1.0))
                + LAMBDA_PLUS * Field(grid_default, scaled_profile(y)))
        assert np.array_equal(e.values, hand.values) and lam == LAMBDA_MINUS

    def test_evenness(self, grid_default):
        for sign in ("+", "-"):
            e, _ = eigenfunction_field(grid_default, sign)
            flipped = e.values[(grid_default.n_points - np.arange(grid_default.n_points))
                               % grid_default.n_points]
            assert np.max(np.abs(e.values - flipped)) < 1e-12

    def test_bad_sign(self, grid_default):
        with pytest.raises(ConfigurationError):
            eigenfunction_field(grid_default, "x")


class TestClosedFormTable:
    def test_exact_values(self):
        assert NORM_Q_SQ == pytest.approx(8 * np.pi, rel=1e-15)
        assert NORM_YQ_PRIME_SQ == pytest.approx(4 * np.pi, rel=1e-15)
        assert INNER_YQ_PRIME_Q == pytest.approx(4 * np.pi, rel=1e-15)
        assert NORM_E_MINUS_SQ == pytest.approx(2 * (5 + np.sqrt(5)) * np.pi,
                                                rel=1e-15)
        assert COS2_BETA == pytest.approx(0.5 + np.sqrt(5) / 10, rel=1e-15)
        assert qprime_norm_sq(2.0) == pytest.approx(32 * np.pi, rel=1e-15)

    @pytest.mark.parametrize("entry,builder", [
        ("normQ_sq", lambda y: profile(y) ** 2),
        ("norm_yQprime_sq", lambda y: scaled_profile(y) ** 2),
        ("inner_yQprime_Q", lambda y: scaled_profile(y) * profile(y)),
    ])
    def test_quadrature_agreement(self, grid_default, entry, builder):
        exact = {"normQ_sq": NORM_Q_SQ, "norm_yQprime_sq": NORM_YQ_PRIME_SQ,
                 "inner_yQprime_Q": INNER_YQ_PRIME_Q}[entry]
        got = grid_default.spacing * np.sum(builder(grid_default.nodes))
        assert got == pytest.approx(exact, rel=1e-6)

    def test_eminus_combo_quadrature(self, grid_default):
        y = grid_default.nodes
        em = profile(y) + LAMBDA_PLUS * scaled_profile(y)
        got = grid_default.spacing * np.sum(em * em)
        assert got == pytest.approx(NORM_E_MINUS_SQ, rel=1e-6)

    def test_curvature_moment_quadrature(self, grid_default):
        from bolab.soliton import profile_second_derivative
        y = grid_default.nodes
        got = grid_default.spacing * np.sum(y * y * profile(y)
                                            * profile_second_derivative(y))
        assert got == pytest.approx(INT_Z2_Q_QPP, rel=1e-6)

    def test_quadrature_improves_under_doubling(self, grid_default, grid_wide):
        errs = []
        for g in (grid_default, grid_wide):
            got = g.spacing * np.sum(scaled_profile(g.nodes) * profile(g.nodes))
            errs.append(abs(got - INNER_YQ_PRIME_Q))
        assert errs[1] < errs[0]

    def test_cos2_beta_from_samples(self, grid_default):
        y = grid_default.nodes
        yqp = Field(grid_default, scaled_profile(y))
        em = Field(grid_default, profile(y) + LAMBDA_PLUS * scaled_profile(y))
        cos2 = inner(yqp, em) ** 2 / (inner(yqp, yqp) * inner(em, em))
        assert cos2 == pytest.approx(COS2_BETA, rel=1e-6)
