"""Linearized-operator applications, quadratic forms, and the commutator probe."""

import numpy as np
import pytest
from scipy.sparse.linalg import ArpackNoConvergence

from bolab import (ConfigurationError, DiagnosticError, Field, Grid,
                   SymmetricOperator, UsageError, commutator_probe,
                   dgamma_inverse, derivative, inner, l2_norm, quadratic_form)
from bolab import operators
from bolab.operators import _commutator_maps, projector_parts, top_singular_value
from bolab.soliton import (eigenfunction_field, profile, profile_derivative,
                           profile_second_derivative, scaled_profile)

from conftest import dense_oracle, random_band_limited


def q_fields(grid):
    y = grid.nodes
    return (Field(grid, profile(y)), Field(grid, profile_derivative(y)),
            Field(grid, scaled_profile(y)))


def linearized(f, c=1.0):
    return SymmetricOperator.linearized(f.grid, c).apply(f)


def project(f):
    """The flow's rank-one projector P f = <f, L q''>/||q'||^2 q'."""
    lqpp, qp, norm_sq = projector_parts(f.grid)
    return Field(f.grid, (inner(f, Field(f.grid, lqpp)) / norm_sq) * qp)


class TestSymmetricOperator:
    def test_linearized_requires_positive_c(self, grid_small):
        for c in (0.0, -1.5):
            with pytest.raises(ConfigurationError):
                SymmetricOperator.linearized(grid_small, c)

    @pytest.mark.parametrize("size", [1, 65])
    def test_rejects_a_weight_of_the_wrong_shape(self, size):
        with pytest.raises(UsageError, match=r"^weight must have shape \(64,\), got"):
            SymmetricOperator(Grid(64, 16.0), 1.0, 1.0, np.full(size, 0.5))

    def test_accepts_a_list_of_node_samples(self):
        grid = Grid(64, 16.0)
        w = [0.5] * grid.n_points
        op = SymmetricOperator(grid, 1.0, 1.0, w)
        assert op.w.dtype == float and not op.w.flags.writeable
        np.testing.assert_array_equal(op.w, w)


class TestKernelIdentities:
    def test_translation_mode_annihilated(self, grid_default):
        _, qp, _ = q_fields(grid_default)
        out = linearized(qp)
        assert l2_norm(out) <= 2e-6

    def test_scale_mode_maps_to_minus_profile(self, grid_default):
        q, _, yqp = q_fields(grid_default)
        out = linearized(yqp)
        assert l2_norm(out + q) <= 2e-6

    def test_profile_image(self, grid_default):
        q, _, yqp = q_fields(grid_default)
        out = linearized(q)
        assert l2_norm(out + yqp + q) <= 1e-3

    def test_projector_kills_odd_mode(self, grid_default):
        _, qp, _ = q_fields(grid_default)
        out = project(qp)
        assert l2_norm(out) <= 1e-10

    def test_projector_weight_is_spectral_l_qpp(self, grid_default):
        # differentiating L q' = 0 gives L q'' = (q')^2, the closed form the
        # flow uses; the spectral L q'' on the box stays close to it
        lqpp, qp, norm_sq = projector_parts(grid_default)
        assert np.array_equal(lqpp, qp * qp)
        assert norm_sq == 4.0 * np.pi
        qpp = Field(grid_default, profile_second_derivative(grid_default.nodes))
        assert np.max(np.abs(linearized(qpp).values - lqpp)) <= 1e-7

    def test_scaled_kernel(self, grid_default):
        c = 1.5
        y = grid_default.nodes
        qp_c = Field(grid_default, c * c * profile_derivative(c * y))
        out = linearized(qp_c, c)
        assert l2_norm(out) <= 5e-5

    def test_grid_mismatch_rejected(self, grid_default, grid_small):
        op = SymmetricOperator.linearized(grid_small)
        assert l2_norm(op.apply(Field.zeros(grid_small))) == 0.0   # its own grid
        with pytest.raises(UsageError):
            op.apply(Field.zeros(grid_default))


class TestParity:
    def test_linearized_preserves_parity(self, grid_small):
        rng = np.random.default_rng(31)
        f = random_band_limited(grid_small, rng)
        n = grid_small.n_points
        refl = (n - np.arange(n)) % n
        even = Field(grid_small, 0.5 * (f.values + f.values[refl]))
        odd = Field(grid_small, 0.5 * (f.values - f.values[refl]))
        for g, parity_sign in ((even, 1.0), (odd, -1.0)):
            out = linearized(g)
            mirrored = out.values[refl]
            leak = np.max(np.abs(out.values - parity_sign * mirrored))
            assert leak <= 1e-10 * max(np.max(np.abs(out.values)), 1e-300)


class TestQuadraticForms:
    def test_eigen_rayleigh_quotients(self, grid_default):
        # quadratically decaying eigenfunctions leave an O(L^-1)-tail in the
        # Rayleigh quotient; ~1e-5 at L = 1024
        for sign in ("+", "-"):
            e, lam = eigenfunction_field(grid_default, sign)
            got = quadratic_form(SymmetricOperator.linearized(grid_default), e) / inner(e, e)
            assert got == pytest.approx(lam, abs=2e-5)

    def test_virial_form_identity(self, grid_small):
        # the virial operator differs from the linearized one by an extra
        # half-derivative mass and the scale-generator weight
        rng = np.random.default_rng(41)
        f = random_band_limited(grid_small, rng)
        from bolab import fractional_derivative
        lhs = quadratic_form(SymmetricOperator.virial(grid_small), f)
        yqp = scaled_profile(grid_small.nodes)
        dhalf = fractional_derivative(f, 0.5)
        rhs = (quadratic_form(SymmetricOperator.linearized(grid_small), f)
               + inner(dhalf, dhalf)
               - inner(Field(grid_small, (yqp - profile(grid_small.nodes)) * f.values), f))
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_zero_field(self, grid_small):
        zero = Field.zeros(grid_small)
        assert quadratic_form(SymmetricOperator.linearized(grid_small), zero) == 0.0

    def test_projector_not_quadratic(self, grid_small):
        # <P q, q'> = <q, L q''> = int q q'^2 = 10 pi but <q, P q'> = 0: the
        # projector is not symmetric, so it is no SymmetricOperator and has
        # no quadratic form
        q, qp, _ = q_fields(grid_small)
        assert inner(project(q), qp) == pytest.approx(10.0 * np.pi, rel=1e-3)
        assert abs(inner(q, project(qp))) <= 1e-10


class TestDualVariable:
    def test_orthogonality_transfer(self, grid_default):
        # if v is orthogonal to q and q', the dual variable is orthogonal to
        # q' - gamma q'' and (yq)' - gamma (yq)''
        rng = np.random.default_rng(53)
        gamma = 0.1
        y = grid_default.nodes
        q, qp, yqp = q_fields(grid_default)
        v = random_band_limited(grid_default, rng,
                                envelope=lambda x: np.exp(-(x / 40.0) ** 2))
        for g in (q, qp):
            v = v - (inner(v, g) / inner(g, g)) * g
        psi = dgamma_inverse(linearized(v), gamma)
        qpp = Field(grid_default, profile_second_derivative(y))
        yqpp = Field(grid_default, 8.0 * y * (y * y - 3.0) / (1.0 + y * y) ** 3)
        t1 = abs(inner(psi, qp - gamma * qpp))
        t2 = abs(inner(psi, yqp - gamma * yqpp))
        scale = l2_norm(psi)
        assert t1 <= 2e-6 * max(scale, 1.0)
        assert t2 <= 2e-6 * max(scale, 1.0)

    def test_conjugation_identity(self):
        # R (L (1 + gamma d)f) = (L + gamma R q') f with R the regularized
        # inverse; exact up to aliasing of the q*f product, so the test field
        # stays band-limited well inside the Nyquist range
        rng = np.random.default_rng(59)
        gamma = 0.15
        grid = Grid(4096, 256.0)
        f = random_band_limited(grid, rng, max_mode_frac=0.0625)
        grid_small = grid
        lhs = dgamma_inverse(linearized(f + gamma * derivative(f)), gamma)
        qp = Field(grid_small, profile_derivative(grid_small.nodes))
        rhs = linearized(f) + gamma * dgamma_inverse(qp * f, gamma)
        assert l2_norm(lhs - rhs) <= 1e-9 * max(l2_norm(rhs), 1.0)


class TestNormEstimation:
    def test_zero_operator(self):
        # ARPACK reports the zero image of the start vector as an error
        zero = lambda v: np.zeros_like(np.ravel(v))
        with pytest.raises(DiagnosticError):
            top_singular_value(zero, zero, 64)

    def test_diagonal_operator(self):
        d = np.linspace(0.1, 2.5, 128)
        apply_fn = lambda v: d * np.ravel(v)
        assert top_singular_value(apply_fn, apply_fn, 128) == \
            pytest.approx(2.5, rel=1e-12)

    def test_nonconvergence_raises_with_partial(self, monkeypatch):
        def stalled(*args, **kwargs):
            raise ArpackNoConvergence("no convergence", eigenvalues=np.array([0.0625]),
                                      eigenvectors=np.zeros((32, 1)))
        monkeypatch.setattr(operators, "svds", stalled)
        apply_fn = lambda v: np.ravel(v)
        with pytest.raises(DiagnosticError) as err:
            top_singular_value(apply_fn, apply_fn, 32)
        assert err.value.partial == 0.25

    @pytest.mark.parametrize("gamma", [0.2, 0.05])
    def test_adjoint_matches_forward(self, gamma):
        # svds builds A*A from the adjoint map; nothing else checks it
        forward, adjoint = _commutator_maps(Grid(8192, 128.0), gamma)
        rng = np.random.default_rng(67)
        for _ in range(3):
            a, b = rng.standard_normal((2, 8192))
            fa = forward(a)
            scale = np.linalg.norm(fa) * np.linalg.norm(b)
            assert abs(fa @ b - a @ adjoint(b)) <= 1e-12 * scale


class TestCommutatorProbe:
    def test_ratio_band_across_gammas(self):
        results = [commutator_probe(g) for g in (0.2, 0.1, 0.05)]
        ratios = [r.ratio for r in results]
        assert max(ratios) / min(ratios) <= 4.0
        for r in results:
            assert r.norm > 0
            assert r.ratio == pytest.approx(r.norm / r.reference_scale, rel=1e-12)

    @pytest.mark.parametrize("gamma", [0.2, 0.1])
    def test_dense_oracle_agreement(self, gamma):
        # the dense matrix at a small resolved grid is the oracle for the
        # matrix-free ARPACK norm
        grid = Grid(1024, 32.0)
        forward, _ = _commutator_maps(grid, gamma)
        mat = dense_oracle(forward, grid.n_points)
        dense_norm = np.linalg.norm(mat, 2)
        probed = commutator_probe(gamma, grid=grid)
        assert probed.norm == pytest.approx(dense_norm, rel=1e-5)

    def test_gamma_range_validated(self):
        with pytest.raises(ConfigurationError):
            commutator_probe(0.7)

    def test_unresolved_grid_rejected(self):
        with pytest.raises(ConfigurationError):
            commutator_probe(0.01)   # default spacing too coarse
