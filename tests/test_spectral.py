"""Dense spectra, constrained coercivity, and the angle bound."""

import numpy as np
import pytest

from bolab import (ConfigurationError, DenseOperator, Field, Grid,
                   SymmetricOperator, UsageError, angle_lemma_bound,
                   closed_form_table, constrained_min_rayleigh, discretize,
                   l2_norm, sobolev_norm, spectrum_below_continuum)
from bolab.spectral import (_multiplier_matrix, parity_restriction,
                            sobolev_gram_matrix)
from bolab.soliton import (eigenfunction_field, profile, profile_derivative,
                           scaled_profile)

from conftest import random_band_limited

TBL = closed_form_table()


@pytest.fixture(scope="module")
def grid_spec():
    return Grid(2048, 512.0)


@pytest.fixture(scope="module")
def lin_op(grid_spec):
    return discretize(SymmetricOperator.linearized(grid_spec))


@pytest.fixture(scope="module")
def lin_report(lin_op):
    return spectrum_below_continuum(lin_op, threshold=1.0)


def constraint_pair(grid):
    y = grid.nodes
    return (Field(grid, profile_derivative(y)), Field(grid, scaled_profile(y)))


OPERATORS = {"linearized-c1": SymmetricOperator.linearized,
             "linearized-c1.5": lambda g: SymmetricOperator.linearized(g, 1.5),
             "virial": SymmetricOperator.virial}


class TestDiscretize:
    @pytest.mark.parametrize("make", OPERATORS.values(), ids=OPERATORS.keys())
    def test_matches_apply_on_random_fields(self, grid_small, make):
        op = make(grid_small)
        dense = discretize(op)
        rng = np.random.default_rng(3)
        for _ in range(4):
            f = random_band_limited(grid_small, rng)
            direct = op.apply(f)
            mat = Field(grid_small, dense.matrix @ f.values)
            assert l2_norm(direct - mat) <= 1e-10 * max(l2_norm(direct), 1.0)

    def test_annihilates_translation_mode(self, grid_small):
        # spacing 1/4 leaves ~2e-4 aliasing of the e^{-|xi|} spectral tail
        op = discretize(SymmetricOperator.linearized(grid_small))
        qp = profile_derivative(grid_small.nodes)
        out = op.matrix @ qp
        assert np.sqrt(grid_small.spacing) * np.linalg.norm(out) <= 5e-4

    def test_symmetry(self, grid_small):
        # the dense matrices and the H^s Gram matrices are exactly symmetric,
        # and bit for bit 0.5 (m + m^T) of the raw circulant assembly m
        xi = grid_small.rfft_wavenumbers
        diag = np.diag_indices(grid_small.n_points)
        pairs = []
        for make in OPERATORS.values():
            op = make(grid_small)
            raw = op.k * _multiplier_matrix(grid_small, xi)
            raw[diag] = op.c0 + raw[diag] - op.w
            pairs.append((discretize(op).matrix, raw))
        for s in (0.5, 1.0):
            pairs.append((sobolev_gram_matrix(grid_small, s),
                          _multiplier_matrix(grid_small, (1.0 + xi ** 2) ** s)))
        for got, raw in pairs:
            assert np.array_equal(got, got.T)
            assert np.array_equal(got, 0.5 * (raw + raw.T))

    def test_asymmetric_matrix_rejected(self, grid_small):
        sym = discretize(SymmetricOperator.linearized(grid_small)).matrix
        n = grid_small.n_points
        # one ulp off in the first block, and in the last block (the check
        # runs per 128-row block) from either side of the diagonal
        for i, j in ((0, 1), (n - 1, n - 100), (n - 100, n - 1), (5, n - 2)):
            m = sym.copy()
            m[i, j] = np.nextafter(m[i, j], np.inf)
            with pytest.raises(UsageError):
                DenseOperator(m, grid_small)
        with pytest.raises(UsageError):
            DenseOperator(sym[:, :-1], grid_small)

    def test_virial_matrix_identity(self, grid_small):
        # virial matrix = linearized matrix + |xi| part - diag((yq)' - q)
        lin = discretize(SymmetricOperator.linearized(grid_small)).matrix
        vir = discretize(SymmetricOperator.virial(grid_small)).matrix
        dmat = _multiplier_matrix(grid_small, grid_small.rfft_wavenumbers)
        extra = np.diag(scaled_profile(grid_small.nodes) - profile(grid_small.nodes))
        assert np.allclose(vir, lin + dmat - extra, atol=1e-11)

    def test_budget_enforced(self):
        with pytest.raises(ConfigurationError):
            discretize(SymmetricOperator.linearized(Grid(8192, 1024.0)))

    def test_multiplier_matrix_matches_the_transformed_identity(self, grid_small):
        # the circulant of the first column against the multiplier applied
        # to every unit vector: an even real, an even and an odd symbol
        n = grid_small.n_points
        xi = grid_small.rfft_wavenumbers
        for symbol in (np.abs(xi), (1.0 + xi ** 2) ** 0.5, 1j * xi):
            sym = symbol.astype(complex)
            sym[-1] = sym[-1].real
            want = np.fft.irfft(sym[:, None] * np.fft.rfft(np.eye(n), axis=0),
                                n=n, axis=0)
            got = _multiplier_matrix(grid_small, symbol)
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


class TestSpectrum:
    def test_isolated_eigenvalues(self, lin_report):
        got = lin_report.discrete_eigenvalues
        assert len(got) == 3
        expected = [TBL.lambda_minus, 0.0, TBL.lambda_plus]
        for g, e in zip(got, expected):
            assert abs(g - e) <= 5e-3

    def test_zero_mode_eigenvector(self, lin_report, grid_spec):
        v = lin_report.eigenvector_fields[1]
        qp = Field(grid_spec, profile_derivative(grid_spec.nodes))
        qp_unit = (1.0 / l2_norm(qp)) * qp
        err = min(l2_norm(v - qp_unit), l2_norm(v + qp_unit))
        assert err <= 1e-2

    def test_eigenvectors_unit_norm_and_sorted(self, lin_report):
        vals = lin_report.discrete_eigenvalues
        assert vals == sorted(vals)
        for f in lin_report.eigenvector_fields:
            assert l2_norm(f) == pytest.approx(1.0, rel=1e-10)

    def test_odd_subspace_spectrum(self, lin_op, grid_spec):
        reduced, _ = parity_restriction(lin_op, "odd")
        vals = np.linalg.eigvalsh(reduced)
        below = vals[vals < 0.9]
        assert below.size == 1
        assert abs(below[0]) <= 5e-3

    def test_continuum_cluster_flagged(self, lin_report):
        # the discretized continuum shows up as edge-ambiguous values near 1
        assert lin_report.edge_ambiguous
        assert min(lin_report.edge_ambiguous) > 0.9


class TestConstrainedRayleigh:
    def test_nonnegativity_on_double_orthogonal(self, lin_op, grid_spec):
        mins = constrained_min_rayleigh(lin_op, constraint_pair(grid_spec), "L2")
        assert -5e-3 <= mins <= 5e-3

    def test_squared_operator_gap(self, lin_op, grid_spec):
        sq = lin_op.matrix @ lin_op.matrix
        op2 = DenseOperator(0.5 * (sq + sq.T), grid_spec)
        qp = Field(grid_spec, profile_derivative(grid_spec.nodes))
        m = constrained_min_rayleigh(op2, [qp], "L2")
        assert m >= TBL.lambda_plus ** 2 - 5e-3

    def test_virial_coercivity_resolution_stable(self):
        vals = []
        for (n, length) in ((1024, 256.0), (2048, 512.0)):
            g = Grid(n, length)
            op = discretize(SymmetricOperator.virial(g))
            vals.append(constrained_min_rayleigh(op, constraint_pair(g), "Hhalf"))
        assert vals[0] > 0 and vals[1] > 0
        assert abs(vals[0] - vals[1]) <= 0.1 * max(vals)

    def test_monotone_in_constraints(self, grid_small):
        op = discretize(SymmetricOperator.linearized(grid_small))
        qp, yqp = constraint_pair(grid_small)
        one = constrained_min_rayleigh(op, [qp], "L2")
        two = constrained_min_rayleigh(op, [qp, yqp], "L2")
        assert two >= one - 1e-12

    def test_singular_constraints_rejected(self, grid_small):
        op = discretize(SymmetricOperator.linearized(grid_small))
        qp, _ = constraint_pair(grid_small)
        with pytest.raises(UsageError):
            constrained_min_rayleigh(op, [qp, 2.0 * qp], "L2")

    def test_unknown_norm_rejected(self, grid_small):
        op = discretize(SymmetricOperator.linearized(grid_small))
        qp, _ = constraint_pair(grid_small)
        with pytest.raises(UsageError):
            constrained_min_rayleigh(op, [qp], "Linf")

    def test_hhalf_gram_matches_norm(self, grid_small):
        rng = np.random.default_rng(8)
        f = random_band_limited(grid_small, rng)
        b = sobolev_gram_matrix(grid_small, 0.5)
        quad = grid_small.spacing * float(f.values @ (b @ f.values))
        assert quad == pytest.approx(sobolev_norm(f, 0.5) ** 2, rel=1e-10)


class TestAngleBound:
    def test_aligned_direction(self, grid_small):
        e, _ = eigenfunction_field(grid_small, "-")
        assert angle_lemma_bound(-1.0, 2.0, e, e) == pytest.approx(2.0, abs=1e-12)

    def test_orthogonal_direction(self, grid_small):
        e, _ = eigenfunction_field(grid_small, "-")
        qp = Field(grid_small, profile_derivative(grid_small.nodes))  # odd vs even
        assert angle_lemma_bound(-1.0, 2.0, e, qp) == pytest.approx(-1.0, abs=1e-10)

    def test_exact_cancellation_for_scale_direction(self, grid_wide):
        # with the negative mode as extremal direction and (yq)' as the
        # constraint, the bound collapses to exactly zero
        em, _ = eigenfunction_field(grid_wide, "-")
        yqp = Field(grid_wide, scaled_profile(grid_wide.nodes))
        got = angle_lemma_bound(TBL.lambda_minus, TBL.lambda_plus, em, yqp)
        assert abs(got) <= 1e-8

    def test_zero_norm_rejected(self, grid_small):
        e, _ = eigenfunction_field(grid_small, "-")
        with pytest.raises(UsageError):
            angle_lemma_bound(0.0, 1.0, e, Field.zeros(grid_small))

    def test_lower_bound_on_even_subspace(self):
        # 200 random even unit constraint directions f and random even
        # v orthogonal to f: the quadratic form respects the angle bound
        grid = Grid(1024, 256.0)
        op = discretize(SymmetricOperator.linearized(grid))
        em, _ = eigenfunction_field(grid, "-")
        n = grid.n_points
        refl = (n - np.arange(n)) % n
        rng = np.random.default_rng(97)
        dx = grid.spacing
        for _ in range(200):
            fv = rng.standard_normal(n)
            fv = fv + fv[refl]
            f = Field(grid, fv / (np.sqrt(dx) * np.linalg.norm(fv)))
            vv = rng.standard_normal(n)
            vv = vv + vv[refl]
            vv -= (dx * (vv @ f.values)) * f.values / (dx * (f.values @ f.values))
            v = Field(grid, vv)
            quot = (dx * (v.values @ (op.matrix @ v.values))) / (dx * (v.values @ v.values))
            bound = angle_lemma_bound(TBL.lambda_minus, TBL.lambda_plus, em, f)
            assert quot >= bound - 5e-3
