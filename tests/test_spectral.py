"""Matrix-free spectra, constrained coercivity, and the angle bound.

The reference for every ARPACK result is a dense oracle: the operator
applied to the identity columns at (1024, 256), solved with
`scipy.linalg`.
"""

import types

import numpy as np
import pytest
from scipy.linalg import eigh, null_space
from scipy.sparse.linalg import ArpackNoConvergence

from bolab import (ConfigurationError, DiagnosticError, Field, Grid,
                   SymmetricOperator, UsageError, angle_lemma_bound,
                   constrained_min_rayleigh, fractional_derivative, inner,
                   l2_norm, quadratic_form, spectrum_below_continuum)
from bolab import spectral
from bolab.grid import apply_multiplier
from bolab.soliton import (LAMBDA_MINUS, LAMBDA_PLUS, eigenfunction_field,
                           profile, profile_derivative, scaled_profile)

from conftest import dense_oracle, random_band_limited


def discretize(op):
    """The dense oracle of an operator with `.grid` and `.apply`: its matrix
    on the sample vectors, made exactly symmetric."""
    grid = op.grid
    m = dense_oracle(lambda v: op.apply(Field(grid, v)).values, grid.n_points)
    return 0.5 * (m + m.T)


def squared(op):
    """op applied twice: an operator with only `.grid` and `.apply`."""
    return types.SimpleNamespace(grid=op.grid, apply=lambda f: op.apply(op.apply(f)))


def dense_constrained_min(matrix, grid, constraints, norm):
    """The oracle minimum: a null-space basis of the constraints and a dense
    (generalized, for H^1/2) eigensolve of the reduced pencil."""
    z = null_space(np.stack([c.values for c in constraints], axis=1).T)
    a = z.T @ matrix @ z
    if norm == "L2":
        return float(eigh(a, eigvals_only=True, subset_by_index=[0, 0])[0])
    sym = (1.0 + grid.rfft_wavenumbers ** 2) ** 0.5
    gram = dense_oracle(lambda v: apply_multiplier(Field(grid, v), sym).values,
                        grid.n_points)
    b = z.T @ (0.5 * (gram + gram.T)) @ z
    return float(eigh(a, b, eigvals_only=True, subset_by_index=[0, 0])[0])


@pytest.fixture(scope="module")
def grid_spec():
    return Grid(2048, 512.0)


@pytest.fixture(scope="module")
def lin_op(grid_spec):
    return SymmetricOperator.linearized(grid_spec)


@pytest.fixture(scope="module")
def lin_report(lin_op):
    return spectrum_below_continuum(lin_op, threshold=1.0)


@pytest.fixture(scope="module")
def lin_dense_small(grid_small):
    return discretize(SymmetricOperator.linearized(grid_small))


def constraint_pair(grid):
    y = grid.nodes
    return (Field(grid, profile_derivative(y)), Field(grid, scaled_profile(y)))


OPERATORS = {"linearized-c1": SymmetricOperator.linearized,
             "linearized-c1.5": lambda g: SymmetricOperator.linearized(g, 1.5),
             "virial": SymmetricOperator.virial}


class TestDiscretize:
    """The dense oracle of the tests is the matrix of `apply`."""

    @pytest.mark.parametrize("make", OPERATORS.values(), ids=OPERATORS.keys())
    def test_matches_apply_on_random_fields(self, grid_small, make):
        op = make(grid_small)
        dense = discretize(op)
        rng = np.random.default_rng(3)
        for _ in range(4):
            f = random_band_limited(grid_small, rng)
            direct = op.apply(f)
            mat = Field(grid_small, dense @ f.values)
            assert l2_norm(direct - mat) <= 1e-10 * max(l2_norm(direct), 1.0)

    def test_annihilates_translation_mode(self, grid_small, lin_dense_small):
        # spacing 1/4 leaves ~2e-4 aliasing of the e^{-|xi|} spectral tail
        qp = profile_derivative(grid_small.nodes)
        out = lin_dense_small @ qp
        assert np.sqrt(grid_small.spacing) * np.linalg.norm(out) <= 5e-4

    def test_virial_matrix_identity(self, grid_small, lin_dense_small):
        # virial matrix = linearized matrix + |xi| part - diag((yq)' - q)
        vir = discretize(SymmetricOperator.virial(grid_small))
        dmat = dense_oracle(
            lambda v: fractional_derivative(Field(grid_small, v), 1.0).values,
            grid_small.n_points)
        extra = np.diag(scaled_profile(grid_small.nodes) - profile(grid_small.nodes))
        assert np.allclose(vir, lin_dense_small + dmat - extra, atol=1e-11)


class TestMatrixFree:
    @pytest.mark.parametrize("make", OPERATORS.values(), ids=OPERATORS.keys())
    def test_apply_is_symmetric(self, grid_small, make):
        # eigsh reads the operator as symmetric: <A f, g> = <f, A g> to
        # rounding on random (not band-limited) fields
        op = make(grid_small)
        rng = np.random.default_rng(5)
        for _ in range(4):
            f, g = (Field(grid_small, v) for v in rng.standard_normal((2, grid_small.n_points)))
            af, ag = op.apply(f), op.apply(g)
            scale = l2_norm(af) * l2_norm(g) + l2_norm(f) * l2_norm(ag)
            assert abs(inner(af, g) - inner(f, ag)) <= 1e-14 * scale

    def test_arpack_failure_carries_partial(self, grid_small, monkeypatch):
        def stalled(*args, **kwargs):
            raise ArpackNoConvergence("no convergence",
                                      eigenvalues=np.array([0.5, -1.25]),
                                      eigenvectors=np.zeros((grid_small.n_points, 2)))
        monkeypatch.setattr(spectral, "eigsh", stalled)
        op = SymmetricOperator.linearized(grid_small)
        with pytest.raises(DiagnosticError) as err:
            spectrum_below_continuum(op, threshold=1.0)
        assert err.value.partial == [-1.25, 0.5]
        with pytest.raises(DiagnosticError) as err:
            constrained_min_rayleigh(op, constraint_pair(grid_small), "L2")
        assert err.value.partial == -1.25


class TestSpectrum:
    def test_isolated_eigenvalues(self, lin_report):
        got = lin_report.discrete_eigenvalues
        assert len(got) == 3
        expected = [LAMBDA_MINUS, 0.0, LAMBDA_PLUS]
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

    def test_odd_subspace_spectrum(self, lin_report, grid_spec):
        # the eigenvector at 0 is odd, those at lambda_- and lambda_+ even:
        # below the continuum the odd subspace holds 0 alone
        n = grid_spec.n_points
        refl = (n - np.arange(n)) % n
        odd = []
        for val, f in zip(lin_report.discrete_eigenvalues, lin_report.eigenvector_fields):
            v = f.values
            leak_even = np.linalg.norm(v - v[refl])
            leak_odd = np.linalg.norm(v + v[refl])
            assert min(leak_even, leak_odd) <= 1e-8 * np.linalg.norm(v)
            if leak_odd < leak_even:
                odd.append(val)
        assert len(odd) == 1
        assert abs(odd[0]) <= 5e-3
        assert lin_report.discrete_eigenvalues.index(odd[0]) == 1

    def test_continuum_cluster_flagged(self, lin_report):
        # the discretized continuum shows up as edge-ambiguous values near 1
        assert lin_report.edge_ambiguous
        assert min(lin_report.edge_ambiguous) > 0.9

    def test_matches_dense_oracle(self, grid_small, lin_dense_small):
        report = spectrum_below_continuum(SymmetricOperator.linearized(grid_small),
                                          threshold=1.0)
        vals = np.linalg.eigvalsh(lin_dense_small)
        discrete = vals[vals < 0.9]
        ambiguous = vals[(vals >= 0.9) & (vals <= 1.1)]
        assert len(report.discrete_eigenvalues) == discrete.size == 3
        assert np.max(np.abs(np.array(report.discrete_eigenvalues) - discrete)) <= 1e-12
        assert len(report.edge_ambiguous) == ambiguous.size
        assert np.max(np.abs(np.array(report.edge_ambiguous) - ambiguous)) <= 1e-12
        assert report.warnings == []

    @pytest.mark.parametrize("margin", [float("nan"), -1.0, 0.0, float("inf")])
    def test_margin_must_be_finite_and_positive(self, monkeypatch, margin):
        # the margin is checked before the first ARPACK call
        def no_arpack(*args, **kwargs):
            raise AssertionError("ARPACK called")

        monkeypatch.setattr(spectral, "run_arpack", no_arpack)
        with pytest.raises(ConfigurationError, match="margin must be finite and positive"):
            spectrum_below_continuum(SymmetricOperator.linearized(Grid(256, 64.0)),
                                     threshold=1.0, margin=margin)

    def test_too_coarse_grid_rejected(self):
        # every eigenvalue lies below threshold + margin: k would reach n
        with pytest.raises(ConfigurationError):
            spectrum_below_continuum(SymmetricOperator.linearized(Grid(64, 16.0)),
                                     threshold=100.0)


class TestConstrainedRayleigh:
    def test_nonnegativity_on_double_orthogonal(self, lin_op, grid_spec):
        mins = constrained_min_rayleigh(lin_op, constraint_pair(grid_spec), "L2")
        assert -5e-3 <= mins <= 5e-3

    def test_squared_operator_gap(self, lin_op, grid_spec):
        qp = Field(grid_spec, profile_derivative(grid_spec.nodes))
        m = constrained_min_rayleigh(squared(lin_op), [qp], "L2")
        assert m >= LAMBDA_PLUS ** 2 - 5e-3

    def test_virial_coercivity_resolution_stable(self):
        vals = []
        for (n, length) in ((1024, 256.0), (2048, 512.0), (8192, 1024.0)):
            g = Grid(n, length)
            op = SymmetricOperator.virial(g)
            vals.append(constrained_min_rayleigh(op, constraint_pair(g), "Hhalf"))
        assert min(vals) > 0
        assert max(vals) - min(vals) <= 0.1 * max(vals)

    @pytest.mark.parametrize("case", ["L-both-L2", "virial-both-Hhalf", "L-qp-L2",
                                      "L-squared-qp-L2"])
    def test_matches_dense_oracle(self, grid_small, lin_dense_small, case):
        qp, yqp = constraint_pair(grid_small)
        lin = SymmetricOperator.linearized(grid_small)
        op, dense, constraints, norm = {
            "L-both-L2": (lin, lin_dense_small, [qp, yqp], "L2"),
            "virial-both-Hhalf": (SymmetricOperator.virial(grid_small), None,
                                  [qp, yqp], "Hhalf"),
            "L-qp-L2": (lin, lin_dense_small, [qp], "L2"),
            "L-squared-qp-L2": (squared(lin), lin_dense_small @ lin_dense_small,
                                [qp], "L2"),
        }[case]
        if dense is None:
            dense = discretize(op)
        want = dense_constrained_min(0.5 * (dense + dense.T), grid_small, constraints, norm)
        got = constrained_min_rayleigh(op, constraints, norm)
        assert abs(got - want) <= 1e-12

    def test_monotone_in_constraints(self, grid_small):
        op = SymmetricOperator.linearized(grid_small)
        qp, yqp = constraint_pair(grid_small)
        one = constrained_min_rayleigh(op, [qp], "L2")
        two = constrained_min_rayleigh(op, [qp, yqp], "L2")
        assert two >= one - 1e-12

    def test_singular_constraints_rejected(self, grid_small):
        op = SymmetricOperator.linearized(grid_small)
        qp, _ = constraint_pair(grid_small)
        with pytest.raises(UsageError):
            constrained_min_rayleigh(op, [qp, 2.0 * qp], "L2")

    def test_unknown_norm_rejected(self, grid_small):
        op = SymmetricOperator.linearized(grid_small)
        qp, _ = constraint_pair(grid_small)
        with pytest.raises(UsageError):
            constrained_min_rayleigh(op, [qp], "Linf")


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
        got = angle_lemma_bound(LAMBDA_MINUS, LAMBDA_PLUS, em, yqp)
        assert abs(got) <= 1e-8

    def test_zero_norm_rejected(self, grid_small):
        e, _ = eigenfunction_field(grid_small, "-")
        with pytest.raises(UsageError):
            angle_lemma_bound(0.0, 1.0, e, Field.zeros(grid_small))

    def test_lower_bound_on_even_subspace(self):
        # 200 random even unit constraint directions f and random even
        # v orthogonal to f: the quadratic form respects the angle bound
        grid = Grid(1024, 256.0)
        op = SymmetricOperator.linearized(grid)
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
            quot = quadratic_form(op, v) / inner(v, v)
            bound = angle_lemma_bound(LAMBDA_MINUS, LAMBDA_PLUS, em, f)
            assert quot >= bound - 5e-3
