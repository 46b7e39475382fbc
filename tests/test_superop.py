import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lindblad_ep import (
    DomainError,
    ModelParams,
    build_lindblad,
    devectorize,
    equilibrium_state,
    hamiltonian_rotating,
    lindblad_rhs,
    null_eigenvectors,
    vectorize,
)
from lindblad_ep import superop

finite = st.floats(min_value=-4.0, max_value=4.0, allow_nan=False, allow_infinity=False)
coupling = st.floats(min_value=0.0, max_value=10.0, allow_nan=False, allow_infinity=False)

params_st = st.builds(ModelParams, delta=finite, d=finite, gamma=coupling)


def random_density(rng) -> np.ndarray:
    """A generic Hermitian unit-trace positive 2x2 matrix."""
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def component_rhs(params: ModelParams, rho: np.ndarray) -> np.ndarray:
    """Independent oracle: i * d/dt of each flattened component, written out
    term by term from the componentwise equations of motion."""
    delta, d, gamma = params.delta, params.d, params.gamma
    eg, ge, ee, gg = rho[0, 1], rho[1, 0], rho[0, 0], rho[1, 1]
    i_eg = delta * eg - 0.5 * d * (ee - gg) - 0.5j * gamma * eg
    i_ge = -delta * ge + 0.5 * d * (ee - gg) - 0.5j * gamma * ge
    i_ee = -0.5 * d * (eg - ge) - 1j * gamma * ee
    i_gg = 0.5 * d * (eg - ge) + 1j * gamma * ee
    return np.array([i_eg, i_ge, i_ee, i_gg])


class TestBuildLindblad:
    def test_decoupled_point_is_diagonal(self):
        L = build_lindblad(ModelParams(1.0, 0.0, 0.0))
        np.testing.assert_array_equal(L, np.diag([1.0, -1.0, 0.0, 0.0]).astype(complex))

    def test_direct_substitution_rows(self):
        L = build_lindblad(ModelParams(1.0, 1.0, 2.0))
        np.testing.assert_array_equal(L[0], np.array([1.0 - 1.0j, 0.0, -0.5, 0.5]))
        np.testing.assert_array_equal(L[2], np.array([-0.5, 0.5, -2.0j, 0.0]))
        np.testing.assert_array_equal(L[1], np.array([0.0, -1.0 - 1.0j, 0.5, -0.5]))
        np.testing.assert_array_equal(L[3], np.array([0.5, -0.5, 2.0j, 0.0]))

    def test_action_matches_componentwise_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            params = ModelParams(rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(0, 6))
            rho = random_density(rng)
            lhs = build_lindblad(params) @ vectorize(rho)
            np.testing.assert_allclose(lhs, component_rhs(params, rho), atol=1e-13)

    @settings(max_examples=60, deadline=None)
    @given(params_st)
    def test_population_rows_cancel_exactly(self, params):
        L = build_lindblad(params)
        assert np.all(L[2] + L[3] == 0.0)

    @settings(max_examples=60, deadline=None)
    @given(params_st)
    def test_mirror_symmetry_is_exact(self, params):
        L = build_lindblad(params)
        perm = [1, 0, 2, 3]
        mirrored = (-np.conj(L))[perm][:, perm]
        assert np.all(mirrored == L)


class TestLindbladRHS:
    def test_zero_for_commuting_state_without_decay(self):
        h = np.array([[1.0, 0.3], [0.3, -0.5]], dtype=complex)
        vals, vecs = np.linalg.eigh(h)
        rho = vecs @ np.diag([0.25, 0.75]).astype(complex) @ vecs.conj().T
        out = lindblad_rhs(h, 0.0, rho)
        assert np.max(np.abs(out)) < 1e-14

    def test_consistency_with_superoperator(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            params = ModelParams(rng.uniform(-2, 2), rng.uniform(-3, 3), rng.uniform(0, 5))
            rho = random_density(rng)
            direct = lindblad_rhs(hamiltonian_rotating(params), params.gamma, rho)
            via_matrix = devectorize(-1j * (build_lindblad(params) @ vectorize(rho)))
            np.testing.assert_allclose(direct, via_matrix, atol=1e-13)

    def test_output_is_traceless(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            h = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            h = h + h.conj().T
            out = lindblad_rhs(h, rng.uniform(0, 4), random_density(rng))
            assert abs(complex(np.trace(out))) < 1e-14

    def test_negative_gamma_rejected(self):
        with pytest.raises(DomainError):
            lindblad_rhs(np.eye(2, dtype=complex), -1.0, np.eye(2, dtype=complex) / 2)

    def test_number_operator_is_c_dagger_c_bit_for_bit(self):
        # Written as a literal, so that no complex matrix product runs at import.
        assert superop._N.dtype == complex
        assert np.array_equal(superop._N.view(np.uint64),
                              (superop._CDAG @ superop._C).view(np.uint64))


class TestNullMode:
    @pytest.mark.parametrize("scale", [6.07093058756368e-158, 1e-300, 1e200])
    def test_scale_free(self, scale):
        # the stationary state depends only on the parameter ratios
        for delta, d, gamma in [(0.0, 0.0, 1.0), (1.0, 2.0, 1.0), (-0.5, 3.0, 0.0)]:
            left, right = null_eigenvectors(ModelParams(delta * scale, d * scale, gamma * scale))
            _, unit = null_eigenvectors(ModelParams(delta, d, gamma))
            assert abs(left @ right - 1.0) < 1e-14
            np.testing.assert_allclose(right, unit, rtol=0, atol=1e-15)

    def test_power_of_two_scaling_is_bitwise(self):
        _, right = null_eigenvectors(ModelParams(0.3, 1.7, 2.9))
        _, scaled = null_eigenvectors(ModelParams(0.3 * 1024, 1.7 * 1024, 2.9 * 1024))
        assert (right == scaled).all()

    def test_pure_ground_state_without_drive(self):
        _, right = null_eigenvectors(ModelParams(1.0, 0.0, 1.0))
        np.testing.assert_allclose(right, np.array([0, 0, 0, 1], dtype=complex), atol=1e-15)

    @settings(max_examples=60, deadline=None)
    @given(params_st)
    # Nonzero points whose squares underflow to zero: only the origin is skipped.
    @example(ModelParams(1e-170, 0.0, 0.0))
    @example(ModelParams(0.0, 5e-324, 0.0))
    def test_left_right_normalisation(self, params):
        if not (params.delta or params.d or params.gamma):
            return
        left, right = null_eigenvectors(params)
        assert abs(left @ right - 1.0) < 1e-14

    def test_null_residuals(self):
        params = ModelParams(1.0, 2.0, 0.7)
        L = build_lindblad(params)
        left, right = null_eigenvectors(params)
        scale = np.max(np.abs(L))
        assert np.max(np.abs(L @ right)) < 1e-12 * scale
        assert np.max(np.abs(left @ L)) < 1e-12 * scale

    def test_degenerate_origin_rejected(self):
        with pytest.raises(DomainError):
            null_eigenvectors(ModelParams(0.0, 0.0, 0.0))


class TestEquilibrium:
    def test_relaxes_to_ground_without_drive(self):
        rho = equilibrium_state(ModelParams(1.0, 0.0, 0.5))
        np.testing.assert_allclose(rho, np.diag([0.0, 1.0]), atol=1e-15)

    def test_closed_form_values(self):
        rho = equilibrium_state(ModelParams(1.0, 2.0, 1.0))
        assert abs(rho[0, 0] - 4.0 / 13.0) < 1e-15
        assert abs(rho[0, 1] - (-(4.0 + 2.0j) / 13.0)) < 1e-15
        assert abs(rho[1, 0] - (-(4.0 - 2.0j) / 13.0)) < 1e-15

    def test_matches_numeric_null_space(self):
        # cross-check: solve L psi = 0 with an svd, normalise the trace
        params = ModelParams(1.0, 2.0, 1.0)
        L = build_lindblad(params)
        _, _, vh = np.linalg.svd(L)
        psi = vh[-1].conj()
        psi = psi / (psi[2] + psi[3])
        np.testing.assert_allclose(devectorize(psi), equilibrium_state(params), atol=1e-12)

    def test_same_object_as_null_right_vector(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            params = ModelParams(rng.uniform(-2, 2), rng.uniform(-3, 3), rng.uniform(0, 5))
            if not (params.delta or params.d or params.gamma):
                continue
            _, right = null_eigenvectors(params)
            np.testing.assert_array_equal(equilibrium_state(params), devectorize(right))

    @settings(max_examples=60, deadline=None)
    @given(params_st)
    # Nonzero points whose squares underflow to zero: only the origin is skipped.
    @example(ModelParams(1e-170, 0.0, 0.0))
    @example(ModelParams(0.0, 5e-324, 0.0))
    def test_physicality(self, params):
        if not (params.delta or params.d or params.gamma):
            return
        rho = equilibrium_state(params)
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-14
        assert abs(complex(np.trace(rho)) - 1.0) < 1e-14
        assert np.linalg.eigvalsh(rho).min() > -1e-12

    def test_is_stationary_under_rhs(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            params = ModelParams(rng.uniform(-2, 2), rng.uniform(-3, 3), rng.uniform(0, 5))
            if not (params.delta or params.d or params.gamma):
                continue
            out = lindblad_rhs(
                hamiltonian_rotating(params), params.gamma, equilibrium_state(params)
            )
            assert np.max(np.abs(out)) < 1e-12
