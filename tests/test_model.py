import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lindblad_ep import (
    DomainError,
    HermiticityWarning,
    LabParams,
    ModelParams,
    check_density_matrix,
    devectorize,
    frame_unitary,
    hamiltonian_rotating,
    hamiltonian_rwa,
    initial_state,
    jump_operators,
    rotate_to_lab,
    vectorize,
)

finite = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False, allow_infinity=False)
# Components of flattened states: signed zeros, non-finite values and magnitudes
# from subnormal to 1e300.
component = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, math.nan, math.inf, -math.inf, 5e-324]),
    st.floats(min_value=-1e300, max_value=1e300, allow_nan=False),
)
nonneg = st.floats(min_value=0.0, max_value=5.0, allow_nan=False, allow_infinity=False)


class TestParams:
    def test_gamma_must_be_nonnegative(self):
        with pytest.raises(DomainError):
            ModelParams(1.0, 1.0, -0.1)
        with pytest.raises(DomainError):
            LabParams(1.0, 1.0, 1.0, -0.1)

    def test_values_must_be_finite(self):
        with pytest.raises(DomainError):
            ModelParams(float("nan"), 1.0, 0.0)
        with pytest.raises(DomainError):
            ModelParams(1.0, float("inf"), 0.0)

    def test_scaled_coordinates(self):
        assert ModelParams(2.0, 4.0, 6.0).scaled() == (2.0, 3.0)
        with pytest.raises(DomainError):
            ModelParams(0.0, 1.0, 1.0).scaled()

    def test_detuning_is_exact_difference(self):
        lab = LabParams(Delta=2.0, omega=0.7, d=1.0, gamma=0.2)
        assert lab.detuning == 2.0 - 0.7
        rot = lab.to_rotating()
        assert rot.delta == 2.0 - 0.7
        assert rot.d == 1.0 and rot.gamma == 0.2

    def test_params_are_immutable(self):
        params = ModelParams(1.0, 1.0, 1.0)
        with pytest.raises(AttributeError):
            params.delta = 2.0


class TestHamiltonians:
    def test_rwa_at_t0(self):
        h = hamiltonian_rwa(LabParams(1.0, 0.0, 2.0, 0.0), 0.0)
        np.testing.assert_allclose(h, [[1, 1], [1, 0]], atol=1e-15)

    def test_rwa_at_half_period(self):
        h = hamiltonian_rwa(LabParams(1.0, math.pi, 2.0, 0.0), 1.0)
        np.testing.assert_allclose(h, [[1, -1], [-1, 0]], atol=1e-15)

    @settings(max_examples=50, deadline=None)
    @given(finite, finite, finite, finite)
    def test_rwa_is_hermitian(self, Delta, omega, d, t):
        h = hamiltonian_rwa(LabParams(Delta, omega, d, 0.0), t)
        assert np.max(np.abs(h - h.conj().T)) < 1e-14

    def test_rotating_no_drive_is_diagonal(self):
        h = hamiltonian_rotating(ModelParams(1.0, 0.0, 3.0))
        np.testing.assert_array_equal(h, np.diag([1.0, 0.0]).astype(complex))

    def test_rotating_direct_substitution(self):
        h = hamiltonian_rotating(ModelParams(1.0, 1.0, 0.0))
        np.testing.assert_array_equal(h, np.array([[1.0, 0.5], [0.5, 0.0]], dtype=complex))

    @settings(max_examples=30, deadline=None)
    @given(finite, finite, finite)
    def test_rotating_equals_rwa_minus_frame_shift(self, delta, d, omega):
        rot = hamiltonian_rotating(ModelParams(delta, d, 0.0))
        lab = hamiltonian_rwa(LabParams(delta + omega, omega, d, 0.0), 0.0)
        np.testing.assert_allclose(rot, lab - np.diag([omega, 0.0]), atol=1e-12)


class TestJumpOperators:
    def test_relaxation_lowers_excited(self):
        c, _ = jump_operators()
        np.testing.assert_array_equal(c @ np.array([1.0, 0.0]), np.array([0.0, 1.0]))

    def test_number_operator(self):
        c, cdag = jump_operators()
        np.testing.assert_array_equal(cdag @ c, np.diag([1.0, 0.0]).astype(complex))

    def test_adjoint_pair(self):
        c, cdag = jump_operators()
        np.testing.assert_array_equal(cdag.conj().T, c)


class TestFrameUnitary:
    def test_identity_at_t0(self):
        np.testing.assert_array_equal(frame_unitary(3.7, 0.0), np.eye(2, dtype=complex))

    def test_half_period(self):
        np.testing.assert_allclose(frame_unitary(math.pi, 1.0), np.diag([-1.0, 1.0]), atol=1e-15)

    @settings(max_examples=50, deadline=None)
    @given(finite, finite)
    def test_unitarity(self, omega, t):
        u = frame_unitary(omega, t)
        assert np.max(np.abs(u @ u.conj().T - np.eye(2))) < 1e-14


class TestRotateToLab:
    @settings(max_examples=30, deadline=None)
    @given(finite, finite, st.floats(min_value=0.0, max_value=1.0), finite, finite)
    def test_diagonal_states_invariant(self, omega, t, p, re, im):
        rho = np.diag([p, 1.0 - p]).astype(complex)
        np.testing.assert_allclose(rotate_to_lab(rho, omega, t), rho, atol=1e-14)

    def test_stack_of_times_matches_per_time(self):
        rho = initial_state("coherent")
        times = np.array([0.0, 0.3, 1.7])
        stacked = rotate_to_lab(rho, 2.0, times)
        assert stacked.shape == (3, 2, 2)
        for k, t in enumerate(times):
            np.testing.assert_allclose(stacked[k], rotate_to_lab(rho, 2.0, t), atol=1e-15)
        per_state = rotate_to_lab(np.stack([rho, rho.conj(), rho]), 2.0, times)
        np.testing.assert_allclose(per_state[1], rotate_to_lab(rho.conj(), 2.0, 0.3), atol=1e-15)

    def test_t0_is_identity_map(self):
        rho = initial_state("coherent")
        np.testing.assert_array_equal(rotate_to_lab(rho, 2.0, 0.0), rho)

    @settings(max_examples=30, deadline=None)
    @given(finite, finite, finite, finite)
    def test_coherence_magnitude_and_spectrum_invariant(self, omega, t, re, im):
        rho = np.array([[0.6, re + 1j * im], [re - 1j * im, 0.4]])
        out = rotate_to_lab(rho, omega, t)
        assert abs(abs(out[0, 1]) - abs(rho[0, 1])) < 1e-13
        assert abs(complex(np.trace(out)) - complex(np.trace(rho))) < 1e-13
        np.testing.assert_allclose(
            np.sort(np.linalg.eigvalsh(out)), np.sort(np.linalg.eigvalsh(rho)), atol=1e-13
        )

    @pytest.mark.parametrize("shape", [(3, 3), (2,), (4, 2, 3)])
    def test_refuses_all_but_2x2_states(self, shape):
        with pytest.raises(DomainError, match="^expected a 2x2 matrix or a stack of them"):
            rotate_to_lab(np.ones(shape), 1.0, 0.5)


def _elementwise(rho, omega, t):
    """The conjugation by diag(e, 1), e = exp(-i omega t), entry by entry on full-shape arrays.

    The arithmetic is numpy's elementwise complex product, as in rotate_to_lab,
    so the bits agree on any host; a matrix product may round differently.
    """
    e = np.exp(-1j * omega * np.asarray(t, dtype=float))
    rho = np.asarray(rho, dtype=complex)
    shape = np.broadcast_shapes(np.shape(e), rho.shape[:-2])
    e = np.broadcast_to(e, shape)
    rho = np.broadcast_to(rho, shape + (2, 2))
    top = [e * rho[..., 0, 0] * np.conj(e), e * rho[..., 0, 1]]
    bottom = [rho[..., 1, 0] * np.conj(e), rho[..., 1, 1]]
    return np.stack([np.stack(top, axis=-1), np.stack(bottom, axis=-1)], axis=-2)


def _frame_cases():
    """(rho, t) pairs over one state or a stack and a scalar or an array of times."""
    rng = np.random.default_rng(11)
    stack = rng.normal(size=(4, 2, 2)) + 1j * rng.normal(size=(4, 2, 2))
    stack[1] = [[-0.0, complex(-0.0, -0.0)], [complex(0.0, -0.0), complex(-0.0, 0.0)]]
    times = np.array([0.0, 0.4, 1.7, 12.5])
    return {
        "scalar t, one state": (stack[0], 0.9),
        "scalar t, stack": (stack, 0.9),
        "array t, one state": (stack[2], times),
        "array t, stack": (stack, times),
        "signed zeros": (stack[1], times),
    }


_FRAME_CASES = _frame_cases()


class TestRotateToLabElementwise:
    """rotate_to_lab is the entrywise conjugation by the diagonal frame unitary."""

    OMEGA = 2.3

    @pytest.mark.parametrize("case", list(_FRAME_CASES))
    def test_equals_the_elementwise_definition(self, case):
        rho, t = _FRAME_CASES[case]
        before = rho.copy()
        out = rotate_to_lab(rho, self.OMEGA, t)
        ref = _elementwise(rho, self.OMEGA, t)
        assert out.shape == ref.shape
        np.testing.assert_array_equal(out.view(np.int64), ref.view(np.int64))
        # within roundoff of the matrix product u rho u^H
        u = frame_unitary(self.OMEGA, t)
        np.testing.assert_allclose(out, u @ rho @ np.swapaxes(u.conj(), -1, -2), rtol=1e-15)
        # the input is untouched and the output a fresh writable array
        np.testing.assert_array_equal(rho.view(np.int64), before.view(np.int64))
        assert out.flags.writeable and not np.shares_memory(out, rho)

    def test_non_finite_entry_stays_in_place(self):
        rho = np.array([[0.5, 0.25j], [-0.25j, math.inf]])
        out = rotate_to_lab(rho, self.OMEGA, np.array([0.0, 0.4, 1.7]))
        assert np.isfinite(out[:, 0, :]).all() and np.isfinite(out[:, 1, 0]).all()
        assert np.isinf(out[:, 1, 1]).all()


class TestVectorization:
    def test_ordering_on_diagonal_state(self):
        psi = vectorize(np.diag([0.3, 0.7]))
        np.testing.assert_array_equal(psi, np.array([0.0, 0.0, 0.3, 0.7], dtype=complex))

    def test_hermiticity_pairing_of_components(self):
        rho = np.array([[0.5, 0.1 + 0.2j], [0.1 - 0.2j, 0.5]])
        psi = vectorize(rho)
        assert psi[0] == 0.1 + 0.2j
        assert psi[1] == 0.1 - 0.2j

    @settings(max_examples=60, deadline=None)
    @given(finite, finite, finite, finite)
    def test_round_trip_is_bitwise(self, p, re, im, q):
        rho = np.array([[p, re + 1j * im], [re - 1j * im, q]])
        back = devectorize(vectorize(rho))
        assert (back == rho).all()

    @pytest.mark.parametrize("shape", [(3, 3), (5, 2, 2), (4,)])
    def test_vectorize_refuses_all_but_one_2x2(self, shape):
        with pytest.raises(DomainError) as info:
            vectorize(np.ones(shape))
        assert str(info.value) == f"expected a 2x2 matrix, got shape {shape}"

    def test_devectorize_flags_broken_pairing(self):
        with pytest.warns(HermiticityWarning):
            devectorize(np.array([1.0, 0.5, 0.3, 0.7], dtype=complex))

    def test_devectorize_silent_on_paired_input(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            devectorize(np.array([0.1 + 0.2j, 0.1 - 0.2j, 0.3, 0.7]))

    def test_devectorize_shape_check(self):
        with pytest.raises(DomainError):
            devectorize(np.zeros(3, dtype=complex))

    def test_devectorize_stack_matches_per_vector(self):
        psi = np.array([[0.1 + 0.2j, 0.1 - 0.2j, 0.3, 0.7], [0.0, 0.0, 1.0, 0.0]])
        stacked = devectorize(psi)
        assert stacked.shape == (2, 2, 2)
        for k in range(2):
            assert (stacked[k] == devectorize(psi[k])).all()

    def test_devectorize_stack_flags_one_broken_vector(self):
        psi = np.array([[0.0, 0.0, 1.0, 0.0], [1.0, 0.5, 0.3, 0.7]], dtype=complex)
        with pytest.warns(HermiticityWarning):
            devectorize(psi)

    # One vector is handled as Python numbers and a stack by numpy: the one-row
    # stack must give the same bytes and the same HermiticityWarning, or none.
    @settings(max_examples=300, deadline=None)
    @given(st.lists(component, min_size=8, max_size=8), st.sampled_from([0.0, 1e-12, 1e-6, 1.0]))
    def test_one_vector_equals_the_one_row_stack(self, parts, broken):
        psi = np.array(parts).view(complex)
        psi[1] = np.conj(psi[0]) + broken  # paired, or broken by a drawn amount
        with warnings.catch_warnings(record=True) as one:
            warnings.simplefilter("always")
            got = devectorize(psi)
        with warnings.catch_warnings(record=True) as row, np.errstate(all="ignore"):
            warnings.simplefilter("always")
            want = devectorize(psi[None])[0]
        assert got.tobytes() == want.tobytes()
        assert [str(w.message) for w in one if w.category is HermiticityWarning] == [
            str(w.message) for w in row if w.category is HermiticityWarning]


class TestStates:
    @pytest.mark.parametrize("name", ["excited", "ground", "mixed", "coherent"])
    def test_presets_are_physical(self, name):
        check_density_matrix(initial_state(name), tol=1e-12)

    def test_excited_population(self):
        assert initial_state("excited")[0, 0] == 1.0
        assert initial_state("ground")[1, 1] == 1.0

    def test_unknown_preset_rejected(self):
        with pytest.raises(DomainError):
            initial_state("upside-down")

    def test_check_rejects_trace_violation(self):
        with pytest.raises(DomainError):
            check_density_matrix(np.diag([0.7, 0.7]).astype(complex))

    def test_check_rejects_negative_state(self):
        with pytest.raises(DomainError):
            check_density_matrix(np.diag([1.5, -0.5]).astype(complex))

    def test_check_rejects_non_hermitian(self):
        with pytest.raises(DomainError):
            check_density_matrix(np.array([[0.5, 0.4], [0.1, 0.5]], dtype=complex))

    # The check takes the smaller eigenvalue in closed form; it must decide as
    # LAPACK's eigenvalue does wherever that is not within roundoff of -tol.
    # The coherence is drawn near the pure-state bound |beta|^2 = a (1 - a) too.
    @settings(max_examples=400, deadline=None)
    @given(st.floats(-2.0, 3.0), st.floats(0.0, 2 * math.pi),
           st.one_of(st.floats(0.0, 3.0), st.floats(1 - 1e-8, 1 + 1e-8)), st.floats(0.0, 1.0),
           st.sampled_from([1e-9, 1e-6, 0.0]))
    def test_check_decides_as_eigvalsh(self, a, phi, ratio, raw, tol):
        bound = math.sqrt(max(a * (1.0 - a), 0.0))
        beta = (ratio * bound if bound else raw) * complex(math.cos(phi), math.sin(phi))
        rho = np.array([[a, beta], [beta.conjugate(), 1.0 - a]])
        assume(abs(np.trace(rho) - 1.0) <= tol)
        lowest = np.linalg.eigvalsh(rho).min()
        assume(abs(lowest + tol) > 1e-12 * np.abs(rho).max())
        if lowest < -tol:
            with pytest.raises(DomainError, match="negative eigenvalue"):
                check_density_matrix(rho, tol=tol)
        else:
            check_density_matrix(rho, tol=tol)
