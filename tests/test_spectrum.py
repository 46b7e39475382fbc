import math
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from lindblad_ep import spectrum
from lindblad_ep import (
    DomainError,
    ModelParams,
    NearDegenerateError,
    build_lindblad,
    cardano_params,
    characteristic_residual,
    classify,
    eigenvalues_closed_form,
    eigenvalues_numeric,
    eigenvectors_closed_form,
    full_spectrum,
    initial_state,
    match_distance,
    spectral_evolve,
)
from lindblad_ep.cli import main
from lindblad_ep.spectrum import _adjugate

finite = st.floats(min_value=-4.0, max_value=4.0, allow_nan=False, allow_infinity=False)
coupling = st.floats(min_value=0.0, max_value=10.0, allow_nan=False, allow_infinity=False)
params_st = st.builds(ModelParams, delta=finite, d=finite, gamma=coupling)

D_EP3 = 2.0 * math.sqrt(2.0)
G_EP3 = 6.0 * math.sqrt(3.0)


def min_gap(zs) -> float:
    return min(abs(zs[i] - zs[j]) for i in range(len(zs)) for j in range(i + 1, len(zs)))


class TestCardano:
    def test_direct_evaluation(self):
        cp = cardano_params(ModelParams(1.0, 1.0, 0.0))
        assert abs(cp.p - 2.0 / 3.0) < 1e-15
        assert cp.q == 0.0
        assert abs(cp.disc - 8.0 / 27.0) < 1e-15

    def test_triple_point_collapses(self):
        cp = cardano_params(ModelParams(1.0, D_EP3, G_EP3))
        scale = 1.0 + D_EP3**2 + G_EP3**2
        assert abs(cp.p) < 1e-12 * scale
        assert abs(cp.q) < 1e-12 * scale
        assert abs(cp.disc) < 1e-12

    @settings(max_examples=80, deadline=None)
    @given(params_st)
    def test_product_constraint(self, params):
        cp = cardano_params(params)
        assert abs(cp.u * cp.v + cp.p) < 1e-12 * max(1.0, abs(cp.p))

    @settings(max_examples=80, deadline=None)
    @given(params_st)
    def test_radical_identities(self, params):
        cp = cardano_params(params)
        if cp.disc >= 0:
            s = math.sqrt(cp.disc)
        else:
            s = 1j * math.sqrt(-cp.disc)
        # relative check only where the radicand itself is well conditioned
        assume(abs(cp.q + s) > 1e-6 * (abs(cp.q) + abs(s)))
        assume(abs(cp.q - s) > 1e-6 * (abs(cp.q) + abs(s)))
        assert abs(cp.u**3 - (cp.q + s)) < 1e-12 * max(1.0, abs(cp.q + s))
        assert abs(cp.v**3 - (cp.q - s)) < 1e-12 * max(1.0, abs(cp.q - s))

    @pytest.mark.parametrize("d_tilde", [1.0, 3.0, 7.3])
    def test_disc_is_quadratic_in_gamma_squared(self, d_tilde):
        # three samples pin a quadratic; a fourth must then be predicted exactly
        xs = np.array([1.0, 7.0, 19.0, 133.0])
        ys = np.array(
            [cardano_params(ModelParams(1.0, d_tilde, math.sqrt(x))).disc for x in xs]
        )
        coeffs = np.polyfit(xs[:3], ys[:3], 2)
        predicted = np.polyval(coeffs, xs[3])
        assert abs(predicted - ys[3]) < 1e-9 * max(1.0, abs(ys[3]))


class TestClosedFormEigenvalues:
    def test_gamma_zero_example(self):
        zs = eigenvalues_closed_form(ModelParams(1.0, 1.0, 0.0)).eigenvalues
        expected = np.array([0.0, 0.0, math.sqrt(2.0), -math.sqrt(2.0)], dtype=complex)
        assert match_distance(zs, expected) < 1e-12

    def test_triple_point_value(self):
        zs = eigenvalues_closed_form(ModelParams(1.0, D_EP3, G_EP3)).eigenvalues
        for z in zs[1:]:
            assert abs(z - (-4j * math.sqrt(3.0))) < 1e-12

    def test_null_eigenvalue_is_exact(self):
        zs = eigenvalues_closed_form(ModelParams(0.3, -1.7, 2.9)).eigenvalues
        assert zs[0] == 0.0

    def test_specific_point_against_oracle(self):
        params = ModelParams(1.0, 2.0, 1.0)
        zs = eigenvalues_closed_form(params).eigenvalues
        ref = eigenvalues_numeric(build_lindblad(params))
        assert match_distance(zs, ref) < 1e-10

    @settings(max_examples=100, deadline=None)
    @given(params_st)
    def test_matches_numeric_oracle(self, params):
        # the tight bound applies off the coalescence set; on it the split is
        # square-root-of-roundoff limited for any method (see the next test)
        from lindblad_ep import scaled_discriminant

        assume(abs(scaled_discriminant(params)) > 1e-14)
        L = build_lindblad(params)
        zs = eigenvalues_closed_form(params).eigenvalues
        ref = eigenvalues_numeric(L)
        assert match_distance(zs, ref) < 1e-10 * max(1.0, np.max(np.abs(L)))

    def test_degenerate_line_agreement_is_sqrt_eps_limited(self):
        # delta = d = 0 sits exactly on the coalescence set for every coupling:
        # the pair eigenvalue -i*gamma/2 is doubly degenerate (diagonalizably),
        # and agreement there is limited by the square root of roundoff
        for gamma in (0.5, 1.0, 4.0):
            params = ModelParams(0.0, 0.0, gamma)
            L = build_lindblad(params)
            zs = eigenvalues_closed_form(params).eigenvalues
            expected = np.array(
                [0.0, -1j * gamma, -0.5j * gamma, -0.5j * gamma], dtype=complex
            )
            assert match_distance(zs, expected) < 1e-8 * max(1.0, gamma)
            assert match_distance(eigenvalues_numeric(L), expected) < 1e-10

    @settings(max_examples=100, deadline=None)
    @given(params_st)
    def test_char_poly_residuals(self, params):
        L = build_lindblad(params)
        tol = 1e-9 * max(1.0, np.max(np.abs(L))) ** 4
        for z in eigenvalues_closed_form(params).eigenvalues:
            assert characteristic_residual(L, z) < tol

    @settings(max_examples=100, deadline=None)
    @given(params_st)
    def test_mirror_symmetry_of_multiset(self, params):
        zs = eigenvalues_closed_form(params).eigenvalues
        scale = max(1.0, float(np.max(np.abs(zs))))
        assert match_distance(zs, -np.conj(zs)) < 1e-10 * scale

    @settings(max_examples=100, deadline=None)
    @given(params_st)
    def test_sum_rule(self, params):
        zs = eigenvalues_closed_form(params).eigenvalues
        assert abs(zs[1] + zs[2] + zs[3] + 2j * params.gamma) < 1e-10 * max(1.0, params.gamma)

    @settings(max_examples=100, deadline=None)
    @given(params_st)
    def test_decaying_modes_never_grow(self, params):
        zs = eigenvalues_closed_form(params).eigenvalues
        scale = max(1.0, float(np.max(np.abs(zs))))
        for z in zs[1:]:
            assert z.imag <= 1e-12 * scale

    @settings(max_examples=100, deadline=None)
    @given(params_st)
    def test_configuration_follows_discriminant_sign(self, params):
        cp = cardano_params(params)
        zs = eigenvalues_closed_form(params).eigenvalues
        scale = max(1.0, float(np.max(np.abs(zs))))
        if cp.disc > 1e-8 * max(1.0, params.energy_scale()) ** 3:
            assert abs(zs[1].real) < 1e-10 * scale
            assert abs(zs[2] + np.conj(zs[3])) < 1e-10 * scale
        elif cp.disc < -1e-8 * max(1.0, params.energy_scale()) ** 3:
            for z in zs[1:]:
                assert abs(z.real) < 1e-10 * scale


class TestEigenvectors:
    def test_biorthogonality_at_reference_point(self):
        spec = full_spectrum(ModelParams(1.0, 2.0, 1.0))
        defect = np.max(np.abs(spec.left @ spec.right.T - np.eye(4)))
        assert defect < 1e-8

    def test_residuals_away_from_curves(self):
        rng = np.random.default_rng(2024)
        checked = 0
        while checked < 100:
            params = ModelParams(
                rng.uniform(0.3, 2.0),
                rng.uniform(0.3, 4.0) * rng.choice([-1.0, 1.0]),
                rng.uniform(0.1, 10.0),
            )
            zs = eigenvalues_closed_form(params).eigenvalues
            if min_gap(zs) < 1e-2 * max(1.0, float(np.max(np.abs(zs)))):
                continue
            checked += 1
            spec = full_spectrum(params)
            L = build_lindblad(params)
            assert spec.residuals.max() < 1e-9 * max(1.0, np.max(np.abs(L)))
            defect = np.max(np.abs(spec.left @ spec.right.T - np.eye(4)))
            assert defect < 1e-8

    def test_triple_point_refused(self):
        params = ModelParams(1.0, D_EP3, G_EP3)
        z = eigenvalues_closed_form(params).eigenvalues[1]
        with pytest.raises(NearDegenerateError):
            eigenvectors_closed_form(params, 1, z)

    def test_gamma_zero_null_pair_refused(self):
        # without dissipation the z1 = 0 mode collides with the conserved one
        params = ModelParams(1.0, 1.0, 0.0)
        with pytest.raises(NearDegenerateError):
            eigenvectors_closed_form(params, 1, 0.0)

    def test_nu_is_validated(self):
        params = ModelParams(1.0, 2.0, 1.0)
        with pytest.raises(DomainError):
            eigenvectors_closed_form(params, 0, 0.0)

    def test_left_vectors_have_unit_norm(self):
        # so that the norm of each right vector is the mode's condition number
        spec = full_spectrum(ModelParams(0.7, 1.9, 2.3))
        for nu in (1, 2, 3):
            assert abs(np.linalg.norm(spec.left[nu]) - 1.0) < 1e-15
            assert np.linalg.norm(spec.right[nu]) > 1.0 - 1e-15

    def test_close_uncoalesced_pair_has_small_residuals(self):
        # the coherence modes +-1e-6 - i lie 2e-6 apart; their residuals stay at
        # the closed form's own eigenvalue error
        spec = full_spectrum(ModelParams(1e-6, 0.0, 2.0))
        assert spec.residuals.max() < 1e-11

    def test_left_right_normalisation(self):
        params = ModelParams(0.7, 1.9, 2.3)
        zs = eigenvalues_closed_form(params).eigenvalues
        for nu in (1, 2, 3):
            left, right = eigenvectors_closed_form(params, nu, zs[nu])
            assert abs(left @ right - 1.0) < 1e-10


class TestNumericEigensolver:
    def test_diagonal_example(self):
        L = np.diag([1.0, -1.0, 0.0, 0.0]).astype(complex)
        zs = eigenvalues_numeric(L)
        assert match_distance(zs, np.array([1.0, -1.0, 0.0, 0.0], dtype=complex)) < 1e-12

    def test_null_root_is_first_and_exact(self):
        zs = eigenvalues_numeric(build_lindblad(ModelParams(1.0, 2.0, 3.0)))
        assert zs[0] == 0.0

    def test_triple_point_collapses_cleanly(self):
        zs = eigenvalues_numeric(build_lindblad(ModelParams(1.0, D_EP3, G_EP3)))
        for z in zs[1:]:
            assert abs(z - (-4j * math.sqrt(3.0))) < 1e-10

    @settings(max_examples=60, deadline=None)
    @given(params_st)
    @example(ModelParams(1e-6, 0, 2))
    @example(ModelParams(5.96e-8, 0, 1.125))
    def test_mirror_symmetry(self, params):
        zs = eigenvalues_numeric(build_lindblad(params))
        scale = max(1.0, float(np.max(np.abs(zs))))
        assert match_distance(zs, -np.conj(zs)) < 1e-10 * scale

    # At delta = d = 0 the decaying modes are -i gamma and the semisimple
    # double root -i gamma / 2.  Newton polish used to push that pair apart
    # past the collapse threshold at these couplings.
    @pytest.mark.parametrize("gamma", [0.880129, 1.012996, 1.257751, 2.0894185, 9.4001005])
    def test_mirror_symmetry_at_semisimple_double_root(self, gamma):
        zs = eigenvalues_numeric(build_lindblad(ModelParams(0.0, 0.0, gamma)))
        scale = max(1.0, float(np.max(np.abs(zs))))
        assert match_distance(zs, -np.conj(zs)) < 1e-10 * scale

    # A close pair +-delta - i gamma/2 that has not coalesced.  Roots of the
    # Newton-identity cubic carry errors of about eps / delta here, which the
    # polish on det(L - zI) must remove.
    def test_mirror_symmetry_of_close_uncoalesced_pair(self):
        for gamma in (0.5, 1.125, 2.0, 7.3):
            for delta in np.geomspace(1e-9, 1e-3, 400):
                zs = eigenvalues_numeric(build_lindblad(ModelParams(delta, 0.0, gamma)))
                scale = max(1.0, float(np.max(np.abs(zs))))
                assert match_distance(zs, -np.conj(zs)) < 1e-10 * scale, (delta, gamma)

    def test_rejects_non_conserving_matrix(self):
        with pytest.raises(DomainError):
            eigenvalues_numeric(np.eye(4, dtype=complex))

    def test_rejects_wrong_shape(self):
        with pytest.raises(DomainError):
            eigenvalues_numeric(np.eye(3, dtype=complex))


def hadamard(rows) -> float:
    """Hadamard's bound on |det|: the product of the row norms."""
    return float(np.prod(np.linalg.norm(rows, axis=1)))


class TestAdjugate:
    # Every entry of adj(A) @ A (of A @ adj(A)) is at most 4 times the product
    # of the row (column) norms of A, and rounding stays far below eps times it.
    def test_inverts_up_to_the_determinant(self):
        rng = np.random.default_rng(11)
        eps = np.finfo(float).eps
        for _ in range(200):
            a = (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))) * 10.0 ** rng.uniform(-3, 3)
            adj = np.array(_adjugate(a.tolist()))
            det = np.linalg.det(a) * np.eye(4)
            assert np.max(np.abs(adj @ a - det)) <= 1e3 * eps * hadamard(a)
            assert np.max(np.abs(a @ adj - det)) <= 1e3 * eps * hadamard(a.T)

    # Integer entries keep every product exact, so the ranks are exact too.
    def test_rank_three_matrix_has_rank_one_adjugate(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            b = rng.integers(-5, 6, size=(4, 3)) + 1j * rng.integers(-5, 6, size=(4, 3))
            c = rng.integers(-5, 6, size=(3, 4)) + 1j * rng.integers(-5, 6, size=(3, 4))
            a = b @ c
            assert np.linalg.matrix_rank(a) == 3
            adj = np.array(_adjugate(a.tolist()))
            assert np.array_equal(adj @ a, np.zeros((4, 4)))
            assert np.array_equal(a @ adj, np.zeros((4, 4)))
            assert np.linalg.matrix_rank(adj) == 1

    def test_rank_two_matrix_has_zero_adjugate(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            b = rng.integers(-5, 6, size=(4, 2)) + 1j * rng.integers(-5, 6, size=(4, 2))
            c = rng.integers(-5, 6, size=(2, 4)) + 1j * rng.integers(-5, 6, size=(2, 4))
            assert np.array_equal(np.array(_adjugate((b @ c).tolist())), np.zeros((4, 4)))

    def test_characteristic_residual_is_the_determinant(self):
        rng = np.random.default_rng(14)
        eps = np.finfo(float).eps
        for _ in range(200):
            params = ModelParams(rng.uniform(-2, 2), rng.uniform(-4, 4), rng.uniform(0, 10))
            L = build_lindblad(params)
            for z in (*eigenvalues_closed_form(params).eigenvalues, complex(*rng.normal(size=2))):
                a = L - z * np.eye(4)
                tol = 1e3 * eps * hadamard(a)
                assert abs(characteristic_residual(L, z) - abs(np.linalg.det(a))) <= tol


class TestCharacteristicResidual:
    def test_product_of_distances(self):
        L = np.diag([1.0, -1.0, 0.0, 0.0]).astype(complex)
        assert abs(characteristic_residual(L, 2.0) - 12.0) < 1e-12

    def test_small_at_eigenvalues(self):
        params = ModelParams(0.9, -2.1, 4.2)
        L = build_lindblad(params)
        tol = 1e-9 * max(1.0, np.max(np.abs(L))) ** 4
        for z in eigenvalues_numeric(L):
            assert characteristic_residual(L, z) < tol

    def test_monotone_growth_away_from_spectrum(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            params = ModelParams(rng.uniform(-2, 2), rng.uniform(-3, 3), rng.uniform(0, 5))
            L = build_lindblad(params)
            radius = 2.0 * max(1.0, float(np.max(np.abs(eigenvalues_numeric(L)))))
            values = [
                characteristic_residual(L, radius * (1.0 + 1.0j) * (1.0 + t))
                for t in range(5)
            ]
            assert all(a < b for a, b in zip(values, values[1:]))


@pytest.fixture
def solves(monkeypatch):
    """Calls of cardano_params, counted at every package module that binds it."""
    calls = []
    original = spectrum.cardano_params
    for name, module in list(sys.modules.items()):
        if name.startswith("lindblad_ep") and getattr(module, "cardano_params", None) is original:
            monkeypatch.setattr(module, "cardano_params",
                                lambda params: calls.append(params) or original(params))
    return calls


class TestEigenvaluesComputedOnce:
    def test_full_spectrum_solves_the_cubic_once(self, monkeypatch):
        calls = []
        original = spectrum.eigenvalues_closed_form
        monkeypatch.setattr(spectrum, "eigenvalues_closed_form",
                            lambda params: calls.append(params) or original(params))
        params = ModelParams(1.0, 2.0, 1.0)
        spec = full_spectrum(params)
        assert len(calls) == 1
        for nu in (1, 2, 3):
            left, right = eigenvectors_closed_form(params, nu, spec.eigenvalues[nu])
            assert np.array_equal(left, spec.left[nu])
            assert np.array_equal(right, spec.right[nu])

    @pytest.mark.parametrize("entry", ["classify", "spectral_evolve", "cli"])
    def test_each_entry_point_solves_the_cubic_once(self, solves, entry, tmp_path):
        params = ModelParams(1.0, 2.0, 1.0)
        if entry == "classify":
            classify(params)
        elif entry == "spectral_evolve":
            spectral_evolve(params, initial_state("excited"), 0.5)
        else:
            out = tmp_path / "spec.json"
            assert main(["spectrum", "--delta", "1", "--d", "2", "--gamma", "1",
                         "--out", str(out)]) == 0
        assert solves == [params]

    def test_zero_detuning_refused_before_the_cubic(self, solves):
        # p**3 overflows at d = 1e60; the delta = 0 refusal must come first.
        params = ModelParams(0.0, 1e60, 1.0)
        with pytest.raises(DomainError):
            classify(params)
        with pytest.raises(DomainError):
            spectral_evolve(params, initial_state("excited"), 0.5)
        assert solves == []


class TestMatchDistance:
    def test_permutation_invariance(self):
        a = np.array([1.0, 2.0, 3.0], dtype=complex)
        assert match_distance(a, a[::-1]) == 0.0

    def test_reports_worst_pairing(self):
        a = np.array([0.0, 1.0], dtype=complex)
        b = np.array([0.1, 1.0], dtype=complex)
        assert abs(match_distance(a, b) - 0.1) < 1e-15

    def test_size_mismatch_rejected(self):
        with pytest.raises(DomainError):
            match_distance(np.zeros(2), np.zeros(3))

    def test_agrees_with_linear_sum_assignment(self):
        optimize = pytest.importorskip("scipy.optimize")

        def reference(a, b):
            cost = np.abs(a[:, None] - b[None, :])
            rows, cols = optimize.linear_sum_assignment(cost)
            return float(cost[rows, cols].max())

        rng = np.random.default_rng(2024)
        for _ in range(1000):
            a, b = rng.normal(size=(2, 4)) + 1j * rng.normal(size=(2, 4))
            assert match_distance(a, b) == reference(a, b)
        for _ in range(1000):
            # repeated values: each set drawn with replacement from three points
            pool = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
            a, b = rng.choice(pool[0], 4), rng.choice(pool[1], 4)
            assert match_distance(a, b) == reference(a, b)
        for a, b in (([1, 1, 1, 1], [1, 2, 3, 4]), ([0, 0, 2, 2], [1, 1, 1, 1])):
            a, b = np.array(a, dtype=complex), np.array(b, dtype=complex)
            assert match_distance(a, b) == reference(a, b)

    def test_tied_sums_report_the_largest_distance(self):
        # Both pairings of {0, 1} with {1, 2} sum to 2; the one through |0 - 2| is reported.
        assert match_distance([0.0, 1.0], [1.0, 2.0]) == 2.0
        assert match_distance([0.0, 1.0, 2.0, 3.0], [1.0, 2.0, 3.0, 4.0]) == 4.0
