import errno
import math
import os
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from lindblad_ep import spectrum
from lindblad_ep import (
    INITIAL_STATES,
    DomainError,
    ModelParams,
    NearDegenerateError,
    NonConvergenceError,
    build_lindblad,
    cardano_params,
    characteristic_residual,
    classify,
    classify_grid,
    eigenvalues_closed_form,
    eigenvalues_numeric,
    eigenvectors_closed_form,
    ep2_gamma,
    ep2_locate_numeric,
    full_spectrum,
    initial_state,
    match_distance,
    scaled_discriminant,
    spectral_evolve,
)
from lindblad_ep.cli import main
from lindblad_ep.spectrum import _adjugate, _closed_form_stack, _cubic, _det_trace, _flag_pairs, _shifted
from lindblad_ep.superop import _lindblad_stack
from lindblad_ep.verify import _gamma_zero_points, _spectra_points

finite = st.floats(min_value=-4.0, max_value=4.0, allow_nan=False, allow_infinity=False)
coupling = st.floats(min_value=0.0, max_value=10.0, allow_nan=False, allow_infinity=False)
params_st = st.builds(ModelParams, delta=finite, d=finite, gamma=coupling)


def signed_zero_or(values):
    return st.one_of(st.sampled_from([0.0, -0.0]), values)


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


def bits(z) -> np.ndarray:
    """The bit patterns of a complex array, so that signed zeros count too."""
    return np.ascontiguousarray(z, dtype=complex).view(np.uint64)


def assert_stack_is_scalar(delta, d, gamma) -> np.ndarray:
    """Each row of the array closed form equals eigenvalues_closed_form bit for bit,
    and the one core gives the same p, q, disc, energy and roots on arrays as at
    each point."""
    delta, d, gamma = np.broadcast_arrays(*(np.asarray(x, dtype=float) for x in (delta, d, gamma)))
    zs = _closed_form_stack(delta, d, gamma)
    assert zs.shape == (len(delta), 4)
    p, q, disc, energy, u, v, *roots = _cubic(delta, d, gamma)
    assert u is None and v is None
    stacked = np.stack([p, q, disc, energy, *roots], axis=1)
    for k, point in enumerate(zip(delta.tolist(), d.tolist(), gamma.tolist())):
        spec = eigenvalues_closed_form(ModelParams(*point))
        assert np.array_equal(bits(zs[k]), bits(spec.eigenvalues)), point
        at_point = _cubic(*point)
        assert all(type(x) is float for x in at_point[:4]), point
        assert np.array_equal(bits(stacked[k]), bits(at_point[:4] + at_point[6:])), point
    return zs


def curve_points(branch: int):
    d_t = np.linspace(D_EP3, 10.0, 60)
    return 1.0, d_t, np.array([ep2_gamma(x)[branch] for x in d_t])


class TestClosedFormStack:
    def test_check_spectra_points(self):
        assert_stack_is_scalar(*_spectra_points())

    def test_gamma_zero_points(self):
        delta, d = _gamma_zero_points()
        zs = assert_stack_is_scalar(delta, d, 0.0)
        # zero imaginary parts of both signs occur here, and the comparison is bitwise
        signs = np.signbit(zs.imag[zs.imag == 0])
        assert signs.any() and not signs.all()

    def test_triple_point(self):
        deltas = np.array([1.0, 2.5, -1.0, 1e-3, 1e3])
        zs = assert_stack_is_scalar(deltas, D_EP3 * deltas, G_EP3 * np.abs(deltas))
        assert (zs[:, 1] == zs[:, 2]).all() and (zs[:, 2] == zs[:, 3]).all()

    @pytest.mark.parametrize("branch", [0, 1])
    def test_coalescence_curves(self, branch):
        assert_stack_is_scalar(*curve_points(branch))

    def test_zero_detuning_and_drive(self):
        assert_stack_is_scalar(0.0, 0.0, np.linspace(0.0, 10.0, 41))

    def test_complex_radicals(self):
        # between the two curves the discriminant is negative
        d_t = np.repeat(np.linspace(3.0, 8.0, 12), 12)
        g_t = np.concatenate([np.linspace(*ep2_gamma(x), 14)[1:-1] for x in np.linspace(3.0, 8.0, 12)])
        for delta in (1.0, -2.0):
            assert (np.array([cardano_params(ModelParams(delta, delta * x, abs(delta) * g)).disc
                              for x, g in zip(d_t, g_t)]) < 0).all()
            assert_stack_is_scalar(delta, delta * d_t, abs(delta) * g_t)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(params_st, min_size=1, max_size=8))
    def test_random_points(self, points):
        assert_stack_is_scalar(*np.array([(p.delta, p.d, p.gamma) for p in points]).T)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(signed_zero_or(finite), signed_zero_or(finite),
                              st.one_of(st.just(0.0), coupling)), min_size=1, max_size=8))
    def test_exact_and_signed_zeros(self, points):
        assert_stack_is_scalar(*np.array(points).T)


def flag_pairs_by_index(zs) -> tuple:
    """Coalesced pairs with the comparisons made on numpy scalars, one by one."""
    return tuple(
        (i, j) for i in range(4) for j in range(i + 1, 4)
        if abs(zs[i] - zs[j]) < spectrum.PAIR_GAP_RTOL * max(1.0, abs(zs[i]), abs(zs[j]))
    )


class TestFlagPairs:
    def test_equals_numpy_scalar_comparisons(self):
        rng = np.random.default_rng(3)
        spectra = [eigenvalues_closed_form(ModelParams(*x)).eigenvalues
                   for x in zip(*_spectra_points())]
        spectra += [eigenvalues_closed_form(ModelParams(1.0, x, g)).eigenvalues
                    for x, g in zip(*curve_points(0)[1:])]
        base = np.array([0.0, 1.0, 1.0 + 3e-7j, 5.0], dtype=complex)
        spectra += [base * rng.uniform(0.1, 10.0) for _ in range(50)]
        flagged = 0
        for zs in spectra:
            assert _flag_pairs(zs) == flag_pairs_by_index(zs)
            flagged += bool(_flag_pairs(zs))
        assert 0 < flagged < len(spectra)


class TestVerifyDraws:
    def test_spectra_points_equal_one_draw_at_a_time(self):
        rng = np.random.default_rng(1234)
        points = [(rng.uniform(-2, 2), rng.uniform(-4, 4), rng.uniform(0, 10)) for _ in range(1000)]
        points += [(1.0, d_t, g_t) for d_t in np.linspace(0.0, 8.0, 50)
                   for g_t in np.linspace(0.0, 16.0, 50)]
        delta, d, gamma = _spectra_points(1234)
        assert np.array_equal(np.stack([delta, d, gamma], axis=1).view(np.uint64),
                              np.array(points).view(np.uint64))

    def test_gamma_zero_points_equal_one_draw_at_a_time(self):
        rng = np.random.default_rng(7)
        points = [(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(100)]
        assert np.array_equal(np.stack(_gamma_zero_points(7), axis=1).view(np.uint64),
                              np.array(points).view(np.uint64))

    def test_generator_stack_equals_build_lindblad(self):
        delta, d, gamma = _spectra_points()
        delta, d, gamma = (np.append(x, [0.0, -0.0, 1.0]) for x in (delta, d, gamma))
        single = stack_of(ModelParams(*point) for point in zip(delta, d, gamma))
        assert np.array_equal(bits(_lindblad_stack(delta, d, gamma)), bits(single))


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
        with pytest.raises(NearDegenerateError):
            eigenvectors_closed_form(params, 1)

    def test_gamma_zero_null_pair_refused(self):
        # without dissipation the z1 = 0 mode collides with the conserved one
        params = ModelParams(1.0, 1.0, 0.0)
        with pytest.raises(NearDegenerateError):
            eigenvectors_closed_form(params, 1)

    def test_nu_is_validated(self):
        params = ModelParams(1.0, 2.0, 1.0)
        # 1.0 used to pass the membership test and fail as a slice index;
        # True used to mean mode 1.
        for nu in (0, 4, 1.0, True, "1", None):
            with pytest.raises(DomainError, match="nu must be the integer 1, 2 or 3"):
                eigenvectors_closed_form(params, nu)

    def test_numpy_integer_nu_is_accepted(self):
        params = ModelParams(1.0, 2.0, 1.0)
        for got, want in zip(eigenvectors_closed_form(params, np.int64(2)),
                             eigenvectors_closed_form(params, 2)):
            assert got.tobytes() == want.tobytes()

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
        for nu in (1, 2, 3):
            left, right = eigenvectors_closed_form(params, nu)
            assert abs(left @ right - 1.0) < 1e-10


def points_near_coalescences(seed: int, n: int = 400) -> list:
    """Seeded points at relative offsets 10^U(-16, -2) from both EP2 curves and from EP3."""
    rng = np.random.default_rng(seed)
    points = []
    for k in range(n):
        delta = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0)
        offset = rng.choice([-1.0, 1.0]) * 10 ** rng.uniform(-16, -2)
        if k % 3 == 2:
            angle = rng.uniform(0.0, 2.0 * math.pi)
            d_t, g_t = D_EP3 * (1 + offset * math.cos(angle)), G_EP3 * (1 + offset * math.sin(angle))
        else:
            d_t = rng.uniform(2.9, 8.0)
            g_t = ep2_gamma(d_t)[k % 3] * (1 + offset)
        points.append(ModelParams(delta, delta * d_t, abs(delta) * g_t))
    return points


def fails_per_mode_gap_test(zs) -> bool:
    """Whether some decaying mode lies within PAIR_GAP_RTOL * max(1, |z|) of another eigenvalue."""
    return any(abs(zs[k] - zs[nu]) < spectrum.PAIR_GAP_RTOL * max(1.0, abs(zs[nu]))
               for nu in (1, 2, 3) for k in range(4) if k != nu)


class TestOneCoalescenceTest:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_full_spectrum_refuses_exactly_at_flagged_pairs(self, seed):
        refused = 0
        for params in points_near_coalescences(seed):
            bare = eigenvalues_closed_form(params)
            # a flagged pair fails the per-mode test for its larger-modulus member
            assert bool(bare.degenerate_pairs) == fails_per_mode_gap_test(bare.eigenvalues)
            if bare.degenerate_pairs:
                refused += 1
                with pytest.raises(NearDegenerateError, match="lie within"):
                    full_spectrum(params)
            else:
                try:
                    full_spectrum(params)
                except NearDegenerateError as exc:
                    assert "pairing" in str(exc)
        assert 0 < refused < 400

    @pytest.mark.parametrize("seed", [4, 5])
    def test_eigenvectors_refused_exactly_for_modes_in_flagged_pairs(self, seed):
        for params in points_near_coalescences(seed, 150):
            bare = eigenvalues_closed_form(params)
            flagged = {k for pair in bare.degenerate_pairs for k in pair}
            for nu in (1, 2, 3):
                if nu in flagged:
                    with pytest.raises(NearDegenerateError, match="lie within"):
                        eigenvectors_closed_form(params, nu)
                else:
                    try:
                        eigenvectors_closed_form(params, nu)
                    except NearDegenerateError as exc:
                        assert "pairing" in str(exc)

    # Near a curve PAIR_GAP_RTOL leaves some coalescing pairs unflagged; spectral_evolve's
    # refusal of the EP band is what keeps their mode sums, which break the Hermiticity
    # pairing, from being returned.
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_spectral_evolve_refuses_or_returns_a_hermitian_state(self, seed):
        refused = returned = 0
        for params in points_near_coalescences(seed):
            for name in INITIAL_STATES:
                for t in (0.3, 3.0):
                    try:
                        rho = spectral_evolve(params, initial_state(name), t)
                    except NearDegenerateError:
                        refused += 1
                        continue
                    returned += 1
                    assert np.max(np.abs(rho - rho.conj().T)) <= 1e-9, (params, name, t)
        assert refused and returned

    def test_degenerate_origin_is_a_domain_error(self):
        # every eigenvalue is zero there, but the null mode's refusal comes first
        with pytest.raises(DomainError):
            full_spectrum(ModelParams(0.0, 0.0, 0.0))

    def test_residuals_equal_the_per_vector_formula(self):
        points = [ModelParams(*x) for x in zip(*_spectra_points())][::7]
        points += [ModelParams(1e-6, 0.0, 2.0), ModelParams(1.0, 1e-8, 0.7),
                   ModelParams(3e40, -7e40, 2e41), ModelParams(3e-40, 7e-40, 2e-41)]
        checked = 0
        for params in points:
            try:
                spec = full_spectrum(params)
            except NearDegenerateError:
                continue
            L = build_lindblad(params)
            want = np.array([max(float(np.max(np.abs(L @ r - z * r))),
                                 float(np.max(np.abs(left @ L - z * left))))
                             for z, left, r in zip(spec.eigenvalues, spec.left, spec.right)])
            assert np.array_equal(spec.residuals.view(np.uint64), want.view(np.uint64))
            checked += 1
        assert checked > 400

    def test_unit_scale_generator_built_once(self, monkeypatch):
        built = []
        original = spectrum.build_lindblad
        monkeypatch.setattr(spectrum, "build_lindblad",
                            lambda params: built.append(params) or original(params))
        full_spectrum(ModelParams(3.0, 6.0, 3.0))
        # L / 2^3 once, for the four modes and their residuals
        assert built == [ModelParams(0.375, 0.75, 0.375)]

    @pytest.mark.filterwarnings("error")
    def test_vanishing_adjugate_is_a_singular_pairing(self):
        # At (0, 0, 1) the coherence pair is the semisimple double root -0.5i,
        # -0.25i on the unit generator: L - zI has rank 2 there, so every
        # cofactor is exactly zero and the pairing 0 is not above 0.
        unit_L = build_lindblad(ModelParams(0.0, 0.0, 0.5))
        z = np.array([-0.25j])
        assert not np.array(spectrum._adjugate(spectrum._shifted(unit_L.tolist(), z[0]))).any()
        with pytest.raises(NearDegenerateError, match=r"pairing for z = \S*-0\.5j.*kappa = inf"):
            next(spectrum._eigenvectors(unit_L, z, 2.0 * z))

    def test_refusal_names_the_condition_number(self):
        # At the EP3 the three decaying modes are one self-orthogonal mode:
        # its pairing is roundoff, not zero, and the refusal gives kappa.
        unit = ModelParams(1.0 / 16.0, D_EP3 / 16.0, G_EP3 / 16.0)
        z = eigenvalues_closed_form(unit).eigenvalues[1:2]
        with pytest.raises(NearDegenerateError, match="pairing for z = .*kappa = ") as err:
            next(spectrum._eigenvectors(build_lindblad(unit), z, z))
        kappa = float(err.value.args[0].split("kappa = ")[1].split()[0])
        assert spectrum.KAPPA_MAX <= kappa < math.inf


# q overflows a double where p cancels to 0.0 exactly; p**3 + q**2 overflows in the sum.
OVERFLOWING_CUBICS = [(8.660254037844387e+119, 0.0, 3e+120), (4e51, 0.0, 4e51)]


class TestCubicOverflow:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("point", OVERFLOWING_CUBICS)
    def test_refused_as_an_overflow(self, point):
        params = ModelParams(*point)
        for solve in (cardano_params, eigenvalues_closed_form, full_spectrum, classify,
                      scaled_discriminant):
            with pytest.raises(OverflowError, match="discriminant overflows"):
                solve(params)
        with pytest.raises(OverflowError, match="discriminant overflows"):
            _closed_form_stack(*np.array([point, (1.0, 2.0, 1.0)]).T)


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

    # Without any coupling L is zero: np.roots gives the roots as float64 zeros,
    # Python floats after tolist(), so the Newton kernel must come from the
    # matrix's shape, never from the type of a root.
    def test_zero_generator_gives_exact_zeros(self):
        zero = build_lindblad(ModelParams(0.0, 0.0, 0.0))
        assert eigenvalues_numeric(zero).tobytes() == bytes(64)
        stack = stack_of([ModelParams(1.0, 2.0, 1.0), ModelParams(0.0, 0.0, 0.0),
                          ModelParams(0.5, 3.0, 2.0)])
        zs = eigenvalues_numeric(stack)
        assert zs[1].tobytes() == bytes(64)
        single = [eigenvalues_numeric(L) for L in stack[[0, 2]]]
        assert match_distance(zs[[0, 2]], single).max() < 1e-14
        assert characteristic_residual(zero, 0) == 0.0
        assert np.array_equal(characteristic_residual(stack, np.zeros(3)), np.zeros(3))

    def test_rejects_non_conserving_matrix(self):
        with pytest.raises(DomainError):
            eigenvalues_numeric(np.eye(4, dtype=complex))

    def test_rejects_wrong_shape(self):
        with pytest.raises(DomainError):
            eigenvalues_numeric(np.eye(3, dtype=complex))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.complex_numbers(max_magnitude=1e6), min_size=3, max_size=3)
           .filter(lambda c: c[2] != 0))
    def test_one_cubic_companion_roots_are_np_roots(self, coeffs):
        coeffs = np.array([1.0, *coeffs], dtype=complex)
        assert spectrum._cubic_roots(coeffs).tobytes() == np.roots(coeffs).tobytes()

    # Without dissipation the cubic's constant coefficient is exactly zero:
    # np.roots strips it and gives the root 0 exactly.
    def test_zero_constant_coefficient_takes_np_roots(self, monkeypatch):
        calls = []
        original = np.roots
        monkeypatch.setattr(np, "roots", lambda coeffs: calls.append(coeffs) or original(coeffs))
        eigenvalues_numeric(build_lindblad(ModelParams(1.0, 2.0, 1.0)))
        assert calls == []
        zs = eigenvalues_numeric(build_lindblad(ModelParams(1, 2, 0)))
        assert len(calls) == 1 and calls[0][3] == 0
        assert np.count_nonzero(zs == 0) == 2


def stack_of(points) -> np.ndarray:
    return np.array([build_lindblad(params) for params in points])


def stacked_against_single(Ls: np.ndarray) -> np.ndarray:
    """Matched distance of the stacked oracle from one call per matrix, over max(1, max|L|)."""
    single = np.array([eigenvalues_numeric(L) for L in Ls])
    scale = np.maximum(1.0, np.max(np.abs(Ls), axis=(1, 2)))
    return match_distance(eigenvalues_numeric(Ls), single) / scale


# Away from the coalescences; near one, both answers sit within the
# eps^(1/2) conditioning limit and may differ by more than roundoff.
separated_params = params_st.filter(lambda p: abs(scaled_discriminant(p)) > 1e-8)


class TestStackedOracle:
    # numpy's complex arithmetic rounds differently from Python's, so the
    # stacked roots agree with the per-matrix ones to roundoff, not bitwise.
    def test_check_spectra_matrices_match_per_matrix(self):
        Ls = stack_of(ModelParams(*point) for point in zip(*_spectra_points()))
        assert len(Ls) == 3500
        assert np.max(stacked_against_single(Ls)) <= 1e-14

    # The example's subnormal coupling leaves a subnormal tr adj(L - zI) at the
    # double root near 0, whose reciprocal overflows in numpy's complex division.
    @settings(max_examples=60, deadline=None)
    @given(st.lists(separated_params, min_size=1, max_size=6))
    @example([ModelParams(0.7952760252209155, -1.0, 5e-324)])
    def test_matches_per_matrix(self, points):
        assert np.max(stacked_against_single(stack_of(points))) <= 1e-14

    # At a coalescence both paths collapse the scattered cluster onto its mean.
    def test_collapses_clusters_like_per_matrix(self):
        points = [ModelParams(1.0, D_EP3, G_EP3), ModelParams(0.0, 1.0, 4.0)]
        for d_t in (3.0, 5.0):
            points += [ModelParams(1.0, d_t, g) for g in ep2_gamma(d_t)]
        assert np.max(stacked_against_single(stack_of(points))) <= 1e-14

    def test_stack_crosses_a_block_boundary(self):
        rng = np.random.default_rng(21)
        n = 1025
        assert n > 2 * (spectrum._BLOCK // 16)
        points = [ModelParams(rng.uniform(-2, 2), rng.uniform(-4, 4), rng.uniform(0, 10))
                  for _ in range(n)]
        Ls = stack_of(points)
        assert np.max(stacked_against_single(Ls)) <= 1e-14
        Ls[n - 1] = np.eye(4)
        with pytest.raises(DomainError, match=f"matrix {n - 1} of the stack"):
            eigenvalues_numeric(Ls)

    def test_empty_stack(self):
        zs = eigenvalues_numeric(np.zeros((0, 4, 4), dtype=complex))
        assert zs.shape == (0, 4)

    def test_rejects_stack_of_wrong_shape(self):
        with pytest.raises(DomainError):
            eigenvalues_numeric(np.zeros((2, 3, 3), dtype=complex))
        with pytest.raises(DomainError):
            eigenvalues_numeric(np.zeros((2, 2, 4, 4), dtype=complex))

    def test_names_the_matrix_that_does_not_conserve_population(self):
        Ls = stack_of([ModelParams(1.0, 2.0, 1.0)] * 5)
        Ls[3, 2, 0] += 1e-3
        with pytest.raises(DomainError, match="matrix 3 of the stack: .*conserve population"):
            eigenvalues_numeric(Ls)

    def test_names_the_matrix_with_non_finite_entries(self):
        Ls = stack_of([ModelParams(1.0, 2.0, 1.0)] * 5)
        Ls[1, 0, 0] = np.nan
        with pytest.raises(DomainError, match="matrix 1 of the stack: .*non-finite"):
            eigenvalues_numeric(Ls)

    @pytest.mark.parametrize("fault", [1e-3, np.nan, np.inf])
    def test_names_the_matrix_failing_the_residual_check(self, monkeypatch, fault):
        # A root knocked off by 1e-3, or made NaN or infinite, must fail the
        # gate; numpy gives NaN and inf silently where Python would raise.
        polish = spectrum._newton_polish

        def faulty(*args):
            roots = polish(*args)
            roots[2, 1] += fault
            return roots

        monkeypatch.setattr(spectrum, "_newton_polish", faulty)
        Ls = stack_of([ModelParams(1.0, 2.0, 1.0), ModelParams(0.5, 3.0, 2.0)] * 3)
        with pytest.raises(NonConvergenceError, match="matrix 2 of the stack: root"):
            eigenvalues_numeric(Ls)


class TestOneMatrixRefusals:
    """One matrix is refused with the texts of a stack, without the matrix index."""

    def test_non_finite_entry(self):
        L = build_lindblad(ModelParams(1.0, 2.0, 1.0))
        L[1, 2] = np.nan
        with pytest.raises(DomainError) as info:
            eigenvalues_numeric(L)
        assert str(info.value) == "matrix has non-finite entries"

    def test_population_leak(self):
        L = build_lindblad(ModelParams(1.0, 2.0, 1.0))
        L[2, 0] += 1e-3
        with pytest.raises(DomainError) as info:
            eigenvalues_numeric(L)
        assert str(info.value) == (
            "matrix does not conserve population; cannot deflate the null eigenvalue")

    def test_residual_gate(self, monkeypatch):
        polish = spectrum._newton_polish
        monkeypatch.setattr(spectrum, "_newton_polish", lambda *args: polish(*args) + 1e-3)
        with pytest.raises(NonConvergenceError,
                           match=r"^root \(.+\) fails the residual check: \S+ > 1\.563e-09$"):
            eigenvalues_numeric(build_lindblad(ModelParams(1.0, 2.0, 1.0)))


class TestStackBlocks:
    """Stacks run in blocks of _BLOCK // 16 rows (spectrum._in_blocks); each block is
    elementwise per row, so the seams change no bit."""

    # 64 numbers a block: 4 matrices, or 4 rows of two 4-sets, and 2 * 4 + 1 = 9 rows.
    ROWS = 9

    @pytest.fixture
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(spectrum, "_BLOCK", 64)

    @staticmethod
    def stack():
        rng = np.random.default_rng(5)
        return stack_of(ModelParams(rng.uniform(-2, 2), rng.uniform(-4, 4), rng.uniform(0, 10))
                        for _ in range(TestStackBlocks.ROWS))

    def test_match_distance_equals_row_by_row(self, small_blocks):
        rng = np.random.default_rng(6)
        a = rng.normal(size=(self.ROWS, 4)) + 1j * rng.normal(size=(self.ROWS, 4))
        b = a[:, ::-1] + 1e-3 * rng.normal(size=(self.ROWS, 4))
        b[self.ROWS - 1, 2] = np.nan  # its NaN distance shows in the last block
        got = match_distance(a, b)
        want = [match_distance(x, y) for x, y in zip(a, b)]
        assert bits(got).tolist() == bits(want).tolist()
        assert np.isnan(got[-1]) and not np.isnan(got[:-1]).any()

    @pytest.mark.parametrize("k", [None, 3])
    def test_characteristic_residual_equals_row_by_row(self, small_blocks, k):
        Ls = self.stack()
        z = np.random.default_rng(7).normal(size=(self.ROWS,) if k is None else (self.ROWS, k))
        got = characteristic_residual(Ls, z)
        want = [characteristic_residual(Ls[i : i + 1], z[i : i + 1])[0] for i in range(self.ROWS)]
        assert got.shape == z.shape and got.dtype == np.float64
        assert bits(got).tolist() == bits(want).tolist()

    def test_oracle_equals_one_block(self, monkeypatch):
        Ls = self.stack()
        whole = eigenvalues_numeric(Ls)
        monkeypatch.setattr(spectrum, "_BLOCK", 64)
        assert bits(eigenvalues_numeric(Ls)).tolist() == bits(whole).tolist()

    @pytest.mark.parametrize("fault, message", [
        (np.eye(4), "conserve population"), (np.full((4, 4), np.nan), "non-finite"),
    ])
    def test_refusal_in_the_last_block_names_the_global_index(self, small_blocks, fault, message):
        Ls = self.stack()
        Ls[self.ROWS - 1] = fault
        with pytest.raises(DomainError, match=f"^matrix {self.ROWS - 1} of the stack: .*{message}"):
            eigenvalues_numeric(Ls)

    def test_empty_stacks_keep_shapes_and_dtypes(self, small_blocks):
        empty = np.zeros((0, 4), dtype=complex)
        got = match_distance(empty, empty)
        assert got.shape == (0,) and got.dtype == np.float64
        got = characteristic_residual(np.zeros((0, 4, 4)), np.zeros((0, 2)))
        assert got.shape == (0, 2) and got.dtype == np.float64


class TestLargeScale:
    # Above max|L| ~ 1e77 the residual tolerance and det(L - zI) overflow
    # unless L is first divided by a power of two.
    def test_oracle_is_scale_covariant_at_1e80(self):
        ref = eigenvalues_numeric(build_lindblad(ModelParams(1.0, 2.0, 1.0)))
        zs = eigenvalues_numeric(build_lindblad(ModelParams(1e80, 2e80, 1e80)))
        assert match_distance(zs, 1e80 * ref) <= 1e-12 * 1e80 * np.max(np.abs(ref))

    def test_stacked_oracle_at_extreme_scales(self):
        ref = eigenvalues_numeric(build_lindblad(ModelParams(1.0, 2.0, 1.0)))
        scales = np.array([1e80, 1e150, 1e300])
        zs = eigenvalues_numeric(stack_of([ModelParams(s, 2.0 * s, s) for s in scales]))
        dist = match_distance(zs / scales[:, None], np.tile(ref, (3, 1)))
        assert np.all(dist <= 1e-12 * np.max(np.abs(ref)))

    # |delta - i gamma/2| is past the largest double, though every part of L is finite.
    def test_oracle_solves_a_modulus_past_the_largest_double(self):
        L = build_lindblad(ModelParams(1.79e308, 0.0, 1.79e308))
        lapack = np.linalg.eigvals(L / 2.0**824)
        for zs in (eigenvalues_numeric(L), eigenvalues_numeric(np.asfortranarray(L)),
                   eigenvalues_numeric(L[None])[0]):
            assert np.isfinite(zs).all()
            assert match_distance(zs / 2.0**824, lapack) <= 1e-12 * np.max(np.abs(lapack))

    @pytest.mark.parametrize("bad", [np.inf, np.nan, complex(0.0, np.inf)])
    def test_non_finite_entry_still_refused(self, bad):
        L = build_lindblad(ModelParams(1.79e308, 0.0, 1.79e308))
        L[0, 1] = bad
        with pytest.raises(DomainError, match="^matrix has non-finite entries$"):
            eigenvalues_numeric(L)
        with pytest.raises(DomainError, match="^matrix 0 of the stack: matrix has non-finite"):
            eigenvalues_numeric(L[None])

    def test_leak_past_the_largest_double_named_as_a_leak(self):
        L = build_lindblad(ModelParams(1.79e308, 0.0, 1.79e308))
        L[2, 0] = 1e300
        with pytest.raises(DomainError, match="does not conserve population"):
            eigenvalues_numeric(L)

    # The roots pass the residual gate at the rescaled level and pass the largest double
    # only when scaled back: refused as the closed form refuses an overflowing cubic.
    @pytest.mark.filterwarnings("error")
    def test_eigenvalues_past_the_largest_double_refused(self):
        L = build_lindblad(ModelParams(1.0, 2.0, 1.0))
        big = 1.79e308 * L / np.abs(L).max()
        with pytest.raises(OverflowError, match="^eigenvalues overflow a double$"):
            eigenvalues_numeric(big)
        with pytest.raises(OverflowError,
                           match="^matrix 2 of the stack: eigenvalues overflow a double$"):
            eigenvalues_numeric(np.stack([L, L, big, L]))


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

    def test_stacked_characteristic_residual_is_the_determinant(self):
        rng = np.random.default_rng(15)
        eps = np.finfo(float).eps
        points = [ModelParams(rng.uniform(-2, 2), rng.uniform(-4, 4), rng.uniform(0, 10))
                  for _ in range(200)]
        Ls = stack_of(points)
        zs = np.array([eigenvalues_closed_form(params).eigenvalues for params in points])
        zs = np.concatenate([zs, rng.normal(size=(200, 1)) + 1j * rng.normal(size=(200, 1))], axis=1)
        a = Ls[:, None] - zs[:, :, None, None] * np.eye(4)
        tol = 1e3 * eps * np.prod(np.linalg.norm(a, axis=-1), axis=-1)
        res = characteristic_residual(Ls, zs)
        assert res.shape == (200, 5)
        assert np.all(np.abs(res - np.abs(np.linalg.det(a))) <= tol)
        column = characteristic_residual(Ls, zs[:, 4])
        assert column.shape == (200,)
        assert np.all(np.abs(column - np.abs(np.linalg.det(a[:, 4]))) <= tol[:, 4])

    def test_rejects_mismatched_stack_and_shifts(self):
        Ls = stack_of([ModelParams(1.0, 2.0, 1.0)] * 3)
        with pytest.raises(DomainError):
            characteristic_residual(Ls, np.zeros(2))
        with pytest.raises(DomainError):
            characteristic_residual(Ls, 0.0)

    @pytest.mark.parametrize("shift", [True, np.bool_(False), "1+2j", b"1", None],
                             ids=["bool", "numpy-bool", "str", "bytes", "None"])
    def test_rejects_shifts_that_are_not_numbers(self, shift):
        L = build_lindblad(ModelParams(1.0, 2.0, 1.0))
        with pytest.raises(DomainError, match="shifts must be numbers"):
            characteristic_residual(L, shift)
        with pytest.raises(DomainError, match="shifts must be numbers"):
            characteristic_residual(stack_of([ModelParams(1.0, 2.0, 1.0)] * 2), np.array([shift] * 2))

    @pytest.mark.parametrize("shift", [2, np.int64(2), 2.0, np.float64(2.0), 2 + 0j, np.complex128(2)])
    def test_accepts_every_kind_of_number(self, shift):
        L = build_lindblad(ModelParams(1.0, 2.0, 1.0))
        want = characteristic_residual(L, 2.0)
        assert characteristic_residual(L, shift) == want
        stack = characteristic_residual(stack_of([ModelParams(1.0, 2.0, 1.0)] * 2), np.array([shift] * 2))
        assert np.array_equal(stack, [want, want])


ONE = build_lindblad(ModelParams(1.0, 2.0, 1.0))


# Inputs that are not numbers, each given as one matrix (or set) and as a stack.
NOT_NUMBERS = {
    "str": (eigenvalues_numeric, "x"),
    "bytes": (eigenvalues_numeric, b"ab"),
    "objects": (eigenvalues_numeric, [[object()] * 4] * 4),
    "objects-stack": (eigenvalues_numeric, [[[object()] * 4] * 4] * 2),
    "bool-matrix": (eigenvalues_numeric, np.zeros((4, 4), bool)),
    "bool-stack": (eigenvalues_numeric, np.zeros((2, 4, 4), bool)),
    "residual-bool-matrix": (characteristic_residual, np.zeros((4, 4), bool), 1.0),
    "residual-bool-stack": (characteristic_residual, np.zeros((2, 4, 4), bool), np.ones(2)),
    "residual-str-matrix": (characteristic_residual, "x", 1.0),
    "residual-overflowing-shift": (characteristic_residual, ONE, 10**400),
    "residual-overflowing-shifts": (characteristic_residual, np.array([ONE, ONE]),
                                    np.array([1, 10**400], dtype=object)),
    "residual-none-in-shifts": (characteristic_residual, np.array([ONE, ONE]),
                                np.array([1.0, None], dtype=object)),
    "distance-str": (match_distance, ["a"], ["b"]),
    "distance-bool": (match_distance, [True], [False]),
    "distance-str-stack": (match_distance, [["a"]] * 2, [["b"]] * 2),
    "distance-bool-stack": (match_distance, np.zeros((2, 4), bool), np.zeros((2, 4), bool)),
    # numpy reads a list that mixes bools with numbers as numbers.
    "distance-bool-in-list": (match_distance, [True, 2], [1, 2]),
    "distance-numpy-bool-in-list": (match_distance, [[1.0, np.True_]], [[1.0, 1.0]]),
    "bool-in-nested-list": (eigenvalues_numeric, [[0, True, 0, 0]] + [[0] * 4] * 3),
    "residual-bool-in-nested-list": (characteristic_residual, ONE.tolist()[:3] + [[0, 0, True, 0]], 1.0),
    "residual-bool-in-shift-list": (characteristic_residual, np.array([ONE, ONE]), [1.0, True]),
}


class TestNumericInputs:
    # One rule for the oracle's entry points: numbers (numpy's, Python ints past
    # int64 included) are accepted, anything else ends in a DomainError.
    @pytest.mark.parametrize("call", list(NOT_NUMBERS.values()), ids=list(NOT_NUMBERS))
    def test_refuses_what_is_not_a_number(self, call):
        fn, *args = call
        with pytest.raises(DomainError, match="must be numbers"):
            fn(*args)

    def test_accepts_python_ints_and_object_arrays_of_numbers(self):
        zs = eigenvalues_numeric(ONE)
        assert eigenvalues_numeric(np.array(ONE.tolist(), dtype=object)).tobytes() == zs.tobytes()
        stack = np.array([ONE, ONE])
        want = eigenvalues_numeric(stack).tobytes()
        assert eigenvalues_numeric(stack.astype(object)).tobytes() == want
        assert characteristic_residual(ONE, 2**70) == characteristic_residual(ONE, float(2**70))
        shifts = np.array([2**70, 1], dtype=object)
        assert np.array_equal(characteristic_residual(stack, shifts),
                              characteristic_residual(stack, shifts.astype(complex)))
        assert match_distance([2**70, 1], [1, 2**70]) == 0.0
        assert match_distance(zs.astype(object), zs) == 0.0


# Entries with exact and signed zeros, whose signs the kernels must keep.
entry = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]),
                  st.floats(min_value=-1e3, max_value=1e3, allow_nan=False))
entries = st.builds(complex, entry, entry)


SIGNED_ZERO_DET = [
    [(-0.0, -0.0), (1.0, 0.0), (-1.0, -1.0), (0.0, -0.0)],
    [(-1.0, 1.0), (0.0, -1.0), (-1.0, 1.0), (0.0, 0.0)],
    [(1.0, 0.0), (-1.0, 1.0), (0.0, -0.0), (-0.0, -0.0)],
    [(1.0, 1.0), (0.0, 1.0), (-1.0, 0.0), (0.0, 0.0)],
]


def det_and_trace_via_adjugate(m):
    adj = _adjugate(m)
    det = sum(m[0][j] * adj[j][0] for j in range(4))
    return det, adj[0][0] + adj[1][1] + adj[2][2] + adj[3][3]


def as_bytes(values) -> bytes:
    return b"".join(np.asarray(v, dtype=complex).tobytes() for v in values)


class TestDetTrace:
    # The kernel forms only the cofactors det and tr adj read; both must equal
    # what the full adjugate gives, bit for bit.
    # The example's det is +0j from the integer start of sum() and -0j without it.
    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.lists(entries, min_size=4, max_size=4), min_size=4, max_size=4))
    @example([[complex(*z) for z in row] for row in SIGNED_ZERO_DET])
    def test_one_matrix_equals_the_adjugate(self, m):
        want = det_and_trace_via_adjugate(m)
        assert as_bytes(_det_trace(m, trace=True)) == as_bytes(want)
        det, trace = _det_trace(m)
        assert trace is None and as_bytes([det]) == as_bytes(want[:1])

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda n: st.tuples(
        st.lists(entries, min_size=16 * n, max_size=16 * n),
        st.sampled_from([(n,), (n, 1), (n, 3)]).flatmap(
            lambda shape: st.lists(entries, min_size=math.prod(shape), max_size=math.prod(shape))
            .map(lambda z: np.array(z, dtype=complex).reshape(shape))))))
    def test_stack_equals_the_adjugate(self, drawn):
        flat, z = drawn
        # The entries of each matrix as arrays that broadcast against z.
        shape = z.shape[:1] + (1,) * (z.ndim - 1) + (4, 4)
        stack = np.array(flat, dtype=complex).reshape(shape)
        m = _shifted([[stack[..., i, j] for j in range(4)] for i in range(4)], z)
        got = _det_trace(m, trace=True)
        assert got[0].shape == z.shape
        assert as_bytes(got) == as_bytes(det_and_trace_via_adjugate(m))


    # One matrix takes the traces of its powers on Python numbers, summed in
    # np.trace's order, so that its cubic's coefficients keep np.trace's bits.
    @settings(max_examples=100, deadline=None)
    @given(st.lists(entries, min_size=4, max_size=4))
    def test_point_trace_equals_np_trace(self, diagonal):
        a = np.diag(np.array(diagonal, dtype=complex))
        assert as_bytes([spectrum._POINT.trace(a)]) == as_bytes([np.trace(a)])


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


# The args of Python's OverflowError when a float power overflows.
ERANGE = (errno.ERANGE, os.strerror(errno.ERANGE))


class TestPow:
    # Doubles where numpy's power, or x*x, rounds differently from Python's
    # float power on some C libraries: 2702.51276112607**2 is 7303575.224049255
    # where x*x gives 7303575.224049254.
    VALUES = (2702.51276112607, 4.129130985314798e-05, -6511.626384673767)

    @pytest.mark.parametrize("shape", [(), (3,), (3, 2)])
    @pytest.mark.parametrize("k", [2, 3])
    def test_equals_python_power(self, shape, k):
        x = np.resize(np.array(self.VALUES), shape)
        got = spectrum._pow(x, k)
        assert type(got) is np.ndarray and got.shape == shape
        want = np.array([v**k for v in x.ravel().tolist()]).reshape(shape)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    # Every exponent the callers use; 1.5 only on nonnegative bases, where Python's
    # power stays real.
    EXPONENTS = (2, 3, 4, 1.5)

    @staticmethod
    def _python_pow(v, k):
        try:
            return pow(v, float(k))
        except OverflowError:
            return None

    @classmethod
    def _largest_finite_base(cls, k):
        """The largest double whose k-th power is finite in Python's float power."""
        x = sys.float_info.max ** (1.0 / k)
        while cls._python_pow(math.nextafter(x, math.inf), k) is not None:
            x = math.nextafter(x, math.inf)
        while cls._python_pow(x, k) is None:
            x = math.nextafter(x, 0.0)
        return x

    @classmethod
    def _sample(cls, k):
        """Seeded uniform values in +-10, log-uniform magnitudes from 1e-300 to 1e300
        of both signs, and the special inputs; their magnitudes for k = 1.5."""
        rng = np.random.default_rng(int(k * 10))
        tiny = 5e-324
        specials = [0.0, -0.0, tiny, -tiny, 2.2e-308, -1.5e-310, math.inf, -math.inf, math.nan]
        top = cls._largest_finite_base(k)
        specials += [top, -top]
        x = np.concatenate([
            rng.uniform(-10.0, 10.0, 120_000),
            10.0 ** rng.uniform(-300.0, 300.0, 150_000) * rng.choice([-1.0, 1.0], 150_000),
            specials,
        ])
        return np.abs(x) if k == 1.5 else x

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("k", EXPONENTS)
    def test_equals_python_power_at_scale(self, k):
        x = self._sample(k)
        want = [self._python_pow(v, k) for v in x.tolist()]
        finite = np.array([w is not None for w in want])
        assert finite.sum() >= 200_000
        got = spectrum._pow(x[finite], k)
        want = np.array([w for w in want if w is not None])
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(got), nan)
        assert np.array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64))
        # Where Python's power overflows, _pow refuses the whole array as Python does.
        for v in x[~finite][:3].tolist():
            with pytest.raises(OverflowError) as info:
                spectrum._pow(np.array([1.0, v]), k)
            assert info.value.args == ERANGE


class TestPowOverflowContract:
    """An overflowing power is refused with Python's OverflowError(ERANGE) by every
    array caller, without a warning, and an underflow returns its value silently."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("call", [
        lambda: ep2_gamma(np.array([3.0, 1e80])),
        lambda: ep2_locate_numeric(np.array([3.0, 1e120])),
        lambda: _closed_form_stack(np.array([1.0, 1e60]), np.array([2.0, 2.0]), np.array([1.0, 1.0])),
        lambda: classify_grid(1.0, [0, 1, 1e60], [1.0, 2.0]),
    ], ids=["ep2_gamma", "ep2_locate_numeric", "closed_form_stack", "classify_grid"])
    def test_overflow_raises_erange(self, call):
        with pytest.raises(OverflowError) as info:
            call()
        assert info.value.args == ERANGE

    @pytest.mark.filterwarnings("error")
    def test_underflow_returns_silently(self):
        squares = spectrum._pow([1e-200, -1e-170, 5e-324], 2)
        assert squares.tolist() == [0.0] * 3 and not np.signbit(squares).any()
        cubes = spectrum._pow([-1e-110, -0.0], 3)
        assert cubes.tolist() == [0.0] * 2 and np.signbit(cubes).all()


@pytest.fixture
def solves(monkeypatch):
    """The points at which the closed-form core solves the cubic, counted at every
    package module that binds it."""
    calls = []
    original = spectrum._solve_cubic
    for name, module in list(sys.modules.items()):
        if name.startswith("lindblad_ep") and getattr(module, "_solve_cubic", None) is original:
            monkeypatch.setattr(module, "_solve_cubic",
                                lambda *point: calls.append(point) or original(*point))
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
            left, right = eigenvectors_closed_form(params, nu)
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
        assert solves == [(params.delta, params.d, params.gamma)]

    def test_zero_detuning_refused_before_the_cubic(self, solves):
        # p**3 overflows at d = 1e60; the delta = 0 refusal must come first.
        params = ModelParams(0.0, 1e60, 1.0)
        with pytest.raises(DomainError):
            classify(params)
        with pytest.raises(DomainError):
            spectral_evolve(params, initial_state("excited"), 0.5)
        assert solves == []


def outcome(solve, *args):
    """What ``solve(*args)`` returns, every float and array as its bits, or the type and
    message of what it raises."""
    def bits(x):
        if isinstance(x, np.ndarray):
            return x.dtype.str, x.shape, x.tobytes()
        if isinstance(x, (float, complex)):
            return np.array(x).tobytes()
        if isinstance(x, (tuple, list)):
            return tuple(map(bits, x))
        if hasattr(x, "__dataclass_fields__"):
            return tuple(bits(getattr(x, name)) for name in x.__dataclass_fields__)
        return x

    try:
        return bits(solve(*args))
    except (ArithmeticError, DomainError, NearDegenerateError) as exc:
        return type(exc), str(exc)


def point_api(params):
    """The one-point public API at ``params``, as :func:`outcome` records it."""
    rho0 = initial_state("coherent")
    return [outcome(classify, params), outcome(eigenvalues_closed_form, params),
            outcome(full_spectrum, params), outcome(spectral_evolve, params, rho0, 0.7),
            outcome(cardano_params, params)]


# Signed zeros, subnormals and unit-scale values, scaled by 10^-150, 1 or 10^150.
memo_points = st.builds(
    lambda delta, d, gamma, scale: ModelParams(delta * scale, d * scale, gamma * scale),
    st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308]), finite),
    st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308]), finite),
    st.one_of(st.sampled_from([0.0, -0.0, 5e-324, 2.2e-308]), coupling),
    st.sampled_from([1e-150, 1.0, 1e150]),
)

MEMOS = (spectrum._cubic_at, spectrum._modes_at)


def forget() -> None:
    """Empty the point memo."""
    for memo in MEMOS:
        memo.cache_clear()


class TestPointMemo:
    @settings(max_examples=150, deadline=None)
    @given(memo_points)
    @example(ModelParams(1.0, -0.0, 0.0))
    @example(ModelParams(1.0, D_EP3, G_EP3))
    @example(ModelParams(5e-324, 1.0, 4.0))
    @example(ModelParams(0.0, 1.0, 1.0))
    @example(ModelParams(*OVERFLOWING_CUBICS[0]))
    # gamma = 0 at large scales: spectral_evolve refuses a mode past the precision
    # horizon, where it used to return NaN through a RuntimeWarning.
    @example(ModelParams(1.0185e43, 1.0185e43, 0.0))
    @example(ModelParams(1e40, 1e40, 0.0))
    def test_a_warm_hit_equals_a_cold_solve(self, params):
        forget()
        cold = point_api(params)
        assert point_api(params) == cold

    @pytest.mark.parametrize("gamma", [0.0, 1.0])
    def test_signed_zero_is_its_own_point(self, gamma):
        plus, minus = ModelParams(1.0, 0.0, gamma), ModelParams(1.0, -0.0, gamma)
        cold = point_api(minus)
        forget()
        warm = point_api(plus)
        assert point_api(minus) == cold != warm
        assert math.copysign(1.0, classify(minus).d_tilde) == -1.0

    def test_returned_arrays_are_fresh(self):
        params, rho0 = ModelParams(1.0, 2.0, 1.0), initial_state("excited")
        first = point_api(params)
        spec, closed = full_spectrum(params), eigenvalues_closed_form(params)
        rho_t = spectral_evolve(params, rho0, 0.7)
        for array in (spec.eigenvalues, spec.left, spec.right, spec.residuals,
                      closed.eigenvalues, rho_t):
            array[...] = 7.0
        assert point_api(params) == first

    def test_memo_arrays_are_read_only(self):
        spec = spectrum._modes(ModelParams(1.0, 2.0, 1.0))
        for array in (spec.eigenvalues, spec.left, spec.right, spec.residuals):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0

    @pytest.mark.parametrize("params, solve, error", [
        (ModelParams(0.0, 1.0, 1.0), classify, DomainError),
        (ModelParams(1.0, D_EP3, G_EP3), full_spectrum, NearDegenerateError),
        (ModelParams(*OVERFLOWING_CUBICS[0]), eigenvalues_closed_form, OverflowError),
    ])
    def test_refusals_are_raised_cold_and_warm(self, params, solve, error):
        for _ in range(2):
            with pytest.raises(error):
                solve(params)

    def test_infinite_scaled_drive_labelled_cold_and_warm(self):
        # d/delta overflows to infinity; the band names the branch by the sign of q alone.
        forget()
        for _ in range(2):
            assert classify(ModelParams(5e-324, 1.0, 4.0)).region.value == "EP2Minus"

    def test_a_second_entry_point_solves_nothing(self, solves, tmp_path):
        params = ModelParams(1.0, 2.0, 1.0)
        classify(params)
        assert len(solves) == 1
        eigenvalues_closed_form(params)
        cardano_params(params)
        full_spectrum(params)
        spectral_evolve(params, initial_state("excited"), 0.5)
        assert main(["spectrum", "--delta", "1", "--d", "2", "--gamma", "1",
                     "--out", str(tmp_path / "spec.json")]) == 0
        assert len(solves) == 1

    def test_never_grows_past_its_bound(self):
        for k in range(3 * spectrum._MEMO_SIZE):
            params = ModelParams(1.0, 0.01 * k, 1.0)
            classify(params)
            full_spectrum(params)
        for memo in MEMOS:
            info = memo.cache_info()
            assert info.maxsize == spectrum._MEMO_SIZE == info.currsize

    def test_arrays_bypass_it(self):
        grid = np.linspace(0.0, 12.0, 7)
        classify_grid(1.0, grid, grid)
        _closed_form_stack(*np.ones((3, 5)))
        assert all(memo.cache_info().currsize == 0 for memo in MEMOS)


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

    def test_large_sets_rejected(self):
        # The brute force over n! pairings would not fit in memory for long sets.
        with pytest.raises(DomainError):
            match_distance(np.zeros(9), np.zeros(9))
        with pytest.raises(DomainError):
            match_distance(np.zeros((1, 4, 4)), np.zeros((1, 4, 4)))

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

    def test_stack_equals_per_row_calls(self):
        rng = np.random.default_rng(2025)
        a, b = rng.normal(size=(2, 500, 4)) + 1j * rng.normal(size=(2, 500, 4))
        # Sets drawn with replacement from three values give tied pairings.
        pool = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
        a = np.concatenate([a, rng.choice(pool[0], (500, 4))])
        b = np.concatenate([b, rng.choice(pool[1], (500, 4))])
        stacked = match_distance(a, b)
        assert stacked.shape == (1000,)
        assert np.array_equal(stacked, [match_distance(x, y) for x, y in zip(a, b)])

    def test_nan_is_never_hidden(self):
        a = np.array([[0.0, 1.0, np.nan, 3.0], [0.0, 1.0, 2.0, 3.0]])
        assert np.isnan(match_distance(a[0], a[1]))
        assert np.isnan(match_distance(a, a[::-1])).all()

    def test_tied_sums_report_the_largest_distance(self):
        # Both pairings of {0, 1} with {1, 2} sum to 2; the one through |0 - 2| is reported.
        assert match_distance([0.0, 1.0], [1.0, 2.0]) == 2.0
        assert match_distance([0.0, 1.0, 2.0, 3.0], [1.0, 2.0, 3.0, 4.0]) == 4.0
