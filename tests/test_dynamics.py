import math
import tracemalloc
import warnings

import numpy as np
import pytest

from lindblad_ep import (
    DomainError,
    LabParams,
    ModelParams,
    NearDegenerateError,
    StepSizeError,
    INITIAL_STATES,
    build_lindblad,
    check_density_matrix,
    devectorize,
    equilibrium_state,
    evolve_lab,
    evolve_rotating,
    frame_deviation,
    full_spectrum,
    hamiltonian_rwa,
    initial_state,
    largest_stable_dt,
    lindblad_rhs,
    rotate_to_lab,
    spectral_evolve,
    step_rk4,
    vectorize,
    verify_frame_equivalence,
)

D_EP3 = 2.0 * math.sqrt(2.0)
G_EP3 = 6.0 * math.sqrt(3.0)


def _expm(a: np.ndarray) -> np.ndarray:
    """exp(a) by a degree-18 Taylor series after scaling to 1-norm <= 1/2, then squaring."""
    squarings = max(0, math.ceil(math.log2(np.abs(a).sum(axis=0).max() / 0.5)))
    b = a / 2.0**squarings
    term = out = np.eye(4, dtype=complex)
    for k in range(1, 19):
        term = term @ b / k
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


class TestStepRK4:
    def test_scalar_decay(self):
        y = 1.0
        for i in range(10):
            y = step_rk4(lambda t, s: -s, i * 0.1, y, 0.1)
        assert abs(y - math.exp(-1.0)) < 1e-6

    def test_linear_system_phases(self):
        gen = -1j * np.diag([1.0, -1.0, 0.0, 0.0]).astype(complex)
        psi = np.full(4, 0.5, dtype=complex)
        for i in range(1000):
            psi = step_rk4(lambda t, s: gen @ s, i * 1e-3, psi, 1e-3)
        expected = 0.5 * np.exp(np.diag(gen) * 1.0)
        assert np.max(np.abs(psi - expected)) < 1e-8

    def test_fourth_order_convergence(self):
        gen = -1j * np.diag([1.0, -1.0, 0.0, 0.0]).astype(complex)
        expected = 0.5 * np.exp(np.diag(gen))

        def error_at(dt):
            psi = np.full(4, 0.5, dtype=complex)
            for i in range(int(round(1.0 / dt))):
                psi = step_rk4(lambda t, s: gen @ s, i * dt, psi, dt)
            return np.max(np.abs(psi - expected))

        ratio = error_at(0.02) / error_at(0.01)
        assert 13.0 < ratio < 19.0

    def test_positive_step_required(self):
        with pytest.raises(DomainError):
            step_rk4(lambda t, s: -s, 0.0, 1.0, 0.0)


class TestEvolveRotating:
    def test_population_decay_without_drive(self):
        traj = evolve_rotating(ModelParams(1.0, 0.0, 0.5), initial_state("excited"), 2.0, 1e-3)
        assert abs(traj.times[-1] - 2.0) < 1e-12
        assert abs(traj.final_state()[0, 0].real - math.exp(-1.0)) < 1e-8

    def test_coherence_decay_without_drive(self):
        rho0 = np.full((2, 2), 0.5, dtype=complex)
        traj = evolve_rotating(ModelParams(1.0, 0.0, 0.5), rho0, 2.0, 1e-3)
        expected = 0.5 * np.exp((-1j * 1.0 - 0.25) * 2.0)
        assert abs(traj.final_state()[0, 1] - expected) < 1e-8

    def test_relaxation_to_equilibrium(self):
        params = ModelParams(1.0, 2.0, 1.0)
        traj = evolve_rotating(params, initial_state("coherent"), 40.0, 1e-2)
        assert traj.dist_eq[-1] < 1e-6

    def test_trajectory_invariants(self):
        traj = evolve_rotating(ModelParams(1.0, 2.0, 1.0), initial_state("mixed"), 5.0, 1e-3)
        assert len(traj.times) == len(traj.states)
        assert np.all(np.diff(traj.times) > 0)
        assert float(traj.trace_dev.max()) < 1e-10
        assert float(traj.herm_dev.max()) < 1e-10

    def test_snapshot_cap(self):
        traj = evolve_rotating(ModelParams(1.0, 1.0, 1.0), initial_state("excited"), 5.0, 1e-3)
        assert len(traj.times) <= 1001
        assert abs(traj.times[-1] - 5.0) < 1e-12

    def test_unstable_step_aborts(self):
        with pytest.raises(StepSizeError):
            evolve_rotating(ModelParams(1.0, 2.0, 1.0), initial_state("excited"), 60.0, 3.0)

    def test_invalid_initial_state_rejected(self):
        with pytest.raises(DomainError):
            evolve_rotating(ModelParams(1.0, 1.0, 1.0), np.diag([2.0, -1.0]), 1.0, 1e-2)

    def test_invalid_step_rejected(self):
        with pytest.raises(DomainError):
            evolve_rotating(ModelParams(1.0, 1.0, 1.0), initial_state("excited"), 1.0, 2.0)

    def test_late_time_convergence_is_monotone(self):
        params = ModelParams(1.0, 2.0, 1.0)
        traj = evolve_rotating(params, initial_state("excited"), 30.0, 1e-2)
        late = traj.dist_eq[traj.times > 10.0]
        # allow tiny oscillation wiggle on top of the exponential envelope
        assert late[-1] < late[0]
        coarse = late[:: max(1, len(late) // 6)]
        assert all(b < a * 1.05 for a, b in zip(coarse, coarse[1:]))


def _stagewise_states(params, rho0, t_max, dt, times):
    """Stage-wise RK4 on -i L psi, saving the states at the given sample times."""
    gen = -1j * build_lindblad(params)
    saved = {int(round(t / dt)) for t in times}
    psi = vectorize(rho0)
    states = [psi]
    for i in range(1, int(round(t_max / dt)) + 1):
        psi = step_rk4(lambda t, s: gen @ s, (i - 1) * dt, psi, dt)
        if i in saved:
            states.append(psi)
    return devectorize(np.array(states))


class TestStepMatrix:
    @pytest.mark.parametrize("dt", [1e-3, 0.05])
    @pytest.mark.parametrize("name", INITIAL_STATES)
    def test_matches_stagewise_rk4(self, name, dt):
        # at dt = 0.05 RK4 truncation is ~1e-4, so an exact propagator would fail
        params = ModelParams(1.0, 2.0, 1.0)
        rho0 = initial_state(name)
        traj = evolve_rotating(params, rho0, 10.0, dt)
        ref = _stagewise_states(params, rho0, 10.0, dt, traj.times)
        assert ref.shape == traj.states.shape
        assert float(np.max(np.abs(traj.states - ref))) <= 1e-12

    def test_step_just_past_the_limit_is_refused(self):
        params = ModelParams(1.0, 2.0, 1.0)
        h = largest_stable_dt(params)
        with pytest.raises(StepSizeError) as info:
            evolve_rotating(params, initial_state("excited"), 1.01 * h, 1.01 * h)
        assert f"dt = {h:.6g}" in str(info.value)

    def test_step_just_inside_the_limit_integrates(self):
        params = ModelParams(1.0, 2.0, 1.0)
        h = largest_stable_dt(params)
        traj = evolve_rotating(params, initial_state("excited"), 0.99 * h, 0.99 * h)
        assert traj.n_steps == 1
        assert traj.stability_margin <= 1.0 + 1e-12

    def test_undamped_modes_are_not_refused(self):
        # gamma = 0: two modes on the imaginary axis, where |R| rounds to 1
        traj = evolve_rotating(ModelParams(1.0, 2.0, 0.0), initial_state("excited"), 40.0, 1e-3)
        assert float(traj.trace_dev.max()) < 1e-10
        assert abs(traj.stability_margin - 1.0) < 1e-12

    def test_trace_kept_to_the_last_bit_over_a_million_steps(self):
        # undamped, 10^6 steps: roundoff in powers of P must not build up in the trace
        traj = evolve_rotating(ModelParams(1.0, 2.0, 0.0), initial_state("coherent"), 1e4, 1e-2)
        assert float(traj.trace_dev.max()) <= 1e-15

    def test_limit_on_the_imaginary_axis(self):
        # undamped modes z = +-sqrt(delta^2 + d^2): RK4 is stable for |dt z| <= 2 sqrt(2)
        h = largest_stable_dt(ModelParams(1.0, 2.0, 0.0))
        assert abs(h - 2.0 * math.sqrt(2.0) / math.sqrt(5.0)) < 1e-12

    def test_zero_generator_has_no_limit(self):
        assert largest_stable_dt(ModelParams(0.0, 0.0, 0.0)) == math.inf

    # The eigenvalues of L are about 2.4e308 here: no step size can be named.
    def test_overflowing_generator_is_refused_as_an_overflow(self):
        params = ModelParams(1.7e308, 1.7e308, 1e154)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in (lambda: largest_stable_dt(params),
                         lambda: evolve_rotating(params, initial_state("excited"), 10.0, 1e-3)):
                with pytest.raises(OverflowError, match="eigenvalues overflow a double"):
                    call()


class TestTrajectoryRecord:
    def test_rotating_run_records_steps_and_margin(self):
        traj = evolve_rotating(ModelParams(1.0, 2.0, 1.0), initial_state("excited"), 5.0, 1e-3)
        assert traj.n_steps == 5000
        assert traj.stride == 5
        assert len(traj.times) == 1001
        assert abs(traj.stability_margin - 1.0) < 1e-12

    def test_partial_last_stride(self):
        traj = evolve_rotating(ModelParams(1.0, 2.0, 1.0), initial_state("excited"), 2.503, 1e-3)
        assert (traj.n_steps, traj.stride) == (2503, 3)
        assert abs(traj.times[-1] - 2.503) < 1e-12
        assert abs(traj.times[-2] - 2.502) < 1e-12
        ref = _stagewise_states(ModelParams(1.0, 2.0, 1.0), initial_state("excited"),
                                2.503, 1e-3, traj.times)
        assert float(np.max(np.abs(traj.states - ref))) <= 1e-12

    def test_diagnostics_match_per_sample_reference(self):
        lab = LabParams(Delta=2.0, omega=1.0, d=1.0, gamma=0.3)
        traj = evolve_lab(lab, initial_state("excited"), 1.0, 1e-2)
        rho_eq = equilibrium_state(lab.to_rotating())
        for k, (t, rho) in enumerate(zip(traj.times, traj.states)):
            assert traj.trace_dev[k] == abs(complex(np.trace(rho)) - 1.0)
            assert traj.herm_dev[k] == float(np.max(np.abs(rho - rho.conj().T)))
            dist = float(np.max(np.abs(rho - rotate_to_lab(rho_eq, lab.omega, t))))
            assert abs(traj.dist_eq[k] - dist) < 1e-15

    def test_lab_run_has_no_margin(self):
        lab = LabParams(Delta=2.0, omega=1.0, d=1.0, gamma=0.3)
        traj = evolve_lab(lab, initial_state("excited"), 1.0, 1e-2)
        assert (traj.n_steps, traj.stride) == (100, 1)
        assert traj.stability_margin is None


class TestEvolveLab:
    def test_zero_frequency_matches_rotating_frame(self):
        lab = LabParams(Delta=1.0, omega=0.0, d=2.0, gamma=1.0)
        rho0 = initial_state("coherent")
        tl = evolve_lab(lab, rho0, 3.0, 1e-3)
        tr = evolve_rotating(lab.to_rotating(), rho0, 3.0, 1e-3)
        worst = max(
            float(np.max(np.abs(a - b))) for a, b in zip(tl.states, tr.states)
        )
        assert worst < 1e-12

    def test_populations_frame_invariant_without_drive(self):
        lab = LabParams(Delta=2.0, omega=1.3, d=0.0, gamma=0.7)
        rho0 = initial_state("excited")
        tl = evolve_lab(lab, rho0, 3.0, 1e-3)
        tr = evolve_rotating(lab.to_rotating(), rho0, 3.0, 1e-3)
        for a, b in zip(tl.states, tr.states):
            assert abs(a[0, 0] - b[0, 0]) < 1e-12
            assert abs(a[1, 1] - b[1, 1]) < 1e-12

    def test_conservation_along_driven_run(self):
        lab = LabParams(Delta=2.0, omega=1.0, d=1.0, gamma=0.3)
        traj = evolve_lab(lab, initial_state("excited"), 5.0, 1e-3)
        assert float(traj.trace_dev.max()) < 1e-10
        assert float(traj.herm_dev.max()) < 1e-10

    def test_overflowing_generator_is_refused_as_an_overflow(self):
        lab = LabParams(Delta=1.7e308, omega=1.0, d=1.7e308, gamma=1e154)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError, match="eigenvalues overflow a double"):
                evolve_lab(lab, initial_state("excited"), 10.0, 1e-3)


def _stagewise_lab_states(params, rho0, dt, times):
    """Stage-wise RK4 on the 2x2 lab master equation, saving the states at the given times."""

    def rhs(t, rho):
        return lindblad_rhs(hamiltonian_rwa(params, t), params.gamma, rho)

    saved = [int(round(t / dt)) for t in times]
    rho = np.asarray(rho0, dtype=complex)
    states = [rho]
    for i in range(1, saved[-1] + 1):
        rho = step_rk4(rhs, (i - 1) * dt, rho, dt)
        if i in saved:
            states.append(rho)
    return np.array(states)


class TestLabStepMatrices:
    # 2503 steps end on a partial stride; all 549 steps of the last case are saved
    @pytest.mark.parametrize(
        "t_max, dt, n_steps, stride",
        [(5.0, 1e-3, 5000, 5), (5.0, 0.02, 250, 1), (5.0, 0.04, 125, 1),
         (2.503, 1e-3, 2503, 3), (5.49, 0.01, 549, 1)],
    )
    def test_matches_stagewise_rk4(self, t_max, dt, n_steps, stride):
        lab = LabParams(Delta=2.0, omega=1.0, d=1.0, gamma=0.3)
        rho0 = initial_state("coherent")
        traj = evolve_lab(lab, rho0, t_max, dt)
        assert (traj.n_steps, traj.stride) == (n_steps, stride)
        ref = _stagewise_lab_states(lab, rho0, dt, traj.times)
        assert ref.shape == traj.states.shape
        assert float(np.max(np.abs(traj.states - ref))) <= 1e-12

    @pytest.mark.parametrize("gamma", [0.0, 0.3])
    def test_trace_kept_to_the_last_bit(self, gamma):
        lab = LabParams(Delta=2.0, omega=1.0, d=1.0, gamma=gamma)
        traj = evolve_lab(lab, initial_state("coherent"), 20.0, 1e-3)
        assert float(traj.trace_dev.max()) == 0.0

    # at dt = 1e200 the step matrix itself overflows
    @pytest.mark.parametrize("t_max, dt", [(400.0, 1.6), (400.0, 2.0), (1e200, 1e200)])
    def test_unstable_step_refused_before_integrating(self, t_max, dt):
        with pytest.raises(StepSizeError, match="unstable: a mode grows"):
            evolve_lab(LabParams(2.0, 1.0, 1.0, 0.3), initial_state("excited"), t_max, dt)

    def test_coarse_stable_step_integrates(self):
        # stable but coarse: the entry magnitudes settle, off the exact equilibrium
        traj = evolve_lab(LabParams(2.0, 1.0, 1.0, 0.3), initial_state("excited"), 400.0, 1.3)
        magnitudes = np.abs(traj.states)
        assert float(np.max(magnitudes)) <= 1.0
        assert float(np.max(np.abs(magnitudes[-10:] - magnitudes[-1]))) < 1e-8

    def test_undamped_modes_are_not_refused(self):
        traj = evolve_lab(LabParams(2.0, 1.0, 1.0, 0.0), initial_state("excited"), 10.0, 1e-3)
        assert float(traj.herm_dev.max()) < 1e-10

    def test_memory_does_not_grow_with_the_step_count(self):
        lab = LabParams(Delta=2.0, omega=1.0, d=1.0, gamma=0.3)
        rho0 = initial_state("excited")
        tracemalloc.start()
        try:
            traj = evolve_lab(lab, rho0, 100.0, 1e-3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert traj.n_steps == 100_000
        assert peak < 2 * 2**20


class TestLongHorizon:
    # 10^163 steps: past 2**63, where integer step indices leave int64
    @pytest.mark.parametrize("frame", ["lab", "rotating"])
    def test_run_past_int64_steps(self, frame, hang_guard):
        lab = LabParams(Delta=2.0, omega=1.0, d=1.0, gamma=0.3)
        rho0 = initial_state("excited")
        with hang_guard(30):
            if frame == "lab":
                traj = evolve_lab(lab, rho0, 1e160, 1e-3)
            else:
                traj = evolve_rotating(lab.to_rotating(), rho0, 1e160, 1e-3)
        assert traj.n_steps > 2**63
        assert traj.times.dtype == np.float64
        assert traj.times[-1] == 1e160
        assert np.isfinite(traj.states).all()
        assert float(traj.trace_dev.max()) == 0.0
        assert traj.dist_eq[-1] < 1e-12


class TestFrameEquivalence:
    def test_canonical_parameters(self):
        lab = LabParams(Delta=2.0, omega=1.0, d=1.0, gamma=0.3)
        dev = verify_frame_equivalence(lab, initial_state("excited"), 10.0, 1e-3)
        assert dev < 1e-8

    def test_exact_at_zero_frequency(self):
        lab = LabParams(Delta=1.0, omega=0.0, d=1.0, gamma=0.3)
        dev = verify_frame_equivalence(lab, initial_state("excited"), 10.0, 1e-3)
        assert dev < 1e-12

    def test_fourth_order_in_step(self):
        lab = LabParams(Delta=2.0, omega=1.0, d=1.0, gamma=0.3)
        rho0 = initial_state("excited")
        coarse = verify_frame_equivalence(lab, rho0, 10.0, 0.04)
        fine = verify_frame_equivalence(lab, rho0, 10.0, 0.02)
        assert 13.0 < coarse / fine < 19.0


    def test_frame_deviation_is_the_per_sample_worst(self):
        lab = LabParams(Delta=2.0, omega=1.0, d=1.0, gamma=0.3)
        rho0 = initial_state("excited")
        tl = evolve_lab(lab, rho0, 2.0, 0.02)
        tr = evolve_rotating(lab.to_rotating(), rho0, 2.0, 0.02)
        per_sample = max(
            float(np.max(np.abs(a - rotate_to_lab(b, lab.omega, t))))
            for t, a, b in zip(tl.times, tl.states, tr.states)
        )
        assert frame_deviation(tl, tr, lab.omega) == per_sample

    # (2.2, 0.02) gives another sample count; (4.0, 0.04) the same count at other times
    @pytest.mark.parametrize("t_max, dt", [(2.2, 0.02), (4.0, 0.04)])
    def test_frame_deviation_refuses_different_sample_times(self, t_max, dt):
        lab = LabParams(Delta=2.0, omega=1.0, d=1.0, gamma=0.3)
        rho0 = initial_state("excited")
        tl = evolve_lab(lab, rho0, 2.0, 0.02)
        tr = evolve_rotating(lab.to_rotating(), rho0, t_max, dt)
        with pytest.raises(DomainError, match="sample times"):
            frame_deviation(tl, tr, lab.omega)


class TestSpectralEvolve:
    def test_identity_at_t0(self):
        params = ModelParams(1.0, 2.0, 1.0)
        rho0 = initial_state("coherent")
        assert np.max(np.abs(spectral_evolve(params, rho0, 0.0) - rho0)) < 1e-10

    def test_mode_sum_equals_the_loop_within_roundoff(self):
        rng = np.random.default_rng(11)
        checked = 0
        while checked < 200:
            params = ModelParams(rng.uniform(-2, 2), rng.uniform(-4, 4), rng.uniform(0, 10))
            try:
                spec = full_spectrum(params)
            except NearDegenerateError:
                continue
            rho0 = initial_state(INITIAL_STATES[checked % len(INITIAL_STATES)])
            t = rng.uniform(0.0, 10.0)
            psi0 = vectorize(rho0)
            psi_t = np.zeros(4, dtype=complex)
            bound = np.zeros(4)
            for nu in range(4):
                phase = np.exp(-1j * spec.eigenvalues[nu] * t)
                psi_t = psi_t + phase * (spec.left[nu] @ psi0) * spec.right[nu]
                bound += abs(phase) * (np.abs(spec.left[nu]) @ np.abs(psi0)) * np.abs(spec.right[nu])
            got = vectorize(spectral_evolve(params, rho0, t))
            # the sum and the overlaps may be accumulated in another order
            assert (np.abs(got - psi_t) <= 8 * np.finfo(float).eps * bound).all()
            checked += 1

    @pytest.mark.parametrize("rho0", [np.eye(3) / 3.0, np.array([[2.0, 0.0], [0.0, 5.0]]),
                                      np.array([[0.5, 0.5], [0.0, 0.5]])])
    def test_non_density_matrix_refused(self, rho0):
        with pytest.raises(DomainError):
            spectral_evolve(ModelParams(1.0, 2.0, 1.0), rho0, 1.0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf, -1.0, -5e-324])
    def test_negative_or_non_finite_time_refused(self, t):
        with pytest.raises(DomainError, match="t must be finite and >= 0"):
            spectral_evolve(ModelParams(1.0, 2.0, 1.0), initial_state("excited"), t)

    def test_long_time_limit_is_equilibrium(self):
        params = ModelParams(1.0, 2.0, 1.0)
        rho = spectral_evolve(params, initial_state("excited"), 200.0)
        assert np.max(np.abs(rho - equilibrium_state(params))) < 1e-12

    # The decaying modes' phases overflow while their moduli underflow to 0.
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale, t", [(1.0, 1.7e308), (1.0, 1e300), (1e40, 1e270)])
    def test_astronomical_time_is_exactly_equilibrium(self, scale, t):
        params = ModelParams(scale, 2.0 * scale, scale)
        for name in INITIAL_STATES:
            rho = spectral_evolve(params, initial_state(name), t)
            assert np.array_equal(rho, equilibrium_state(params))

    # At gamma = 0 nothing decays, and at these scales the closed form splits the
    # double zero by roundoff.  A mode's phase |z| t passes 1/eps, or the spurious
    # growth exp(Im(z) t) of the split pair passes the largest double: no digit of the
    # state is known.  Both used to return NaN through a RuntimeWarning.
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("point, reason", [
        ((1e16, 1e16, 0.0), "exceeds 1/eps"),
        ((1e20, 2e20, 0.0), "growth exp"),
        ((1e40, 1e40, 0.0), "growth exp"),
    ])
    def test_past_the_precision_horizon_refused(self, point, reason):
        for name in INITIAL_STATES:
            with pytest.raises(DomainError, match=f"past the precision horizon.*{reason}"):
                spectral_evolve(ModelParams(*point), initial_state(name), 0.7)

    def test_matches_integrator(self):
        params = ModelParams(1.0, 2.0, 1.0)
        rho0 = initial_state("coherent")
        traj = evolve_rotating(params, rho0, 5.0, 1e-3)
        for idx in range(0, len(traj.times), len(traj.times) // 10):
            rho_spec = spectral_evolve(params, rho0, float(traj.times[idx]))
            assert np.max(np.abs(rho_spec - traj.states[idx])) < 1e-7

    # A fixed column of adj(L - zI) cancels as d -> 0 and vanishes at d = 0;
    # the largest one does neither.
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("d", [1e-2, 1e-4, 1e-6, 1e-8, 1e-12, 0.0])
    def test_small_drive_matches_matrix_exponential(self, d):
        params = ModelParams(1.0, d, 0.7)
        rho0 = initial_state("coherent")
        exact = devectorize(_expm(-3j * build_lindblad(params)) @ vectorize(rho0))
        assert np.max(np.abs(spectral_evolve(params, rho0, 3.0) - exact)) <= 1e-12
        assert full_spectrum(params).residuals.max() <= 1e-12

    def test_refused_at_the_triple_point(self):
        with pytest.raises(NearDegenerateError):
            spectral_evolve(ModelParams(1.0, D_EP3, G_EP3), initial_state("excited"), 1.0)

    def test_refused_on_a_curve(self):
        from lindblad_ep import ep2_gamma

        _, gp = ep2_gamma(3.0)
        with pytest.raises(NearDegenerateError):
            spectral_evolve(ModelParams(1.0, 3.0, gp), initial_state("excited"), 1.0)


def _with_entry(at: tuple[int, int], value: float) -> np.ndarray:
    rho = initial_state("mixed")
    rho[at] = value
    return rho


NON_FINITE_STATES = [
    pytest.param(_with_entry(at, value), id=f"{value}-at-{at[0]}{at[1]}")
    for value in (math.nan, math.inf) for at in ((0, 0), (0, 1), (1, 0), (1, 1))
] + [
    pytest.param(np.array([[math.nan, 0.0], [0.0, 1.0]]), id="nan-population"),
    pytest.param(np.array([[1.0, math.inf], [math.inf, 0.0]]), id="inf-coherences"),
    pytest.param(np.array([[0.5, math.nan], [math.nan, 0.5]]), id="nan-coherences"),
]

STATE_CONSUMERS = {
    "check_density_matrix": check_density_matrix,
    "spectral_evolve": lambda rho0: spectral_evolve(ModelParams(1.0, 2.0, 1.0), rho0, 1.0),
    "evolve_rotating": lambda rho0: evolve_rotating(ModelParams(1.0, 2.0, 1.0), rho0, 1.0, 0.01),
    "evolve_lab": lambda rho0: evolve_lab(LabParams(1.5, 0.5, 2.0, 1.0), rho0, 1.0, 0.01),
}


class TestNonFiniteStates:
    # A "defect > tol" test is false for NaN; the state checks are written
    # "not within tol", so a NaN or infinite entry is refused as a state
    # before anything is integrated, and not blamed on the step.
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("consume", list(STATE_CONSUMERS.values()), ids=list(STATE_CONSUMERS))
    @pytest.mark.parametrize("rho0", NON_FINITE_STATES)
    def test_refused_as_a_state(self, consume, rho0):
        with pytest.raises(DomainError, match="density matrix"):
            consume(rho0)
