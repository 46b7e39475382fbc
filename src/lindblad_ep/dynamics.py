"""Fixed-step time evolution in both frames, plus a spectral propagator.

Both frames use classical fourth-order Runge-Kutta with a fixed step: the
state space is four dimensional and linear, so adaptive stepping would buy
nothing and cost reproducibility.

The rotating-frame system dpsi/dt = -i L psi has a constant generator, so one
RK4 step is exactly the matrix polynomial P = R(-i dt L) with the stability
function R(w) = 1 + w + w^2/2 + w^3/6 + w^4/24.  That path builds P once,
checks before integrating that no mode grows (|R(-i dt z)| over the
eigenvalues z of L), and advances sample to sample by powers of P.

The lab-frame generator depends on time through the drive phase.  That path
builds it from the 2x2 master equation (never from the rotating generator)
and evaluates the drive at the stage times of the first step
P_0 = I + dt/6 (K1 + 2 K2 + 2 K3 + K4).  Every later step is a unitary frame
rotation of P_0, so the n-step product is V(t_n) S^n with the one step
S = V(dt)^-1 P_0.  The path checks before integrating that S has spectral
radius at most 1 and samples by powers of S through the rotating path's
loop; the two share no step matrix, so their agreement is an independent check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NearDegenerateError, StepSizeError
from .exceptional import _EP_REGIONS, classify
from .model import (
    _HS_INDEX,
    LabParams,
    ModelParams,
    _refuse,
    check_density_matrix,
    devectorize,
    hermiticity_defect,
    max_abs,
    rotate_to_lab,
    trace_defect,
    vectorize,
)
from .spectrum import _modes
from .superop import build_lindblad, equilibrium_state, lindblad_rhs

# Snapshot cadence: at most this many saved states per trajectory.
MAX_SAVED = 1001

# A trace drift past this threshold aborts the run: for these generators the
# trace is conserved exactly by any Runge-Kutta step, so visible drift means
# the iteration is unstable (dt too large), not merely inaccurate.  Both
# paths also refuse, before integrating, any step whose per-step
# amplification compounds past 1 + TRACE_BLOWUP_TOL over the run.
TRACE_BLOWUP_TOL = 1e-8

# Trace deviation above which `evolve` and `verify` fail a finished trajectory.
_TRACE_TOL = 1e-10

# Coordinates (rho_eg, rho_ge, rho_ee - rho_gg, trace) for the step matrices.
# The generator's population rows are exact negatives, so its trace row is
# exactly zero here and every product of step matrices keeps the trace to the
# last bit; in the flattened layout roundoff in the trace would grow with the
# number of steps.
_TO_TRACE_BASIS = np.array(
    [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, -1.0], [0.0, 0.0, 1.0, 1.0]]
)
_FROM_TRACE_BASIS = np.array(
    [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 0.5, 0.5], [0.0, 0.0, -0.5, 0.5]]
)

# The matrix units whose vectorize is each basis vector of the flattened layout in turn.
_UNITS = np.eye(4, dtype=complex)[_HS_INDEX].reshape(4, 2, 2)

# Largest phase |z| t, in radians, that a double still resolves: past 1/eps the
# spacing of doubles near |z| t exceeds 2 pi, so exp(-i z t) has no correct digit.
_PHASE_HORIZON = 1.0 / np.finfo(float).eps

# |w| = 4 lies outside the RK4 stability region in every direction (the region
# reaches |w| ~ 2.96), so the step s = 4 brackets the stability boundary.
_OUTSIDE_STABILITY_REGION = 4.0


@dataclass(frozen=True)
class Trajectory:
    """Integration record: sample times, states and per-sample diagnostics.

    ``dist_eq`` is the max-norm distance to the stationary state (for
    lab-frame runs, to the stationary state carried into the lab frame at the
    sample time).  ``n_steps`` RK4 steps of size ``times[1] - times[0]``
    were taken, saving every ``stride``-th state and the final one.
    ``stability_margin`` is max |R(-i dt z)| over the generator's eigenvalues
    z, the largest per-step amplification of any mode (1 for a stable step:
    the stationary mode has R = 1); it is ``None`` for lab-frame runs, whose
    generator depends on time.
    """

    times: np.ndarray
    states: np.ndarray
    trace_dev: np.ndarray
    herm_dev: np.ndarray
    dist_eq: np.ndarray
    n_steps: int
    stride: int
    stability_margin: float | None


def _growth(s: float, units: np.ndarray) -> float:
    """Largest |R(w)|^2 - 1 over w = -i s u, for the RK4 stability function R(w) = 1 + p(w).

    With u = z / c from :func:`_finite_eigenvalues` and s = dt c, the growth of
    the rotating step, 0 for the zero generator.  Re 2p + |p|^2 never forms
    1 + p, against which the |w|^6 excess of an undamped mode would round away;
    on the imaginary axis both terms are (Im w)^2 rounded once and cancel
    exactly, also where that square is subnormal.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        w = -1j * s * units
        p2 = w * (2.0 + w * (1.0 + w / 3.0 * (1.0 + w / 4.0)))
        return float(np.max(p2.real + np.abs(p2 / 2.0) ** 2))


def _largest_stable_dt(scale: float, units: np.ndarray) -> float:
    """Largest dt with ``_growth(dt * scale, units) <= 0``: the boundary of the rotating gate.

    On each ray w = -i s u into the closed left half-plane |R| crosses 1 once,
    so the stable s form an interval from 0, which s = 4 exceeds (|u| >= 1 for
    the largest part).  One bisection on s, until the bracket ends are adjacent
    doubles, finds its end.  ``inf`` for the zero generator and where dt overflows.
    """
    lo, hi = 0.0, _OUTSIDE_STABILITY_REGION
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        lo, hi = (mid, hi) if _growth(mid, units) <= 0.0 else (lo, mid)
    return lo / scale if scale else math.inf


def _finite_eigenvalues(generator: np.ndarray) -> tuple[float, np.ndarray]:
    """Eigenvalues z of a 4x4 generator as their scale c = max(|Re z|, |Im z|) and z / c.

    No mode of a Lindblad generator grows, so LAPACK's positive Im z is
    roundoff, mostly the null mode's: Im z -> min(Im z, 0).  The parts are
    divided as reals, as a reciprocal of a subnormal c would overflow; c,
    unlike max|z|, is finite for any finite z.  Raises :class:`OverflowError`
    when the generator or z is not finite: no step size mends that.
    """
    if np.isfinite(generator).all():
        zs = np.linalg.eigvals(generator)
        if np.isfinite(zs).all():
            zs.imag = np.minimum(zs.imag, 0.0)
            parts = zs.view(float)
            scale = float(np.max(np.abs(parts)))
            return scale, (parts / (scale or 1.0)).view(complex)
    raise OverflowError("the generator's eigenvalues overflow a double")


def largest_stable_dt(params: ModelParams) -> float:
    """Largest rotating-frame RK4 step under which no mode of the generator grows.

    The boundary of the rotating frame's step gate, found by bisection on dt over
    LAPACK's eigenvalues projected onto the closed lower half-plane (no mode
    grows, so a positive Im z is roundoff).  ``inf`` when the generator vanishes.
    """
    return _largest_stable_dt(*_finite_eigenvalues(build_lindblad(params)))


def _remedy(spectrum: tuple[float, np.ndarray] | None) -> str:
    """The advice of a refusal: given the rotating generator's scaled eigenvalues
    (:func:`_finite_eigenvalues`), the largest stable step; in the lab frame,
    whose generator depends on time, "reduce dt"."""
    if spectrum is None:
        return "reduce dt"
    return f"the largest stable step is dt = {_largest_stable_dt(*spectrum):.6g}"


def _refuse_growth(
    excess: float, factor: float, dt: float, n_steps: int, spectrum: tuple | None
) -> None:
    """Gate before sampling: raise :class:`StepSizeError` if a mode's growth compounds.

    ``factor`` is the largest per-step amplification a of any mode and
    ``excess`` is a^2 - 1, which each frame measures on its own step.  The test
    is a^n_steps > 1 + TRACE_BLOWUP_TOL, taken in logarithms: a bare a > 1 test
    would reject the undamped modes, whose a may round to just above 1.
    """
    if (excess > 0.0 or math.isnan(excess)) and not (
        0.5 * n_steps * math.log1p(excess) <= math.log1p(TRACE_BLOWUP_TOL)
    ):
        raise StepSizeError(
            f"dt = {dt:.6g} is unstable: a mode grows by a factor {factor:.6g} "
            f"per step, over {n_steps} step(s); {_remedy(spectrum)}"
        )


def _schedule(t_max: float, dt: float) -> tuple[int, int, list[int]]:
    """Step count, save stride and the saved step indices (every stride-th and the last)."""
    if not (dt > 0 and dt <= t_max):
        raise DomainError(f"need 0 < dt <= t_max, got dt={dt}, t_max={t_max}")
    if not math.isfinite(t_max / dt):
        raise DomainError(f"need a finite step count t_max / dt, got dt={dt}, t_max={t_max}")
    n_steps = max(1, int(round(t_max / dt)))
    stride = max(1, math.ceil(n_steps / (MAX_SAVED - 1)))
    saved = list(range(0, n_steps + 1, stride))
    if saved[-1] != n_steps:
        saved.append(n_steps)
    return n_steps, stride, saved


def _sample(step: np.ndarray, stride: int, saved: list[int], psi0: np.ndarray) -> np.ndarray:
    """The vectors step^n psi0 at the saved step indices n, one row per sample.

    Advances sample to sample by step^stride, and by step^gap for a partial
    last stride, so the cost grows with the number of samples and the
    logarithm of the stride, not with the step count.  Each row is one
    matrix-vector product written in place from the row before it; ``dot``
    reaches the same BLAS routine as ``@``, so the rows are the same bits.
    """
    psi = np.empty((len(saved), 4), dtype=complex)
    psi[0] = psi0
    gap = saved[-1] - saved[-2]
    # A power that overflows is left to the drift backstop of _trajectory.
    with np.errstate(over="ignore", invalid="ignore"):
        step_stride = np.linalg.matrix_power(step, stride)
        advance = step_stride.dot
        for prev, out in zip(psi[:-2], psi[1:-1]):
            advance(prev, out=out)
        last = step_stride if gap == stride else np.linalg.matrix_power(step, gap)
        last.dot(psi[-2], out=psi[-1])
    return psi


def _trajectory(psi, times, rho_eq, n_steps, stride, margin, spectrum) -> Trajectory:
    """The :class:`Trajectory` of the sampled trace-coordinate vectors ``psi``.

    The drift backstop runs first: it raises :class:`StepSizeError` at the
    first sample whose state is not finite or whose trace drifted past
    :data:`TRACE_BLOWUP_TOL`, with the remedy of :func:`_remedy`.  ``rho_eq``
    is one 2x2 state or a stack matching the samples.
    """
    states = devectorize(psi @ _FROM_TRACE_BASIS.T)
    trace_dev = trace_defect(states)
    finite = np.isfinite(states).all(axis=(1, 2))
    _refuse(~(trace_dev <= TRACE_BLOWUP_TOL) | ~finite, StepSizeError,
            lambda k: (f"trace drifted by {trace_dev[k]:.3e}" if finite[k]
                       else "state is not finite")
            + f" at t = {times[k]:.6g}; the step is unstable, {_remedy(spectrum)}")
    herm_dev = hermiticity_defect(states)
    dist_eq = np.max(np.abs(states - rho_eq), axis=(1, 2))
    return Trajectory(times, states, trace_dev, herm_dev, dist_eq, n_steps, stride, margin)


def evolve_rotating(
    params: ModelParams, rho0: np.ndarray, t_max: float, dt: float
) -> Trajectory:
    """Integrate the time-independent flattened system from ``rho0``.

    Saves at most :data:`MAX_SAVED` snapshots (the final state always
    included).  Raises :class:`StepSizeError` before integrating if ``dt``
    lies outside the stability region, naming the largest stable step, and
    after integrating if the trace drifted anyway; ``OverflowError`` before
    integrating if the generator or its eigenvalues overflow a double.
    """
    rho0 = check_density_matrix(rho0)
    n_steps, stride, saved = _schedule(t_max, dt)
    L = build_lindblad(params)
    spectrum = _finite_eigenvalues(L)
    # Near the largest double the change of basis can overflow where L and its
    # eigenvalues do not: no step mends that, so it is refused before the gate.
    with np.errstate(over="ignore", invalid="ignore"):
        generator = _TO_TRACE_BASIS @ L @ _FROM_TRACE_BASIS
    if not np.isfinite(generator).all():
        raise OverflowError("the generator in trace coordinates overflows a double")
    rho_eq = equilibrium_state(params)
    excess = _growth(dt * spectrum[0], spectrum[1])
    margin = 0.0 if excess <= -1.0 else math.sqrt(1.0 + excess)
    _refuse_growth(excess, margin, dt, n_steps, spectrum)

    a = -1j * dt * generator
    eye = np.eye(4)
    step = eye + a @ (eye + a @ (eye + a @ (eye + a / 4.0) / 3.0) / 2.0)
    psi = _sample(step, stride, saved, _TO_TRACE_BASIS @ vectorize(rho0))
    times = np.array(saved, dtype=float) * dt
    return _trajectory(psi, times, rho_eq, n_steps, stride, margin, spectrum)


def _lab_generators(params: LabParams) -> np.ndarray:
    """G0, G+ and G- of the lab generator G0 + e^{-i omega t} G+ + e^{i omega t} G-.

    Built from the 2x2 master equation alone (never from the 4x4 rotating
    generator): one :func:`lindblad_rhs` call on the stack of the matrix units
    gives the columns, as rho enters linearly, once for the static Hamiltonian
    with the decay and once for each drive component.  Returned in trace
    coordinates, where the trace row of each is exactly zero.
    """
    half = 0.5 * params.d
    parts = (
        (np.array([[params.Delta, 0.0], [0.0, 0.0]], dtype=complex), params.gamma),
        (np.array([[0.0, half], [0.0, 0.0]], dtype=complex), 0.0),
        (np.array([[0.0, 0.0], [half, 0.0]], dtype=complex), 0.0),
    )
    gens = np.array([lindblad_rhs(h, gamma, _UNITS).reshape(4, 4)[:, _HS_INDEX].T
                     for h, gamma in parts])
    return _TO_TRACE_BASIS @ gens @ _FROM_TRACE_BASIS


def _lab_step(gens: np.ndarray, omega: float, dt: float) -> np.ndarray:
    """The lab step S = V(dt)^-1 P_0 in trace coordinates: P_{n-1}...P_0 = V(t_n) S^n.

    P_0 = I + dt/6 (K1 + 2 K2 + 2 K3 + K4) is the RK4 step from t = 0, the
    drive evaluated at the stage times 0, dt/2 and dt as a stage-wise step
    would.  The lab generator obeys L(t + s) = V(t) L(s) V(t)^-1 with the unitary
    V(t) = diag(e^{-i omega t}, e^{i omega t}, 1, 1), so P_i = V(t_i) P_0 V(t_i)^-1.
    """
    phase = np.exp(-1j * omega * np.array([0.0, 0.5 * dt, dt]))[:, None, None]
    a1, a2, a4 = gens[0] + phase * gens[1] + np.conj(phase) * gens[2]
    k2 = a2 + (0.5 * dt) * (a2 @ a1)
    k3 = a2 + (0.5 * dt) * (a2 @ k2)
    k4 = a4 + dt * (a4 @ k3)
    undo = np.array([np.exp(1j * omega * dt), np.exp(-1j * omega * dt), 1.0, 1.0])
    return undo[:, None] * (np.eye(4) + (dt / 6.0) * (a1 + 2.0 * k2 + 2.0 * k3 + k4))


def evolve_lab(
    params: LabParams, rho0: np.ndarray, t_max: float, dt: float
) -> Trajectory:
    """Integrate the lab-frame master equation with the oscillatory drive.

    The drive is evaluated at every Runge-Kutta stage time; the state after
    n steps is V(t_n) S^n psi_0 with the step S of :func:`_lab_step`, sampled
    by powers of S.  Agrees with :func:`evolve_rotating` to roundoff when
    omega = 0.  Raises :class:`StepSizeError` before integrating if ``dt``
    makes some mode grow, and after integrating if a saved state is not
    finite or its trace drifted anyway.
    """
    rho0 = check_density_matrix(rho0)
    n_steps, stride, saved = _schedule(t_max, dt)
    if not math.isfinite(params.omega * t_max):
        raise DomainError(f"the drive phase overflows, got omega={params.omega}, t_max={t_max}")
    rho_eq_rot = equilibrium_state(params.to_rotating())
    with np.errstate(over="ignore", invalid="ignore"):
        gens = _lab_generators(params)
        _finite_eigenvalues(gens.sum(axis=0))  # the generator at t = 0
        step = _lab_step(gens, params.omega, dt)
        # V is unitary, so the run is stable exactly when S has spectral radius
        # at most 1.  An S that overflowed counts as unbounded growth.
        finite = np.isfinite(step).all()
        radius = float(np.max(np.abs(np.linalg.eigvals(step)))) if finite else math.inf
    _refuse_growth(radius * radius - 1.0, radius, dt, n_steps, None)

    psi = _sample(step, stride, saved, _TO_TRACE_BASIS @ vectorize(rho0))
    times = np.array(saved, dtype=float) * dt
    phase = np.exp(-1j * params.omega * times)[:, None]
    psi[:, :2] *= np.hstack([phase, np.conj(phase)])
    rho_eq = rotate_to_lab(rho_eq_rot, params.omega, times)
    return _trajectory(psi, times, rho_eq, n_steps, stride, None, None)


def frame_deviation(lab: Trajectory, rot: Trajectory, omega: float) -> float:
    """Worst max-norm mismatch between lab states and rotating states carried to the lab frame.

    Both trajectories must share their sample times; :class:`DomainError` otherwise.
    """
    if not np.array_equal(lab.times, rot.times):
        raise DomainError(
            f"trajectories do not share their sample times: {len(lab.times)} lab "
            f"samples to {len(rot.times)} rotating, ending at t = {lab.times[-1]:.6g} "
            f"and t = {rot.times[-1]:.6g}"
        )
    return max_abs(lab.states - rotate_to_lab(rot.states, omega, lab.times))


def verify_frame_equivalence(
    params: LabParams, rho0: np.ndarray, t_max: float, dt: float
) -> float:
    """Worst max-norm mismatch between the lab evolution and the rotated rotating one.

    The two trajectories solve the same physics in different frames, so the
    mismatch is pure integrator truncation: it shrinks as dt^4.
    """
    traj_lab = evolve_lab(params, rho0, t_max, dt)
    traj_rot = evolve_rotating(params.to_rotating(), rho0, t_max, dt)
    return frame_deviation(traj_lab, traj_rot, params.omega)


def _frame_order(
    params: LabParams, rho0: np.ndarray, t_max: float, dt: float
) -> tuple[float, float, float]:
    """Frame mismatches at ``dt`` and ``dt / 2``, and the convergence order log2 of their ratio.

    A zero mismatch has no logarithm: a zero fine one gives ``inf`` and a zero
    coarse one over a nonzero fine one ``-inf``.
    """
    coarse = verify_frame_equivalence(params, rho0, t_max, dt)
    fine = verify_frame_equivalence(params, rho0, t_max, dt / 2.0)
    ratio = coarse / fine if fine > 0 else math.inf
    return coarse, fine, math.log2(ratio) if ratio > 0 else -math.inf


def spectral_evolve(params: ModelParams, rho0: np.ndarray, t: float) -> np.ndarray:
    """Propagate by eigendecomposition: sum of decaying modes weighted by overlaps.

    Valid only away from exceptional points, where the biorthogonal system is
    complete; refuses EP-labelled parameter points and propagates
    :class:`NearDegenerateError` from the eigenvector construction otherwise.
    The refusal of the EP band is what guards points near a curve whose
    coalescing pair ``PAIR_GAP_RTOL`` does not flag: their modes are formed,
    but the mode sum breaks the state's Hermiticity pairing.  Raises
    :class:`DomainError` for a ``rho0`` that is not a density matrix, for a
    ``t`` that is negative or not finite, and for a ``t`` past the precision
    horizon, where a mode that has not decayed turns more than 1/eps radians
    or grows past the largest double.
    """
    rho0 = check_density_matrix(rho0)
    if not 0.0 <= t < math.inf:
        raise DomainError(f"t must be finite and >= 0, got {t}")
    point = classify(params)
    if point.region in _EP_REGIONS:
        raise NearDegenerateError(
            f"parameters classify as {point.region.value}; the spectral "
            "propagator has no complete mode basis there (use the integrator)"
        )
    modes = _modes(params)
    # At a large t the phase Re(z) t of a decaying mode can overflow while its
    # modulus exp(Im(z) t) underflows: that mode has vanished, not turned NaN.
    zs = modes.eigenvalues
    with np.errstate(over="ignore", invalid="ignore"):
        growth = np.exp(zs.imag * t)
        factors = np.exp(-1j * zs * t)
    # A mode that has not vanished must keep its phase |z| t within the horizon,
    # and its growth, which only roundoff makes exceed 1, finite.
    z, g = zs.tolist(), growth.tolist()
    phase = [math.hypot(w.real, w.imag) * t for w in z]
    _refuse([gk != 0.0 and (pk > _PHASE_HORIZON or gk == math.inf) for gk, pk in zip(g, phase)],
            DomainError, lambda k: f"t = {t!r} is past the precision horizon: the mode z = "
            f"{z[k]!r} has not decayed, and "
            + (f"its phase |z| t = {phase[k]:.3e} exceeds 1/eps = {_PHASE_HORIZON:.3e} radians"
               if g[k] < math.inf else "its growth exp(Im(z) t) overflows"))
    factors[growth == 0.0] = 0.0
    weights = modes.left @ vectorize(rho0) * factors
    return devectorize(weights @ modes.right)
