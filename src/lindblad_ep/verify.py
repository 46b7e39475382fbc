"""Self-verification suite: every guaranteed numeric contract as a pass/fail check.

Each check is a pure function returning a :class:`CheckResult` with the worst
observed metrics, so the same code backs both the command-line ``verify``
subcommand and the acceptance test module.  All sampling is driven by an
explicit seed; identical seeds give identical results.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .constants import (
    CHECK_NAMES,
    D_TILDE_EP3,
    DEFAULT_SEED,
    GAMMA_TILDE_EP3,
    INITIAL_STATES,
    Z_EP3,
)
from .dynamics import _TRACE_TOL, _frame_order, evolve_lab, evolve_rotating, frame_deviation
from .errors import DomainError
from .exceptional import (
    _CODE,
    _ON_CURVE_TOL,
    _on_curve_residual,
    _region_codes,
    classify,
    ep2_gamma,
    splitting_exponent,
    Region,
)
from .model import LabParams, ModelParams, initial_state, max_abs
from .spectrum import (
    _closed_form_stack,
    _pow,
    eigenvalues_numeric,
    match_distance,
)
from .superop import _lindblad_stack, build_lindblad, null_eigenvectors


@dataclass
class CheckResult:
    """Outcome of one verification check."""

    name: str
    passed: bool
    details: dict = field(default_factory=dict)
    # Wall time of the check in seconds, set by run_checks; not part of summary().
    elapsed_s: float | None = None

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        parts = ", ".join(
            f"{k}={v:.9g}" if isinstance(v, float) else f"{k}={v}"
            for k, v in self.details.items()
        )
        return f"{status} {self.name}: {parts}"


# Bits below the binary point of the exact references: an int r stands for r / 2**_BITS.
_BITS = 128


def _quadratic(b: int, m: int) -> tuple[int, int, int]:
    """Integer coefficients ``(a2, a1, a0)`` of ``432 m^3 disc`` at unit detuning and
    ``d_tilde^2 = B = b/m``, for ``m`` a power of two, as a quadratic in ``G = gamma_tilde^2``.

    Exactly, ``432 disc = G^2 + (8 - 20 B - B^2) G + 16 (1 + B)^3``: the cubic terms of
    ``p^3`` and ``q^2`` in ``G`` cancel.  Its roots are the squared couplings of the two
    curves, and they meet where its discriminant ``B (B - 8)^3`` (times ``m^6``) vanishes.
    """
    return m**3, m * (8 * m * m - 20 * b * m - b * b), 16 * (m + b) ** 3


def _surd(num: int, den: int) -> int:
    """sqrt(num / den) for ints ``num >= 0`` and ``den > 0``, rounded down at 2**-_BITS."""
    return math.isqrt((num << 2 * _BITS) // den)


def _root_surds(a2: int, a1: int, a0: int) -> tuple[int, int]:
    """The square roots of both roots ``G- <= G+`` of ``a2 G^2 + a1 G + a0``, for ``a2 > 0``
    and real roots ``>= 0``, each to 2**-_BITS."""
    s = math.isqrt((a1 * a1 - 4 * a2 * a0) << 4 * _BITS)  # sqrt(disc) at 2**-(2 _BITS)
    return tuple(_surd((-a1 << 2 * _BITS) + sign * s, a2 << 2 * _BITS + 1) for sign in (-1, 1))


def _err(x: float, r: int, unit: int = 1 << _BITS) -> float:
    """|x - r / 2**_BITS| in units of ``unit / 2**_BITS``: absolute by default, relative to
    the reference for ``unit = r``; exact up to one rounding to float."""
    n, den = x.as_integer_ratio()
    return abs((n << _BITS) - r * den) / (den * unit)


def check_ep3_constants(seed: int = DEFAULT_SEED, tol_scale: float = 1.0) -> CheckResult:
    """The triple-point constants against the exact double root of the curves' quadratic.

    At ``d_tilde^2 = 8`` the quadratic of :func:`_quadratic` is ``(G - 108)^2``; the check
    requires its discriminant to be exactly 0.  Its surds are the drive ``sqrt(8)``, the
    coupling ``sqrt(108)`` and ``|z| = (2/3) sqrt(108)``, the exactly known mean of the
    three decaying eigenvalues ``-2i gamma_tilde / 3``.
    """
    a2, a1, a0 = _quadratic(8, 1)
    d_ref, g_ref = _surd(8, 1), _root_surds(a2, a1, a0)[0]
    z_ref = 2 * g_ref // 3
    err_d = _err(D_TILDE_EP3, d_ref)
    err_g = _err(GAMMA_TILDE_EP3, g_ref)
    err_z = math.hypot(Z_EP3.real, _err(-Z_EP3.imag, z_ref))
    passed = (a1 * a1 == 4 * a2 * a0 and err_d < 1e-6 * tol_scale
              and err_g < 1e-6 * tol_scale and err_z < 1e-8 * tol_scale)
    return CheckResult(
        "ep3",
        passed,
        {
            "d_tilde": d_ref / (1 << _BITS),
            "gamma_tilde": g_ref / (1 << _BITS),
            "im_z": -z_ref / (1 << _BITS),
            "err_d": err_d,
            "err_gamma": err_g,
            "err_z": err_z,
        },
    )


def check_ep2_curve(seed: int = DEFAULT_SEED, tol_scale: float = 1.0) -> CheckResult:
    """Closed-form curves: on-curve discriminant residual, and agreement with the exact
    roots of :func:`_quadratic` at every drive ``d = n / den``, where ``B = n^2 / den^2``."""
    d_grid = np.linspace(D_TILDE_EP3, 10.0, 200)
    gammas = np.stack(ep2_gamma(d_grid), axis=1)
    worst_resid = float(_on_curve_residual(d_grid, gammas).max())
    worst_rel = 0.0
    for d, pair in zip(d_grid.tolist(), gammas.tolist()):
        n, den = d.as_integer_ratio()
        for g, r in zip(pair, _root_surds(*_quadratic(n * n, den * den))):
            worst_rel = max(worst_rel, _err(g, r, r))
    passed = worst_resid < _ON_CURVE_TOL * tol_scale and worst_rel < 1e-8 * tol_scale
    return CheckResult(
        "ep2-curve",
        passed,
        {"worst_scaled_disc": worst_resid, "worst_oracle_rel": worst_rel, "points": 200},
    )


def _spectra_points(seed: int = DEFAULT_SEED) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(delta, d, gamma) of the 3,500 points of :func:`check_spectra`: 1000 seeded
    draws, then a 50x50 grid."""
    rng = np.random.default_rng(seed)
    draws = rng.uniform((-2.0, -4.0, 0.0), (2.0, 4.0, 10.0), size=(1000, 3))
    d_t, g_t = np.meshgrid(np.linspace(0.0, 8.0, 50), np.linspace(0.0, 16.0, 50), indexing="ij")
    grid = np.stack([np.ones(d_t.size), d_t.ravel(), g_t.ravel()], axis=1)
    delta, d, gamma = np.concatenate([draws, grid]).T
    return delta, d, gamma


def check_spectra(seed: int = DEFAULT_SEED, tol_scale: float = 1.0) -> CheckResult:
    """Closed form versus the numeric oracle, spectral symmetry, and the sum rule.

    The closed form, the oracle and each distance run once on the whole stack
    of points.
    """
    delta, d, gamma = _spectra_points(seed)
    Ls = _lindblad_stack(delta, d, gamma)
    zs = _closed_form_stack(delta, d, gamma)
    scale = np.maximum(1.0, np.max(np.abs(Ls), axis=(1, 2)))
    ref = eigenvalues_numeric(Ls)
    worst_match = float(np.max(match_distance(zs, ref) / scale))
    worst_sym = float(np.max(match_distance(zs, -np.conj(zs)) / scale))
    sums = zs[:, 1] + zs[:, 2] + zs[:, 3] + 2j * gamma
    worst_sum = float(np.max(np.abs(sums) / np.maximum(1.0, gamma)))

    tol = 1e-10 * tol_scale
    passed = worst_match < tol and worst_sym < tol and worst_sum < tol
    return CheckResult(
        "spectra",
        passed,
        {
            "worst_matched_dist": worst_match,
            "worst_symmetry": worst_sym,
            "worst_sum_rule": worst_sum,
            "samples": len(zs),
        },
    )


def _gamma_zero_points(seed: int = DEFAULT_SEED) -> tuple[np.ndarray, np.ndarray]:
    """(delta, d) of the 100 seeded draws of :func:`check_gamma_zero`."""
    delta, d = np.random.default_rng(seed).uniform(-2.0, 2.0, size=(100, 2)).T
    return delta, d


def check_gamma_zero(seed: int = DEFAULT_SEED, tol_scale: float = 1.0) -> CheckResult:
    """Without dissipation the spectrum is exactly {0, 0, +r, -r} with r^2 = delta^2 + d^2."""
    delta, d = _gamma_zero_points(seed)
    zs = _closed_form_stack(delta, d, np.zeros_like(delta))
    r = np.sqrt(_pow(delta, 2) + _pow(d, 2))
    expected = np.stack([np.zeros_like(r), np.zeros_like(r), r, -r], axis=1).astype(complex)
    worst = float(np.max(match_distance(zs, expected)))
    passed = worst < 1e-12 * tol_scale
    return CheckResult("gamma0", passed, {"worst_dist": worst, "samples": len(zs)})


@functools.lru_cache(maxsize=1)
def _preset_trajectories():
    """The four canonical relaxation runs at (delta, d, gamma) = (1, 2, 1)."""
    params = ModelParams(1.0, 2.0, 1.0)
    return {
        name: evolve_rotating(params, initial_state(name), t_max=40.0, dt=1e-3)
        for name in INITIAL_STATES
    }


@functools.lru_cache(maxsize=1)
def _frame_pair():
    """Canonical frame-equivalence setup and its trajectories."""
    params = LabParams(Delta=2.0, omega=1.0, d=1.0, gamma=0.3)
    rho0 = initial_state("excited")
    lab = evolve_lab(params, rho0, t_max=10.0, dt=1e-3)
    rot = evolve_rotating(params.to_rotating(), rho0, t_max=10.0, dt=1e-3)
    return params, rho0, lab, rot


def check_equilibrium(seed: int = DEFAULT_SEED, tol_scale: float = 1.0) -> CheckResult:
    """Stationarity of the closed-form equilibrium and convergence of all presets."""
    rng = np.random.default_rng(seed)
    worst_resid = 0.0
    for _ in range(100):
        params = ModelParams(rng.uniform(-2, 2), rng.uniform(-4, 4), rng.uniform(0, 10))
        L = build_lindblad(params)
        _, right = null_eigenvectors(params)
        worst_resid = max(worst_resid, max_abs(L @ right) / max(1.0, max_abs(L)))
    worst_dist = max(traj.dist_eq[-1] for traj in _preset_trajectories().values())
    passed = worst_resid < 1e-12 * tol_scale and worst_dist < 1e-6 * tol_scale
    return CheckResult(
        "equilibrium",
        passed,
        {"worst_null_residual": worst_resid, "worst_final_dist_eq": worst_dist},
    )


def check_frame(seed: int = DEFAULT_SEED, tol_scale: float = 1.0) -> CheckResult:
    """Lab and rotating evolutions agree through the frame map, at fourth order in dt.

    The mismatch at dt = 1e-3 sits near the roundoff floor, so the convergence
    order is measured at coarser steps where truncation dominates.
    """
    params, rho0, lab, rot = _frame_pair()
    dev = frame_deviation(lab, rot, params.omega)
    coarse, fine, order = _frame_order(params, rho0, t_max=10.0, dt=0.04)
    passed = dev < 1e-8 * tol_scale and abs(order - 4.0) < 0.3 * tol_scale
    return CheckResult(
        "frame",
        passed,
        {"deviation": dev, "order": order, "coarse_dev": coarse, "fine_dev": fine},
    )


def check_conservation(seed: int = DEFAULT_SEED, tol_scale: float = 1.0) -> CheckResult:
    """Trace and Hermiticity hold to 1e-10 along every canonical trajectory."""
    worst_trace = 0.0
    worst_herm = 0.0
    trajectories = list(_preset_trajectories().values())
    _, _, lab, rot = _frame_pair()
    trajectories += [lab, rot]
    for traj in trajectories:
        worst_trace = max(worst_trace, float(traj.trace_dev.max()))
        worst_herm = max(worst_herm, float(traj.herm_dev.max()))
    tol = _TRACE_TOL * tol_scale
    passed = worst_trace < tol and worst_herm < tol
    return CheckResult(
        "conservation",
        passed,
        {"worst_trace_dev": worst_trace, "worst_herm_dev": worst_herm,
         "trajectories": len(trajectories)},
    )


def check_splitting(seed: int = DEFAULT_SEED, tol_scale: float = 1.0) -> CheckResult:
    """Perturbation gaps scale as sqrt(eps) off a curve and cbrt(eps) off the endpoint."""
    eps = np.geomspace(1e-6, 1e-3, 7)
    _, gp = ep2_gamma(3.0)
    base2 = classify(ModelParams(1.0, 3.0, gp))
    slope2 = splitting_exponent(base2, (0.0, 1.0), eps)
    base3 = classify(ModelParams(1.0, D_TILDE_EP3, GAMMA_TILDE_EP3))
    slope3 = splitting_exponent(base3, (math.cos(0.3), math.sin(0.3)), eps)
    passed = abs(slope2 - 0.5) < 0.05 * tol_scale and abs(slope3 - 1.0 / 3.0) < 0.05 * tol_scale
    return CheckResult(
        "splitting",
        passed,
        {"ep2_slope": slope2, "ep3_slope": slope3,
         "ep2_base": base2.region.value, "ep3_base": base3.region.value},
    )


def check_phase_diagram(seed: int = DEFAULT_SEED, tol_scale: float = 1.0) -> CheckResult:
    """Structure of the shaded region on a 300x300 grid.

    The all-imaginary region must be nonempty, appear only above the threshold
    drive, and sit between the two curve branches to within one grid cell.
    """
    d_grid = np.linspace(0.0, 6.0, 300)
    g_grid = np.linspace(0.0, 16.0, 300)
    cell = g_grid[1] - g_grid[0]
    codes = _region_codes(1.0, d_grid, g_grid)
    i, j = np.nonzero(codes == _CODE[Region.ALL_IMAGINARY])
    d_t, g_t = d_grid[i], g_grid[j]
    n_shaded = len(d_t)
    min_d = float(d_t.min(initial=math.inf))
    above = d_t >= D_TILDE_EP3
    gm, gp = ep2_gamma(d_t[above])
    outside = np.maximum(gm - g_t[above], g_t[above] - gp)
    worst_outside = float(outside.max(initial=0.0)) if above.all() else math.inf
    passed = (
        n_shaded > 0
        and min_d > D_TILDE_EP3
        and worst_outside <= cell * tol_scale
    )
    return CheckResult(
        "phase-diagram",
        passed,
        {
            "shaded_cells": n_shaded,
            "min_shaded_d": min_d if n_shaded else float("nan"),
            "worst_outside_band": worst_outside,
            "cell": cell,
        },
    )


# Each check by its name, in the order of CHECK_NAMES.
CHECKS = dict(zip(CHECK_NAMES, (
    check_ep3_constants,
    check_ep2_curve,
    check_spectra,
    check_gamma_zero,
    check_equilibrium,
    check_frame,
    check_conservation,
    check_splitting,
    check_phase_diagram,
), strict=True))


def run_checks(
    names=None, seed: int = DEFAULT_SEED, tol_scale: float = 1.0
) -> list[CheckResult]:
    """Run the named checks (all by default) and return their results in order."""
    # An infinite scale would pass every check and a NaN fail every one.
    if not (math.isfinite(tol_scale) and tol_scale > 0):
        raise DomainError(f"tolerance scale must be positive and finite, got {tol_scale}")
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")
    names = CHECK_NAMES if names is None else list(names)
    if not names:
        raise DomainError(f"no checks selected; available: {list(CHECK_NAMES)}")
    unknown = [n for n in names if n not in CHECKS]
    if unknown:
        raise DomainError(f"unknown checks {unknown}; available: {list(CHECK_NAMES)}")
    results = []
    for name in names:
        start = time.perf_counter()
        result = CHECKS[name](seed=seed, tol_scale=tol_scale)
        result.elapsed_s = time.perf_counter() - start
        results.append(result)
    return results
