"""Acceptance suite: one test per guaranteed criterion, each printing PASS or FAIL.

The checks themselves live in lindblad_ep.verify so the command-line
``verify`` subcommand runs exactly the same code.  Tolerances are fixed here
and in the check implementations; nothing is calibrated at run time.
"""

import pytest

from lindblad_ep.verify import CHECKS


def _run(name):
    result = CHECKS[name]()
    print()
    print(result.summary())
    assert result.passed, result.details
    return result


def test_criterion_1_ep3_constants():
    # the constants match the exact double root of the curves' quadratic in
    # gamma^2, 2*sqrt(2) and 6*sqrt(3), to 1e-6 and the triple eigenvalue
    # -4*sqrt(3)i to 1e-8
    result = _run("ep3")
    assert result.details["err_d"] < 1e-6
    assert result.details["err_gamma"] < 1e-6
    assert result.details["err_z"] < 1e-8


def test_criterion_2_ep2_curve_identity():
    # 200 drives over [2*sqrt(2), 10]: plugged-back scaled discriminant below
    # 1e-10 and agreement with the exact roots to 1e-8 relative
    result = _run("ep2-curve")
    assert result.details["worst_scaled_disc"] < 1e-10
    assert result.details["worst_oracle_rel"] < 1e-8


def test_criterion_3_closed_form_vs_oracle():
    # 1000 seeded draws plus the 50x50 grid: matched distance, mirror symmetry
    # and the trace sum rule all below 1e-10 (scaled)
    result = _run("spectra")
    assert result.details["worst_matched_dist"] < 1e-10
    assert result.details["worst_symmetry"] < 1e-10
    assert result.details["worst_sum_rule"] < 1e-10


def test_criterion_4_gamma_zero_limit():
    # without dissipation the four eigenvalues are exactly {0, 0, +r, -r}
    result = _run("gamma0")
    assert result.details["worst_dist"] < 1e-12


def test_criterion_5_equilibrium():
    # null residual below 1e-12 and every preset within 1e-6 of equilibrium
    # by t = 40/gamma at (1, 2, 1)
    result = _run("equilibrium")
    assert result.details["worst_null_residual"] < 1e-12
    assert result.details["worst_final_dist_eq"] < 1e-6


def test_criterion_6_frame_equivalence():
    # lab and rotating trajectories agree to 1e-8 at dt = 1e-3, with measured
    # integrator order 4 +- 0.3 under step halving
    result = _run("frame")
    assert result.details["deviation"] < 1e-8
    assert abs(result.details["order"] - 4.0) < 0.3


def test_criterion_7_conservation():
    # trace and Hermiticity within 1e-10 along every canonical trajectory
    result = _run("conservation")
    assert result.details["worst_trace_dev"] < 1e-10
    assert result.details["worst_herm_dev"] < 1e-10


def test_criterion_8_splitting_exponents():
    # gap exponents 0.5 +- 0.05 off a curve and 1/3 +- 0.05 off the endpoint
    result = _run("splitting")
    assert abs(result.details["ep2_slope"] - 0.5) < 0.05
    assert abs(result.details["ep3_slope"] - 1.0 / 3.0) < 0.05


def test_criterion_9_phase_diagram_structure():
    # on a 300x300 grid the all-imaginary region is nonempty, confined to
    # drives above 2*sqrt(2), and inside the curve band to within one cell
    result = _run("phase-diagram")
    assert result.details["shaded_cells"] > 0
    assert result.details["min_shaded_d"] > 2.0 * 2.0 ** 0.5
    assert result.details["worst_outside_band"] <= result.details["cell"]
