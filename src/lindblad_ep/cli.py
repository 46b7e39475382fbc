"""Command-line surface: spectrum queries, curve and grid exports, evolution, self-checks.

Exit codes: 0 success, 1 verification failure, 2 usage or domain error,
3 integrator failure.  All outputs are deterministic given the flags and the
seed; numeric fields are printed with shortest round-trip decimals.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import __version__
from .errors import (
    DomainError,
    LindbladEPError,
    NearDegenerateError,
    StepSizeError,
)
from .exceptional import (
    D_TILDE_EP3,
    _ON_CURVE_TOL,
    _classified,
    _on_curve_residual,
    classify_grid,
    ep2_eigenvalue,
    ep2_gamma,
    ep3_point,
)
from .model import (
    INITIAL_STATES,
    LabParams,
    ModelParams,
    initial_state,
    max_abs,
)
from .dynamics import _TRACE_TOL, evolve_rotating, verify_frame_equivalence
from .spectrum import (
    _RESIDUAL_RTOL,
    _full_spectrum,
    characteristic_residual,
    eigenvalues_numeric,
    match_distance,
)
from .superop import build_lindblad
from .verify import CHECK_NAMES, DEFAULT_SEED, run_checks

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_INTEGRATOR = 3


def _fmt(x) -> str:
    """Shortest decimal that round-trips to the same double."""
    return repr(float(x))


def _fmt_columns(*columns) -> list[list[str]]:
    """Rows of :func:`_fmt` strings from equal-length columns of numbers."""
    return [[repr(x) for x in row] for row in np.column_stack(columns).tolist()]


def _cjson(z: complex) -> dict:
    return {"re": float(z.real), "im": float(z.imag)}


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as handle:
            handle.write(text)


def _emit_table(path, fmt, header, rows):
    """Serialise a table as CSV (default) or as a JSON list of row objects."""
    if fmt == "json":
        payload = [dict(zip(header, row)) for row in rows]
        _write_text(path, json.dumps(payload, indent=2) + "\n")
    else:
        lines = [",".join(header)]
        lines += [",".join(map(str, row)) for row in rows]
        _write_text(path, "\n".join(lines) + "\n")


def _grid(lo: float, hi: float, n: int, flag: str) -> np.ndarray:
    """``n`` evenly spaced values from ``lo`` to ``hi``, both included; ``flag``
    names the ``--<flag>-min`` and ``--<flag>-max`` options they came from."""
    for end, value in (("min", lo), ("max", hi)):
        if not math.isfinite(value):
            raise DomainError(f"--{flag}-{end} must be finite, got {value}")
    if n < 1:
        raise DomainError("grid counts must be >= 1")
    if hi < lo:
        raise DomainError("range maxima must be >= minima")
    if not math.isfinite(hi - lo):
        raise DomainError(f"the range of --{flag}-min to --{flag}-max overflows a double")
    return np.linspace(lo, hi, n)


def _model_params(args) -> ModelParams:
    return ModelParams(args.delta, args.d, args.gamma)


# --------------------------------------------------------------------------
# spectrum
# --------------------------------------------------------------------------

def cmd_spectrum(args) -> int:
    params = _model_params(args)
    # Rejects delta = 0 with a scaled-coordinate message.
    point, closed = _classified(params)
    L = build_lindblad(params)
    scale = max(1.0, max_abs(L))
    numeric = eigenvalues_numeric(L)

    residual_tol = _RESIDUAL_RTOL * scale**4
    residuals = [characteristic_residual(L, z) for z in closed.eigenvalues]
    residuals_num = [characteristic_residual(L, z) for z in numeric]

    degenerate = bool(closed.degenerate_pairs)
    biorth_defect = None
    vector_residual = None
    try:
        spec = _full_spectrum(params, closed)
        biorth = spec.left @ spec.right.T
        biorth_defect = float(np.max(np.abs(biorth - np.eye(4))))
        vector_residual = float(spec.residuals.max())
    except NearDegenerateError:
        degenerate = True

    payload = {
        "parameters": {"delta": params.delta, "d": params.d, "gamma": params.gamma},
        "region": point.region.value,
        "ordering": point.ordering,
        "disc": point.disc,
        "eigenvalues_closed": [_cjson(z) for z in closed.eigenvalues],
        "eigenvalues_numeric": [_cjson(z) for z in numeric],
        "char_residuals_closed": residuals,
        "char_residuals_numeric": residuals_num,
        "matched_distance": match_distance(closed.eigenvalues, numeric),
        "degenerate": degenerate,
        "degenerate_pairs": [list(pair) for pair in closed.degenerate_pairs],
        "biorthogonality_defect": biorth_defect,
        "eigenvector_residual": vector_residual,
    }
    _write_text(args.out, json.dumps(payload, indent=2) + "\n")
    if max(residuals + residuals_num) > residual_tol:
        print(
            f"error: characteristic residual exceeds {residual_tol:.3e}",
            file=sys.stderr,
        )
        return EXIT_VERIFY
    return EXIT_OK


# --------------------------------------------------------------------------
# phase-diagram
# --------------------------------------------------------------------------

def cmd_phase_diagram(args) -> int:
    if args.delta <= 0:
        raise DomainError("grid commands use delta > 0 so flags read as d/delta, gamma/delta")
    d_grid = _grid(args.d_min, args.d_max, args.nd, "d")
    g_grid = _grid(args.gamma_min, args.gamma_max, args.ngamma, "gamma")
    disc, region, ordering = classify_grid(args.delta, d_grid, g_grid)
    # Each coordinate is formatted once; rows run d-major like the grid.
    d_text = [_fmt(d_t) for d_t in d_grid]
    g_text = [_fmt(g_t) for g_t in g_grid]
    rows = zip(
        [d_t for d_t in d_text for _ in g_text],
        g_text * len(d_text),
        map(repr, disc.ravel().tolist()),
        [label.value for label in region.ravel().tolist()],
        ordering.ravel().tolist(),
    )
    header = ("d_tilde", "gamma_tilde", "disc", "region", "ordering")
    _emit_table(args.out, args.format, header, rows)
    return EXIT_OK


# --------------------------------------------------------------------------
# ep-curve
# --------------------------------------------------------------------------

def cmd_ep_curve(args) -> int:
    d_grid = _grid(args.d_min, args.d_max, args.nd, "d")
    if args.d_min < D_TILDE_EP3:
        raise DomainError(
            f"curves exist only for d_tilde >= 2*sqrt(2) = {D_TILDE_EP3!r}; "
            f"requested range starts at {args.d_min}"
        )
    header = (
        "d_tilde",
        "gamma_minus",
        "gamma_plus",
        "im_z_minus",
        "im_z_plus",
        "disc_minus",
        "disc_plus",
    )
    gammas = np.stack(ep2_gamma(d_grid), axis=1)
    im_z = [ep2_eigenvalue(d_grid, branch).imag for branch in ("minus", "plus")]
    resid = _on_curve_residual(d_grid, gammas)
    _emit_table(args.out, args.format, header, _fmt_columns(d_grid, gammas, *im_z, resid))
    if resid.max() > _ON_CURVE_TOL:
        print(
            f"error: on-curve discriminant residual {resid.max():.3e} exceeds {_ON_CURVE_TOL:g}",
            file=sys.stderr,
        )
        return EXIT_VERIFY
    return EXIT_OK


# --------------------------------------------------------------------------
# ep3
# --------------------------------------------------------------------------

def cmd_ep3(args) -> int:
    d_t, g_t, z = ep3_point()
    payload = {"d_tilde": d_t, "gamma_tilde": g_t, "z": _cjson(z)}
    _write_text(args.out, json.dumps(payload, indent=2) + "\n")
    return EXIT_OK


# --------------------------------------------------------------------------
# evolve
# --------------------------------------------------------------------------

def cmd_evolve(args) -> int:
    params = _model_params(args)
    rho0 = initial_state(args.rho0)
    traj = evolve_rotating(params, rho0, args.t_max, args.dt)
    header = ("t", "re_ee", "re_gg", "re_eg", "im_eg", "trace_dev", "dist_eq")
    rho = traj.states
    rows = _fmt_columns(traj.times, rho[:, 0, 0].real, rho[:, 1, 1].real, rho[:, 0, 1].real,
                        rho[:, 0, 1].imag, traj.trace_dev, traj.dist_eq)
    _emit_table(args.out, args.format, header, rows)
    # Stdout carries only the table when the table goes there.
    summary = sys.stdout if args.out is not None else sys.stderr
    print(f"final_dist_eq = {_fmt(traj.dist_eq[-1])}", file=summary)
    if float(traj.trace_dev.max()) > _TRACE_TOL:
        print(
            f"error: trace deviation {traj.trace_dev.max():.3e} exceeds {_TRACE_TOL:g}",
            file=sys.stderr,
        )
        return EXIT_VERIFY
    return EXIT_OK


# --------------------------------------------------------------------------
# verify-frame
# --------------------------------------------------------------------------

def cmd_verify_frame(args) -> int:
    # A NaN gate would pass every deviation and a negative one fail every one.
    if args.tol is not None and not (math.isfinite(args.tol) and args.tol >= 0):
        raise DomainError(f"--tol must be finite and >= 0, got {args.tol}")
    params = LabParams(args.Delta, args.omega, args.d, args.gamma)
    rho0 = initial_state(args.rho0)
    dev = verify_frame_equivalence(params, rho0, args.t_max, args.dt)
    coarse = verify_frame_equivalence(params, rho0, args.t_max, args.order_dt)
    fine = verify_frame_equivalence(params, rho0, args.t_max, args.order_dt / 2.0)
    ratio = coarse / fine if fine > 0 else math.inf
    order = math.log2(ratio) if ratio > 0 else -math.inf
    payload = {
        "deviation": dev,
        "dt": args.dt,
        "order_dt": args.order_dt,
        "measured_order": order,
        "coarse_deviation": coarse,
        "fine_deviation": fine,
    }
    _write_text(args.out, json.dumps(payload, indent=2) + "\n")
    if args.tol is not None and not dev <= args.tol:
        print(f"error: deviation {dev:.3e} exceeds --tol {args.tol}", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


# --------------------------------------------------------------------------
# verify
# --------------------------------------------------------------------------

def cmd_verify(args) -> int:
    names = None
    if args.checks is not None:
        names = [name.strip() for name in args.checks.split(",") if name.strip()]
    results = run_checks(names=names, seed=args.seed, tol_scale=args.tol_scale)
    for result in results:
        print(result.summary())
    if all(r.passed for r in results):
        print(f"verify: all {len(results)} checks passed")
        return EXIT_OK
    failed = [r.name for r in results if not r.passed]
    print(f"verify: FAILED checks: {', '.join(failed)}", file=sys.stderr)
    return EXIT_VERIFY


# --------------------------------------------------------------------------
# parser plumbing
# --------------------------------------------------------------------------

def _add_out_flags(p, default_format="csv"):
    p.add_argument("--out", default=None, help="output path (default: stdout)")
    p.add_argument("--format", choices=("csv", "json"), default=default_format)


def _add_point_flags(p):
    p.add_argument("--delta", type=float, default=1.0, help="detuning (default 1)")
    p.add_argument("--d", type=float, default=1.0, help="drive amplitude")
    p.add_argument("--gamma", type=float, default=1.0, help="environment coupling")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lindblad-ep",
        description="Driven dissipative two-level system: spectra, exceptional points, dynamics.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="eigenvalues, residuals and region at one point")
    _add_point_flags(p)
    _add_out_flags(p, default_format="json")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("phase-diagram", help="region classification over a (d, gamma) grid")
    p.add_argument("--delta", type=float, default=1.0)
    p.add_argument("--d-min", type=float, default=0.0)
    p.add_argument("--d-max", type=float, default=6.0)
    p.add_argument("--nd", type=int, default=300)
    p.add_argument("--gamma-min", type=float, default=0.0)
    p.add_argument("--gamma-max", type=float, default=16.0)
    p.add_argument("--ngamma", type=int, default=300)
    _add_out_flags(p)
    p.set_defaults(func=cmd_phase_diagram)

    p = sub.add_parser("ep-curve", help="both coalescence branches over a drive range")
    p.add_argument("--d-min", type=float, default=D_TILDE_EP3)
    p.add_argument("--d-max", type=float, default=10.0)
    p.add_argument("--nd", type=int, default=200)
    _add_out_flags(p)
    p.set_defaults(func=cmd_ep_curve)

    p = sub.add_parser("ep3", help="the triple-point constants")
    _add_out_flags(p, default_format="json")
    p.set_defaults(func=cmd_ep3)

    p = sub.add_parser("evolve", help="integrate one trajectory and export it")
    _add_point_flags(p)
    p.add_argument("--rho0", choices=INITIAL_STATES, default="excited")
    p.add_argument("--t-max", type=float, default=10.0)
    p.add_argument("--dt", type=float, default=1e-3)
    _add_out_flags(p)
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("verify-frame", help="lab versus rotating frame agreement")
    p.add_argument("--Delta", type=float, default=2.0, help="level splitting")
    p.add_argument("--omega", type=float, default=1.0, help="drive frequency")
    p.add_argument("--d", type=float, default=1.0)
    p.add_argument("--gamma", type=float, default=0.3)
    p.add_argument("--rho0", choices=INITIAL_STATES, default="excited")
    p.add_argument("--t-max", type=float, default=10.0)
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--order-dt", type=float, default=0.04,
                   help="coarse step for the convergence-order measurement")
    p.add_argument("--tol", type=float, default=None,
                   help="fail (exit 1) if the deviation exceeds this")
    _add_out_flags(p, default_format="json")
    p.set_defaults(func=cmd_verify_frame)

    p = sub.add_parser("verify", help="run the acceptance checklist")
    p.add_argument("--checks", default=None,
                   help=f"comma-separated subset of: {', '.join(CHECK_NAMES)}")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--tol-scale", type=float, default=1.0,
                   help="multiplier on every tolerance (must be > 0)")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_OK
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OverflowError as exc:
        print(f"error: arithmetic overflow at this parameter scale: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except StepSizeError as exc:
        print(f"integrator error: {exc}", file=sys.stderr)
        return EXIT_INTEGRATOR
    except LindbladEPError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY


def entry() -> None:
    raise SystemExit(main())
