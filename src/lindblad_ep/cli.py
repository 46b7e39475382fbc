"""Command-line surface: spectrum queries, curve and grid exports, evolution, self-checks.

Exit codes: 0 success, 1 verification failure, 2 usage or domain error,
3 integrator failure.  All outputs are deterministic given the flags and the
seed; numeric fields are printed with shortest round-trip decimals.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import sys

# Nothing numeric loads here: a command that computes loads numpy and the numeric
# core when it runs (see main), so --version, ep3 and usage errors import no numpy.
from . import __version__, _load
from .constants import CHECK_NAMES, D_TILDE_EP3, DEFAULT_SEED, INITIAL_STATES, ep3_point
from .errors import DomainError, LindbladEPError, NearDegenerateError, StepSizeError

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_INTEGRATOR = 3


def _cjson(z: complex) -> dict:
    return {"re": float(z.real), "im": float(z.imag)}


def _write(path: str | None, texts) -> None:
    """Write each string of ``texts`` to the file at ``path``, or to stdout when it is None."""
    with open(path, "w") if path is not None else contextlib.nullcontext(sys.stdout) as out:
        out.writelines(texts)


def _table(fmt, header, blocks, bare=()):
    """A table, given its CSV header line, as CSV or as a JSON list of row objects, in
    pieces of 1024 rows or fewer.  ``blocks`` yields lists of equal-length columns of cell
    text or of numbers (written as shortest round-trip decimals), one row or more in all.
    JSON quotes every cell but those in ``bare``: the bytes of ``json.dumps(rows, indent=2)``."""
    names = header.split(",")
    if fmt == "json":
        quote = ["" if name in bare else '"' for name in names]
        # Each object opens with the comma after the one before; the first drops it.
        lead = [",\n  {"] + [mark + "," for mark in quote[:-1]]
        seps = [f'{a}\n    "{name}": {b}' for a, name, b in zip(lead, names, quote)]
        seps, head, tail, skip = seps + [quote[-1] + "\n  }"], "[", "\n]\n", 1
    else:
        seps, head, tail, skip = [""] + [","] * (len(names) - 1) + ["\n"], header + "\n", "", 0
    # A row is seps[0], cell 0, seps[1], ..., cell K-1, seps[K].
    template = [""] * (2 * len(seps) - 1)
    template[::2] = seps
    yield head
    for block in blocks:
        for start in range(0, len(block[0]), 1024):
            cells = [column[start : start + 1024] for column in block]
            parts = template * len(cells[0])
            for k, column in enumerate(cells):
                text = column if isinstance(column, list) else map(repr, column.tolist())
                parts[2 * k + 1 :: len(template)] = text
            yield "".join(parts)[skip:]
            skip = 0
    yield tail


# Most nodes a grid takes: a run at the cap peaks at 66 MB for a 2048x1024 phase diagram
# and at 400 MB for ep-curve, its largest (measured, see README).
_MAX_NODES = 2**21


def _grids(args, *axes: str) -> list:
    """For each axis ``a``, ``--n<a>`` evenly spaced values from ``--<a>-min`` to ``--<a>-max``,
    both included; refuses more than :data:`_MAX_NODES` nodes before allocating any."""
    import numpy as np

    counts = [getattr(args, f"n{a}") for a in axes]
    if min(counts) < 1:
        raise DomainError("grid counts must be >= 1")
    if math.prod(counts) > _MAX_NODES:
        flags = " x ".join(f"--n{a}" for a in axes)
        raise DomainError(f"{flags} asks for {math.prod(counts)} nodes, more than {_MAX_NODES}")
    bounds = [(getattr(args, f"{a}_min"), getattr(args, f"{a}_max")) for a in axes]
    for a, (lo, hi) in zip(axes, bounds):
        for end, value in (("min", lo), ("max", hi)):
            if not math.isfinite(value):
                raise DomainError(f"--{a}-{end} must be finite, got {value}")
        if hi < lo:
            raise DomainError("range maxima must be >= minima")
        if not math.isfinite(hi - lo):
            raise DomainError(f"the range of --{a}-min to --{a}-max overflows a double")
    return [np.linspace(lo, hi, n) for (lo, hi), n in zip(bounds, counts)]


def _fail(message: str) -> int:
    """Report an error on stderr and return the exit code of a verification failure."""
    print(f"error: {message}", file=sys.stderr)
    return EXIT_VERIFY


# --------------------------------------------------------------------------
# spectrum
# --------------------------------------------------------------------------

def cmd_spectrum(args) -> int:
    import numpy as np

    from .exceptional import classify
    from .model import ModelParams, max_abs
    from .spectrum import (
        _RESIDUAL_RTOL,
        characteristic_residual,
        eigenvalues_closed_form,
        eigenvalues_numeric,
        full_spectrum,
        match_distance,
    )
    from .superop import build_lindblad

    params = ModelParams(args.delta, args.d, args.gamma)
    # Rejects delta = 0 with a scaled-coordinate message.
    point = classify(params)
    closed = eigenvalues_closed_form(params)
    L = build_lindblad(params)
    numeric = eigenvalues_numeric(L)  # raises if its roots fail the same residual bound

    residual_tol = _RESIDUAL_RTOL * max(1.0, max_abs(L))**4
    residuals = [characteristic_residual(L, z) for z in closed.eigenvalues]
    residuals_num = [characteristic_residual(L, z) for z in numeric]

    degenerate = bool(closed.degenerate_pairs)
    biorth_defect = None
    vector_residual = None
    try:
        spec = full_spectrum(params)
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
    _write(args.out, [json.dumps(payload, indent=2) + "\n"])
    if max(residuals) > residual_tol:
        return _fail(f"characteristic residual exceeds {residual_tol:.3e}")
    return EXIT_OK


# --------------------------------------------------------------------------
# phase-diagram
# --------------------------------------------------------------------------

def cmd_phase_diagram(args) -> int:
    import numpy as np

    from .exceptional import _REGIONS, _classify_codes

    if args.delta <= 0:
        raise DomainError("grid commands use delta > 0 so flags read as d/delta, gamma/delta")
    # Cell text by region code of `_classify_codes`, and by ordering (-1 takes the last entry).
    labels = np.array([region.value for region in _REGIONS], dtype=object)
    orderings = np.array(["0", "1", "-1"], dtype=object)
    d_grid, g_grid = _grids(args, "d", "gamma")
    disc, codes, ordering = _classify_codes(args.delta, d_grid, g_grid)
    # One block per d-row, d-major like the grid; the gamma column is formatted once.
    g_text = list(map(repr, g_grid.tolist()))
    rows = zip(map(repr, d_grid.tolist()), disc, codes, ordering)
    blocks = ([[d_t] * len(g_text), g_text, x, labels[c].tolist(), orderings[o].tolist()]
              for d_t, x, c, o in rows)
    header = "d_tilde,gamma_tilde,disc,region,ordering"
    _write(args.out, _table(args.format, header, blocks, bare=("ordering",)))
    return EXIT_OK


# --------------------------------------------------------------------------
# ep-curve
# --------------------------------------------------------------------------

def cmd_ep_curve(args) -> int:
    import numpy as np

    from .exceptional import _ON_CURVE_TOL, _curve, _on_curve_residual

    (d_grid,) = _grids(args, "d")
    if args.d_min < D_TILDE_EP3:
        raise DomainError(
            f"curves exist only for d_tilde >= 2*sqrt(2) = {D_TILDE_EP3!r}; "
            f"requested range starts at {args.d_min}"
        )
    header = "d_tilde,gamma_minus,gamma_plus,im_z_minus,im_z_plus,disc_minus,disc_plus"
    gammas, zs = _curve(d_grid)
    im_z = [z.imag for z in zs]
    resid = _on_curve_residual(d_grid, np.stack(gammas, axis=1))
    _write(args.out, _table(args.format, header, [[d_grid, *gammas, *im_z, *resid.T]]))
    if resid.max() > _ON_CURVE_TOL:
        return _fail(f"on-curve discriminant residual {resid.max():.3e} exceeds {_ON_CURVE_TOL:g}")
    return EXIT_OK


# --------------------------------------------------------------------------
# ep3
# --------------------------------------------------------------------------

def cmd_ep3(args) -> int:
    d_t, g_t, z = ep3_point()
    payload = {"d_tilde": d_t, "gamma_tilde": g_t, "z": _cjson(z)}
    _write(args.out, [json.dumps(payload, indent=2) + "\n"])
    return EXIT_OK


# --------------------------------------------------------------------------
# evolve
# --------------------------------------------------------------------------

def cmd_evolve(args) -> int:
    from .dynamics import _TRACE_TOL, evolve_rotating
    from .model import ModelParams, initial_state

    params = ModelParams(args.delta, args.d, args.gamma)
    rho0 = initial_state(args.rho0)
    traj = evolve_rotating(params, rho0, args.t_max, args.dt)
    header = "t,re_ee,re_gg,re_eg,im_eg,trace_dev,dist_eq"
    rho = traj.states
    columns = [traj.times, rho[:, 0, 0].real, rho[:, 1, 1].real, rho[:, 0, 1].real,
               rho[:, 0, 1].imag, traj.trace_dev, traj.dist_eq]
    _write(args.out, _table(args.format, header, [columns]))
    # Stdout carries only the table when the table goes there.
    summary = sys.stdout if args.out is not None else sys.stderr
    print(f"final_dist_eq = {float(traj.dist_eq[-1])!r}", file=summary)
    if float(traj.trace_dev.max()) > _TRACE_TOL:
        return _fail(f"trace deviation {traj.trace_dev.max():.3e} exceeds {_TRACE_TOL:g}")
    return EXIT_OK


# --------------------------------------------------------------------------
# verify-frame
# --------------------------------------------------------------------------

def cmd_verify_frame(args) -> int:
    from .dynamics import _frame_order, verify_frame_equivalence
    from .model import LabParams, initial_state

    # A NaN gate would pass every deviation and a negative one fail every one.
    if args.tol is not None and not (math.isfinite(args.tol) and args.tol >= 0):
        raise DomainError(f"--tol must be finite and >= 0, got {args.tol}")
    params = LabParams(args.Delta, args.omega, args.d, args.gamma)
    rho0 = initial_state(args.rho0)
    dev = verify_frame_equivalence(params, rho0, args.t_max, args.dt)
    coarse, fine, order = _frame_order(params, rho0, args.t_max, args.order_dt)
    payload = {
        "deviation": dev,
        "dt": args.dt,
        "order_dt": args.order_dt,
        "measured_order": order,
        "coarse_deviation": coarse,
        "fine_deviation": fine,
    }
    _write(args.out, [json.dumps(payload, indent=2) + "\n"])
    if args.tol is not None and not dev <= args.tol:
        return _fail(f"deviation {dev:.3e} exceeds --tol {args.tol}")
    return EXIT_OK


# --------------------------------------------------------------------------
# verify
# --------------------------------------------------------------------------

def cmd_verify(args) -> int:
    from .verify import run_checks

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

def _add_out_flag(p):
    p.add_argument("--out", default=None, help="output path (default: stdout)")


def _add_table_flags(p):
    _add_out_flag(p)
    p.add_argument("--format", choices=("csv", "json"), default="csv")


def _add_point_flags(p):
    p.add_argument("--delta", type=float, default=1.0, help="detuning (default 1)")
    p.add_argument("--d", type=float, default=1.0, help="drive amplitude")
    p.add_argument("--gamma", type=float, default=1.0, help="environment coupling")


def _add_axis_flags(p, axis, lo, hi, n):
    """The flags of one axis of a grid, read by :func:`_grids`."""
    p.add_argument(f"--{axis}-min", type=float, default=lo)
    p.add_argument(f"--{axis}-max", type=float, default=hi)
    p.add_argument(f"--n{axis}", type=int, default=n)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lindblad-ep",
        description="Driven dissipative two-level system: spectra, exceptional points, dynamics.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="eigenvalues, residuals and region at one point")
    _add_point_flags(p)
    _add_out_flag(p)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("phase-diagram", help="region classification over a (d, gamma) grid")
    p.add_argument("--delta", type=float, default=1.0)
    _add_axis_flags(p, "d", 0.0, 6.0, 300)
    _add_axis_flags(p, "gamma", 0.0, 16.0, 300)
    _add_table_flags(p)
    p.set_defaults(func=cmd_phase_diagram)

    p = sub.add_parser("ep-curve", help="both coalescence branches over a drive range")
    _add_axis_flags(p, "d", D_TILDE_EP3, 10.0, 200)
    _add_table_flags(p)
    p.set_defaults(func=cmd_ep_curve)

    p = sub.add_parser("ep3", help="the triple-point constants")
    _add_out_flag(p)
    p.set_defaults(func=cmd_ep3)

    p = sub.add_parser("evolve", help="integrate one trajectory and export it")
    _add_point_flags(p)
    p.add_argument("--rho0", choices=INITIAL_STATES, default="excited")
    p.add_argument("--t-max", type=float, default=10.0)
    p.add_argument("--dt", type=float, default=1e-3)
    _add_table_flags(p)
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
    _add_out_flag(p)
    p.set_defaults(func=cmd_verify_frame)

    p = sub.add_parser("verify", help="run the acceptance checklist")
    p.add_argument("--checks", default=None,
                   help=f"comma-separated subset of: {', '.join(CHECK_NAMES)}")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--tol-scale", type=float, default=1.0,
                   help="multiplier on every tolerance (must be > 0)")
    p.set_defaults(func=cmd_verify)

    return parser


# The parser of main, built on its first call.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_OK
    try:
        # Every command but ep3 computes: numpy and the numeric core load here, as one unit.
        if args.func is not cmd_ep3:
            _load()
        return args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OverflowError as exc:
        # Python's float power raises (errno, text): print the text alone.
        text = exc.args[-1] if exc.args else ""
        print(f"error: arithmetic overflow at this parameter scale: {text}", file=sys.stderr)
        return EXIT_USAGE
    except StepSizeError as exc:
        print(f"integrator error: {exc}", file=sys.stderr)
        return EXIT_INTEGRATOR
    except LindbladEPError as exc:
        return _fail(str(exc))


def entry() -> None:
    raise SystemExit(main())
