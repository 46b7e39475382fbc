"""The four benchmark workloads: inputs from a seed, one timed pass, reference checks.

A workload is built from the seed alone; the package under test receives only
the generated inputs.  ``run_pass`` times the package calls and nothing else,
then checks every output against a reference the benchmark computes itself
(see reference.py).  Each check is a plain function returning an error string,
or None when the output is right, so the smoke tests can feed it corrupted
outputs.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import reference as ref

# sha256 of `lindblad-ep phase-diagram` with the default 300x300 grid, recorded
# at the commit that introduced the benchmark: the CLI's byte-identity contract.
PHASE_DIAGRAM_SHA256 = "692e0490b867ccd7d12b8dac82750bfd203a84c4f8954a19d1231b5a1c0c3d00"


@dataclass
class PassResult:
    """One timed pass: the package time and the outcome of each operation.

    ``op_seconds`` are reference seconds (see hostspeed.py); ``wall_seconds``
    is the pass's package time unscaled.  ``outcomes`` holds None for an
    operation that passed, else (name of the known defect whose domain holds
    it, or None; message).  Every pass of a run repeats the same operations
    in the same order, so both lists line up across passes.
    """

    op_seconds: list = field(default_factory=list)
    wall_seconds: float = 0.0
    outcomes: list = field(default_factory=list)
    output_bytes: int = 0

    def record(self, wall: float, seconds: float, error: str | None,
               known_defect: str | None = None) -> None:
        """Count one operation; a failure inside a known defect's domain is tagged so."""
        self.wall_seconds += wall
        self.op_seconds.append(seconds)
        self.outcomes.append(None if error is None else (known_defect, error))

    @property
    def seconds(self) -> float:
        return sum(self.op_seconds)

    @property
    def attempted(self) -> int:
        return len(self.outcomes)

    @property
    def failed(self) -> int:
        return sum(o is not None for o in self.outcomes)

    @property
    def failed_unexpected(self) -> int:
        return sum(o is not None and o[0] is None for o in self.outcomes)

    @property
    def errors(self) -> list[str]:
        return [f"[{o[0] or 'unexpected'}] {o[1]}" for o in self.outcomes if o is not None]


def run_cli(cli, argv: list[str], clock=None) -> tuple[int | None, tuple[float, float], str, str | None]:
    """Call ``cli.main(argv)`` in-process; return (exit code, (wall, reference) seconds,
    stdout, raised).  Without a clock both seconds are 0."""
    buf = io.StringIO()
    raised = None
    rc = None
    mark = clock.mark() if clock else None
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
    except Exception as exc:  # an unexpected raise is a failed operation, not a crash
        raised = f"{type(exc).__name__}: {exc}"
    seconds = clock.since(mark) if clock else (0.0, 0.0)
    return rc, seconds, buf.getvalue(), raised


class CliWorkload:
    """A pass is a fixed list of CLI invocations, each with an output check.
    A query, what a caller waits for, is the whole pass."""

    name = ""
    ops_are_queries = False

    def __init__(self, workdir: Path):
        self.workdir = Path(workdir)

    def operations(self):
        """Yield (argv, output path or None, check(rc, stdout, output text))."""
        raise NotImplementedError

    def run_pass(self, pkg, clock=None) -> PassResult:
        result = PassResult()
        for argv, out, check in self.operations():
            if out is not None:
                out.unlink(missing_ok=True)
            rc, (wall, seconds), stdout, raised = run_cli(pkg.cli, argv, clock)
            text = out.read_text() if out is not None and out.exists() else ""
            error = raised or check(rc, stdout, text)
            result.record(wall, seconds, None if error is None else f"{argv[0]}: {error}")
            result.output_bytes += len(stdout.encode()) + len(text.encode())
        return result


def _exit_ok(rc) -> str | None:
    return None if rc == 0 else f"exit code {rc}"


# --------------------------------------------------------------------------
# phase_sweep
# --------------------------------------------------------------------------

def check_phase_csv(text: str) -> str | None:
    """The default-grid CSV must be byte-identical to the recorded output."""
    digest = hashlib.sha256(text.encode()).hexdigest()
    if digest != PHASE_DIAGRAM_SHA256:
        return f"default-grid CSV sha256 {digest[:16]} differs from the recorded output"
    return None


def check_ep_curve(text: str, nd: int = 200, d_max: float = 10.0) -> str | None:
    """Every row sits on a coalescence: LAPACK finds the pair merged at both couplings."""
    rows = list(csv.DictReader(io.StringIO(text)))
    if len(rows) != nd:
        return f"{len(rows)} rows, expected {nd}"
    grid = np.linspace(ref.D_TILDE_EP3, d_max, nd)
    for row, d_t in zip(rows, grid):
        if abs(float(row["d_tilde"]) - d_t) > 1e-12 * d_max:
            return f"d_tilde {row['d_tilde']} is off the grid value {d_t!r}"
        for branch in ("minus", "plus"):
            gamma = float(row[f"gamma_{branch}"])
            gap, z = ref.coalesced_pair(1.0, d_t, gamma)
            scale = max(1.0, gamma)
            if gap > 1e-4:
                return f"no coalescence at d_tilde={d_t!r}, gamma_{branch}={gamma!r}: gap {gap:.3e}"
            if abs(float(row[f"im_z_{branch}"]) - z.imag) > 1e-4 * scale:
                return f"im_z_{branch} {row[f'im_z_{branch}']} differs from LAPACK {z.imag!r}"
    return None


class PhaseSweep(CliWorkload):
    """`phase-diagram` and `ep-curve` with their defaults.  The grid is fixed by the
    byte-identity contract, so the seed selects nothing here."""

    name = "phase_sweep"

    def __init__(self, seed: int, workdir: Path):
        super().__init__(workdir)
        self.phase_out = self.workdir / "phase.csv"
        self.curve_out = self.workdir / "curve.csv"
        self.inputs = {"grid": "300x300 (defaults)", "ep_curve_points": 200}

    def operations(self):
        yield (["phase-diagram", "--out", str(self.phase_out)], self.phase_out,
               lambda rc, out, text: _exit_ok(rc) or check_phase_csv(text))
        yield (["ep-curve", "--out", str(self.curve_out)], self.curve_out,
               lambda rc, out, text: _exit_ok(rc) or check_ep_curve(text))


# --------------------------------------------------------------------------
# trajectories
# --------------------------------------------------------------------------

class ExactEvolution:
    """exp(-iLt) rho0 at the sample times of a trajectory, plus the RK4 error bound."""

    def __init__(self, delta: float, d: float, gamma: float, t_max: float, dt: float):
        self.L = ref.generator(delta, d, gamma)
        self.rho_eq = ref.stationary_state(self.L)
        self.t_max = t_max
        self.dt = dt
        self._times = None
        self._props = None

    def propagators(self, times: np.ndarray) -> np.ndarray:
        """exp(-iL t_k) for each sample time, by stepping between samples."""
        if self._times is None or not np.array_equal(times, self._times):
            props = [np.eye(4, dtype=complex)]
            steps = {}
            for h in np.diff(times):
                if h not in steps:
                    steps[h] = ref.expm(-1j * self.L * h)
                props.append(steps[h] @ props[-1])
            self._times, self._props = times.copy(), np.array(props)
        return self._props

    def rk4_bound(self, props: np.ndarray, psi0: np.ndarray) -> float:
        """Global error bound n K^2 (h|L|)^5 e^(h|L|) / 5! |psi0| with a factor 3,
        plus accumulated roundoff.  K bounds |exp(-iLt)| over the samples."""
        n = max(1, round(self.t_max / self.dt))
        a = self.dt * float(np.linalg.norm(self.L, 2))
        K = max(float(np.linalg.norm(p, 2)) for p in props)
        size = float(np.linalg.norm(psi0))
        return (3.0 * n * K * K * a**5 * math.exp(a) / 120.0 + 10.0 * n * ref.EPS * K) * size


def check_trajectory(text: str, exact: ExactEvolution, rho0: np.ndarray) -> str | None:
    """Trace kept to 1e-10; states equal exp(-iLt) rho0 within the RK4 bound."""
    try:
        table = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1, ndmin=2)
    except ValueError as exc:
        return f"unreadable table: {exc}"
    if table.shape[1] != 7 or table.shape[0] < 2:
        return f"table has shape {table.shape}, expected (n >= 2, 7)"
    t, ee, gg, re_eg, im_eg, trace_dev, dist_eq = table.T
    if t[0] != 0.0 or abs(t[-1] - exact.t_max) > 1e-9 * exact.t_max or np.any(np.diff(t) <= 0):
        return "sample times do not run from 0 to t_max"
    if not trace_dev.max() <= 1e-10:
        return f"trace deviation {trace_dev.max():.3e} exceeds 1e-10"
    props = exact.propagators(t)
    psi0 = ref.flatten(rho0)
    want = props @ psi0  # rows: (rho_eg, rho_ge, rho_ee, rho_gg)
    got = np.stack([re_eg + 1j * im_eg, re_eg - 1j * im_eg, ee + 0j, gg + 0j], axis=1)
    err = float(np.max(np.abs(got - want)))
    bound = exact.rk4_bound(props, psi0)
    if not err <= bound:
        return f"states differ from exp(-iLt) rho0 by {err:.3e} > RK4 bound {bound:.3e}"
    eq = ref.flatten(exact.rho_eq)
    dist = np.max(np.abs(want - eq[None, :]), axis=1)
    dist_err = float(np.max(np.abs(dist_eq - dist)))
    if not dist_err <= bound + 1e-9:
        return f"dist_eq differs from the exact distance by {dist_err:.3e}"
    return None


def check_verify_frame(text: str) -> str | None:
    """Frame equivalence holds at fourth order with a small deviation."""
    try:
        payload = json.loads(text)
        order, dev = float(payload["measured_order"]), float(payload["deviation"])
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable report: {exc}"
    if not abs(order - 4.0) <= 0.3:
        return f"measured order {order} is not 4 +- 0.3"
    if not dev < 1e-8:
        return f"deviation {dev:.3e} is not below 1e-8"
    return None


class Trajectories(CliWorkload):
    """`evolve` for each initial state at one seeded point, then `verify-frame`."""

    name = "trajectories"

    def __init__(self, seed: int, workdir: Path, t_max: float = 40.0, dt: float = 1e-3):
        super().__init__(workdir)
        rng = np.random.default_rng(seed)
        # The ranges the package's own `verify` draws from.
        self.params = (float(rng.uniform(-2, 2)), float(rng.uniform(-4, 4)),
                       float(rng.uniform(0, 10)))
        self.t_max, self.dt = t_max, dt
        self.exact = ExactEvolution(*self.params, t_max, dt)
        self.frame_out = self.workdir / "frame.json"
        self.inputs = {"delta_d_gamma": self.params, "t_max": t_max, "dt": dt,
                       "states": list(ref.INITIAL_STATES)}

    def operations(self):
        delta, d, gamma = self.params
        for state, rho0 in ref.INITIAL_STATES.items():
            out = self.workdir / f"evolve-{state}.csv"
            argv = ["evolve", f"--delta={delta!r}", f"--d={d!r}", f"--gamma={gamma!r}",
                    "--rho0", state, f"--t-max={self.t_max!r}", f"--dt={self.dt!r}",
                    "--out", str(out)]
            yield (argv, out, lambda rc, o, text, rho0=rho0:
                   _exit_ok(rc) or check_trajectory(text, self.exact, rho0))
        yield (["verify-frame", "--out", str(self.frame_out)], self.frame_out,
               lambda rc, out, text: _exit_ok(rc) or check_verify_frame(text))


# --------------------------------------------------------------------------
# verify_suite
# --------------------------------------------------------------------------

def check_verify_output(rc, stdout: str, expected_checks: int) -> str | None:
    """Exit 0, one PASS line per check and the all-passed summary."""
    if rc != 0:
        return f"exit code {rc}"
    lines = stdout.strip().splitlines()
    passed = [line for line in lines if line.startswith("PASS ")]
    failed = [line for line in lines if line.startswith("FAIL ")]
    if failed or len(passed) < expected_checks:
        return f"{len(passed)} checks passed, {len(failed)} failed, expected {expected_checks}"
    if not lines or lines[-1] != f"verify: all {len(passed)} checks passed":
        return "missing the all-passed summary line"
    return None


class VerifySuite(CliWorkload):
    """`lindblad-ep verify` at its default seed: the acceptance checklist."""

    name = "verify_suite"
    ALL_CHECKS = 9

    def __init__(self, seed: int, workdir: Path, checks: tuple[str, ...] = ()):
        super().__init__(workdir)
        self.checks = checks
        self.inputs = {"verify_seed": "default", "checks": list(checks) or "all"}

    def operations(self):
        argv = ["verify"] + (["--checks", ",".join(self.checks)] if self.checks else [])
        expected = len(self.checks) or self.ALL_CHECKS
        yield argv, None, lambda rc, out, text: check_verify_output(rc, out, expected)


# --------------------------------------------------------------------------
# point_queries
# --------------------------------------------------------------------------

SHARES = {"bulk": 0.70, "ep2": 0.20, "ep3": 0.10}
SCALED_EVERY = 4  # every fourth query is scaled by s = 10^U(-60, 60)
SCALE_EXPONENT = 60.0


@dataclass(frozen=True)
class Query:
    kind: str
    base: tuple[float, float, float]
    log10_s: float | None
    rho0: str
    t: float

    @property
    def params(self) -> tuple[float, float, float]:
        if self.log10_s is None:
            return self.base
        s = 10.0**self.log10_s
        return tuple(s * x for x in self.base)


def _delta(rng) -> float:
    return float(rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 2.0))


def _near_ep2(rng) -> tuple[float, float, float]:
    delta = _delta(rng)
    d_t = rng.uniform(ref.D_TILDE_EP3, 8.0)
    g_t = ref.ep2_gamma_tilde(d_t, int(rng.choice((-1, 1))))
    if rng.uniform() < 0.75:
        g_t *= 1.0 + rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-12, -2)
    return delta, float(rng.choice((-1.0, 1.0)) * d_t * abs(delta)), g_t * abs(delta)


def _near_ep3(rng) -> tuple[float, float, float]:
    delta = _delta(rng)
    r = 10.0 ** rng.uniform(-12, -2) if rng.uniform() < 0.75 else 0.0
    theta = rng.uniform(0.0, 2.0 * math.pi)
    d_t = ref.D_TILDE_EP3 + r * math.cos(theta)
    g_t = ref.GAMMA_TILDE_EP3 + r * math.sin(theta)
    return delta, float(rng.choice((-1.0, 1.0)) * d_t * abs(delta)), g_t * abs(delta)


def make_queries(seed: int, n: int) -> list[Query]:
    """n queries with exact kind counts; every fourth is scaled, exponents stratified."""
    rng = np.random.default_rng(seed)
    counts = {kind: int(round(share * n)) for kind, share in SHARES.items()}
    counts["bulk"] += n - sum(counts.values())
    kinds = [kind for kind, c in counts.items() for _ in range(c)]
    kinds = [kinds[i] for i in rng.permutation(n)]
    n_scaled = len(range(SCALED_EVERY - 1, n, SCALED_EVERY))
    strata = rng.permutation(n_scaled)
    queries = []
    for i, kind in enumerate(kinds):
        if kind == "bulk":
            base = (float(rng.uniform(-2, 2)), float(rng.uniform(-4, 4)), float(rng.uniform(0, 10)))
        elif kind == "ep2":
            base = _near_ep2(rng)
        else:
            base = _near_ep3(rng)
        log10_s = None
        if i % SCALED_EVERY == SCALED_EVERY - 1:
            k = strata[i // SCALED_EVERY]
            log10_s = float(SCALE_EXPONENT * (2.0 * (k + rng.uniform()) / n_scaled - 1.0))
        rho0 = str(rng.choice(list(ref.INITIAL_STATES)))
        q = Query(kind, base, log10_s, rho0, 0.0)
        tau = rng.uniform(0.0, 10.0)
        queries.append(Query(kind, base, log10_s, rho0, float(tau / max(abs(x) for x in q.params))))
    return queries


@dataclass(frozen=True)
class QueryReference:
    L: np.ndarray
    eigenvalues: np.ndarray
    tol: float
    accepted: frozenset
    near_degenerate: bool
    rho_t: np.ndarray
    tol_state: float

    def refusal_ok(self, region: str) -> bool:
        """NearDegenerateError is right only near a coalescence."""
        return self.near_degenerate or (region in ref.EP_REGIONS and region in self.accepted)


# State tolerance of the eigendecomposition propagator: the 1e-10 to which the
# package conserves trace along trajectories, plus roundoff amplified by the
# square of the eigenvector condition number.
STATE_TOL = 1e-10
C_STATE = 1e3


def query_reference(q: Query) -> QueryReference:
    L = ref.generator(*q.params)
    scale = float(np.max(np.abs(L)))
    w, vectors = np.linalg.eig(L)
    pair_gap, _ = ref.gaps(w, scale)
    cond = float(np.linalg.cond(vectors))
    rho_t = ref.unflatten(ref.expm(-1j * L * q.t) @ ref.flatten(ref.INITIAL_STATES[q.rho0]))
    return QueryReference(
        L=L,
        eigenvalues=w,
        tol=ref.eig_tolerance(w, scale),
        accepted=ref.accepted_regions(*q.base),
        near_degenerate=pair_gap < ref.NEAR_DEGENERATE_GAP,
        rho_t=rho_t,
        tol_state=STATE_TOL + C_STATE * ref.EPS * cond**2,
    )


def known_defect(params: tuple[float, float, float]) -> str | None:
    """Name of the documented package defect whose input domain holds ``params``.

    scale: the absolute max(1, .) floors bind when the squared energy scale
    delta^2 + d^2 + gamma^2 is below 1, and p**3 overflows above about 1e100
    (ROADMAP item 2).  small-drive: spectral_evolve loses accuracy roughly as
    eps (scale/d)^2 when |d| is below 1% of the energy scale, because its
    closed-form eigenvectors cancel there.
    """
    delta, d, gamma = params
    energy = delta * delta + d * d + gamma * gamma
    if not 1.0 <= energy <= 1e100:
        return "scale"
    if abs(d) < 1e-2 * math.sqrt(energy):
        return "small-drive"
    return None


@dataclass
class QueryOutput:
    region: str
    closed: np.ndarray
    numeric: np.ndarray
    residuals: list
    spectrum: object
    distance: float
    rho_t: np.ndarray | None


def run_query(pkg, q: Query) -> QueryOutput:
    """What `lindblad-ep spectrum` computes, through the public API, then one propagation."""
    params = pkg.ModelParams(*q.params)
    point = pkg.classify(params)
    L = pkg.build_lindblad(params)
    closed = pkg.eigenvalues_closed_form(params).eigenvalues
    numeric = pkg.eigenvalues_numeric(L)
    residuals = [pkg.characteristic_residual(L, z) for z in (*closed, *numeric)]
    try:
        spectrum = pkg.full_spectrum(params)
    except pkg.NearDegenerateError:
        spectrum = None
    distance = pkg.match_distance(closed, numeric)
    try:
        rho_t = pkg.spectral_evolve(params, ref.INITIAL_STATES[q.rho0], q.t)
    except pkg.NearDegenerateError:
        rho_t = None
    return QueryOutput(point.region.value, closed, numeric, residuals, spectrum, distance, rho_t)


def check_query(out: QueryOutput, expect: QueryReference) -> str | None:
    if out.region not in expect.accepted:
        return f"region {out.region} not in {sorted(expect.accepted)}"
    for label, zs in (("closed-form", out.closed), ("numeric", out.numeric)):
        err = ref.bottleneck(zs, expect.eigenvalues)
        if not err <= expect.tol:
            return f"{label} eigenvalues off LAPACK by {err:.3e} > {expect.tol:.3e}"
    for z, res in zip((*out.closed, *out.numeric), out.residuals):
        a = expect.L - z * np.eye(4)
        # Rounding in a 4x4 determinant stays far below eps times Hadamard's bound.
        tol = 1e3 * ref.EPS * float(np.prod(np.linalg.norm(a, axis=1)))
        if not abs(res - abs(np.linalg.det(a))) <= tol:
            return f"characteristic residual {res:.3e} is not |det(L - zI)| within {tol:.3e}"
    if not out.distance <= 2.0 * expect.tol:
        return f"match_distance {out.distance:.3e} exceeds {2.0 * expect.tol:.3e}"
    if out.spectrum is None and not expect.refusal_ok(out.region):
        return "full_spectrum refused a separable point"
    if out.rho_t is None:
        if not expect.refusal_ok(out.region):
            return "spectral_evolve refused a separable point"
    else:
        err = float(np.max(np.abs(np.asarray(out.rho_t) - expect.rho_t)))
        if not err <= expect.tol_state:
            return f"spectral_evolve state off exp(-iLt) by {err:.3e} > {expect.tol_state:.3e}"
    return None


class PointQueries:
    """Seeded single-point spectrum queries; a third of the points sit near a
    coalescence and every fourth is scaled by 10^U(-60, 60)."""

    name = "point_queries"
    ops_are_queries = True

    def __init__(self, seed: int, workdir: Path, n: int = 1000):
        self.queries = make_queries(seed, n)
        self.references = [query_reference(q) for q in self.queries]
        kinds = [q.kind for q in self.queries]
        self.inputs = {
            "queries": n,
            "kinds": {kind: kinds.count(kind) for kind in SHARES},
            "scaled": sum(q.log10_s is not None for q in self.queries),
            "log10_s_range": [-SCALE_EXPONENT, SCALE_EXPONENT],
        }

    def run_pass(self, pkg, clock=None) -> PassResult:
        result = PassResult()
        for q, expect in zip(self.queries, self.references):
            mark = clock.mark() if clock else None
            try:
                out = run_query(pkg, q)
            except Exception as exc:  # an unexpected raise is a failed query
                out, error = None, f"{type(exc).__name__}: {exc}"
            wall, seconds = clock.since(mark) if clock else (0.0, 0.0)
            if out is not None:
                error = check_query(out, expect)
            if error is not None:
                error = f"{q.kind} {q.params} (log10 s = {q.log10_s}): {error}"
            result.record(wall, seconds, error, error and known_defect(q.params))
        return result


WORKLOADS = {cls.name: cls for cls in (PhaseSweep, Trajectories, PointQueries, VerifySuite)}
