"""Coalescence curves, the triple point, and phase-plane classification.

Everything here lives in the scaled coordinates d_tilde = d/delta and
gamma_tilde = gamma/delta, where the two second-order coalescence curves and
their triple-point endpoint sit at fixed positions.  The discriminant
p^3 + q^2 of the eigenvalue cubic changes sign exactly on the curves, which is
what both the classifier and the numeric curve locator exploit.  Near them the
sign of q, which names the closer eigenvalue pair, names the branch as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

# The triple point is defined in constants, which needs no numpy; re-exported here.
from .constants import D_TILDE_EP3, GAMMA_TILDE_EP3, Z_EP3, ep3_point  # noqa: F401
from .errors import DegenerateFitError, DomainError, NoRootError
from .model import ModelParams, _refuse
from .spectrum import (
    _closed_form_stack,
    _cubic,
    _cubic_coeffs,
    _in_blocks,
    _kernels,
    _pow,
)

# Relative half-width of the |disc| band that earns a coalescence label.  The
# discriminant scales as the sixth power of energy, so the band uses the cube
# of the squared energy scale.
EP_BAND = 1e-10

# Looser smallness test on p and q themselves (scaled) that upgrades a point
# inside the band to the triple-point label.  Wide enough that inputs rounded
# to a handful of significant digits still classify as the triple point.
EP3_BAND = 1e-5

# |Im z1 - Im z2| at or below this, relative to max(1, |z1|, |z2|), is ordering 0.
_ORDERING_RTOL = 1e-12

class Region(Enum):
    """Eigenvalue configuration at one point of the phase plane."""

    SPLIT_PAIR = "SplitPair"
    ALL_IMAGINARY = "AllImaginary"
    EP2_MINUS = "EP2Minus"
    EP2_PLUS = "EP2Plus"
    EP3 = "EP3"


# The labels of the exceptional points, where no complete mode basis exists.
_EP_REGIONS = (Region.EP2_MINUS, Region.EP2_PLUS, Region.EP3)

# Region codes of the classifier: code k is _REGIONS[k], the k-th member of Region
# in declaration order (0 SplitPair, 1 AllImaginary, 2 EP2Minus, 3 EP2Plus, 4 EP3).
_REGIONS = np.array(list(Region), dtype=object)
_CODE = {region: np.int8(k) for k, region in enumerate(_REGIONS)}
_SPLIT_PAIR, _ALL_IMAGINARY = _CODE[Region.SPLIT_PAIR], _CODE[Region.ALL_IMAGINARY]
_EP2_MINUS, _EP2_PLUS, _EP3 = (_CODE[region] for region in _EP_REGIONS)


@dataclass(frozen=True)
class PhasePoint:
    """Scaled coordinates, discriminant value and region label of one point.

    ``ordering`` is sign(Im z1 - Im z2), a plotting aid that distinguishes the
    two split-pair layouts without asserting which is which.
    """

    d_tilde: float
    gamma_tilde: float
    disc: float
    region: Region
    ordering: int


@dataclass(frozen=True)
class EPCurvePoint:
    """Both coalescence branches at one drive value, in units of the detuning."""

    d_tilde: float
    gamma_tilde_minus: float
    gamma_tilde_plus: float
    z_ep2_minus: complex
    z_ep2_plus: complex


def discriminant(params: ModelParams) -> float:
    """p^3 + q^2 of the eigenvalue cubic; zero exactly on the coalescence set."""
    return _cubic_coeffs(params.delta, params.d, params.gamma)[3]


def scaled_discriminant(params: ModelParams) -> float:
    """Discriminant divided by its natural sixth-power energy scale."""
    return float(_scaled_disc(params.delta, params.d, params.gamma))


def _scaled_disc(delta, d, gamma) -> np.ndarray:
    """:func:`scaled_discriminant` at one point of three floats, or elementwise over
    arrays that broadcast together."""
    k = _kernels(delta, d, gamma)
    _, _, _, disc, energy = _cubic_coeffs(delta, d, gamma)
    return disc / k.maximum(1.0, k.pow(energy, 3))


# On-curve residual above which `ep-curve` and `verify` fail the closed-form curves.
_ON_CURVE_TOL = 1e-10


def _on_curve_residual(d_tilde: np.ndarray, gammas: np.ndarray) -> np.ndarray:
    """|scaled discriminant| at unit detuning, drive ``d_tilde[k]`` and couplings ``gammas[k]``."""
    return np.abs(_scaled_disc(1.0, d_tilde[:, None], gammas))


def _drives(d_tilde) -> tuple:
    """``d_tilde`` as a 1-D array of drives, and the namer of :func:`model._refuse` for
    its elements: None for one number."""
    d = np.asarray(d_tilde, dtype=float)
    if d.ndim > 1:
        raise DomainError(f"d_tilde must be a number or a 1-D array, got shape {d.shape}")
    return d.reshape(-1), None if d.ndim == 0 else "element {} of the batch: ".format


def _curve(d_tilde) -> tuple:
    """``((gamma_minus, gamma_plus), (z_minus, z_plus))`` from one evaluation of the
    curve formulas on a (branch, drive) array: numbers for one drive, 1-D arrays for a
    batch.  Refuses a drive below the threshold or infinite, or far above it one where
    gamma_minus^2 cancels below zero, then a negative inner radicand (drive, then branch)."""
    d, batch = _drives(d_tilde)
    _refuse(~(d >= D_TILDE_EP3), DomainError,
            lambda i: f"no real coalescence curves below d_tilde = 2*sqrt(2); got {float(d[i])}",
            batch)
    _refuse(d == math.inf, DomainError, lambda i: f"d_tilde must be finite, got {float(d[i])!r}",
            batch)
    d2, d4 = _pow(d, 2), _pow(d, 4)
    sign = np.array([[-1.0], [1.0]])
    wing = 0.5 * sign * d * _pow(np.maximum(d2 - 8.0, 0.0), 1.5)
    gamma2 = d4 / 2.0 + 10.0 * d2 - 4.0 + wing
    inner = d4 / 2.0 - 2.0 * d2 - 16.0 + wing
    _refuse(gamma2[0] < 0.0, DomainError,
            lambda i: f"gamma_minus^2 cancels below zero at d_tilde = {float(d[i])}", batch)
    _refuse((inner < -1e-9 * np.maximum(1.0, d4)).T, DomainError,
            lambda i, row: f"inner radicand {float(inner[row, i]):.3e} is negative on the "
            f"{('minus', 'plus')[row]} branch at d_tilde = {float(d[i])}; "
            "curve formula invalid here", batch)
    gammas = np.sqrt(gamma2)
    z = (-2j / 3.0) * (gammas - sign * 0.25 * np.sqrt(np.maximum(inner, 0.0)))
    if batch is None:
        return tuple(gammas[:, 0].tolist()), tuple(z[:, 0].tolist())
    return tuple(gammas), tuple(z)


def ep2_gamma(d_tilde):
    """The two coalescence couplings at drive ``d_tilde``, in units of the detuning.

    Real solutions exist only for d_tilde >= 2 sqrt(2); the two branches merge
    there at 6 sqrt(3).  Returned as (gamma_minus, gamma_plus) with
    gamma_minus <= gamma_plus: two floats for one drive, or two arrays for a
    1-D array of drives, each element equal to the call on its drive alone.
    A drive below the threshold, NaN or infinite raises :class:`DomainError`.
    """
    return _curve(d_tilde)[0]


def ep2_eigenvalue(d_tilde, branch: str):
    """Coalesced eigenvalue on one branch of the curves, in units of the detuning.

    Equal to -(2i/3) (gamma_tilde - (3/2) cbrt(q)) with q evaluated on the
    curve; the cube root is carried by the inner radical below, whose sign
    follows sign(q), positive on the plus branch and negative on the minus
    branch.  Pure imaginary by construction.  The inner radicand is checked
    rather than assumed nonnegative; a tiny negative from roundoff is clamped,
    anything larger raises.  Drives are taken as by :func:`ep2_gamma`, and
    refused on either branch as on both; ``branch`` is checked first.
    """
    if branch not in ("minus", "plus"):
        raise DomainError(f"branch must be 'minus' or 'plus', got {branch!r}")
    return _curve(d_tilde)[1][branch == "plus"]


def ep_curve_point(d_tilde: float) -> EPCurvePoint:
    """Both branches of the coalescence curves at one drive value.

    ``d_tilde`` is one number: a list or an array with an axis raises
    :class:`DomainError` before the curve formulas run.  Other refusals are
    those of :func:`ep2_eigenvalue`.
    """
    if np.ndim(d_tilde) != 0:
        raise DomainError(f"d_tilde must be one number, got shape {np.shape(d_tilde)}")
    (gm, gp), (z_minus, z_plus) = _curve(d_tilde)
    return EPCurvePoint(float(d_tilde), gm, gp, z_minus, z_plus)


def classify(params: ModelParams) -> PhasePoint:
    """Eigenvalue-configuration label at one parameter point.

    Regions follow the discriminant sign: positive means one imaginary
    eigenvalue plus a pair mirrored about the imaginary axis, negative means
    all three decaying eigenvalues imaginary.  A relative band around zero is
    reserved for the coalescence labels, ``|disc| <= EP_BAND * scale2^3`` with
    ``scale2 = max(1, energy)``.  Inside it the triple point is recognised by p
    and q themselves being small, ``|p| <= EP3_BAND * scale2`` and
    ``q^2 <= EP3_BAND^3 * scale2^3`` (that is, max(|p|, |q|^(2/3)) <=
    EP3_BAND * scale2, in integer powers), and the two second-order branches
    are told apart by sign(q), which names the closer pair of decaying
    eigenvalues: EP2Plus where q > 0, the two slowest-decaying modes, else
    EP2Minus.

    The band is not a guard against rounding.  Against an exact rational
    reference, the float discriminant had the right sign at every node of
    every tenth row of the default grid, with an error of at most
    3e-17 * energy^3; ``EP_BAND = 1e-10`` is about 3e6 times that.  The
    default grid's 7 band nodes, whose exact |disc| is 5e-5 to 6e-4, are
    labelled for being near a curve, not because their sign is in doubt.
    """
    _refuse_zero_delta(params.delta)
    disc, code, ordering = _classify(params.delta, params.d, params.gamma)
    return PhasePoint(*params.scaled(), disc, _REGIONS[code], ordering)


def _classify(delta, d, gamma) -> tuple:
    """``(disc, region code, ordering)`` at one point of three Python floats (a float
    disc, an int ordering), or elementwise over arrays that broadcast together, each
    entry equal to the point's bit for bit, on the kernels of _cubic."""
    k = _kernels(delta, d, gamma)
    p, q, disc, energy, _, _, z1, z2, _ = _cubic(delta, d, gamma)
    scale2 = k.maximum(1.0, energy)
    scale6 = k.pow(scale2, 3)
    imdiff = z1.imag - z2.imag
    tol = _ORDERING_RTOL * k.maximum(1.0, k.abs(z1), k.abs(z2))
    # The sign of imdiff, and 0 where |imdiff| <= tol: an int at a point, int64 on arrays.
    ordering = (imdiff > tol) * 1 - (imdiff < -tol) * 1
    # The decaying eigenvalues are -i (2 gamma/3 + y) over the roots y of
    # y^3 + 3 p y - 2 q = 0, whose product is 2 q, so sign(q) names the closer pair:
    # q > 0 the two slowest-decaying modes, EP2Plus.
    ep2 = k.where(q > 0, _EP2_PLUS, _EP2_MINUS)
    # max(|p|, |q|^(2/3)) <= EP3_BAND * scale2, in integer powers.
    ep3 = (abs(p) <= EP3_BAND * scale2) & (q * q <= EP3_BAND**3 * scale6)
    codes = k.where(abs(disc) <= EP_BAND * scale6, k.where(ep3, _EP3, ep2),
                    k.where(disc > 0, _SPLIT_PAIR, _ALL_IMAGINARY))
    return disc, codes, ordering


def _refuse_zero_delta(delta: float) -> None:
    if delta == 0:
        raise DomainError("phase-plane classification needs delta != 0 "
                          "(coordinates are d/delta and gamma/delta)")


def classify_grid(delta: float, d_tilde, gamma_tilde) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`classify` over the outer grid of two 1-D scaled-coordinate arrays.

    Returns ``(disc, region, ordering)``, each of shape
    ``(len(d_tilde), len(gamma_tilde))``, with ``region`` an object array of
    :class:`Region` members.  Every entry equals, bit for bit, the field of
    ``classify(ModelParams(delta, d_t * delta, g_t * delta))`` at that node:
    both run one classifier body, whose kernels are picked by the input's type,
    in blocks of whole d-rows of about 8,192 nodes (``spectrum._BLOCK``), each
    one array pass.  The pass labels nodes with ``int8`` region codes, indices
    into the region table ``_REGIONS`` (code k is the k-th member of
    :class:`Region` in declaration order); ``region`` is that table indexed by
    the codes.
    """
    disc, codes, ordering = _classify_codes(delta, d_tilde, gamma_tilde)
    return disc, _REGIONS[codes], ordering


def _classify_codes(
    delta: float, d_tilde, gamma_tilde
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`classify_grid` with ``int8`` codes: the grid's checks, then :func:`_classify`."""
    delta = float(delta)
    _refuse_zero_delta(delta)
    # An infinite or overflowing product is refused below, without numpy's warning.
    with np.errstate(invalid="ignore", over="ignore"):
        d = np.asarray(d_tilde, dtype=float) * delta
        gamma = np.asarray(gamma_tilde, dtype=float) * delta
    if d.ndim != 1 or gamma.ndim != 1:
        raise DomainError("d_tilde and gamma_tilde must be 1-D grids")
    if not (math.isfinite(delta) and np.isfinite(d).all() and np.isfinite(gamma).all()):
        raise DomainError("delta, d and gamma must be finite on the whole grid")
    if (gamma < 0).any():
        raise DomainError(f"gamma must be >= 0, got {gamma.min()}")
    # Blocks of whole d-rows, or of one long row's columns, each classified into the
    # preallocated outputs: memory grows with the outputs and one block.
    shape = (len(d), len(gamma))
    outs = (np.empty(shape), np.empty(shape, dtype=np.int8), np.empty(shape, dtype=np.int64))

    def block(ix):
        rows, cols = ix if type(ix) is tuple else (ix, slice(None))
        return _classify(delta, d[rows, None], gamma[None, cols])

    return _in_blocks(block, outs, len(gamma))


def _disc_at(d_tilde: np.ndarray, x: np.ndarray) -> np.ndarray:
    """:func:`discriminant` at unit detuning, drive ``d_tilde`` and coupling sqrt(x)."""
    return _cubic_coeffs(1.0, d_tilde, np.sqrt(x))[3]


def _bisect_brackets(f, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Bisection of every bracket [lo[k], hi[k]] to the last representable float.

    ``f(x, k)`` is the function of bracket ``k[i]`` at ``x[i]``, for arrays
    ``x`` and ``k``; each pass evaluates it on the brackets still open only.
    A bracket stops where a bisection of it alone would: at an endpoint or
    midpoint where f is zero, or at a midpoint equal to an endpoint.
    Requires a sign change in every bracket.
    """
    k = np.arange(len(lo))
    flo, fhi = f(lo, k), f(hi, k)
    root = np.where(flo == 0.0, lo, hi)
    open_ = (flo != 0.0) & (fhi != 0.0)
    up = flo > 0.0
    _refuse(open_ & (up == (fhi > 0.0)), NoRootError,
            lambda i: f"no sign change over [{float(lo[i])}, {float(hi[i])}]")
    k, lo, hi, up = k[open_], lo[open_], hi[open_], up[open_]
    while k.size:
        mid = 0.5 * (lo + hi)
        live = (mid != lo) & (mid != hi)
        fm = np.zeros_like(mid)
        fm[live] = f(mid[live], k[live])
        done = fm == 0.0
        root[k[done]] = mid[done]
        # f keeps the sign class of f(lo) at lo, so ``up`` never changes.
        to_lo = (fm > 0.0) == up
        lo, hi = np.where(to_lo, mid, lo), np.where(to_lo, hi, mid)
        k, lo, hi, up = k[~done], lo[~done], hi[~done], up[~done]
    return root


def ep2_locate_numeric(d_tilde):
    """Coalescence couplings by bracketed bisection on the discriminant sign.

    Oracle for :func:`ep2_gamma`: only directly evaluated discriminant signs
    drive the search.  ``d_tilde`` is one drive, giving two floats, or a 1-D
    array of drives, giving two arrays; the brackets of all drives are
    bisected together, and each element equals the call on its drive alone.
    Raises :class:`NoRootError` when no negative dip exists (drive below
    threshold); for an array the message names the first such element.
    """
    d, batch = _drives(d_tilde)
    _refuse(~np.isfinite(d), DomainError, lambda i: f"d_tilde must be finite, got {float(d[i])!r}",
            batch)
    x_star, depth = _dip(d)
    _refuse(depth >= 0.0, NoRootError,
            lambda i: f"discriminant has no negative dip at d_tilde = {float(d[i])}; "
            "no coalescence coupling exists", batch)
    hi = 2.0 * x_star
    rows = np.arange(len(d))
    for _ in range(64):
        rows = rows[~(_disc_at(d[rows], hi[rows]) > 0.0)]
        if not rows.size:
            break
        hi[rows] *= 2.0
    else:
        _refuse(np.isin(np.arange(len(d)), rows), NoRootError,
                lambda i: "failed to bracket the upper coalescence coupling", batch)
    # Brackets [0, x*] of the minus branch, then [x*, hi] of the plus branch.
    both = np.concatenate([d, d])
    x = _bisect_brackets(
        lambda x, k: _disc_at(both[k], x),
        np.concatenate([np.zeros_like(x_star), x_star]),
        np.concatenate([x_star, hi]),
    )
    gammas = np.sqrt(x).reshape(2, len(d))
    return tuple(gammas[:, 0].tolist()) if batch is None else tuple(gammas)


def _dip(d_tilde: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bottom x* of the discriminant's dip in x = gamma^2, and its depth there.

    At unit detuning, p^3 + q^2 = c0 + c1 x + c2 x^2 exactly: the cubic terms
    of p^3 and q^2 in x cancel identically.  x* = -c1 / (2 c2) seeds the
    brackets; the depth, and every sign a search uses, is the discriminant
    evaluated directly at max(x*, 0), which is p^3 > 0 where x* <= 0
    (|d_tilde| < 0.63).  Elementwise over an array of drives.
    """
    d2 = _pow(d_tilde, 2)
    a = 1.0 + d2
    b = 1.0 - d2 / 2.0
    c1 = (3.0 * _pow(b, 2) - _pow(a, 2)) / 108.0
    c2 = 1.0 / 432.0
    x_star = -c1 / (2.0 * c2)
    return x_star, _disc_at(d_tilde, np.maximum(x_star, 0.0))


def ep3_locate_numeric(d_lo: float = 2.0, d_hi: float = 3.5) -> tuple[float, float, complex]:
    """Locate the curve-merging point by bisection on existence of the negative dip.

    Returns the scaled drive and coupling of the endpoint and the triple
    eigenvalue there (from the exactly known mean of the three decaying
    roots).  Everything is derived from discriminant signs, independent of the
    closed-form curve expressions.
    """
    bounds = np.array([d_lo, d_hi], dtype=float)
    if not np.isfinite(bounds).all():
        raise DomainError(f"bracket ends must be finite, got [{d_lo}, {d_hi}]")
    depth_lo, depth_hi = _dip(bounds)[1]
    if not (depth_lo > 0.0 and depth_hi < 0.0):
        raise NoRootError(f"[{d_lo}, {d_hi}] does not bracket the curve endpoint")
    d_t = float(_bisect_brackets(lambda x, k: _dip(x)[1], bounds[:1], bounds[1:])[0])
    x_star, _ = _dip(np.array([d_t]))
    gamma_t = math.sqrt(x_star[0])
    return d_t, gamma_t, -2j * gamma_t / 3.0


def splitting_exponent(base: PhasePoint, direction, epsilons) -> float:
    """Least-squares slope of log(gap) versus log(eps) for perturbations off an EP.

    The gap is |z2 - z3| off a second-order point and the largest pairwise
    distance among the three decaying eigenvalues off the triple point.
    Expected slopes for directions transverse to the curves: 1/2 and 1/3.

    Raises :class:`DegenerateFitError` when fewer than two usable points
    remain after dropping nonpositive epsilons and underflowed gaps.
    """
    if base.region not in _EP_REGIONS:
        raise DomainError("base point must carry an exceptional-point label")
    ux, uy = float(direction[0]), float(direction[1])
    norm = math.hypot(ux, uy)
    if norm == 0.0:
        raise DomainError("direction must be a nonzero vector")
    ux, uy = ux / norm, uy / norm
    eps = np.asarray(epsilons, dtype=float).ravel()
    eps = eps[~(eps <= 0.0)]
    # A non-finite sum is refused below, without numpy's warning.
    with np.errstate(invalid="ignore", over="ignore"):
        d_t, g_t = base.d_tilde + eps * ux, base.gamma_tilde + eps * uy
    bad = ~(np.isfinite(d_t) & np.isfinite(g_t) & (g_t >= 0.0))
    if bad.any():
        i = int(np.argmax(bad))
        ModelParams(1.0, d_t[i], g_t[i])  # raises the refusal of the first such point
    zz = _closed_form_stack(np.ones_like(eps), d_t, g_t)
    diff = zz[:, [1, 1, 2]] - zz[:, [2, 3, 3]]
    pairwise = np.hypot(diff.real, diff.imag)
    # Off a second-order point the coalescing pair is the closest one; fixed
    # labels can swap across the curves under the cube-root branch convention.
    gaps = pairwise.max(axis=1) if base.region is Region.EP3 else pairwise.min(axis=1)
    logs = [(math.log(e), math.log(gap))
            for e, gap in zip(eps.tolist(), gaps.tolist()) if gap > 1e-12]
    if len(logs) < 2:
        raise DegenerateFitError(
            "fewer than two usable (eps, gap) points; cannot fit an exponent"
        )
    x, y = np.array(logs).T
    return float(np.polyfit(x, y, 1)[0])
