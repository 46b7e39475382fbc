"""Coalescence curves, the triple point, and phase-plane classification.

Everything here lives in the scaled coordinates d_tilde = d/delta and
gamma_tilde = gamma/delta, where the two second-order coalescence curves and
their triple-point endpoint sit at fixed positions.  The discriminant
p^3 + q^2 of the eigenvalue cubic changes sign exactly on the curves, which is
what both the classifier and the numeric curve locator exploit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DegenerateFitError, DomainError, NoRootError
from .model import ModelParams
from .spectrum import (
    Spectrum,
    _closed_form,
    _cubic_coeffs,
    _cubic_grid,
    _pow,
    cardano_params,
    eigenvalues_closed_form,
)

D_TILDE_EP3 = 2.0 * math.sqrt(2.0)
GAMMA_TILDE_EP3 = 6.0 * math.sqrt(3.0)
Z_EP3 = -4j * math.sqrt(3.0)

# Relative half-width of the |disc| band that earns a coalescence label.  The
# discriminant scales as the sixth power of energy, so the band uses the cube
# of the squared energy scale.
EP_BAND = 1e-10

# Looser smallness test on p and q themselves (scaled) that upgrades a point
# inside the band to the triple-point label.  Wide enough that inputs rounded
# to a handful of significant digits still classify as the triple point.
EP3_BAND = 1e-5


class Region(Enum):
    """Eigenvalue configuration at one point of the phase plane."""

    SPLIT_PAIR = "SplitPair"
    ALL_IMAGINARY = "AllImaginary"
    EP2_MINUS = "EP2Minus"
    EP2_PLUS = "EP2Plus"
    EP3 = "EP3"


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
    return cardano_params(params).disc


def scaled_discriminant(params: ModelParams) -> float:
    """Discriminant divided by its natural sixth-power energy scale."""
    return discriminant(params) / max(1.0, params.energy_scale() ** 3)


def ep2_gamma(d_tilde: float) -> tuple[float, float]:
    """The two coalescence couplings at drive ``d_tilde``, in units of the detuning.

    Real solutions exist only for d_tilde >= 2 sqrt(2); the two branches merge
    there at 6 sqrt(3).  Returned as (gamma_minus, gamma_plus) with
    gamma_minus <= gamma_plus.
    """
    d_tilde = float(d_tilde)
    if not d_tilde >= D_TILDE_EP3:
        raise DomainError(
            f"no real coalescence curves below d_tilde = 2*sqrt(2); got {d_tilde}"
        )
    core = d_tilde**4 / 2.0 + 10.0 * d_tilde**2 - 4.0
    wing = 0.5 * d_tilde * max(d_tilde**2 - 8.0, 0.0) ** 1.5
    return math.sqrt(core - wing), math.sqrt(core + wing)


def ep2_eigenvalue(d_tilde: float, branch: str) -> complex:
    """Coalesced eigenvalue on one branch of the curves, in units of the detuning.

    Equal to -(2i/3) (gamma_tilde - (3/2) cbrt(q)) with q evaluated on the
    curve; the cube root is carried by the inner radical below, whose sign
    follows sign(q), positive on the plus branch and negative on the minus
    branch.  Pure imaginary by construction.  The inner radicand is checked
    rather than assumed nonnegative; a tiny negative from roundoff is clamped,
    anything larger raises.
    """
    if branch not in ("minus", "plus"):
        raise DomainError(f"branch must be 'minus' or 'plus', got {branch!r}")
    gamma_minus, gamma_plus = ep2_gamma(d_tilde)
    sign = -1.0 if branch == "minus" else 1.0
    gamma_t = gamma_minus if branch == "minus" else gamma_plus
    inner = (
        d_tilde**4 / 2.0
        - 2.0 * d_tilde**2
        - 16.0
        + sign * 0.5 * d_tilde * max(d_tilde**2 - 8.0, 0.0) ** 1.5
    )
    if inner < -1e-9 * max(1.0, d_tilde**4):
        raise DomainError(
            f"inner radicand {inner:.3e} is negative on the {branch} branch "
            f"at d_tilde = {d_tilde}; curve formula invalid here"
        )
    inner = max(inner, 0.0)
    return (-2j / 3.0) * (gamma_t - sign * 0.25 * math.sqrt(inner))


def ep_curve_point(d_tilde: float) -> EPCurvePoint:
    """Both branches of the coalescence curves at one drive value."""
    gm, gp = ep2_gamma(d_tilde)
    return EPCurvePoint(
        d_tilde=float(d_tilde),
        gamma_tilde_minus=gm,
        gamma_tilde_plus=gp,
        z_ep2_minus=ep2_eigenvalue(d_tilde, "minus"),
        z_ep2_plus=ep2_eigenvalue(d_tilde, "plus"),
    )


def ep3_point() -> tuple[float, float, complex]:
    """Drive, coupling and eigenvalue of the triple coalescence (units of detuning)."""
    return D_TILDE_EP3, GAMMA_TILDE_EP3, Z_EP3


def classify(params: ModelParams) -> PhasePoint:
    """Eigenvalue-configuration label at one parameter point.

    Regions follow the discriminant sign: positive means one imaginary
    eigenvalue plus a pair mirrored about the imaginary axis, negative means
    all three decaying eigenvalues imaginary.  A relative band around zero is
    reserved for the coalescence labels; inside it the triple point is
    recognised by p and q themselves being small, and the two second-order
    branches are told apart by which curve the point sits nearer.
    """
    return _classified(params)[0]


def _classified(params: ModelParams) -> tuple[PhasePoint, Spectrum]:
    """:func:`classify` plus the closed-form spectrum, from one solve of the cubic."""
    if params.delta == 0:
        raise DomainError("phase-plane classification needs delta != 0 "
                          "(coordinates are d/delta and gamma/delta)")
    d_t, g_t = params.scaled()
    cp = cardano_params(params)
    scale2 = max(1.0, params.energy_scale())
    band = EP_BAND * scale2**3

    bare = _closed_form(params, cp)
    zs = bare.eigenvalues
    imdiff = zs[1].imag - zs[2].imag
    if abs(imdiff) <= 1e-12 * max(1.0, abs(zs[1]), abs(zs[2])):
        ordering = 0
    else:
        ordering = 1 if imdiff > 0 else -1

    if abs(cp.disc) > band:
        region = Region.SPLIT_PAIR if cp.disc > 0 else Region.ALL_IMAGINARY
    else:
        region = _coalescence_region(cp.p, cp.q, scale2, d_t, g_t)
    return PhasePoint(d_tilde=d_t, gamma_tilde=g_t, disc=cp.disc,
                      region=region, ordering=ordering), bare


def _coalescence_region(p: float, q: float, scale2: float, d_t: float, g_t: float) -> Region:
    """Label of a point inside the |disc| band: the triple point or one EP2 branch."""
    if max(abs(p), abs(q) ** (2.0 / 3.0)) <= EP3_BAND * scale2:
        return Region.EP3
    try:
        gm, gp = ep2_gamma(abs(d_t))
        midpoint = 0.5 * (gm + gp)
    except DomainError:
        # Below the drive threshold the band can only be entered near the
        # triple point; split on the coupling side of it.
        midpoint = GAMMA_TILDE_EP3
    return Region.EP2_MINUS if abs(g_t) <= midpoint else Region.EP2_PLUS


def classify_grid(delta: float, d_tilde, gamma_tilde) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`classify` over the outer grid of two 1-D scaled-coordinate arrays.

    Returns ``(disc, region, ordering)``, each of shape
    ``(len(d_tilde), len(gamma_tilde))``, with ``region`` an object array of
    :class:`Region` members.  Every entry equals, bit for bit, the field of
    ``classify(ModelParams(delta, d_t * delta, g_t * delta))`` at that node:
    the whole grid is one array pass, and only the few points inside the
    |disc| band go through the scalar coalescence labelling.
    """
    delta = float(delta)
    if delta == 0:
        raise DomainError("phase-plane classification needs delta != 0 "
                          "(coordinates are d/delta and gamma/delta)")
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

    cubic = _cubic_grid(delta, d[:, None], gamma[None, :])
    scale2 = np.maximum(1.0, cubic.energy)
    band = EP_BAND * _pow(scale2, 3)

    z1, z2 = cubic.z1, cubic.z2
    imdiff = z1.imag - z2.imag
    size = np.maximum(np.maximum(1.0, np.hypot(z1.real, z1.imag)), np.hypot(z2.real, z2.imag))
    ordering = np.where(np.abs(imdiff) <= 1e-12 * size, 0, np.where(imdiff > 0, 1, -1))

    region = np.where(cubic.disc > 0, Region.SPLIT_PAIR, Region.ALL_IMAGINARY)
    for i, j in zip(*np.nonzero(np.abs(cubic.disc) <= band)):
        region[i, j] = _coalescence_region(
            float(cubic.p[i, j]), float(cubic.q[i, j]), float(scale2[i, j]),
            float(d[i]) / delta, float(gamma[j]) / delta,
        )
    return cubic.disc, region, ordering


def _disc_quadratic_coeffs(d_tilde):
    """Exact coefficients of the discriminant as a quadratic in x = gamma^2.

    At unit detuning, p^3 + q^2 = c0 + c1 x + c2 x^2: the cubic terms of p^3
    and q^2 in x cancel identically.  Used only to seed brackets; the searches
    themselves evaluate the discriminant directly.  Elementwise over an array
    of drives.
    """
    d2 = _pow(np.asarray(d_tilde, dtype=float), 2)
    a = 1.0 + d2
    b = 1.0 - d2 / 2.0
    c0 = _pow(a, 3) / 27.0
    c1 = (3.0 * _pow(b, 2) - _pow(a, 2)) / 108.0
    c2 = 1.0 / 432.0
    return c0, c1, c2


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
    same = open_ & (up == (fhi > 0.0))
    if same.any():
        i = int(np.argmax(same))
        raise NoRootError(f"no sign change over [{float(lo[i])}, {float(hi[i])}]")
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


def _element(i: int, one: bool) -> str:
    """Message prefix naming element ``i`` of a batch of drives; none for one drive."""
    return "" if one else f"element {i} of the batch: "


def ep2_locate_numeric(d_tilde):
    """Coalescence couplings by bracketed bisection on the discriminant sign.

    Oracle for :func:`ep2_gamma`: only directly evaluated discriminant signs
    drive the search.  ``d_tilde`` is one drive, giving two floats, or a 1-D
    array of drives, giving two arrays; the brackets of all drives are
    bisected together, and each element equals the call on its drive alone.
    Raises :class:`NoRootError` when no negative dip exists (drive below
    threshold); for an array the message names the first such element.
    """
    d = np.asarray(d_tilde, dtype=float)
    if d.ndim > 1:
        raise DomainError(f"d_tilde must be a number or a 1-D array, got shape {d.shape}")
    one = d.ndim == 0
    d = d.reshape(-1)
    bad = ~np.isfinite(d)
    if bad.any():
        i = int(np.argmax(bad))
        raise DomainError(_element(i, one) + f"d_tilde must be finite, got {float(d[i])!r}")
    c0, c1, c2 = _disc_quadratic_coeffs(d)
    x_star = -c1 / (2.0 * c2)

    bad = x_star <= 0.0
    bad[~bad] = _disc_at(d[~bad], x_star[~bad]) >= 0.0
    if bad.any():
        i = int(np.argmax(bad))
        raise NoRootError(
            _element(i, one) + f"discriminant has no negative dip at d_tilde = {float(d[i])}; "
            "no coalescence coupling exists"
        )
    hi = 2.0 * x_star
    rows = np.arange(len(d))
    for _ in range(64):
        rows = rows[~(_disc_at(d[rows], hi[rows]) > 0.0)]
        if not rows.size:
            break
        hi[rows] *= 2.0
    else:
        raise NoRootError(
            _element(int(rows[0]), one) + "failed to bracket the upper coalescence coupling"
        )
    # Brackets [0, x*] of the minus branch, then [x*, hi] of the plus branch.
    both = np.concatenate([d, d])
    x = _bisect_brackets(
        lambda x, k: _disc_at(both[k], x),
        np.concatenate([np.zeros_like(x_star), x_star]),
        np.concatenate([x_star, hi]),
    )
    gamma_minus, gamma_plus = np.sqrt(x[: len(d)]), np.sqrt(x[len(d):])
    if one:
        return float(gamma_minus[0]), float(gamma_plus[0])
    return gamma_minus, gamma_plus


def _dip_depth(d_tilde: np.ndarray) -> np.ndarray:
    """Discriminant at the bottom of its dip in x = gamma^2, or c0 where x* <= 0."""
    c0, c1, c2 = _disc_quadratic_coeffs(d_tilde)
    x_star = -c1 / (2.0 * c2)
    dip = ~(x_star <= 0.0)
    c0[dip] = _disc_at(d_tilde[dip], x_star[dip])
    return c0


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
    depth_lo, depth_hi = _dip_depth(bounds)
    if not (depth_lo > 0.0 and depth_hi < 0.0):
        raise NoRootError(f"[{d_lo}, {d_hi}] does not bracket the curve endpoint")
    d_t = float(_bisect_brackets(lambda x, k: _dip_depth(x), bounds[:1], bounds[1:])[0])
    _, c1, c2 = _disc_quadratic_coeffs(d_t)
    gamma_t = math.sqrt(-c1 / (2.0 * c2))
    return d_t, gamma_t, -2j * gamma_t / 3.0


def splitting_exponent(base: PhasePoint, direction, epsilons) -> float:
    """Least-squares slope of log(gap) versus log(eps) for perturbations off an EP.

    The gap is |z2 - z3| off a second-order point and the largest pairwise
    distance among the three decaying eigenvalues off the triple point.
    Expected slopes for directions transverse to the curves: 1/2 and 1/3.

    Raises :class:`DegenerateFitError` when fewer than two usable points
    remain after dropping nonpositive epsilons and underflowed gaps.
    """
    if base.region not in (Region.EP2_MINUS, Region.EP2_PLUS, Region.EP3):
        raise DomainError("base point must carry an exceptional-point label")
    ux, uy = float(direction[0]), float(direction[1])
    norm = math.hypot(ux, uy)
    if norm == 0.0:
        raise DomainError("direction must be a nonzero vector")
    ux, uy = ux / norm, uy / norm
    logs = []
    for eps in epsilons:
        eps = float(eps)
        if eps <= 0.0:
            continue
        params = ModelParams(
            1.0, base.d_tilde + eps * ux, base.gamma_tilde + eps * uy
        )
        zz = eigenvalues_closed_form(params).eigenvalues[1:]
        pairwise = (abs(zz[0] - zz[1]), abs(zz[0] - zz[2]), abs(zz[1] - zz[2]))
        if base.region is Region.EP3:
            gap = max(pairwise)
        else:
            # The coalescing pair is the closest one; fixed labels can swap
            # across the curves under the cube-root branch convention.
            gap = min(pairwise)
        if gap > 1e-12:
            logs.append((math.log(eps), math.log(gap)))
    if len(logs) < 2:
        raise DegenerateFitError(
            "fewer than two usable (eps, gap) points; cannot fit an exponent"
        )
    x = np.array([pt[0] for pt in logs])
    y = np.array([pt[1] for pt in logs])
    slope = np.polyfit(x, y, 1)[0]
    return float(slope)
