"""Coalescence curves, the triple point, and phase-plane classification.

Everything here lives in the scaled coordinates d_tilde = d/delta and
gamma_tilde = gamma/delta, where the two second-order coalescence curves and
their triple-point endpoint sit at fixed positions.  The discriminant
p^3 + q^2 of the eigenvalue cubic changes sign exactly on the curves, which is
what the classifier exploits.  Near them the sign of q, which names the closer
eigenvalue pair, names the branch as well.  The curves' closed form is checked
by ``verify`` against the exact roots of that discriminant, a quadratic in
gamma_tilde^2, in integer arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

# The triple point is defined in constants, which needs no numpy; re-exported here.
from .constants import D_TILDE_EP3, GAMMA_TILDE_EP3, Z_EP3, ep3_point  # noqa: F401
from .errors import DegenerateFitError, DomainError
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


def discriminant(params: ModelParams) -> float:
    """p^3 + q^2 of the eigenvalue cubic; zero exactly on the coalescence set."""
    return _cubic_coeffs(params.delta, params.d, params.gamma)[3]


def _scaled_disc(delta, d, gamma) -> np.ndarray:
    """The discriminant over its sixth-power scale ``max(1, delta^2 + d^2 + gamma^2)**3``, at
    one point of three floats, or elementwise over arrays that broadcast together."""
    k = _kernels(delta, d, gamma)
    _, _, _, disc, scale2 = _cubic_coeffs(delta, d, gamma)
    return disc / k.pow(scale2, 3)


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
    gamma_minus^2 cancels below zero."""
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
    gammas = np.sqrt(gamma2)
    # Exactly, inner_plus = (d^2 - 8)(d^2 + 4) / 2 + wing >= 0 and
    # inner_minus = 4 (d^2 - 8)^2 (d^2 + 1) / inner_plus >= 0.  The float minus radicand
    # misses that by a few ulps of d^4 / 2 at most (-2.2e-16 max(1, d^4) over 220,000
    # drives up to 1e76), and the clamp takes it to 0.
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
    branch.  Pure imaginary by construction.  The inner radicand is nonnegative
    exactly, and a tiny negative from roundoff is clamped to zero.  Drives are
    taken as by :func:`ep2_gamma`, and refused on either branch as on both;
    ``branch`` is checked first.
    """
    if branch not in ("minus", "plus"):
        raise DomainError(f"branch must be 'minus' or 'plus', got {branch!r}")
    return _curve(d_tilde)[1][branch == "plus"]


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
    p, q, disc, scale2, _, _, z1, z2, _ = _cubic(delta, d, gamma)
    imdiff = z1.imag - z2.imag
    tol = _ORDERING_RTOL * k.maximum(1.0, k.abs(z1), k.abs(z2))
    # The sign of imdiff, and 0 where |imdiff| <= tol: an int at a point, int64 on arrays.
    ordering = (imdiff > tol) * 1 - (imdiff < -tol) * 1
    return disc, _label(k, p, q, disc, scale2), ordering


def _label(k, p, q, disc, scale2):
    """The region code of :func:`classify`'s rule from the cubic's ``p``, ``q``,
    ``disc`` and floored energy scale alone, with the kernels ``k``: an ``int8`` at a
    point, an ``int8`` array on arrays."""
    scale6 = k.pow(scale2, 3)
    # The decaying eigenvalues are -i (2 gamma/3 + y) over the roots y of
    # y^3 + 3 p y - 2 q = 0, whose product is 2 q, so sign(q) names the closer pair:
    # q > 0 the two slowest-decaying modes, EP2Plus.
    ep2 = k.where(q > 0, _EP2_PLUS, _EP2_MINUS)
    # max(|p|, |q|^(2/3)) <= EP3_BAND * scale2, in integer powers.
    ep3 = (abs(p) <= EP3_BAND * scale2) & (q * q <= EP3_BAND**3 * scale6)
    return k.where(abs(disc) <= EP_BAND * scale6, k.where(ep3, _EP3, ep2),
                   k.where(disc > 0, _SPLIT_PAIR, _ALL_IMAGINARY))


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
    delta, d, gamma = _grid(delta, d_tilde, gamma_tilde)
    shape = (len(d), len(gamma))
    outs = (np.empty(shape), np.empty(shape, dtype=np.int8), np.empty(shape, dtype=np.int64))
    return _in_blocks(lambda ix: _classify(delta, *_nodes(ix, d, gamma)), outs, len(gamma))


def _region_codes(delta: float, d_tilde, gamma_tilde) -> np.ndarray:
    """The codes of :func:`_classify_codes` alone, bit for bit, from the cubic's
    coefficients: :func:`_label` reads nothing else, so no root is solved and no
    ordering formed."""
    delta, d, gamma = _grid(delta, d_tilde, gamma_tilde)

    def block(ix):
        nodes = _nodes(ix, d, gamma)
        p, q, _, disc, scale2 = _cubic_coeffs(delta, *nodes)
        return (_label(_kernels(delta, *nodes), p, q, disc, scale2),)

    out = np.empty((len(d), len(gamma)), dtype=np.int8)
    return _in_blocks(block, (out,), len(gamma))[0]


def _grid(delta: float, d_tilde, gamma_tilde) -> tuple:
    """``(delta, d, gamma)`` of a grid in scaled coordinates: a float and two 1-D
    arrays, each checked before any node is classified."""
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
    return delta, d, gamma


def _nodes(ix, d: np.ndarray, gamma: np.ndarray) -> tuple:
    """The (d, gamma) nodes of one block of :func:`spectrum._in_blocks`: whole d-rows,
    or one row's columns where a row is longer than a block; memory grows with the
    outputs and one block."""
    rows, cols = ix if type(ix) is tuple else (ix, slice(None))
    return d[rows, None], gamma[None, cols]


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
