"""Closed-form spectrum of the generator plus an independent numeric eigensolver.

One eigenvalue is identically zero (trace conservation).  The other three are
the roots of a depressed cubic solved by radicals; branch choices are pinned
by the constraint u * v = -p and validated against the characteristic
polynomial rather than assumed.  The numeric route never touches the radicals:
it deflates the null eigenvalue exactly and runs a companion-matrix root
finder with Newton polish.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NearDegenerateError, NonConvergenceError
from .model import ModelParams, max_abs
from .superop import build_lindblad, null_eigenvectors

# Phase attached to the second and third cubic roots.
_W = cmath.exp(2j * cmath.pi / 3)

# Below this relative gap two eigenvalues count as coalesced and the
# closed-form eigenvectors are refused.
PAIR_GAP_RTOL = 1e-6

# p and q both below this (relative to the squared energy scale): skip the
# radicals entirely and return the exact triple root -2i*gamma/3.  Avoids the
# 0/0 in the v = -p/u rule at the triple coalescence.
TRIPLE_ROOT_RTOL = 1e-12


@dataclass(frozen=True)
class CardanoParams:
    """Cubic-solver intermediates: depressed-cubic coefficients and radicals."""

    p: float
    q: float
    disc: float
    u: complex
    v: complex


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues [z0, z1, z2, z3] plus, when computed, the biorthogonal system.

    ``left[nu]`` is a row vector and ``right[nu]`` a column vector (both stored
    as 1-D arrays) with left[mu] @ right[nu] = delta_mu_nu.  ``residuals[nu]``
    is the larger of the two max-norm eigen-equation defects.
    ``degenerate_pairs`` lists index pairs whose gap is below the coalescence
    threshold.
    """

    eigenvalues: np.ndarray
    left: np.ndarray | None = None
    right: np.ndarray | None = None
    residuals: np.ndarray | None = None
    degenerate_pairs: tuple[tuple[int, int], ...] = ()


def _real_cbrt(x: float) -> float:
    return float(np.cbrt(x))


def cardano_params(params: ModelParams) -> CardanoParams:
    """Coefficients and radicals of the cubic behind the three decaying modes.

    ``u`` is the principal cube root of q + sqrt(disc) (the real cube root when
    the radicand is real) and ``v`` is tied to it by u * v = -p, which is what
    makes the three phased combinations of u and v genuine roots.  For
    disc < 0 the square root is taken as +i sqrt(|disc|); v then equals
    conj(u) and all three roots come out pure imaginary.

    When q < 0 the radicand q + sqrt(disc) is evaluated through the identity
    q + sqrt(disc) = p^3 / (sqrt(disc) - q), which is exact in real arithmetic
    and avoids the cancellation that would otherwise wreck u near p = 0.
    """
    delta, d, gamma = params.delta, params.d, params.gamma
    p = (delta**2 + d**2 - gamma**2 / 12.0) / 3.0
    q = (gamma / 6.0) * (delta**2 - d**2 / 2.0 + gamma**2 / 36.0)
    disc = p**3 + q**2
    if disc >= 0.0:
        s = math.sqrt(disc)
        if q >= 0.0:
            radicand = q + s
        else:
            radicand = p**3 / (s - q)
        u = complex(_real_cbrt(radicand))
        if abs(u) > 1e-100:
            v = complex(-p / u)
        else:
            v = complex(_real_cbrt(q - s))
    else:
        u, v = _complex_radicals(p, q, disc)
    return CardanoParams(p=p, q=q, disc=disc, u=u, v=v)


def _complex_radicals(p: float, q: float, disc: float) -> tuple[complex, complex]:
    """u and v = -p/u for disc < 0, where the radicand q + i sqrt(-disc) is complex."""
    s = 1j * math.sqrt(-disc)
    u = (q + s) ** (1.0 / 3.0)
    return u, -p / u


def _phased_roots(gamma: float, u: complex, v: complex) -> tuple[complex, complex, complex]:
    """The three decaying eigenvalues from the radicals, in the fixed branch order."""
    base = 2.0 * gamma / 3.0
    z1 = -1j * (base + u + v)
    z2 = -1j * (base + _W * u + _W.conjugate() * v)
    z3 = -1j * (base + _W.conjugate() * u + _W * v)
    return z1, z2, z3


def _pow(x: np.ndarray, k: int) -> np.ndarray:
    """Elementwise ``x**k`` through Python's float power.

    numpy's own power (and even its ``x*x`` for squares) can round differently
    from the C library ``pow`` behind Python floats, and the array path must
    match the scalar functions bit for bit.
    """
    flat = x.ravel().tolist()
    return np.fromiter(map(pow, flat, itertools.repeat(k)), float, len(flat)).reshape(x.shape)


@dataclass(frozen=True)
class _CubicGrid:
    """Array form of :class:`CardanoParams` plus the first two decaying eigenvalues.

    Every entry equals, bit for bit, what :func:`cardano_params` and
    :func:`eigenvalues_closed_form` give at the same node.  ``energy`` is
    :meth:`ModelParams.energy_scale` at each node.
    """

    p: np.ndarray
    q: np.ndarray
    disc: np.ndarray
    u: np.ndarray
    v: np.ndarray
    z1: np.ndarray
    z2: np.ndarray
    energy: np.ndarray


def _cubic_grid(delta: float, d: np.ndarray, gamma: np.ndarray) -> _CubicGrid:
    """The cubic of :func:`cardano_params` on the outer grid ``d[:, None], gamma[None, :]``.

    Where the radicals are real (disc >= 0, all but a few percent of a
    typical grid) the phased combinations are expanded into real arithmetic
    in the exact operation order of the complex expressions.  The complex
    radicals, and everything after them, go through the scalar helpers.
    """
    delta2 = delta**2
    d2 = _pow(d, 2)[:, None]
    g = gamma[None, :]
    g2 = _pow(gamma, 2)[None, :]
    p = (delta2 + d2 - g2 / 12.0) / 3.0
    q = (g / 6.0) * (delta2 - d2 / 2.0 + g2 / 36.0)
    p3 = _pow(p, 3)
    disc = p3 + _pow(q, 2)
    energy = delta2 + d2 + g2
    base = 2.0 * g / 3.0

    real = disc >= 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.sqrt(np.where(real, disc, 0.0))
        radicand = np.where(q >= 0.0, q + s, p3 / (s - q))
        ur = np.cbrt(radicand)
        big = np.abs(ur) > 1e-100
        vr = np.where(big, -p / ur, np.cbrt(q - s))
    wr, wi = _W.real, _W.imag
    u = ur.astype(complex)
    v = vr.astype(complex)
    # -1j * (base + u + v) and -1j * (base + W u + conj(W) v) with u, v real.
    z1 = np.zeros(p.shape, dtype=complex)
    z1.imag = -(base + ur + vr)
    z2 = np.empty(p.shape, dtype=complex)
    z2.real = wi * ur - wi * vr
    z2.imag = -(base + wr * ur + wr * vr)
    for idx in zip(*np.nonzero(~real)):
        uc, vc = _complex_radicals(float(p[idx]), float(q[idx]), float(disc[idx]))
        u[idx], v[idx] = uc, vc
        z1[idx], z2[idx], _ = _phased_roots(float(gamma[idx[1]]), uc, vc)

    triple = np.maximum(np.abs(p), np.abs(q)) < TRIPLE_ROOT_RTOL * np.maximum(1.0, energy)
    z1 = np.where(triple, -2.0 * g / 3.0 * 1j, z1)
    z2 = np.where(triple, -2.0 * g / 3.0 * 1j, z2)
    return _CubicGrid(p=p, q=q, disc=disc, u=u, v=v, z1=z1, z2=z2, energy=energy)


def _flag_pairs(zs: np.ndarray) -> tuple[tuple[int, int], ...]:
    flagged = []
    for i in range(4):
        for j in range(i + 1, 4):
            gap = abs(zs[i] - zs[j])
            if gap < PAIR_GAP_RTOL * max(1.0, abs(zs[i]), abs(zs[j])):
                flagged.append((i, j))
    return tuple(flagged)


def eigenvalues_closed_form(params: ModelParams) -> Spectrum:
    """All four eigenvalues by radicals, labelled (z0, z1, z2, z3); z0 = 0 exactly.

    Labels follow the fixed branch convention, not any ordering of the values,
    so that branches stay continuous across parameter sweeps.
    """
    return _closed_form(params, cardano_params(params))


def _closed_form(params: ModelParams, cp: CardanoParams) -> Spectrum:
    """:func:`eigenvalues_closed_form` given the cubic ``cp`` already solved."""
    gamma = params.gamma
    guard = TRIPLE_ROOT_RTOL * max(1.0, params.energy_scale())
    if max(abs(cp.p), abs(cp.q)) < guard:
        z = -2j * gamma / 3.0
        zs = np.array([0.0, z, z, z], dtype=complex)
    else:
        zs = np.array([0.0, *_phased_roots(gamma, cp.u, cp.v)], dtype=complex)
    return Spectrum(eigenvalues=zs, degenerate_pairs=_flag_pairs(zs))


def eigenvectors_closed_form(
    params: ModelParams, nu: int, z: complex
) -> tuple[np.ndarray, np.ndarray]:
    """Left (row) and right (column) eigenvectors for one decaying eigenvalue.

    The right vector is scaled so that left @ right = 1.  Raises
    :class:`NearDegenerateError` when ``z`` sits within the coalescence
    threshold of another eigenvalue, or when the left/right pairing is
    numerically singular (both are signatures of an exceptional point, where
    no biorthogonal pair exists).
    """
    if nu not in (1, 2, 3):
        raise DomainError("nu must be 1, 2 or 3; the null mode has its own accessor")
    return _eigenvectors(params, eigenvalues_closed_form(params).eigenvalues, complex(z))


def _eigenvectors(
    params: ModelParams, zs: np.ndarray, z: complex
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`eigenvectors_closed_form` given the eigenvalues ``zs`` already computed."""
    self_idx = 1 + int(np.argmin(np.abs(zs[1:] - z)))
    gap = min(abs(zs[k] - z) for k in range(4) if k != self_idx)
    if gap < PAIR_GAP_RTOL * max(1.0, abs(z)):
        raise NearDegenerateError(
            f"eigenvalue {z} lies within {gap:.3e} of a neighbour; "
            "no separable eigenvector pair exists there"
        )
    delta, d, gamma = params.delta, params.d, params.gamma
    a = 1j * gamma + z
    b = 1j * gamma + 2.0 * delta + 2.0 * z
    m = a * b - d * d
    left = np.array([2.0 * z * m, -2.0 * d * d * z, -d * (z - 1j * gamma) * b, d * a * b])
    right = np.array([2.0 * m, -2.0 * d * d, -d * b, d * b])
    pairing = left @ right
    norms = float(np.linalg.norm(left)) * float(np.linalg.norm(right))
    if abs(pairing) <= 1e-10 * max(norms, 1e-300):
        raise NearDegenerateError(
            f"left/right pairing for z = {z} is numerically singular "
            "(self-orthogonal mode at a coalescence)"
        )
    return left, right / pairing


def full_spectrum(params: ModelParams) -> Spectrum:
    """Eigenvalues plus the complete biorthogonal system, null mode included.

    Propagates :class:`NearDegenerateError` from the eigenvector construction
    at and near exceptional points.
    """
    return _full_spectrum(params, eigenvalues_closed_form(params))


def _full_spectrum(params: ModelParams, bare: Spectrum) -> Spectrum:
    """:func:`full_spectrum` given the closed-form eigenvalues ``bare`` already computed."""
    zs = bare.eigenvalues
    L = build_lindblad(params)
    left = np.zeros((4, 4), dtype=complex)
    right = np.zeros((4, 4), dtype=complex)
    left[0], right[0] = null_eigenvectors(params)
    for nu in (1, 2, 3):
        left[nu], right[nu] = _eigenvectors(params, zs, complex(zs[nu]))
    residuals = np.zeros(4)
    for nu in range(4):
        r_def = max_abs(L @ right[nu] - zs[nu] * right[nu])
        l_def = max_abs(left[nu] @ L - zs[nu] * left[nu])
        residuals[nu] = max(r_def, l_def)
    return Spectrum(
        eigenvalues=zs,
        left=left,
        right=right,
        residuals=residuals,
        degenerate_pairs=bare.degenerate_pairs,
    )


def _char_cubic_coeffs(L: np.ndarray) -> np.ndarray:
    """Coefficients [1, -e1, e2, -e3] of the null-deflated characteristic cubic.

    Assembled from traces of matrix powers (Newton's identities), so the
    deflation of the known zero eigenvalue is exact.
    """
    e1 = complex(np.trace(L))
    L2 = L @ L
    t2 = complex(np.trace(L2))
    t3 = complex(np.trace(L2 @ L))
    e2 = (e1 * e1 - t2) / 2.0
    e3 = (e1**3 - 3.0 * e1 * t2 + 2.0 * t3) / 6.0
    return np.array([1.0, -e1, e2, -e3], dtype=complex)


def _collapse_clusters(
    roots: np.ndarray, raw: np.ndarray, e1: complex, scale: float
) -> np.ndarray:
    """Replace root clusters tighter than the attainable accuracy by exact means.

    A backward-stable root finder scatters a defective double (triple) root
    over a disc of radius ~ eps^(1/2) (eps^(1/3)) times the scale; collapsing
    such clusters onto the exactly known sums gives a clean answer at the
    coalescence without touching well-separated roots.  Each pair's gap is
    the smaller of its gap before (``raw``) and after Newton polish
    (``roots``): at a semisimple double root the polish can push the pair
    further apart than the root finder left it.
    """
    gaps = [
        (min(abs(raw[i] - raw[j]), abs(roots[i] - roots[j])), i, j)
        for i, j in ((0, 1), (0, 2), (1, 2))
    ]
    if all(g[0] < 5e-5 * scale for g in gaps):
        mean = e1 / 3.0
        return np.array([mean, mean, mean])
    gap, i, j = min(gaps)
    if gap < 1e-7 * scale:
        k = 3 - i - j
        mean = (e1 - roots[k]) / 2.0
        out = roots.copy()
        out[i] = out[j] = mean
        return out
    return roots


def eigenvalues_numeric(L: np.ndarray) -> np.ndarray:
    """The four eigenvalues by exact deflation and polynomial root finding.

    Independent of the closed-form radicals: the null eigenvalue is removed
    through the trace identities (population conservation makes the matrix
    singular by construction), the remaining cubic is solved by a
    companion-matrix root finder, and each root is polished by Newton steps.
    The null root is returned first.

    Raises :class:`NonConvergenceError` if any returned value fails the
    characteristic-polynomial residual check.
    """
    L = np.asarray(L, dtype=complex)
    if L.shape != (4, 4):
        raise DomainError(f"expected a 4x4 matrix, got shape {L.shape}")
    scale = max(1.0, max_abs(L))
    if max_abs(L[2] + L[3]) > 1e-12 * scale:
        raise DomainError(
            "matrix does not conserve population; cannot deflate the null eigenvalue"
        )
    coeffs = _char_cubic_coeffs(L)
    deriv = np.polyder(coeffs)
    roots = raw = np.roots(coeffs)
    for _ in range(3):
        val = np.polyval(coeffs, roots)
        slope = np.polyval(deriv, roots)
        ok = np.abs(slope) > 1e-30
        step = np.where(ok, val / np.where(ok, slope, 1.0), 0.0)
        roots = roots - step
    roots = _collapse_clusters(roots, raw, complex(-coeffs[1]), scale)
    zs = np.concatenate([np.array([0.0 + 0.0j]), roots])
    tol = 1e-9 * scale**4
    for z in zs:
        res = characteristic_residual(L, z)
        if res > tol:
            raise NonConvergenceError(
                f"root {z} fails the residual check: {res:.3e} > {tol:.3e}"
            )
    return zs


def _det3(m) -> complex:
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def characteristic_residual(L: np.ndarray, z: complex) -> float:
    """|det(L - z I)| by direct cofactor expansion of the 4x4 matrix."""
    a = np.asarray(L, dtype=complex) - complex(z) * np.eye(4)
    m = [[complex(a[i, j]) for j in range(4)] for i in range(4)]
    det = 0.0 + 0.0j
    sign = 1.0
    for col in range(4):
        minor = [[m[i][j] for j in range(4) if j != col] for i in range(1, 4)]
        det += sign * m[0][col] * _det3(minor)
        sign = -sign
    return abs(det)


# Pairings whose summed distance is within this many roundoffs of the least
# sum count as tied with it.
_TIE_ULPS = 8


@functools.lru_cache(maxsize=None)
def _pairings(n: int) -> np.ndarray:
    """All n! permutations of range(n), one per row."""
    return np.array(list(itertools.permutations(range(n))), dtype=np.intp).reshape(-1, n)


def match_distance(a, b) -> float:
    """Largest matched |a_i - b_j| under the pairing of least summed distance.

    The pairing minimises sum_i |a_i - b_sigma(i)| (the linear assignment
    problem), found by brute force over the n! pairings: n is 4 for every
    caller.  Among pairings whose sums tie to within roundoff the largest
    matched distance is returned, so a tie never makes the result smaller.
    """
    a = np.asarray(a, dtype=complex).ravel()
    b = np.asarray(b, dtype=complex).ravel()
    if a.shape != b.shape:
        raise DomainError("sets must have equal size")
    cost = np.abs(a[:, None] - b[None, :])
    picked = cost[np.arange(a.size), _pairings(a.size)]
    sums = picked.sum(axis=1)
    least = sums.min()
    tied = sums <= least + _TIE_ULPS * np.finfo(float).eps * least
    return float(picked[tied].max())
