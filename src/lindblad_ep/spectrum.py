"""Closed-form spectrum of the generator plus an independent numeric eigensolver.

One eigenvalue is identically zero (trace conservation).  The other three are
the roots of a depressed cubic solved by radicals; branch choices are pinned
by the constraint u * v = -p and validated against the characteristic
polynomial rather than assumed.  The numeric route never touches the radicals:
it deflates the null eigenvalue exactly and runs a companion-matrix root
finder, then polishes each root by Newton steps on det(L - zI).

One kernel, :func:`_adjugate`, gives the cofactors of L - zI to all three
users: the characteristic residual (a first-row expansion), the derivative
-tr adj(L - zI) for the Newton polish, and the eigenvectors, which are a row
and a column of the adjugate (Denton, Parke, Tao & Zhang, Bull. AMS 59, 31
(2022)).
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NearDegenerateError, NonConvergenceError
from .model import ModelParams
from .superop import _unit_scale, build_lindblad, null_eigenvectors

# Phase attached to the second and third cubic roots.
_W = cmath.exp(2j * cmath.pi / 3)

# Below this relative gap two eigenvalues count as coalesced and the
# closed-form eigenvectors are refused.
PAIR_GAP_RTOL = 1e-6

# p and q both below this (relative to the squared energy scale): skip the
# radicals entirely and return the exact triple root -2i*gamma/3.  Avoids the
# 0/0 in the v = -p/u rule at the triple coalescence.
TRIPLE_ROOT_RTOL = 1e-12

# A real radical |u| at or below this counts as zero: v is then cbrt(q - sqrt(disc)).
_RADICAL_FLOOR = 1e-100

# Python's float power raises on overflow, but the sums and the product that
# form p and q do not.  Each such overflow (an infinite q where p cancels, or
# p**3 + q**2 past the largest double) ends in disc, which is refused with this.
_DISC_OVERFLOW = "the cubic's discriminant overflows a double"


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
    threshold: the one coalescence test, on which the eigenvectors are refused.
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
    if not math.isfinite(disc):
        raise OverflowError(_DISC_OVERFLOW)
    if disc >= 0.0:
        s = math.sqrt(disc)
        if q >= 0.0:
            radicand = q + s
        else:
            radicand = p**3 / (s - q)
        u = complex(_real_cbrt(radicand))
        if abs(u) > _RADICAL_FLOOR:
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
    """Array form of the cubic of :class:`CardanoParams` plus its three decaying roots.

    Every entry equals, bit for bit, what :func:`cardano_params` and
    :func:`eigenvalues_closed_form` give at the same point.  ``energy`` is
    :meth:`ModelParams.energy_scale` at each point.
    """

    p: np.ndarray
    q: np.ndarray
    disc: np.ndarray
    z1: np.ndarray
    z2: np.ndarray
    z3: np.ndarray
    energy: np.ndarray


def _cubic_coeffs(delta, d, gamma) -> tuple[np.ndarray, ...]:
    """``p``, ``q``, ``p**3``, ``disc`` and the energy scale of :func:`cardano_params`,
    elementwise over three arrays that broadcast together."""
    delta, d, gamma = (np.asarray(x, dtype=float) for x in (delta, d, gamma))
    delta2, d2, g2 = _pow(delta, 2), _pow(d, 2), _pow(gamma, 2)
    with np.errstate(over="ignore"):
        p = (delta2 + d2 - g2 / 12.0) / 3.0
        q = (gamma / 6.0) * (delta2 - d2 / 2.0 + g2 / 36.0)
        p3 = _pow(p, 3)
        disc = p3 + _pow(q, 2)
        if not np.isfinite(disc).all():
            raise OverflowError(_DISC_OVERFLOW)
        return p, q, p3, disc, delta2 + d2 + g2


def _cubic_grid(delta, d, gamma) -> _CubicGrid:
    """The cubic of :func:`cardano_params` and its roots, elementwise over three
    arrays that broadcast together.

    Where the radicals are real (disc >= 0, all but a few percent of a
    typical grid) the phased combinations of :func:`_phased_roots` are
    expanded into real arithmetic in the exact operation order of Python's
    complex expressions, signed zeros included.  The complex radicals, and
    everything after them, go through the scalar helpers.
    """
    gamma = np.asarray(gamma, dtype=float)
    p, q, p3, disc, energy = _cubic_coeffs(delta, d, gamma)
    base = 2.0 * gamma / 3.0

    real = disc >= 0.0
    ur, vr, vi = _real_radicals(p, q, p3, disc, real)
    # u = (ur, 0.0) and v = (vr, vi) in the three phased combinations.
    wr, wi = _W.real, _W.imag
    z1 = _times_minus_i((base + ur) + vr, 0.0 + vi)
    z2 = _times_minus_i((base + wr * ur) + (wr * vr - (-wi) * vi),
                        (0.0 + wi * ur) + (wr * vi + (-wi) * vr))
    z3 = _times_minus_i((base + (wr * ur + 0.0)) + (wr * vr - wi * vi),
                        (0.0 + (-wi) * ur) + (wr * vi + wi * vr))
    gammas = np.broadcast_to(gamma, p.shape)
    for idx in zip(*np.nonzero(~real)):
        uc, vc = _complex_radicals(float(p[idx]), float(q[idx]), float(disc[idx]))
        z1[idx], z2[idx], z3[idx] = _phased_roots(float(gammas[idx]), uc, vc)

    # The exact triple root -2i*gamma/3 of _closed_form, real part +0.0.
    triple = np.maximum(np.abs(p), np.abs(q)) < TRIPLE_ROOT_RTOL * np.maximum(1.0, energy)
    if triple.any():
        z = np.zeros(p.shape, dtype=complex)
        z.imag = -2.0 * gamma / 3.0
        z1, z2, z3 = (np.where(triple, z, zk) for zk in (z1, z2, z3))
    return _CubicGrid(p=p, q=q, disc=disc, z1=z1, z2=z2, z3=z3, energy=energy)


def _real_radicals(p, q, p3, disc, real) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``u.real``, ``v.real`` and ``v.imag`` of :func:`cardano_params` where ``real``
    (disc >= 0) holds; the other entries are meaningless."""
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.sqrt(np.where(real, disc, 0.0))
        radicand = np.where(q >= 0.0, q + s, p3 / (s - q))
        ur = np.cbrt(radicand)
        big = np.abs(ur) > _RADICAL_FLOOR
        # v = -p / complex(u): Python divides by (ur, 0.0) through the ratio
        # 0.0 / ur, which leaves v an imaginary zero of the sign of ur.
        ratio = 0.0 / ur
        vr = np.where(big, (-p + 0.0 * ratio) / ur, np.cbrt(q - s))
        vi = np.where(big, (0.0 - (-p) * ratio) / ur, 0.0)
    return ur, vr, vi


def _times_minus_i(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """-1j * complex(x, y) elementwise, signed zeros included, as Python forms it."""
    z = np.empty(np.shape(x), dtype=complex)
    z.real = -0.0 * x + y
    z.imag = -0.0 * y - x
    return z


def _flag_pairs(zs: np.ndarray) -> tuple[tuple[int, int], ...]:
    """The pairs of the four eigenvalues ``zs`` closer than the coalescence threshold."""
    zs = zs.tolist()
    return tuple(
        (i, j) for i, j in itertools.combinations(range(4), 2)
        if abs(zs[i] - zs[j]) < PAIR_GAP_RTOL * max(1.0, abs(zs[i]), abs(zs[j]))
    )


def _closed_form_stack(delta, d, gamma) -> np.ndarray:
    """:func:`eigenvalues_closed_form` at each point of three 1-D arrays.

    Returns the ``(N, 4)`` eigenvalues: row ``k`` equals, bit for bit, the
    eigenvalues of ``eigenvalues_closed_form(ModelParams(delta[k], d[k], gamma[k]))``.
    """
    cubic = _cubic_grid(delta, d, gamma)
    return np.stack([np.zeros_like(cubic.z1), cubic.z1, cubic.z2, cubic.z3], axis=-1)


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


def eigenvectors_closed_form(params: ModelParams, nu: int) -> tuple[np.ndarray, np.ndarray]:
    """Left (row) and right (column) eigenvectors of the decaying mode ``nu``.

    They are the largest-norm row and column of adj(L - z_nu I), formed at
    unit scale.  The left vector has unit norm and the right one is scaled so
    that left @ right = 1; its norm is then the eigenvalue's condition number.
    Raises :class:`NearDegenerateError` when ``nu`` is in one of the closed
    form's :attr:`Spectrum.degenerate_pairs`, or when the left/right pairing is
    numerically singular (both are signatures of an exceptional point, where no
    biorthogonal pair exists).
    """
    if nu not in (1, 2, 3):
        raise DomainError("nu must be 1, 2 or 3; the null mode has its own accessor")
    bare = eigenvalues_closed_form(params)
    _refuse_coalesced(bare, modes=(nu,))
    exponent, *unit = _unit_scale(params)
    z = bare.eigenvalues[nu:nu + 1]
    return next(_eigenvectors(build_lindblad(ModelParams(*unit)), _ldexp(z, -exponent), z))


def _refuse_coalesced(bare: Spectrum, modes=(1, 2, 3)) -> None:
    """Refuse the eigenvectors if one of ``modes`` is in a pair of ``bare.degenerate_pairs``."""
    for i, j in bare.degenerate_pairs:
        if i in modes or j in modes:
            zi, zj = bare.eigenvalues[[i, j]]
            raise NearDegenerateError(f"eigenvalues z{i} = {zi} and z{j} = {zj} lie within the "
                                      "coalescence threshold; no separable eigenvector pair exists")


def _eigenvectors(unit_L: np.ndarray, unit_zs, zs) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """:func:`eigenvectors_closed_form` at each unit-scale shift of ``unit_zs``, past its
    coalescence test, from ``unit_L``; the refusal names the physical shift in ``zs``."""
    # At a simple eigenvalue, adj(L - zI) = r l * prod_{k != nu} (z_k - z) / (l r)
    # for the right (column) r and left (row) l: every nonzero column is a
    # right eigenvector and every nonzero row a left one.
    for unit_z, z in zip(unit_zs.tolist(), zs.tolist()):
        adj = np.array(_adjugate(_shifted(unit_L, unit_z)))
        power = (adj * adj.conj()).real
        rows, cols = power.sum(axis=1), power.sum(axis=0)
        i, j = rows.argmax(), cols.argmax()
        left, right, norm = adj[i], adj[:, j], math.sqrt(rows[i])
        pairing = left @ right
        # Written as "not above" so that an all-zero adjugate refuses too.
        if not abs(pairing) > 1e-10 * norm * math.sqrt(cols[j]):
            raise NearDegenerateError(
                f"left/right pairing for z = {z} is numerically singular "
                "(self-orthogonal mode at a coalescence)"
            )
        yield left / norm, right * (norm / pairing)


def full_spectrum(params: ModelParams) -> Spectrum:
    """Eigenvalues plus the complete biorthogonal system, null mode included.

    Raises :class:`NearDegenerateError` at and near exceptional points, where
    :attr:`Spectrum.degenerate_pairs` is not empty or a pairing is singular.
    """
    return _full_spectrum(params, eigenvalues_closed_form(params))


def _full_spectrum(params: ModelParams, bare: Spectrum) -> Spectrum:
    """:func:`full_spectrum` given the closed-form eigenvalues ``bare`` already computed."""
    # Every mode and residual comes from one generator L at unit scale, L_phys / 2^e.
    zs = bare.eigenvalues
    exponent, *unit = _unit_scale(params)
    unit = ModelParams(*unit)
    null = null_eigenvectors(unit)
    _refuse_coalesced(bare)
    L, unit_zs = build_lindblad(unit), _ldexp(zs, -exponent)
    left, right = map(np.array, zip(null, *_eigenvectors(L, unit_zs[1:], zs[1:])))
    # Row by row the per-vector max|L r - z r|, bit for bit (L @ right.T need not be).
    r_def = np.abs(np.matmul(L, right[:, :, None])[..., 0] - unit_zs[:, None] * right).max(axis=1)
    l_def = np.abs(left @ L - unit_zs[:, None] * left).max(axis=1)
    return Spectrum(
        eigenvalues=zs,
        left=left,
        right=right,
        residuals=np.ldexp(np.maximum(r_def, l_def), exponent),
        degenerate_pairs=bare.degenerate_pairs,
    )


# The oracle's residual gate: |det(L - zI)| <= _RESIDUAL_RTOL * max(1, max|L|)^4.
_RESIDUAL_RTOL = 1e-9

# Largest population leak max|L[2] + L[3]|, relative to max(1, max|L|), the oracle deflates.
_LEAK_RTOL = 1e-12

# Matrices per block of a stacked oracle call: the kernel's temporaries grow
# with the block, so this bounds the oracle's memory for any stack.
_ORACLE_BLOCK = 1024

# The oracle works on L / 2^s, where 2^s brings max|L| down to at most
# 2^_MAX_EXPONENT: det(L - zI) then stays below about 2^820 at any finite
# scale.  Below 2^_MAX_EXPONENT (about 1.6e60), s is 0 and L is used as it is.
_MAX_EXPONENT = 200


def _ldexp(x, e) -> np.ndarray:
    """x * 2^e for complex x, exactly and keeping the signs of zeros."""
    x = np.ascontiguousarray(x, dtype=complex)
    parts = x.view(float).reshape(x.shape + (2,))
    return np.ldexp(parts, np.asarray(e)[..., None]).view(complex)[..., 0]


def _char_cubic_coeffs(L: np.ndarray) -> np.ndarray:
    """Coefficients [1, -e1, e2, -e3] of the null-deflated characteristic cubic.

    Assembled from traces of matrix powers (Newton's identities), so the
    deflation of the known zero eigenvalue is exact.  A stack ``(N, 4, 4)``
    gives one row per matrix; one matrix keeps Python complex arithmetic.
    """
    L2 = L @ L
    e1, t2, t3 = (np.trace(m, axis1=-2, axis2=-1) for m in (L, L2, L2 @ L))
    if L.ndim == 2:
        e1, t2, t3 = complex(e1), complex(t2), complex(t3)
    e2 = (e1 * e1 - t2) / 2.0
    e3 = (e1**3 - 3.0 * e1 * t2 + 2.0 * t3) / 6.0
    return np.array([np.ones(np.shape(e1)), -e1, e2, -e3], dtype=complex).T


def _cubic_roots(coeffs: np.ndarray) -> np.ndarray:
    """Roots of the monic cubic ``coeffs``, or of each row of a stack of them.

    A stack takes one batched ``eigvals`` of the companion matrices that
    ``np.roots`` builds row by row, and gives the same roots wherever the
    constant coefficient is nonzero (``np.roots`` strips trailing zeros).
    """
    if coeffs.ndim == 1:
        return np.roots(coeffs)
    companion = np.zeros((len(coeffs), 3, 3), dtype=complex)
    companion[:, 0] = -coeffs[:, 1:] / coeffs[:, :1]
    companion[:, 1, 0] = companion[:, 2, 1] = 1.0
    return np.linalg.eigvals(companion)


# Root clusters tighter than these multiples of the scale are collapsed: all
# three roots onto their mean, or the closest pair onto its mean.
_TRIPLE_RTOL = 5e-5
_PAIR_RTOL = 1e-7


def _collapse_clusters(roots: np.ndarray, e1: complex, scale: float) -> np.ndarray:
    """Replace root clusters tighter than the attainable accuracy by exact means.

    A backward-stable root finder scatters a defective double (triple) root
    over a disc of radius ~ eps^(1/2) (eps^(1/3)) times the scale; collapsing
    such clusters onto the exactly known sums gives a clean answer at the
    coalescence without touching well-separated roots.  Newton polish on
    det(L - zI) converges only linearly into a defective root, so the clusters
    are still there after it.
    """
    gaps = [(abs(roots[i] - roots[j]), i, j) for i, j in ((0, 1), (0, 2), (1, 2))]
    if all(g[0] < _TRIPLE_RTOL * scale for g in gaps):
        mean = e1 / 3.0
        return np.array([mean, mean, mean])
    gap, i, j = min(gaps)
    if gap < _PAIR_RTOL * scale:
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
    companion-matrix root finder, and each root is polished by three Newton
    steps on det(L - zI) itself, not on the cubic's coefficients, whose
    roundoff would limit a close pair to about eps * scale^2 / gap.  The
    null root is returned first.

    ``L`` is one 4x4 matrix, giving 4 eigenvalues, or an ``(N, 4, 4)`` stack,
    giving ``(N, 4)``.  A stack is solved in blocks of numpy arrays; one
    matrix keeps Python complex arithmetic, which is faster at that size.
    Above max|L| ~ 2^200 the matrix is first divided by a power of two, an
    exact rescale that keeps det(L - zI) finite at any finite scale; the
    residual check is then made at that scale, relative to it as always.

    Raises :class:`DomainError` for a matrix with non-finite entries or one
    that does not conserve population, and :class:`NonConvergenceError` if
    any returned value fails the characteristic-polynomial residual check
    (a NaN or infinite residual fails it).  For a stack the message names the
    index of the first offending matrix.
    """
    L = np.asarray(L, dtype=complex)
    if L.ndim not in (2, 3) or L.shape[-2:] != (4, 4):
        raise DomainError(f"expected a 4x4 matrix or an (N, 4, 4) stack, got shape {L.shape}")
    if L.ndim == 2:
        return _oracle(L, None)
    out = np.empty((len(L), 4), dtype=complex)
    for first in range(0, len(L), _ORACLE_BLOCK):
        block = slice(first, first + _ORACLE_BLOCK)
        out[block] = _oracle(L[block], first)
    return out


def _oracle(L: np.ndarray, first: int | None) -> np.ndarray:
    """:func:`eigenvalues_numeric` of one matrix (``first`` is None), or of a
    block of a stack whose first matrix has index ``first``."""
    amax = np.abs(L).reshape(L.shape[:-2] + (16,)).max(axis=-1)
    scale = np.maximum(1.0, amax)
    leak = np.abs(L[..., 2, :] + L[..., 3, :]).max(axis=-1)
    shift = None
    # One test on the common path, where nothing is refused or rescaled.  A
    # NaN fails the first comparison and an infinity passes the second.
    if (~(leak <= _LEAK_RTOL * scale) | (amax >= 2.0**_MAX_EXPONENT)).any():
        nonfinite = ~(amax < np.inf)
        if nonfinite.any():
            raise DomainError(_stack_index(nonfinite, first) + "matrix has non-finite entries")
        leaking = leak > _LEAK_RTOL * scale
        if leaking.any():
            raise DomainError(
                _stack_index(leaking, first)
                + "matrix does not conserve population; cannot deflate the null eigenvalue"
            )
        shift = np.maximum(np.frexp(amax)[1] - _MAX_EXPONENT, 0)
        L = _ldexp(L, -shift[..., None, None])
        scale = np.ldexp(scale, -shift)
    coeffs = _char_cubic_coeffs(L)
    seeds = _cubic_roots(coeffs)
    if first is None:
        roots = np.array([_newton_polish(L, z) for z in seeds.tolist()])
        roots = _collapse_clusters(roots, complex(-coeffs[1]), scale)
    else:
        roots = _newton_polish(L, seeds)
        # Only a row whose tightest gap is below the larger threshold can collapse.
        gaps = np.abs(roots[:, [0, 0, 1]] - roots[:, [1, 2, 2]])
        for i in np.flatnonzero(gaps.min(axis=1) < _TRIPLE_RTOL * scale):
            roots[i] = _collapse_clusters(roots[i], -coeffs[i, 1], scale[i])
    zs = np.zeros(roots.shape[:-1] + (4,), dtype=complex)
    zs[..., 1:] = roots
    if first is None:
        res = np.array([characteristic_residual(L, z) for z in zs.tolist()])
    else:
        # A NaN or infinite root gives a NaN or infinite residual, which fails below.
        with np.errstate(invalid="ignore", over="ignore"):
            res = characteristic_residual(L, zs)
    if shift is not None:
        zs = _ldexp(zs, shift[..., None])
    tol = _RESIDUAL_RTOL * scale**4
    bad = ~(res <= tol[..., None])
    if bad.any():
        at = np.unravel_index(np.argmax(bad), bad.shape)
        raise NonConvergenceError(
            _stack_index(bad, first)
            + f"root {zs[at]} fails the residual check: {res[at]:.3e} > {tol[at[:-1]]:.3e}"
        )
    return zs


def _stack_index(bad: np.ndarray, first: int | None) -> str:
    """Message prefix naming the first matrix of a block that ``bad`` flags."""
    if first is None:
        return ""
    row = int(np.argmax(np.reshape(bad, (len(bad), -1)).any(axis=1)))
    return f"matrix {first + row} of the stack: "


def _newton_polish(L: np.ndarray, z):
    """Three Newton steps on det(L - zI), whose derivative is -tr adj(L - zI).

    ``z`` is one root of one matrix as a Python complex, or an ``(N, k)``
    array of roots of an ``(N, 4, 4)`` stack.  A root where the trace
    vanishes is left where it is.
    """
    for _ in range(3):
        m = _shifted(L, z)
        adj = _adjugate(m)
        trace = adj[0][0] + adj[1][1] + adj[2][2] + adj[3][3]
        if L.ndim == 2:
            if trace == 0:
                break
            z += _det(m, adj) / trace
        else:
            # numpy's complex division multiplies by the reciprocal of the
            # divisor, which overflows for a subnormal trace: divide both by
            # 2^k ~ |trace| first, which is exact.
            k = -np.frexp(np.abs(trace))[1]
            with np.errstate(divide="ignore", invalid="ignore"):
                step = _ldexp(_det(m, adj), k) / _ldexp(trace, k)
                z = np.where(trace != 0, z + step, z)
    return z


def _adjugate(m: list) -> list:
    """The adjugate of a 4x4 matrix held as nested lists of Python complex numbers.

    The entries may as well be arrays of one shape, one matrix per element:
    that is how a stack goes through the same kernel.

    Built from the 12 2x2 minors of the row pairs (0, 1) and (2, 3): ``s_ij``
    and ``t_ij`` on columns i and j.  Each cofactor is a 3x3 determinant that
    keeps one pair whole, expanded along its remaining row.  adj @ m =
    m @ adj = det(m) I.
    """
    (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3), (d0, d1, d2, d3) = m
    s01, s02, s03 = a0 * b1 - a1 * b0, a0 * b2 - a2 * b0, a0 * b3 - a3 * b0
    s12, s13, s23 = a1 * b2 - a2 * b1, a1 * b3 - a3 * b1, a2 * b3 - a3 * b2
    t01, t02, t03 = c0 * d1 - c1 * d0, c0 * d2 - c2 * d0, c0 * d3 - c3 * d0
    t12, t13, t23 = c1 * d2 - c2 * d1, c1 * d3 - c3 * d1, c2 * d3 - c3 * d2
    return [
        [b1 * t23 - b2 * t13 + b3 * t12, -(a1 * t23 - a2 * t13 + a3 * t12),
         d1 * s23 - d2 * s13 + d3 * s12, -(c1 * s23 - c2 * s13 + c3 * s12)],
        [-(b0 * t23 - b2 * t03 + b3 * t02), a0 * t23 - a2 * t03 + a3 * t02,
         -(d0 * s23 - d2 * s03 + d3 * s02), c0 * s23 - c2 * s03 + c3 * s02],
        [b0 * t13 - b1 * t03 + b3 * t01, -(a0 * t13 - a1 * t03 + a3 * t01),
         d0 * s13 - d1 * s03 + d3 * s01, -(c0 * s13 - c1 * s03 + c3 * s01)],
        [-(b0 * t12 - b1 * t02 + b2 * t01), a0 * t12 - a1 * t02 + a2 * t01,
         -(d0 * s12 - d1 * s02 + d2 * s01), c0 * s12 - c1 * s02 + c2 * s01],
    ]


def _shifted(L: np.ndarray, z) -> list:
    """L - zI as nested lists: of Python complex numbers for one matrix and a
    scalar ``z``, and for an ``(N, 4, 4)`` stack with ``z`` of shape ``(N,)`` or
    ``(N, k)``, of arrays that broadcast against ``z``."""
    if L.ndim == 2:
        m = L.tolist()
        for i in range(4):
            m[i][i] -= z
        return m
    L = L.reshape(L.shape[:1] + (1,) * (np.ndim(z) - 1) + (4, 4))
    m = [[L[..., i, j] for j in range(4)] for i in range(4)]
    for i in range(4):
        m[i][i] = m[i][i] - z
    return m


def _det(m: list, adj: list) -> complex:
    """det(m) by expansion along the first row, from the cofactors in ``adj``."""
    return sum(m[0][j] * adj[j][0] for j in range(4))


def characteristic_residual(L: np.ndarray, z):
    """|det(L - z I)| by cofactor expansion of the 4x4 matrix along its first row.

    ``L`` is one matrix with a scalar ``z``, giving a float, or an
    ``(N, 4, 4)`` stack with ``z`` of shape ``(N,)`` or ``(N, k)``, giving one
    residual per shift in an array shaped like ``z``.
    """
    L = np.asarray(L, dtype=complex)
    if L.ndim == 2 and L.shape == (4, 4):
        z = complex(z)
    else:
        z = np.asarray(z, dtype=complex)
        if L.ndim != 3 or L.shape[1:] != (4, 4) or z.ndim not in (1, 2) or len(z) != len(L):
            raise DomainError(
                f"expected a 4x4 matrix with a scalar shift, or an (N, 4, 4) stack with "
                f"(N,) or (N, k) shifts; got shapes {L.shape} and {z.shape}"
            )
    m = _shifted(L, z)
    return abs(_det(m, _adjugate(m)))


# Pairings whose summed distance is within this many roundoffs of the least
# sum count as tied with it.
_TIE_ULPS = 8

# Largest set match_distance accepts: 8! = 40,320 pairings.
_MAX_SET_SIZE = 8


@functools.lru_cache(maxsize=None)
def _pairings(n: int) -> np.ndarray:
    """All n! permutations of range(n), one per row."""
    return np.array(list(itertools.permutations(range(n))), dtype=np.intp).reshape(-1, n)


def match_distance(a, b):
    """Largest matched |a_i - b_j| under the pairing of least summed distance.

    The pairing minimises sum_i |a_i - b_sigma(i)| (the linear assignment
    problem), found by brute force over the n! pairings: n is 4 for every
    caller.  Among pairings whose sums tie to within roundoff the largest
    matched distance is returned, so a tie never makes the result smaller.
    Two sets give a float; two ``(N, n)`` stacks of sets give an ``(N,)``
    array, each entry equal to the call on that row alone.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape or a.ndim not in (1, 2):
        raise DomainError(
            f"sets must have equal size, as two sets or two (N, n) stacks; "
            f"got shapes {a.shape} and {b.shape}"
        )
    n = a.shape[-1]
    if n > _MAX_SET_SIZE:
        raise DomainError(f"sets of {n} values are too large for a search over {n}! pairings")
    cost = np.abs(a[..., :, None] - b[..., None, :])
    picked = cost[..., np.arange(n), _pairings(n)]
    sums = picked.sum(axis=-1)
    least = sums.min(axis=-1, keepdims=True)
    # Written as "not above" so that a NaN sum ties and its NaN distance shows.
    tied = ~(sums > least + _TIE_ULPS * np.finfo(float).eps * least)
    worst = picked.max(axis=(-2, -1), where=tied[..., None], initial=0.0)
    return float(worst) if a.ndim == 1 else worst
