"""Closed-form spectrum of the generator plus an independent numeric eigensolver.

One eigenvalue is identically zero (trace conservation).  The other three are
the roots of a depressed cubic solved by radicals; branch choices are pinned
by the constraint u * v = -p and validated against the characteristic
polynomial rather than assumed.  The numeric route never touches the radicals:
it deflates the null eigenvalue exactly and finds the cubic's roots, for one
matrix as the eigenvalues of its companion matrix and for a stack by one
Aberth-Ehrlich iteration over the whole block, then polishes each root by
Newton steps on det(L - zI).  Each is one
body for one point and for arrays, in which only the kernels of ``_POINT``
and ``_ARRAYS`` differ: :func:`_cubic`, which the phase-plane classifier
(``exceptional._classify``) shares, picks them by the input's type, and the
oracle, :func:`_oracle`, by the shape of L, one matrix or a stack.

At one point of three Python floats, the cubic (:func:`_cubic`) and the
modes (:func:`_modes`) are derived once and kept in the point memo: each is a
module-level ``functools.lru_cache`` of ``_MEMO_SIZE`` = 64 points, keyed on
the IEEE bits of (delta, d, gamma), so that -0.0 and 0.0 are two points.  The
classification (``exceptional.classify``) is not kept: it is a few comparisons
on the memo's cubic.  A hit equals a cold solve bit for bit.  The memo's
arrays are read-only, and every public function returns fresh arrays.  A
refusal is not kept and is raised on every call.  Arrays and stacks bypass the
memo.  ``cache_clear()`` on ``_cubic_at`` and ``_modes_at`` empties it.

Two kernels share the 2x2 minors of L - zI.  :func:`_det_trace` forms only the
cofactors that det(L - zI) and its derivative -tr adj(L - zI) read: it serves
the characteristic residual and the Newton polish.  :func:`_adjugate` forms all
sixteen: it serves the eigenvectors, which are a row and a column of the
adjugate (Denton, Parke, Tao & Zhang, Bull. AMS 59, 31 (2022)).
"""

from __future__ import annotations

import cmath
import errno
import functools
import itertools
import math
import numbers
import operator
import os
import reprlib
import struct
from collections.abc import Iterator
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .errors import DomainError, NearDegenerateError, NonConvergenceError
from .model import ModelParams, _refuse
from .superop import _unit_scale, build_lindblad, null_eigenvectors

# Phase attached to the second and third cubic roots.
_W = cmath.exp(2j * cmath.pi / 3)

# Below this relative gap two eigenvalues count as coalesced and the
# closed-form eigenvectors are refused.
PAIR_GAP_RTOL = 1e-6

# A mode whose left/right pairing has a condition number
# kappa = |l| |r| / |l @ r| at or above this is refused as self-orthogonal.
KAPPA_MAX = 1e10

# p and q both below this (relative to the squared energy scale): the exact
# triple root -2i*gamma/3, which avoids the 0/0 of v = -p/u at the coalescence.
TRIPLE_ROOT_RTOL = 1e-12

# A real radical |u| at or below this counts as zero: v is then cbrt(q - sqrt(disc)).
_RADICAL_FLOOR = 1e-100

# A power that overflows is refused with Python's OverflowError(ERANGE): float
# power at a point, _pow on arrays.  The sums and the product that form p and q
# do not raise.  Each such overflow (an infinite q where p cancels, or
# p**3 + q**2 past the largest double) ends in disc, which is refused with this.
_DISC_OVERFLOW = "the cubic's discriminant overflows a double"

# Points each memo of the module docstring keeps, and the key of a point: the IEEE
# bits of (delta, d, gamma).  Bits, not values: -0.0 == 0.0 with equal hashes, yet
# the stationary mode carries the sign of d.
_MEMO_SIZE = 64
_KEY = struct.Struct("<3d")


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


def _cubic(delta, d, gamma) -> tuple:
    """``(p, q, disc, scale2, u, v, z1, z2, z3)``: the cubic, floored energy scale and roots
    at one point of three Python floats, through the point memo, or elementwise over
    arrays that broadcast together, with u and v None and each entry equal to the
    point's bit for bit."""
    if _kernels(delta, d, gamma) is _POINT:
        return _cubic_at(_KEY.pack(delta, d, gamma))
    return _solve_cubic(delta, d, gamma)


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _cubic_at(key: bytes) -> tuple:
    """:func:`_solve_cubic` at the point whose bits are ``key``."""
    return _solve_cubic(*_KEY.unpack(key))


def _solve_cubic(delta, d, gamma) -> tuple:
    """:func:`_cubic` without the memo."""
    k = _kernels(delta, d, gamma)
    p, q, p3, disc, scale2 = k.coefficients(k, delta, d, gamma)
    real = disc >= 0.0
    # The real radicals; where disc < 0, k.roots takes the complex ones instead.
    s = k.sqrt(k.where(real, disc, 0.0))
    ur = k.cbrt(k.select(q >= 0.0, _RADICANDS, p3, q, s))
    vr, vi = k.select(abs(ur) > _RADICAL_FLOOR, _VS, k, p, q, s, ur)
    base = 2.0 * gamma / 3.0
    u, v, roots = k.roots(base, p, q, disc, real, ur, vr, vi)
    # The exact triple root -2i*gamma/3 where v = -p/u would be 0/0.
    triple = k.maximum(abs(p), abs(q)) < TRIPLE_ROOT_RTOL * scale2
    z1, z2, z3 = k.where(triple, (-1j * base,) * 3, roots)
    return p, q, disc, scale2, u, v, z1, z2, z3


def _cubic_coeffs(delta, d, gamma) -> tuple:
    """``p``, ``q``, ``p**3``, ``disc`` and the floored energy scale of :func:`_cubic`,
    ``scale2 = max(1, delta^2 + d^2 + gamma^2)``, the one place it is floored."""
    k = _kernels(delta, d, gamma)
    return k.coefficients(k, delta, d, gamma)


def _coefficients(k, delta, d, gamma) -> tuple:
    """:func:`_cubic_coeffs` with the kernels ``k``."""
    delta2, d2, g2 = k.pow(delta, 2), k.pow(d, 2), k.pow(gamma, 2)
    p = (delta2 + d2 - g2 / 12.0) / 3.0
    q = (gamma / 6.0) * (delta2 - d2 / 2.0 + g2 / 36.0)
    p3 = k.pow(p, 3)
    disc = p3 + k.pow(q, 2)
    if not k.finite(disc):
        raise OverflowError(_DISC_OVERFLOW)
    return p, q, p3, disc, k.maximum(1.0, delta2 + d2 + g2)


# The radicand q + s of u, s = sqrt(disc), and for q < 0 the same through the identity
# q + s = p^3 / (s - q): exact, and free of the cancellation that would wreck u near p = 0.
_RADICANDS = (lambda p3, q, s: q + s, lambda p3, q, s: p3 / (s - q))


def _v_by_quotient(k, p, q, s, ur) -> tuple:
    ratio = 0.0 / ur
    return (-p + 0.0 * ratio) / ur, (0.0 - (-p) * ratio) / ur


# The real and imaginary parts of v: above the radical floor -p / (ur, 0.0) as Python
# divides, through the ratio 0.0 / ur, which leaves v an imaginary zero of the sign of
# ur; at the floor, where u is zero, the real cube root of q - s.
_VS = (_v_by_quotient, lambda k, p, q, s, ur: (k.cbrt(q - s), 0.0))


@np.errstate(over="ignore", under="ignore")
def _pow(x, k: float) -> np.ndarray:
    """Elementwise ``x**k`` as Python's float power forms it, bit for bit, so that
    the array path matches the scalar functions.

    The float64 loop of ``np.float_power`` calls the C library ``pow`` on each
    element, which is the call behind Python's float power once its special
    cases (zero, infinite and NaN operands) are handled, and those give the same
    values.  ``np.power`` does not: it has SIMD loops, and on 2 million seeded
    doubles on an AVX-512 host it differed from Python's power in 55,066 cubes
    and 1,666 squares; ``x*x`` differed in the same 1,666 squares.  The exponent
    goes in as the float that float power would convert it to anyway.

    Overflow is refused as Python refuses it: where a finite entry's power is
    infinite, ``OverflowError(errno.ERANGE, text)``.  An underflow to zero or to
    a subnormal returns the value silently.
    """
    x = np.asarray(x, dtype=float)
    out = np.float_power(x, float(k), out=np.empty(x.shape))
    if np.isinf(out).any() and np.isfinite(x[np.isinf(out)]).any():
        raise OverflowError(errno.ERANGE, os.strerror(errno.ERANGE))
    return out


def _point_roots(base, p, q, disc, real, ur, vr, vi) -> tuple:
    """The radicals u and v at one point and the three decaying eigenvalues from them
    and base = 2 gamma / 3, in the fixed branch order.  Where disc < 0 (not ``real``)
    the radicand q + i sqrt(-disc) is complex."""
    u = complex(ur) if real else (q + 1j * math.sqrt(-disc)) ** (1.0 / 3.0)
    v = complex(vr, vi) if real else -p / u
    return u, v, (-1j * (base + u + v), -1j * (base + _W * u + _W.conjugate() * v),
                  -1j * (base + _W.conjugate() * u + _W * v))


def _array_roots(base, p, q, disc, real, ur, vr, vi) -> tuple:
    """None, None and the three roots of :func:`_point_roots`, elementwise: where the
    radicals are real, the phased combinations expanded into real arithmetic in the
    exact operation order of Python's complex expressions, signed zeros included."""
    # u = (ur, 0.0) and v = (vr, vi) in the three phased combinations.
    wr, wi = _W.real, _W.imag
    z1 = _times_minus_i((base + ur) + vr, 0.0 + vi)
    z2 = _times_minus_i((base + wr * ur) + (wr * vr - (-wi) * vi),
                        (0.0 + wi * ur) + (wr * vi + (-wi) * vr))
    z3 = _times_minus_i((base + (wr * ur + 0.0)) + (wr * vr - wi * vi),
                        (0.0 + (-wi) * ur) + (wr * vi + wi * vr))
    bases = np.broadcast_to(base, p.shape)
    for idx in zip(*np.nonzero(~real)):
        point = [float(x[idx]) for x in (bases, p, q, disc)]
        z1[idx], z2[idx], z3[idx] = _point_roots(*point, False, None, None, None)[2]
    return None, None, (z1, z2, z3)


def _times_minus_i(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """-1j * complex(x, y) elementwise, signed zeros included, as Python forms it."""
    z = np.empty(np.shape(x), dtype=complex)
    z.real = -0.0 * x + y
    z.imag = -0.0 * y - x
    return z


def _where(cond, a, b):
    if type(a) is tuple:
        return tuple(np.where(cond, x, y) for x, y in zip(a, b))
    return np.where(cond, a, b)


def _select_on_arrays(cond, branches, *args):
    # Both branches are formed in full: the side not taken may overflow or divide by zero.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        return _where(cond, *(branch(*args) for branch in branches))


def _newton_on_arrays(z, det, trace):
    # numpy's complex division multiplies by the reciprocal of the divisor, which overflows
    # for a subnormal trace: divide both by 2^k ~ |trace| first, which is exact.
    k = -np.frexp(np.abs(trace))[1]
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(trace != 0, z + _ldexp(det, k) / _ldexp(trace, k), z)


def _collapse_rows(roots, coeffs, scale):
    # Only a row whose tightest gap is below the larger threshold can collapse.
    gaps = np.abs(roots[:, [0, 0, 1]] - roots[:, [1, 2, 2]])
    e1 = -coeffs[1]
    for i in np.flatnonzero(gaps.min(axis=1) < _TRIPLE_RTOL * scale):
        roots[i] = _collapse_clusters(roots[i], e1[i], scale[i])
    zs = np.zeros(roots.shape[:-1] + (4,), dtype=complex)
    zs[..., 1:] = roots
    return zs


def _point_scale(m):
    """max(1, max|L|) for one matrix held in ``m`` on the oracle's common path, where
    it is neither refused nor rescaled, else None; as Python numbers."""
    try:
        mags = [abs(x) for row in m for x in row]
    except OverflowError:  # an entry's modulus is past the largest double
        return None
    # The sum bounds max|L| and, unlike max, keeps a NaN; a matrix whose sum reaches
    # 2^_MAX_EXPONENT but whose max|L| does not takes the long way, with a shift of 0.
    if not sum(mags) < 2.0**_MAX_EXPONENT:
        return None
    scale = max(1.0, *mags)
    leak = max(abs(x + y) for x, y in zip(m[2], m[3]))
    return scale if leak <= _LEAK_RTOL * scale else None


def _diagonal_sum(d0, d1, d2, d3):
    # Summed in np.trace's order, pairwise and onto a zero, so the cubic keeps np.trace's
    # bits: of one matrix on Python numbers, or of a stack on arrays of its diagonals.
    return 0j + ((d0 + d1) + (d2 + d3))


def _cubic_roots(coeffs) -> np.ndarray:
    """Roots of one monic cubic ``coeffs`` (four numbers, the first 1).

    They are the ``eigvals`` of the companion matrix that ``np.roots`` builds,
    which gives the same roots wherever the constant coefficient is nonzero.
    A cubic whose constant coefficient is exactly zero (gamma = 0) still goes
    through ``np.roots``, which strips the trailing zero and returns the root
    0 exactly.
    """
    one, *rest = coeffs
    if rest[2] == 0:
        return np.roots(coeffs)
    top = [-c / one for c in rest]
    return np.linalg.eigvals(np.array([top, [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], dtype=complex))


# The stack's root finder, :func:`_cubic_roots_rows`.  Its iterates start on the root
# bound's circle about the roots' mean, at these angles: 15 degrees from any start that
# either mirror of the generator's cubic (z -> conj(z) at gamma = 0, z -> -conj(z)
# always) maps onto itself, as a mirror-symmetric start stays symmetric and stalls.
# Coming from outside every root, the iterates reach a cluster spread about it, clear of
# the points where the derivative of det(L - zI) vanishes and the Newton polish leaps.
# A start inside the cluster (the shifted cubic's own, tighter bound) settles beside
# them: on 100,000 seeded near-EP3 generators it left 38 roots off by over 5e-5 of the
# scale and 10 refusals, this start none.
_ABERTH_START = np.exp(1j * (np.pi / 12.0 + 2.0 * np.pi / 3.0 * np.arange(3)))[:, None]
# The step an iterate takes, relative to the root bound, where the Aberth-Ehrlich
# correction is undefined: in a direction of its own, so that coincident iterates part.
_ABERTH_NUDGE = 2.0**-10 * _ABERTH_START
# An iterate stops once its step is at most _ABERTH_STEP_RTOL of the root bound, or once
# |p(z)| is within _ABERTH_NOISE of Horner's rounding bound, sum |c_k| |z|^k (Bini 1996):
# past that its steps only wander inside a cluster's noise.  A cubic stops once its
# three iterates have, or after _ABERTH_MAX_STEPS.
_ABERTH_STEP_RTOL = 1e-8
_ABERTH_NOISE = 32 * 2.0**-53
_ABERTH_MAX_STEPS = 50


# A product or a quotient that overflows is caught as a bad step, without numpy's warning.
@np.errstate(over="ignore", invalid="ignore")
def _cubic_roots_rows(coeffs: tuple) -> np.ndarray:
    """Roots of each monic cubic of a stack, by one Aberth-Ehrlich iteration on all of
    them at once (Aberth, Math. Comp. 27, 339 (1973); Bini, Numer. Algorithms 13, 179
    (1996)).

    Each cubic z^3 + c0 z^2 + c1 z + c2 is divided through by 2^e, the power of two
    at or above its root bound R = 2 max(|c0|, |c1|^(1/2), |c2|^(1/3)): an exact step
    that puts every root in the unit disc and keeps the iteration clear of overflow
    and underflow.  The iterates start on the circle of radius R about the roots'
    mean -c0/3 (:data:`_ABERTH_START`).  Each takes the step p / (p' - p S), with S
    the sum of 1/(z - w) over the other two iterates w, formed over their common
    denominator, which a zero p' leaves defined.  Where two iterates coincide, or
    that step is not finite, the iterate takes :data:`_ABERTH_NUDGE` instead, even
    if it had stopped.  Only the cubics not yet stopped keep iterating.  The cubic
    z^3 (R = 0) has its triple root 0 at the start.  The roots are left as loose as
    the stop allows, and a cubic that runs out of steps keeps its last iterates:
    the oracle's Newton polish and residual gate decide.
    """
    one, *rest = coeffs
    c = np.stack(rest) / one
    mags = np.abs(c)
    bound = 2.0 * np.maximum(np.maximum(mags[0], np.sqrt(mags[1])), np.cbrt(mags[2]))
    e = np.frexp(bound)[1]
    a = _ldexp(c, -np.arange(1, 4)[:, None] * e)
    radius = np.ldexp(bound, -e)
    z = -a[0] / 3.0 + radius * _ABERTH_START
    rows = np.flatnonzero(radius)
    y, a, radius = z[:, rows], a[:, rows], radius[rows]
    ac, twice, tol, nudge = abs(a), 2.0 * a[0], _ABERTH_STEP_RTOL * radius, radius * _ABERTH_NUDGE
    live = np.ones(y.shape, dtype=bool)
    for _ in range(_ABERTH_MAX_STEPS):
        if not len(rows):
            break
        p = ((y + a[0]) * y + a[1]) * y + a[2]
        dp = (3.0 * y + twice) * y + a[1]
        # S = 1/g + 1/h = (g + h) / (g h), for the gaps g and h to the other two iterates.
        g, h = y - y[[1, 0, 0]], y - y[[2, 2, 1]]
        q = g * h
        step = p * q / (dp * q - p * (g + h))
        bad = (q == 0.0) | ~np.isfinite(step)
        if bad.any():
            step[bad] = nudge[bad]
        r = abs(y)
        live &= ~(abs(p) <= _ABERTH_NOISE * (((r + ac[0]) * r + ac[1]) * r + ac[2]))
        live |= bad
        np.subtract(y, step, out=y, where=live)
        live &= ~(abs(step) <= tol)
        done = ~live.any(axis=0)
        if done.any():
            z[:, rows[done]] = y[:, done]
            keep = ~done
            rows, twice, tol = rows[keep], twice[keep], tol[keep]
            y, a, ac, nudge, live = (x[:, keep] for x in (y, a, ac, nudge, live))
    z[:, rows] = y
    return _ldexp(z.T, e[:, None])


# The operations in which _cubic and the classifier differ between one point and arrays,
# and the oracle between one matrix and a stack.  ``where(cond, a, b)`` is a where cond
# holds, else b, pairwise for tuples.  ``select(cond, (then, other), *args)`` is
# ``where(cond, then(*args), other(*args))`` but forms at a point only the branch taken,
# as the other may divide by zero.  ``abs`` is the complex magnitude as Python rounds
# it.  ``coefficients`` runs _coefficients, on arrays under np.errstate, so that an
# overflowing sum reaches the disc check silently, as it does in Python's floats.
# ``roots`` is the last step.  For the oracle, ``entries`` hold L for _shifted,
# ``trace`` is the trace of a matrix power, ``cubic_roots`` solves the cubics (LAPACK for
# one matrix, the Aberth-Ehrlich iteration for a stack), ``newton`` is one Newton step
# (none where the trace is zero), ``collapse`` runs _collapse_clusters per matrix and
# puts the null root first, ``bad`` flags the roots that fail the residual gate, and
# ``map(f, z)`` is f at each shift, one at a time or at once under np.errstate: a NaN or
# infinite root must reach the residual gate silently.  For one matrix all of these work
# on Python numbers; only the products L @ L and L2 @ L and the companion matrix's
# eigenvalues stay in numpy.
_POINT = SimpleNamespace(
    pow=pow, sqrt=math.sqrt, cbrt=lambda x: float(np.cbrt(x)), maximum=max, abs=abs,
    finite=math.isfinite, coefficients=_coefficients, where=lambda cond, a, b: a if cond else b,
    select=lambda cond, branches, *args: branches[0](*args) if cond else branches[1](*args),
    roots=_point_roots, entries=np.ndarray.tolist,
    trace=lambda a: _diagonal_sum(*a.diagonal().tolist()),
    cubic_roots=_cubic_roots, map=lambda f, z: [f(w) for w in z.tolist()],
    newton=lambda z, det, trace: z + det / trace if trace else z,
    collapse=lambda roots, coeffs, scale: np.array(
        [0j, *_collapse_clusters(roots, -coeffs[1], scale)]),
    bad=lambda res, tol: [not r <= tol for r in res],
)
_ARRAYS = SimpleNamespace(
    pow=_pow, sqrt=np.sqrt, cbrt=np.cbrt, maximum=lambda *xs: functools.reduce(np.maximum, xs),
    abs=lambda z: np.hypot(z.real, z.imag),
    finite=lambda x: np.isfinite(x).all(), coefficients=np.errstate(over="ignore")(_coefficients),
    where=_where, select=_select_on_arrays,
    roots=_array_roots, entries=lambda L: [[L[:, None, i, j] for j in range(4)] for i in range(4)],
    trace=lambda m: _diagonal_sum(*(m[:, i, i] for i in range(4))), cubic_roots=_cubic_roots_rows,
    map=np.errstate(invalid="ignore", over="ignore")(
        lambda f, z: f(z.reshape(len(z), math.prod(z.shape[1:]))).reshape(z.shape)),
    newton=_newton_on_arrays, collapse=_collapse_rows,
    bad=lambda res, tol: ~(res <= tol[..., None]),
)
_MATRIX_KERNELS = {2: _POINT, 3: _ARRAYS}


def _kernels(delta, d, gamma) -> SimpleNamespace:
    """The point kernels for three Python floats, the array kernels otherwise."""
    return _POINT if type(delta) is type(d) is type(gamma) is float else _ARRAYS


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
    *_, z1, z2, z3 = _cubic(delta, d, gamma)
    return np.stack([np.zeros_like(z1), z1, z2, z3], axis=-1)


def eigenvalues_closed_form(params: ModelParams) -> Spectrum:
    """All four eigenvalues by radicals, labelled (z0, z1, z2, z3); z0 = 0 exactly.

    Labels follow the fixed branch convention, not any ordering of the values,
    so that branches stay continuous across parameter sweeps.
    """
    *_, z1, z2, z3 = _cubic(params.delta, params.d, params.gamma)
    zs = np.array([0.0, z1, z2, z3], dtype=complex)
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
    try:
        index = None if isinstance(nu, bool) else operator.index(nu)
    except TypeError:
        index = None
    if index not in (1, 2, 3):
        raise DomainError(f"nu must be the integer 1, 2 or 3, got {nu!r}; "
                          "the null mode has its own accessor")
    bare = eigenvalues_closed_form(params)
    _refuse_coalesced(bare, modes=(index,))
    exponent, *unit = _unit_scale(params)
    z = bare.eigenvalues[index:index + 1]
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
    rows = unit_L.tolist()
    adj = np.array([_adjugate(_shifted(rows, unit_z)) for unit_z in unit_zs.tolist()])
    power = (adj * adj.conj()).real
    row_power, col_power = power.sum(axis=2), power.sum(axis=1)
    best_rows, best_cols = row_power.argmax(axis=1).tolist(), col_power.argmax(axis=1).tolist()
    for k, (z, i, j) in enumerate(zip(zs.tolist(), best_rows, best_cols)):
        left, right, norm = adj[k, i], adj[k, :, j], math.sqrt(row_power[k, i])
        pairing = left @ right
        # Written as "not above" so that an all-zero adjugate refuses too.
        if not abs(pairing) > (1.0 / KAPPA_MAX) * norm * math.sqrt(col_power[k, j]):
            kappa = norm * math.sqrt(col_power[k, j]) / abs(pairing) if pairing else math.inf
            raise NearDegenerateError(
                f"left/right pairing for z = {z} is numerically singular: its condition number "
                f"kappa = {kappa:.3e} is not below {KAPPA_MAX:.0e} "
                "(self-orthogonal mode at a coalescence)"
            )
        yield left / norm, right * (norm / pairing)


def full_spectrum(params: ModelParams) -> Spectrum:
    """Eigenvalues plus the complete biorthogonal system, null mode included.

    Raises :class:`NearDegenerateError` at and near exceptional points, where
    :attr:`Spectrum.degenerate_pairs` is not empty or a pairing is singular.
    """
    spec = _modes(params)
    return Spectrum(spec.eigenvalues.copy(), spec.left.copy(), spec.right.copy(),
                    spec.residuals.copy(), spec.degenerate_pairs)


def _modes(params: ModelParams) -> Spectrum:
    """:func:`full_spectrum` through the point memo, its arrays read-only."""
    return _modes_at(_KEY.pack(params.delta, params.d, params.gamma))


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _modes_at(key: bytes) -> Spectrum:
    """:func:`full_spectrum` at the point whose bits are ``key``, its arrays read-only.

    Every mode comes from one generator L at unit scale, L_phys / 2^e, and the
    residuals are taken at that scale and scaled back.
    """
    params = ModelParams(*_KEY.unpack(key))
    bare = eigenvalues_closed_form(params)
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
    residuals = np.ldexp(np.maximum(r_def, l_def), exponent)
    for array in (zs, left, right, residuals):
        array.flags.writeable = False
    return Spectrum(zs, left, right, residuals, bare.degenerate_pairs)


# The oracle's residual gate: |det(L - zI)| <= _RESIDUAL_RTOL * max(1, max|L|)^4.
_RESIDUAL_RTOL = 1e-9

# Largest population leak max|L[2] + L[3]|, relative to max(1, max|L|), the oracle deflates.
_LEAK_RTOL = 1e-12

# The oracle works on L / 2^s, where 2^s brings the largest real or imaginary
# part of L down to at most 2^_MAX_EXPONENT, and so max|L| to at most
# 2^(_MAX_EXPONENT + 1/2): det(L - zI) then stays below about 2^822 at any finite
# scale.  Below 2^_MAX_EXPONENT (about 1.6e60), s is 0 and L is used as it is.
_MAX_EXPONENT = 200


# Numbers per block of an array path: the nodes of a grid, or the entries of a stack's
# matrices.  Every operation on those paths is elementwise per node or per matrix, so a
# block changes no bit; it bounds the temporaries, which stay in cache.  A stack's row
# holds at most 64 numbers, so only a grid's rows are ever longer than a block.
_BLOCK = 8192


def _in_blocks(fn, outs: tuple, width: int) -> tuple:
    """Fill the preallocated arrays ``outs``, whose rows along the common leading axis
    hold ``width`` numbers each, one block of about _BLOCK numbers at a time:
    ``fn(block)`` gives ``out[block]`` for each ``out`` of ``outs``, in their order.  A
    block is a slice of whole rows, or, where one row is longer, a pair (slice of one
    row, slice of its columns)."""
    n, step = len(outs[0]), _BLOCK // max(1, width)
    if step:
        blocks = (slice(i, i + step) for i in range(0, n, step))
    else:
        blocks = ((slice(i, i + 1), slice(j, j + _BLOCK))
                  for i in range(n) for j in range(0, width, _BLOCK))
    for block in blocks:
        for out, part in zip(outs, fn(block)):
            out[block] = part
    return outs


def _ldexp(x, e) -> np.ndarray:
    """x * 2^e for complex x, exactly and keeping the signs of zeros."""
    x = np.ascontiguousarray(x, dtype=complex)
    parts = x.view(float).reshape(x.shape + (2,))
    return np.ldexp(parts, np.asarray(e)[..., None]).view(complex)[..., 0]


def _char_cubic_coeffs(L: np.ndarray) -> tuple:
    """Coefficients (1, -e1, e2, -e3) of the null-deflated characteristic cubic.

    Assembled from traces of matrix powers (Newton's identities), so the
    deflation of the known zero eigenvalue is exact.  A stack ``(N, 4, 4)``
    gives one array of N per coefficient past the first; one matrix gives
    Python complex numbers.  The products stay in numpy for both.
    """
    L2 = L @ L
    e1, t2, t3 = (_MATRIX_KERNELS[L.ndim].trace(m) for m in (L, L2, L2 @ L))
    e2 = (e1 * e1 - t2) / 2.0
    e3 = (e1**3 - 3.0 * e1 * t2 + 2.0 * t3) / 6.0
    return 1.0, -e1, e2, -e3


# Root clusters tighter than these multiples of the scale are collapsed: all
# three roots onto their mean, or the closest pair onto its mean.
_TRIPLE_RTOL = 5e-5
_PAIR_RTOL = 1e-7


def _collapse_clusters(roots, e1: complex, scale: float):
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
        return [e1 / 3.0] * 3
    gap, i, j = min(gaps)
    if gap < _PAIR_RTOL * scale:
        out = list(roots)
        out[i] = out[j] = (e1 - roots[3 - i - j]) / 2.0
        return out
    return roots


def eigenvalues_numeric(L: np.ndarray) -> np.ndarray:
    """The four eigenvalues by exact deflation and polynomial root finding.

    Independent of the closed-form radicals: the null eigenvalue is removed
    through the trace identities (population conservation makes the matrix
    singular by construction), the remaining cubic is solved, for one matrix
    by LAPACK on its companion matrix and for a stack by a vectorized
    Aberth-Ehrlich iteration (:func:`_cubic_roots_rows`), and each root is
    polished by three Newton steps on det(L - zI) itself, not on the cubic's
    coefficients, whose roundoff would limit a close pair to about
    eps * scale^2 / gap.  The null root is returned first.

    ``L`` is one 4x4 matrix, giving 4 eigenvalues, or an ``(N, 4, 4)`` stack,
    giving ``(N, 4)``, by one body on kernels the shape picks (Python complex
    arithmetic for one matrix, numpy blocks for a stack).  Above max|L| ~ 2^200
    L is first divided by a power of two, an exact rescale that keeps
    det(L - zI) finite at any finite scale; the residual check is then made at
    that scale, relative to it as always.

    Raises :class:`DomainError` for entries that are not numbers or are bools,
    for non-finite entries and for a matrix that does not conserve population,
    and :class:`NonConvergenceError` if any returned value fails the
    characteristic-polynomial residual check (a NaN or infinite residual fails
    it), and OverflowError where an eigenvalue passes the largest double.  For a
    stack the message names the index of the first offending matrix.
    """
    L = _numbers(L, "matrix entries")
    if L.ndim not in (2, 3) or L.shape[-2:] != (4, 4):
        raise DomainError(f"expected a 4x4 matrix or an (N, 4, 4) stack, got shape {L.shape}")
    if L.ndim == 2:
        return _oracle(L, None)
    return _in_blocks(lambda rows: (_oracle(L[rows], rows.start),),
                      (np.empty((len(L), 4), dtype=complex),), 16)[0]


def _oracle(L: np.ndarray, first: int | None) -> np.ndarray:
    """:func:`eigenvalues_numeric` of one matrix (``first`` is None), or of a
    block of a stack whose first matrix, named in the messages, has index ``first``."""
    k = _MATRIX_KERNELS[L.ndim]
    batch = None if first is None else (lambda row: f"matrix {first + row} of the stack: ")
    m, shift = k.entries(L), None
    # One matrix skips the rescale when its cheap test passes; a stack always takes it.
    scale = _point_scale(m) if k is _POINT else None
    if scale is None:
        # One matrix's flags are 0-d; at least 1-D, they name no element.
        _refuse(np.atleast_1d(~np.isfinite(L).all(axis=(-2, -1))), DomainError,
                lambda *_: "matrix has non-finite entries", batch)
        # From the largest real or imaginary part: a modulus may overflow before the rescale.
        parts = np.maximum(abs(L.real), abs(L.imag)).reshape(L.shape[:-2] + (16,)).max(axis=-1)
        # The binary exponent past 2^_MAX_EXPONENT (a power-of-two scaling is exact).  A
        # shift of 0 keeps every bit, so L is copied only where a matrix is rescaled.
        shift = np.maximum(np.frexp(parts * 2.0**-_MAX_EXPONENT)[1], 0)
        if shift.any():
            L = _ldexp(L, -shift[..., None, None])
            m = k.entries(L)
        scale = np.maximum(1.0, np.abs(L).reshape(L.shape[:-2] + (16,)).max(axis=-1))
        leak = np.abs(L[..., 2, :] + L[..., 3, :]).max(axis=-1)
        _refuse(np.atleast_1d(leak > _LEAK_RTOL * scale), DomainError,
                lambda *_: "matrix does not conserve population; "
                "cannot deflate the null eigenvalue", batch)
    coeffs = _char_cubic_coeffs(L)
    roots = k.map(functools.partial(_newton_polish, k, m), k.cubic_roots(coeffs))
    zs = k.collapse(roots, coeffs, scale)
    res = k.map(functools.partial(_residual, m), zs)
    if shift is not None:
        # A root past the largest double is refused below, without numpy's warning.
        with np.errstate(over="ignore"):
            zs = _ldexp(zs, shift[..., None])
        _refuse(np.atleast_1d(~np.isfinite(zs).all(axis=-1) & (shift > 0)), OverflowError,
                lambda *_: "eigenvalues overflow a double", batch)
    tol = _RESIDUAL_RTOL * scale**4
    _refuse(k.bad(res, tol), NonConvergenceError,
            lambda *at: f"root {zs[at]} fails the residual check: "
            f"{np.asarray(res)[at]:.3e} > {np.asarray(tol)[at[:-1]]:.3e}", batch)
    return zs


def _newton_polish(k: SimpleNamespace, m: list, z):
    """Three Newton steps on det(L - zI), whose derivative is -tr adj(L - zI), for L held
    in ``m`` by the kernels ``k``: from one root of one matrix, or all roots of a stack."""
    for _ in range(3):
        z = k.newton(z, *_det_trace(_shifted(m, z), trace=True))
    return z


def _adjugate(m: list) -> list:
    """The adjugate of a 4x4 matrix held as nested lists of Python complex numbers,
    or of arrays of one shape, one matrix per element.

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


def _det_trace(m: list, trace: bool = False):
    """det(m) and, when ``trace`` is set, tr adj(m) (else None), for ``m`` as
    :func:`_adjugate` takes it.

    Forms only the cofactors these read, each in :func:`_adjugate`'s order:
    the first column for det(m), expanded along the first row, and the rest
    of the diagonal for the trace.  The results equal, bit for bit,
    ``sum(m[0][j] * adj[j][0] for j in range(4))`` and the diagonal sum of
    ``adj = _adjugate(m)``.
    """
    (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3), (d0, d1, d2, d3) = m
    t01, t02, t03 = c0 * d1 - c1 * d0, c0 * d2 - c2 * d0, c0 * d3 - c3 * d0
    t12, t13, t23 = c1 * d2 - c2 * d1, c1 * d3 - c3 * d1, c2 * d3 - c3 * d2
    adj00 = b1 * t23 - b2 * t13 + b3 * t12
    adj10 = -(b0 * t23 - b2 * t03 + b3 * t02)
    adj20 = b0 * t13 - b1 * t03 + b3 * t01
    adj30 = -(b0 * t12 - b1 * t02 + b2 * t01)
    # sum() starts from the integer 0, which fixes the signs of zero results.
    det = sum((a0 * adj00, a1 * adj10, a2 * adj20, a3 * adj30))
    if not trace:
        return det, None
    s01, s02, s03 = a0 * b1 - a1 * b0, a0 * b2 - a2 * b0, a0 * b3 - a3 * b0
    s12, s13 = a1 * b2 - a2 * b1, a1 * b3 - a3 * b1
    adj11 = a0 * t23 - a2 * t03 + a3 * t02
    adj22 = d0 * s13 - d1 * s03 + d3 * s01
    adj33 = c0 * s12 - c1 * s02 + c2 * s01
    return det, adj00 + adj11 + adj22 + adj33


def _shifted(m: list, z) -> list:
    """L - zI for ``L`` held in ``m`` as the kernels' ``entries`` hold it: Python complex
    numbers with one shift ``z``, or arrays that broadcast against the shifts of a stack."""
    (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3), (d0, d1, d2, d3) = m
    return [[a0 - z, a1, a2, a3], [b0, b1 - z, b2, b3], [c0, c1, c2 - z, c3], [d0, d1, d2, d3 - z]]


def _residual(m: list, z):
    """|det(L - zI)|, with ``L`` and ``z`` as :func:`_shifted` takes them."""
    return abs(_det_trace(_shifted(m, z))[0])


def characteristic_residual(L: np.ndarray, z):
    """|det(L - z I)| by cofactor expansion of the 4x4 matrix along its first row.

    ``L`` is one matrix with a scalar ``z``, giving a float, or an
    ``(N, 4, 4)`` stack with ``z`` of shape ``(N,)`` or ``(N, k)``, giving one
    residual per shift in an array shaped like ``z``.  Both must hold numbers.
    """
    L, z = _numbers(L, "matrix entries"), _numbers(z, "shifts")
    if L.shape == (4, 4) and z.ndim == 0:
        return _residual(L.tolist(), z.item())
    if not (L.ndim == 3 and L.shape[1:] == (4, 4) and z.ndim in (1, 2) and len(z) == len(L)):
        raise DomainError(
            f"expected a 4x4 matrix with a scalar shift, or an (N, 4, 4) stack with "
            f"(N,) or (N, k) shifts; got shapes {L.shape} and {z.shape}"
        )
    def block(rows):
        return (_ARRAYS.map(functools.partial(_residual, _ARRAYS.entries(L[rows])), z[rows]),)

    return _in_blocks(block, (np.empty(z.shape),), 16)[0]


def _numbers(x, what: str) -> np.ndarray:
    """``x`` as a complex array if it holds numbers in a double's range and no bools, else
    DomainError.  An array or a single number is judged by its dtype.  Object arrays, in
    which ints past int64 arrive, are checked one by one, and so are lists: numpy reads
    a list that mixes bools with numbers as numbers."""
    try:
        a = np.asarray(x)
        kind = a.dtype.kind
        if kind == "O":
            ok = all(isinstance(v, numbers.Number) and not isinstance(v, bool) for v in a.flat)
        else:
            ok = kind in "iufc" and (a.ndim == 0 or isinstance(x, np.ndarray) or not any(
                isinstance(v, bool) or getattr(v, "dtype", None) == bool
                for v in np.array(x, dtype=object).flat))
        if ok:
            return a.astype(complex, copy=False)
    except (TypeError, ValueError, OverflowError):
        pass
    raise DomainError(f"{what} must be numbers within the range of a double, got {reprlib.repr(x)}")


# Pairings whose summed distance is within this many roundoffs of the least
# sum count as tied with it.
_TIE_ULPS = 8

# Largest set match_distance accepts: 8! = 40,320 pairings.
_MAX_SET_SIZE = 8


@functools.lru_cache(maxsize=None)
def _pairings(n: int) -> np.ndarray:
    """All n! permutations of range(n), one per row."""
    return np.array(list(itertools.permutations(range(n))), dtype=np.intp)


def match_distance(a, b):
    """Largest matched |a_i - b_j| under the pairing of least summed distance.

    The pairing minimises sum_i |a_i - b_sigma(i)| (the linear assignment
    problem), found by brute force over the n! pairings: n is 4 for every
    caller.  Among pairings whose sums tie to within roundoff the largest
    matched distance is returned, so a tie never makes the result smaller.
    Two sets give a float; two ``(N, n)`` stacks of sets give an ``(N,)``
    array, each entry equal to the call on that row alone.
    """
    a, b = _numbers(a, "set entries"), _numbers(b, "set entries")
    if a.shape != b.shape or a.ndim not in (1, 2):
        raise DomainError(
            f"sets must have equal size, as two sets or two (N, n) stacks; "
            f"got shapes {a.shape} and {b.shape}"
        )
    n = a.shape[-1]
    if n > _MAX_SET_SIZE:
        raise DomainError(f"sets of {n} values are too large for a search over {n}! pairings")
    if a.ndim == 1:
        return float(_match_rows(a, b))
    return _in_blocks(lambda rows: (_match_rows(a[rows], b[rows]),),
                      (np.empty(len(a)),), n * n)[0]


def _match_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """:func:`match_distance` of two sets, or of each row of two stacks of sets, as an array."""
    n = a.shape[-1]
    cost = np.abs(a[..., :, None] - b[..., None, :])
    picked = cost[..., np.arange(n), _pairings(n)]
    sums = picked.sum(axis=-1)
    least = sums.min(axis=-1, keepdims=True)
    # Written as "not above" so that a NaN sum ties and its NaN distance shows.
    tied = ~(sums > least + _TIE_ULPS * np.finfo(float).eps * least)
    return picked.max(axis=(-2, -1), where=tied[..., None], initial=0.0)
