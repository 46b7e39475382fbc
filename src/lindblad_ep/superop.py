"""The 4x4 generator of the dissipative dynamics and its stationary state.

The equation of motion for the flattened state reads i dpsi/dt = L psi, so the
propagating generator is -i L; the factor -i is applied by the integrators and
is never baked into L itself.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError
from .model import ModelParams, devectorize, jump_operators

_C, _CDAG = jump_operators()
_N = _CDAG @ _C


def build_lindblad(params: ModelParams) -> np.ndarray:
    """Assemble the generator matrix on the (rho_eg, rho_ge, rho_ee, rho_gg) layout.

    The population rows (third and fourth) are exact negatives of each other,
    so psi[2] + psi[3], the trace of the state, is conserved to the last bit.
    Swapping the first two rows and columns of -conj(L) reproduces L, which
    forces the eigenvalue set to be symmetric about the imaginary axis.
    """
    delta, d, gamma = params.delta, params.d, params.gamma
    hd = 0.5 * d
    hg = 0.5 * gamma
    return np.array(
        [
            [delta - 1j * hg, 0.0, -hd, hd],
            [0.0, -delta - 1j * hg, hd, -hd],
            [-hd, hd, -1j * gamma, 0.0],
            [hd, -hd, 1j * gamma, 0.0],
        ]
    )


def lindblad_rhs(hamiltonian: np.ndarray, gamma: float, rho: np.ndarray) -> np.ndarray:
    """Time derivative of a 2x2 density matrix under coherent drive and decay.

    Returns drho/dt = -i[H, rho] + gamma (c rho c+ - {c+ c, rho}/2) with the
    single relaxation channel of this model.  Traceless by construction.
    """
    if gamma < 0:
        raise DomainError(f"gamma must be >= 0, got {gamma}")
    h = np.asarray(hamiltonian, dtype=complex)
    r = np.asarray(rho, dtype=complex)
    out = -1j * (h @ r - r @ h)
    if gamma != 0.0:
        out = out + gamma * (_C @ r @ _CDAG - 0.5 * (_N @ r + r @ _N))
    return out


def _unit_scale(params: ModelParams) -> tuple[int, float, float, float]:
    """The exponent e of 2^e ~ max(|delta|, |d|, gamma) and (delta, d, gamma) / 2^e.

    Dividing by a power of two is exact, and it keeps products of a few
    parameters from underflowing or overflowing at any finite scale.
    """
    _, exponent = math.frexp(max(abs(params.delta), abs(params.d), params.gamma))
    return exponent, *(math.ldexp(x, -exponent) for x in (params.delta, params.d, params.gamma))


def null_eigenvectors(params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """Left and right stationary eigenvectors, normalised so that left @ right = 1.

    The left vector (0, 0, 1, 1) expresses trace conservation; the right one is
    the stationary state.  Rejects the fully degenerate point
    delta = d = gamma = 0, where the stationary state is not unique.
    """
    # The entries are ratios of quadratics in the parameters, so they can be
    # computed at unit scale.
    _, delta, d, gamma = _unit_scale(params)
    n0 = 4.0 * delta**2 + 2.0 * d**2 + gamma**2
    if n0 <= 0.0:
        raise DomainError("stationary state is not unique at delta = d = gamma = 0")
    left = np.array([0.0, 0.0, 1.0, 1.0], dtype=complex)
    right = (
        np.array(
            [
                -d * (2.0 * delta + 1j * gamma),
                -d * (2.0 * delta - 1j * gamma),
                d * d,
                4.0 * delta**2 + d**2 + gamma**2,
            ]
        )
        / n0
    )
    return left, right


def equilibrium_state(params: ModelParams) -> np.ndarray:
    """The unique stationary density matrix (Hermitian, unit trace)."""
    _, right = null_eigenvectors(params)
    return devectorize(right)
