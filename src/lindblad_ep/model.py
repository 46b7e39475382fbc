"""Two-level dissipative system: parameters, operators, density-matrix helpers.

Basis ordering is (excited, ground): index 0 is |e>, index 1 is |g>.  The
flattened (Hilbert-Schmidt) layout of a density matrix is the 4-vector
(rho_eg, rho_ge, rho_ee, rho_gg).  This ordering is a frozen contract shared
by every module that builds or consumes the 4x4 generator.

All energies are real with hbar = 1.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .constants import INITIAL_STATES
from .errors import DomainError

HS_COMPONENTS = ("rho_eg", "rho_ge", "rho_ee", "rho_gg")

# The flattened layout, stated once: the row-major index in the 2x2 matrix of each
# component of HS_COMPONENTS, and the component at each row-major index.
_HS_INDEX = np.array([1, 2, 0, 3])
_HS_COMPONENT = np.empty(4, dtype=int)
_HS_COMPONENT[_HS_INDEX] = np.arange(4)

# Hermiticity-pairing defect of a flattened state, relative to its largest
# entry (floored at 1), above which devectorize warns.
_PAIRING_RTOL = 1e-9


class HermiticityWarning(UserWarning):
    """A flattened state broke the conjugate pairing between rho_eg and rho_ge."""


def _as_finite_float(name: str, value) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise DomainError(f"{name} must be finite, got {value!r}")
    return value


@dataclass(frozen=True)
class ModelParams:
    """Rotating-frame parameters: detuning, drive amplitude, environment coupling.

    ``gamma`` must be nonnegative.  ``delta`` may vanish except where a
    quantity is expressed in units of the detuning (the scaled coordinates
    d/delta and gamma/delta).
    """

    delta: float
    d: float
    gamma: float

    def __post_init__(self):
        for name in ("delta", "d", "gamma"):
            object.__setattr__(self, name, _as_finite_float(name, getattr(self, name)))
        if self.gamma < 0:
            raise DomainError(f"gamma must be >= 0, got {self.gamma}")

    def scaled(self) -> tuple[float, float]:
        """Return (d/delta, gamma/delta); requires a nonzero detuning."""
        if self.delta == 0:
            raise DomainError("scaled coordinates d/delta, gamma/delta need delta != 0")
        return self.d / self.delta, self.gamma / self.delta


@dataclass(frozen=True)
class LabParams:
    """Lab-frame parameters: level splitting, drive frequency and amplitude, coupling."""

    Delta: float
    omega: float
    d: float
    gamma: float

    def __post_init__(self):
        for name in ("Delta", "omega", "d", "gamma"):
            object.__setattr__(self, name, _as_finite_float(name, getattr(self, name)))
        if self.gamma < 0:
            raise DomainError(f"gamma must be >= 0, got {self.gamma}")

    @property
    def detuning(self) -> float:
        """Drive offset from the level splitting, Delta - omega."""
        return self.Delta - self.omega

    def to_rotating(self) -> ModelParams:
        """Parameters of the equivalent co-rotating-frame description."""
        return ModelParams(self.detuning, self.d, self.gamma)


def _drive_phase(omega: float, t):
    """exp(-i omega t) for one time or an array of times.

    A phase omega * t that is not finite, one that overflows included, is refused
    with :class:`DomainError` before numpy would warn and return NaN.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        x = -1j * omega * t
    finite = np.isfinite(x)
    if not finite.all():
        at = np.ravel(t)[np.argmin(finite)]
        raise DomainError(f"the drive phase omega * t is not finite, got omega={omega}, t={at}")
    return np.exp(x)


def hamiltonian_rwa(params: LabParams, t: float) -> np.ndarray:
    """Lab-frame Hamiltonian with the counter-rotating drive component dropped."""
    phase = _drive_phase(params.omega, t)
    half = 0.5 * params.d
    return np.array([[params.Delta + 0j, half * phase], [half * np.conj(phase), 0j]])


def hamiltonian_rotating(params: ModelParams) -> np.ndarray:
    """Time-independent Hamiltonian in the frame co-rotating with the drive."""
    half = 0.5 * params.d
    return np.array([[params.delta, half], [half, 0.0]], dtype=complex)


def jump_operators() -> tuple[np.ndarray, np.ndarray]:
    """Relaxation operator and its adjoint, as the pair (c, c_dagger).

    ``c`` lowers the excited state into the ground state; its adjoint describes
    excitation by the environment.
    """
    c = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
    return c, c.conj().T


def frame_unitary(omega: float, t) -> np.ndarray:
    """Diagonal unitary carrying the drive phase on the excited level only.

    An array of times gives the stack of unitaries, shape ``t.shape + (2, 2)``.
    """
    t = np.asarray(t, dtype=float)
    u = np.zeros(t.shape + (2, 2), dtype=complex)
    u[..., 0, 0] = _drive_phase(omega, t)
    u[..., 1, 1] = 1.0
    return u


def rotate_to_lab(rho_tilde: np.ndarray, omega: float, t) -> np.ndarray:
    """Map a rotating-frame state back to the lab frame at time ``t``.

    Unitary conjugation: preserves trace, Hermiticity and eigenvalues; only the
    phase of the coherence changes.  Broadcasts over stacks: an array of times
    with one state or a stack of states, one per time.  The unitary of
    :func:`frame_unitary` is diagonal, diag(e, 1) with e = exp(-i omega t), so
    the conjugation is written entry by entry: (e rho_ee) conj(e), e rho_eg,
    rho_ge conj(e) and rho_gg.  No entry enters another, so a NaN or infinite
    entry stays where it is (a matrix product would spread NaN through 0 inf).
    Returns a fresh array.
    """
    rho = np.asarray(rho_tilde, dtype=complex)
    if rho.shape[-2:] != (2, 2):
        raise DomainError(f"expected a 2x2 matrix or a stack of them, got shape {rho.shape}")
    e = _drive_phase(omega, np.asarray(t, dtype=float))
    e_bar = np.conj(e)
    out = np.empty(np.broadcast_shapes(e.shape, rho.shape[:-2]) + (2, 2), dtype=complex)
    out[..., 0, 0] = e * rho[..., 0, 0] * e_bar
    out[..., 0, 1] = e * rho[..., 0, 1]
    out[..., 1, 0] = rho[..., 1, 0] * e_bar
    out[..., 1, 1] = rho[..., 1, 1]
    return out


def vectorize(rho: np.ndarray) -> np.ndarray:
    """Flatten a 2x2 density matrix to (rho_eg, rho_ge, rho_ee, rho_gg)."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (2, 2):
        raise DomainError(f"expected a 2x2 matrix, got shape {rho.shape}")
    return rho.reshape(4)[_HS_INDEX]


def devectorize(psi: np.ndarray) -> np.ndarray:
    """Rebuild the 2x2 density matrix from its flattened form.

    Exact inverse of :func:`vectorize` (components are copied, never
    symmetrised).  A stack of vectors, shape ``(..., 4)``, gives the stack of
    matrices, shape ``(..., 2, 2)``.  The pairing rule checks one vector in
    Python numbers and a stack in numpy.  A vector whose components violate the
    Hermiticity pairing beyond :data:`_PAIRING_RTOL` (relative to that
    vector's largest entry, floored at 1) triggers one non-fatal
    :class:`HermiticityWarning` for the whole stack; a vector with a NaN or
    infinite entry never does.
    """
    psi = np.asarray(psi, dtype=complex)
    if psi.ndim == 0 or psi.shape[-1] != 4:
        raise DomainError(f"expected length-4 vectors, got shape {psi.shape}")
    if psi.ndim == 1:
        eg, ge, ee, gg = psi.tolist()
        # A NaN entry makes the stack's scale NaN, which no defect exceeds.
        scale = math.nan if cmath.isnan(eg + ge + ee + gg) else max(
            1.0, _modulus(eg), _modulus(ge), _modulus(ee), _modulus(gg))
        defect = max(_modulus(eg - ge.conjugate()), abs(ee.imag), abs(gg.imag))
        broken = defect > _PAIRING_RTOL * scale
    else:
        scale = np.maximum(1.0, np.max(np.abs(psi), axis=-1))
        defect = np.maximum.reduce(
            [
                np.abs(psi[..., 0] - np.conj(psi[..., 1])),
                np.abs(psi[..., 2].imag),
                np.abs(psi[..., 3].imag),
            ]
        )
        broken = np.any(defect > _PAIRING_RTOL * scale)
    if broken:
        warnings.warn(
            f"flattened state violates Hermiticity pairing by {np.max(defect):.3e}",
            HermiticityWarning,
            stacklevel=2,
        )
    return psi[..., _HS_COMPONENT].reshape(psi.shape[:-1] + (2, 2))


def _modulus(z: complex) -> float:
    """|z|, or inf where it overflows a double (Python's abs raises there, numpy's does not)."""
    return math.hypot(z.real, z.imag)


def _refuse(bad, error: type, message, batch=None) -> None:
    """Raise ``error`` at the first entry that ``bad`` flags, if any: the one rule that
    names the first bad element of a batch, a stack or a trajectory.

    ``bad`` is an array of flags with at least one axis, or a list of them, whose
    first axis runs over the elements; ``at`` is the index of its first flagged
    entry in row-major order.  The message is ``message(*at)``, led by
    ``batch(at[0])`` for a batch; for one input ``batch`` is None.
    """
    # A list of a few flags is tested by ``in``: np.any would first make it an array.
    if not (True in bad if type(bad) is list else bad.any()):
        return
    at = tuple(int(i) for i in np.unravel_index(np.argmax(bad), np.shape(bad)))
    raise error(("" if batch is None else batch(at[0])) + message(*at))


def initial_state(name: str) -> np.ndarray:
    """One of the built-in preparations: excited, ground, mixed, coherent."""
    if name == "excited":
        return np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    if name == "ground":
        return np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
    if name == "mixed":
        return np.array([[0.5, 0.0], [0.0, 0.5]], dtype=complex)
    if name == "coherent":
        return np.full((2, 2), 0.5, dtype=complex)
    raise DomainError(f"unknown initial state {name!r}; choose from {INITIAL_STATES}")


def max_abs(a: np.ndarray) -> float:
    """Max-norm of an array: the largest entry magnitude."""
    return float(np.max(np.abs(a)))


def hermiticity_defect(rho: np.ndarray) -> float | np.ndarray:
    """Max-norm distance of a matrix from its own adjoint; one per matrix of a stack."""
    rho = np.asarray(rho)
    return np.max(np.abs(rho - np.swapaxes(rho.conj(), -1, -2)), axis=(-2, -1))


def trace_defect(rho: np.ndarray) -> float | np.ndarray:
    """|Tr rho - 1| for a would-be density matrix; one per matrix of a stack."""
    return np.abs(np.trace(np.asarray(rho), axis1=-2, axis2=-1) - 1.0)


def check_density_matrix(rho: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """Raise :class:`DomainError` unless ``rho`` is a physical state within ``tol``.

    Checks Hermiticity (the max-norm of rho - rho^H, as in
    :func:`hermiticity_defect`), unit trace and an eigenvalue floor at
    ``-tol``, in closed form from the four entries: the Hermitian part
    (rho + rho^H) / 2, with a and d on its diagonal and beta off it, has the
    smaller eigenvalue (a + d)/2 - hypot((a - d)/2, |beta|).  Each test is
    written "not within", so a NaN or infinite entry is refused too.
    Returns ``rho`` as the complex array it checked.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (2, 2):
        raise DomainError(f"expected a 2x2 matrix, got shape {rho.shape}")
    (a, b), (c, d) = rho.tolist()
    # rho - rho^H holds 2i Im a and 2i Im d on its diagonal and b - conj(c) off it, twice.
    if not (2.0 * abs(a.imag) <= tol and 2.0 * abs(d.imag) <= tol
            and _modulus(b - c.conjugate()) <= tol):
        raise DomainError("density matrix is not Hermitian within tolerance")
    if not _modulus(a + d - 1.0) <= tol:
        raise DomainError("density matrix does not have unit trace within tolerance")
    # Halved before the sum and the differences, which then cannot overflow.
    a, d = 0.5 * a.real, 0.5 * d.real
    lowest = (a + d) - math.hypot(a - d, 0.5 * b.real + 0.5 * c.real, 0.5 * b.imag - 0.5 * c.imag)
    if not lowest >= -tol:
        raise DomainError(f"density matrix has a negative eigenvalue {lowest:.3e}")
    return rho
