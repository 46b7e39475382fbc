"""Independent oracles behind the benchmark's reference checks.

Nothing here imports lindblad_ep.  The generator is assembled from the master
equation itself, eigenvalues come from LAPACK through numpy.linalg,
propagators from a Taylor series with scaling and squaring, and the
exceptional-point constants are the paper's closed numbers.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

EPS = float(np.finfo(float).eps)

# The paper's triple point in the scaled plane (d/delta, gamma/delta).
D_TILDE_EP3 = 2.0 * math.sqrt(2.0)
GAMMA_TILDE_EP3 = 6.0 * math.sqrt(3.0)

EP_REGIONS = frozenset(("EP2Minus", "EP2Plus", "EP3"))

# Flattened layout (rho_eg, rho_ge, rho_ee, rho_gg) as (row, column) of rho.
_LAYOUT = ((0, 1), (1, 0), (0, 0), (1, 1))
_LOWER = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)  # |g><e|
_PERMS = np.array(list(itertools.permutations(range(4))))

# One constant for the eigenvalue tolerance everywhere: only the conditioning
# factor in eig_tolerance changes near a coalescence.
C_EIG = 1e4

# Oracle gap (relative to max|L|) below which a point counts as near-degenerate,
# where refusing eigenvectors (NearDegenerateError) is a correct answer.
NEAR_DEGENERATE_GAP = 1e-5

# The package's region labels (exceptional.classify): a point is a coalescence
# when |p^3 + q^2| <= EP_BAND S^3, with S = delta^2 + d^2 + gamma^2, and the
# triple point when also max(|p|, |q|^(2/3)) <= EP3_BAND S.  Here p and q come
# from the LAPACK eigenvalues, so the reference shares none of the package's
# arithmetic; LABEL_MARGIN absorbs rounding at the edges of the bands.
EP_BAND = 1e-10
EP3_BAND = 1e-5
LABEL_MARGIN = 10.0


def master_rhs(delta: float, d: float, gamma: float, rho: np.ndarray) -> np.ndarray:
    """drho/dt = -i[H, rho] + gamma (c rho c+ - {c+ c, rho}/2), rotating frame."""
    h = np.array([[delta, 0.5 * d], [0.5 * d, 0.0]], dtype=complex)
    n = _LOWER.conj().T @ _LOWER
    coherent = -1j * (h @ rho - rho @ h)
    return coherent + gamma * (_LOWER @ rho @ _LOWER.conj().T - 0.5 * (n @ rho + rho @ n))


def generator(delta: float, d: float, gamma: float) -> np.ndarray:
    """The 4x4 L with i dpsi/dt = L psi, built column by column from master_rhs."""
    L = np.empty((4, 4), dtype=complex)
    for j, (a, b) in enumerate(_LAYOUT):
        unit = np.zeros((2, 2), dtype=complex)
        unit[a, b] = 1.0
        out = master_rhs(delta, d, gamma, unit)
        L[:, j] = [1j * out[r, c] for r, c in _LAYOUT]
    return L


def flatten(rho: np.ndarray) -> np.ndarray:
    return np.array([rho[r, c] for r, c in _LAYOUT], dtype=complex)


def unflatten(psi: np.ndarray) -> np.ndarray:
    return np.array([[psi[2], psi[0]], [psi[1], psi[3]]], dtype=complex)


INITIAL_STATES = {
    "excited": np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex),
    "ground": np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex),
    "mixed": np.array([[0.5, 0.0], [0.0, 0.5]], dtype=complex),
    "coherent": np.full((2, 2), 0.5, dtype=complex),
}


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential: degree-18 Taylor series after scaling to 1-norm <= 1/2."""
    norm = float(np.abs(a).sum(axis=0).max())
    squarings = max(0, math.ceil(math.log2(norm / 0.5))) if norm > 0.5 else 0
    b = a / 2.0**squarings
    term = np.eye(a.shape[0], dtype=complex)
    out = term.copy()
    for k in range(1, 19):
        term = term @ b / k
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


def stationary_state(L: np.ndarray) -> np.ndarray:
    """The unit-trace null vector of L as a 2x2 density matrix (via SVD)."""
    null = np.linalg.svd(L)[2][-1].conj()
    return unflatten(null / (null[2] + null[3]))


def bottleneck(a, b) -> float:
    """Smallest achievable largest |a_i - b_pi(i)| over all pairings of four values."""
    cost = np.abs(np.asarray(a, dtype=complex)[:, None] - np.asarray(b, dtype=complex)[None, :])
    return float(cost[np.arange(4), _PERMS].max(axis=1).min())


def gaps(w: np.ndarray, scale: float) -> tuple[float, float]:
    """Smallest pair gap and smallest triple spread among ``w``, relative to ``scale``."""
    n = len(w)
    pair = min(abs(w[i] - w[j]) for i in range(n) for j in range(i + 1, n))
    triple = min(
        max(abs(w[i] - w[j]), abs(w[i] - w[k]), abs(w[j] - w[k]))
        for i, j, k in itertools.combinations(range(n), 3)
    )
    return pair / scale, triple / scale


def eig_tolerance(w: np.ndarray, scale: float) -> float:
    """Absolute eigenvalue tolerance from the conditioning of the spectrum ``w``.

    A well-separated eigenvalue is accurate to a few eps times the scale.  A
    pair at relative gap g loses a factor 1/g, saturating at eps^(1/2) when it
    is defective; a triple of spread g loses 1/g^2, saturating at eps^(1/3).
    """
    pair, triple = gaps(w, scale)
    u = max(
        EPS,
        min(EPS / max(pair, 1e-300), EPS**0.5),
        min(EPS / max(triple, 1e-300) ** 2, EPS ** (1.0 / 3.0)),
    )
    return C_EIG * u * scale


def cubic_invariants(delta: float, d: float, gamma: float) -> tuple[float, float, float]:
    """p, q and p^3 + q^2 of the cubic behind the three decaying modes, from LAPACK.

    The decaying eigenvalues are z = -i(2 gamma/3 + y) with y^3 + 3p y - 2q = 0,
    so p and q are symmetric functions of the y, and the discriminant is
    p^3 + q^2 = prod_{i<j} (z_i - z_j)^2 / 108.
    """
    w = np.linalg.eigvals(generator(delta, d, gamma))
    z = np.delete(w, int(np.argmin(np.abs(w))))
    y = 1j * z - 2.0 * gamma / 3.0
    p = float((y[0] * y[1] + y[0] * y[2] + y[1] * y[2]).real) / 3.0
    q = float((y[0] * y[1] * y[2]).real) / 2.0
    disc = float((((z[0] - z[1]) * (z[0] - z[2]) * (z[1] - z[2])) ** 2).real) / 108.0
    return p, q, disc


def accepted_regions(delta: float, d: float, gamma: float) -> frozenset:
    """Region labels consistent with the LAPACK spectrum at one parameter point.

    Outside the coalescence band the discriminant's sign decides: positive is a
    decaying pair mirrored about the imaginary axis (SplitPair), negative three
    imaginary eigenvalues (AllImaginary).  Inside it the coalescence labels are
    right, and deep inside the triple-point band only EP3 is.  Depends only on
    d/delta and gamma/delta, as the physics does.
    """
    p, q, disc = cubic_invariants(delta, d, gamma)
    energy = delta * delta + d * d + gamma * gamma
    band = EP_BAND * energy**3
    sign = "SplitPair" if disc > 0 else "AllImaginary"
    if abs(disc) > LABEL_MARGIN * band:
        return frozenset((sign,))
    triple = max(abs(p), abs(q) ** (2.0 / 3.0)) / (EP3_BAND * energy)
    if triple <= 1.0 / LABEL_MARGIN and abs(disc) <= band / LABEL_MARGIN:
        return frozenset(("EP3",))
    accepted = {"EP2Minus", "EP2Plus"}
    if abs(disc) > band / LABEL_MARGIN:
        accepted.add(sign)
    if triple <= LABEL_MARGIN:
        accepted.add("EP3")
    return frozenset(accepted)


def ep2_gamma_tilde(d_tilde: float, branch: int) -> float:
    """The paper's coalescence coupling on branch -1 (minus) or +1 (plus)."""
    core = d_tilde**4 / 2.0 + 10.0 * d_tilde**2 - 4.0
    wing = 0.5 * d_tilde * max(d_tilde**2 - 8.0, 0.0) ** 1.5
    return math.sqrt(core + branch * wing)


def coalesced_pair(delta: float, d: float, gamma: float) -> tuple[float, complex]:
    """Relative gap of the closest decaying pair and that pair's mean."""
    L = generator(delta, d, gamma)
    scale = float(np.max(np.abs(L)))
    w = np.linalg.eigvals(L)
    decaying = np.delete(w, int(np.argmin(np.abs(w))))
    i, j = min(itertools.combinations(range(3), 2),
               key=lambda ij: abs(decaying[ij[0]] - decaying[ij[1]]))
    return abs(decaying[i] - decaying[j]) / scale, 0.5 * (decaying[i] + decaying[j])
