"""An exact reference for the sign of the cubic's discriminant.

Every float is a rational number, and the generator's entries are exact
halves and sums of the parameters, so the characteristic polynomial of
``build_lindblad(params)`` can be formed without rounding: scaled by a power
of two to Gaussian integers, from the traces of its powers through Newton's
identities.  The discriminant of the null-deflated cubic, prod (z_i - z_j)^2,
is then exact.  It equals 108 (p^3 + q^2), so its sign decides SplitPair
against AllImaginary with no tolerance at all.
"""

from fractions import Fraction

import numpy as np
import pytest

from lindblad_ep import ModelParams, Region, build_lindblad, classify, verify
from lindblad_ep.constants import D_TILDE_EP3
from lindblad_ep.spectrum import _cubic


def _mul(a, b):
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def _sum(*terms):
    return sum(t[0] for t in terms), sum(t[1] for t in terms)


def _scale(c, a):
    return c * a[0], c * a[1]


def _divide(a, n):
    assert a[0] % n == 0 and a[1] % n == 0, "a characteristic coefficient is not an integer"
    return a[0] // n, a[1] // n


def exact_discriminant(params: ModelParams) -> Fraction:
    """prod over pairs (z_i - z_j)^2 of the three roots of L's null-deflated cubic, exactly."""
    L = [[(z.real.as_integer_ratio(), z.imag.as_integer_ratio()) for z in row]
         for row in build_lindblad(params).tolist()]
    # Every denominator is a power of two, so the generator times the largest is
    # a matrix of Gaussian integers (pairs of ints).
    scale = max(den for row in L for z in row for _, den in z)
    M = [[tuple(num * (scale // den) for num, den in z) for z in row] for row in L]
    M2 = [[_sum(*(_mul(M[i][k], M[k][j]) for k in range(4))) for j in range(4)] for i in range(4)]
    t1 = _sum(*(M[i][i] for i in range(4)))
    t2 = _sum(*(M2[i][i] for i in range(4)))
    t3 = _sum(*(_mul(M2[i][j], M[j][i]) for i in range(4) for j in range(4)))
    t4 = _sum(*(_mul(M2[i][j], M2[j][i]) for i in range(4) for j in range(4)))
    # Newton's identities: k e_k = sum_{i=1..k} (-1)^(i-1) e_{k-i} t_i.
    e1 = t1
    e2 = _divide(_sum(_mul(e1, t1), _scale(-1, t2)), 2)
    e3 = _divide(_sum(_mul(e2, t1), _scale(-1, _mul(e1, t2)), t3), 3)
    e4 = _divide(_sum(_mul(e3, t1), _scale(-1, _mul(e2, t2)), _mul(e1, t3), _scale(-1, t4)), 4)
    assert e4 == (0, 0), "the generator is not exactly singular"
    # z^3 + b z^2 + c z + d = z^3 - e1 z^2 + e2 z - e3; its discriminant
    # b^2 c^2 - 4 c^3 - 4 b^3 d - 27 d^2 + 18 b c d.
    b, c, d = _scale(-1, e1), e2, _scale(-1, e3)
    bb, cc = _mul(b, b), _mul(c, c)
    disc = _sum(_mul(bb, cc), _scale(-4, _mul(cc, c)), _scale(-4, _mul(_mul(bb, b), d)),
                _scale(-27, _mul(d, d)), _scale(18, _mul(_mul(b, c), d)))
    assert disc[1] == 0, "the discriminant of a mirror-symmetric spectrum is real"
    return Fraction(disc[0], scale**6)


def sign(x) -> int:
    return (x > 0) - (x < 0)


@pytest.mark.parametrize("point", [(1.0, 2.0, 1.0), (1.0, 5.0, 20.0), (0.3, -1.7, 2.9),
                                   (1.0, 4.0, 13.0)])
def test_equals_108_times_the_cubic_discriminant(point):
    params = ModelParams(*point)
    exact = exact_discriminant(params)
    disc = _cubic(*point)[2]
    assert abs(float(exact / Fraction(disc)) - 108.0) < 1e-11
    label = classify(params).region
    assert label is (Region.SPLIT_PAIR if exact > 0 else Region.ALL_IMAGINARY)


def sample_points() -> np.ndarray:
    """2,000 nodes of the default phase-diagram grid and 1,000 seeded bulk points."""
    rng = np.random.default_rng(20)
    d_t, g_t = np.meshgrid(np.linspace(0.0, 6.0, 300), np.linspace(0.0, 16.0, 300), indexing="ij")
    grid = np.stack([np.ones(d_t.size), d_t.ravel(), g_t.ravel()], axis=1)
    bulk = rng.uniform((0.5, -4.0, 0.0), (2.0, 4.0, 10.0), size=(1000, 3))
    bulk[:, 0] *= rng.choice([-1.0, 1.0], size=1000)
    return np.concatenate([grid[rng.choice(len(grid), 2000, replace=False)], bulk])


def test_sign_of_the_core_and_the_labels_is_exact():
    points = sample_points()
    disc = _cubic(*points.T)[2].tolist()
    checked = 0
    for k, point in enumerate(points.tolist()):
        label = classify(ModelParams(*point)).region
        if label not in (Region.SPLIT_PAIR, Region.ALL_IMAGINARY):
            continue  # inside the coalescence band: labelled for being near a curve
        exact = sign(exact_discriminant(ModelParams(*point)))
        assert exact != 0 and sign(_cubic(*point)[2]) == exact, point
        assert sign(disc[k]) == exact, point
        assert label is (Region.SPLIT_PAIR if exact > 0 else Region.ALL_IMAGINARY), point
        checked += 1
    assert checked > 2900


def verify_drives() -> list:
    """The 200 drives of verify's ep2-curve check, float(2 sqrt(2)) first."""
    return np.linspace(D_TILDE_EP3, 10.0, 200).tolist()


def quadratic_points() -> list:
    """verify's 199 drives above the threshold at unit detuning, and 50 seeded
    (delta, d) with delta in {-2, -0.3, 0.7, 3} and d uniform in [-8, 8]."""
    rng = np.random.default_rng(36)
    deltas = rng.choice([-2.0, -0.3, 0.7, 3.0], size=50).tolist()
    drives = verify_drives()[1:]
    return [(1.0, d) for d in drives] + list(zip(deltas, rng.uniform(-8.0, 8.0, 50).tolist()))


def interpolated_quadratic(delta: float, d: float) -> tuple:
    """``(c0, c1, c2)`` of the quadratic in G = gamma^2 through the exact p^3 + q^2 at
    G = 0, 1 and 4, checked to pass through it at G = 9 as well."""
    disc = {g * g: exact_discriminant(ModelParams(delta, d, g)) / 108 for g in (0, 1, 2, 3)}
    c2 = (disc[4] - disc[0] - 4 * (disc[1] - disc[0])) / 12
    c = (disc[0], disc[1] - disc[0] - c2, c2)
    assert disc[9] == c[0] + 9 * c[1] + 81 * c[2], (delta, d)
    return c


def test_exactly_quadratic_in_gamma_squared():
    # With A = delta^2, B = d^2, S = A + B and G = gamma^2, p = (S - G/12) / 3 and
    # q^2 = (G / 36) (A - B/2 + G/36)^2; the G^3 terms of p^3 + q^2 cancel.
    for delta, d in quadratic_points():
        a, b = Fraction(delta) ** 2, Fraction(d) ** 2
        s = a + b
        c0, c1, c2 = s**3 / 27, (2 * a**2 - 5 * a * b - b**2 / 4) / 108, a / 432
        assert interpolated_quadratic(delta, d) == (c0, c1, c2), (delta, d)
        # Its roots in G are the curves: c1^2 - 4 c0 c2 = wing^2 / 46656 in units of
        # delta, with wing = d (d^2 - 8)^(3/2) / 2.
        assert c1**2 - 4 * c0 * c2 == b * (b - 8 * a) ** 3 / 186624, (delta, d)


def test_verify_reference_is_the_generators_quadratic():
    # verify's integer coefficients at B = d^2 = n^2 / den^2, over their power of two
    # den^6, are 432 (c2, c1, c0) of the generator's exact discriminant, at every drive.
    for d in verify_drives():
        n, den = d.as_integer_ratio()
        got = [Fraction(a, den**6) for a in verify._quadratic(n * n, den * den)]
        assert got == [432 * c for c in reversed(interpolated_quadratic(1.0, d))], d
    # At B = 8 the two curves meet, in the double root G = 108.
    assert verify._quadratic(8, 1) == (1, -2 * 108, 108**2)


def test_dyadic_family_couplings_are_exact_roots():
    # At delta = 1, d = (t + 8/t)/2 and m = (t - 8/t)/2 give d^2 - 8 = m^2, so both
    # couplings G = d^4/2 + 10 d^2 - 4 +- d |m|^3 / 2 are rational.  For t = 2^k with k
    # in [-24, 27] the float d is exact: t and 8/t give one drive, 26 drives in all.
    family = {}
    for k in range(-24, 28):
        t = Fraction(2) ** k
        d, m = (t + 8 / t) / 2, abs(t - 8 / t) / 2
        assert Fraction(float(d)) == d and d * d - 8 == m * m, k
        family[d] = [d**4 / 2 + 10 * d**2 - 4 + s * d * m**3 / 2 for s in (1, -1)]
    assert len(family) == 26 and family[3] == [128, 125]
    # Each coupling is a root of the generator's exact discriminant, a quadratic in G.
    for d, couplings in family.items():
        c0, c1, c2 = interpolated_quadratic(1.0, float(d))
        assert [c0 + c1 * g + c2 * g * g for g in couplings] == [0, 0], d
