import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lindblad_ep import (
    DegenerateFitError,
    DomainError,
    ModelParams,
    Region,
    build_lindblad,
    classify,
    classify_grid,
    discriminant,
    ep2_eigenvalue,
    ep2_gamma,
    ep3_point,
    eigenvalues_closed_form,
    eigenvalues_numeric,
    splitting_exponent,
)
from lindblad_ep import exceptional, spectrum, verify
from lindblad_ep.constants import D_TILDE_EP3, GAMMA_TILDE_EP3, Z_EP3
from lindblad_ep.exceptional import (
    EP3_BAND,
    _EP_REGIONS,
    _REGIONS,
    _classify,
    _classify_codes,
    _region_codes,
    _scaled_disc,
)
from lindblad_ep.spectrum import _char_cubic_coeffs, _cubic
from lindblad_ep.verify import check_phase_diagram

D_EP3 = 2.0 * math.sqrt(2.0)
G_EP3 = 6.0 * math.sqrt(3.0)


class TestDiscriminant:
    def test_direct_evaluation(self):
        assert abs(discriminant(ModelParams(1.0, 1.0, 0.0)) - 8.0 / 27.0) < 1e-15

    def test_vanishes_at_triple_point(self):
        assert abs(discriminant(ModelParams(1.0, D_EP3, G_EP3))) < 1e-12

    def test_sign_change_across_curve(self):
        gm, gp = ep2_gamma(3.0)
        inside = discriminant(ModelParams(1.0, 3.0, 0.5 * (gm + gp)))
        below = discriminant(ModelParams(1.0, 3.0, gm - 0.5))
        above = discriminant(ModelParams(1.0, 3.0, gp + 0.5))
        assert inside < 0.0 < below and above > 0.0


class TestEP2Gamma:
    def test_branches_merge_at_threshold(self):
        gm, gp = ep2_gamma(D_EP3)
        assert abs(gm - G_EP3) < 1e-12
        assert abs(gp - G_EP3) < 1e-12

    def test_closed_form_values_at_three(self):
        gm, gp = ep2_gamma(3.0)
        assert abs(gm - math.sqrt(125.0)) < 1e-12
        assert abs(gp - math.sqrt(128.0)) < 1e-12

    def test_below_threshold_rejected(self):
        with pytest.raises(DomainError):
            ep2_gamma(2.5)

    def test_infinite_drive_rejected(self):
        finite = r"d_tilde must be finite, got inf$"
        for curve in (ep2_gamma, lambda d: ep2_eigenvalue(d, "plus")):
            with pytest.raises(DomainError, match="^" + finite):
                curve(math.inf)
        with pytest.raises(DomainError, match="^element 1 of the batch: " + finite):
            ep2_gamma([3.0, math.inf])

    def test_plugback_residuals(self):
        for d_t in np.linspace(D_EP3, 10.0, 25):
            gm, gp = ep2_gamma(d_t)
            for g in (gm, gp):
                assert abs(_scaled_disc(1.0, float(d_t), g)) < 1e-10

    def test_branches_strictly_separate_above_threshold(self):
        gaps = [ep2_gamma(d)[1] - ep2_gamma(d)[0] for d in np.linspace(2.9, 10.0, 30)]
        assert all(g > 0.0 for g in gaps)
        assert all(b > a for a, b in zip(gaps, gaps[1:]))


class TestEP2Eigenvalue:
    def test_merge_point_recovers_triple_value(self):
        for branch in ("minus", "plus"):
            z = ep2_eigenvalue(D_EP3, branch)
            assert abs(z - (-4j * math.sqrt(3.0))) < 1e-7

    def test_plus_branch_at_three(self):
        z = ep2_eigenvalue(3.0, "plus")
        assert abs(z - (-5j * math.sqrt(2.0))) < 1e-12

    def test_pure_imaginary(self):
        for d_t in (2.9, 4.0, 7.5):
            for branch in ("minus", "plus"):
                assert ep2_eigenvalue(d_t, branch).real == 0.0

    @pytest.mark.parametrize("d_tilde", [2.9, 3.0, 4.0, 5.0, 8.0])
    @pytest.mark.parametrize("branch", ["minus", "plus"])
    def test_double_root_property(self, d_tilde, branch):
        gm, gp = ep2_gamma(d_tilde)
        g = gm if branch == "minus" else gp
        z = ep2_eigenvalue(d_tilde, branch)
        L = build_lindblad(ModelParams(1.0, d_tilde, g))
        coeffs = _char_cubic_coeffs(L)
        scale = max(1.0, np.max(np.abs(L)))
        assert abs(np.polyval(coeffs, z)) < 1e-8 * scale**3
        assert abs(np.polyval(np.polyder(coeffs), z)) < 1e-8 * scale**2

    @pytest.mark.parametrize("branch", ["minus", "plus"])
    def test_matches_coalesced_pair(self, branch):
        gm, gp = ep2_gamma(3.0)
        g = gm if branch == "minus" else gp
        z = ep2_eigenvalue(3.0, branch)
        zs = eigenvalues_closed_form(ModelParams(1.0, 3.0, g)).eigenvalues[1:]
        pairs = [
            (abs(zs[i] - zs[j]), 0.5 * (zs[i] + zs[j]))
            for i in range(3)
            for j in range(i + 1, 3)
        ]
        gap, mean = min(pairs, key=lambda t: t[0])
        assert gap < 1e-6
        assert abs(z - mean) < 1e-8

    def test_invalid_branch_rejected(self):
        with pytest.raises(DomainError):
            ep2_eigenvalue(3.0, "sideways")

    @pytest.mark.parametrize("drive", [3, 3.0, np.float64(3.0), np.float32(3.0), np.array(3.0)])
    def test_curve_point_takes_any_one_number(self, drive):
        gammas, z = ep2_gamma(drive), ep2_eigenvalue(drive, "plus")
        assert gammas == ep2_gamma(3.0) and [type(g) for g in gammas] == [float, float]
        assert z == ep2_eigenvalue(3.0, "plus") and type(z) is complex


def bits(x) -> np.ndarray:
    """The bit patterns of a float or complex array, so that signed zeros count too."""
    x = np.asarray(x)
    return np.ascontiguousarray(x, dtype=complex if np.iscomplexobj(x) else float).view(np.uint64)


def one_drive_radicands(d_t: float, branch: str) -> tuple[float, float]:
    """gamma^2 and the inner radicand on one branch, in Python floats, as the curve
    formulas read when they took one drive at a time."""
    core = d_t**4 / 2.0 + 10.0 * d_t**2 - 4.0
    wing = 0.5 * d_t * max(d_t**2 - 8.0, 0.0) ** 1.5
    sign = -1.0 if branch == "minus" else 1.0
    inner = d_t**4 / 2.0 - 2.0 * d_t**2 - 16.0 + sign * 0.5 * d_t * max(d_t**2 - 8.0, 0.0) ** 1.5
    return (core - wing if branch == "minus" else core + wing), inner


def one_drive_at_a_time(d_t: float, branch: str) -> tuple[float, complex]:
    """Coupling and eigenvalue on one branch from :func:`one_drive_radicands`."""
    gamma2, inner = one_drive_radicands(d_t, branch)
    gamma_t = math.sqrt(gamma2)
    sign = -1.0 if branch == "minus" else 1.0
    return gamma_t, (-2j / 3.0) * (gamma_t - sign * 0.25 * math.sqrt(max(inner, 0.0)))


def curve_drives() -> np.ndarray:
    """The merge point, the 200 drives of the default ep-curve and 20,000 seeded draws."""
    draws = np.random.default_rng(9).uniform(D_EP3, 50.0, 20_000)
    return np.concatenate([[D_EP3], np.linspace(D_EP3, 10.0, 200), draws])


class TestCurveArrays:
    """Each array element equals the call on its drive alone, bit for bit."""

    def test_equal_to_one_drive_at_a_time(self):
        drives = curve_drives()
        gammas = np.stack(ep2_gamma(drives), axis=1)
        for k, branch in enumerate(("minus", "plus")):
            z = ep2_eigenvalue(drives, branch)
            want = [one_drive_at_a_time(d_t, branch) for d_t in drives.tolist()]
            assert np.array_equal(bits(gammas[:, k]), bits([w[0] for w in want]))
            assert np.array_equal(bits(z), bits([w[1] for w in want]))

    def test_numbers_equal_array_elements(self):
        drives = curve_drives()[:201]
        gm, gp = ep2_gamma(drives)
        z = {branch: ep2_eigenvalue(drives, branch) for branch in ("minus", "plus")}
        for k, d_t in enumerate(drives.tolist()):
            one = ep2_gamma(d_t)
            assert type(one[0]) is float and np.array_equal(bits(one), bits([gm[k], gp[k]]))
            for branch, zs in z.items():
                got = ep2_eigenvalue(d_t, branch)
                assert type(got) is complex and np.array_equal(bits(got), bits(zs[k]))

    def test_scaled_discriminant_on_the_curves(self):
        drives = curve_drives()
        d_t = np.repeat(drives, 2)
        g_t = np.stack(ep2_gamma(drives), axis=1).ravel()
        got = _scaled_disc(1.0, d_t, g_t)
        want = [discriminant(ModelParams(1.0, d, g)) / max(1.0, (1.0 + d**2 + g**2) ** 3)
                for d, g in zip(d_t.tolist(), g_t.tolist())]
        assert np.array_equal(bits(got), bits(want))
        one = _scaled_disc(1.0, float(d_t[7]), float(g_t[7]))
        assert type(one) is float and np.array_equal(bits(one), bits(want[7]))

    @pytest.mark.parametrize("delta", [1.0, 3.0, -2.0])
    def test_coalescence_region_on_band_points(self, delta, request):
        d_grid, g_grid = coalescence_grid()
        # Just below the drive threshold the band is entered near the triple point only.
        near = D_EP3 - np.array([1e-6, 1e-4, 2e-3])
        d_grid = np.concatenate([d_grid, near, -near])
        g_grid = np.concatenate([g_grid, G_EP3 + np.linspace(-3e-2, 3e-2, 13)])
        if delta < 0:
            g_grid = -g_grid
        # The band is decided by p, q and the scale alone: the curve layer is never called.
        request.getfixturevalue("no_curve_layer")
        d, gamma = d_grid * delta, g_grid * delta
        _, _, disc, energy, *_ = _cubic(delta, d[:, None], gamma[None, :])
        scale2 = np.maximum(1.0, energy)
        i, j = np.nonzero(np.abs(disc) <= 1e-10 * scale2**3)
        codes = _classify(delta, d[:, None], gamma[None, :])[1][i, j]
        assert codes.dtype == np.int8
        labels = _REGIONS[codes]
        below = set(labels[np.abs(d[i] / delta) < D_EP3])
        assert {Region.EP2_MINUS, Region.EP2_PLUS} <= below and Region.EP3 in set(labels)
        for k, point in enumerate(zip(d[i].tolist(), gamma[j].tolist())):
            assert _REGIONS[_classify(delta, *point)[1]] is labels[k], point
        region = classify_grid(delta, d_grid, g_grid)[1]
        assert (region[i, j] == labels).all()

    def test_refusal_names_the_element(self):
        with pytest.raises(DomainError, match=r"^element 1 of the batch: no real coalescence "
                                              r"curves below d_tilde = 2\*sqrt\(2\); got 2\.8$"):
            ep2_gamma([3.0, 2.8])
        with pytest.raises(DomainError, match=r"^no real coalescence curves .*; got 2\.8$"):
            ep2_gamma(2.8)
        with pytest.raises(DomainError, match=r"^element 2 of the batch: no real"):
            ep2_eigenvalue(np.array([3.0, 4.0, np.nan]), "plus")
        with pytest.raises(DomainError, match="1-D"):
            ep2_gamma([[3.0]])

    @pytest.mark.parametrize("drive", [2.5, np.nan, [[3.0]], [3.0, 1.0]])
    def test_bad_branch_refused_before_any_arithmetic(self, drive):
        with pytest.raises(DomainError, match=r"^branch must be 'minus' or 'plus', got 'up'$"):
            ep2_eigenvalue(drive, "up")

    def test_cancelling_minus_branch_refused(self):
        # Far above the threshold d^4 / 2 + 10 d^2 - 4 - wing rounds below zero.
        with pytest.raises(DomainError, match=r"^element 1 of the batch: gamma_minus\^2 cancels"):
            ep2_gamma([3.0, 1e20])
        cancelled = r"^gamma_minus\^2 cancels below zero at d_tilde = 1e\+20$"
        with pytest.raises(DomainError, match=cancelled):
            ep2_eigenvalue(1e20, "minus")

    # Exactly, inner_minus * inner_plus = 4 (d^2 - 8)^2 (d^2 + 1) with inner_plus >= 0, so
    # _curve clamps the inner radicands to 0 and refuses none: its floats are these
    # formulas', bit for bit (test_equal_to_one_drive_at_a_time), and they miss zero by a
    # few ulps of d^4 / 2 at most.
    def test_inner_radicands_miss_zero_by_roundoff_only(self):
        drives = np.geomspace(D_EP3, 1e76, 20_000)
        at_threshold = [D_EP3]
        for _ in range(4):
            at_threshold.append(math.nextafter(at_threshold[-1], math.inf))
        for d_t in at_threshold + drives.tolist():
            floor = -4.0 * 2.0**-52 * max(1.0, d_t**4)
            for branch in ("minus", "plus"):
                assert one_drive_radicands(d_t, branch)[1] >= floor, (d_t, branch)

    def test_empty_drives(self):
        gm, gp = ep2_gamma(np.array([]))
        assert gm.shape == gp.shape == ep2_eigenvalue([], "plus").shape == (0,)


class TestEP3Point:
    def test_constants(self):
        d_t, g_t, z = ep3_point()
        assert d_t == D_EP3
        assert g_t == G_EP3
        assert z == -4j * math.sqrt(3.0)

    # Each constant is the double nearest its square root: no tolerance.
    @pytest.mark.parametrize("x, n", [(D_TILDE_EP3, 8), (GAMMA_TILDE_EP3, 108), (-Z_EP3.imag, 48)])
    def test_constants_are_the_nearest_doubles(self, x, n):
        def miss(y):
            return abs(Fraction(y) ** 2 - n)

        assert miss(x) < miss(math.nextafter(x, 0.0))
        assert miss(x) < miss(math.nextafter(x, math.inf))

    def test_triple_eigenvalue_is_pure_imaginary(self):
        assert Z_EP3.real == 0.0

    def test_discriminant_vanishes_there(self):
        d_t, g_t, _ = ep3_point()
        assert abs(discriminant(ModelParams(1.0, d_t, g_t))) < 1e-12

    def test_radicals_vanish_there(self):
        # p and q are eps-level noise at the exact floats, so the radicals sit
        # at the cube root of that noise rather than at zero
        d_t, g_t, _ = ep3_point()
        p, q, _, _, u, v, *_ = _cubic(1.0, d_t, g_t)
        assert abs(p) < 1e-13 and abs(q) < 1e-13
        assert abs(u) < 1e-4 and abs(v) < 1e-4

    def test_numeric_oracle_sees_the_triple(self):
        d_t, g_t, z = ep3_point()
        zs = eigenvalues_numeric(build_lindblad(ModelParams(1.0, d_t, g_t)))
        for value in zs[1:]:
            assert abs(value - z) < 1e-10


class TestClassify:
    def test_generic_split_pair(self):
        assert classify(ModelParams(1.0, 1.0, 1.0)).region is Region.SPLIT_PAIR

    def test_membership_follows_curve_band(self):
        # all-imaginary exactly when the coupling falls between the branches
        gm, gp = ep2_gamma(4.0)
        point = classify(ModelParams(1.0, 4.0, 12.0))
        expected = Region.ALL_IMAGINARY if gm < 12.0 < gp else Region.SPLIT_PAIR
        assert point.region is expected
        assert classify(ModelParams(1.0, 4.0, 0.5 * (gm + gp))).region is Region.ALL_IMAGINARY

    def test_triple_point_label(self):
        assert classify(ModelParams(1.0, D_EP3, G_EP3)).region is Region.EP3

    def test_rounded_triple_point_label(self):
        assert classify(ModelParams(1.0, 2.828427, 10.392305)).region is Region.EP3

    def test_curve_points_get_branch_labels(self):
        gm, gp = ep2_gamma(3.0)
        assert classify(ModelParams(1.0, 3.0, gm)).region is Region.EP2_MINUS
        assert classify(ModelParams(1.0, 3.0, gp)).region is Region.EP2_PLUS

    def test_zero_detuning_rejected(self):
        with pytest.raises(DomainError):
            classify(ModelParams(0.0, 1.0, 1.0))

    # As delta -> 0 the minus branch tends to gamma = 4 d, where the pair at -3i d
    # coalesces below the third root, -2i d (q < 0).  d/delta overflows to infinity, or
    # Python's d_tilde**4 would, yet no quotient is formed: sign(q) names the branch.
    @pytest.mark.parametrize("delta", [5e-324, 1e-300])
    def test_vanishing_detuning_in_the_band_is_minus_branch(self, delta):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert classify(ModelParams(delta, 1.0, 4.0)).region is Region.EP2_MINUS

    def test_vanishing_detuning_in_the_band_is_minus_branch_on_arrays(self):
        # classify_grid forms d = d_tilde * delta, so _classify itself takes the quotient-free
        # band at delta = 5e-324, on arrays, as its blocks do.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            codes = _classify(5e-324, np.array([[0.5], [1.0]]), np.array([[0.0, 4.0]]))[1]
            region = classify_grid(1e-300, [1e300], [4e300])[1]
        assert _REGIONS[codes[1, 1]] is region[0, 0] is Region.EP2_MINUS

    @settings(max_examples=40, deadline=None)
    @given(
        st.floats(min_value=0.05, max_value=3.0),
        st.floats(min_value=0.0, max_value=6.0),
        st.floats(min_value=0.0, max_value=14.0),
    )
    def test_scale_invariance(self, s, d_t, g_t):
        base = classify(ModelParams(1.0, d_t, g_t))
        scaled = classify(ModelParams(s, s * d_t, s * g_t))
        assert scaled.region is base.region
        assert abs(scaled.d_tilde - d_t) < 1e-9 * max(1.0, d_t)
        assert abs(scaled.gamma_tilde - g_t) < 1e-9 * max(1.0, g_t)

    def test_labels_consistent_with_eigenvalue_structure(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            params = ModelParams(1.0, rng.uniform(0, 6), rng.uniform(0, 16))
            point = classify(params)
            zs = eigenvalues_closed_form(params).eigenvalues
            if point.region is Region.ALL_IMAGINARY:
                assert max(abs(z.real) for z in zs[1:]) < 1e-8
            elif point.region is Region.SPLIT_PAIR:
                reals = sorted(zs[1:], key=lambda z: abs(z.real))
                assert abs(reals[0].real) < 1e-8
                assert abs(reals[1] + np.conj(reals[2])) < 1e-8


def assert_grid_is_scalar(delta, d_grid, g_grid) -> set:
    """classify_grid equals scalar classify bit for bit at every node; returns the labels."""
    disc, region, ordering = classify_grid(delta, d_grid, g_grid)
    assert disc.shape == region.shape == ordering.shape == (len(d_grid), len(g_grid))
    labels = set()
    for i, d_t in enumerate(d_grid):
        for j, g_t in enumerate(g_grid):
            point = classify(ModelParams(delta, d_t * delta, g_t * delta))
            node = (delta, d_t, g_t)
            assert disc[i, j] == point.disc, node
            assert region[i, j] is point.region, node
            assert ordering[i, j] == point.ordering, node
            labels.add(point.region)
    return labels


@pytest.fixture
def no_curve_layer(monkeypatch):
    """The curve layer, patched to raise: the classifier must not call it."""
    def called(*args):
        raise AssertionError("the classifier called the curve layer")

    for name in ("ep2_gamma", "_curve"):
        monkeypatch.setattr(exceptional, name, called)


def coalescence_grid():
    """Drives at and above the threshold (both signs) and the couplings of both
    curves there, so that every region label occurs on the outer grid.  At
    delta = 1 the node (3, sqrt(120)) has p == 0 with q < 0, where u vanishes."""
    drives = [D_EP3 + x for x in (0.0, 1e-9, 1e-3, 0.5, 1.0, 2.0, 5.0)] + [3.0]
    couplings = [G_EP3, 0.0, 1.0, 20.0, math.sqrt(120.0)]
    for d_t in drives:
        couplings += list(ep2_gamma(d_t))
    drives += [-d_t for d_t in drives] + [0.0, 1.0]
    return np.array(drives), np.array(sorted(couplings))


class TestClassifyGrid:
    def test_default_grid_equals_scalar(self):
        labels = assert_grid_is_scalar(1.0, np.linspace(0.0, 6.0, 300), np.linspace(0.0, 16.0, 300))
        assert Region.ALL_IMAGINARY in labels and Region.SPLIT_PAIR in labels

    def test_default_grid_band_nodes_without_the_curve_layer(self, no_curve_layer):
        region = classify_grid(1.0, np.linspace(0.0, 6.0, 300), np.linspace(0.0, 16.0, 300))[1]
        band = [(i, j, region[i, j]) for i, j in zip(*np.nonzero(np.isin(region, _EP_REGIONS)))]
        minus, plus = Region.EP2_MINUS, Region.EP2_PLUS
        assert band == [(142, 196, minus), (143, 198, plus), (144, 200, plus), (146, 203, minus),
                        (158, 223, minus), (171, 244, minus), (174, 269, plus)]

    @pytest.mark.parametrize("delta", [2.5, 7.0, 1e-3])
    def test_scaled_grids_equal_scalar(self, delta):
        # at delta = 1e-3 the max(1, .) floors bind and most nodes fall in the band
        assert_grid_is_scalar(delta, np.linspace(0.0, 6.0, 61), np.linspace(0.0, 16.0, 61))

    @pytest.mark.parametrize("delta", [1.0, 3.0, -2.0])
    def test_coalescence_grid_equals_scalar(self, delta):
        d_grid, g_grid = coalescence_grid()
        if delta < 0:
            g_grid = -g_grid  # gamma = g_t * delta stays nonnegative
        assert assert_grid_is_scalar(delta, d_grid, g_grid) == set(Region)

    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from(["minus", "plus", "ep3"]),
        st.floats(min_value=D_EP3, max_value=12.0),
        st.floats(min_value=-16.0, max_value=-9.0),
        st.floats(min_value=0.0, max_value=2.0 * math.pi),
        st.floats(min_value=-3.0, max_value=3.0),
        st.sampled_from([-1.0, 1.0]),
        st.sampled_from([-1.0, 1.0]),
    )
    def test_band_point_equals_grid(self, near, drive, log_offset, angle, log_delta,
                                    delta_sign, drive_sign):
        # Points a relative 1e-16 to 1e-9 off either curve or off the triple point, where
        # classify takes the band path at one point and classify_grid takes it on arrays.
        offset = 10.0**log_offset
        if near == "ep3":
            d_t = D_EP3 * (1.0 + offset * math.cos(angle))
            g_t = G_EP3 * (1.0 + offset * math.sin(angle))
        else:
            d_t = drive
            g_t = ep2_gamma(drive)[near == "plus"] * (1.0 + offset * math.cos(angle))
        d_t *= drive_sign
        delta = delta_sign * 10.0**log_delta
        if delta < 0:
            g_t = -g_t  # gamma = g_t * delta stays nonnegative
        point = classify(ModelParams(delta, d_t * delta, g_t * delta))
        disc, region, ordering = classify_grid(delta, [d_t], [g_t])
        assert bits(point.disc) == bits(disc[0, 0])
        assert point.region is region[0, 0]
        assert point.ordering == ordering[0, 0]
        # cmd_spectrum serialises both with json.dumps, which refuses numpy scalars.
        assert type(point.disc) is float and type(point.ordering) is int

    def test_cubic_equals_scalar(self):
        d_grid, g_grid = coalescence_grid()
        p, q, disc, _, _, _, z1, z2, z3 = _cubic(1.0, d_grid[:, None], g_grid[None, :])
        zero_radical = False
        for i, d in enumerate(d_grid.tolist()):
            for j, g in enumerate(g_grid.tolist()):
                at_point = _cubic(1.0, d, g)
                zs = eigenvalues_closed_form(ModelParams(1.0, d, g)).eigenvalues
                zero_radical |= at_point[2] >= 0 and at_point[4] == 0
                got = (p[i, j], q[i, j], disc[i, j], z1[i, j], z2[i, j], z3[i, j])
                want = (*at_point[:3], *zs[1:])
                # bit for bit, so that the signs of zeros count too
                assert np.array_equal(np.array(got, dtype=complex).view(np.uint64),
                                      np.array(want, dtype=complex).view(np.uint64)), (d, g)
        # Both radical branches and the floor on a zero real radical are crossed.
        assert (disc < 0).any() and zero_radical

    def test_bad_grids_rejected(self):
        grid = np.linspace(0.0, 1.0, 3)
        with pytest.raises(DomainError):
            classify_grid(0.0, grid, grid)
        with pytest.raises(DomainError):
            classify_grid(1.0, grid, -grid)
        with pytest.raises(DomainError):
            classify_grid(1.0, np.array([0.0, np.inf]), grid)
        with pytest.raises(DomainError):
            classify_grid(1.0, np.zeros((2, 2)), grid)

    @pytest.mark.parametrize("delta", [np.inf, 1e300])
    def test_non_finite_scaled_grid_rejected_without_warnings(self, delta):
        grid = np.linspace(0.0, 1e10, 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="finite"):
                classify_grid(delta, grid, grid)


def assert_grid_is_scalar_bitwise(delta, d_grid, g_grid) -> np.ndarray:
    """classify_grid equals classify at every node, disc and signed zeros bit for bit, with
    today's dtypes; returns the labels."""
    disc, region, ordering = classify_grid(delta, d_grid, g_grid)
    assert (disc.dtype, region.dtype, ordering.dtype) == (np.float64, object, np.int64)
    points = [[classify(ModelParams(delta, d_t * delta, g_t * delta)) for g_t in g_grid.tolist()]
              for d_t in d_grid.tolist()]
    assert np.array_equal(bits(disc), bits([[p.disc for p in row] for row in points]))
    assert region.tolist() == [[p.region for p in row] for row in points]
    assert ordering.tolist() == [[p.ordering for p in row] for row in points]
    return region


def band_grid():
    """Drives around the threshold and above it (both signs), with couplings a relative
    3e-9 or less off both curves, and couplings around the triple point."""
    drives = np.concatenate([D_EP3 + np.linspace(-0.03, 0.1, 27), np.linspace(2.9, 9.0, 25)])
    couplings = [G_EP3 + np.linspace(-0.3, 0.3, 61)]
    for d_t in drives[drives >= D_EP3]:
        couplings.append(np.multiply.outer(ep2_gamma(d_t), 1.0 + np.linspace(-3e-9, 3e-9, 9)))
    return np.concatenate([drives, -drives]), np.unique(np.concatenate(couplings, axis=None))


class TestBranchOracle:
    """Inside the band, off the triple point, the EP2 label against LAPACK alone: EP2Plus
    exactly where the closest pair of the three decaying eigenvalues has a mean imaginary
    part above the third one's, the pair that decays slower."""

    @pytest.mark.parametrize("delta", [1.0, 3.0, -2.0])
    def test_plus_branch_is_the_slower_closest_pair(self, delta):
        d_grid, g_grid = band_grid()
        if delta < 0:
            g_grid = -g_grid
        region = classify_grid(delta, d_grid, g_grid)[1]
        i, j = np.nonzero((region == Region.EP2_MINUS) | (region == Region.EP2_PLUS))
        zs = np.linalg.eigvals(np.stack([
            build_lindblad(ModelParams(delta, d_grid[a] * delta, g_grid[b] * delta))
            for a, b in zip(i.tolist(), j.tolist())
        ]))
        # The three decaying eigenvalues: all but the null one, whose imaginary part is 0.
        zs = np.take_along_axis(zs, np.argsort(zs.imag, axis=1)[:, :3], axis=1)
        pairs = np.array([(0, 1), (0, 2), (1, 2)])
        gaps = np.abs(zs[:, pairs[:, 0]] - zs[:, pairs[:, 1]])
        order = np.argsort(gaps, axis=1)
        gap = np.take_along_axis(gaps, order, axis=1)
        # Decided where the closest pair is closer than the next by 1e-6 of the scale.
        decided = gap[:, 1] - gap[:, 0] >= 1e-6 * np.abs(zs).max(axis=1)
        rows = np.arange(len(zs))
        a, b = pairs[order[:, 0]].T
        mean = 0.5 * (zs[rows, a].imag + zs[rows, b].imag)
        slower = mean > zs[rows, 3 - a - b].imag
        plus = region[i, j] == Region.EP2_PLUS
        assert decided.sum() > 1500 and set(plus[decided]) == {False, True}
        wrong = np.nonzero(decided & (plus != slower))[0]
        assert not wrong.size, [(d_grid[i[k]], g_grid[j[k]], region[i[k], j[k]]) for k in wrong[:5]]


def triple_margins(delta, d, gamma) -> tuple:
    """The exact margins of both halves of the triple-point test at one point, each
    relative to its bound: ``|p| <= B s2`` and ``q^2 <= B^3 s2^3``, in Fractions of the
    float p, q and scale2 = max(1, energy), with B = EP3_BAND.  Both are >= 0 exactly
    where the label must be EP3."""
    p, q, _, energy, *_ = _cubic(delta, d, gamma)
    band, scale2 = Fraction(EP3_BAND), Fraction(max(1.0, energy))
    bound_p, bound_q = band * scale2, band**3 * scale2**3
    return (bound_p - abs(Fraction(p))) / bound_p, (bound_q - Fraction(q) ** 2) / bound_q


def is_triple(delta, d_t, g_t) -> bool:
    return min(triple_margins(delta, d_t * delta, g_t * delta)) >= 0


class TestTripleBand:
    """The boundary of the triple-point test, along both curves just past the threshold,
    against the test evaluated exactly.  On a curve |p| = |q|^(2/3), so both halves of
    the test flip together there."""

    @pytest.mark.parametrize("delta", [1.0, 3.0, -2.0])
    @pytest.mark.parametrize("branch", [0, 1])
    def test_label_is_the_exact_triple_test(self, delta, branch, record_property):
        sign = math.copysign(1.0, delta)

        def coupling(d_t):
            return sign * ep2_gamma(d_t)[branch]

        drives = (D_EP3 + np.geomspace(1e-6, 0.1, 60)).tolist()
        flags = [is_triple(delta, d_t, coupling(d_t)) for d_t in drives]
        assert flags[0] and not flags[-1]
        # Bisect the flip on the exact test, so that the path ends a few ulps from it.
        k = flags.index(False)
        lo, hi = drives[k - 1], drives[k]
        while lo < (mid := 0.5 * (lo + hi)) < hi:
            drives.append(mid)
            lo, hi = (mid, hi) if is_triple(delta, mid, coupling(mid)) else (lo, mid)
        d_grid = np.array(drives)
        g_grid = np.array([coupling(d_t) for d_t in drives])
        grid = classify_grid(delta, d_grid, g_grid)[1].diagonal()
        ep2 = (Region.EP2_MINUS, Region.EP2_PLUS)[branch]
        skipped, labels = 0, set()
        for n, (d_t, g_t) in enumerate(zip(drives, g_grid.tolist())):
            region = classify(ModelParams(delta, d_t * delta, g_t * delta)).region
            assert grid[n] is region, (d_t, g_t)
            margins = triple_margins(delta, d_t * delta, g_t * delta)
            if min(abs(m) for m in margins) <= Fraction(1e-12):
                skipped += 1
                continue
            assert region is (Region.EP3 if min(margins) >= 0 else ep2), (d_t, g_t, margins)
            labels.add(region)
        record_property("skipped", skipped)
        assert labels == {Region.EP3, ep2}
        assert skipped < 20, f"{skipped} of {len(drives)} points within 1e-12 of the test"


def plus_branch_family() -> list:
    """Drives with rational couplings, at delta = 1: d = (t + 8/t)/2 and m = (t - 8/t)/2
    have d^2 - 8 = m^2, so that G+ = d^4/2 + 10 d^2 - 4 + d|m|^3/2 is rational.  For
    t = 2^k, k in [-24, 27], d is an exact double: 26 drives, as k and 3 - k give the
    same one.  Returns the pairs (d, G+) as Fractions."""
    family = {}
    for k in range(-24, 28):
        t = Fraction(2) ** k
        d, m = (t + 8 / t) / 2, (t - 8 / t) / 2
        assert Fraction(float(d)) == d
        family[d] = d**4 / 2 + 10 * d**2 - 4 + d * abs(m) ** 3 / 2
    return sorted(family.items())


class TestPlusBranchPins:
    """The plus branch of ep2_gamma on the dyadic family, with no float tolerance.  The
    minus branch gets no pins: its formula cancels, and it misses the nearest double by
    8 ulp at d = 256 and by more above it."""

    def test_plus_coupling_is_the_nearest_double(self):
        family = plus_branch_family()
        assert len(family) == 26
        misses = []
        for d, g_plus in family:
            x = ep2_gamma(float(d))[1]
            lo, hi = (Fraction(math.nextafter(x, bound)) for bound in (0.0, math.inf))
            if not ((Fraction(x) + lo) / 2) ** 2 <= g_plus <= ((Fraction(x) + hi) / 2) ** 2:
                misses.append(float(d))
        assert not misses

    def test_array_call_equals_one_drive_calls(self):
        drives = np.array([float(d) for d, _ in plus_branch_family()])
        one_by_one = [ep2_gamma(d_t)[1] for d_t in drives.tolist()]
        assert np.array_equal(bits(ep2_gamma(drives)[1]), bits(one_by_one))

    def test_plus_coupling_labelled_plus(self):
        for d, _ in plus_branch_family():
            x = ep2_gamma(float(d))[1]
            assert classify(ModelParams(1.0, float(d), x)).region is Region.EP2_PLUS, float(d)


class TestGridBlocks:
    """The grid is classified in blocks of whole d-rows (spectrum._in_blocks), or of one long
    row's columns; each block is elementwise, so the seams change no bit."""

    def test_rows_over_three_blocks_equal_scalar(self, monkeypatch):
        # 64 // 9 = 7 rows a block: 9 columns do not divide the block, and the 17 rows make
        # three blocks, the last one short.
        monkeypatch.setattr(spectrum, "_BLOCK", 64)
        gm3, gp3 = ep2_gamma(3.0)
        mid5, mid45 = (0.5 * sum(ep2_gamma(d_t)) for d_t in (5.0, 4.5))
        g_grid = np.array([0.0, 1.0, gm3, gp3, G_EP3, mid5, mid45, 40.0, 100.0])
        d_grid = np.array([0.0, 0.5, 1.0, 5.0, -5.0, 4.5, 2.0,
                           3.0, -3.0, D_EP3, 1.5, 0.25, -1.0, 2.5,
                           0.75, -0.5, -2.0])
        region = assert_grid_is_scalar_bitwise(1.0, d_grid, g_grid)
        block_of_row = np.arange(len(d_grid)) // 7
        band = set(block_of_row[np.isin(region, _EP_REGIONS).any(axis=1)].tolist())
        negative = set(block_of_row[(region == Region.ALL_IMAGINARY).any(axis=1)].tolist())
        # Band nodes in the middle block only, disc < 0 nodes in the first only.
        assert (band, negative) == ({1}, {0})
        assert set(region.ravel()) == set(Region)

    def test_row_longer_than_a_block_equals_scalar(self, monkeypatch):
        # 153 columns: each d-row is three blocks of columns, 64, 64 and 25 long.
        monkeypatch.setattr(spectrum, "_BLOCK", 64)
        mid5 = 0.5 * sum(ep2_gamma(5.0))
        g_grid = np.sort(np.concatenate([np.linspace(0.0, 30.0, 150), [*ep2_gamma(3.0), mid5]]))
        region = assert_grid_is_scalar_bitwise(1.0, np.array([3.0, -5.0]), g_grid)
        assert {Region.EP2_MINUS, Region.EP2_PLUS} <= set(region[0])
        assert Region.ALL_IMAGINARY in set(region[1])
        assert_grid_is_scalar_bitwise(1.0, np.array([3.0]), g_grid)

    @pytest.mark.parametrize("n_d, n_g", [(0, 3), (3, 0), (0, 0)])
    def test_empty_axes_keep_shapes_and_dtypes(self, n_d, n_g):
        disc, region, ordering = classify_grid(1.0, np.linspace(0.0, 6.0, n_d),
                                               np.linspace(0.0, 16.0, n_g))
        for array, dtype in ((disc, np.float64), (region, object), (ordering, np.int64)):
            assert array.shape == (n_d, n_g) and array.dtype == dtype

    def test_overflow_in_the_last_block_is_raised(self, monkeypatch):
        # One d-row a block; only the last row's cubic overflows (p**3, in Python's power).
        monkeypatch.setattr(spectrum, "_BLOCK", 64)
        with pytest.raises(OverflowError):
            classify_grid(1.0, np.array([0.0, 1.0, 1e60]), np.linspace(0.0, 16.0, 40))


def random_grid(seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Seeded drives of both signs and couplings, with the triple point and both couplings
    of the curves at d/delta = 3 among the nodes."""
    rng = np.random.default_rng(seed)
    d_grid = np.concatenate([rng.uniform(-9.0, 9.0, 37), [D_EP3, 3.0, -3.0]])
    g_grid = np.concatenate([rng.uniform(0.0, 40.0, 29), [G_EP3, *ep2_gamma(3.0)]])
    return d_grid, g_grid


class TestRegionCodes:
    """The codes-only grid pass, which runs the classifier's label rule on the cubic's
    coefficients and solves no root, equals the full grid pass's codes bit for bit."""

    @staticmethod
    def assert_codes_equal(delta, d_grid, g_grid) -> np.ndarray:
        codes = _region_codes(delta, d_grid, g_grid)
        assert codes.dtype == np.int8 and codes.shape == (len(d_grid), len(g_grid))
        assert np.array_equal(codes, _classify_codes(delta, d_grid, g_grid)[1])
        return codes

    def test_default_grid(self):
        codes = self.assert_codes_equal(1.0, np.linspace(0.0, 6.0, 300),
                                        np.linspace(0.0, 16.0, 300))
        # The split-pair and all-imaginary regions, and the band nodes near the curves.
        assert set(np.unique(codes).tolist()) >= {0, 1, 2, 3}

    @pytest.mark.parametrize("delta", [1.0, 0.37, 2.5, 1e-3, 1e3])
    def test_random_grids(self, delta):
        self.assert_codes_equal(delta, *random_grid(31))

    def test_random_grid_carries_every_label(self):
        codes = _region_codes(1.0, *random_grid(31))
        assert set(np.unique(codes).tolist()) == set(range(len(Region)))

    def test_band_grid(self):
        self.assert_codes_equal(1.0, *band_grid())

    def test_row_longer_than_a_block(self):
        # 20,000 columns: one d-row in three blocks of its columns.
        g_grid = np.concatenate([np.linspace(0.0, 30.0, 19998), ep2_gamma(3.0)])
        codes = self.assert_codes_equal(1.0, np.array([3.0]), g_grid)
        assert set(np.unique(codes).tolist()) == {0, 1, 2, 3}

    @pytest.mark.parametrize("n_d, n_g", [(0, 3), (3, 0), (0, 0)])
    def test_empty_axes(self, n_d, n_g):
        self.assert_codes_equal(1.0, np.linspace(0.0, 6.0, n_d), np.linspace(0.0, 16.0, n_g))

    @pytest.mark.parametrize("delta, d_grid, g_grid", [
        (0.0, [0.0, 1.0], [0.0, 1.0]),
        (math.nan, [0.0, 1.0], [0.0, 1.0]),
        (1.0, np.zeros((2, 2)), [0.0, 1.0]),
        (1.0, [0.0, 1.0], [1.0, -2.0]),
    ], ids=["zero_delta", "nan_delta", "2d_drives", "negative_gamma"])
    def test_refusals_equal_the_classifier_pass(self, delta, d_grid, g_grid):
        with pytest.raises(DomainError) as want:
            _classify_codes(delta, d_grid, g_grid)
        with pytest.raises(DomainError) as got:
            _region_codes(delta, d_grid, g_grid)
        assert str(got.value) == str(want.value)

    def test_check_phase_diagram_solves_no_cubic(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the check solved the cubic")

        monkeypatch.setattr(spectrum, "_solve_cubic", refuse)
        assert check_phase_diagram().passed

    def test_check_phase_diagram_details_equal_the_classifier_codes(self, monkeypatch):
        got = check_phase_diagram()
        monkeypatch.setattr(verify, "_region_codes", lambda *grid: _classify_codes(*grid)[1])
        want = check_phase_diagram()
        assert (got.passed, got.details) == (want.passed, want.details)


def traced_peak(fn) -> int:
    """Peak bytes that ``fn()`` allocates, by tracemalloc, after one untraced call."""
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemory:
    # Measured with numpy 2.4 on Python 3.11: 25.2 bytes per node, the float64, int8 and
    # int64 outputs (17) and the Region table indexed by the codes (8), plus one block.
    # A whole-grid pass held about 161; 34 leaves room for another numpy version.
    def test_classify_grid_peak_per_node(self):
        d_grid, g_grid = np.linspace(0.0, 6.0, 600), np.linspace(0.0, 16.0, 600)
        peak = traced_peak(lambda: classify_grid(1.0, d_grid, g_grid))
        assert peak / (600 * 600) < 34

    # Measured: 0.72 MB with the codes-only pass, 2.91 MB with the full blocked pass.  A
    # whole-grid pass held 14.5 MB.
    def test_check_phase_diagram_peak(self):
        assert traced_peak(check_phase_diagram) < 4e6


class TestSharpExactReference:
    """verify's ep2-curve and ep3 checks against the exact roots: one coupling or one
    constant moved past its bound fails the check, and nothing moved passes."""

    @pytest.mark.parametrize("drive", [0, 100, 199])
    @pytest.mark.parametrize("branch", [0, 1], ids=["minus", "plus"])
    @pytest.mark.parametrize("rel, passes", [(0.0, True), (2e-8, False), (-2e-8, False)])
    def test_one_moved_coupling_fails_ep2_curve(self, monkeypatch, drive, branch, rel, passes):
        def moved(d_tilde):
            gammas = [g.copy() for g in ep2_gamma(d_tilde)]
            gammas[branch][drive] *= 1.0 + rel
            return tuple(gammas)

        monkeypatch.setattr(verify, "ep2_gamma", moved)
        result = verify.check_ep2_curve()
        assert result.passed is passes
        assert (result.details["worst_oracle_rel"] < 1e-8) is passes

    # At float(2 sqrt(2)) both roots of the quadratic are real, since float(sqrt 8)^2 > 8,
    # and both branches return one coupling.
    def test_the_first_drive_passes_on_both_branches(self):
        d0 = np.linspace(D_TILDE_EP3, 10.0, 200)[0]
        assert ep2_gamma(d0) == (10.392304845413266, 10.392304845413266)
        n, den = float(d0).as_integer_ratio()
        a2, a1, a0 = verify._quadratic(n * n, den * den)
        assert a1 * a1 - 4 * a2 * a0 > 0
        surds = verify._root_surds(a2, a1, a0)
        assert all(verify._err(g, r, r) < 1e-8 for g, r in zip(ep2_gamma(d0), surds))

    @pytest.mark.parametrize("name", ["D_TILDE_EP3", "GAMMA_TILDE_EP3", "Z_EP3"])
    @pytest.mark.parametrize("rel, passes", [(0.0, True), (2e-6, False), (-2e-6, False)])
    def test_one_moved_constant_fails_ep3(self, monkeypatch, name, rel, passes):
        monkeypatch.setattr(verify, name, getattr(verify, name) * (1.0 + rel))
        assert verify.check_ep3_constants().passed is passes


class TestSplittingExponent:
    def test_square_root_scaling_off_a_curve(self):
        _, gp = ep2_gamma(3.0)
        base = classify(ModelParams(1.0, 3.0, gp))
        slope = splitting_exponent(base, (0.0, 1.0), np.geomspace(1e-6, 1e-3, 7))
        assert abs(slope - 0.5) < 0.05

    def test_cube_root_scaling_off_the_triple_point(self):
        base = classify(ModelParams(1.0, D_EP3, G_EP3))
        slope = splitting_exponent(
            base, (math.cos(0.3), math.sin(0.3)), np.geomspace(1e-6, 1e-3, 7)
        )
        assert abs(slope - 1.0 / 3.0) < 0.05

    def test_zero_epsilons_degenerate(self):
        base = classify(ModelParams(1.0, D_EP3, G_EP3))
        with pytest.raises(DegenerateFitError):
            splitting_exponent(base, (1.0, 0.0), [0.0, 0.0, 0.0])

    def test_non_ep_base_rejected(self):
        base = classify(ModelParams(1.0, 1.0, 1.0))
        with pytest.raises(DomainError):
            splitting_exponent(base, (1.0, 0.0), [1e-4, 1e-3])

    def test_zero_direction_rejected(self):
        base = classify(ModelParams(1.0, D_EP3, G_EP3))
        with pytest.raises(DomainError):
            splitting_exponent(base, (0.0, 0.0), [1e-4, 1e-3])

    def test_equals_one_closed_form_call_per_epsilon(self):
        def reference(base, direction, epsilons):
            ux, uy = np.array(direction) / math.hypot(*direction)
            logs = []
            for eps in epsilons:
                params = ModelParams(1.0, base.d_tilde + eps * ux, base.gamma_tilde + eps * uy)
                zz = eigenvalues_closed_form(params).eigenvalues[1:]
                pairwise = (abs(zz[0] - zz[1]), abs(zz[0] - zz[2]), abs(zz[1] - zz[2]))
                gap = max(pairwise) if base.region is Region.EP3 else min(pairwise)
                if gap > 1e-12:
                    logs.append((math.log(eps), math.log(gap)))
            x, y = np.array(logs).T
            return float(np.polyfit(x, y, 1)[0])

        rng = np.random.default_rng(11)
        eps = np.geomspace(1e-6, 1e-3, 7)
        bases = [classify(ModelParams(1.0, D_EP3, G_EP3))]
        bases += [classify(ModelParams(1.0, d, ep2_gamma(d)[k % 2]))
                  for k, d in enumerate(rng.uniform(2.9, 10.0, 40))]
        for base in bases:
            theta = rng.uniform(0.0, 2.0 * math.pi)
            direction = (math.cos(theta), math.sin(theta))
            assert splitting_exponent(base, direction, eps) == reference(base, direction, eps)

    def test_negative_coupling_refused_at_the_first_such_epsilon(self):
        base = classify(ModelParams(1.0, 3.0, ep2_gamma(3.0)[1]))
        # the refusal ModelParams gives for the perturbed point at eps = 12
        message = f"gamma must be >= 0, got {base.gamma_tilde - 12.0}"
        assert message == "gamma must be >= 0, got -0.6862915010152388"
        with pytest.raises(DomainError, match=f"^{message}$"):
            splitting_exponent(base, (0.0, -1.0), [1e-3, 11.0, 12.0, 13.0])

    def test_non_finite_point_refused(self):
        base = classify(ModelParams(1.0, D_EP3, G_EP3))
        with pytest.raises(DomainError, match="^d must be finite, got nan$"):
            splitting_exponent(base, (1.0, 0.0), [1e-3, np.nan])

    def test_nonpositive_epsilons_skipped(self):
        _, gp = ep2_gamma(3.0)
        base = classify(ModelParams(1.0, 3.0, gp))
        eps = np.geomspace(1e-6, 1e-3, 7)
        slope = splitting_exponent(base, (0.0, 1.0), eps)
        # at eps = -20 the coupling would be negative, were the point not skipped
        padded = [0.0, -20.0, *eps, -1e-3]
        assert splitting_exponent(base, (0.0, 1.0), padded) == slope

    @pytest.mark.parametrize("eps", [[], [1e-3], [0.0, -1e-3, 1e-3]])
    def test_fewer_than_two_usable_points(self, eps):
        base = classify(ModelParams(1.0, D_EP3, G_EP3))
        with pytest.raises(DegenerateFitError):
            splitting_exponent(base, (1.0, 0.0), eps)
