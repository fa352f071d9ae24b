"""Special functions, sphere quadrature, and voxelization."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln, roots_legendre, sph_harm_y, spherical_jn, spherical_yn

from tdscope import (
    Ball,
    Ellipsoid,
    Union,
    harmonics_table,
    legendre_p,
    regular_wave_gradients,
    sph_bessel_j,
    sph_hankel1,
    sphere_quadrature,
    sphere_surface,
    voxelize,
)
from tdscope import specfun_quad

from conftest import full_table_wave_gradients

xs = st.floats(min_value=0.05, max_value=40.0, allow_nan=False)


def test_bessel_closed_forms():
    x = np.array([0.3, 1.7, 6.0, 25.0])
    np.testing.assert_allclose(sph_bessel_j(0, x), np.sin(x) / x, rtol=1e-13)
    np.testing.assert_allclose(
        sph_bessel_j(1, x), np.sin(x) / x**2 - np.cos(x) / x, rtol=1e-12, atol=1e-15
    )
    np.testing.assert_allclose(sph_hankel1(0, x), -1j * np.exp(1j * x) / x, rtol=1e-13)


def test_bessel_small_argument():
    # j_n(x) ~ x^n / (2n+1)!! without underflow blowups
    assert sph_bessel_j(0, 1e-8) == pytest.approx(1.0)
    assert sph_bessel_j(2, 1e-4) == pytest.approx(1e-8 / 15.0, rel=1e-6)


@given(x=xs, n=st.integers(min_value=1, max_value=30))
@settings(max_examples=60, deadline=None)
def test_bessel_hankel_wronskian(x, n):
    # cross product identity j_n(x) y_{n-1}(x) - j_{n-1}(x) y_n(x) = 1/x^2
    jn = sph_bessel_j(n, x)
    jm = sph_bessel_j(n - 1, x)
    yn = sph_hankel1(n, x).imag
    ym = sph_hankel1(n - 1, x).imag
    assert jn * ym - jm * yn == pytest.approx(1.0 / x**2, rel=1e-8, abs=1e-14)


# every order the package reads against x from 1e-8 to 1e6, the integers up
# to N_MAX + 1 and their neighbours, where the recurrences change direction
BESSEL_N = np.arange(specfun_quad.N_MAX + 1)[:, None]
BESSEL_X = np.concatenate([np.geomspace(1e-8, 1e6, 700)]
                          + [np.arange(1.0, specfun_quad.N_MAX + 2) + d
                             for d in (-1e-9, 0.0, 1e-9, 0.5)])


def test_bessel_matches_scipy():
    # j_n and y_n by recurrence against scipy's spherical_jn and spherical_yn.
    # Where x > n both are errors relative to |h_n| (j_n and y_n have zeros
    # there); where x <= n, j_n's error is relative to j_n itself (below the
    # normal range, to 1e-280), and y_n's, the dominant solution, relative to
    # |h_n|.  scipy's j_n for x <= n is itself off by up to 1.4e-13 at x < 1e-2
    # (against mpmath at 40 digits, where the recurrence errs by 3e-15), so
    # that region is held to 2e-13 here and to 1e-14 against the series below.
    j, h = sph_bessel_j(BESSEL_N, BESSEL_X), sph_hankel1(BESSEL_N, BESSEL_X)
    with np.errstate(invalid="ignore", over="ignore"):
        j_ref, y_ref = spherical_jn(BESSEL_N, BESSEL_X), spherical_yn(BESSEL_N, BESSEL_X)
    np.testing.assert_array_equal(h.real, j)
    size = np.hypot(j_ref, y_ref)
    outer = BESSEL_X > BESSEL_N
    assert np.all(np.abs(j - j_ref)[outer] <= 1e-13 * size[outer])
    inner = ~outer
    assert np.all(np.abs(j - j_ref)[inner] <= 2e-13 * np.maximum(np.abs(j_ref), 1e-280)[inner])
    finite = np.isfinite(y_ref)
    np.testing.assert_array_equal(np.isneginf(h.imag), ~finite)
    assert np.all(np.abs(h.imag[finite] - y_ref[finite]) <= 1e-13 * size[finite])


def test_bessel_small_argument_series():
    # j_n(x) = x^n / (2n + 1)!! (1 - x^2 / (2 (2n + 3))) to within x^4 / (8 (2n + 3)(2n + 5))
    # of it, below 1e-17 relative at x <= 1e-4
    x = np.geomspace(1e-8, 1e-4, 9)
    for n in range(specfun_quad.N_MAX + 1):
        want = x**n / float(math.prod(range(1, 2 * n + 2, 2))) * (1.0 - x * x / (4 * n + 6))
        normal = want > 1e-280
        got = sph_bessel_j(n, x)
        assert np.all(np.abs(got - want)[normal] <= 1e-14 * want[normal])
        assert np.all(np.abs(got[~normal]) <= 1e-280)


def test_bessel_at_tiny_and_subnormal_arguments():
    # (2n + 1)/x overflows for x below about 1e-306: j_1 = x/3 still, j_n for
    # n >= 2 underflows to 0, and y_n is -inf, with no nan and no warning
    x = np.array([1e-300, 1e-306, 1e-310, 5e-324])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        j = sph_bessel_j(np.arange(4)[:, None], x)
        h = sph_hankel1(np.arange(4)[:, None], x)
    np.testing.assert_array_equal(j[0], 1.0)
    np.testing.assert_allclose(j[1], x / 3.0, rtol=1e-14, atol=5e-324)
    np.testing.assert_array_equal(j[2:], 0.0)
    np.testing.assert_array_equal(h.real, j)
    assert np.all(np.isneginf(h.imag[1:])) and np.all(h.imag[0] < -1e299)


def test_hankel_past_overflow_is_minus_inf_without_nan():
    # y_n overflows for n >> x: it stays at -inf from there on, with no nan and no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        h = sph_hankel1(np.arange(specfun_quad.N_MAX + 1), 1e-6)
    with np.errstate(over="ignore"):
        y_ref = spherical_yn(np.arange(specfun_quad.N_MAX + 1), 1e-6)
    past = np.isneginf(h.imag)
    assert not np.any(np.isnan(h.real)) and not np.any(np.isnan(h.imag))
    assert past.any() and not past[0] and np.all(past[np.argmax(past):])
    np.testing.assert_array_equal(past, np.isneginf(y_ref))
    assert np.all(np.abs(h)[past] == np.inf)


def test_gauss_legendre_matches_scipy():
    # the cos(theta) rule of the full-sphere product rule, orders 1 to 128,
    # against scipy's roots_legendre: nodes to 1e-15, weights to 1e-12 of the
    # largest weight (measured 2.2e-16 and 7.5e-13)
    for order in range(1, 129):
        dirs, w = sphere_quadrature(order)
        nodes, weights = roots_legendre(order)
        n_az = 2 * order
        np.testing.assert_allclose(dirs[::n_az, 2], nodes, rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(w[::n_az] * n_az / (2.0 * np.pi), weights, rtol=0.0,
                                   atol=1e-12 * weights.max())


def test_log_factorials_match_gammaln():
    # math.lgamma against scipy's gammaln, to 1e-15 relative (measured 4.8e-16)
    k = np.arange(400)
    want = gammaln(k + 1.0)
    bound = 1e-15 * np.maximum(np.abs(want), 1.0)
    assert np.all(np.abs(specfun_quad._log_factorial(k) - want) <= bound)
    n = np.arange(150)
    want = gammaln(2.0 * n + 2.0) - n * np.log(2.0) - gammaln(n + 1.0)
    got = specfun_quad.log_odd_factorial(n)
    assert np.all(np.abs(got - want) <= 1e-15 * np.maximum(np.abs(want), 1.0))


def test_legendre_values_and_bounds():
    t = np.linspace(-1.0, 1.0, 201)
    np.testing.assert_allclose(legendre_p(0, t), np.ones_like(t))
    np.testing.assert_allclose(legendre_p(1, t), t)
    np.testing.assert_allclose(legendre_p(2, t), 0.5 * (3 * t**2 - 1), atol=1e-14)
    for n in (5, 17, 40):
        assert np.max(np.abs(legendre_p(n, t))) <= 1.0 + 1e-12
        assert legendre_p(n, 1.0) == pytest.approx(1.0)


def test_legendre_orthogonality():
    # Gauss nodes integrate P_n P_m exactly: 2 delta_nm / (2n+1)
    from numpy.polynomial.legendre import leggauss

    x, w = leggauss(40)
    for n, m in [(3, 3), (7, 7), (3, 7), (0, 12)]:
        val = np.sum(w * legendre_p(n, x) * legendre_p(m, x))
        want = 2.0 / (2 * n + 1) if n == m else 0.0
        assert val == pytest.approx(want, abs=1e-13)


def test_sphere_quadrature_exactness():
    dirs, w = sphere_quadrature(8)
    assert w.sum() == pytest.approx(4.0 * np.pi)
    # odd monomials vanish, x^2 integrates to 4 pi / 3
    assert np.sum(w * dirs[:, 0]) == pytest.approx(0.0, abs=1e-13)
    assert np.sum(w * dirs[:, 2] ** 2) == pytest.approx(4.0 * np.pi / 3.0)
    assert np.sum(w * dirs[:, 0] ** 2 * dirs[:, 1] ** 2) == pytest.approx(4.0 * np.pi / 15.0)


def test_sphere_quadrature_cap_area():
    theta = 2.0 * np.pi / 3.0
    _, w = sphere_quadrature(12, aperture=theta)
    assert w.sum() == pytest.approx(2.0 * np.pi * (1.0 - np.cos(theta)))
    with pytest.raises(ValueError):
        sphere_quadrature(12, aperture=4.0)


def test_harmonics_addition_theorem():
    # sum_m |Y_n^m(d)|^2 = (2n+1)/(4 pi) for every direction
    rng = np.random.default_rng(5)
    dirs = rng.standard_normal((40, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    for kind in ("complex", "real"):
        tab = harmonics_table(10, dirs, kind=kind)
        row = 0
        for n in range(11):
            block = tab[row : row + 2 * n + 1]
            np.testing.assert_allclose(
                np.sum(np.abs(block) ** 2, axis=0),
                (2 * n + 1) / (4.0 * np.pi),
                rtol=1e-12,
            )
            row += 2 * n + 1


def test_harmonics_orthonormal_under_quadrature():
    dirs, w = sphere_quadrature(24)
    tab = harmonics_table(8, dirs, kind="real")
    gram = (tab * w) @ tab.T
    np.testing.assert_allclose(gram, np.eye(tab.shape[0]), atol=1e-12)


@pytest.mark.parametrize("kind", ["complex", "real"])
def test_harmonics_table_matches_scipy(kind):
    # entry by entry against scipy's sph_harm_y (Condon-Shortley phase); the
    # real basis is sqrt(2) (-1)^m Re Y_n^m for m > 0 and sqrt(2) (-1)^m
    # Im Y_n^|m| for m < 0.  The addition theorem and the Gram test hold under
    # any per-row sign or mixing within a degree; this test does not.  Both
    # tables stay within 2.3e-13 of the reference at n <= 60 (max |Y| about 3),
    # so 1e-12 leaves a margin of 4.
    n_max = 60
    rng = np.random.default_rng(19)
    dirs = np.vstack([rng.standard_normal((40, 3)), np.eye(3), -np.eye(3)])
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    theta = np.arccos(np.clip(dirs[:, 2], -1.0, 1.0))
    phi = np.mod(np.arctan2(dirs[:, 1], dirs[:, 0]), 2.0 * np.pi)
    n = np.repeat(np.arange(n_max + 1), 2 * np.arange(n_max + 1) + 1)[:, None]
    m = np.arange(n.size)[:, None] - n * (n + 1)
    if kind == "complex":
        want = sph_harm_y(n, m, theta, phi)
    else:
        y = sph_harm_y(n, np.abs(m), theta, phi)
        sign = np.sqrt(2.0) * (-1.0) ** m
        want = np.where(m > 0, sign * y.real, np.where(m < 0, sign * y.imag, y.real))
    got = harmonics_table(n_max, dirs, kind=kind)
    assert np.abs(got - want).max() < 1e-12


@pytest.mark.parametrize("n_max", [0, 3])
def test_harmonics_table_rejects_an_unknown_kind(n_max):
    with pytest.raises(ValueError, match="kind must be 'complex' or 'real'"):
        harmonics_table(n_max, np.array([[0.0, 0.0, 1.0]]), kind="bogus")


def test_harmonics_table_input_checks():
    with pytest.raises(ValueError, match="n_max must be >= 0"):
        harmonics_table(-1, np.array([[0.0, 0.0, 1.0]]))
    with pytest.raises(ValueError, match="n_max must be >= 0"):
        regular_wave_gradients(-1, 1.0, np.zeros((1, 3)))
    with pytest.raises(ValueError, match="directions must be unit vectors"):
        harmonics_table(2, np.array([[0.0, 0.0, 1.1]]))
    # the normalization of degree 151 overflows; degree 150 still holds the
    # addition theorem on the equator, where R_n^n is smallest
    with pytest.raises(ValueError, match="n_max must be <= 150"):
        harmonics_table(151, np.array([[0.0, 0.0, 1.0]]))
    top = harmonics_table(150, np.array([[1.0, 0.0, 0.0], [0.6, 0.8, 0.0]]))[150**2:]
    np.testing.assert_allclose(np.sum(np.abs(top) ** 2, axis=0), 301 / (4.0 * np.pi),
                               rtol=1e-12)


def test_single_harmonic_entries():
    dirs = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    y00 = harmonics_table(0, dirs, kind="complex")[specfun_quad.harmonic_index(0, 0)]
    np.testing.assert_allclose(y00, 1.0 / np.sqrt(4.0 * np.pi))
    y10 = harmonics_table(1, dirs, kind="real")[specfun_quad.harmonic_index(1, 0)]
    np.testing.assert_allclose(y10, np.sqrt(3.0 / (4.0 * np.pi)) * dirs[:, 2], atol=1e-15)


def test_sphere_surface_weights_scale():
    s = sphere_surface(5.0, 16)
    assert s.weights.sum() == pytest.approx(4.0 * np.pi * 25.0)
    np.testing.assert_allclose(np.linalg.norm(s.nodes, axis=1), 5.0)
    with pytest.raises(ValueError):
        sphere_surface(-1.0, 8)


def test_sphere_surface_builds_its_rule_on_first_use(monkeypatch):
    # a bad order or aperture fails at construction; the rule itself is
    # built once, when dirs or weights are first read
    for order, aperture in ((0, None), (8, 0.0), (8, 4.0)):
        with pytest.raises(ValueError):
            sphere_surface(5.0, order, aperture=aperture)
    calls = []
    rule = specfun_quad.sphere_quadrature
    monkeypatch.setattr(specfun_quad, "sphere_quadrature",
                        lambda *a, **k: calls.append(a) or rule(*a, **k))
    s = sphere_surface(5.0, 16, center=(1.0, 0.0, 0.0), aperture=2.0)
    assert calls == []
    dirs, w = rule(16, aperture=2.0)
    np.testing.assert_array_equal(s.weights, 25.0 * w)
    np.testing.assert_array_equal(s.nodes, np.array([1.0, 0.0, 0.0]) + 5.0 * dirs)
    assert len(calls) == 1


def test_voxelize_volume_and_symmetry():
    g = voxelize(Ball(0.5), 1.0 / 16.0)
    vol = 4.0 / 3.0 * np.pi * 0.125
    assert abs(g.volume - vol) / vol < 0.02
    np.testing.assert_allclose(g.centers.mean(axis=0), 0.0, atol=1e-14)
    assert g.cell_volume == pytest.approx(g.h**3)


def test_voxelize_guards():
    with pytest.raises(ValueError):
        voxelize(Ball(0.5), 0.3)  # coarser than feature/4


def test_voxelize_bounds_the_lattice_before_building_it():
    # h = 1e-4 asks for a 10^4-point lattice per axis (16 TB of centres); more
    # than 8 cap lattice points raise at once, a lattice within it is built
    with pytest.raises(MemoryError, match=r"lattice of 1e\+12 points, .* exceed the cap 20000"):
        voxelize(Ball(0.5), 1e-4, cap=20000)
    grid = voxelize(Ball(0.5), 1.0 / 16.0, cap=16**3 // 8)
    assert grid.n_cells > 16**3 // 8


@pytest.mark.parametrize("h", [0.0, -0.1, np.nan])
def test_voxelize_rejects_a_non_positive_h(h):
    # h = 0 used to overflow and then report a degenerate shape
    with pytest.raises(ValueError, match="h must be positive and finite"):
        voxelize(Ball(0.5), h)


def test_shapes_contain():
    ball = Ball(1.0, center=(1.0, 0.0, 0.0))
    assert ball.contains(np.array([[1.5, 0.0, 0.0]]))[0]
    assert not ball.contains(np.array([[-0.5, 0.0, 0.0]]))[0]
    ell = Ellipsoid((1.0, 2.0, 0.5))
    assert ell.contains(np.array([[0.0, 1.9, 0.0]]))[0]
    assert not ell.contains(np.array([[0.0, 0.0, 0.6]]))[0]
    uni = Union((Ball(0.3, center=(-1.0, 0.0, 0.0)), Ball(0.3, center=(1.0, 0.0, 0.0))))
    assert uni.contains(np.array([[1.1, 0.0, 0.0]]))[0]
    assert not uni.contains(np.array([[0.0, 0.0, 0.0]]))[0]
    assert uni.diameter == pytest.approx(2.6)


def test_voxelize_ellipsoid_volume():
    g = voxelize(Ellipsoid((0.5, 0.4, 0.3)), 1.0 / 24.0)
    vol = 4.0 / 3.0 * np.pi * 0.5 * 0.4 * 0.3
    assert abs(g.volume - vol) / vol < 0.03


@pytest.mark.parametrize("k", [0.0, 1.3])
def test_regular_wave_gradients_match_finite_differences(k):
    # grad u_n^m against central differences of j_n(k r) Y_n^m (r^n Y_n^m at
    # k = 0), with j_n Y_n^m = k^n sqrt((2n+1) w_nm / 4 pi) / (2n+1)!! u_n^m
    n_max = 6
    pts = np.random.default_rng(11).uniform(-1.0, 1.0, (5, 3))
    deg = np.repeat(np.arange(n_max + 1), 2 * np.arange(n_max + 1) + 1)
    m = np.arange(deg.size) - deg * (deg + 1)

    def wave(p):
        r = np.linalg.norm(p, axis=1)
        radial = r[None, :] ** deg[:, None] if k == 0.0 else spherical_jn(deg[:, None], k * r)
        return radial * harmonics_table(n_max, p / r[:, None], kind="complex")

    log_norm = 0.5 * (np.log((2 * deg + 1) / (4.0 * np.pi))
                      + gammaln(deg + m + 1) + gammaln(deg - m + 1))
    if k > 0.0:
        log_norm += deg * np.log(k) - (gammaln(2 * deg + 2) - deg * np.log(2.0)
                                       - gammaln(deg + 1))
    step = 1e-5
    fd = np.stack([(wave(pts + step * e) - wave(pts - step * e)) / (2.0 * step)
                   for e in np.eye(3)], axis=-1)
    got = np.exp(log_norm)[:, None, None] * regular_wave_gradients(n_max, k, pts)
    assert np.abs(got - fd).max() < 1e-9 * np.abs(fd).max()


@pytest.mark.parametrize("k", [0.0, 1.3])
@pytest.mark.parametrize("n_max", [0, 1, 2, 7, 20])
def test_regular_wave_gradients_are_the_full_table_evaluation(n_max, k):
    # the rows m >= 0 come from the degree-by-degree kernel with the bits of
    # one full complex table; the rows m < 0, (-1)^m conj(u_n^|m|), equal the
    # table's own rows m < 0 up to the sign of zeros
    pts = np.random.default_rng(7).uniform(-1.0, 1.0, (40, 3))
    pts[:4] = [[0.0, 0.0, 0.0], [0.0, 0.0, 0.4], [0.3, 0.0, 0.2], [0.0, -0.5, 0.0]]
    got = regular_wave_gradients(n_max, k, pts)
    want = full_table_wave_gradients(n_max, k, pts)
    pos = specfun_quad._degree_order(n_max)[1] >= 0
    assert got.shape == want.shape and got[pos].tobytes() == want[pos].tobytes()
    assert np.array_equal(got, want)


def test_regular_wave_gradients_at_the_origin():
    # only the degree-1 waves have a gradient at x = 0: grad z = e_z and
    # grad R_1^{+-1} = grad (-+(x +- i y) / 2)
    g = regular_wave_gradients(4, 2.0, np.zeros((1, 3)))[:, 0]
    want = np.zeros_like(g)
    want[1] = [0.5, -0.5j, 0.0]   # R_1^{-1} = (x - i y) / 2
    want[2] = [0.0, 0.0, 1.0]     # R_1^0 = z
    want[3] = [-0.5, -0.5j, 0.0]  # R_1^1 = -(x + i y) / 2
    np.testing.assert_array_equal(g, want)
