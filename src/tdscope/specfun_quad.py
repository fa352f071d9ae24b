"""Special functions, sphere quadrature, and voxelization.

Spherical Bessel/Hankel functions by recurrence, Legendre polynomials,
orthonormal spherical harmonics (real and complex bases), gradients of the
regular waves j_n Y_n^m, product quadrature rules on spheres and spherical
caps, and cell-center voxelization of scatterer shapes onto a uniform cubic
lattice.  The harmonics and the waves both come from one recurrence, that
of the scaled regular solid harmonics R_n^m, in one packed (n, m) layout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from numpy.polynomial.legendre import leggauss

__all__ = [
    "N_MAX",
    "SphereSurface",
    "ScattererGrid",
    "Ball",
    "Ellipsoid",
    "Union",
    "sph_bessel_j",
    "sph_hankel1",
    "legendre_p",
    "harmonics_table",
    "harmonic_index",
    "regular_wave_gradients",
    "sphere_quadrature",
    "sphere_surface",
    "voxelize",
]

# order cap of sph_bessel_j and of the series work; j_n tails are negligible
# far beyond kappa*R
N_MAX = 60
# orders above the highest one asked for at which Miller's recurrence starts:
# for x <= n its relative error at order n is about prod_{k=n+1}^{N} (x/2k)^2
# <= 4^-(N - n), below 1e-18 at N = n + 30
_MILLER_EXTRA = 30


def _sph_bessel_table(n_top, x, second=False):
    """(j, y): j_k(x) and, with second, y_k(x) (else None) for k = 0..n_top,
    each (n_top + 1, x.size), for x a flat array of finite x >= 0.

    Rows k < x come from the upward recurrence f_{k+1} = (2k + 1)/x f_k -
    f_{k-1} from j_0 = sin x / x and j_1 = (j_0 - cos x)/x, where it is stable
    (DLMF §10.51).  Rows k >= x come from Miller's backward recurrence, from
    f_{N+1} = 0, f_N = 1 at N = n_top + _MILLER_EXTRA down to f_0, normalised
    by sum_k (2k + 1) j_k^2 = 1 (DLMF §10.60; Gautschi, SIAM Rev. 9, 1967).
    It runs on g_k = f_k / 2^(s_{k+1} + ... + s_N), with 2^s_k > (2k + 1)/x +
    1 taken from the exponents of x and of (2k + 1) / mantissa(x), so that g
    never grows, each scaling is exact and no x > 0, subnormal included,
    overflows; the sequence is positive at the top, where j_k > 0, so no
    sign is lost.  y_k runs upward from y_0 = -cos x / x, where it is the
    dominant solution; once it overflows it stays at -inf, with no nan.  At
    x = 0: j_0 = 1, j_k = 0 and y_k = -inf.
    """
    pos = x > 0.0
    xs = np.where(pos, x, 1.0)
    s, c = np.sin(xs), np.cos(xs)
    k = np.arange(n_top + 1)[:, None]
    j = np.empty((n_top + 1, x.size))
    j[0] = s / xs
    y = np.empty((n_top + 1, x.size)) if second else None
    # upward j past k = x is overwritten below; it may overflow on the way
    with np.errstate(over="ignore", invalid="ignore"):
        if second:
            y[0] = -c / xs
        if n_top:
            j[1] = (j[0] - c) / xs
            if second:
                y[1] = (y[0] - s) / xs
        for n in range(1, n_top):
            j[n + 1] = (2 * n + 1) / xs * j[n] - j[n - 1]
            if second:
                y[n + 1] = np.where(np.isneginf(y[n]), -np.inf,
                                    (2 * n + 1) / xs * y[n] - y[n - 1])
    back = np.flatnonzero(pos & (x <= n_top))
    if back.size:
        xb = x[back]
        top = n_top + _MILLER_EXTRA
        # x = m 2^p, so (2k + 1)/x = u_k 2^-p, for k = 0..N + 1
        m, p = np.frexp(xb)
        u = (2 * np.arange(top + 2) + 1)[:, None] / m
        sk = np.frexp(u + np.ldexp(1.0, p))[1] - p
        alpha = np.ldexp(u, -(sk + p))  # (2k + 1)/x / 2^s_k
        beta = np.ldexp(1.0, -(sk[:-1] + sk[1:]))  # 1 / 2^(s_k + s_{k+1})
        g = np.zeros((top + 2, xb.size))
        g[top] = 1.0
        for n in range(top, 0, -1):
            g[n - 1] = alpha[n] * g[n] - beta[n] * g[n + 1]
        # f_k = g_k / 2^(s_1 + ... + s_k), up to a factor that puts f_0 in
        # [1/2, 1), so that only the rows far below it underflow
        f = np.ldexp(g[: top + 1], sk[0] - np.cumsum(sk[: top + 1], axis=0)
                     - np.frexp(g[0])[1])
        # summed row by row, so that a column's sum, and its values, do not
        # depend on the columns beside it
        norm = np.zeros(xb.size)
        for n, row in enumerate(f):
            norm += (2 * n + 1) * row * row
        f /= np.sqrt(norm)
        j[:, back] = np.where(k >= xb, f[: n_top + 1], j[:, back])
    j[:, ~pos] = k == 0
    if second:
        y[:, ~pos] = -np.inf
    return j, y


def _sph_bessel(n, x, second=False):
    """j_n(x), or (j_n(x), y_n(x)) with second, for orders n >= 0 and finite
    x >= 0 broadcast together, read from one _sph_bessel_table of x."""
    n = np.asarray(n)
    x = np.asarray(x, dtype=float)
    if np.any(n < 0):
        raise ValueError("order must be >= 0")
    if not np.all(np.isfinite(x)) or np.any(x < 0.0):
        raise ValueError("spherical Bessel functions require finite x >= 0")
    j, y = _sph_bessel_table(int(n.max(initial=0)), x.ravel(), second)
    cols = np.arange(x.size).reshape(x.shape)
    return (j[n, cols], y[n, cols]) if second else j[n, cols]


def sph_bessel_j(n, x):
    """Spherical Bessel function j_n(x) for n >= 0, x >= 0."""
    n = np.asarray(n)
    if np.any(n < 0) or np.any(n > N_MAX):
        raise ValueError(f"order must lie in 0..{N_MAX}")
    return _sph_bessel(n, x)


def sph_hankel1(n, x):
    """Spherical Hankel function of the first kind, h_n = j_n + i y_n; x > 0.

    y_n overflows to -inf for n >> x, where h_n = j_n - inf i, with no nan."""
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)) or np.any(x <= 0.0):
        raise ValueError("sph_hankel1 requires finite x > 0")
    j, y = _sph_bessel(n, x, second=True)
    h = np.array(j, dtype=complex)
    h.imag = y
    return h[()]


def legendre_p(n, t):
    """Legendre polynomial P_n(t) on [-1, 1] by the three-term recurrence."""
    t = np.asarray(t, dtype=float)
    if np.any(np.abs(t) > 1.0 + 1e-12):
        raise ValueError("argument must lie in [-1, 1]")
    if n < 0:
        raise ValueError("order must be >= 0")
    p_prev = np.ones_like(t)
    if n == 0:
        return p_prev
    p = t.copy()
    for k in range(1, n):
        p, p_prev = ((2 * k + 1) * t * p - k * p_prev) / (k + 1), p
    return p


def harmonic_index(n, m):
    """Flat index of (n, m) in the packed harmonic layout n*(n+1)+m."""
    return n * (n + 1) + m


def _degree_order(n_max):
    """Degree n and order m of each row n (n + 1) + m of the packed layout."""
    deg = np.repeat(np.arange(n_max + 1), 2 * np.arange(n_max + 1) + 1)
    return deg, np.arange(deg.size) - deg * (deg + 1)


def _solid_harmonics(n_max, x):
    """Scaled complex regular solid harmonics R_n^m(x), rows packed n (n + 1) + m.

        R_0^0 = 1,   R_{n+1}^{n+1} = -(x + i y) / (2n + 2) R_n^n,
        R_{n+1}^m = ((2n + 1) z R_n^m - |x|^2 R_{n-1}^m) / ((n + m + 1)(n - m + 1)),
        R_n^{-m} = (-1)^m conj(R_n^m)

    (Epton & Dembart, SIAM J. Sci. Comput. 16, 1995), so that
    r^n Y_n^m(xhat) = sqrt((2n + 1) (n + m)! (n - m)! / (4 pi)) R_n^m(x) with
    the Condon-Shortley phase.  x: (npts, 3).  Returns ((n_max + 1)^2, npts).
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    deg, order = _degree_order(n_max)
    den = ((deg + order) * (deg - order))[:, None]
    r2 = np.einsum("pi,pi->p", x, x)
    w = x[:, 0] + 1j * x[:, 1]
    out = np.empty((deg.size, x.shape[0]), dtype=complex)
    out[0] = 1.0
    for n in range(n_max):
        # rows m = 0..n of degrees n - 1, n and n + 1; R_{n-1}^n = 0
        cur, nxt = n * (n + 1), (n + 1) * (n + 2)
        out[nxt : nxt + n + 1] = (2 * n + 1) * x[:, 2] * out[cur : cur + n + 1]
        out[nxt : nxt + n] -= r2 * out[cur - 2 * n : cur - n]
        out[nxt : nxt + n + 1] /= den[nxt : nxt + n + 1]
        out[nxt + n + 1] = -w / (2 * n + 2) * out[cur + n]
    neg = order < 0
    out[neg] = ((-1.0) ** order[neg])[:, None] * out[harmonic_index(deg, -order)[neg]].conj()
    return out


def _real_rows(n, rows, out):
    """Write the real rows m = -n..n of degree n to out from its complex rows
    f^m, m = 0..n: f^0, sqrt(2) (-1)^m Re f^m (m > 0) and sqrt(2) (-1)^m
    Im f^|m| (m < 0).  Reads only rows.real and rows.imag."""
    out[n:] = rows.real
    out[:n] = rows.imag[:0:-1]
    m = np.arange(-n, n + 1)
    sign = np.where(m == 0, 1.0, np.sqrt(2.0) * (-1.0) ** m)
    out *= sign.reshape((-1,) + (1,) * (out.ndim - 1))


def _real_basis(rows):
    """The packed real rows (_real_rows) of packed complex rows f."""
    out = np.empty(rows.shape)
    for n in range(math.isqrt(rows.shape[0])):
        _real_rows(n, rows[n * (n + 1) : (n + 1) ** 2], out[n * n : (n + 1) ** 2])
    return out


def harmonics_table(n_max, dirs, kind="complex"):
    """Spherical harmonics Y_n^m(dir) for all n <= n_max, |m| <= n.

    Returns array ((n_max+1)^2, npts), rows packed as n*(n+1)+m.  kind
    'complex' gives the standard orthonormal basis with Condon-Shortley
    phase; 'real' gives the orthonormal real basis sqrt(2) (-1)^m Re Y_n^m
    for m > 0 and sqrt(2) (-1)^m Im Y_n^|m| for m < 0.  Both satisfy the
    addition theorem sum_m Y_n^m(u) conj(Y_n^m(v)) = (2n+1)/(4 pi) P_n(u.v).
    The harmonics are the solid harmonics R_n^m of the unit directions,
    sqrt((2n + 1) (n + m)! (n - m)! / (4 pi)) R_n^m(dir).
    """
    if kind not in ("complex", "real"):
        raise ValueError("kind must be 'complex' or 'real'")
    if n_max > 150:
        # sqrt((2n)!) overflows past degree 150, where R_n^n leaves the normal range
        raise ValueError("n_max must be <= 150")
    dirs = np.atleast_2d(np.asarray(dirs, dtype=float))
    if np.any(np.abs(np.linalg.norm(dirs, axis=1) - 1.0) > 1e-10):
        raise ValueError("directions must be unit vectors")
    out = _solid_harmonics(n_max, dirs)
    n, m = _degree_order(n_max)
    out *= np.exp(0.5 * (np.log((2.0 * n + 1.0) / (4.0 * np.pi))
                         + _log_factorial(n + m) + _log_factorial(n - m)))[:, None]
    return out if kind == "complex" else _real_basis(out)


def _log_factorial(k):
    """log k! for integers k >= 0 (elementwise), by math.lgamma: one call per
    value up to max(k)."""
    k = np.asarray(k, dtype=int)
    table = np.array([math.lgamma(i + 1.0) for i in range(int(k.max(initial=0)) + 1)])
    return table[k]


def log_odd_factorial(n):
    """log (2n + 1)!! for integers n >= 0 (elementwise)."""
    n = np.asarray(n, dtype=int)
    return _log_factorial(2 * n + 1) - n * np.log(2.0) - _log_factorial(n)


def _radial_factors(n_top, kr):
    """F_n = (2n + 1)!! j_n(kr) / (kr)^n for n = 0..n_top, shape (n_top + 1, npts).

    F_n is entire in (kr)^2 with F_n(0) = 1.  Below kr = 1 its power series
    sum_l (-(kr)^2 / 2)^l / (l! (2n + 3)(2n + 5)...(2n + 2l + 1)) is summed
    until the terms drop below 1e-17 (F_n > 0.8 there, and nothing cancels);
    above, j_n is scaled.
    """
    n = np.arange(n_top + 1, dtype=float)[:, None]
    out = np.empty((n_top + 1, kr.size))
    small = kr < 1.0
    x = kr[small]
    term = np.ones((n_top + 1, x.size))
    series = term.copy()
    l = 0
    while np.abs(term).max(initial=0.0) > 1e-17:
        l += 1
        term = term * (-0.5 * x * x) / (l * (2.0 * n + 2.0 * l + 1.0))
        series += term
    out[:, small] = series
    x = kr[~small]
    # (2n + 1)!! / x^n as a running product: exp of its log loses 1e-14
    out[:, ~small] = _sph_bessel_table(n_top, x)[0] * np.cumprod(
        np.maximum(2.0 * n + 1.0, 1.0) / np.where(n > 0, x, 1.0), axis=0)
    return out


def _wave_degrees(n_max, k, x):
    """Gradients of the regular waves u_n^m of regular_wave_gradients, degree
    by degree: yields, for n = 0..n_max, those of m = 0..n, (n + 1, npts, 3)
    complex.  The rows m < 0 follow from u_n^-m = (-1)^m conj(u_n^m).

    The ladder reads R_{n-1}^{m+1}, R_{n-1}^{m-1} and R_{n-1}^m of m = 0..n as
    three slices of one window of degree n - 1, zero where |m +- 1| or m
    exceeds n - 1; only the solid harmonics and one degree are held at once.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    npts = x.shape[0]
    rows = _solid_harmonics(n_max, x)
    r2 = np.einsum("pi,pi->p", x, x)
    f = _radial_factors(n_max + 1, np.sqrt(r2) * k)
    for n in range(n_max + 1):
        # R_{n-1}^j for j = -1..n + 1; row (n - 1) n + j holds R_{n-1}^j, |j| < n
        low = np.zeros((n + 3, npts), dtype=complex)
        if n:
            j = max(-1, 1 - n)
            low[j + 1 : n + 1] = rows[(n - 1) * n + j : n * n]
        up, down = low[2:], low[:-2]
        radial = (k * k / (2 * n + 3)) * f[n + 1] * rows[n * (n + 1) : (n + 1) ** 2]
        grad = np.empty((n + 1, npts, 3), dtype=complex)
        grad[..., 0] = 0.5 * f[n] * (up - down) - radial * x[:, 0]
        grad[..., 1] = -0.5j * f[n] * (down + up) - radial * x[:, 1]
        grad[..., 2] = f[n] * low[1:-1] - radial * x[:, 2]
        yield grad


def _real_wave_gradients(n_max, k, x, out):
    """The gradients of regular_wave_gradients in the real basis of
    harmonics_table(kind="real"), written to out, a real
    ((n_max + 1)^2, npts, 3) array, one degree at a time; no complex table
    of every degree is made."""
    for n, grad in enumerate(_wave_degrees(n_max, k, x)):
        _real_rows(n, grad, out[n * n : (n + 1) ** 2])


def regular_wave_gradients(n_max, k, x):
    """Gradients of the regular waves u_n^m(x) = F_n(|x|) R_n^m(x), n <= n_max.

    R_n^m are the scaled complex regular solid harmonics of _solid_harmonics
    and F_n(r) = (2n + 1)!! j_n(k r) / (k r)^n, so that with
    w_nm = (n + m)! (n - m)!

        j_n(k |x|) Y_n^m(xhat) = k^n sqrt((2n + 1) w_nm / (4 pi)) / (2n + 1)!! u_n^m(x)

    in the complex basis of harmonics_table.  The ladder dR_n^m/dz = R_{n-1}^m,
    dR_n^m/dx = (R_{n-1}^{m+1} - R_{n-1}^{m-1}) / 2 and
    dR_n^m/dy = -(i/2) (R_{n-1}^{m-1} + R_{n-1}^{m+1}), with F_n' = -k^2 r F_{n+1} / (2n + 3),
    gives grad u = F_n grad R_n^m - k^2 / (2n + 3) F_{n+1} R_n^m x, with no pole and
    no special case at x = 0.  At k = 0, u_n^m = R_n^m.  _wave_degrees forms
    the rows m >= 0 of each degree; the rows m < 0 are (-1)^m conj(u_n^|m|).

    x: (npts, 3) relative to the expansion centre; k >= 0.  Returns
    ((n_max + 1)^2, npts, 3), rows packed n (n + 1) + m like harmonics_table.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    out = np.empty(((n_max + 1) ** 2, x.shape[0], 3), dtype=complex)
    for n, grad in enumerate(_wave_degrees(n_max, k, x)):
        c = n * (n + 1)
        out[c : c + n + 1] = grad
        out[c - n : c] = ((-1.0) ** np.arange(n, 0, -1))[:, None, None] * grad[:0:-1].conj()
    return out


def _check_rule(order, aperture):
    """theta_max of a product rule, once its order and aperture are valid."""
    if order < 1:
        raise ValueError("order must be >= 1")
    theta_max = np.pi if aperture is None else float(aperture)
    if not 0.0 < theta_max <= np.pi:
        raise ValueError("aperture must lie in (0, pi]")
    return theta_max


def sphere_quadrature(order, aperture=None):
    """Product quadrature on the unit sphere or a spherical cap.

    Gauss-Legendre in cos(theta) on [cos(theta_max), 1] (full sphere when
    aperture is None) times a trapezoid rule in azimuth with 2*order equally
    spaced points.  Full-sphere rules integrate spherical polynomials of
    degree <= 2*order - 1 exactly.

    Returns (dirs, weights): dirs (npts, 3) unit vectors, weights summing to
    the cap area.
    """
    theta_max = _check_rule(order, aperture)
    xg, wg = leggauss(order)
    lo = np.cos(theta_max)
    ct = 0.5 * (xg + 1.0) * (1.0 - lo) + lo
    wc = wg * 0.5 * (1.0 - lo)
    n_az = 2 * order
    phi = 2.0 * np.pi * np.arange(n_az) / n_az
    w_az = 2.0 * np.pi / n_az
    st = np.sqrt(np.maximum(0.0, 1.0 - ct * ct))
    dirs = np.stack(
        [
            np.outer(st, np.cos(phi)).ravel(),
            np.outer(st, np.sin(phi)).ravel(),
            np.outer(ct, np.ones(n_az)).ravel(),
        ],
        axis=1,
    )
    weights = np.outer(wc, np.full(n_az, w_az)).ravel()
    return dirs, weights


@dataclass(frozen=True)
class SphereSurface:
    """Source or measurement sphere with an attached quadrature rule.

    nodes = center + radius * dirs; weights carry the surface measure
    (they sum to the area of the possibly truncated sphere).  The rule is
    built on first use of dirs or weights: the spectral kernel factor of a
    closed sphere never reads it.
    """

    center: np.ndarray
    radius: float
    order: int
    aperture: float | None = None

    def __post_init__(self):
        if not 0.0 < self.radius < np.inf:
            raise ValueError("radius must be positive and finite")
        _check_rule(self.order, self.aperture)

    @cached_property
    def _rule(self):
        dirs, w = sphere_quadrature(self.order, aperture=self.aperture)
        return dirs, w * self.radius**2

    @property
    def dirs(self):
        return self._rule[0]

    @property
    def weights(self):
        return self._rule[1]

    @property
    def nodes(self):
        return self.center[None, :] + self.radius * self.dirs


def sphere_surface(radius, order, center=(0.0, 0.0, 0.0), aperture=None):
    """Build a SphereSurface of given radius with a product rule of given order."""
    return SphereSurface(
        center=np.asarray(center, dtype=float),
        radius=float(radius),
        order=int(order),
        aperture=aperture,
    )


# ---------------------------------------------------------------------------
# shapes and voxelization


@dataclass(frozen=True)
class Ball:
    radius: float
    center: tuple = (0.0, 0.0, 0.0)

    def contains(self, pts):
        d = np.asarray(pts, dtype=float) - np.asarray(self.center)
        return np.einsum("...i,...i->...", d, d) <= self.radius**2

    @property
    def diameter(self):
        return 2.0 * self.radius

    @property
    def bbox(self):
        c = np.asarray(self.center)
        return c - self.radius, c + self.radius

    @property
    def volume(self):
        return 4.0 * np.pi * self.radius**3 / 3.0


@dataclass(frozen=True)
class Ellipsoid:
    semi_axes: tuple
    center: tuple = (0.0, 0.0, 0.0)

    def contains(self, pts):
        d = (np.asarray(pts, dtype=float) - np.asarray(self.center)) / np.asarray(
            self.semi_axes
        )
        return np.einsum("...i,...i->...", d, d) <= 1.0

    @property
    def diameter(self):
        return 2.0 * max(self.semi_axes)

    @property
    def min_feature(self):
        return 2.0 * min(self.semi_axes)

    @property
    def bbox(self):
        c = np.asarray(self.center)
        s = np.asarray(self.semi_axes)
        return c - s, c + s

    @property
    def volume(self):
        a, b, c = self.semi_axes
        return 4.0 * np.pi * a * b * c / 3.0


@dataclass(frozen=True)
class Union:
    parts: tuple

    def contains(self, pts):
        inside = self.parts[0].contains(pts)
        for p in self.parts[1:]:
            inside = inside | p.contains(pts)
        return inside

    @property
    def diameter(self):
        los, his = zip(*(p.bbox for p in self.parts))
        lo = np.min(np.array(los), axis=0)
        hi = np.max(np.array(his), axis=0)
        return float(np.max(hi - lo))

    @property
    def min_feature(self):
        return min(getattr(p, "min_feature", p.diameter) for p in self.parts)

    @property
    def bbox(self):
        los, his = zip(*(p.bbox for p in self.parts))
        return np.min(np.array(los), axis=0), np.max(np.array(his), axis=0)

    @property
    def volume(self):
        # no overlap correction; fine for disjoint unions, which is all we build
        return sum(p.volume for p in self.parts)


@dataclass(frozen=True)
class ScattererGrid:
    """Voxelized scatterer: uniform cubic cells whose centers lie inside the shape."""

    centers: np.ndarray
    h: float
    shape: object

    @property
    def n_cells(self):
        return self.centers.shape[0]

    @property
    def cell_volume(self):
        return self.h**3

    @property
    def volume(self):
        return self.n_cells * self.h**3


def voxelize(shape, h=None, cap=None):
    """Voxelize a shape onto a cubic lattice of spacing h (default diam/20).

    The lattice is centered on the shape's bounding-box midpoint with cell
    centers at half-integer offsets, so centered symmetric shapes voxelize to
    point sets symmetric about their center (exact zero centroid).  A cell
    belongs to the grid iff its center lies in the shape.  With a cap on the
    cells, a lattice of more than 8 cap points raises MemoryError before it
    is built: a ball or an ellipsoid fills about pi/6 of its box, so such a
    lattice holds well over cap cells.
    """
    diam = shape.diameter
    feature = getattr(shape, "min_feature", diam)
    if h is None:
        h = diam / 20.0
    if not 0.0 < h < np.inf:
        raise ValueError("h must be positive and finite")
    if not h < feature / 4.0 + 1e-12:
        raise ValueError("resolution too coarse: need h < min feature size / 4")
    lo, hi = shape.bbox
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    n_half = np.ceil(half / h)
    points = float(np.prod(2.0 * n_half))
    if cap is not None and points > 8 * cap:
        raise MemoryError(f"h = {h:.3g} gives a lattice of {points:.3g} points, whose voxels "
                          f"would exceed the cap {cap}")
    n_half = n_half.astype(int)
    axes = [mid[k] + h * (np.arange(-n_half[k], n_half[k]) + 0.5) for k in range(3)]
    xs, ys, zs = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([xs.ravel(), ys.ravel(), zs.ravel()], axis=1)
    inside = shape.contains(pts)
    centers = pts[inside]
    if centers.shape[0] == 0:
        raise ValueError("voxelization produced no cells (degenerate shape)")
    return ScattererGrid(centers=centers, h=float(h), shape=shape)
