"""Smooth cutoff built from iterated box convolutions, with its transform.

theta is the indicator of [-a, a] convolved with k copies of the
normalized indicator of [-b, b], where a = 7*epsilon/8 and
b = epsilon/(8k).  It is 1 on |y| <= 3*epsilon/4, 0 outside
|y| >= epsilon, and its transform has the closed form

    Theta(x) = 2a * sinc(2ax) * sinc(2bx)^k     (sinc(t) = sin(pi t)/(pi t))

whose absolute value is bounded termwise by
min(7eps/4, 1/(pi|x|), (1/(pi|x|)) (4k/(pi eps |x|))^k).

theta is evaluated exactly, as Theta is, so the direct and spectral
sides differ only by quadrature error.  On the ramp theta(y) =
F1((eps - |y|)/2b), F1 the Irwin-Hall CDF of order k (a sum of k
uniforms on [-b, b] is 2b(U - k/2)): an integrated cardinal B-spline,
of degree k on each unit interval (de Boor, A Practical Guide to
Splines, 1978); its antiderivatives F2 and F4 integrate theta once and
three times.  Each piece is expanded about its midpoint with exact
rational coefficients rounded once, and evaluated by Horner's rule.
Against mpmath at the double y (k in {1, 2, 9, 11, 13, 20, 64}, eps in
{0.05, 0.37, 2}): theta within 6.4e-16, its antiderivative within
1.4e-16 * 2a; the third antiderivative G3 within 3.1e-16 of G3(y) +
G3(-y) (k in {1, 2, 9, 11, 13, 64}, eps in {0.05, 2}); the tests hold
1e-15.

invert_transform recovers theta from Theta by the band rule of module
quadrature, the trapezoid rule less its endpoint series from
transform_series, up to a cutoff set by the transform's tail bound.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .quadrature import _EM_TERMS, _band_grid, euler_maclaurin

__all__ = [
    "SmoothingKernel",
    "BoundReport",
    "make_kernel",
    "theta",
    "theta_antiderivative",
    "theta_transform",
    "sinc_series",
    "transform_series",
    "GridTransform",
    "transform_bound",
    "verify_bounds",
    "invert_transform",
]


@dataclass(frozen=True)
class SmoothingKernel:
    epsilon: float
    k: int
    a: float
    b: float

    @property
    def plateau(self) -> float:
        return 0.75 * self.epsilon

    @property
    def support(self) -> float:
        return self.epsilon


def make_kernel(epsilon: float, k: int) -> SmoothingKernel:
    """The kernel of width epsilon and smoothness k (1 <= k <= 64): only
    its geometry; the polynomial tables of theta and its antiderivatives
    are built on first use, once per k."""
    if not epsilon > 0.0 or not math.isfinite(epsilon):
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
    if not isinstance(k, int) or isinstance(k, bool) or not 1 <= k <= 64:
        raise ValueError(f"k must be an integer in [1, 64], got {k!r}")
    return SmoothingKernel(epsilon=float(epsilon), k=k,
                           a=7.0 * epsilon / 8.0, b=epsilon / (8.0 * k))


@functools.lru_cache(maxsize=None)
def _spline_table(k: int, m: int) -> np.ndarray:
    """Coefficients of F_m(z) = sum_{j <= z} (-1)^j C(k, j) (z - j)^n / n!,
    n = k - 1 + m, on the pieces [i, i+1), i < k: in v = z - i - 1/2,
    (z - j)^n = (2v + 2(i - j) + 1)^n / 2^n, so each coefficient is an
    integer over 2^n n!, divided once with correct rounding.  Row r holds
    the coefficients of v^(n-r), as Horner's rule reads them."""
    n = k - 1 + m
    denom = 2**n * math.factorial(n)
    out = np.empty((n + 1, k))
    for i in range(k):
        for p in range(n + 1):
            s = sum((-1) ** j * math.comb(k, j) * (2 * (i - j) + 1) ** (n - p)
                    for j in range(i + 1))
            out[n - p, i] = math.comb(n, p) * 2**p * s / denom
    out.flags.writeable = False     # one cached table serves every caller
    return out


def _spline(k: int, m: int, z: np.ndarray) -> np.ndarray:
    """F_m at points z in (0, k], by Horner's rule on each z's piece."""
    table = _spline_table(k, m)
    i = np.minimum(z.astype(np.intp), k - 1)
    v = z - i - 0.5
    out = table[0][i]
    for row in table[1:]:
        out *= v
        out += row[i]
    return out


def _scalar_or_array(y, out: np.ndarray):
    if np.isscalar(y) or np.asarray(y).ndim == 0:
        return out.item()
    return out


def theta(kernel: SmoothingKernel, y) -> "float | np.ndarray":
    """theta(y): exactly 1 on the plateau and 0 outside the support;
    F1((eps - |y|)/2b) on the two ramps, clipped to [0, 1].  Even in y
    bit for bit, since only |y| is used."""
    y_arr = np.abs(np.asarray(y, dtype=np.float64))
    out = np.where(y_arr <= kernel.plateau, 1.0, 0.0)
    ramp = (y_arr > kernel.plateau) & (y_arr < kernel.support)
    z = (kernel.epsilon - y_arr[ramp]) / (2.0 * kernel.b)
    out[ramp] = np.clip(_spline(kernel.k, 1, z), 0.0, 1.0)
    return _scalar_or_array(y, out)


def _antiderivatives(
    kernel: SmoothingKernel, y
) -> "tuple[float | np.ndarray, float | np.ndarray]":
    """theta's first and third antiderivatives G1 and G3 at y, each the
    integral over (-inf, y] of the one before (G2 between them).

    For y <= 0 they are 2b F2(z) and (2b)^3 F4(z), z = (eps + y)/2b,
    since 2b F_m((y - a + kb)/2b), the other term of the box
    convolution, vanishes there (a + kb = eps).  Past the spline's
    support, z >= k, the centred closed forms F2(z) = w and F4(z) =
    (w^3 + k w/4)/6, w = z - k/2, replace the truncated-power sum, which
    cancels catastrophically there.  For y > 0 evenness gives G1(y) =
    2a - G1(-y) and G3(y) = a y^2 + a(a^2 + k b^2)/3 - G3(-y), the
    constant being half theta's second moment."""
    y_arr = np.asarray(y, dtype=np.float64)
    mag = np.abs(y_arr)
    a, b, k = kernel.a, kernel.b, kernel.k
    low1 = np.zeros(mag.shape)
    low3 = np.zeros(mag.shape)
    inside = mag < kernel.support
    z = (kernel.epsilon - mag[inside]) / (2.0 * b)
    f2 = z - 0.5 * k
    f4 = (f2 * f2 + 0.25 * k) * f2 / 6.0
    ramp = z < k
    f2[ramp] = _spline(k, 2, z[ramp])
    f4[ramp] = _spline(k, 4, z[ramp])
    low1[inside] = (2.0 * b) * f2
    low3[inside] = (2.0 * b) ** 3 * f4
    upper = y_arr > 0.0
    g1 = np.where(upper, 2.0 * a - low1, low1)
    even = a * y_arr * y_arr + a * (a * a + k * b * b) / 3.0
    g3 = np.where(upper, even - low3, low3)
    return _scalar_or_array(y, g1), _scalar_or_array(y, g3)


def theta_antiderivative(kernel: SmoothingKernel, y) -> "float | np.ndarray":
    """The integral of theta over (-inf, y]: 0 for y <= -eps, exactly 2a
    = 7eps/4 for y >= eps (_antiderivatives).  The package keeps it as
    the first antiderivative that README documents for the kernel."""
    return _antiderivatives(kernel, y)[0]


def _sinc(c: float, x: np.ndarray) -> np.ndarray:
    """sin(pi c x)/(pi c x) for a 1-d array x, exactly 1 at x = 0; the
    same bits as np.sinc(c * x) without its copies."""
    arg = c * x
    arg *= np.pi
    out = np.sin(arg)
    with np.errstate(invalid="ignore"):
        out /= arg
    out[arg == 0.0] = 1.0
    return out


def _times_power(out: np.ndarray, base: np.ndarray, k: int) -> None:
    """out *= base**k in place for an integer k >= 1, squaring base in
    place; plain multiplies are several times cheaper than ** (`pow`)."""
    while True:
        if k & 1:
            out *= base
        k >>= 1
        if not k:
            return
        base *= base


def theta_transform(kernel: SmoothingKernel, x) -> "float | np.ndarray":
    """Closed-form transform; real because theta is even.

    Each sinc factor takes one np.sin of the rounded argument pi * 2c * x,
    so it is accurate to a few ulps relative where the argument is small
    and to a few ulps absolute elsewhere, and the k-th power scales the
    second factor's error by k.  Against mpmath at the double x, for eps
    0.05 to 2 and k <= 11: within 2.1e-15 relative where 2 pi a |x| < 1
    and within 5.4e-16 * 2a absolute elsewhere.
    """
    x_arr = np.asarray(x, dtype=np.float64)
    flat = x_arr.reshape(-1)
    out = _sinc(2.0 * kernel.a, flat)
    _times_power(out, _sinc(2.0 * kernel.b, flat), kernel.k)
    out *= 2.0 * kernel.a
    return _scalar_or_array(x, out.reshape(x_arr.shape))


def sinc_series(u: float, r: float, n: int) -> np.ndarray:
    """The first n Taylor coefficients f_j of sinc(u + r s) in s (r != 0),
    from (u + r s) sinc(u + r s) = sin(pi (u + r s)) / pi: u f_j + r
    f_{j-1} = sigma_j = (pi r)^j / j! sin(pi u + j pi/2) / pi.  On the
    scale (pi r)^j / j! of |f_j| a step up multiplies the carried error
    by j / (pi |u|) and a step down by its inverse, so the recurrence
    runs up while j <= pi |u| and down from zeros far enough past n to
    damp the start below rounding.  At u = 0 the coefficients are taken
    from sinc(r s) = sum_i (-1)^i (pi r s)^(2i) / (2i + 1)! instead, so
    f_0 is exactly 1 (the descent's sigma_1 / r is off by its roundings)."""
    if u == 0.0:
        f = np.cumprod([1.0] + [math.pi * r / (j + 1) for j in range(1, n)])
        f[1::2] = 0.0
        f[2::4] *= -1.0
        return f
    top = int(math.pi * abs(u))
    up = min(top + 1, n) if top else 0     # coefficients taken upward
    m = n if up == n else n + 30 + top     # where the descent starts
    v = math.pi * math.fmod(u, 2.0)    # exact reduction of the period 2
    sigma = np.cumprod([1.0 / math.pi] + [math.pi * r / j for j in range(1, m)])
    sigma *= np.resize([math.sin(v), math.cos(v), -math.sin(v), -math.cos(v)], m)
    f = np.zeros(m)
    for j in range(up):
        f[j] = (sigma[j] - (r * f[j - 1] if j else 0.0)) / u
    for j in range(m - 1, up, -1):
        f[j - 1] = (sigma[j] - u * f[j]) / r
    return f[:n]


def transform_series(kernel: SmoothingKernel, x: float, h: float, n: int) -> np.ndarray:
    """The first n Taylor coefficients of Theta(x + s h) in s: 2a times
    the sinc series of 2a (x + s h) times the k-th power of that of
    2b (x + s h), each product cut at n terms."""
    out = 2.0 * kernel.a * sinc_series(2.0 * kernel.a * x, 2.0 * kernel.a * h, n)
    base = sinc_series(2.0 * kernel.b * x, 2.0 * kernel.b * h, n)
    for bit in bin(kernel.k)[:1:-1]:        # binary digits, lowest first
        if bit == "1":
            out = np.convolve(out, base)[:n]
        base = np.convolve(base, base)[:n]
    return out


class GridTransform:
    """Theta on blocks of a uniform grid with t >= 0, by phase rotation.

    For a block t_b + h r, r < size, each sinc factor's sine is
    sin(2 pi c t) = Im(e(c t_b) e(c h r)) for c in (a, b): the anchor
    phase c t_b is reduced mod 1 once per block, and the tables of
    e(c h r) are built once, so the block costs a few multiplies and one
    divide per point instead of two np.sin calls.  The denominators,
    the power and the factor 2a are those of theta_transform.

    Accuracy, measured for eps 0.01 to 2, k <= 11, h 2e-7 to 4e-4 and t
    up to 700: against mpmath at the double grid points, within 5.8e-15
    relative where 2 pi a t < 1 and 3.1e-15 * 2a absolute elsewhere
    (error, the figure the band bars charge); against theta_transform on
    the same points, within 7.8e-15 relative and 5.5e-15 * 2a absolute
    (tests/test_kernel.py holds 2.5e-14 for both).  The gap grows in
    proportion to k through the power (3.6e-14 relative at k = 64).  Both terms of the rotated sine have the sign
    of the sine while c t < 1/4, which keeps the small-t values accurate
    relative to themselves; with a negative anchor they would cancel, so
    blocks must start at t_b >= 0.
    """

    error = (5.8e-15, 3.1e-15)

    def __init__(self, kernel: SmoothingKernel, h: float, size: int) -> None:
        self.kernel = kernel
        self.size = int(size)
        self._tables = []
        for c in (kernel.a, kernel.b):
            phase = (c * float(h)) * np.arange(self.size)
            phase -= np.floor(phase)
            phase *= 2.0 * np.pi
            self._tables.append((c, np.cos(phase), np.sin(phase)))
        self._second = np.empty(self.size)
        self._scratch = np.empty(self.size)

    def __call__(self, t: np.ndarray, out: "np.ndarray | None" = None) -> np.ndarray:
        """Theta at the block t (ascending, t[0] >= 0, at most size points,
        t[r] = t[0] + h r up to rounding), written to out[:len(t)]."""
        n = t.size
        if n > self.size or (n and not t[0] >= 0.0):
            raise ValueError("block must hold at most size points from t >= 0")
        out = np.empty(n) if out is None else out[:n]
        tmp = self._scratch[:n]
        for (c, cos_r, sin_r), dst in zip(self._tables, (out, self._second[:n])):
            anchor = c * float(t[0]) if n else 0.0
            anchor = 2.0 * math.pi * (anchor - math.floor(anchor))
            # Im(e(c t_b) e(c h r)) = sin(A) cos(B) + cos(A) sin(B), A = 2 pi c t_b
            np.multiply(cos_r[:n], math.sin(anchor), out=dst)
            np.multiply(sin_r[:n], math.cos(anchor), out=tmp)
            dst += tmp
            np.multiply(t, 2.0 * c, out=tmp)
            tmp *= np.pi
            with np.errstate(invalid="ignore"):
                dst /= tmp
            if n and t[0] == 0.0:
                dst[0] = 1.0
        _times_power(out, self._second[:n], self.kernel.k)
        out *= 2.0 * self.kernel.a
        return out


def transform_bound(kernel: SmoothingKernel, x) -> "float | np.ndarray":
    """min of the three decay branches, k-th power taken in log space."""
    x_arr = np.abs(np.asarray(x, dtype=np.float64))
    eps, k = kernel.epsilon, kernel.k
    flat = 7.0 * eps / 4.0
    with np.errstate(divide="ignore", over="ignore"):
        inv = 1.0 / (np.pi * x_arr)
        log_third = -np.log(np.pi * x_arr) + k * (
            math.log(4.0 * k) - math.log(math.pi * eps) - np.log(x_arr)
        )
        third = np.exp(np.minimum(log_third, 709.0))
        out = np.minimum(flat, np.minimum(inv, third))
    out = np.where(x_arr == 0.0, flat, out)
    return _scalar_or_array(x, out)


@dataclass(frozen=True)
class BoundReport:
    checked: int
    violations: int
    worst_x: float
    worst_excess_rel: float
    min_slack: float


def verify_bounds(kernel: SmoothingKernel, x_grid) -> BoundReport:
    """Check |transform| <= bound pointwise; violations are reported,
    never raised.  worst_excess_rel is the largest (|T|-bound)/bound,
    negative when every point satisfies the inequality."""
    x_arr = np.asarray(x_grid, dtype=np.float64)
    tvals = np.abs(theta_transform(kernel, x_arr))
    bounds = transform_bound(kernel, x_arr)
    slack = bounds - tvals
    rel_excess = (tvals - bounds) / np.where(bounds > 0, bounds, 1.0)
    worst = int(np.argmax(rel_excess))
    bad = int(np.count_nonzero(rel_excess > 1e-12))
    return BoundReport(
        checked=int(x_arr.size),
        violations=bad,
        worst_x=float(x_arr[worst]),
        worst_excess_rel=float(rel_excess[worst]),
        min_slack=float(np.min(slack)),
    )


def _inversion_cutoff(kernel: SmoothingKernel, tol: float) -> float:
    """Cutoff T with the analytic transform tail at tol/4.

    The tail integral 2*int_T^inf (1/(pi x))(4k/(pi eps x))^k dx equals
    (2/(pi k)) (4k/(pi eps T))^k; T solves tail = tol/4 in log space,
    leaving the rest of tol to the quadrature, and is kept just past
    the decay corner 4k/(pi eps).
    """
    k, eps = kernel.k, kernel.epsilon
    c = 4.0 * k / (math.pi * eps)
    # tail(T) = (2/(pi k)) c^k T^{-k}; aim for tol/4 to leave quadrature room
    log_t = (math.log(2.0 / (math.pi * k)) - math.log(tol / 4.0)) / k + math.log(c)
    return math.exp(max(log_t, math.log(c) + 0.1))


def invert_transform(kernel: SmoothingKernel, y_grid, tol: float = 1e-3) -> np.ndarray:
    """Reconstruct theta(y) = 2 int_0^T Theta(x) cos(2 pi x y) dx, T from
    the analytic tail bound (_inversion_cutoff), by the band rule (module
    quadrature): the integrand's frequencies lie within eps + max|y|, so
    the trapezoid sum on _band_grid(0, T, eps + max|y|) misses the
    integral by its endpoint series alone.  At x = 0 the integrand is
    even and the series vanishes; at T it is transform_series times the
    cosine's series, subtracted to _EM_TERMS terms.  What is left is the
    transform's tail past T, tol/4 by the bound."""
    y_arr = np.atleast_1d(np.asarray(y_grid, dtype=np.float64))
    t_cut = _inversion_cutoff(kernel, tol)
    n, h = _band_grid(0.0, t_cut, kernel.epsilon + float(np.max(np.abs(y_arr))))
    xs = h * np.arange(n)
    tv = theta_transform(kernel, xs)
    tv[[0, -1]] *= 0.5
    terms = 2 * _EM_TERMS
    ends = transform_series(kernel, xs[-1], h, terms)
    start = np.zeros(terms)
    out = np.empty(y_arr.size)
    for i, y in enumerate(y_arr):
        w = 2.0 * math.pi * y
        # cos(w (T + s h)) has s^j coefficient (w h)^j / j! cos(w T + j pi/2)
        v = w * xs[-1]
        cos_series = np.cumprod([1.0] + [w * h / j for j in range(1, terms)])
        cos_series *= np.resize([math.cos(v), -math.sin(v), -math.cos(v), math.sin(v)], terms)
        correction = euler_maclaurin(h, start, np.convolve(ends, cos_series)[:terms]).real
        out[i] = 2.0 * (h * float(np.dot(tv, np.cos(w * xs))) - correction)
    return out
