"""Smooth cutoff built from iterated box convolutions, with its transform.

theta is the indicator of [-a, a] convolved with k copies of the
normalized indicator of [-b, b], where a = 7*epsilon/8 and
b = epsilon/(8k).  It is 1 on |y| <= 3*epsilon/4, 0 outside
|y| >= epsilon, and its transform has the closed form

    Theta(x) = 2a * sinc(2ax) * sinc(2bx)^k     (sinc(t) = sin(pi t)/(pi t))

whose absolute value is bounded termwise by
min(7eps/4, 1/(pi|x|), (1/(pi|x|)) (4k/(pi eps |x|))^k).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quadrature import simpson_uniform

__all__ = [
    "SmoothingKernel",
    "BoundReport",
    "make_kernel",
    "theta",
    "theta_transform",
    "GridTransform",
    "transform_bound",
    "verify_bounds",
    "invert_transform",
]

# Internal construction grid has kappa cells per half-width b; the
# public mesh is interpolated from it afterwards.
_KAPPA = 1024

# theta_transform works in blocks of this many points so that its
# temporaries stay in cache (about 30% faster on 2^21 points).
_BLOCK = 1 << 15


@dataclass(frozen=True)
class SmoothingKernel:
    epsilon: float
    k: int
    a: float
    b: float
    mesh_y: np.ndarray
    grid: np.ndarray

    @property
    def plateau(self) -> float:
        return 0.75 * self.epsilon

    @property
    def support(self) -> float:
        return self.epsilon


def _box_average(values: np.ndarray, half: int) -> np.ndarray:
    """Trapezoid window mean over [i-half, i+half], zero-padded.

    Exact for the piecewise-linear interpolant of `values`; window sums
    of the flat regions stay exactly 1 (or 0) because the end weights
    are halves and the divisor is the cell count.
    """
    n = values.size
    padded = np.zeros(n + 2 * half)
    padded[half : half + n] = values
    c = np.concatenate(([0.0], np.cumsum(padded)))
    i = np.arange(n)
    lo = i                 # padded index of i - half
    hi = i + 2 * half      # padded index of i + half
    inner = c[hi + 1] - c[lo]
    trap = inner - 0.5 * (padded[lo] + padded[hi])
    return trap / (2 * half)


def make_kernel(epsilon: float, k: int, mesh_points: int = (1 << 14) + 1) -> SmoothingKernel:
    """Construct the kernel by iterated discrete convolution.

    The first convolution (an exact trapezoid) is written down in closed
    form; the remaining k-1 box convolutions are window means on a grid
    of kappa cells per b, which reproduces the true values to a few
    parts in 1e8.  The plateau and the complement of the support are
    exact by construction and are snapped regardless.
    """
    if not epsilon > 0.0 or not math.isfinite(epsilon):
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
    if not isinstance(k, int) or isinstance(k, bool) or not 1 <= k <= 64:
        raise ValueError(f"k must be an integer in [1, 64], got {k!r}")
    if not isinstance(mesh_points, int) or mesh_points < 1024:
        raise ValueError(f"mesh_points must be an integer >= 1024, got {mesh_points!r}")

    a = 7.0 * epsilon / 8.0
    b = epsilon / (8.0 * k)
    half_a = 7 * k * _KAPPA      # a in grid cells
    half_b = _KAPPA              # b in grid cells
    radius = half_a + k * half_b  # = epsilon in grid cells
    h = epsilon / radius
    idx = np.abs(np.arange(-radius, radius + 1))

    # indicator * box, exactly: trapezoid with corners at a -/+ b
    vals = np.clip((half_a + half_b - idx) / (2.0 * half_b), 0.0, 1.0)
    for _ in range(k - 1):
        vals = _box_average(vals, half_b)

    vals = 0.5 * (vals + vals[::-1])
    np.clip(vals, 0.0, 1.0, out=vals)

    # exact plateau and support snap (3/4 and 1 of radius are integers)
    plateau_cells = (3 * radius) // 4
    vals[idx <= plateau_cells] = 1.0
    vals[idx >= radius] = 0.0

    mesh_y = np.linspace(-epsilon, epsilon, mesh_points)
    grid = np.interp(mesh_y, np.arange(-radius, radius + 1) * h, vals)
    # mirror once more so interpolation round-off cannot break evenness
    grid = 0.5 * (grid + grid[::-1])
    return SmoothingKernel(epsilon=float(epsilon), k=k, a=a, b=b,
                           mesh_y=mesh_y, grid=grid)


def theta(kernel: SmoothingKernel, y) -> "float | np.ndarray":
    """Evaluate theta: exact on the plateau and outside the support,
    linear mesh interpolation on the two ramps."""
    y_arr = np.abs(np.asarray(y, dtype=np.float64))
    out = np.empty(y_arr.shape)
    plateau = y_arr <= kernel.plateau
    outside = y_arr >= kernel.support
    ramp = ~(plateau | outside)
    out[plateau] = 1.0
    out[outside] = 0.0
    if np.any(ramp):
        out[ramp] = np.interp(y_arr[ramp], kernel.mesh_y, kernel.grid)
    if np.isscalar(y) or np.asarray(y).ndim == 0:
        return float(out)
    return out


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
    out = np.empty_like(flat)
    for i in range(0, flat.size, _BLOCK):
        part = flat[i : i + _BLOCK]
        val = _sinc(2.0 * kernel.a, part)
        _times_power(val, _sinc(2.0 * kernel.b, part), kernel.k)
        val *= 2.0 * kernel.a
        out[i : i + _BLOCK] = val
    if np.isscalar(x) or x_arr.ndim == 0:
        return float(out[0])
    return out.reshape(x_arr.shape)


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
    relative where 2 pi a t < 1 and 3.1e-15 * 2a absolute elsewhere;
    against theta_transform on the same points, within 7.8e-15 relative
    and 5.5e-15 * 2a absolute (tests/test_kernel.py holds 2.5e-14 for
    both).  The gap grows in proportion to k through the power (3.6e-14
    relative at k = 64).  Both terms of the rotated sine have the sign
    of the sine while c t < 1/4, which keeps the small-t values accurate
    relative to themselves; with a negative anchor they would cancel, so
    blocks must start at t_b >= 0 (symmetric grids use theta_transform).
    """

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
    if np.isscalar(x) or np.asarray(x).ndim == 0:
        return float(out)
    return out


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
    """Cutoff T with the analytic transform tail below tol/2.

    The tail integral 2*int_T^inf (1/(pi x))(4k/(pi eps x))^k dx equals
    (2/(pi k)) (4k/(pi eps T))^k / T; solve for T in log space.
    """
    k, eps = kernel.k, kernel.epsilon
    c = 4.0 * k / (math.pi * eps)
    # tail(T) = (2/(pi k)) c^k T^{-k}; aim for tol/4 to leave quadrature room
    log_t = (math.log(2.0 / (math.pi * k)) - math.log(tol / 4.0)) / k + math.log(c)
    return math.exp(max(log_t, math.log(c) + 0.1))


def invert_transform(
    kernel: SmoothingKernel,
    y_grid,
    tol: float = 1e-3,
    t_cutoff: "float | None" = None,
) -> np.ndarray:
    """Reconstruct theta(y) = int_{-T}^{T} Theta(x) e(xy) dx with T from
    the analytic tail bound (or a caller-fixed T), by composite Simpson
    dense enough for the oscillation; the evenness collapses to a cosine
    integral."""
    y_arr = np.atleast_1d(np.asarray(y_grid, dtype=np.float64))
    t_cut = _inversion_cutoff(kernel, tol) if t_cutoff is None else float(t_cutoff)
    # integrand frequency in x is at most (a + k b) + max|y| = eps + max|y|
    nu = kernel.epsilon + float(np.max(np.abs(y_arr)))
    panels = max(512, int(math.ceil(16.0 * nu * t_cut)))
    if panels % 2:
        panels += 1
    xs = np.linspace(0.0, t_cut, panels + 1)
    tv = theta_transform(kernel, xs)
    out = np.empty(y_arr.size)
    h = t_cut / panels
    for i, y in enumerate(y_arr):
        integrand = tv * np.cos(2.0 * math.pi * xs * y)
        out[i] = 2.0 * simpson_uniform(integrand, h)
    return out
