"""Quadrature building blocks.

* `adaptive_simpson`: composite Simpson with panel doubling until two
  refinements agree to a relative tolerance; past _MAX_PANELS it raises.
  Only tests and demos call it, as a reference quadrature; every
  computation in the package uses the band rule below.

* `euler_maclaurin`: the trapezoid sum T_h of a g band-limited to
  |f| <= f_max, f_max h < 1, misses its integral over [a, b] by exactly
  h sum_k B_2k/(2k) (c_{2k-1}(b) - c_{2k-1}(a)), c_j(x) the s^j Taylor
  coefficient of g(x + s h), with terms falling like (f_max h)^(2k)
  (Trefethen and Weideman, SIAM Rev. 2014); `euler_maclaurin_tail`
  bounds the terms left out, `euler_maclaurin_squared` takes |F|^2's
  series from F's.  `bernoulli_even` gives the B_2k exactly from the
  tangent numbers, built in place by O(K^2) integer multiply-adds
  (Brent and Harvey, "Fast computation of Bernoulli, tangent and secant
  numbers", 2011), with no Fraction arithmetic before the K final
  quotients; the weights B_2k/(2k) are rounded to doubles once per term
  count.

* The band rule, of `triplesum._band_quadrature`, `expsums.l2_integral`
  and `kernel.invert_transform`: the trapezoid sum on `_band_grid`
  (f_max h <= _BAND_FH = 0.8) minus the first _EM_TERMS = 80 terms of
  that series.  The omitted terms fall like 0.8^(2k), so the tail bound
  carries a factor 0.8^161 = 2.5e-16, and the grid has 37% fewer points
  than at f_max h <= 1/2.

* `boole_weight`: composite Boole (5-point Newton-Cotes, O(h^6)) weights
  by global sample index.  Nothing in the package calls it; the
  benchmark's tracer resolves the name.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .params import ParameterError

__all__ = [
    "QuadratureError",
    "SimpsonResult",
    "adaptive_simpson",
    "bernoulli_even",
    "euler_maclaurin",
    "euler_maclaurin_tail",
    "euler_maclaurin_squared",
    "boole_weight",
]


class QuadratureError(RuntimeError):
    """A grid, or a refinement of one, would pass its point cap."""


# adaptive_simpson never doubles past _MAX_PANELS panels; band grids past
# _MAX_BAND_POINTS points are refused rather than attempted
_MAX_PANELS = 1 << 22
_MAX_BAND_POINTS = 1 << 31

# the band rule's f_max h and endpoint terms (which fall like (f_max h)^2k)
_BAND_FH = 0.8
_EM_TERMS = 80


@dataclass(frozen=True)
class SimpsonResult:
    value: float
    panels: int
    last_change: float


def adaptive_simpson(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    initial_panels: int = 64,
    rel_tol: float = 1e-6,
) -> SimpsonResult:
    """Integrate vectorized f over [a, b], doubling panels until stable.

    Convergence: |I_2n - I_n| <= rel_tol * |I_2n|.  Raises
    QuadratureError when doubling would pass _MAX_PANELS; callers map this to the non-convergence exit
    path rather than accepting an unconverged value.
    """
    if not b > a:
        raise ValueError("empty or inverted interval")
    panels = max(2, int(initial_panels))
    if panels % 2:
        panels += 1

    def run(n_panels: int) -> float:
        y = np.asarray(f(np.linspace(a, b, n_panels + 1)), dtype=np.float64)
        s = y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-1:2].sum()
        return float(s * ((b - a) / n_panels) / 3.0)

    prev = run(panels)
    while True:
        if panels * 2 > _MAX_PANELS:
            raise QuadratureError(
                f"no convergence below {rel_tol:g} within {_MAX_PANELS} panels"
            )
        panels *= 2
        cur = run(panels)
        change = abs(cur - prev)
        if change <= rel_tol * abs(cur):
            return SimpsonResult(cur, panels, change)
        prev = cur


def bernoulli_even(count: int) -> "tuple[Fraction, ...]":
    """B_2, B_4, ..., B_(2 count) exactly, from the tangent numbers T_k
    (tan x = sum T_k x^(2k-1) / (2k-1)!), built in place in integers
    (Brent and Harvey 2011): B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1))."""
    t = [0, 1]
    for k in range(2, count + 1):
        t.append((k - 1) * t[-1])
    for k in range(2, count + 1):
        for j in range(k, count + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return tuple(Fraction((-1) ** (k - 1) * 2 * k * t[k], 4**k * (4**k - 1))
                 for k in range(1, count + 1))


@functools.lru_cache(maxsize=None)
def _em_weights(terms: int) -> np.ndarray:
    """B_2k / (2k) as doubles, k = 1 .. terms."""
    weights = np.array([float(b / (2 * k)) for k, b in enumerate(bernoulli_even(terms), 1)])
    weights.flags.writeable = False
    return weights


def euler_maclaurin(h: float, lo: np.ndarray, hi: np.ndarray) -> complex:
    """T_h - I to K terms, lo and hi holding c_0 .. c_{2K-1} at a and b."""
    weights = _em_weights(len(lo) // 2)
    return complex(h * np.dot(weights, np.asarray(hi)[1::2] - np.asarray(lo)[1::2]))


def euler_maclaurin_tail(h: float, fh: float, majorant: float, terms: int) -> float:
    """Bound on the terms k > terms when |c_j| <= majorant (2 pi fh)^j / j!
    at both ends (fh = f_max h < 1): as |B_2k| / (2k (2k-1)!) = 2 zeta(2k)
    / (2 pi)^2k and zeta < 2, term k is at most 4 h majorant fh^(2k-1) / pi."""
    if not 0.0 <= fh < 1.0:
        raise ValueError(f"f_max h must lie in [0, 1), got {fh}")
    return 4.0 * h * majorant * fh ** (2 * terms + 1) / (math.pi * (1.0 - fh * fh))


def euler_maclaurin_squared(h: float, lo: np.ndarray, hi: np.ndarray) -> float:
    """T_h - I for |F|^2, lo and hi holding F's c_0 .. c_{2K-1} at a and b:
    on real s, |F(x + s h)|^2 has the series of F times its conjugate."""
    squares = [np.convolve(c, np.conj(c))[:len(c)] for c in (lo, hi)]
    return euler_maclaurin(h, *squares).real


def _band_grid(t_lo: float, t_hi: float, f_max: float) -> "tuple[int, float]":
    """(points, spacing) of the band rule's grid on [t_lo, t_hi]: the
    fewest intervals with f_max h <= _BAND_FH."""
    if not t_hi > t_lo:
        raise ParameterError(f"empty band [{t_lo}, {t_hi}]")
    intervals = max(1, math.ceil((t_hi - t_lo) * f_max / _BAND_FH))
    if intervals + 1 > _MAX_BAND_POINTS:
        raise QuadratureError(
            f"band [{t_lo:.6g}, {t_hi:.6g}] needs {intervals + 1} grid points, "
            f"beyond the {_MAX_BAND_POINTS} cap"
        )
    return intervals + 1, (t_hi - t_lo) / intervals


# Composite Boole on N = 4m+1 samples: weights (2h/45) * [7, 32, 12, 32,
# 14, 32, 12, 32, ..., 14, 32, 12, 32, 7]; interior panel joints carry 14.
_BOOLE_PATTERN = np.array([14.0, 32.0, 12.0, 32.0])   # by index mod 4


def boole_weight(indices: np.ndarray, n_points: int) -> np.ndarray:
    """Unnormalized Boole weights for global sample indices.

    Multiply the weighted sum by 2h/45.  `n_points` must be 4m+1; indices
    may be any subset, enabling chunked accumulation over huge grids.
    """
    if n_points < 5 or (n_points - 1) % 4:
        raise ValueError("Boole grid must have 4m+1 points")
    idx = np.asarray(indices)
    return np.where((idx == 0) | (idx == n_points - 1), 7.0, _BOOLE_PATTERN[idx & 3])
