"""Quadrature building blocks.

Building blocks:

* `adaptive_simpson`: composite Simpson on a uniform grid with panel-count
  doubling until two refinements agree to a relative tolerance.  Used for
  the remainder envelope of `triplesum.phi_bound` and other smooth,
  non-oscillatory integrands.  The panel cap (_MAX_PANELS) is a hard
  error, not a silent truncation.  (The L2 integrals and the box
  integral run their own doubling loops.)

* `euler_maclaurin`: the trapezoid sum T_h of a g band-limited to
  |f| <= f_max, f_max h < 1, misses its integral over [a, b] by exactly
  h sum_k B_2k/(2k) (c_{2k-1}(b) - c_{2k-1}(a)), c_j(x) the s^j Taylor
  coefficient of g(x + s h), with terms falling like (f_max h)^(2k)
  (Trefethen and Weideman, SIAM Rev. 2014); `euler_maclaurin_tail`
  bounds the terms left out.  Used by `triplesum._band_quadrature`.

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

__all__ = [
    "QuadratureError",
    "SimpsonResult",
    "adaptive_simpson",
    "simpson_uniform",
    "bernoulli_even",
    "euler_maclaurin",
    "euler_maclaurin_tail",
    "boole_weight",
]


class QuadratureError(RuntimeError):
    """Panel refinement hit its cap without meeting the tolerance."""


# adaptive_simpson never doubles past this many panels
_MAX_PANELS = 1 << 22


@dataclass(frozen=True)
class SimpsonResult:
    value: float
    panels: int
    last_change: float
    converged: bool


def simpson_uniform(fvals: np.ndarray, h: float) -> float:
    """Composite Simpson over 2m+1 uniform samples with spacing h."""
    fvals = np.asarray(fvals, dtype=np.float64)
    n = fvals.size
    if n < 3 or n % 2 == 0:
        raise ValueError("Simpson needs an odd sample count >= 3")
    s = fvals[0] + fvals[-1] + 4.0 * fvals[1:-1:2].sum() + 2.0 * fvals[2:-1:2].sum()
    return float(s * h / 3.0)


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
        x = np.linspace(a, b, n_panels + 1)
        return simpson_uniform(f(x), (b - a) / n_panels)

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
            return SimpsonResult(cur, panels, change, True)
        prev = cur


@functools.lru_cache(maxsize=None)
def bernoulli_even(count: int) -> "tuple[Fraction, ...]":
    """B_2, B_4, ..., B_(2 count) exactly, from sum_{j <= m} C(m+1, j) B_j = 0."""
    b = [Fraction(1)]
    for m in range(1, 2 * count + 1):
        b.append(-sum(math.comb(m + 1, j) * b[j] for j in range(m)) / (m + 1))
    return tuple(b[2::2])


def euler_maclaurin(h: float, lo: np.ndarray, hi: np.ndarray) -> complex:
    """T_h - I to K terms, lo and hi holding c_0 .. c_{2K-1} at a and b."""
    terms = len(lo) // 2
    weights = [float(b / (2 * k)) for k, b in enumerate(bernoulli_even(terms), 1)]
    return complex(h * np.dot(weights, np.asarray(hi)[1::2] - np.asarray(lo)[1::2]))


def euler_maclaurin_tail(h: float, fh: float, majorant: float, terms: int) -> float:
    """Bound on the terms k > terms when |c_j| <= majorant (2 pi fh)^j / j!
    at both ends (fh = f_max h < 1): as |B_2k| / (2k (2k-1)!) = 2 zeta(2k)
    / (2 pi)^2k and zeta < 2, term k is at most 4 h majorant fh^(2k-1) / pi."""
    if not 0.0 <= fh < 1.0:
        raise ValueError(f"f_max h must lie in [0, 1), got {fh}")
    return 4.0 * h * majorant * fh ** (2 * terms + 1) / (math.pi * (1.0 - fh * fh))


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
