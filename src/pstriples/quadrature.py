"""Quadrature building blocks.

Two schemes cover every integral in the package:

* `adaptive_simpson`: composite Simpson on a uniform grid with panel-count
  doubling until two refinements agree to a relative tolerance.  Used for
  the remainder envelope of `triplesum.phi_bound` and other smooth,
  non-oscillatory integrands.  The panel cap (_MAX_PANELS) is a hard
  error, not a silent truncation.  (The L2 integrals and the box
  integral run their own doubling loops.)

* `boole_weight`: composite Boole (5-point Newton-Cotes,
  O(h^6)) weights addressable by global sample index, so a very long
  uniform grid can be integrated in streaming chunks without materializing
  the weight vector.  Away from the grid's two ends the weights repeat
  with period 4, so the band walker of the oscillation-resolving
  spectral pieces (`triplesum._band_quadrature`) applies them to
  residue-class sums rather than to samples; this is their per-sample
  form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "QuadratureError",
    "SimpsonResult",
    "adaptive_simpson",
    "simpson_uniform",
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


# Composite Boole on N = 4m+1 samples: weights (2h/45) * [7, 32, 12, 32,
# 14, 32, 12, 32, ..., 14, 32, 12, 32, 7]; interior panel joints carry 14.
_BOOLE_PATTERN = np.array([14.0, 32.0, 12.0, 32.0])   # by index mod 4
# boole_weight looks the pattern up in blocks of this many indices, so
# that its temporaries stay in cache (about 3x faster on 2^21 indices).
_BLOCK = 1 << 15


def boole_weight(indices: np.ndarray, n_points: int) -> np.ndarray:
    """Unnormalized Boole weights for global sample indices.

    Multiply the weighted sum by 2h/45.  `n_points` must be 4m+1; indices
    may be any subset, enabling chunked accumulation over huge grids.
    """
    if n_points < 5 or (n_points - 1) % 4:
        raise ValueError("Boole grid must have 4m+1 points")
    idx = np.asarray(indices)
    flat = idx.reshape(-1)
    w = np.empty(flat.shape)
    for i in range(0, flat.size, _BLOCK):
        w[i : i + _BLOCK] = _BOOLE_PATTERN[flat[i : i + _BLOCK] & 3]
    w[flat == 0] = 7.0
    w[flat == n_points - 1] = 7.0
    return w.reshape(idx.shape)
