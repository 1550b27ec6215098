"""Exactly rounded summation helpers.

The exponential sums accumulate thousands of unit-magnitude terms whose
total is often orders of magnitude smaller than the term count, so plain
left-to-right addition loses digits to cancellation.  The sums here go
through `math.fsum` (Shewchuk's algorithm): the result is the exact sum
of the double terms rounded once, so it does not depend on term order.
Each sum also reports how far plain `np.sum` lands from it, so callers
can surface how much a naive sum would have lost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["compensated_sum", "compensated_complex_sum", "SumResult"]


def compensated_sum(values: np.ndarray) -> tuple[float, float]:
    """Exactly rounded sum of a float array, flattened.

    Returns (total, residual) with residual = |total - np.sum(values)|,
    the rounding error a naive sum would have made.  The total is
    independent of term order.
    """
    vals = np.asarray(values, dtype=np.float64).ravel()
    total = math.fsum(vals.tolist())
    return total, abs(total - float(np.sum(vals)))


def compensated_complex_sum(values: np.ndarray) -> tuple[complex, float]:
    """Sum a 1-D complex array; returns (total, residual).

    Real and imaginary parts are summed separately; the residual is the
    larger of the two.
    """
    values = np.asarray(values, dtype=np.complex128).ravel()
    re, rre = compensated_sum(values.real)
    im, rim = compensated_sum(values.imag)
    return complex(re, im), max(rre, rim)


@dataclass(frozen=True)
class SumResult:
    """Value of an exactly rounded exponential sum plus bookkeeping.

    value: the exactly rounded complex total.
    term_count: number of primes that contributed.
    compensation_residual: gap between value and the naive np.sum, the
    larger over the real and imaginary parts.
    """

    value: complex
    term_count: int
    compensation_residual: float
