"""Exactly rounded summation helpers.

The exponential sums accumulate thousands of unit-magnitude terms whose
total is often orders of magnitude smaller than the term count, so plain
left-to-right addition loses digits to cancellation.  Every total here
is the exact sum of the double terms rounded once, as `math.fsum`
(Shewchuk's algorithm) gives it, so it does not depend on term order.

`math.fsum` needs one Python float per term.  `exact_parts` first
shrinks an array to a few doubles with the same exact sum, by the
error-free vector extraction of Rump, Ogita and Oishi ("Accurate
floating-point summation, part I", 2008), whose work over the terms
runs in numpy.  Each level takes sigma = 2^(e+m), where max|r| < 2^e
and m = ceil(log2(n+2)), and splits every remaining term r exactly into
q = (sigma + r) - sigma and r - q.  Every q lies on the grid of
ulp(sigma)/2 and the n of them add to less than sigma, so their np.sum
is exact and becomes one part; the levels stop when every r is zero.
`math.fsum` of the parts is then bit-identical to `math.fsum` of the
terms.  The terms come back unchanged below _EXTRACT_MIN_TERMS of them,
where `math.fsum` alone is faster, when a term is non-finite, when
max|x| > 2^(1020-m) (sigma + r could overflow) and when every term is
zero.  There `math.fsum` itself decides the value, its ValueError or
OverflowError on inf - inf or intermediate overflow, and the sign of an
all-zero sum.

Each sum also reports how far plain `np.sum` lands from it, so callers
can surface how much a naive sum would have lost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "compensated_sum", "compensated_complex_sum", "exact_parts", "SumResult",
]

# below this many terms math.fsum of the terms beats the extraction
_EXTRACT_MIN_TERMS = 1024


def exact_parts(values: np.ndarray) -> list[float]:
    """A short list of doubles whose exact sum is that of values, flattened.

    math.fsum of the list equals math.fsum of the terms bit for bit.
    Small, non-finite, near-overflow and all-zero arrays come back as
    their own list of floats.
    """
    r = np.asarray(values, dtype=np.float64).ravel()
    n = r.size
    if n < _EXTRACT_MIN_TERMS:
        return r.tolist()
    m = (n + 1).bit_length()          # ceil(log2(n + 2))
    amax = float(np.max(np.abs(r)))
    if not 0.0 < amax <= math.ldexp(1.0, 1020 - m):
        return r.tolist()
    parts = []
    while amax > 0.0:
        sigma = math.ldexp(1.0, math.frexp(amax)[1] + m)
        q = (sigma + r) - sigma
        parts.append(float(np.sum(q)))
        r = r - q
        amax = float(np.max(np.abs(r)))
    return parts


def compensated_sum(values: np.ndarray) -> tuple[float, float]:
    """Exactly rounded sum of a float array, flattened.

    Returns (total, residual) with residual = |total - np.sum(values)|,
    the rounding error a naive sum would have made.  The total is
    independent of term order.
    """
    vals = np.asarray(values, dtype=np.float64).ravel()
    total = math.fsum(exact_parts(vals))
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
