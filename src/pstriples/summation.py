"""Exactly rounded summation helpers.

The exponential sums accumulate thousands of unit-magnitude terms whose
total is often orders of magnitude smaller than the term count, so plain
left-to-right addition loses digits to cancellation.  Every total here
is the exact sum of the double terms rounded once, as `math.fsum`
(Shewchuk's algorithm) gives it, so it does not depend on term order.

`math.fsum` needs one Python float per term.  `row_parts` first
shrinks each row of a (k, n) block to a few doubles with the same exact
sum, by the error-free vector extraction of Rump, Ogita and Oishi
("Accurate floating-point summation, part I", 2008), whose work over the
terms runs in numpy, all rows at once.  Each level takes, per row,
sigma = 2^(e+m), where |r| < 2^e for every remaining term r of the row
and m = ceil(log2(n+2)), and splits every r exactly into
q = (sigma + r) - sigma and r - q.  Every q lies on the grid of
ulp(sigma)/2 and the n of them add to less than sigma, so their np.sum
is exact and becomes one part; a row is done when its every r is zero.
`math.fsum` of the parts is then bit-identical to `math.fsum` of the
terms.  The caller passes each row's bound B >= max |row| for the first
level, so no pass over the block measures it; a loose B only costs
levels.  A later level needs no measurement either: the remainder is
at most ulp(sigma)/2, which puts its sigma at sigma 2^(m-52).
`exact_parts` is the one-row case, with the row's measured max as its
bound.  A row comes back as its terms below
_EXTRACT_MIN_TERMS of them, where `math.fsum` alone is faster, when a
term is non-finite, when B > 2^(1020-m) (sigma + r could overflow) and
when every term is zero.  There `math.fsum` itself decides the value,
its ValueError or OverflowError on inf - inf or intermediate overflow,
and the sign of an all-zero sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["compensated_sum", "exact_parts", "row_parts", "SumResult"]

# below this many terms math.fsum of the terms beats the extraction
_EXTRACT_MIN_TERMS = 1024


def row_parts(block: np.ndarray, bounds) -> list[list[float]]:
    """Per row of the (k, n) float block, a short list of doubles whose
    exact sum is the row's; bounds[i] >= max |block[i]| is row i's bound.

    math.fsum of a row's list equals math.fsum of its terms bit for bit.
    All rows below _EXTRACT_MIN_TERMS terms, and rows with a NaN term,
    with all terms zero or with a bound outside (0, 2^(1020-m)], come
    back as their own list of floats; so does a row with an infinite
    term, whose bound is infinite.  The block is only read.
    """
    k, n = block.shape
    if n < _EXTRACT_MIN_TERMS:
        return block.tolist()
    m = (n + 1).bit_length()          # ceil(log2(n + 2))
    bounds = np.asarray(bounds, dtype=np.float64)
    rows = np.flatnonzero((bounds > 0.0) & (bounds <= math.ldexp(1.0, 1020 - m)))
    sigma = [math.ldexp(1.0, math.frexp(b)[1] + m) for b in bounds[rows].tolist()]
    shrink = math.ldexp(1.0, m - 52)  # a level's sigma over the one before
    r = block[rows]                   # the remainders, extracted in place
    q = np.empty_like(r)
    parts: list[list[float]] = [[] for _ in range(k)]
    runs = _runs(sigma)
    while rows.size:
        # a scalar sigma per run keeps numpy's fast loop: one broadcast
        # sigma column gives the same bits but took 14.1 ms against 11.5 ms
        # over the 130 blocks of run-witness's sums stage (2-vCPU Xeon)
        for a, b in runs:
            np.add(r[a:b], sigma[a], out=q[a:b])
            np.subtract(q[a:b], sigma[a], out=q[a:b])
        sums = q.sum(axis=1)
        for i, part in zip(rows.tolist(), sums.tolist()):
            parts[i].append(part)
        r -= q
        live = r.any(axis=1) & np.isfinite(sums)    # a NaN ends its row
        if not live.all():
            keep = np.flatnonzero(live)
            rows, r, q = rows[keep], r[keep], q[:keep.size]
            sigma = [sigma[i] for i in keep.tolist()]
            runs = _runs(sigma)
        sigma = [x * shrink for x in sigma]
    for i, got in enumerate(parts):
        if not got or not math.isfinite(got[0]) or not (any(got) or block[i].any()):
            parts[i] = block[i].tolist()
    return parts


def _runs(values: list) -> list[tuple[int, int]]:
    """(start, stop) of each run of equal neighbours in values."""
    cut = [i for i in range(1, len(values)) if values[i] != values[i - 1]]
    return list(zip([0] + cut, cut + [len(values)]))


def exact_parts(values: np.ndarray) -> list[float]:
    """A short list of doubles whose exact sum is that of values, flattened.

    math.fsum of the list equals math.fsum of the terms bit for bit: the
    one-row case of row_parts, bounded by the measured max |values|.
    """
    r = np.asarray(values, dtype=np.float64).reshape(1, -1)
    bound = float(np.max(np.abs(r))) if r.size >= _EXTRACT_MIN_TERMS else 0.0
    return row_parts(r, [bound])[0]


def compensated_sum(values: np.ndarray) -> float:
    """Exactly rounded sum of a float array, flattened; independent of
    term order."""
    return math.fsum(exact_parts(values))


@dataclass(frozen=True)
class SumResult:
    """An exponential sum's exactly rounded complex total (value) and the
    number of primes that contributed (term_count)."""

    value: complex
    term_count: int
