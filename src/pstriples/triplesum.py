"""Weighted prime-triple counts and their frequency-side decomposition.

The central object is the weighted number of triples (p1, p2, p3) of
floor-power primes in a window (lambda0*X, X] whose linear form
l1*p1 + l2*p2 + l3*p3 + eta lands within a search width eps of zero,
each triple weighted by theta(form) * (p1*p2*p3)^(1-gamma) * log p1 *
log p2 * log p3.  Expanding theta through its transform turns that count
into an integral of Theta(t) times three exponential sums and a unit
phase, which splits into three bands: |t| < Delta (main term),
Delta <= |t| <= H (oscillatory middle), and |t| > H (far tail).  The
weights are real and Theta is even, so the integrand at -t is the
conjugate of that at t: each band integral is twice the real part of its
half on t >= 0.

This module computes both sides at desk scale: the count directly by a
sorted meet-in-the-middle sweep; the three band integrals and the
main-term integral J, each defined once in the table _BANDS, sized once
(_band_layout) and walked once (_band_quadrature) into one record: on
the band's half t >= 0, the trapezoid rule at f_max h <= 0.8 on the
band-limited integrand minus its Euler-Maclaurin endpoint series,
folded to twice its real part, with its error bar; the main-term box
integral, exact as a signed sum of theta's third antiderivative over the
cube's corners, and its remainder majorant; the far band's bound and the
middle-band majorant chain.  Band grids are walked in equal chunks,
each on its own into row partials and a best sample; the partials are
added exactly rounded (module summation), and a band's exponential sums
come from one evaluator plan per coefficient (expsums.ps_sum_plan), so
totals are deterministic.

The triple weight carries the factor (p1*p2*p3)^(1-gamma): the
exponential sums are weighted by p^(1-gamma) * log p, so the transform
identity closes only with that factor present on the direct side.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .expsums import (
    _UNIT_ROUNDOFF, _centre, _sum_at_zero, _sum_factors, _window_factors, ps_exp_sum,
    unit_phase,
)
from .kernel import (
    GridTransform,
    SmoothingKernel,
    _antiderivatives,
    make_kernel,
    theta,
    transform_series,
)
from .params import (
    Coefficients,
    ParameterError,
    RunParameters,
    feasible_box_check,
    form_range,
)
from .primes import PSPrimeSet, check_window_set, ps_indicator
from .quadrature import (
    _EM_TERMS,
    _band_grid,
    euler_maclaurin,
    euler_maclaurin_squared,
    euler_maclaurin_tail,
)
# Nothing here calls these three; the benchmark's tracer wraps them by
# their names in this module.
from .kernel import theta_transform  # noqa: F401
from .quadrature import adaptive_simpson, boole_weight  # noqa: F401
from .summation import exact_parts

__all__ = [
    "TripleRecord",
    "TripleSumResult",
    "MiddleBand",
    "Gamma2Majorant",
    "BoxIntegral",
    "PhiBound",
    "BandQuadrature",
    "DecompositionResult",
    "big_gamma_direct",
    "triple_sum_bruteforce",
    "find_triples",
    "triple_threshold",
    "threshold_vacuous",
    "band_frequency",
    "piece_quadrature",
    "check_band_grids",
    "piece3_truncation",
    "middle_band_sweep",
    "gamma2_majorant",
    "integral_J",
    "box_integral_B",
    "phi_bound",
    "far_tail_majorant",
    "decompose",
]

# A band of n grid points is evaluated in c = ceil(n / _CHUNK) equal
# chunks of ceil(n / c) points (one evaluator call per sum, all from one
# plan set built for the band), so a walk holds one chunk's sums at a time;
# the last chunk's at most c - 1 surplus points past the band's end are
# evaluated but not walked.  At 2^16 points a chunk's three sums (about
# 1 MiB each) and an evaluator call's work arrays stay near the cache:
# on instance A the middle band is twelve chunks of 62,091 points, and
# its traced peak fell from 20.4 MiB at 2^18 to 9.1 MiB at no loss of
# speed.  Chunks are walked in blocks of _BLOCK points whose buffers
# stay in cache.  Each block's sums round within it, and the blocked
# evaluator's grid follows the chunk's length, so changing either size
# would move totals in the last bits: they are constants, not parameters.
_CHUNK = 1 << 16
_BLOCK = 1 << 14

_BRUTE_LIMIT = 512

# The direct sweep takes (p1, p2) pairs in blocks of about _SWEEP_PAIRS,
# one search per block; the block size bounds its working memory and
# moves no result bit.  Its occupancy table over the sorted l3*p3 has at
# most _CELLS cells between its borders; the filter moves no result bit
# either.
_SWEEP_PAIRS = 1 << 14
_CELLS = 1 << 18

# roundings, in units of u, of each sample of the band integrand relative
# to |Theta F1 F2 F3| and of its share of the sum: two complex products
# (sqrt 5 each, no FMA), the carrier (its product, 2 pi frac, np.pi's
# error, exp's two ulps), the factor Theta, a block's pairwise sum (depth
# at most 32 for _BLOCK points), the exactly rounded total, h and h's own
# rounding
_SAMPLE_ROUNDINGS = 3.0 * math.sqrt(5.0) + 2.0 * math.pi + 4.2 + 1.0 + 32.0 + 3.0


@dataclass(frozen=True)
class TripleRecord:
    """One verified triple with its form value and weight."""

    p1: int
    p2: int
    p3: int
    form_value: float
    weight: float
    threshold_value: float
    within_threshold: bool


@dataclass(frozen=True)
class TripleSumResult:
    value: float
    triples_found: int
    empty_set: bool


def _occupancy(z3s: np.ndarray, width: float, tol: float):
    """Occupancy table of the sorted l3*p3 for search width `width`.

    Cell c covers [origin + c*cell, origin + (c+1)*cell).  The cells are
    cell = max(width, span/_CELLS) wide, so at most _CELLS of them cover
    the span [min - reach, max + reach], reach = width + tol; three more
    lie below it and two above.  Each l3*p3 marks the cells within reach
    of it and one guard cell on either side, so a key -(l1*p1 + eta +
    l2*p2) within width of some l3*p3 lands in a marked cell.  The
    outermost cells, into which keys past the span are clipped, stay
    unmarked (the third cell below absorbs the rounding of the lowest
    guard's index).  Returns the table, origin and 1/cell.
    """
    reach = width + tol
    cell = max(width, (z3s[-1] - z3s[0] + 2.0 * reach) / _CELLS)
    origin = z3s[0] - reach - 3.0 * cell
    scale = 1.0 / cell
    size = int((z3s[-1] + reach - origin) * scale) + 3
    # each l3*p3 marks cells lo to hi: a few, as cells are >= width wide
    lo = ((z3s - reach - origin) * scale).astype(np.intp) - 1
    hi = ((z3s + reach - origin) * scale).astype(np.intp) + 1
    table = np.zeros(size, dtype=bool)
    for step in range(int((hi - lo).max()) + 1):
        table[np.minimum(lo + step, hi)] = True
    return table, origin, scale


def _matched_sweep(
    coeffs: Coefficients, pset: PSPrimeSet, eps_search: float, tol: float
):
    """Meet-in-the-middle sweep over sorted l3*p3, narrowing on request.

    For each pair (p1, p2) the admissible p3 lie in an interval of the
    sorted array.  The pairs are taken in blocks of whole p1 rows, about
    _SWEEP_PAIRS pairs to a block, so the working arrays stay small
    however large the window is.  The search width starts at eps_search;
    a caller may send() a smaller width, which holds from the next block
    on.  No caller may widen it.

    A block first maps each key -(l1*p1 + eta + l2*p2) to its cell of
    the occupancy table (_occupancy), built for a width at least the
    current one, with the form tolerance tol as margin, and rebuilt
    whenever the width halves.  Only keys in marked cells go on: one
    binary search for their lower ends, then, since most pairs match at
    most one p3, two probes past the lower end into the array with +inf
    appended for the upper ends (one step if the first entry lies inside
    the window, an exact binary search only for the pairs whose second
    entry does too).  The table only drops keys that cannot match, so
    the matched set, its order and every bit are those of a search over
    all keys.

    Yields each block's matches as index arrays i, j, k into pset.primes
    and their forms, in order of p1, p2 and then l3*p3.  The callers
    gather the primes and weigh the forms with theta themselves: the
    direct total holds one block at a time, the triple search only the
    matches it keeps.
    """
    lam1, lam2, lam3 = coeffs.lambdas
    p = pset.primes.astype(np.float64)
    n = p.size
    z3 = lam3 * p
    order = np.argsort(z3, kind="stable")
    z3s = z3[order]
    z3x = np.append(z3s, np.inf)    # sentinel: a probe past the end misses
    rows = max(1, _SWEEP_PAIRS // n)
    width = built = eps_search
    table, origin, scale = _occupancy(z3s, width, tol)

    for s in range(0, n, rows):
        # forms associate as ((l1*p1 + eta) + l2*p2) + l3*p3, one float
        # per triple whatever the block size
        block = lam1 * p[s:s + rows, None] + coeffs.eta
        targets = (block + lam2 * p).ravel()
        cells = np.subtract(-origin, targets)
        cells *= scale
        np.clip(cells, 0, table.size - 1, out=cells)
        hit = np.flatnonzero(table[cells.astype(np.intp)])
        t = targets[hit]
        upper = -t + width
        lo = np.searchsorted(z3s, -t - width, side="right")
        hi = lo + (z3x[lo] < upper)
        many = np.flatnonzero(z3x[hi] < upper)
        hi[many] = np.searchsorted(z3s, upper[many], side="left")
        counts = hi - lo
        pair = np.repeat(np.arange(counts.size), counts)
        starts = np.cumsum(counts) - counts
        k = lo[pair] + np.arange(pair.size) - starts[pair]
        forms = t[pair] + z3s[k]
        i, j = np.divmod(hit[pair], n)
        i += s
        narrower = yield i, j, order[k], forms
        if narrower is not None:
            width = narrower
            if width <= 0.5 * built:
                built = width
                table, origin, scale = _occupancy(z3s, width, tol)


def _form_reach(params: RunParameters, coeffs: Coefficients) -> float:
    """The largest |form| a window triple can reach."""
    return sum(abs(l) for l in coeffs.lambdas) * params.X + abs(coeffs.eta)


def _form_tolerance(params: RunParameters, coeffs: Coefficients) -> float:
    """Rounding allowance for a form: forms associated differently agree
    only up to rounding at the form's dynamic range, not at the search
    width."""
    return 1e-12 * max(1.0, _form_reach(params, coeffs))


def big_gamma_direct(
    params: RunParameters,
    coeffs: Coefficients,
    kernel: SmoothingKernel,
    pset: PSPrimeSet,
) -> TripleSumResult:
    """Weighted triple count by meet-in-the-middle over sorted l3*p3.

    O(n^2 log n) instead of the cubic triple loop.  The search width is
    the kernel's, eps: the weights live on its support.  The sweep
    (_matched_sweep) keeps its full width eps throughout; this caller
    weighs each block's matches with theta and the prime weights and
    keeps only the block's summation.exact_parts and the count, so one
    block is held at a time.  The open window |form| < eps is the kernel
    support, on whose boundary theta vanishes, so no weight is lost at
    the edges.  The total is exactly rounded (math.fsum of the
    parts), so it does not depend on enumeration order or block size.
    The window population triples_found is boundary-sensitive: a form
    landing within rounding of the search width may count or not
    depending on association order, but carries zero weight either way.
    """
    check_window_set(params, pset)
    if pset.count == 0:
        return TripleSumResult(0.0, 0, True)
    w = pset.weights
    tol = _form_tolerance(params, coeffs)
    parts, found = [], 0
    for i, j, k, forms in _matched_sweep(coeffs, pset, kernel.epsilon, tol):
        weights = (w[i] * w[j]) * (w[k] * theta(kernel, forms))
        parts.extend(exact_parts(weights))
        found += weights.size
        if len(parts) > _SWEEP_PAIRS:
            # small blocks come back as one float per term: re-extract
            # so the list stays short
            parts = exact_parts(np.array(parts))
    return TripleSumResult(math.fsum(parts), found, False)


def triple_sum_bruteforce(
    params: RunParameters,
    coeffs: Coefficients,
    kernel: SmoothingKernel,
    pset: PSPrimeSet,
) -> TripleSumResult:
    """Cubic reference enumeration at the kernel's width, up to
    _BRUTE_LIMIT primes.  The package keeps it as the independent side of
    acceptance criterion 8: it shares no search code with the sweep
    (big_gamma_direct), so the two counts check each other."""
    check_window_set(params, pset)
    if pset.count == 0:
        return TripleSumResult(0.0, 0, True)
    if pset.count > _BRUTE_LIMIT:
        raise ParameterError(
            f"brute force capped at {_BRUTE_LIMIT} primes, got {pset.count}"
        )
    lam1, lam2, lam3 = coeffs.lambdas
    p = pset.primes.astype(np.float64)
    w = pset.weights
    forms = (
        lam1 * p[:, None, None]
        + lam2 * p[None, :, None]
        + lam3 * p[None, None, :]
        + coeffs.eta
    )
    mask = np.abs(forms) < kernel.epsilon
    found = int(mask.sum())
    if found == 0:
        return TripleSumResult(0.0, 0, False)
    wprod = w[:, None, None] * w[None, :, None] * w[None, None, :]
    vals = wprod[mask] * theta(kernel, forms[mask])
    return TripleSumResult(math.fsum(exact_parts(vals)), found, False)


def triple_threshold(gamma: float, p_max: int) -> float:
    """Admissibility width at the largest prime of a triple:
    p^((37-38*gamma)/26) * (log p)^10."""
    if p_max < 2:
        raise ParameterError(f"p_max must be a prime >= 2, got {p_max}")
    lp = math.log(p_max)
    return math.exp((37.0 - 38.0 * gamma) / 26.0 * lp) * lp**10


def threshold_vacuous(params: RunParameters, coeffs: Coefficients) -> bool:
    """True when the formula width exceeds every attainable |form| on the
    window, so the per-triple threshold check cannot fail.  Desk-scale
    instances are in this regime: the tenth log power dominates."""
    return params.epsilon > _form_reach(params, coeffs)


def find_triples(
    params: RunParameters,
    coeffs: Coefficients,
    pset: PSPrimeSet,
    max_results: int = 1000,
) -> list[TripleRecord]:
    """Explicit triples with |form| < eps, nearest-to-zero first, eps the
    instance's search width params.epsilon_effective; each weighed with
    the canonical kernel at eps (smoothness params.kernel_k).

    The sweep (_matched_sweep) runs nearest-first: this caller holds only
    the matches that can still be among the max_results nearest.  After
    each block it partitions the kept |form| at max_results - 1, keeps
    every match at or under that cut, ties included, and sends the sweep
    the width min(eps, cut + tol) for the next blocks; tol, the
    form tolerance, covers the rounding of the narrowed search's bounds.
    The cut never rises, and a later block's match at the cut sorts
    after the kept ones (its p1 is larger), so no match that was dropped
    or never searched is among the nearest.  The kept matches are
    lexsorted by |form|, then p1, p2, p3, the order a full sort of all
    matches would give, and theta and the weights are computed for the
    emitted rows only.

    Each emitted record is re-verified from scratch: floor-power
    membership (scalar ps_indicator, once per distinct prime) and the form
    evaluation are redone outside the sweep.  Sets with fewer than three
    primes are degenerate and yield no triples.  The threshold fields
    compare |form| against the admissibility width at the triple's
    largest prime.
    """
    check_window_set(params, pset)
    if max_results < 1:
        raise ParameterError(f"max_results must be >= 1, got {max_results}")
    if pset.count < 3:
        return []
    eps = params.epsilon_effective
    kern = make_kernel(eps, params.kernel_k)
    tol = _form_tolerance(params, coeffs)
    sweep = _matched_sweep(coeffs, pset, eps, tol)
    kept = (np.empty(0, np.intp),) * 3 + (np.empty(0),)
    width = None
    while True:
        try:
            block = sweep.send(width)
        except StopIteration:
            break
        kept = [np.concatenate(pair) for pair in zip(kept, block)]
        mags = np.abs(kept[3])
        if mags.size >= max_results:
            cut = np.partition(mags, max_results - 1)[max_results - 1]
            keep = np.flatnonzero(mags <= cut)
            kept = [a[keep] for a in kept]
            width = min(eps, cut + tol)
    i, j, k, forms = kept
    p_int = pset.primes
    top = np.lexsort((p_int[k], p_int[j], p_int[i], np.abs(forms)))
    i, j, k, forms = (a[top[:max_results]] for a in kept)
    w = pset.weights
    weights = (w[i] * w[j]) * (w[k] * theta(kern, forms))
    gamma = params.gamma.value
    lam1, lam2, lam3 = coeffs.lambdas
    out: list[TripleRecord] = []
    verified: set[int] = set()
    for p1, p2, p3, form, weight in zip(
        *(a.tolist() for a in (p_int[i], p_int[j], p_int[k], forms, weights))
    ):
        for q in (p1, p2, p3):
            if q in verified:
                continue
            if ps_indicator(q, gamma) != 1:
                raise RuntimeError(
                    f"re-verification failed: {q} is not a floor-power prime"
                )
            verified.add(q)
        check = lam1 * p1 + lam2 * p2 + lam3 * p3 + coeffs.eta
        if not (abs(check) < eps + tol and abs(check - form) <= tol):
            raise RuntimeError(
                f"re-verification failed: form of ({p1},{p2},{p3}) "
                f"recomputes to {check!r}, sweep gave {form!r}"
            )
        thr = triple_threshold(gamma, max(p1, p2, p3))
        out.append(
            TripleRecord(p1, p2, p3, form, weight, thr, abs(form) < thr)
        )
    return out


# ---------------------------------------------------------------------------
# band quadrature


def band_frequency(
    params: RunParameters, coeffs: Coefficients, kernel: SmoothingKernel
) -> float:
    """f_max, the top frequency of the band integrand: Theta's spectrum
    is theta's support [-eps, eps] and S(l_i t)'s the l_i p, so that of
    Theta * S1 * S2 * S3 * e(eta t), as of J's integrand, lies in [lo -
    eps, hi + eps], [lo, hi] the form's range over the window cube.  The
    middle band's grid also covers the squares it collects (_band_layout)."""
    lo, hi = form_range(coeffs, params.lambda0, params.X)
    return max(abs(lo), abs(hi)) + kernel.epsilon


class _Band(NamedTuple):
    """A band of the transform-side integral.  edges(params, kernel) gives
    (t_lo, t_hi), 0 <= t_lo, the band's half t >= 0; sums takes the
    factors from the window's sums (_sum_factors), else from their window
    integrals (_window_factors); collect gathers the middle band's
    statistics (MiddleBand); far adds the far band past t_hi to the bar
    (far_tail_majorant), and only such a band may be empty."""

    edges: Callable
    sums: bool = True
    collect: bool = False
    far: bool = False


# The bands decompose integrates, by key: the main term J and pieces 1
# (|t| < Delta), 2 (Delta <= |t| <= H) and 3 (H <= |t| <=
# piece3_truncation), each given by its half t >= 0, [0, Delta], [Delta,
# H] and [H, piece3_truncation], and folded onto -t (BandQuadrature).
_BANDS = {
    "J": _Band(lambda params, kernel: (0.0, params.Delta), sums=False),
    1: _Band(lambda params, kernel: (0.0, params.Delta)),
    2: _Band(lambda params, kernel: (params.Delta, params.H_effective), collect=True),
    3: _Band(lambda params, kernel: (params.H_effective, piece3_truncation(params, kernel)),
             far=True),
}


def _band_layout(key, params: RunParameters, coeffs: Coefficients, kernel: SmoothingKernel):
    """(t_lo, t_hi, f_max, n_points, h, chunk), the one sizing of band
    key: its half [t_lo, t_hi] of t >= 0, its top frequency, and the band
    rule's grid (_band_grid, which raises past the point cap), evaluated
    in equal chunks.  f_max is band_frequency's, and on a band that
    collects the squares |S(l_k t)|^2 (spectrum within |l_k| L, L the
    window's length) the larger of that and max |l_k| L: where eta
    centres the form's range the squares can reach higher than the
    product, as (1, 1, -5) at eta 2.25 X does (2.5 X against 1.75 X).
    Only a far band may be empty (t_hi <= t_lo), with n_points 0."""
    band = _BANDS[key]
    t_lo, t_hi = band.edges(params, kernel)
    f_max = band_frequency(params, coeffs, kernel)
    if band.collect:
        length = (1.0 - params.lambda0) * params.X
        f_max = max(f_max, max(abs(l) for l in coeffs.lambdas) * length)
    if band.far and t_hi <= t_lo:
        return t_lo, t_hi, f_max, 0, 0.0, 0
    n_points, h = _band_grid(t_lo, t_hi, f_max)
    # ceil(n / c) points in each of c = ceil(n / _CHUNK) chunks
    return t_lo, t_hi, f_max, n_points, h, -(-n_points // -(-n_points // _CHUNK))


@dataclass(frozen=True)
class BandQuadrature:
    """A band integral, from the endpoint-corrected trapezoid rule on
    n_points at the given spacing over the band's half t >= 0, with its
    error bar: a bound on the omitted Euler-Maclaurin terms
    (euler_maclaurin_tail) plus the samples' rounding, charged from the
    error figures of the factors and of Theta and a count of the walker's
    own roundings.  The band is folded onto -t, where the integrand is
    its conjugate: value is twice the real part of the one-sided integral
    and error twice its bar."""

    value: float
    error: float
    n_points: int
    spacing: float


@dataclass(frozen=True)
class MiddleBand(BandQuadrature):
    """The middle band [Delta, H], gamma2, with the statistics its walk
    collects for the majorant chain.

    t_integrals are the one-sided integrals of |S(l_k t)|^2,
    endpoint-corrected too (the band's grid is sized for their top
    frequencies as well); sup_small_pair the largest min(|S1|, |S2|)
    found, a lower estimate of the supremum (1261.91 on instance A, the
    grid samples alone 1219.41); cross_integral and squares_integral that
    minimum's plain one-sided trapezoid integrals, O(h^2), against
    |S3|(|S1|+|S2|) and |S1|^2+|S2|^2+|S3|^2.
    """

    t_integrals: tuple[float, float, float]
    sup_small_pair: float
    cross_integral: float
    squares_integral: float


def _band_quadrature(
    key, params: RunParameters, coeffs: Coefficients, kernel: SmoothingKernel,
    pset: "PSPrimeSet | None" = None,
) -> BandQuadrature:
    """Band key of _BANDS: Theta * F1 * F2 * F3 * e(eta t) integrated over
    [t_lo, t_hi] (_band_layout, t_lo >= 0), with its error bar, folded onto
    -t (BandQuadrature); a MiddleBand where the band collects.

    The band's factor source, built for one chunk's grid, gives (grid,
    series, amplitude, rounding, floor): grid(t0) the three factors at
    t0 + j h, j < chunk (possibly views that the next call overwrites),
    series(x, terms) the first terms Taylor coefficients of each
    F_i(x + s h) demodulated about l_i * centre, amplitude a bound on
    every |F_i|, and rounding and floor the source's error figures
    (expsums._sum_factors).  At f_max h <= quadrature._BAND_FH the
    trapezoid rule's only error is its Euler-Maclaurin endpoint series,
    and the first _EM_TERMS terms are subtracted, from the product at
    each end of Theta's series, the factors' and the carrier
    e(F (x + s h)), F = sum l_i centre + eta, kept apart (multiplying raw
    series cancels digits that the Bernoulli weights amplify).

    The bar is the tail bound with majorant 2a amplitude^3 plus h times
    one rounding row summed over the samples: rounding times |Theta| t
    sum_i |l_i| prod_{j != i} |F_j|, floor times |Theta| sum_i prod_{j
    != i} |F_j|, and |F1 F2 F3| times Theta's error (GridTransform.error),
    the sample's and the sum's roundings (_SAMPLE_ROUNDINGS) and the
    carrier's phase error from eta t.  A far band's bar adds
    far_tail_majorant past t_hi; empty, the band is that bar alone.

    Each of the layout's chunks (at most _CHUNK points) is evaluated from
    the plans the source built with the band (the last chunk's surplus
    samples past t_hi are not walked) and walked on its own (walk), so
    one chunk's factors are held at a time and only block buffers pass
    between chunks.  The row partials are added exactly rounded and the
    best samples merged in chunk order, the first maximum kept: results
    are bitwise reproducible at a fixed BLAS library and thread count.

    A collecting walk also gives the |F_i|^2 integrals, corrected from
    F_i's series (euler_maclaurin_squared), the largest sampled min(|F1|,
    |F2|), polished by a golden-section search about its t
    (_polished_sup), and that minimum's plain trapezoid integrals, O(h^2),
    against |F3|(|F1|+|F2|) and |F1|^2+|F2|^2+|F3|^2.
    """
    band = _BANDS[key]
    t_lo, t_hi, f_max, n_points, h, chunk = _band_layout(key, params, coeffs, kernel)
    far = far_tail_majorant(params, kernel, pset, max(t_lo, t_hi)) if band.far else 0.0
    if n_points == 0:
        return BandQuadrature(0.0, far, 0, 0.0)
    eta = coeffs.eta
    # The row's other coefficients.  Theta's error is charged as the
    # larger of its relative and its absolute form.  A sample's t is
    # within u (2 t + t_lo) of the factors' grid point, which moves Theta
    # by at most 3 (k + 1) u |Theta|, and e(eta t) by 2 pi u |eta| (3 t +
    # t_lo) with eta t's own rounding.
    u = _UNIT_ROUNDOFF
    theta_rel, theta_abs = GridTransform.error
    theta_abs *= 2.0 * kernel.a
    sample_rel = u * (_SAMPLE_ROUNDINGS + 3.0 * (kernel.k + 1)) + 2.0 * math.pi * u * abs(eta * t_lo)
    per_r = 6.0 * math.pi * u * abs(eta)
    # buffers (and Theta's tables) for the largest block
    size = min(_BLOCK, n_points)
    # rows: Re, the bar; collecting, also |F_i|^2 and two minima
    q_buf = np.empty((7 if band.collect else 2, size))
    offsets = np.arange(size, dtype=np.float64)
    t_buf, theta_buf = np.empty(size), np.empty(size)
    prod_buf = np.empty(size, dtype=np.complex128)
    mod_buf = np.empty((3, size))
    rotated = GridTransform(kernel, h, size)
    # the source and its plans after the block buffers: built before
    # them, a fresh decompose on A took 21k minor page faults, not 12k
    if band.sums:
        factors = _sum_factors(pset, coeffs.lambdas, _centre(params), h, chunk)
    else:
        factors = _window_factors(params, coeffs.lambdas, h, chunk)
    grid, series, amplitude, rounding, floor = factors
    r1, r2, r3 = (rounding * abs(l) for l in coeffs.lambdas)

    def walk(sums, start: int):
        """Row partials of the chunk of sums whose first sample is the
        band's start-th, walked in blocks of at most _BLOCK points in the
        buffers above (Theta from GridTransform), and its best (min(|F1|,
        |F2|), t), the first maximum above 0, else (0.0, t_lo).  A block
        adds one plain sum per row, so its bits do not depend on the other
        rows; the band's end samples weigh 1/2."""
        n_chunk = min(chunk, n_points - start)
        t0 = t_lo + start * h
        partials, best = [], (0.0, t_lo)
        for b in range(0, n_chunk, _BLOCK):
            n = min(_BLOCK, n_chunk - b)
            blk = slice(b, b + n)
            t = np.add(offsets[:n], b, out=t_buf[:n])
            t *= h
            t += t0                 # bit for bit t0 + h * arange(count)
            wt = rotated(t, theta_buf)
            prod = np.multiply(sums[0][blk], sums[1][blk], out=prod_buf[:n])
            prod *= sums[2][blk]
            if eta != 0.0:
                prod *= unit_phase(eta * t)
            q, a = q_buf[:, :n], mod_buf[:, :n]
            np.multiply(prod.real, wt, out=q[0])
            for i in range(3):
                np.abs(sums[i][blk], out=a[i])
            aw = np.abs(wt)
            awr = aw * t                # |Theta| t
            pair = a[0] * a[1]
            triple = pair * a[2]
            err = np.maximum(theta_rel * aw, theta_abs)
            err += sample_rel * aw
            if eta != 0.0:
                err += per_r * awr
            np.multiply(err, triple, out=q[1])
            q[1] += ((r1 * a[1] + r2 * a[0]) * a[2] + r3 * pair) * awr
            q[1] += floor * aw * (pair + a[2] * (a[0] + a[1]))
            if band.collect:
                small = np.minimum(a[0], a[1])
                j = int(np.argmax(small))
                if small[j] > best[0]:
                    best = float(small[j]), float(t[j])
                np.multiply(a, a, out=q[2:5])
                q[5] = small * a[2] * (a[0] + a[1])
                q[6] = small * (q[2] + q[3] + q[4])
            partials.append(q.sum(axis=1))
            if start + b == 0:
                partials.append(-0.5 * q[:, 0])
            if start + b + n == n_points:
                partials.append(-0.5 * q[:, n - 1])
        return partials, best

    walks = [walk(grid(t_lo + start * h), start) for start in range(0, n_points, chunk)]
    partials = [row for rows, _ in walks for row in rows]
    # max keeps the first of equal maxima: the earliest chunk's
    sup, t_sup = max((best for _, best in walks), key=lambda best: best[0])
    trap = [h * math.fsum(exact_parts(row)) for row in np.array(partials).T]

    terms = 2 * _EM_TERMS
    freq = sum(l * _centre(params) for l in coeffs.lambdas) + eta
    ends = []
    for x in (t_lo, t_hi):
        fs = series(x, terms)
        # the carrier's coefficients e(F x) (2 pi i F h)^j / j!
        carrier = np.cumprod([np.exp(2j * np.pi * math.fmod(freq * x, 1.0))]
                             + [2j * np.pi * freq * h / j for j in range(1, terms)])
        g = np.convolve(transform_series(kernel, x, h, terms), carrier)[:terms]
        for f in fs:
            g = np.convolve(g, f)[:terms]
        ends.append((g, fs))
    (g_lo, f_lo), (g_hi, f_hi) = ends
    value = trap[0] - euler_maclaurin(h, g_lo, g_hi).real
    majorant = 2.0 * kernel.a * amplitude**3
    error = euler_maclaurin_tail(h, f_max * h, majorant, _EM_TERMS) + trap[1]
    # folded onto -t: twice the real part and twice the bar
    value, error = 2.0 * value, 2.0 * error + far
    if not band.collect:
        return BandQuadrature(value, error, n_points, h)
    t_ints = tuple(trap[2 + i] - euler_maclaurin_squared(h, lo, hi)
                   for i, (lo, hi) in enumerate(zip(f_lo, f_hi)))
    sup = _polished_sup(params, coeffs, pset, sup,
                        max(t_lo, t_sup - h), min(t_hi, t_sup + h))
    return MiddleBand(value, error, n_points, h, t_ints, sup, trap[5], trap[6])


def _polished_sup(
    params: RunParameters, coeffs: Coefficients, pset: PSPrimeSet,
    sup: float, a: float, b: float,
) -> float:
    """sup, the best sampled min(|S1|, |S2|), raised by a golden-section
    search on [a, b], the sample's neighbours within the band; every
    value it takes is a true one (ps_exp_sum, one call per probe on the
    grid [l1 u, l2 u]), so the result stays a lower estimate."""

    def small(u: float) -> float:
        return min(abs(r.value)
                   for r in ps_exp_sum([l * u for l in coeffs.lambdas[:2]], params, pset))

    ratio = 0.5 * (math.sqrt(5.0) - 1.0)
    c, d = b - ratio * (b - a), a + ratio * (b - a)
    fc, fd = small(c), small(d)
    for _ in range(40):         # the bracket shrinks to 4e-9 of its width
        sup = max(sup, fc, fd)
        if fc >= fd:    # the maximum is taken in [a, d]
            b, d, fd, c = d, c, fc, d - ratio * (d - a)
            fc = small(c)
        else:
            a, c, fc, d = c, d, fd, c + ratio * (b - c)
            fd = small(d)
    return max(sup, fc, fd)


def check_band_grids(
    params: RunParameters, coeffs: Coefficients, kernel: SmoothingKernel
) -> None:
    """Size every band decompose integrates, evaluating nothing, so that
    a band past the point cap raises QuadratureError up front."""
    for key in _BANDS:
        _band_layout(key, params, coeffs, kernel)


def piece3_truncation(params: RunParameters, kernel: SmoothingKernel) -> float:
    """Point past which the transform's decay branch drops below
    1e-12 * X^(3-3*gamma), a scale for the three sums' product, not a
    bound on it (S(0)^3 is, far_tail_majorant); piece 3's quadrature
    stops there, and its bar carries far_tail_majorant past it.  May
    land at or below the band start, in which case the far band
    contributes only its bound."""
    k = kernel.k
    g = params.gamma.value
    log_c = math.log(4.0 * k / (math.pi * kernel.epsilon))
    log_tol = math.log(1e-12) + (3.0 - 3.0 * g) * params.log_X
    return math.exp((k * log_c - math.log(math.pi) - log_tol) / (k + 1))


def piece_quadrature(
    piece: int, params: RunParameters, coeffs: Coefficients,
    kernel: SmoothingKernel, pset: PSPrimeSet,
) -> BandQuadrature:
    """One band of the transform-side integral with its error bar
    (_band_quadrature).

    Piece 1 covers |t| < Delta, piece 2 Delta <= |t| <= H and piece 3
    |t| >= H, each folded from its half t >= 0, so every value is real.
    Piece 2 is the middle band's record (MiddleBand, as from
    middle_band_sweep).  Piece 3 is truncated where the transform's decay
    branch is negligible (an empty band is 0 with no grid), and its bar
    is against the whole far band |t| > H.  The standard decomposition's
    kernel has the search width and k = params.kernel_k.
    """
    if piece not in (1, 2, 3):
        raise ParameterError(f"piece must be 1, 2, or 3, got {piece!r}")
    check_window_set(params, pset)
    return _band_quadrature(piece, params, coeffs, kernel, pset)


def middle_band_sweep(
    params: RunParameters,
    coeffs: Coefficients,
    pset: PSPrimeSet,
    kernel: SmoothingKernel,
) -> MiddleBand:
    """Piece 2, [Delta, H], in one walk that also collects everything
    the majorant chain needs, so the expensive sweep is never run twice
    (piece_quadrature's piece 2)."""
    return piece_quadrature(2, params, coeffs, kernel, pset)


@dataclass(frozen=True)
class Gamma2Majorant:
    """Majorant chain for the middle band, loosest to tightest reversed.

    Writing F = min(|S1|, |S2|), the three bounds are

        bound_cross   = (7 eps / 2) * int F * |S3| (|S1| + |S2|)
        bound_squares = (7 eps / 2) * int F * (|S1|^2 + |S2|^2 + |S3|^2)
        bound_factored= (7 eps / 2) * sup F * (T1 + T2 + T3)

    each an upper bound for |middle band| (the product of three moduli
    is at most F times |S3|(|S1|+|S2|), pointwise), and each at most the
    next.  sup F and the T_k are the sweep's (MiddleBand.sup_small_pair
    and t_integrals); sup F is the best grid sample polished by a
    golden-section search, a lower estimate of the true supremum
    (1261.91 on instance A).  The shape ratios compare sup F against
    X^((37-12 gamma)/26) * log^5 X and each T_k against
    H * X^(2-gamma) * log^2 X.
    """

    bound_cross: float
    bound_squares: float
    bound_factored: float
    prefactor: float
    sup_shape_ratio: float
    t_shape_ratios: tuple[float, float, float]


def gamma2_majorant(params: RunParameters, band: MiddleBand) -> Gamma2Majorant:
    """Assemble the middle-band majorant chain from a sweep's statistics.

    Uses the plateau bound 7*eps/4 on |Theta| with the instance's
    effective width (the canonical kernel width), and a factor 2 folding
    the band's negative half onto the positive one.
    """
    eps = params.epsilon_effective
    pref = 2.0 * (7.0 * eps / 4.0)
    cross = pref * band.cross_integral
    squares = pref * band.squares_integral
    t1, t2, t3 = band.t_integrals
    factored = pref * band.sup_small_pair * (t1 + t2 + t3)
    g = params.gamma.value
    lx = params.log_X
    sup_shape = math.exp((37.0 - 12.0 * g) / 26.0 * lx) * lx**5
    t_shape = params.H_effective * math.exp((2.0 - g) * lx) * lx**2
    return Gamma2Majorant(
        bound_cross=cross,
        bound_squares=squares,
        bound_factored=factored,
        prefactor=pref,
        sup_shape_ratio=band.sup_small_pair / sup_shape,
        t_shape_ratios=(t1 / t_shape, t2 / t_shape, t3 / t_shape),
    )


# ---------------------------------------------------------------------------
# main term


def integral_J(
    params: RunParameters, coeffs: Coefficients, kernel: SmoothingKernel
) -> BandQuadrature:
    """The main term J, band J of the walker: the main band's integral
    with the exponential sums replaced by their window integrals
    (_window_factors), on piece 1's grid over [0, Delta], with its error
    bar.  Real by construction: folded onto -t, where the integrand is
    its conjugate (BandQuadrature)."""
    return _band_quadrature("J", params, coeffs, kernel)


@dataclass(frozen=True)
class BoxIntegral:
    value: float
    feasible: bool
    ratio_eps_x2: float


def box_integral_B(
    params: RunParameters, coeffs: Coefficients, kernel: SmoothingKernel
) -> BoxIntegral:
    """Main term: gamma^3 times theta(form) integrated over the cube
    (lambda0*X, X]^3, in closed form.

    Integrating along each axis in turn, the cube integral is the
    signed sum over the 8 corners c of G3(l . c + eta) / (l1 l2 l3),
    G3 theta's third antiderivative (exact, kernel._antiderivatives),
    the sign -1 per coordinate at the lower edge; the corners are added
    exactly rounded (math.fsum).  Infeasible instances return zero with
    the flag down.
    """
    feasible = feasible_box_check(
        coeffs, params.lambda0, params.X, kernel.epsilon
    )
    if not feasible:
        return BoxIntegral(0.0, False, 0.0)
    lam1, lam2, lam3 = coeffs.lambdas
    x = params.X
    edges = (x, params.lambda0 * x)
    corners = list(itertools.product((0, 1), repeat=3))
    forms = np.array([lam1 * edges[i] + lam2 * edges[j] + lam3 * edges[l]
                      + coeffs.eta for i, j, l in corners])
    g3 = _antiderivatives(kernel, forms)[1].tolist()
    total = math.fsum((-1.0) ** sum(c) * v for c, v in zip(corners, g3))
    value = params.gamma.value**3 * total / (lam1 * lam2 * lam3)
    ratio = value / (kernel.epsilon * x * x)
    return BoxIntegral(value, True, ratio)


@dataclass(frozen=True)
class PhiBound:
    value: float
    shape_ratio: float


def phi_bound(
    params: RunParameters, kernel: SmoothingKernel, coeffs: Coefficients
) -> PhiBound:
    """Majorant for the difference between the main-band integral and
    the box term: both half-lines |t| > Delta of |Theta|'s bound
    (transform_bound) times the three window-integral bounds min(plateau,
    1/(pi |l_i| t)), plateau = gamma (1 - lambda0) X, in closed form.

    Between consecutive knots past Delta, namely 4/(7 pi eps) where 7
    eps/4 meets 1/(pi t), the decay corner 4k/(pi eps) and 1/(pi |l_i|
    plateau) per l_i, the envelope is a monomial C t^-m.  Each piece is
    integrated exactly in log space (a log for m = 1); the last, with m =
    k + 4, runs to infinity.  The pieces are added exactly rounded.

    The shape ratio records value / (eps / Delta^2).
    """
    g = params.gamma.value
    plateau = g * (1.0 - params.lambda0) * params.X
    eps, k, delta = kernel.epsilon, kernel.k, params.Delta
    flat_end = 4.0 / (7.0 * math.pi * eps)
    corner = 4.0 * k / (math.pi * eps)
    lams = [abs(l) for l in coeffs.lambdas]
    arm_ends = [1.0 / (math.pi * l * plateau) for l in lams]
    knots = sorted(x for x in (flat_end, corner, *arm_ends) if x > delta)
    pieces = []
    for lo, hi in zip([delta, *knots], [*knots, math.inf]):
        # each min's branch on (lo, hi), which no knot splits
        if lo < flat_end:
            log_c, m = math.log(7.0 * eps / 4.0), 0
        elif lo < corner:
            log_c, m = -math.log(math.pi), 1
        else:
            log_c, m = k * math.log(corner) - math.log(math.pi), k + 1
        for l, end in zip(lams, arm_ends):
            decays = lo >= end
            log_c += -math.log(math.pi * l) if decays else math.log(plateau)
            m += decays
        span = math.log(hi / lo)
        pieces.append(math.exp(log_c) * span if m == 1 else
                      math.exp(log_c + (1 - m) * math.log(lo))
                      * math.expm1((1 - m) * span) / (1 - m))
    value = 2.0 * math.fsum(pieces)
    return PhiBound(value, value / (eps / (delta * delta)))


# ---------------------------------------------------------------------------
# far tail


def far_tail_majorant(
    params: RunParameters,
    kernel: SmoothingKernel,
    pset: PSPrimeSet,
    start: "float | None" = None,
) -> float:
    """The far band's bound: over |t| > start (default H) the transform's
    decay branch integrates to (2/(pi k)) * (4k/(pi eps start))^k, taken
    against the supremum S(0)^3 of the three-sum product (|S| <= S(0),
    the window's exactly rounded sum at zero).  At H it bounds the whole
    far band (DecompositionResult.tail); from piece3_truncation's cut it
    covers the tail that piece 3's quadrature omits."""
    check_window_set(params, pset)
    s0 = _sum_at_zero(pset)
    if s0 == 0.0:
        return 0.0
    k = kernel.k
    start = params.H_effective if start is None else start
    base = 4.0 * k / (math.pi * kernel.epsilon * start)
    log_value = (math.log(2.0) - math.log(math.pi * k) + 3.0 * math.log(s0)
                 + k * math.log(base))
    return math.exp(log_value) if log_value < 700.0 else math.inf


# ---------------------------------------------------------------------------
# orchestration


@dataclass(frozen=True)
class DecompositionResult:
    """Both sides of the transform identity with every bound attached.

    bands holds one record per band of the walker, by key: "J" the main
    term J (integral_J), 1 to 3 the band integrals gamma1..3, 2 the
    middle band with its statistics (middle).  Each carries its value,
    real by construction (folded from the band's half t >= 0), its error
    bar, grid size and spacing (BandQuadrature); gamma3's bar is against
    the whole far band |t| > H (an empty piece 3 has 0 points, which
    truncation_empty reports).  gamma_total is the three pieces' sum; direct_value and triples_found
    come from the meet-in-the-middle count when requested, with
    closure_error the relative gap between the two sides.  The scale
    ratio reports gamma_total / (eps X^2) without asserting any
    constant.  The main-term box integral and its remainder majorant are
    box.value and phi.value; tail is the bound on the whole far band
    |t| > H (far_tail_majorant at H), so |gamma3| <= tail."""

    bands: dict
    gamma_total: float
    direct_value: "float | None"
    triples_found: "int | None"
    closure_error: "float | None"
    scale_ratio: float
    piece3_cut: float
    majorant: Gamma2Majorant
    box: BoxIntegral
    phi: PhiBound
    tail: float

    gamma1 = property(lambda self: self.bands[1].value)
    gamma2 = property(lambda self: self.bands[2].value)
    gamma3 = property(lambda self: self.bands[3].value)
    j_integral = property(lambda self: self.bands["J"].value)
    middle = property(lambda self: self.bands[2])
    truncation_empty = property(lambda self: self.bands[3].n_points == 0)


def decompose(
    params: RunParameters,
    coeffs: Coefficients,
    pset: PSPrimeSet,
    kernel: SmoothingKernel | None = None,
    with_direct: bool = True,
) -> DecompositionResult:
    """Full desk-scale decomposition of the weighted triple count.

    Builds the canonical kernel (effective width, k = params.kernel_k)
    unless one is supplied; a supplied kernel must have that width, which
    the band edge H and the majorant chain also take.  Sizes every band
    (check_band_grids: a band past the point cap fails before any sweep),
    walks each band once, with its error bar (the main term J by
    integral_J, pieces 1 and 3 by piece_quadrature, piece 2 by the
    middle-band sweep that also feeds the majorant chain), and adds the
    main term's box integral and remainder bound, the far band's bound,
    and (by default) the direct count closing the transform identity.
    """
    check_window_set(params, pset)
    if kernel is None:
        kernel = make_kernel(params.epsilon_effective, params.kernel_k)
    elif kernel.epsilon != params.epsilon_effective:
        raise ParameterError(f"kernel width {kernel.epsilon!r} does not match "
                             f"instance width {params.epsilon_effective!r}")
    check_band_grids(params, coeffs, kernel)
    bands = {
        "J": integral_J(params, coeffs, kernel),
        1: piece_quadrature(1, params, coeffs, kernel, pset),
        2: middle_band_sweep(params, coeffs, pset, kernel),
        3: piece_quadrature(3, params, coeffs, kernel, pset),
    }
    total = bands[1].value + bands[2].value + bands[3].value

    direct_value = found = closure = None
    if with_direct:
        direct = big_gamma_direct(params, coeffs, kernel, pset)
        direct_value = direct.value
        found = direct.triples_found
        if direct_value != 0.0:
            closure = abs(total - direct_value) / abs(direct_value)

    eps = params.epsilon_effective
    return DecompositionResult(
        bands=bands,
        gamma_total=total,
        direct_value=direct_value,
        triples_found=found,
        closure_error=closure,
        scale_ratio=total / (eps * params.X * params.X),
        piece3_cut=piece3_truncation(params, kernel),
        majorant=gamma2_majorant(params, bands[2]),
        box=box_integral_B(params, coeffs, kernel),
        phi=phi_bound(params, kernel, coeffs),
        tail=far_tail_majorant(params, kernel, pset),
    )
