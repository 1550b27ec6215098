"""Weighted prime-triple counts and their frequency-side decomposition.

The central object is the weighted number of triples (p1, p2, p3) of
floor-power primes in a window (lambda0*X, X] whose linear form
l1*p1 + l2*p2 + l3*p3 + eta lands within a search width eps of zero,
each triple weighted by theta(form) * (p1*p2*p3)^(1-gamma) * log p1 *
log p2 * log p3.  Expanding theta through its transform turns that count
into an integral of Theta(t) times three exponential sums and a unit
phase, which splits into three bands: |t| < Delta (main term),
Delta <= |t| <= H (oscillatory middle), and |t| > H (far tail).

This module computes both sides at desk scale: the count directly by a
sorted meet-in-the-middle sweep, the three band integrals and the
main-term integral J by oscillation-resolving Boole quadrature on
uniform grids (one band walker, _band_quadrature), the main-term box
integral and its remainder majorant, the closed-form far-tail bound,
and the middle-band majorant chain.  Every band grid starts at 7
samples per period of the fastest phase; each band integral carries an
error bar taken from the same samples (Boole at h against Boole on the
2h subgrid) and is refined by its midpoints while that bar exceeds
1e-9 of |J|.  Band grids are processed in fixed-size chunks whose
partial sums are added exactly rounded (math.fsum), so totals are
deterministic and independent of the evaluation schedule.
A band's exponential sums come from one evaluator plan per coefficient
(expsums.ps_sum_plan) for its full chunks and one for its ragged last
chunk, so the phase tables and output buffers are built per band, not
per chunk, with the same bits.

The triple weight carries the factor (p1*p2*p3)^(1-gamma): the
exponential sums are weighted by p^(1-gamma) * log p, so the transform
identity closes only with that factor present on the direct side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernel import (
    GridTransform,
    SmoothingKernel,
    make_kernel,
    theta,
    theta_antiderivative,
    theta_transform,
    transform_bound,
)
from .params import Coefficients, ParameterError, RunParameters, feasible_box_check
from .primes import PSPrimeSet, check_window_set, ps_indicator
from .quadrature import QuadratureError, adaptive_simpson
# boole_weight is not called here (the band walker weights residue-class
# sums); perfbench's tracer wraps the name triplesum.boole_weight.
from .quadrature import boole_weight  # noqa: F401

__all__ = [
    "TripleRecord",
    "TripleSumResult",
    "MiddleBand",
    "Gamma2Majorant",
    "BoxIntegral",
    "PhiBound",
    "TailBound3",
    "BandQuadrature",
    "DecompositionResult",
    "big_gamma_direct",
    "triple_sum_bruteforce",
    "find_triples",
    "triple_threshold",
    "threshold_vacuous",
    "gamma_piece",
    "piece_quadrature",
    "check_band_grids",
    "piece3_truncation",
    "middle_band_sweep",
    "gamma2_majorant",
    "integral_J",
    "box_integral_B",
    "phi_bound",
    "tail_bound_gamma3",
    "far_tail_majorant",
    "decompose",
]

# Uniform band grids are evaluated in fixed chunks of _CHUNK points (one
# evaluator call per sum), and each chunk is walked in blocks of _BLOCK
# points whose buffers stay in cache.  Each block's dot products round
# within the block, so changing either size would regroup them and
# perturb totals in the last bits, even though the per-block values are
# then summed exactly rounded; they are module constants rather than
# parameters.
_CHUNK = 1 << 21
_BLOCK = 1 << 14

# Band density: every band grid starts at _BASE_POINTS_PER_PERIOD
# samples per period of the fastest phase, and _band_quadrature halves
# the spacing of pieces 1 to 3 while a piece's error bar exceeds
# _BAND_REL_TOL times |J| (integral_J, which stays at the base density).
_BASE_POINTS_PER_PERIOD = 7
_BAND_REL_TOL = 1e-9

# Boole weights by grid index mod 8 on an 8m+1 grid, the two ends aside
# (they weigh 7 in every rule): at spacing h (times 2h/45) and on the
# even-index subgrid at 2h (times 4h/45).  In units of 2h/45,
# Q_h - Q_2h weighs the classes _BOOLE_H - 2 * _BOOLE_2H and the ends +7.
_BOOLE_H = (14.0, 32.0, 12.0, 32.0, 14.0, 32.0, 12.0, 32.0)
_BOOLE_2H = (14.0, 0.0, 32.0, 0.0, 12.0, 0.0, 32.0, 0.0)
_BOOLE_GAP = tuple(a - 2.0 * b for a, b in zip(_BOOLE_H, _BOOLE_2H))

# Main-term quadrature settings: box_integral_B doubles its Simpson
# panels from _BOX_PANELS until two totals agree to _BOX_REL_TOL (at most
# _BOX_MAX_PANELS); phi_bound integrates its envelope to _PHI_REL_TOL.
_BOX_REL_TOL = 1e-5
_BOX_PANELS = 64
_BOX_MAX_PANELS = 4096
_PHI_REL_TOL = 1e-7

# Hard cap on band grid sizes; beyond this the quadrature is declared
# non-convergent rather than attempted.
_MAX_BAND_POINTS = 1 << 31

_BRUTE_LIMIT = 512


def _full_weights(pset: PSPrimeSet) -> np.ndarray:
    # p^(1-gamma) * log p, the per-prime factor of the triple weight
    return pset.weight_w * pset.weight_log


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


def _matched_sweep(
    coeffs: Coefficients,
    kernel: SmoothingKernel,
    pset: PSPrimeSet,
    eps_search: float,
    collect: bool,
):
    """Meet-in-the-middle sweep over sorted l3*p3 values.

    For each p1 the admissible p3 of every p2 lie in an interval of the
    sorted array, found by two binary searches; one row's intervals are
    expanded into index arrays and weighted by one theta call.  The open
    window |form| < eps exactly matches the kernel support, on whose
    boundary theta vanishes, so no weight is lost at the edges.  Returns
    the exactly rounded (math.fsum) weighted total, the window
    population, and (with collect) the matched triples as arrays p1, p2,
    p3, form, weight.
    """
    lam1, lam2, lam3 = coeffs.lambdas
    p_int = pset.primes
    p = p_int.astype(np.float64)
    w = _full_weights(pset)
    z3 = lam3 * p
    order = np.argsort(z3, kind="stable")
    z3s = z3[order]
    w3s = w[order]

    parts = []
    for i in range(p.size):
        targets = (lam1 * p[i] + coeffs.eta) + lam2 * p
        lo = np.searchsorted(z3s, -targets - eps_search, side="right")
        hi = np.searchsorted(z3s, -targets + eps_search, side="left")
        counts = np.maximum(hi - lo, 0)
        j = np.repeat(np.arange(p.size), counts)
        starts = np.cumsum(counts) - counts
        k = lo[j] + np.arange(j.size) - starts[j]
        forms = targets[j] + z3s[k]
        weights = (w[i] * w[j]) * (w3s[k] * theta(kernel, forms))
        parts.append((np.full(j.size, i), j, k, forms, weights))
    i1, i2, k3, forms, weights = (np.concatenate(c) for c in zip(*parts))
    total = math.fsum(weights.tolist())
    triples = None
    if collect:
        triples = (p_int[i1], p_int[i2], p_int[order][k3], forms, weights)
    return total, int(forms.size), triples


def big_gamma_direct(
    params: RunParameters,
    coeffs: Coefficients,
    kernel: SmoothingKernel,
    pset: PSPrimeSet,
    eps_search: float,
) -> TripleSumResult:
    """Weighted triple count by meet-in-the-middle over sorted l3*p3.

    O(n^2 log n) instead of the cubic triple loop; deterministic, with
    the per-triple weights summed exactly rounded (math.fsum), so the
    total does not depend on enumeration order.  The window
    population triples_found is boundary-sensitive: a form landing
    within rounding of the search width may count or not depending on
    association order, but carries zero weight either way.
    """
    check_window_set(params, pset)
    if not eps_search > 0.0:
        raise ParameterError(f"eps_search must be positive, got {eps_search}")
    if not math.isclose(kernel.epsilon, eps_search, rel_tol=1e-12):
        raise ParameterError(
            f"kernel width {kernel.epsilon!r} does not match "
            f"search width {eps_search!r}"
        )
    if pset.count == 0:
        return TripleSumResult(0.0, 0, True)
    value, found, _ = _matched_sweep(coeffs, kernel, pset, eps_search, False)
    return TripleSumResult(value, found, False)


def triple_sum_bruteforce(
    params: RunParameters,
    coeffs: Coefficients,
    kernel: SmoothingKernel,
    pset: PSPrimeSet,
    eps_search: float,
) -> TripleSumResult:
    """Cubic reference enumeration; oracle for the sweep on small sets."""
    check_window_set(params, pset)
    if not eps_search > 0.0:
        raise ParameterError(f"eps_search must be positive, got {eps_search}")
    if pset.count == 0:
        return TripleSumResult(0.0, 0, True)
    if pset.count > _BRUTE_LIMIT:
        raise ParameterError(
            f"brute force capped at {_BRUTE_LIMIT} primes, got {pset.count}"
        )
    lam1, lam2, lam3 = coeffs.lambdas
    p = pset.primes.astype(np.float64)
    w = _full_weights(pset)
    forms = (
        lam1 * p[:, None, None]
        + lam2 * p[None, :, None]
        + lam3 * p[None, None, :]
        + coeffs.eta
    )
    mask = np.abs(forms) < eps_search
    found = int(mask.sum())
    if found == 0:
        return TripleSumResult(0.0, 0, False)
    wprod = w[:, None, None] * w[None, :, None] * w[None, None, :]
    vals = wprod[mask] * theta(kernel, forms[mask])
    return TripleSumResult(math.fsum(vals.tolist()), found, False)


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
    reach = sum(abs(l) for l in coeffs.lambdas) * params.X + abs(coeffs.eta)
    return params.epsilon > reach


def find_triples(
    params: RunParameters,
    coeffs: Coefficients,
    pset: PSPrimeSet,
    eps_search: float,
    max_results: int = 1000,
) -> list[TripleRecord]:
    """Explicit triples with |form| < eps_search, nearest-to-zero first.

    Each emitted record is re-verified from scratch: both floor-power
    membership checks and the form evaluation are redone outside the
    sweep.  Sets with fewer than three primes are degenerate and yield
    no triples.  The threshold fields compare |form| against the
    admissibility width at the triple's largest prime.
    """
    check_window_set(params, pset)
    if not eps_search > 0.0:
        raise ParameterError(f"eps_search must be positive, got {eps_search}")
    if max_results < 1:
        raise ParameterError(f"max_results must be >= 1, got {max_results}")
    if pset.count < 3:
        return []
    kern = make_kernel(eps_search, params.kernel_k)
    _, _, (p1s, p2s, p3s, forms, weights) = _matched_sweep(
        coeffs, kern, pset, eps_search, True
    )
    top = np.lexsort((p3s, p2s, p1s, np.abs(forms)))[:max_results]
    gamma = params.gamma.value
    lam1, lam2, lam3 = coeffs.lambdas
    # Recomputing the form associates the additions differently from the
    # sweep, so agreement is only up to rounding at the form's dynamic
    # range, not at the search width.
    reach = sum(abs(l) for l in coeffs.lambdas) * params.X + abs(coeffs.eta)
    tol = 1e-12 * max(1.0, reach)
    out: list[TripleRecord] = []
    for p1, p2, p3, form, weight in zip(
        *(a[top].tolist() for a in (p1s, p2s, p3s, forms, weights))
    ):
        for q in (p1, p2, p3):
            if ps_indicator(q, gamma) != 1:
                raise RuntimeError(
                    f"re-verification failed: {q} is not a floor-power prime"
                )
        check = lam1 * p1 + lam2 * p2 + lam3 * p3 + coeffs.eta
        if not (abs(check) < eps_search + tol and abs(check - form) <= tol):
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


def _band_grid(
    t_lo: float, t_hi: float, coeffs: Coefficients, params: RunParameters
) -> tuple[int, float]:
    """Base uniform grid resolving the fastest phase on the band.

    The integrand's modes oscillate at frequencies up to
    max|l_i| * X + |eta| independent of t, so a uniform spacing of
    _BASE_POINTS_PER_PERIOD (7) samples per extreme period resolves the
    whole band to the walker's tolerance on desk instances; where it
    does not, _band_quadrature refines by midpoints.  Point counts are
    rounded up to 8m+1, so that the even-index subgrid (4m+1 points) is
    itself a Boole grid and the error bar comes from the same samples.
    """
    if not t_hi > t_lo:
        raise ParameterError(f"empty band [{t_lo}, {t_hi}]")
    nu = max(abs(l) for l in coeffs.lambdas) * params.X + abs(coeffs.eta)
    span = t_hi - t_lo
    m = max(1, math.ceil(span * _BASE_POINTS_PER_PERIOD * nu / 8.0))
    n_points = 8 * m + 1
    if n_points > _MAX_BAND_POINTS:
        raise QuadratureError(
            f"band [{t_lo:.6g}, {t_hi:.6g}] needs {n_points} grid points, "
            f"beyond the {_MAX_BAND_POINTS} cap"
        )
    return n_points, span / (8 * m)


def _sum_factors(pset: PSPrimeSet, coeffs: Coefficients):
    """Factor source of the band integrals: the window's exponential sums
    S(l_i t) on a chunk's grid, from the gridded evaluator.

    The sums of one chunk size come from one plan per l_i (ps_sum_plan;
    none on the NUFFT path), the three sharing their work buffers: one
    set for the band's full chunks, replaced by one for its ragged last
    chunk, and all freed with the band.  Each sum is a view of its
    plan's output, valid until the next chunk's call.
    """
    from .expsums import ps_sum_grid, ps_sum_plan

    lams = coeffs.lambdas
    plans: dict = {}

    def factors(t0: float, h: float, n: int) -> list:
        if (h, n) not in plans:
            plans.clear()       # the full chunks' plans go before the ragged ones
            share, built = None, []
            for l in lams:
                share = ps_sum_plan(pset, l, h, n, share)
                built.append(share)
            plans[h, n] = built
        return [ps_sum_grid(pset, l, t0, h, n, plan=p)
                for l, p in zip(lams, plans[h, n])]

    return factors


def _window_factors(params: RunParameters, coeffs: Coefficients):
    """Factor source of the main term J: the window integrals of
    gamma * e(l_i t y), gamma * L * sinc(l_i t L) * e(l_i t mid), on a
    chunk's grid."""
    g = params.gamma.value
    length = (1.0 - params.lambda0) * params.X
    mid = 0.5 * (params.lambda0 * params.X + params.X)

    def factors(t0: float, h: float, n: int) -> list:
        t = t0 + h * np.arange(n)
        return [g * length * np.sinc(l * t * length)
                * np.exp((2j * np.pi) * np.mod(l * t * mid, 1.0))
                for l in coeffs.lambdas]

    return factors


@dataclass(frozen=True)
class BandQuadrature:
    """A band integral with its error bar.

    value is Boole at the final spacing; error is |Q_h - Q_2h| / 63 for
    its real part, Boole at h against Boole on the even-index subgrid
    (Boole errors scale as h^6, so the gap is 63 times the error of the
    finer rule to leading order); n_points and spacing describe the
    final grid, reached after `refinements` midpoint refinements of the
    base grid (_band_grid).
    """

    value: complex
    error: float
    n_points: int
    spacing: float
    refinements: int


def _class_rule(parts: np.ndarray, ends: np.ndarray, q: int,
                weights: tuple, end_weight: float) -> float:
    """Exactly rounded sum of weights[c] times every class-c partial of
    quantity q, plus end_weight times each of the two end samples."""
    terms = (parts[:, q, :] * np.asarray(weights, dtype=np.float64)).ravel().tolist()
    terms.extend((end_weight * ends[:, q]).tolist())
    return math.fsum(terms)


def _fold(parts: np.ndarray, mids: np.ndarray) -> np.ndarray:
    """Class partials of a grid refined by its midpoints.

    Old index k becomes 2k and midpoint k becomes 2k+1, so new class c
    (mod 8) collects old classes c/2 and c/2 + 4 for even c, and
    midpoint classes (c-1)/2 and (c-1)/2 + 4 for odd c.  Partials are
    moved, never added, so the final fsum still rounds once.
    """
    b, m = parts.shape[0], mids.shape[0]
    out = np.zeros((2 * (b + m),) + parts.shape[1:])
    out[:b, :, 0::2] = parts[:, :, :4]
    out[b : 2 * b, :, 0::2] = parts[:, :, 4:]
    out[2 * b : 2 * b + m, :, 1::2] = mids[:, :, :4]
    out[2 * b + m :, :, 1::2] = mids[:, :, 4:]
    return out


def _band_quadrature(
    params: RunParameters,
    coeffs: Coefficients,
    kernel: SmoothingKernel,
    t_lo: float,
    t_hi: float,
    factors,
    collect: bool,
    tol: float,
):
    """Boole quadrature of Theta * F1 * F2 * F3 * e(eta t) over [t_lo, t_hi]
    with its error bar, refined by midpoints until the bar is within tol.

    Sampling is chunked over the grid in index order; factors(t0, h,
    count) gives a chunk's three factors (_sum_factors for the band
    integrals, _window_factors for J), which may be views of buffers
    that the next chunk's call overwrites, and the chunk is then walked
    in blocks of _BLOCK points whose Theta values, integrand and
    statistics live in small reused buffers.  Theta comes from
    GridTransform on bands with t_lo >= 0 and from theta_transform on
    the symmetric band.

    No sample is weighted: every quantity (the real and imaginary parts
    of the Theta-weighted integrand and, with collect, the three
    squared moduli and the two majorant integrands) is kept as its 8
    residue-class sums (grid index mod 8, one partial per block), plus
    its two end samples.  Boole at h, Boole on the even-index 2h
    subgrid and, after a refinement, Boole at h/2 are fixed
    combinations of those sums, each summed exactly rounded (math.fsum)
    at the end.  The bar is |Q_h - Q_2h| / 63 of the real part.  While
    it exceeds tol, only the midpoints t_lo + h/2 + k h are sampled;
    they have the spacing h of the grid they refine, so its evaluator
    plans and GridTransform tables still serve, and its class sums fold
    into the new grid's.  While the band is resolved each halving cuts
    the bar about 64-fold; a halving that does not at least halve it
    shows the bar has reached the rounding floor, where refining cannot
    narrow it, so the walk stops there and reports a bar above tol (a J
    that nearly cancels, as with a shift past the window's reach, asks
    for more than rounding allows).  A band whose refinement would pass
    _MAX_BAND_POINTS raises QuadratureError.  The refinement decision
    compares a rounded estimate with a threshold, so like every sum
    here it is bitwise reproducible only at a fixed BLAS library and
    thread count.

    With collect the walk also returns the squared-modulus integrals,
    the supremum of min(|S1|, |S2|) over every sample taken, and the
    two weighted integrals of that minimum, all Boole-weighted on the
    final grid.
    """
    n_points, h = _band_grid(t_lo, t_hi, coeffs, params)
    eta = coeffs.eta
    rows = 7 if collect else 2
    # rows of q_buf: Re and Im of the integrand, then with collect
    # |S1|^2, |S2|^2, |S3|^2, min(|S1|,|S2|) |S3| (|S1|+|S2|) and
    # min(|S1|,|S2|) (|S1|^2+|S2|^2+|S3|^2)
    q_buf = np.empty((rows, _BLOCK))
    offsets = np.arange(_BLOCK, dtype=np.float64)
    ones = np.ones(_BLOCK // 8)
    t_buf, theta_buf, small_buf = (np.empty(_BLOCK) for _ in range(3))
    prod_buf = np.empty(_BLOCK, dtype=np.complex128)
    mod_buf = np.empty((3, _BLOCK))

    def sample(t_start: float, step: float, count: int, rotated):
        """Class partials (blocks, rows, 8) over t_start + step j, j <
        count, the first and last samples and the supremum of
        min(|S1|, |S2|); rotated is the GridTransform at step, if any."""
        parts, sup = [], 0.0
        first = last = None
        for start in range(0, count, _CHUNK):
            n_chunk = min(_CHUNK, count - start)
            t0 = t_start + start * step
            sums = factors(t0, step, n_chunk)
            for b in range(0, n_chunk, _BLOCK):
                n = min(_BLOCK, n_chunk - b)
                blk = slice(b, b + n)
                t = np.add(offsets[:n], b, out=t_buf[:n])
                t *= step
                t += t0                 # bit for bit t0 + step * arange(count)
                if rotated is not None:
                    wt = rotated(t, theta_buf)
                else:
                    wt = theta_transform(kernel, t)
                prod = np.multiply(sums[0][blk], sums[1][blk], out=prod_buf[:n])
                prod *= sums[2][blk]
                if eta != 0.0:
                    prod *= np.exp((2j * np.pi) * np.mod(eta * t, 1.0))
                q = q_buf[:, :n]
                np.multiply(prod.real, wt, out=q[0])
                np.multiply(prod.imag, wt, out=q[1])
                if collect:
                    a = mod_buf[:, :n]
                    for i in range(3):
                        np.abs(sums[i][blk], out=a[i])
                    small = np.minimum(a[0], a[1], out=small_buf[:n])
                    sup = max(sup, float(small.max()))
                    np.add(a[0], a[1], out=q[5])
                    q[5] *= a[2]
                    q[5] *= small
                    np.multiply(a, a, out=q[2:5])
                    np.add(q[2], q[3], out=q[6])
                    q[6] += q[4]
                    q[6] *= small
                # blocks start at multiples of 8, so local index mod 8 is
                # the position in each row of 8; a ragged tail is added in
                n8 = n - n % 8
                cls = np.matmul(ones[: n8 // 8], q[:, :n8].reshape(rows, -1, 8))
                cls[:, : n - n8] += q[:, n8:]
                parts.append(cls)
                if start + b == 0:
                    first = q[:, 0].copy()
                if start + b + n == count:
                    last = q[:, n - 1].copy()
            del sums    # freed before the next chunk's sums are built
        return np.stack(parts), first, last, sup

    rotated = GridTransform(kernel, h, _BLOCK) if t_lo >= 0.0 else None
    parts, first, last, sup = sample(t_lo, h, n_points, rotated)
    ends = np.stack([first, last])
    refinements = 0
    last_bar = math.inf
    while True:
        scale = 2.0 * h / 45.0
        re = _class_rule(parts, ends, 0, _BOOLE_H, -7.0) * scale
        bar = abs(_class_rule(parts, ends, 0, _BOOLE_GAP, 7.0) * scale) / 63.0
        if bar <= tol or bar > 0.5 * last_bar:
            break
        last_bar = bar
        if 2 * n_points - 1 > _MAX_BAND_POINTS:
            raise QuadratureError(
                f"band [{t_lo:.6g}, {t_hi:.6g}] has error bar {bar:.3g} "
                f"above {tol:.3g} at {n_points} points; refining passes "
                f"the {_MAX_BAND_POINTS} cap"
            )
        mids, _, _, mid_sup = sample(t_lo + 0.5 * h, h, n_points - 1, rotated)
        parts = _fold(parts, mids)
        sup = max(sup, mid_sup)
        n_points, h = 2 * n_points - 1, 0.5 * h
        refinements += 1
        if rotated is not None:     # the next midpoints' spacing
            rotated = GridTransform(kernel, h, _BLOCK)
    im, *collected = [_class_rule(parts, ends, q, _BOOLE_H, -7.0) * scale
                      for q in range(1, rows)]
    band = BandQuadrature(complex(re, im), bar, n_points, h, refinements)
    if not collect:
        return band, None
    t1, t2, t3, cross, squares = collected
    return band, ((t1, t2, t3), sup, cross, squares)


def _band_edges(params: RunParameters, kernel: SmoothingKernel):
    """[t_lo, t_hi] of each band by piece: |t| < Delta for 1 (and the
    main term J), [Delta, H] for 2, [H, piece3_truncation] for 3 (empty
    when t_hi <= t_lo)."""
    return {1: (-params.Delta, params.Delta),
            2: (params.Delta, params.H_effective),
            3: (params.H_effective, piece3_truncation(params, kernel))}


def check_band_grids(
    params: RunParameters, coeffs: Coefficients, kernel: SmoothingKernel
) -> None:
    """Size every band decompose integrates, evaluating nothing, so that
    a band past the point cap raises QuadratureError up front."""
    for piece, (t_lo, t_hi) in _band_edges(params, kernel).items():
        if piece < 3 or t_hi > t_lo:
            _band_grid(t_lo, t_hi, coeffs, params)


def piece3_truncation(params: RunParameters, kernel: SmoothingKernel) -> float:
    """Point past which the transform's decay branch drops below
    1e-12 * X^(3-3*gamma); quadrature beyond it is pure noise against
    the analytic tail bound.  May land at or below the band start, in
    which case the far band contributes only its bound."""
    k = kernel.k
    g = params.gamma.value
    log_c = math.log(4.0 * k / (math.pi * kernel.epsilon))
    log_tol = math.log(1e-12) + (3.0 - 3.0 * g) * params.log_X
    return math.exp((k * log_c - math.log(math.pi) - log_tol) / (k + 1))


def _band_tolerance(params, coeffs, kernel, j_integral) -> float:
    """The bar a piece may carry: _BAND_REL_TOL times |J|, with J
    computed here unless the caller already has it."""
    if j_integral is None:
        j_integral = integral_J(params, coeffs, kernel)
    return _BAND_REL_TOL * abs(j_integral)


def piece_quadrature(
    piece: int, params: RunParameters, coeffs: Coefficients,
    kernel: SmoothingKernel, pset: PSPrimeSet,
    j_integral: "float | None" = None,
) -> BandQuadrature:
    """One band of the transform-side integral with its error bar.

    Piece 1 covers |t| < Delta on a symmetric grid, so its imaginary
    part is a quadrature diagnostic (zero up to grid noise when eta =
    0).  Pieces 2 and 3 pair t with -t analytically: the integrand at
    -t is the conjugate of the integrand at t, so each equals twice the
    real part of its one-sided integral, carries imaginary part exactly
    zero, and carries twice the one-sided bar.  Piece 3 is truncated
    where the transform's decay branch is negligible; the remainder is
    covered by the analytic bound, never by quadrature, and an empty
    truncated band is 0 with no grid.

    The band is refined until its bar is within _BAND_REL_TOL * |J|;
    j_integral is integral_J's value if the caller has it (otherwise it
    is computed, about a millisecond).  For the standard decomposition
    the kernel should be built with the search width and k =
    params.kernel_k.
    """
    if piece not in (1, 2, 3):
        raise ParameterError(f"piece must be 1, 2, or 3, got {piece!r}")
    check_window_set(params, pset)
    t_lo, t_hi = _band_edges(params, kernel)[piece]
    if piece == 3 and t_hi <= t_lo:
        return BandQuadrature(complex(0.0, 0.0), 0.0, 0, 0.0, 0)
    # pieces 2 and 3 are twice a one-sided integral, bar included
    fold = 1.0 if piece == 1 else 2.0
    band, _ = _band_quadrature(
        params, coeffs, kernel, t_lo, t_hi, _sum_factors(pset, coeffs), False,
        _band_tolerance(params, coeffs, kernel, j_integral) / fold,
    )
    value = band.value if piece == 1 else complex(2.0 * band.value.real, 0.0)
    return BandQuadrature(value, fold * band.error, band.n_points,
                          band.spacing, band.refinements)


def gamma_piece(
    piece: int, params: RunParameters, coeffs: Coefficients,
    kernel: SmoothingKernel, pset: PSPrimeSet,
) -> complex:
    """The value of piece_quadrature: one band of the transform-side
    integral, as a complex number."""
    return piece_quadrature(piece, params, coeffs, kernel, pset).value


@dataclass(frozen=True)
class MiddleBand:
    """One-sided sweep of [Delta, H] with its byproduct statistics.

    half_integral is the one-sided integral of Theta * S1 * S2 * S3 *
    e(eta t); t_integrals are the one-sided integrals of |S(l_k t)|^2;
    sup_small_pair is the largest min(|S1|, |S2|) over the samples
    taken, a lower estimate of the true supremum (on instance A it
    reads 1261.84 at 12 samples per period and 1261.49 at 7);
    cross_integral and squares_integral are the weighted integrals of
    that minimum against |S3|(|S1|+|S2|) and |S1|^2+|S2|^2+|S3|^2.
    error is the bar of gamma2 (twice the one-sided bar), and n_points,
    spacing and refinements describe the final grid (BandQuadrature).
    """

    half_integral: complex
    t_integrals: tuple[float, float, float]
    sup_small_pair: float
    cross_integral: float
    squares_integral: float
    n_points: int
    spacing: float
    error: float
    refinements: int

    @property
    def gamma2(self) -> complex:
        return complex(2.0 * self.half_integral.real, 0.0)


def middle_band_sweep(
    params: RunParameters,
    coeffs: Coefficients,
    pset: PSPrimeSet,
    kernel: SmoothingKernel,
    j_integral: "float | None" = None,
) -> MiddleBand:
    """Single pass over [Delta, H] collecting the middle-band integral
    together with everything the majorant chain needs, so the expensive
    sweep is never run twice; refined like piece_quadrature's bands,
    with j_integral as there."""
    check_window_set(params, pset)
    tol = _band_tolerance(params, coeffs, kernel, j_integral)
    band, stats = _band_quadrature(
        params, coeffs, kernel, *_band_edges(params, kernel)[2],
        _sum_factors(pset, coeffs), True, 0.5 * tol,
    )
    t_ints, sup, cross, squares = stats
    return MiddleBand(band.value, t_ints, sup, cross, squares, band.n_points,
                      band.spacing, 2.0 * band.error, band.refinements)


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
    and t_integrals); sup F is a maximum over grid samples, a lower
    estimate of the true supremum (1261.84 at 12 samples per period and
    1261.49 at 7 on instance A).  The shape ratios compare sup F against
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
) -> float:
    """Main-band integral with the exponential sums replaced by their
    window integrals (_window_factors), on piece 1's grid by the band
    walker at its base density; real by conjugate symmetry, with the
    imaginary residue checked against an absolute scale set by the
    integrand's supremum.  Its modulus scales every band's tolerance,
    so it is never refined itself: where J nearly cancels (a shift past
    the window's reach), a tolerance relative to J could not be met."""
    t_lo, t_hi = _band_edges(params, kernel)[1]
    band, _ = _band_quadrature(
        params, coeffs, kernel, t_lo, t_hi, _window_factors(params, coeffs),
        False, math.inf,
    )
    value = band.value
    g = params.gamma.value
    sup_scale = (g * (1.0 - params.lambda0) * params.X) ** 3 * (t_hi - t_lo)
    if abs(value.imag) > 1e-9 * sup_scale:
        raise QuadratureError(
            f"main-band integral has imaginary residue {value.imag!r} "
            f"beyond the symmetry tolerance"
        )
    return value.real


@dataclass(frozen=True)
class BoxIntegral:
    value: float
    feasible: bool
    ratio_eps_x2: float
    panels: int
    converged: bool


def box_integral_B(
    params: RunParameters, coeffs: Coefficients, kernel: SmoothingKernel
) -> BoxIntegral:
    """Main term: theta(form) integrated over the cube (lambda0*X, X]^3.

    For fixed (y1, y2) the inner integral is the theta antiderivative
    evaluated across an interval of length |l3| * (1 - lambda0) * X and
    divided by |l3|; the antiderivative is exact (theta_antiderivative),
    so only the outer double integral needs composite Simpson, doubled
    from _BOX_PANELS panels until two totals agree to _BOX_REL_TOL (at
    most _BOX_MAX_PANELS; converged reports which).  Infeasible
    instances return zero with the flag down.
    """
    feasible = feasible_box_check(
        coeffs, params.lambda0, params.X, kernel.epsilon
    )
    if not feasible:
        return BoxIntegral(0.0, False, 0.0, 0, True)
    lam1, lam2, lam3 = coeffs.lambdas
    x = params.X
    lo_edge = params.lambda0 * x
    shift_a = lam3 * x
    shift_b = lam3 * lo_edge

    def outer(n_panels: int) -> float:
        nodes = np.linspace(lo_edge, x, n_panels + 1)
        h = (x - lo_edge) / n_panels
        w1d = np.ones(n_panels + 1)
        w1d[1:-1:2] = 4.0
        w1d[2:-1:2] = 2.0
        w1d *= h / 3.0
        total = 0.0
        block = max(1, (1 << 22) // (n_panels + 1))
        base_cols = lam2 * nodes + coeffs.eta
        for s in range(0, n_panels + 1, block):
            rows = nodes[s : s + block]
            base = lam1 * rows[:, None] + base_cols[None, :]
            ua = base + shift_a
            ub = base + shift_b
            hi = np.maximum(ua, ub)
            lo = np.minimum(ua, ub)
            inner = theta_antiderivative(kernel, hi)
            inner -= theta_antiderivative(kernel, lo)
            inner /= abs(lam3)
            total += float(np.dot(w1d[s : s + block], inner @ w1d))
        return total

    panels = _BOX_PANELS
    prev = outer(panels)
    converged = False
    while panels < _BOX_MAX_PANELS:
        panels *= 2
        cur = outer(panels)
        if abs(cur - prev) <= _BOX_REL_TOL * max(abs(cur), 1e-300):
            prev = cur
            converged = True
            break
        prev = cur
    g = params.gamma.value
    value = g**3 * prev
    ratio = value / (kernel.epsilon * x * x)
    return BoxIntegral(value, True, ratio, panels, converged)


@dataclass(frozen=True)
class PhiBound:
    value: float
    shape_ratio: float
    cutoff: float
    tail_part: float


def phi_bound(
    params: RunParameters, kernel: SmoothingKernel, coeffs: Coefficients
) -> PhiBound:
    """Majorant for the difference between the main-band integral and
    the box term: both half-lines |t| > Delta of |Theta| times the
    product of min(plateau, decay) window-integral bounds, by adaptive
    quadrature to a cutoff plus a closed-form remainder.

    The shape ratio records value / (eps / Delta^2).
    """
    g = params.gamma.value
    plateau = g * (1.0 - params.lambda0) * params.X
    lams = coeffs.lambdas
    delta = params.Delta
    k = kernel.k
    eps = kernel.epsilon

    def f(t: np.ndarray) -> np.ndarray:
        out = transform_bound(kernel, t)
        for l in lams:
            out = out * np.minimum(plateau, 1.0 / (np.pi * abs(l) * t))
        return out

    # the envelope spans many decades of t and decays like a power, so
    # integrate in u = log t where it is a mild exponential profile
    def f_log(u: np.ndarray) -> np.ndarray:
        t = np.exp(u)
        return f(t) * t

    decay_corner = 4.0 * k / (math.pi * eps)
    arm_corner = max(1.0 / (math.pi * abs(l) * plateau) for l in lams)
    cutoff = max(2.0 * delta, 1.25 * decay_corner, 1.25 * arm_corner)
    main = adaptive_simpson(
        f_log, math.log(delta), math.log(cutoff), initial_panels=256,
        rel_tol=_PHI_REL_TOL,
    ).value
    # Beyond the cutoff every min picks its decay arm and |Theta| its
    # k-th power branch, so the remainder integrates in closed form.
    prod_l = abs(lams[0] * lams[1] * lams[2])
    log_tail = (
        math.log(2.0)
        + k * math.log(decay_corner)
        - math.log(math.pi**4 * prod_l * (k + 3))
        - (k + 3) * math.log(cutoff)
    )
    tail = math.exp(log_tail)
    value = 2.0 * main + tail
    shape = kernel.epsilon / (delta * delta)
    return PhiBound(value, value / shape, cutoff, tail)


# ---------------------------------------------------------------------------
# far tail


@dataclass(frozen=True)
class TailBound3:
    value: float
    base: float
    below_one: bool
    k: int
    log_value: float


def tail_bound_gamma3(
    params: RunParameters, kernel: SmoothingKernel
) -> TailBound3:
    """Closed-form far-band bound X^(3-3*gamma)/k * (4k/(pi eps H))^k.

    Evaluated in log space; with the formula width and band edge the
    base collapses to 4k/(pi log^2 X), below one for large X, so the
    k-th power drives the bound toward zero.  The flag reports whether
    the bound itself is at most one.  Finite for any k >= 1.
    """
    k = kernel.k
    g = params.gamma.value
    base = 4.0 * k / (math.pi * kernel.epsilon * params.H_effective)
    log_value = (
        (3.0 - 3.0 * g) * params.log_X
        - math.log(k)
        + k * math.log(base)
    )
    value = math.exp(log_value) if log_value < 700.0 else math.inf
    return TailBound3(value, base, value <= 1.0, k, log_value)


def far_tail_majorant(
    params: RunParameters,
    coeffs: Coefficients,
    kernel: SmoothingKernel,
    pset: PSPrimeSet,
) -> float:
    """Rigorous envelope for the whole far band |t| > H: the transform's
    decay branch integrates to (2/(pi k)) * (4k/(pi eps H))^k against
    the exact supremum S(0)^3 of the three-sum product.  Unlike the
    closed-form bound above, this uses the window's true sum at zero
    rather than a scale shape, so it majorizes the truncated quadrature
    on any instance."""
    check_window_set(params, pset)
    s0 = float(np.dot(pset.weight_w, pset.weight_log))
    if s0 == 0.0:
        return 0.0
    k = kernel.k
    base = 4.0 * k / (math.pi * kernel.epsilon * params.H_effective)
    log_value = (
        math.log(2.0)
        - math.log(math.pi * k)
        + 3.0 * math.log(s0)
        + k * math.log(base)
    )
    return math.exp(log_value) if log_value < 700.0 else math.inf


# ---------------------------------------------------------------------------
# orchestration


@dataclass(frozen=True)
class DecompositionResult:
    """Both sides of the transform identity with every bound attached.

    gamma1..3 are the three band integrals (piece 2 and 3 real by
    construction), gamma_total their sum; direct_value and triples_found
    come from the meet-in-the-middle count when requested, with
    closure_error the relative gap between the two sides.  The scale
    ratio reports Re(gamma_total) / (eps X^2) without asserting any
    constant.  The main-term box integral, its remainder majorant and
    the far-tail bound are box.value, phi.value and tail.value.
    gamma_errors, band_points and band_refinements give each piece's
    error bar, final grid size and midpoint refinements
    (BandQuadrature; an empty piece 3 has 0, 0 and 0)."""

    gamma1: complex
    gamma2: complex
    gamma3: complex
    gamma_total: complex
    j_integral: float
    direct_value: "float | None"
    triples_found: "int | None"
    closure_error: "float | None"
    scale_ratio: float
    piece3_cut: float
    truncation_empty: bool
    middle: MiddleBand
    majorant: Gamma2Majorant
    box: BoxIntegral
    phi: PhiBound
    tail: TailBound3
    gamma_errors: tuple[float, float, float]
    band_points: tuple[int, int, int]
    band_refinements: tuple[int, int, int]


def decompose(
    params: RunParameters,
    coeffs: Coefficients,
    pset: PSPrimeSet,
    kernel: SmoothingKernel | None = None,
    with_direct: bool = True,
) -> DecompositionResult:
    """Full desk-scale decomposition of the weighted triple count.

    Builds the canonical kernel (effective width, k = params.kernel_k)
    unless one is supplied, sizes every band (check_band_grids: a band
    past the point cap at its base density fails before any sweep), the
    main term J, whose modulus sets every band's tolerance, the three
    band integrals with their error bars (pieces 1 and 3 by
    piece_quadrature, piece 2 by the middle-band sweep that also feeds
    the majorant chain), the main term's box integral and remainder
    bound, the far-tail bounds, and (by default) the direct count
    closing the transform identity.
    """
    check_window_set(params, pset)
    if kernel is None:
        kernel = make_kernel(params.epsilon_effective, params.kernel_k)
    check_band_grids(params, coeffs, kernel)
    j_val = integral_J(params, coeffs, kernel)
    p1 = piece_quadrature(1, params, coeffs, kernel, pset, j_val)
    band = middle_band_sweep(params, coeffs, pset, kernel, j_val)
    p3 = piece_quadrature(3, params, coeffs, kernel, pset, j_val)
    g1, g2, g3 = p1.value, band.gamma2, p3.value
    t_cut = piece3_truncation(params, kernel)

    total = g1 + g2 + g3

    direct_value = None
    found = None
    closure = None
    if with_direct:
        direct = big_gamma_direct(params, coeffs, kernel, pset, kernel.epsilon)
        direct_value = direct.value
        found = direct.triples_found
        if direct_value != 0.0:
            closure = abs(total.real - direct_value) / abs(direct_value)

    box = box_integral_B(params, coeffs, kernel)
    phi = phi_bound(params, kernel, coeffs)
    tail = tail_bound_gamma3(params, kernel)
    majorant = gamma2_majorant(params, band)
    eps = params.epsilon_effective
    scale_ratio = total.real / (eps * params.X * params.X)
    return DecompositionResult(
        gamma1=g1,
        gamma2=g2,
        gamma3=g3,
        gamma_total=total,
        j_integral=j_val,
        direct_value=direct_value,
        triples_found=found,
        closure_error=closure,
        scale_ratio=scale_ratio,
        piece3_cut=t_cut,
        truncation_empty=t_cut <= params.H_effective,
        middle=band,
        majorant=majorant,
        box=box,
        phi=phi,
        tail=tail,
        gamma_errors=(p1.error, band.error, p3.error),
        band_points=(p1.n_points, band.n_points, p3.n_points),
        band_refinements=(p1.refinements, band.refinements, p3.refinements),
    )
