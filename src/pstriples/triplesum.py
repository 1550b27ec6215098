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
sorted meet-in-the-middle sweep; the three band integrals and the
main-term integral J by one band walker (_band_quadrature): the
trapezoid rule at f_max h <= 1/2 on the band-limited integrand minus
its Euler-Maclaurin endpoint series, with an error bar per band; the
main-term box integral and its remainder majorant, the far-tail bounds
and the middle-band majorant chain.  Band grids are walked in fixed
chunks whose partial sums are added exactly rounded (math.fsum), and a
band's exponential sums come from one evaluator plan per coefficient
(expsums.ps_sum_plan), so totals are deterministic.

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
    sinc_series,
    theta,
    theta_antiderivative,
    theta_transform,
    transform_bound,
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
    QuadratureError,
    adaptive_simpson,
    euler_maclaurin,
    euler_maclaurin_tail,
)
# boole_weight is not called here (the band walker uses the trapezoid
# rule); perfbench's tracer wraps the name triplesum.boole_weight.
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
    "band_frequency",
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

# Band grids are evaluated in chunks of _CHUNK points (one evaluator call
# per sum) and walked in blocks of _BLOCK points whose buffers stay in
# cache.  Each block's sums round within it, so changing either size
# would move totals in the last bits: they are constants, not parameters.
_CHUNK = 1 << 21
_BLOCK = 1 << 14

# Band rule (J and pieces 1 to 3): the trapezoid sum at f_max h <= _BAND_FH
# (band_frequency) minus the first _EM_TERMS terms of its Euler-Maclaurin
# endpoint series, which fall like (f_max h)^(2k).
_BAND_FH = 0.5
_EM_TERMS = 20

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


def band_frequency(
    params: RunParameters, coeffs: Coefficients, kernel: SmoothingKernel
) -> float:
    """f_max, the top frequency of every band integrand: Theta's spectrum
    is theta's support [-eps, eps] and S(l_i t)'s the l_i p, so that of
    Theta * S1 * S2 * S3 * e(eta t), as of J's integrand, lies in [lo -
    eps, hi + eps], [lo, hi] the form's range over the window cube."""
    lo, hi = form_range(coeffs, params.lambda0, params.X)
    return max(abs(lo), abs(hi)) + kernel.epsilon


def _band_grid(t_lo: float, t_hi: float, f_max: float) -> tuple[int, float]:
    """(points, spacing) of the band's grid: the fewest intervals with
    f_max h <= _BAND_FH."""
    if not t_hi > t_lo:
        raise ParameterError(f"empty band [{t_lo}, {t_hi}]")
    intervals = max(1, math.ceil((t_hi - t_lo) * f_max / _BAND_FH))
    if intervals + 1 > _MAX_BAND_POINTS:
        raise QuadratureError(
            f"band [{t_lo:.6g}, {t_hi:.6g}] needs {intervals + 1} grid points, "
            f"beyond the {_MAX_BAND_POINTS} cap"
        )
    return intervals + 1, (t_hi - t_lo) / intervals


def _centre(params: RunParameters) -> float:
    """The window's midpoint; every factor is demodulated about l_i times it."""
    return 0.5 * (params.lambda0 * params.X + params.X)


def _sum_factors(pset: PSPrimeSet, coeffs: Coefficients, centre: float):
    """Factor source of the band integrals, the window's sums S(l_i t), as
    (grid, series, amplitude, rounding) for _band_quadrature.  A chunk
    size's sums come from one plan per l_i (ps_sum_plan; none on the
    NUFFT path) sharing work buffers, one set for the full chunks and one
    for the ragged last; each sum is a view valid until the next call."""
    from .expsums import ps_sum_grid, ps_sum_plan, ps_sum_series

    lams = coeffs.lambdas
    plans: dict = {}

    def grid(t0: float, h: float, n: int) -> list:
        if (h, n) not in plans:
            plans.clear()       # the full chunks' plans go before the ragged ones
            share, built = None, []
            for l in lams:
                share = ps_sum_plan(pset, l, h, n, share)
                built.append(share)
            plans[h, n] = built
        return [ps_sum_grid(pset, l, t0, h, n, plan=p)
                for l, p in zip(lams, plans[h, n])]

    def series(x: float, h: float, n: int) -> list:
        return [ps_sum_series(pset, l, centre, x, h, n) for l in lams]

    total = float(np.sum(_full_weights(pset)))
    p_max = float(pset.primes[-1]) if pset.count else 0.0
    # ps_sum_grid's measured rounding, 4e-17 max |l p t| of sum |w|
    return grid, series, total, 4e-17 * p_max * total


def _window_factors(params: RunParameters, coeffs: Coefficients):
    """Factor source of the main term J: the window integrals of
    gamma * e(l_i t y), gamma * L * sinc(l_i t L) * e(l_i t centre),
    closed forms charged no rounding."""
    g = params.gamma.value
    length = (1.0 - params.lambda0) * params.X
    mid = _centre(params)

    def grid(t0: float, h: float, n: int) -> list:
        t = t0 + h * np.arange(n)
        return [g * length * np.sinc(l * t * length)
                * np.exp((2j * np.pi) * np.mod(l * t * mid, 1.0))
                for l in coeffs.lambdas]

    def series(x: float, h: float, n: int) -> list:
        return [g * length * sinc_series(l * length * x, l * length * h, n)
                for l in coeffs.lambdas]

    return grid, series, g * length, 0.0


@dataclass(frozen=True)
class BandQuadrature:
    """A band integral, the endpoint-corrected trapezoid rule on n_points
    at the given spacing, with its error bar: a bound on the omitted
    Euler-Maclaurin terms (euler_maclaurin_tail) plus the evaluator's
    rounding over the samples, an empirical figure."""

    value: complex
    error: float
    n_points: int
    spacing: float


def _band_quadrature(
    params: RunParameters,
    coeffs: Coefficients,
    kernel: SmoothingKernel,
    t_lo: float,
    t_hi: float,
    factors,
    collect: bool,
):
    """Theta * F1 * F2 * F3 * e(eta t) integrated over [t_lo, t_hi], with
    its error bar.

    factors is (grid, series, amplitude, rounding): grid(t0, h, count)
    gives the three factors on a chunk's grid (possibly views that the
    next call overwrites), series(x, h, n) the first n Taylor
    coefficients of each F_i(x + s h) demodulated about l_i * centre,
    amplitude bounds every |F_i| and rounding is their rounding per unit
    |l_i t|.  At f_max h <= _BAND_FH (band_frequency) the trapezoid
    rule's only error is its Euler-Maclaurin endpoint series; the first
    _EM_TERMS terms are subtracted, from the product at each end of
    Theta's series, the factors' and the carrier e(F (x + s h)), F =
    sum l_i centre + eta, kept apart (multiplying raw series cancels
    digits that the Bernoulli weights amplify).  The bar is the tail
    bound with majorant 2a amplitude^3 plus rounding times h sum |Theta
    t| sum_i |l_i| prod_{j != i} |F_j|.

    The grid is walked in chunks of _CHUNK points and blocks of _BLOCK
    points in reused buffers, Theta from GridTransform where t_lo >= 0
    and from theta_transform on the symmetric band.  Each block adds one
    plain sum per quantity, row by row so that its bits do not depend on
    the other rows, the end samples weigh 1/2, and the block sums are
    added exactly rounded: results are bitwise reproducible at a fixed
    BLAS library and thread count.

    With collect the walk also returns the |F_i|^2 integrals, corrected
    from F_i's series times its conjugate, the largest sampled
    min(|F1|, |F2|) with its t, and that minimum's plain trapezoid
    integrals, O(h^2), against |F3|(|F1|+|F2|) and |F1|^2+|F2|^2+|F3|^2.
    """
    grid, series, amplitude, rounding = factors
    f_max = band_frequency(params, coeffs, kernel)
    n_points, h = _band_grid(t_lo, t_hi, f_max)
    eta = coeffs.eta
    l1, l2, l3 = (abs(l) for l in coeffs.lambdas)
    # rows: Re, Im, rounding weight; with collect |F_i|^2 and two minima
    q_buf = np.empty((8 if collect else 3, _BLOCK))
    offsets = np.arange(_BLOCK, dtype=np.float64)
    t_buf, theta_buf = np.empty(_BLOCK), np.empty(_BLOCK)
    prod_buf = np.empty(_BLOCK, dtype=np.complex128)
    mod_buf = np.empty((3, _BLOCK))
    rotated = GridTransform(kernel, h, _BLOCK) if t_lo >= 0.0 else None
    partials, sup, t_sup = [], 0.0, t_lo
    for start in range(0, n_points, _CHUNK):
        n_chunk = min(_CHUNK, n_points - start)
        t0 = t_lo + start * h
        sums = grid(t0, h, n_chunk)
        for b in range(0, n_chunk, _BLOCK):
            n = min(_BLOCK, n_chunk - b)
            blk = slice(b, b + n)
            t = np.add(offsets[:n], b, out=t_buf[:n])
            t *= h
            t += t0                 # bit for bit t0 + h * arange(count)
            wt = rotated(t, theta_buf) if rotated else theta_transform(kernel, t)
            prod = np.multiply(sums[0][blk], sums[1][blk], out=prod_buf[:n])
            prod *= sums[2][blk]
            if eta != 0.0:
                prod *= np.exp((2j * np.pi) * np.mod(eta * t, 1.0))
            q, a = q_buf[:, :n], mod_buf[:, :n]
            np.multiply(prod.real, wt, out=q[0])
            np.multiply(prod.imag, wt, out=q[1])
            for i in range(3):
                np.abs(sums[i][blk], out=a[i])
            q[2] = ((l1 * a[1] + l2 * a[0]) * a[2] + l3 * a[0] * a[1]) * np.abs(wt * t)
            if collect:
                small = np.minimum(a[0], a[1])
                j = int(np.argmax(small))
                if small[j] > sup:
                    sup, t_sup = float(small[j]), float(t[j])
                np.multiply(a, a, out=q[3:6])
                q[6] = small * a[2] * (a[0] + a[1])
                q[7] = small * (q[3] + q[4] + q[5])
            partials.append(q.sum(axis=1))
            if start + b == 0:
                partials.append(-0.5 * q[:, 0])
            if start + b + n == n_points:
                partials.append(-0.5 * q[:, n - 1])
        del sums    # freed before the next chunk's sums are built
    trap = [h * math.fsum(row) for row in np.array(partials).T.tolist()]

    terms = 2 * _EM_TERMS
    freq = sum(l * _centre(params) for l in coeffs.lambdas) + eta
    ends = []
    for x in (t_lo, t_hi):
        fs = series(x, h, terms)
        # the carrier's coefficients e(F x) (2 pi i F h)^j / j!
        carrier = np.cumprod([np.exp(2j * np.pi * math.fmod(freq * x, 1.0))]
                             + [2j * np.pi * freq * h / j for j in range(1, terms)])
        g = np.convolve(transform_series(kernel, x, h, terms), carrier)[:terms]
        for f in fs:
            g = np.convolve(g, f)[:terms]
        ends.append((g, fs))
    (g_lo, f_lo), (g_hi, f_hi) = ends
    value = complex(trap[0], trap[1]) - euler_maclaurin(h, g_lo, g_hi)
    majorant = 2.0 * kernel.a * amplitude**3
    error = euler_maclaurin_tail(h, f_max * h, majorant, _EM_TERMS) + rounding * trap[2]
    band = BandQuadrature(value, error, n_points, h)
    if not collect:
        return band, None
    t_ints = tuple(trap[3 + i] - euler_maclaurin(
        h, np.convolve(lo, np.conj(lo))[:terms], np.convolve(hi, np.conj(hi))[:terms]
    ).real for i, (lo, hi) in enumerate(zip(f_lo, f_hi)))
    return band, (t_ints, (sup, t_sup), trap[6], trap[7])


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
    f_max = band_frequency(params, coeffs, kernel)
    for piece, (t_lo, t_hi) in _band_edges(params, kernel).items():
        if piece < 3 or t_hi > t_lo:
            _band_grid(t_lo, t_hi, f_max)


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


def piece_quadrature(
    piece: int, params: RunParameters, coeffs: Coefficients,
    kernel: SmoothingKernel, pset: PSPrimeSet,
) -> BandQuadrature:
    """One band of the transform-side integral with its error bar.

    Piece 1 covers |t| < Delta on a symmetric grid, so its imaginary
    part is a quadrature diagnostic.  Pieces 2 and 3 pair t with -t (the
    integrand there is the conjugate): twice the real part of the
    one-sided integral, with twice its bar.  Piece 3 is truncated where
    the transform's decay branch is negligible (an empty band is 0 with
    no grid), and its bar is against the whole far band |t| > H: it adds
    far_tail_majorant from the cut (from H if empty).  The standard
    decomposition's kernel has the search width and k = params.kernel_k.
    """
    if piece not in (1, 2, 3):
        raise ParameterError(f"piece must be 1, 2, or 3, got {piece!r}")
    check_window_set(params, pset)
    t_lo, t_hi = _band_edges(params, kernel)[piece]
    omitted = 0.0
    if piece == 3:
        omitted = far_tail_majorant(params, coeffs, kernel, pset, max(t_lo, t_hi))
        if t_hi <= t_lo:
            return BandQuadrature(complex(0.0, 0.0), omitted, 0, 0.0)
    band, _ = _band_quadrature(params, coeffs, kernel, t_lo, t_hi,
                               _sum_factors(pset, coeffs, _centre(params)), False)
    if piece == 1:
        return band
    return BandQuadrature(complex(2.0 * band.value.real, 0.0),
                          2.0 * band.error + omitted, band.n_points, band.spacing)


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
    e(eta t); t_integrals those of |S(l_k t)|^2, endpoint-corrected too
    (converging fast while |l_k| is at most the other two |l| summed);
    sup_small_pair the largest min(|S1|, |S2|) found, a lower estimate
    of the supremum (1261.91 on instance A, the grid samples alone
    1219.41); cross_integral and squares_integral that minimum's plain
    trapezoid integrals, O(h^2), against |S3|(|S1|+|S2|) and
    |S1|^2+|S2|^2+|S3|^2.  error is the bar of gamma2.
    """

    half_integral: complex
    t_integrals: tuple[float, float, float]
    sup_small_pair: float
    cross_integral: float
    squares_integral: float
    n_points: int
    spacing: float
    error: float

    @property
    def gamma2(self) -> complex:
        return complex(2.0 * self.half_integral.real, 0.0)


def middle_band_sweep(
    params: RunParameters,
    coeffs: Coefficients,
    pset: PSPrimeSet,
    kernel: SmoothingKernel,
) -> MiddleBand:
    """Single pass over [Delta, H] collecting the middle-band integral
    together with everything the majorant chain needs, so the expensive
    sweep is never run twice.  The best sampled min(|S1|, |S2|) at t is
    polished by a golden-section search on [t - h, t + h] within the
    band; every value it takes is a true one (ps_exp_sum), so the
    result stays a lower estimate."""
    from .expsums import ps_exp_sum

    check_window_set(params, pset)
    t_lo, t_hi = _band_edges(params, kernel)[2]
    band, (t_ints, (sup, t), cross, squares) = _band_quadrature(
        params, coeffs, kernel, t_lo, t_hi,
        _sum_factors(pset, coeffs, _centre(params)), True)

    def small(u: float) -> float:
        return min(abs(ps_exp_sum(l * u, params, pset).value)
                   for l in coeffs.lambdas[:2])

    ratio = 0.5 * (math.sqrt(5.0) - 1.0)
    a, b = max(t_lo, t - band.spacing), min(t_hi, t + band.spacing)
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
    return MiddleBand(band.value, t_ints, max(sup, fc, fd), cross, squares,
                      band.n_points, band.spacing, 2.0 * band.error)


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
) -> float:
    """Main-band integral with the exponential sums replaced by their
    window integrals (_window_factors), on piece 1's grid by the band
    walker; real by conjugate symmetry, with the imaginary residue
    checked against an absolute scale set by the integrand's
    supremum."""
    t_lo, t_hi = _band_edges(params, kernel)[1]
    band, _ = _band_quadrature(
        params, coeffs, kernel, t_lo, t_hi, _window_factors(params, coeffs), False,
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
    start: "float | None" = None,
) -> float:
    """Rigorous envelope for the far band |t| > start (default H): the
    transform's decay branch integrates to (2/(pi k)) * (4k/(pi eps
    start))^k against the exact supremum S(0)^3 of the three-sum
    product.  Unlike the closed-form bound above, this uses the window's
    true sum at zero rather than a scale shape, so it majorizes the
    truncated quadrature on any instance; from piece3_truncation's cut
    it covers the tail that quadrature omits."""
    check_window_set(params, pset)
    s0 = float(np.dot(pset.weight_w, pset.weight_log))
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

    gamma1..3 are the three band integrals (piece 2 and 3 real by
    construction), gamma_total their sum; direct_value and triples_found
    come from the meet-in-the-middle count when requested, with
    closure_error the relative gap between the two sides.  The scale
    ratio reports Re(gamma_total) / (eps X^2) without asserting any
    constant.  The main-term box integral, its remainder majorant and
    the far-tail bound are box.value, phi.value and tail.value.
    gamma_errors, band_points and band_spacings give each piece's error
    bar, grid size and spacing (BandQuadrature); gamma3's bar is against
    the whole far band |t| > H (an empty piece 3 has 0 points)."""

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
    band_spacings: tuple[float, float, float]


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
    past the point cap fails before any sweep), the main term J, the
    three band integrals with their error bars (pieces 1 and 3 by
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
    p1 = piece_quadrature(1, params, coeffs, kernel, pset)
    band = middle_band_sweep(params, coeffs, pset, kernel)
    p3 = piece_quadrature(3, params, coeffs, kernel, pset)
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
        band_spacings=(p1.spacing, band.spacing, p3.spacing),
    )
