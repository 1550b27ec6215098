"""Weighted exponential sums over primes and their companions.

The objects here are, for a run with scales (X, Delta, epsilon, H) and
exponent gamma:

  ps_exp_sum        sum over floor-power primes in (lambda0 X, X] of
                    p^(1-gamma) e(alpha p) log p
  prime_exp_sum     gamma times the same phase sum over ALL primes in
                    the window, weight log p
  floor_error_sum   the sawtooth-difference weighted sum that measures
                    how the floor-power indicator deviates from its mean
  interval_integral the window integral I(alpha) = gamma int e(alpha y) dy,
                    at a float alpha or elementwise over an array
  chebyshev_sum     sum over all p <= X of e(alpha p) log p

The four sums take alpha as a float (one SumResult) or as a 1-D grid
(one per alpha); either way each alpha's terms go through one block
whose rows are extracted together (_phase_sums).
ps_exp_sum splits exactly: it equals the middle sum with weight
p^(1-gamma)((p+1)^gamma - p^gamma) plus floor_error_sum, term by term
in floating point; decomposition_residual measures this identity over a
grid of alpha, and ps_sum_and_residual gives both ps_exp_sum and that
measurement, bit for bit, from one pass per alpha.
Two mean squares, each with an error bar: unit_mean_square gives
int_0^1 |S|^2 as the plain mean over a power-of-two grid finer than the
window, exact on that integer-frequency polynomial up to the
evaluator's error; l2_integral gives int_{-Delta}^{Delta} |S(lam t)|^2
or |I(lam t)|^2 as twice the band rule (module quadrature) on
[0, Delta], the squared moduli being even.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .approx import classify_denominator
from .kernel import _scalar_or_array, sinc_series
from .params import RunParameters
from .primes import PrimeTable, PSPrimeSet, check_window_set
from .quadrature import (
    _EM_TERMS,
    _band_grid,
    euler_maclaurin_squared,
    euler_maclaurin_tail,
)
from .summation import SumResult, row_parts
from .trigpoly import BlockedPlan, NufftPlan, plan_uniform, trig_sum_uniform

__all__ = [
    "PHASE_LIMIT",
    "sawtooth",
    "unit_phase",
    "phase_factors",
    "ps_exp_sum",
    "prime_exp_sum",
    "floor_error_sum",
    "interval_integral",
    "chebyshev_sum",
    "ps_sum_plan",
    "ps_sum_grid",
    "ps_sum_series",
    "DecompositionResidual",
    "decomposition_residual",
    "ps_sum_and_residual",
    "L2Result",
    "l2_integral",
    "unit_mean_square",
    "MinorArcReport",
    "minor_arc_check",
]

# beyond this the product alpha*p has no fractional bits left in a double
PHASE_LIMIT = float(1 << 52)

# unit roundoff, and np.sinc's steepest slope max |d/dx sin(pi x)/(pi x)|
_UNIT_ROUNDOFF = 2.0**-53
_SINC_SLOPE = 1.3704


def sawtooth(t):
    """Fractional part minus one half; {t} in [0, 1), so integers map to -1/2."""
    t_arr = np.asarray(t, dtype=np.float64)
    return _scalar_or_array(t, t_arr - np.floor(t_arr) - 0.5)


def unit_phase(t):
    """e(t) = exp(2 pi i t), t reduced mod 1 before the trig call, as
    t - floor(t): t % 1.0 bit for bit, without its divmod."""
    t_arr = np.asarray(t, dtype=np.float64)
    return _scalar_or_array(t, np.exp(2j * np.pi * (t_arr - np.floor(t_arr))))


def _check_phase_range(alpha: float, top: float) -> None:
    if abs(alpha) * top > PHASE_LIMIT:
        raise ValueError(
            f"phase |alpha| * top = {abs(alpha) * top:.3g} exceeds 2^52; "
            "its fractions are no longer representable"
        )


def phase_factors(alpha: float, p: np.ndarray) -> np.ndarray:
    """e(alpha p) for an integer array p, with the 2^52 guard."""
    if p.size:
        _check_phase_range(alpha, float(p[-1]))
    return unit_phase(alpha * p.astype(np.float64))


def _phase_sums(grid: np.ndarray, p: np.ndarray, rows):
    """Per alpha of grid, the exactly rounded sums of fl(fl(w e(alpha p)) c)
    for each (w, c) of rows (c None: of w e(alpha p)) as complex totals.

    One (2 len(rows), p.size) block holds their real and imaginary terms,
    fl(w cos) c and fl(w sin) c: the real and imaginary parts of the
    complex products (w + 0j) e(alpha p) and its product with c + 0j,
    bit for bit up to the sign of a zero.  As |e| <= 1 and rounding is
    monotone, every row is bounded by max fl(|w| |c|) at every alpha:
    the bound of its first extraction level (summation.row_parts), known
    before the loop.  A sum over a subset of p is one more row whose w
    is zero off the subset: zero terms leave an exactly rounded sum
    unchanged, so it keeps the bits of its own pass.  The sums stage's
    pass (ps_sum_and_residual) forms e(alpha p) once per alpha for S and
    the splitting's four sums, one (10, p.size) block.
    """
    bounds = np.repeat([float(np.max(np.abs(w if c is None else w * c)))
                        for w, c in rows], 2)
    block = np.empty((2 * len(rows), p.size))
    pairs = block.reshape(len(rows), 2, p.size)
    for alpha in grid.tolist():
        cos_sin = phase_factors(alpha, p).view(np.float64).reshape(-1, 2).T
        for pair, (w, c) in zip(pairs, rows):
            np.multiply(w, cos_sin, out=pair)
            if c is not None:
                pair *= c
        totals = [math.fsum(parts) for parts in row_parts(block, bounds)]
        yield [complex(re, im) for re, im in zip(totals[::2], totals[1::2])]


def _sum_results(alpha, p: np.ndarray, w: np.ndarray) -> "SumResult | list[SumResult]":
    """The sum of w e(alpha p) as a SumResult at a float alpha, or one per
    alpha of a 1-D grid."""
    grid = np.asarray(alpha, dtype=np.float64)
    if grid.ndim > 1:
        raise ValueError(f"alpha must be a float or a 1-D grid, got shape {grid.shape}")
    if p.size == 0:
        results = [SumResult(0j, 0)] * grid.size
    else:
        results = [SumResult(z, int(p.size))
                   for (z,) in _phase_sums(grid.ravel(), p, [(w, None)])]
    return results if grid.ndim else results[0]


def _window_primes(params: RunParameters, table: PrimeTable) -> np.ndarray:
    return table.between(params.lambda0 * params.X, params.X)


def ps_exp_sum(
    alpha, params: RunParameters, pset: PSPrimeSet
) -> "SumResult | list[SumResult]":
    """Sum of p^(1-gamma) e(alpha p) log p over the floor-power primes:
    a SumResult at a float alpha, a list of them over a 1-D grid."""
    check_window_set(params, pset)
    return _sum_results(alpha, pset.primes, pset.weights)


def prime_exp_sum(
    alpha, params: RunParameters, table: PrimeTable
) -> "SumResult | list[SumResult]":
    """gamma times the log-weighted phase sum over all window primes, at
    a float alpha or over a 1-D grid (as ps_exp_sum)."""
    p = _window_primes(params, table)
    return _sum_results(alpha, p, params.gamma.value * np.log(p.astype(np.float64)))


def floor_error_sum(
    alpha, params: RunParameters, table: PrimeTable
) -> "SumResult | list[SumResult]":
    """Sawtooth-difference weighted sum over all window primes, at a
    float alpha or over a 1-D grid (as ps_exp_sum)."""
    p = _window_primes(params, table)
    g = params.gamma.value
    pf = p.astype(np.float64)
    u = np.power(pf, g)
    v = np.power(pf + 1.0, g)
    weight = np.exp((1.0 - g) * np.log(pf)) * (sawtooth(-v) - sawtooth(-u))
    return _sum_results(alpha, p, weight * np.log(pf))


def interval_integral(alpha, params: RunParameters):
    """I(alpha) = gamma int_{lambda0 X}^{X} e(alpha y) dy in the
    cancellation-free form gamma L sinc(alpha L) e(alpha mid), mid the
    window's midpoint (_centre); exact limit gamma (1-lambda0) X at 0.
    A float alpha gives a complex, an array one value per element."""
    length = (1.0 - params.lambda0) * params.X
    a = np.asarray(alpha, dtype=np.float64)
    out = params.gamma.value * length * np.sinc(a * length) * unit_phase(a * _centre(params))
    return _scalar_or_array(alpha, out)


def chebyshev_sum(alpha, X: float, table: PrimeTable) -> "SumResult | list[SumResult]":
    """Sum of e(alpha p) log p over all primes p <= X, at a float alpha
    or over a 1-D grid (as ps_exp_sum)."""
    p = table.between(0.0, X)
    return _sum_results(alpha, p, np.log(p.astype(np.float64)))


def ps_sum_plan(
    pset: PSPrimeSet, lam: float, dt: float, n: int,
) -> "BlockedPlan | NufftPlan":
    """A plan for repeated ps_sum_grid(pset, lam, t0, dt, n) calls at
    several t0 (trigpoly.plan_uniform), on either evaluator."""
    freqs = lam * pset.primes.astype(np.float64)
    return plan_uniform(freqs, pset.weights.astype(np.complex128), dt, n)


def ps_sum_grid(
    pset: PSPrimeSet, lam: float, t0: float, dt: float, n: int,
    plan: "BlockedPlan | NufftPlan | None" = None,
) -> np.ndarray:
    """ps_exp_sum(lam * t) on the uniform grid t = t0 + j dt, j < n.

    Bulk evaluation for quadrature through `trig_sum_uniform`, without
    per-term compensation.  The error relative to sum |w| is at most the
    plan's rounding times max |lam p| (|t0| + m dt), which is max |lam p t|
    where t0 >= 0, plus its floor (trigpoly).  Reruns are bitwise
    identical for a fixed BLAS library and thread count.

    With plan = ps_sum_plan(pset, lam, dt, n) the evaluator's tables are
    reused and the bits are the same; the result is then a view of the
    plan's output, valid until the plan's next call.
    """
    freqs = lam * pset.primes.astype(np.float64)
    _check_phase_range(np.max(np.abs(freqs), initial=0.0), max(abs(t0), abs(t0 + (n - 1) * dt)))
    if plan is not None:
        if (plan.n, plan.dt) != (n, dt) or not np.array_equal(plan.freqs, freqs):
            raise ValueError("plan was built for another window, lam, dt or n")
        return plan(t0)
    return trig_sum_uniform(freqs, pset.weights.astype(np.complex128), t0, dt, n)


def ps_sum_series(
    pset: PSPrimeSet, lam: float, centre: float, x: float, h: float, n: int,
) -> np.ndarray:
    """D_0 .. D_{n-1}, ps_exp_sum(lam (x + s h)) = e(lam centre (x + s h))
    sum_j D_j s^j: D_j = sum_p w_p e(lam (p - centre) x) (2 pi i lam (p -
    centre) h)^j / j!.  Centred, |D_j| <= sum |w| (2 pi W h)^j / j! with W
    = |lam| max |p - centre|, far below the raw sum's coefficients.

    The terms are one (n, primes) table: row j > 0 holds the steps c_j d
    with c_j = 2 pi i h / j, its cumulative product along j the powers
    (2 pi i d h)^j / j!, each row then scaled by v = w e(d x) and summed
    by numpy's pairwise row sum.  No BLAS call, so the bits do not depend
    on the BLAS library or its thread count; 160 terms of instance A's 202
    primes take about 0.5 ms on a 2-vCPU Xeon."""
    d = lam * (pset.primes.astype(np.float64) - centre)
    table = np.empty((n, d.size), dtype=np.complex128)
    table[0] = 1.0
    np.multiply(np.array([2j * np.pi * h / j for j in range(1, n)])[:, None], d,
                out=table[1:])
    np.cumprod(table, axis=0, out=table)
    table *= pset.weights.astype(np.complex128) * unit_phase(d * x)
    return table.sum(axis=1)


def _sum_at_zero(pset: PSPrimeSet) -> float:
    """S(0) = sum of the window's weights, exactly rounded (math.fsum)."""
    return math.fsum(pset.weights.tolist())


def _centre(params: RunParameters) -> float:
    """The window's midpoint; every factor is demodulated about l_i times it."""
    return 0.5 * (params.lambda0 * params.X + params.X)


def _sum_factors(pset: PSPrimeSet, lams, centre: float, h: float, n: int):
    """Factor source of the band rule (triplesum._band_quadrature,
    l2_integral) on grids of n points at spacing h: the window's sums
    S(l_i t), as (grid, series, amplitude, rounding, floor).  rounding
    bounds each sum's error per unit |l_i| t at a sample t of a grid from
    t0 >= 0, and floor its error that does not grow with t, both
    absolute: the plans' rounding times max p, and their floor, each
    times S(0) (ps_sum_grid).  One plan per
    l_i is built here (ps_sum_plan), and grid(t0) gives the sums at
    t0 + j h, j < n, each a view valid until that sum's next call.
    series(x, terms) gives each sum's endpoint Taylor coefficients in
    steps of h (ps_sum_series): one table per l_i reduced in numpy, no
    BLAS call, so unlike the blocked grid sums their bits do not depend
    on the BLAS thread count."""
    plans = [ps_sum_plan(pset, l, h, n) for l in lams]

    def grid(t0: float) -> list:
        return [ps_sum_grid(pset, l, t0, h, n, plan=p) for l, p in zip(lams, plans)]

    def series(x: float, terms: int) -> list:
        return [ps_sum_series(pset, l, centre, x, h, terms) for l in lams]

    total = _sum_at_zero(pset)
    p_max = float(np.max(pset.primes, initial=0))
    return grid, series, total, plans[0].rounding * p_max * total, plans[0].floor * total


def _window_factors(params: RunParameters, lams, h: float, n: int):
    """Factor source of the main term J and of l2_integral's interval
    kind on grids of n points at spacing h, as _sum_factors's: the window
    integrals I(l_i t) = gamma L sinc(l_i t L) e(l_i t centre) of
    interval_integral, rounding and floor per unit |l_i| t from t0 >= 0.
    A sample's t is within 2 u t of its node; sinc's argument adds 6
    roundings relative to |l_i| t L (l_i t, times L, L's own 2, times pi,
    np.pi's error), moving sinc by _SINC_SLOPE per unit, and the phase's
    4 relative to |l_i| t centre (l_i t, times centre, centre's own 2),
    2 pi radians per turn.  The floor counts roundings of gamma L: sin and
    the quotient (2), gamma L times sinc (4), the complex product (1), the
    phase's 2 pi frac with np.pi's error (4 pi) and exp (2)."""
    length = (1.0 - params.lambda0) * params.X
    mid = _centre(params)
    amplitude = params.gamma.value * length
    u = _UNIT_ROUNDOFF

    def grid(t0: float) -> list:
        t = t0 + h * np.arange(n)
        return [interval_integral(l * t, params) for l in lams]

    def series(x: float, terms: int) -> list:
        return [amplitude * sinc_series(l * length * x, l * length * h, terms)
                for l in lams]

    rounding = u * amplitude * (8.0 * _SINC_SLOPE * length + 12.0 * math.pi * mid)
    floor = u * amplitude * (9.0 + 4.0 * math.pi)
    return grid, series, amplitude, rounding, floor


@dataclass(frozen=True)
class DecompositionResidual:
    """Both gaps of the exact splitting, from one shared-float pass."""

    identity_residual: float   # |full - middle' - floor_error|
    sigma_gap: float           # |middle' - plain middle|
    sum_value: complex
    middle_exact: complex
    middle_plain: complex
    floor_error: complex
    term_count: int


def _split_rows(params: RunParameters, table: PrimeTable):
    """The window's primes p and the exact splitting's four rows, as
    _phase_sums takes them: full, middle', floor_error and the plain
    middle sum (decomposition_residual)."""
    p = _window_primes(params, table)
    g = params.gamma.value
    pf = p.astype(np.float64)
    u = np.power(pf, g)
    v = np.power(pf + 1.0, g)
    indicator = np.floor(-u) - np.floor(-v)
    smooth = v - u
    psi_diff = sawtooth(-v) - sawtooth(-u)
    log_p = np.log(pf)
    weight = np.exp((1.0 - g) * log_p) * log_p
    density = g * log_p
    return p, [(weight, indicator), (weight, smooth), (weight, psi_diff), (density, None)]


def _residual(full: complex, middle_exact: complex, floor_err: complex,
              middle_plain: complex, term_count: int) -> DecompositionResidual:
    return DecompositionResidual(
        identity_residual=abs(full - middle_exact - floor_err),
        sigma_gap=abs(middle_exact - middle_plain),
        sum_value=full,
        middle_exact=middle_exact,
        middle_plain=middle_plain,
        floor_error=floor_err,
        term_count=term_count,
    )


def _alpha_grid(alphas) -> np.ndarray:
    alphas = np.asarray(alphas, dtype=np.float64)
    if alphas.ndim != 1:
        raise ValueError(f"alphas must be a 1-D grid, got shape {alphas.shape}")
    return alphas


def decomposition_residual(
    alphas, params: RunParameters, table: PrimeTable
) -> "list[DecompositionResidual]":
    """Measure |full - middle' - floor_error| and |middle' - middle| at
    each alpha of the 1-D grid alphas; one record per alpha, in order.

    All three sums reuse the same doubles u = p^gamma, v = (p+1)^gamma,
    so the per-term identity floor(-u) - floor(-v) = (v - u) +
    sawtooth(-v) - sawtooth(-u) holds exactly (the subtractions are
    Sterbenz-exact); only accumulation noise remains.  The indicator here
    is deliberately the raw-double floor difference, not the guarded one.
    The arrays that do not depend on alpha are built once (_split_rows);
    each alpha's phases carry their own 2^52 guard and its four sums are
    exactly rounded, extracted together from one block (_phase_sums), so
    a record is the same at any grid it sits in, and the same in the
    pass that also carries S(alpha) (ps_sum_and_residual).
    """
    alphas = _alpha_grid(alphas)
    p, rows = _split_rows(params, table)
    if p.size == 0:
        return [DecompositionResidual(0.0, 0.0, 0j, 0j, 0j, 0j, 0)] * alphas.size
    return [_residual(*totals, int(p.size)) for totals in _phase_sums(alphas, p, rows)]


def ps_sum_and_residual(
    alphas, params: RunParameters, pset: PSPrimeSet, table: PrimeTable
) -> "tuple[list[SumResult], list[DecompositionResidual]]":
    """ps_exp_sum(alphas, params, pset) and decomposition_residual(alphas,
    params, table), bit for bit, from one pass over the window's primes.

    Each alpha's block carries S's weights, zero off the window set, as
    a fifth row beside the splitting's four, so e(alpha p) is formed and
    the block extracted once per alpha.  Zero terms leave an exactly
    rounded sum unchanged, so S(alpha) keeps the bits of its own pass;
    an empty set's sums are 0j, as ps_exp_sum returns them.  S comes
    from its own row, never from the residual's full row: the window set
    takes the guarded indicator, full the raw-double one.  The phases'
    2^52 guard is taken at the window's top prime, as in
    decomposition_residual.
    """
    check_window_set(params, pset)
    alphas = _alpha_grid(alphas)
    p, rows = _split_rows(params, table)
    count = pset.count
    at = np.searchsorted(p, pset.primes)
    if count and (at[-1] == p.size or not np.array_equal(p[at], pset.primes)):
        raise ValueError("window set holds primes outside the table's window")
    if p.size == 0:
        return [SumResult(0j, 0)] * alphas.size, decomposition_residual(alphas, params, table)
    on_set = np.zeros(p.size)
    on_set[at] = pset.weights
    sums, records = [], []
    for s, *totals in _phase_sums(alphas, p, [(on_set, None)] + rows):
        sums.append(SumResult(s if count else 0j, count))
        records.append(_residual(*totals, int(p.size)))
    return sums, records


@dataclass(frozen=True)
class L2Result:
    value: float
    panels: int
    error: float
    exact_reference: "float | None" = None


def unit_mean_square(params: RunParameters, pset: PSPrimeSet) -> L2Result:
    """int_0^1 |ps_exp_sum(t)|^2 dt as the mean of |S|^2 over N equally
    spaced points, N the smallest power of two above hi - lo (panels),
    with its error bar.  The mean is exact for the integer frequencies
    |p - q| < N, so the bar charges only the evaluator, 2/N sum |S(t_j)|
    (t_j times _sum_factors's rounding plus its floor).  exact_reference
    is the weight-square sum Parseval gives."""
    check_window_set(params, pset)
    n = 1 << int(pset.hi - pset.lo).bit_length()
    grid, _, _, rounding, floor = _sum_factors(pset, [1.0], 0.0, 1.0 / n, n)
    vals = np.abs(grid(0.0)[0])
    value = math.fsum((vals * vals).tolist()) / n
    t = np.arange(n) / n
    error = 2.0 / n * float(np.dot(vals, rounding * t + floor))
    exact = float(np.sum(pset.weights ** 2))
    return L2Result(value, n, error, exact)


def l2_integral(
    kind: str,
    lam: float,
    params: RunParameters,
    pset: "PSPrimeSet | None" = None,
) -> L2Result:
    """int_{-Delta}^{Delta} |F(lam t)|^2 dt over the run's effective
    Delta, with its error bar, as twice the integral over [0, Delta],
    |F|^2 being even.

    kind "ps_sum":   F = ps_exp_sum, on the window set pset
    kind "interval": F = interval_integral

    The band rule on the walker's factor source (_sum_factors or
    _window_factors) on [0, Delta]: the trapezoid rule at f_max h <=
    quadrature._BAND_FH, f_max = |lam| (hi - lo) or |lam| L, the top
    frequency of |F|^2, minus _EM_TERMS terms of its endpoint series
    from F's.  Its error bar bounds the terms left out (majorant S(0)^2
    or (gamma L)^2) plus 2 |F| times each sample's error, summed as the
    walker sums its rounding row: |lam| t times the source's rounding
    plus its floor.  Value and bar are twice these.  panels counts the
    grid's intervals on [0, Delta].
    """
    if kind == "ps_sum":
        if pset is None:
            raise ValueError("kind 'ps_sum' needs the window prime set pset")
        check_window_set(params, pset)
        f_max = abs(lam) * (pset.hi - pset.lo)
    elif kind == "interval":
        f_max = abs(lam) * (1.0 - params.lambda0) * params.X
    else:
        raise ValueError(f"unknown kind {kind!r}")
    if lam == 0.0:
        raise ValueError("lam must be nonzero")

    delta = params.Delta
    n, h = _band_grid(0.0, delta, f_max)
    if kind == "ps_sum":
        factors = _sum_factors(pset, [lam], _centre(params), h, n)
    else:
        factors = _window_factors(params, [lam], h, n)
    grid, series, amplitude, rounding, floor = factors
    vals = np.abs(grid(0.0)[0])
    squares = vals * vals
    squares[[0, -1]] *= 0.5
    ends = [series(x, 2 * _EM_TERMS)[0] for x in (0.0, delta)]
    value = h * math.fsum(squares) - euler_maclaurin_squared(h, *ends)
    t = h * np.arange(n)
    rounded = 2.0 * h * float(np.dot(vals, rounding * abs(lam) * t + floor))
    error = euler_maclaurin_tail(h, f_max * h, amplitude**2, _EM_TERMS) + rounded
    return L2Result(2.0 * value, n - 1, 2.0 * error)


@dataclass(frozen=True)
class MinorArcReport:
    alpha: float
    q: int
    in_window: bool
    prime_sum_ratio: float
    ps_sum_ratio: float
    chebyshev_ratio: float


def minor_arc_check(
    a: int, q: int, params: RunParameters, table: PrimeTable,
    pset: PSPrimeSet,
) -> MinorArcReport:
    """Evaluate the window sums at alpha = a/q against their bound shapes.

    The denominator window is [X^(1/13), X^(12/13)]; outside it the
    rational point is flagged as not estimable by the window argument.
    The edges are approx.classify_denominator's, snapped to integers, so
    q = b at X = b^13 is inside whatever the rounding of X^(1/13).
    Ratios use natural-log powers of log X.  pset is the run's window
    set of floor-power primes, as ps_exp_sum takes it.
    """
    if q < 1:
        raise ValueError(f"q must be positive, got {q}")
    if math.gcd(a, q) != 1:
        raise ValueError(f"gcd({a}, {q}) != 1")
    x = params.X
    lx = params.log_X
    alpha = a / q
    in_window = classify_denominator(q, x) == "estimable"

    sigma = prime_exp_sum(alpha, params, table).value
    s_val = ps_exp_sum(alpha, params, pset).value
    psi_val = chebyshev_sum(alpha, x, table).value

    g = params.gamma.value
    sigma_scale = x ** (25.0 / 26.0) * lx**4
    s_scale = x ** ((37.0 - 12.0 * g) / 26.0) * lx**5
    psi_scale = (x / math.sqrt(q) + x**0.8 + math.sqrt(x * q)) * lx**4
    return MinorArcReport(
        alpha=alpha,
        q=q,
        in_window=bool(in_window),
        prime_sum_ratio=abs(sigma) / sigma_scale,
        ps_sum_ratio=abs(s_val) / s_scale,
        chebyshev_ratio=abs(psi_val) / psi_scale,
    )
