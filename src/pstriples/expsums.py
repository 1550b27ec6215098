"""Weighted exponential sums over primes and their companions.

The objects here are, for a run with scales (X, Delta, epsilon, H) and
exponent gamma:

  ps_exp_sum        sum over floor-power primes in (lambda0 X, X] of
                    p^(1-gamma) e(alpha p) log p
  prime_exp_sum     gamma times the same phase sum over ALL primes in
                    the window, weight log p
  floor_error_sum   the sawtooth-difference weighted sum that measures
                    how the floor-power indicator deviates from its mean
  interval_integral the window integral gamma int e(alpha y) dy
  chebyshev_sum     sum over all p <= X of e(alpha p) log p

ps_exp_sum splits exactly: it equals the middle sum with weight
p^(1-gamma)((p+1)^gamma - p^gamma) plus floor_error_sum, term by term
in floating point; decomposition_residual measures this identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import RunParameters
from .primes import PrimeTable, PSPrimeSet, check_window_set
from .quadrature import QuadratureError, simpson_uniform
from .summation import SumResult, compensated_complex_sum
from .trigpoly import BlockedPlan, plan_uniform, trig_sum_uniform

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
    "L2Result",
    "l2_integral",
    "MinorArcReport",
    "minor_arc_check",
]

# beyond this the product alpha*p has no fractional bits left in a double
PHASE_LIMIT = float(1 << 52)

# l2_integral's window span doubles its panels until two values agree to
# _L2_REL_TOL, and fails past _L2_MAX_PANELS
_L2_REL_TOL = 1e-6
_L2_MAX_PANELS = 1 << 22


def sawtooth(t):
    """Fractional part minus one half; {t} in [0, 1), so integers map to -1/2."""
    t_arr = np.asarray(t, dtype=np.float64)
    out = t_arr - np.floor(t_arr) - 0.5
    if np.isscalar(t) or np.asarray(t).ndim == 0:
        return float(out)
    return out


def unit_phase(t):
    """e(t) = exp(2 pi i t), argument reduced mod 1 before the trig call."""
    t_arr = np.asarray(t, dtype=np.float64)
    frac = t_arr - np.floor(t_arr)
    out = np.exp(2j * np.pi * frac)
    if np.isscalar(t) or np.asarray(t).ndim == 0:
        return complex(out)
    return out


def _check_phase_range(alpha: float, top: float) -> None:
    if abs(alpha) * top > PHASE_LIMIT:
        raise ValueError(
            f"|alpha|*X = {abs(alpha) * top:.3g} exceeds 2^52; "
            "phase fractions are no longer representable"
        )


def phase_factors(alpha: float, p: np.ndarray) -> np.ndarray:
    """e(alpha p) for an integer array p, with the 2^52 guard."""
    if p.size:
        _check_phase_range(alpha, float(p[-1]))
    frac = (alpha * p.astype(np.float64)) % 1.0
    return np.exp(2j * np.pi * frac)


def _window_primes(params: RunParameters, table: PrimeTable) -> np.ndarray:
    lo, hi = params.lambda0 * params.X, params.X
    if hi > table.limit:
        raise ValueError(f"X={hi:.6g} exceeds table limit {table.limit}")
    i = int(np.searchsorted(table.primes, lo, side="right"))
    j = int(np.searchsorted(table.primes, hi, side="right"))
    return table.primes[i:j]


def ps_exp_sum(alpha: float, params: RunParameters, pset: PSPrimeSet) -> SumResult:
    """Sum of p^(1-gamma) e(alpha p) log p over the floor-power primes."""
    check_window_set(params, pset)
    if pset.count == 0:
        return SumResult(0j, 0, 0.0)
    terms = pset.weight_w * pset.weight_log * phase_factors(alpha, pset.primes)
    value, resid = compensated_complex_sum(terms)
    return SumResult(value, pset.count, resid)


def prime_exp_sum(alpha: float, params: RunParameters, table: PrimeTable) -> SumResult:
    """gamma times the log-weighted phase sum over all window primes."""
    p = _window_primes(params, table)
    if p.size == 0:
        return SumResult(0j, 0, 0.0)
    terms = params.gamma.value * np.log(p.astype(np.float64)) * phase_factors(alpha, p)
    value, resid = compensated_complex_sum(terms)
    return SumResult(value, int(p.size), resid)


def floor_error_sum(alpha: float, params: RunParameters, table: PrimeTable) -> SumResult:
    """Sawtooth-difference weighted sum over all window primes."""
    p = _window_primes(params, table)
    if p.size == 0:
        return SumResult(0j, 0, 0.0)
    g = params.gamma.value
    pf = p.astype(np.float64)
    u = np.power(pf, g)
    v = np.power(pf + 1.0, g)
    weight = np.exp((1.0 - g) * np.log(pf)) * (sawtooth(-v) - sawtooth(-u))
    terms = weight * np.log(pf) * phase_factors(alpha, p)
    value, resid = compensated_complex_sum(terms)
    return SumResult(value, int(p.size), resid)


def interval_integral(alpha: float, params: RunParameters) -> complex:
    """gamma int_{lambda0 X}^{X} e(alpha y) dy in the cancellation-free form
    gamma e(alpha mid) L sinc(alpha L); exact limit gamma (1-lambda0) X at 0."""
    length = (1.0 - params.lambda0) * params.X
    mid = 0.5 * (1.0 + params.lambda0) * params.X
    return (
        params.gamma.value
        * length
        * float(np.sinc(alpha * length))
        * unit_phase(alpha * mid)
    )


def chebyshev_sum(alpha: float, X: float, table: PrimeTable) -> SumResult:
    """Sum of e(alpha p) log p over all primes p <= X."""
    if X > table.limit:
        raise ValueError(f"X={X} exceeds table limit {table.limit}")
    j = int(np.searchsorted(table.primes, X, side="right"))
    p = table.primes[:j]
    if p.size == 0:
        return SumResult(0j, 0, 0.0)
    terms = np.log(p.astype(np.float64)) * phase_factors(alpha, p)
    value, resid = compensated_complex_sum(terms)
    return SumResult(value, int(p.size), resid)


def _grid_weights(pset: PSPrimeSet) -> np.ndarray:
    return (pset.weight_w * pset.weight_log).astype(np.complex128)


def ps_sum_plan(
    pset: PSPrimeSet, lam: float, dt: float, n: int,
    share: "BlockedPlan | None" = None,
) -> "BlockedPlan | None":
    """A plan for repeated ps_sum_grid(pset, lam, t0, dt, n) calls at
    several t0 (trigpoly.plan_uniform): None for an empty set and where
    the NUFFT evaluates the grid.  share is another plan of this window
    and grid size whose work buffers the new one reuses."""
    if pset.count == 0:
        return None
    freqs = lam * pset.primes.astype(np.float64)
    return plan_uniform(freqs, _grid_weights(pset), dt, n, share)


def ps_sum_grid(
    pset: PSPrimeSet, lam: float, t0: float, dt: float, n: int,
    plan: "BlockedPlan | None" = None,
) -> np.ndarray:
    """ps_exp_sum(lam * t) on the uniform grid t = t0 + j dt, j < n.

    Bulk evaluation for quadrature through `trig_sum_uniform`, without
    per-term compensation: a blocked matrix product for windows of at most
    512 primes (or grids under 4096 points), the NUFFT above.  The error
    relative to sum |w| grows with max |lam p t|, at most 4e-17 times it
    as measured (1e-11 to 2e-11 at t = 40 on instance A's window, 1e-9 to
    2e-9 at t = 700 on B's), mostly from rounding lam p t to doubles.
    Reruns are bitwise identical for a fixed BLAS library and thread
    count.

    With plan = ps_sum_plan(pset, lam, dt, n) the blocked tables are
    reused and the bits are the same; the result is then a view of the
    plan's output rows, valid until the plan's next call.
    """
    if pset.count == 0:
        return np.zeros(n, dtype=np.complex128)
    freqs = lam * pset.primes.astype(np.float64)
    top = max(abs(t0), abs(t0 + (n - 1) * dt))
    if np.max(np.abs(freqs)) * top > PHASE_LIMIT:
        raise ValueError("|lam * p * t| exceeds 2^52; phases unrepresentable")
    if plan is not None:
        if (plan.n, plan.dt) != (n, dt) or not np.array_equal(plan.freqs, freqs):
            raise ValueError("plan was built for another window, lam, dt or n")
        return plan(t0)
    return trig_sum_uniform(freqs, _grid_weights(pset), t0, dt, n)


def ps_sum_series(
    pset: PSPrimeSet, lam: float, centre: float, x: float, h: float, n: int,
) -> np.ndarray:
    """D_0 .. D_{n-1}, ps_exp_sum(lam (x + s h)) = e(lam centre (x + s h))
    sum_j D_j s^j: D_j = sum_p w_p e(lam (p - centre) x) (2 pi i lam (p -
    centre) h)^j / j!.  Centred, |D_j| <= sum |w| (2 pi W h)^j / j! with W
    = |lam| max |p - centre|, far below the raw sum's coefficients."""
    d = lam * (pset.primes.astype(np.float64) - centre)
    steps = [np.ones_like(d)] + [(2j * np.pi * h / j) * d for j in range(1, n)]
    phases = np.exp((2j * np.pi) * np.mod(d * x, 1.0))
    return np.cumprod(steps, axis=0) @ (_grid_weights(pset) * phases)


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


def decomposition_residual(
    alpha: float, params: RunParameters, table: PrimeTable
) -> DecompositionResidual:
    """Measure |full - middle' - floor_error| and |middle' - middle|.

    All three sums reuse the same doubles u = p^gamma, v = (p+1)^gamma,
    so the per-term identity floor(-u) - floor(-v) = (v - u) +
    sawtooth(-v) - sawtooth(-u) holds exactly (the subtractions are
    Sterbenz-exact); only accumulation noise remains.  The indicator here
    is deliberately the raw-double floor difference, not the guarded one.
    """
    p = _window_primes(params, table)
    g = params.gamma.value
    if p.size == 0:
        return DecompositionResidual(0.0, 0.0, 0j, 0j, 0j, 0j, 0)
    pf = p.astype(np.float64)
    u = np.power(pf, g)
    v = np.power(pf + 1.0, g)
    indicator = np.floor(-u) - np.floor(-v)
    psi_diff = sawtooth(-v) - sawtooth(-u)
    base = np.exp((1.0 - g) * np.log(pf)) * np.log(pf) * phase_factors(alpha, p)

    full, _ = compensated_complex_sum(base * indicator)
    middle_exact, _ = compensated_complex_sum(base * (v - u))
    floor_err, _ = compensated_complex_sum(base * psi_diff)
    middle_plain, _ = compensated_complex_sum(
        g * np.log(pf) * phase_factors(alpha, p)
    )
    return DecompositionResidual(
        identity_residual=abs(full - middle_exact - floor_err),
        sigma_gap=abs(middle_exact - middle_plain),
        sum_value=full,
        middle_exact=middle_exact,
        middle_plain=middle_plain,
        floor_error=floor_err,
        term_count=int(p.size),
    )


@dataclass(frozen=True)
class L2Result:
    value: float
    panels: int
    converged: bool
    exact_reference: "float | None" = None


def l2_integral(
    kind: str,
    lam: float,
    params: RunParameters,
    pset: "PSPrimeSet | None" = None,
    span: str = "window",
) -> L2Result:
    """Quadrature of a squared modulus.

    kind "ps_sum":   integrand |ps_exp_sum(lam * t)|^2
    kind "interval": integrand |interval_integral(lam * t)|^2
    span "window":   over [-Delta, Delta] (effective Delta of the run)
    span "unit":     over [0, 1] with lam = 1, ps_sum only; integer
                     phases make composite Simpson exact once the panel
                     count exceeds twice the top frequency, so one grid
                     of the smallest power of two >= 4 * spread panels
                     (at least 256) is used, and the weight-square sum
                     is returned as exact_reference.

    Over the window span, panels start at >= 8 per unit of |lam| X Delta
    and double until the value moves by less than _L2_REL_TOL, raising
    QuadratureError at the _L2_MAX_PANELS cap.  The ps_sum kind needs
    the window set pset.
    """
    if kind not in ("ps_sum", "interval"):
        raise ValueError(f"unknown kind {kind!r}")
    if span not in ("window", "unit"):
        raise ValueError(f"unknown span {span!r}")
    if span == "window" and lam == 0.0:
        raise ValueError("lam must be nonzero over the window span")
    if kind == "ps_sum":
        if pset is None:
            raise ValueError("kind 'ps_sum' needs the window prime set pset")
        check_window_set(params, pset)

    if span == "unit":
        if kind != "ps_sum":
            raise ValueError("unit span applies to the ps_sum kind only")
        spread = float(pset.hi - pset.lo)
        exact = float(np.sum((pset.weight_w * pset.weight_log) ** 2))
        panels = 256
        while panels < 4 * max(spread, 2.0):
            panels *= 2
        vals = ps_sum_grid(pset, 1.0, 0.0, 1.0 / panels, panels + 1)
        value = simpson_uniform(np.abs(vals) ** 2, 1.0 / panels)
        return L2Result(value, panels, True, exact)

    delta = params.Delta
    osc = abs(lam) * params.X * delta
    panels = max(64, int(math.ceil(8.0 * osc)))
    if panels % 2:
        panels += 1

    def evaluate(n_panels: int) -> float:
        h = 2.0 * delta / n_panels
        if kind == "ps_sum":
            vals = ps_sum_grid(pset, lam, -delta, h, n_panels + 1)
            return simpson_uniform(np.abs(vals) ** 2, h)
        ts = -delta + h * np.arange(n_panels + 1)
        length = (1.0 - params.lambda0) * params.X
        amps = params.gamma.value * length * np.sinc(lam * ts * length)
        return simpson_uniform(amps**2, h)

    prev = evaluate(panels)
    while True:
        if panels * 2 > _L2_MAX_PANELS:
            raise QuadratureError(
                f"no convergence below {_L2_MAX_PANELS} panels (last {prev:.6g})"
            )
        panels *= 2
        cur = evaluate(panels)
        scale = max(abs(cur), abs(prev), 1e-300)
        if abs(cur - prev) <= _L2_REL_TOL * scale:
            return L2Result(cur, panels, True)
        prev = cur


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
    pset: "PSPrimeSet | None" = None,
) -> MinorArcReport:
    """Evaluate the window sums at alpha = a/q against their bound shapes.

    The denominator window is [X^(1/13), X^(12/13)]; outside it the
    rational point is flagged as not estimable by the window argument.
    Ratios use natural-log powers of log X.
    """
    if q < 1:
        raise ValueError(f"q must be positive, got {q}")
    if math.gcd(a, q) != 1:
        raise ValueError(f"gcd({a}, {q}) != 1")
    x = params.X
    lx = params.log_X
    alpha = a / q
    in_window = x ** (1.0 / 13.0) <= q <= x ** (12.0 / 13.0)

    sigma = prime_exp_sum(alpha, params, table).value
    if pset is None:
        from .primes import ps_primes_in

        pset = ps_primes_in(params.lambda0 * x, x, params.gamma, table)
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
