"""Phase sums, the exact splitting identity, L2 integrals, bound shapes."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pstriples.expsums import (
    chebyshev_sum,
    decomposition_residual,
    floor_error_sum,
    interval_integral,
    l2_integral,
    minor_arc_check,
    phase_factors,
    prime_exp_sum,
    ps_exp_sum,
    ps_sum_grid,
    ps_sum_series,
    sawtooth,
    unit_phase,
)
from pstriples.params import RunParameters
from pstriples.primes import ps_primes_in, sieve_primes
from pstriples.quadrature import adaptive_simpson
from pstriples.summation import compensated_sum

TABLE4 = sieve_primes(10**4)
TABLE6 = sieve_primes(10**6)


def run70():
    return RunParameters(70, 0.9, 0.5, epsilon_user=1.0)


def pset_for(params, table=TABLE6):
    return ps_primes_in(params.lambda0 * params.X, params.X, params.gamma, table)


# Naive high-precision (40-digit) summation oracles, frozen before the
# implementation ran: q0=70, gamma=0.9, lambda0=0.5.
ORACLE_S_03 = 1236.4900285860807 + 217.85484373323909j
ORACLE_S_0 = 4361.1465535408304
ORACLE_SIGMA_03 = 1093.3087361337991 + 27.153955567494696j
ORACLE_OMEGA_025 = 0.0 + 140.7908791138091j


def test_sawtooth_values():
    assert sawtooth(2.5) == 0.0
    assert sawtooth(-0.25) == 0.25
    assert sawtooth(3.0) == -0.5
    assert sawtooth(0.0) == -0.5


@given(st.floats(min_value=-1e9, max_value=1e9, allow_nan=False))
def test_sawtooth_range_and_periodicity(t):
    v = sawtooth(t)
    # rounding can land exactly on +0.5 for t just below an integer
    assert -0.5 <= v <= 0.5
    # periodicity mod 1: t+1 may round across the jump when t is tiny
    d = abs(sawtooth(t + 1.0) - v)
    assert min(d, 1.0 - d) < 1e-9


def test_unit_phase_values():
    assert unit_phase(0.0) == 1.0 + 0.0j
    assert unit_phase(0.25) == pytest.approx(1j, abs=1e-15)
    assert unit_phase(1e9 + 0.25) == pytest.approx(1j, abs=1e-9)


@given(st.floats(min_value=-1e12, max_value=1e12, allow_nan=False))
def test_unit_phase_modulus(t):
    assert abs(unit_phase(t)) == pytest.approx(1.0, abs=1e-12)


def test_ps_exp_sum_oracle():
    params = run70()
    pset = pset_for(params, TABLE4)
    got = ps_exp_sum(0.3, params, pset).value
    assert abs(got - ORACLE_S_03) <= 1e-10 * abs(ORACLE_S_03)


def test_ps_exp_sum_zero_phase():
    params = run70()
    r = ps_exp_sum(0.0, params, pset_for(params, TABLE4))
    assert r.value.imag == 0.0
    assert r.value.real == pytest.approx(ORACLE_S_0, rel=1e-12)
    assert r.value.real > 0


def test_ps_exp_sum_empty_set():
    params = RunParameters(2, 0.99, 0.9, epsilon_user=1.0)
    pset = pset_for(params, TABLE4)  # (4.04, 4.49] holds no prime
    r = ps_exp_sum(0.7, params, pset)
    assert r.value == 0j and r.term_count == 0


def test_ps_exp_sum_set_mismatch():
    params = run70()
    wrong = ps_primes_in(0, 100, params.gamma, TABLE4)
    with pytest.raises(ValueError, match="does not match"):
        ps_exp_sum(0.3, params, wrong)


def test_prime_exp_sum_oracle():
    params = run70()
    got = prime_exp_sum(0.3, params, TABLE4).value
    assert abs(got - ORACLE_SIGMA_03) <= 1e-10 * abs(ORACLE_SIGMA_03)


def test_prime_exp_sum_zero_vs_window_length():
    params = RunParameters(585, 0.9, 0.5, epsilon_user=1.0)
    r = prime_exp_sum(0.0, params, TABLE6)
    expect = params.gamma.value * (1 - params.lambda0) * params.X
    assert 0.8 <= r.value.real / expect <= 1.2
    assert r.value.imag == 0.0


def test_prime_exp_sum_integer_alpha():
    params = run70()
    a0 = prime_exp_sum(0.0, params, TABLE4).value
    a1 = prime_exp_sum(1.0, params, TABLE4).value
    assert a1 == pytest.approx(a0, rel=1e-12)


def test_floor_error_sum_oracle():
    params = run70()
    got = floor_error_sum(0.25, params, TABLE4).value
    assert abs(got - ORACLE_OMEGA_025) <= 1e-10 * abs(ORACLE_OMEGA_025)


def test_floor_error_sum_single_prime():
    # q0=2, lambda0=0.5: window (2.24, 4.49] holds only p=3
    params = RunParameters(2, 0.99, 0.5, epsilon_user=1.0)
    r = floor_error_sum(0.37, params, TABLE4)
    assert r.term_count == 1
    g = params.gamma.value
    expect = (
        3.0 ** (1 - g)
        * (sawtooth(-(4.0**g)) - sawtooth(-(3.0**g)))
        * math.log(3.0)
        * unit_phase(0.37 * 3)
    )
    assert r.value == pytest.approx(expect, rel=1e-14)


def test_floor_error_bound_shape_ratio():
    # |value| / (X^((37-12g)/26) log^5 X) measured 2.8e-8 at this instance
    params = RunParameters(203, 0.9, 0.5, epsilon_user=1.0)
    om = floor_error_sum(0.0, params, TABLE6).value
    scale = params.X ** ((37 - 12 * 0.9) / 26) * params.log_X**5
    assert abs(om) / scale < 1e-6


def test_interval_integral_zero():
    params = run70()
    got = interval_integral(0.0, params)
    assert got == pytest.approx(0.9 * 0.5 * params.X, rel=1e-15)


def test_interval_integral_quadrature_oracle():
    params = RunParameters(8, 0.9, 0.5, epsilon_user=1.0)
    g, lo, hi = params.gamma.value, params.lambda0 * params.X, params.X
    for alpha in (0.37, -0.11, 2.0):
        re = adaptive_simpson(
            lambda y: g * np.cos(2 * np.pi * alpha * y), lo, hi, rel_tol=1e-12
        ).value
        im = adaptive_simpson(
            lambda y: g * np.sin(2 * np.pi * alpha * y), lo, hi, rel_tol=1e-12
        ).value
        got = interval_integral(alpha, params)
        assert got == pytest.approx(complex(re, im), abs=1e-9 * params.X)


@settings(max_examples=80, deadline=None)
@given(alpha=st.floats(min_value=-100, max_value=100, allow_nan=False))
def test_interval_integral_modulus_bound(alpha):
    params = run70()
    cap = params.gamma.value * (1 - params.lambda0) * params.X
    val = abs(interval_integral(alpha, params))
    assert val <= cap * (1 + 1e-12)
    if alpha != 0:
        assert val <= params.gamma.value / (math.pi * abs(alpha)) * (1 + 1e-12)


def test_chebyshev_sum_small():
    r = chebyshev_sum(0.0, 10, TABLE4)
    assert r.value.real == pytest.approx(
        math.log(2) + math.log(3) + math.log(5) + math.log(7), rel=1e-14
    )
    assert r.term_count == 4
    r2 = chebyshev_sum(0.5, 10, TABLE4)
    assert r2.value.real == pytest.approx(
        math.log(2) - math.log(3) - math.log(5) - math.log(7), rel=1e-12
    )
    assert abs(r2.value.imag) < 1e-12


def test_chebyshev_sum_below_two():
    assert chebyshev_sum(0.3, 1.5, TABLE4).term_count == 0


def test_chebyshev_sum_range_error():
    with pytest.raises(ValueError):
        chebyshev_sum(0.3, 10**7, TABLE6)


def test_conjugate_symmetry():
    params = run70()
    pset = pset_for(params, TABLE4)
    for alpha in (0.3, 1.7, 0.001):
        s = ps_exp_sum(alpha, params, pset).value
        sm = ps_exp_sum(-alpha, params, pset).value
        assert sm == pytest.approx(s.conjugate(), rel=1e-12)
        sg = prime_exp_sum(alpha, params, TABLE4).value
        sgm = prime_exp_sum(-alpha, params, TABLE4).value
        assert sgm == pytest.approx(sg.conjugate(), rel=1e-12)
        ii = interval_integral(alpha, params)
        iim = interval_integral(-alpha, params)
        assert iim == pytest.approx(ii.conjugate(), rel=1e-12)


@pytest.mark.parametrize("x", [0.03, 40.0])
def test_ps_sum_series_sums_to_the_exponential_sum(x):
    # sum_j D_j s^j times the carrier e(lam centre (x + s h)) is
    # S(lam (x + s h)) for |s| <= 1, at the band walker's spacing for the
    # lam's own spread W (2 pi W h = pi / 3); the gap is the phase
    # rounding of the two sides, each about 4e-17 max |lam p t| of sum |w|
    # as for ps_sum_grid (3.5e-11 of sum |w| measured at x = 40)
    params = run70()
    pset = pset_for(params)
    lam = math.sqrt(2.0)
    centre = 0.5 * (params.lambda0 * params.X + params.X)
    spread = lam * (1.0 - params.lambda0) * params.X / 2.0
    h = 1.0 / (6.0 * spread)
    coeffs = ps_sum_series(pset, lam, centre, x, h, 40)
    total = float(np.sum(pset.weight_w * pset.weight_log))
    for j, d in enumerate(coeffs):
        assert abs(d) <= total * (2.0 * math.pi * spread * h) ** j / math.factorial(j)
    for s in (-1.0, 0.0, 0.5, 1.0):
        value = np.polyval(coeffs[::-1], s) * unit_phase(lam * centre * (x + s * h))
        want = ps_exp_sum(lam * (x + s * h), params, pset).value
        assert abs(value - want) <= 8e-17 * lam * params.X * x * total + 1e-14 * total


def test_phase_guard():
    params = run70()
    pset = pset_for(params, TABLE4)
    with pytest.raises(ValueError, match="2\\^52"):
        ps_exp_sum(1e12, params, pset)


def test_identity_residual_small():
    rng = np.random.default_rng(5)
    params = RunParameters(203, 0.98, 0.5, epsilon_user=1.0)
    for alpha in rng.uniform(-3, 3, size=5):
        d = decomposition_residual(float(alpha), params, TABLE6)
        assert d.identity_residual <= 1e-8
        assert d.term_count > 0


def test_identity_residual_empty():
    params = RunParameters(2, 0.99, 0.9, epsilon_user=1.0)
    d = decomposition_residual(0.3, params, TABLE4)
    assert d.identity_residual == 0.0 and d.term_count == 0


def test_sigma_gap_scale():
    params = run70()
    d = decomposition_residual(0.3, params, TABLE4)
    # measured 9e-5 at this instance; the gap is far below log^2 X
    assert d.sigma_gap / params.log_X**2 < 0.1
    assert d.sigma_gap > 0


def test_compensated_matches_naive():
    params = RunParameters(585, 0.9, 0.5, epsilon_user=1.0)
    pset = pset_for(params)
    r = ps_exp_sum(0.3, params, pset)
    terms = (
        pset.weight_w * pset.weight_log * phase_factors(0.3, pset.primes)
    )
    naive = complex(np.sum(terms))
    assert abs(r.value - naive) <= 1e-10 * abs(naive)
    assert r.compensation_residual < 1e-9


def test_compensated_sum_exactly_rounded_and_order_free():
    # terms spanning 30 decades that cancel down to a small total
    rng = np.random.default_rng(11)
    big = rng.uniform(0.5, 1.0, 600) * 10.0 ** rng.integers(-14, 16, 600)
    vals = np.concatenate([big, -big * (1.0 + 2.0**-40), rng.uniform(-1, 1, 50)])
    rng.shuffle(vals)
    exact = float(sum(Fraction(v) for v in vals.tolist()))
    total, resid = compensated_sum(vals)
    assert total == exact
    naive = float(np.sum(vals))
    assert naive != exact   # the array is ill-conditioned for plain sums
    assert resid == abs(exact - naive)
    for seed in range(3):
        perm = np.random.default_rng(seed).permutation(vals.size)
        assert compensated_sum(vals[perm])[0].hex() == total.hex()


def test_middle_sum_tracks_interval_integral():
    ratios = []
    for q0 in (70, 203, 585):
        params = RunParameters(q0, 0.9, 0.5, epsilon_user=1.0)
        alpha = params.Delta / 2
        sig = prime_exp_sum(alpha, params, TABLE6).value
        ii = interval_integral(alpha, params)
        ratios.append(abs(sig - ii) / params.X)
    assert ratios[0] > ratios[1] > ratios[2]


def test_grid_evaluator_matches_pointwise():
    params = run70()
    pset = pset_for(params, TABLE4)
    n, t0, dt = 64, -0.001, 3.1e-5
    grid = ps_sum_grid(pset, math.sqrt(2), t0, dt, n)
    for j in (0, 17, 63):
        direct = ps_exp_sum(math.sqrt(2) * (t0 + j * dt), params, pset).value
        assert grid[j] == pytest.approx(direct, rel=1e-9)


def test_l2_parseval_unit_span():
    params = run70()
    pset = pset_for(params, TABLE4)
    res = l2_integral("ps_sum", 1.0, params, pset=pset, span="unit")
    assert res.exact_reference == pytest.approx(
        float(np.sum((pset.weight_w * pset.weight_log) ** 2)), rel=0
    )
    assert res.value == pytest.approx(res.exact_reference, rel=1e-6)


def test_l2_window_interval_kind_bound():
    params = run70()
    res = l2_integral("interval", math.sqrt(2), params)
    g, d = params.gamma.value, params.Delta
    cap = g**2 * 2 * d * ((1 - params.lambda0) * params.X) ** 2
    assert 0 < res.value <= cap * (1 + 1e-9)
    assert res.converged


def test_l2_window_ps_sum_trend():
    ratios = []
    for q0 in (70, 203):
        params = RunParameters(q0, 0.9, 0.5, epsilon_user=1.0)
        pset = pset_for(params)
        res = l2_integral("ps_sum", math.sqrt(2), params, pset=pset)
        assert res.converged
        ratios.append(res.value / (params.X * params.log_X**3))
    # bounded, not growing: measured 3.7e-4 then 2.0e-4
    assert ratios[1] <= ratios[0]


def test_l2_argument_validation():
    params = run70()
    with pytest.raises(ValueError):
        l2_integral("nope", 1.0, params)
    with pytest.raises(ValueError):
        l2_integral("ps_sum", 0.0, params, pset=pset_for(params, TABLE4))
    with pytest.raises(ValueError):
        l2_integral("interval", 1.0, params, span="unit")
    for span in ("window", "unit"):
        with pytest.raises(ValueError, match="pset"):
            l2_integral("ps_sum", 1.0, params, span=span)


def test_minor_arc_report():
    params = RunParameters(203, 0.9, 0.5, epsilon_user=1.0)
    rep = minor_arc_check(1, 2, params, TABLE6)
    assert not rep.in_window  # q=2 sits below X^(1/13) ~ 2.42
    assert rep.chebyshev_ratio < 1.0
    rep7 = minor_arc_check(3, 7, params, TABLE6)
    assert rep7.in_window
    assert rep7.prime_sum_ratio < 1.0 and rep7.ps_sum_ratio < 1.0
    with pytest.raises(ValueError, match="gcd"):
        minor_arc_check(2, 4, params, TABLE6)
