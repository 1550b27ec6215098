"""Phase sums, the exact splitting identity, L2 integrals, bound shapes."""

import dataclasses
import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pstriples import expsums, pipeline, primes, triplesum
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
    ps_sum_and_residual,
    ps_sum_grid,
    ps_sum_series,
    sawtooth,
    unit_mean_square,
    unit_phase,
)
from pstriples.kernel import make_kernel
from pstriples.params import RunParameters
from pstriples.primes import PrimeTable, PSPrimeSet, ps_primes_in, sieve_primes
from pstriples.quadrature import (
    _EM_TERMS,
    _band_grid,
    adaptive_simpson,
    euler_maclaurin_tail,
)
from pstriples import summation
from pstriples.summation import SumResult, compensated_sum, exact_parts

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


@pytest.mark.parametrize("lambda0", [0.5, 0.3, 0.77])
def test_interval_integral_array_is_the_float_form_and_the_grid(lambda0):
    # I(alpha) over an array equals it at each float alpha bit for bit,
    # and the main term's factor grid (_window_factors) is that array
    params = RunParameters(29, 0.9, lambda0, epsilon_user=2.0)
    h, n = 3.7e-5, 257
    for lam in (1.0, math.sqrt(2), -2.0):
        t = 0.01 + h * np.arange(n)
        grid = expsums._window_factors(params, [lam], h, n)[0](0.01)[0]
        arr = interval_integral(lam * t, params)
        assert arr.tobytes() == grid.tobytes()
        each = [interval_integral(a, params) for a in (lam * t).tolist()]
        assert np.array(each).tobytes() == arr.tobytes()
    assert isinstance(interval_integral(0.3, params), complex)


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


def test_ps_sum_series_matches_mpmath_at_the_walkers_size():
    # the band walker's 2 _EM_TERMS = 160 terms on instance A at band 2's
    # spacing, at x = 0, Delta and H for each lam, and at x = 0 with
    # h = 1e-6, where the tail underflows to 0.  Against a 30-digit sum of
    # v_p z_p^j / j!, z_p = 2 pi i h d_p, v_p the double w e(d x) the code
    # scales by, the gap of D_j stays within 2 (j + 1) u of its bound
    # sum |w| (2 pi W h)^j / j! (0.47 (j + 1) u measured, at j = 0 and
    # x = H for lam 1)
    params = RunParameters(70, 0.9, 0.5, epsilon_user=2.0)
    pset = pset_for(params)
    coeffs = triplesum.Coefficients(1.0, math.sqrt(2.0), -2.0, 0.0)
    kern = make_kernel(params.epsilon_effective, params.kernel_k)
    h_band = triplesum._band_layout(2, params, coeffs, kern)[4]
    centre = expsums._centre(params)
    n = 2 * _EM_TERMS
    u = 2.0**-53
    weights = pset.weight_w * pset.weight_log
    total = float(np.sum(np.abs(weights)))
    cases = [(x, h_band) for x in (0.0, params.Delta, params.H_effective)] + [(0.0, 1e-6)]
    for lam in coeffs.lambdas:
        d = lam * (pset.primes.astype(np.float64) - centre)
        ratio = 2.0 * math.pi * float(np.max(np.abs(d)))
        for x, h in cases:
            got = ps_sum_series(pset, lam, centre, x, h, n)
            assert got.shape == (n,) and np.all(np.isfinite(got))
            bounds = [total]
            for j in range(1, n):
                bounds.append(bounds[-1] * ratio * h / j)
            assert np.all(np.abs(got) <= bounds)
            with mp.workdps(30):
                v = [mp.mpc(complex(a)) for a in weights * unit_phase(d * x)]
                z = [2j * mp.pi * mp.mpf(h) * mp.mpf(float(a)) for a in d]
                want = [complex(mp.fsum(a * b**j for a, b in zip(v, z)) / mp.factorial(j))
                        for j in (0, 1, 2, 40, 80, 120, 159)]
            for j, w in zip((0, 1, 2, 40, 80, 120, 159), want):
                assert abs(got[j] - w) <= 2.0 * (j + 1) * u * bounds[j], (lam, x, h, j)


def test_phase_guard():
    params = run70()
    pset = pset_for(params, TABLE4)
    with pytest.raises(ValueError, match="2\\^52"):
        ps_exp_sum(1e12, params, pset)


def test_identity_residual_small():
    rng = np.random.default_rng(5)
    params = RunParameters(203, 0.98, 0.5, epsilon_user=1.0)
    for d in decomposition_residual(rng.uniform(-3, 3, size=5), params, TABLE6):
        assert d.identity_residual <= 1e-8
        assert d.term_count > 0


def test_identity_residual_empty():
    params = RunParameters(2, 0.99, 0.9, epsilon_user=1.0)
    records = decomposition_residual([0.3, -1.0, 7.5], params, TABLE4)
    assert len(records) == 3
    for d in records:
        assert d.identity_residual == 0.0 and d.term_count == 0


def test_sigma_gap_scale():
    params = run70()
    d, = decomposition_residual([0.3], params, TABLE4)
    # measured 9e-5 at this instance; the gap is far below log^2 X
    assert d.sigma_gap / params.log_X**2 < 0.1
    assert d.sigma_gap > 0


def test_residual_grid_matches_one_alpha_calls():
    params = run70()
    alphas = np.linspace(-1.0, 1.0, 9)
    records = decomposition_residual(alphas, params, TABLE4)
    assert len(records) == alphas.size
    for a, rec in zip(alphas.tolist(), records):
        one, = decomposition_residual([a], params, TABLE4)
        for field in dataclasses.fields(rec):
            assert getattr(rec, field.name) == getattr(one, field.name), field.name
        # the plain middle sum is prime_exp_sum's, term for term
        assert rec.middle_plain == prime_exp_sum(a, params, TABLE4).value
        assert rec.term_count > 0


def test_residual_grid_guards_each_alpha():
    params = run70()
    for bad in (1e12, -1e12):
        with pytest.raises(ValueError, match="2\\^52"):
            decomposition_residual([0.1, bad, 0.2], params, TABLE4)
    with pytest.raises(ValueError, match="1-D"):
        decomposition_residual(np.zeros((2, 2)), params, TABLE4)


def _reference_sum(terms):
    """The per-alpha path the grid form replaced: one exactly rounded sum
    of each of the real and imaginary parts of a complex term array."""
    return complex(math.fsum(terms.real.tolist()), math.fsum(terms.imag.tolist()))


def _reference_phases(alpha, p):
    return np.exp(2j * np.pi * ((alpha * p.astype(np.float64)) % 1.0))


def test_grid_sums_match_per_alpha_path_above_extraction_size():
    # q0 169: 1468 floor-power primes and 3096 window primes, both above
    # the 1024 terms from which the sums are extracted in row blocks
    params = RunParameters(169, 0.94, 0.5, epsilon_user=2.0)
    pset = pset_for(params)
    p = TABLE6.primes[(TABLE6.primes > params.lambda0 * params.X)
                      & (TABLE6.primes <= params.X)]
    assert pset.count > summation._EXTRACT_MIN_TERMS < p.size
    rng = np.random.default_rng(169)
    alphas = np.concatenate([[0.0, 0.5, 1.0, -0.25], rng.uniform(-50.0, 50.0, 12)])

    g = params.gamma.value
    pf = p.astype(np.float64)
    u, v = np.power(pf, g), np.power(pf + 1.0, g)
    log_p = np.log(pf)
    psi_diff = sawtooth(-v) - sawtooth(-u)
    all_primes = TABLE6.primes[TABLE6.primes <= params.X]
    weights = {
        ps_exp_sum: (pset.primes, pset.weight_w * pset.weight_log),
        prime_exp_sum: (p, g * log_p),
        floor_error_sum: (p, np.exp((1.0 - g) * log_p) * psi_diff * log_p),
        chebyshev_sum: (all_primes, np.log(all_primes.astype(np.float64))),
    }
    grids = {
        ps_exp_sum: ps_exp_sum(alphas, params, pset),
        prime_exp_sum: prime_exp_sum(alphas, params, TABLE6),
        floor_error_sum: floor_error_sum(alphas, params, TABLE6),
        chebyshev_sum: chebyshev_sum(alphas, params.X, TABLE6),
    }
    weight = np.exp((1.0 - g) * log_p) * log_p
    records = decomposition_residual(alphas, params, TABLE6)
    for i, a in enumerate(alphas.tolist()):
        for f, (primes, w) in weights.items():
            value = _reference_sum(w * _reference_phases(a, primes))
            assert grids[f][i] == SumResult(value, int(primes.size)), (f.__name__, a)
        phases = _reference_phases(a, p)
        base = weight * phases
        full = _reference_sum(base * (np.floor(-u) - np.floor(-v)))
        middle = _reference_sum(base * (v - u))
        floor_err = _reference_sum(base * psi_diff)
        plain = _reference_sum(g * log_p * phases)
        assert records[i] == dataclasses.replace(
            records[i], identity_residual=abs(full - middle - floor_err),
            sigma_gap=abs(middle - plain), sum_value=full, middle_exact=middle,
            middle_plain=plain, floor_error=floor_err, term_count=int(p.size)), a


def _witness():
    return RunParameters(169, 0.94, 0.5, epsilon_user=2.0)


def _one_pass_matches(params, pset, table):
    """ps_sum_and_residual on the sums stage's grid against ps_exp_sum and
    decomposition_residual, bit for bit (repr keeps the sign of a zero)."""
    alphas = np.linspace(0.0, 1.0, pipeline._SUMS_ALPHA_POINTS)
    sums, records = ps_sum_and_residual(alphas, params, pset, table)
    assert repr(sums) == repr(ps_exp_sum(alphas, params, pset))
    assert repr(records) == repr(decomposition_residual(alphas, params, table))
    return sums, records


def test_one_pass_matches_both_sums_on_the_witness_window():
    # 3096 window primes and 1468 floor-power primes: the one pass
    # extracts a (10, 3096) block per alpha where the two took (2, 1468)
    # and (8, 3096) blocks
    params = _witness()
    pset = pset_for(params)
    window = TABLE6.between(params.lambda0 * params.X, params.X)
    assert (window.size, pset.count) == (3096, 1468)
    assert pset.count > summation._EXTRACT_MIN_TERMS
    _one_pass_matches(params, pset, TABLE6)


def test_one_pass_matches_both_sums_below_the_extraction_size():
    params = run70()
    pset = pset_for(params, TABLE4)
    window = TABLE4.between(params.lambda0 * params.X, params.X)
    assert (window.size, pset.count) == (560, 202)
    assert window.size < summation._EXTRACT_MIN_TERMS
    _one_pass_matches(params, pset, TABLE4)


def test_one_pass_reads_s_off_its_own_row(monkeypatch):
    # a guard that flips every p = 1 mod 4 gives a window set unlike the
    # raw floor-difference indicator of the residual's full row; S must
    # still be ps_exp_sum's over that set, never the full row
    def skewed(base, gamma):
        floor = -math.ceil(math.pow(base, gamma))
        return floor + 1 if base % 4 == 1 else floor

    monkeypatch.setattr(primes, "_BOUNDARY_GUARD", 1.0)
    monkeypatch.setattr(primes, "_floor_neg_power", skewed)
    params = _witness()
    pset = pset_for(params)
    window = TABLE6.between(params.lambda0 * params.X, params.X)
    pf = window.astype(np.float64)
    g = params.gamma.value
    raw = window[np.floor(-np.power(pf, g)) - np.floor(-np.power(pf + 1.0, g)) == 1]
    assert pset.count != raw.size or not np.array_equal(pset.primes, raw)
    sums, records = _one_pass_matches(params, pset, TABLE6)
    assert all(s.value != r.sum_value for s, r in zip(sums, records))


def test_one_pass_edge_sets():
    # an empty window, an empty set in a full window, a set outside it
    params = RunParameters(2, 0.99, 0.9, epsilon_user=1.0)
    sums, records = _one_pass_matches(params, pset_for(params, TABLE4), TABLE4)
    assert {s.value for s in sums} == {0j} and records[0].term_count == 0
    params = run70()
    full = pset_for(params, TABLE4)
    empty = dataclasses.replace(full, primes=full.primes[:0])
    sums, records = _one_pass_matches(params, empty, TABLE4)
    assert {(s.value, s.term_count) for s in sums} == {(0j, 0)}
    assert records[0].term_count == 560
    outside = dataclasses.replace(full, primes=np.append(full.primes, 10007))
    with pytest.raises(ValueError, match="outside"):
        ps_sum_and_residual([0.3], params, outside, TABLE6)
    with pytest.raises(ValueError, match="1-D"):
        ps_sum_and_residual(np.zeros((2, 2)), params, full, TABLE4)


def test_sums_take_a_float_or_a_grid():
    params = run70()
    pset = pset_for(params, TABLE4)
    calls = [
        lambda a: ps_exp_sum(a, params, pset),
        lambda a: prime_exp_sum(a, params, TABLE4),
        lambda a: floor_error_sum(a, params, TABLE4),
        lambda a: chebyshev_sum(a, params.X, TABLE4),
    ]
    for call in calls:
        one = call(0.3)
        assert isinstance(one, SumResult)
        assert call(np.float64(0.3)) == one == call(np.array(0.3))
        assert call([0.3]) == [one]
        assert call(np.array([0.1, 0.3]))[1] == one
        assert call(np.array([])) == []
        with pytest.raises(ValueError, match="1-D"):
            call(np.zeros((2, 2)))
        with pytest.raises(ValueError, match="2\\^52"):
            call([0.1, 1e12])


def test_compensated_matches_naive():
    params = RunParameters(585, 0.9, 0.5, epsilon_user=1.0)
    pset = pset_for(params)
    r = ps_exp_sum(0.3, params, pset)
    terms = (
        pset.weight_w * pset.weight_log * phase_factors(0.3, pset.primes)
    )
    naive = complex(np.sum(terms))
    assert abs(r.value - naive) <= 1e-10 * abs(naive)


def test_compensated_sum_exactly_rounded_and_order_free():
    # terms spanning 30 decades that cancel down to a small total
    rng = np.random.default_rng(11)
    big = rng.uniform(0.5, 1.0, 600) * 10.0 ** rng.integers(-14, 16, 600)
    vals = np.concatenate([big, -big * (1.0 + 2.0**-40), rng.uniform(-1, 1, 50)])
    rng.shuffle(vals)
    exact = float(sum(Fraction(v) for v in vals.tolist()))
    total = compensated_sum(vals)
    assert total == exact
    assert float(np.sum(vals)) != exact   # ill-conditioned for plain sums
    for seed in range(3):
        perm = np.random.default_rng(seed).permutation(vals.size)
        assert compensated_sum(vals[perm]).hex() == total.hex()


def _fsum_outcome(f, vals):
    """f(vals)'s value as hex, or its exception's type and message."""
    try:
        return f(vals).hex()
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)


def _total(vals):
    return compensated_sum(vals)


def _reference(vals):
    return math.fsum(vals.tolist())


def _exact(vals):
    return sum(map(Fraction, vals))


@st.composite
def _term_arrays(draw):
    """Arrays on both sides of the extraction size test, with exponents
    from the subnormals up to 2^1000, cancelling pairs and ties."""
    n = draw(st.sampled_from([1, 2, 1023, 1024, 1500, 5000]))
    lo = draw(st.integers(-1074, 1000))
    hi = draw(st.integers(lo, 1000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    vals = rng.uniform(-1.0, 1.0, n) * np.exp2(rng.integers(lo, hi + 1, n))
    if draw(st.booleans()):     # exact cancellations
        k = n // 2
        vals[k:2 * k] = -vals[:k]
    if draw(st.booleans()):     # a half-way tie: 1 + 2^-53 rounds to even
        vals[0] = draw(st.sampled_from([1.0, 1.0 + 2.0**-52]))
        vals[-1] = 2.0**-53
    rng.shuffle(vals)
    return vals


@settings(max_examples=60, deadline=None)
@given(_term_arrays())
def test_exact_parts_total_exactly_rounded(vals):
    total = _total(vals)
    assert total == float(_exact(vals.tolist()))
    assert total.hex() == _reference(vals).hex()
    assert _exact(exact_parts(vals)) == _exact(vals.tolist())


@pytest.mark.parametrize("n", [1023, 1024, 5000])
def test_exact_parts_edge_terms(n):
    # extraction runs from n = 1024 on and returns a few parts; below,
    # the terms come back as they are
    rng = np.random.default_rng(n)
    cases = {
        "subnormal": rng.integers(-9, 9, n) * 2.0**-1074,
        "wide": rng.uniform(-1, 1, n) * np.exp2(rng.integers(-1074, 1001, n)),
        # 512 terms 2^-62 add up to half an ulp of 1: a tie, to even
        "ties": np.concatenate([[1.0], np.full(512, 2.0**-62),
                                np.zeros(n - 513)]),
        "odd tie": np.concatenate([[1.0 + 2.0**-52], np.zeros(n - 2),
                                   [2.0**-53]]),
        "cancel": np.concatenate([np.full(n // 2, 2.0**1000),
                                  np.full(n // 2, -2.0**1000),
                                  np.full(n % 2, 2.0**-1074)]),
        "zeros": np.zeros(n),
        "negative zeros": np.full(n, -0.0),
        "mixed zeros": np.where(np.arange(n) % 2 == 0, 0.0, -0.0),
    }
    for name, vals in cases.items():
        assert vals.size == n, name
        parts = exact_parts(vals)
        assert _exact(parts) == _exact(vals.tolist()), name
        if n >= summation._EXTRACT_MIN_TERMS and vals.any():
            assert len(parts) <= 60, name
        else:
            assert parts == vals.tolist(), name
        got, want = _total(vals), _reference(vals)
        assert got.hex() == want.hex(), name
    assert _total(cases["ties"]) == 1.0
    assert _total(cases["odd tie"]) == 1.0 + 2.0**-51
    assert _total(cases["cancel"]) == (2.0**-1074 if n % 2 else 0.0)


@pytest.mark.parametrize("n", [5, 1023, 1024, 5000])
@pytest.mark.parametrize(
    "special",
    [[math.inf], [-math.inf, 1.0], [math.nan], [math.inf, -math.inf],
     [math.inf, math.nan], [1.7e308, 1.7e308, -1.7e308],
     [-1.7e308, -1.7e308]],
)
def test_exact_parts_special_terms_match_fsum(n, special):
    # inf, nan, inf - inf and intermediate overflow: the same value or
    # the same exception as math.fsum of the terms
    vals = np.concatenate([special, np.linspace(-1.0, 1.0, n - len(special))])
    want = _fsum_outcome(_reference, vals)
    assert _fsum_outcome(_total, vals) == want
    if len(special) > 1 and abs(special[0]) == 1.7e308:
        assert want[0] is OverflowError


def test_extraction_keeps_sum_oracles(monkeypatch):
    # every sum of the oracle tests, extracted whatever its size
    monkeypatch.setattr(summation, "_EXTRACT_MIN_TERMS", 1)
    test_ps_exp_sum_oracle()
    test_ps_exp_sum_zero_phase()
    test_identity_residual_small()
    test_compensated_matches_naive()
    test_compensated_sum_exactly_rounded_and_order_free()


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
    # the mean over the smallest power of two above hi - lo is exact for
    # the integer frequencies, so only the evaluator's error is left (the
    # NUFFT's on q0 203: 1.0e-12 relative) and the bar must cover it
    for q0, points in ((29, 1024), (70, 8192), (203, 65536)):
        params = RunParameters(q0, 0.9, 0.5, epsilon_user=1.0)
        pset = pset_for(params)
        res = unit_mean_square(params, pset)
        assert res.exact_reference == pytest.approx(
            float(np.sum((pset.weight_w * pset.weight_log) ** 2)), rel=0
        )
        assert res.panels == points > pset.hi - pset.lo >= points // 2
        assert abs(res.value - res.exact_reference) <= res.error
        assert 0.0 < res.error <= 1e-8 * res.exact_reference


def test_l2_window_interval_kind_bound():
    params = run70()
    res = l2_integral("interval", math.sqrt(2), params)
    g, d = params.gamma.value, params.Delta
    cap = g**2 * 2 * d * ((1 - params.lambda0) * params.X) ** 2
    assert 0 < res.value <= cap * (1 + 1e-9)
    assert 0.0 < res.error <= 1e-6 * res.value


def test_l2_window_ps_sum_trend():
    ratios = []
    for q0 in (70, 203):
        params = RunParameters(q0, 0.9, 0.5, epsilon_user=1.0)
        pset = pset_for(params)
        res = l2_integral("ps_sum", math.sqrt(2), params, pset=pset)
        assert 0.0 < res.error <= 1e-6 * res.value
        ratios.append(res.value / (params.X * params.log_X**3))
    # bounded, not growing: measured 3.7e-4 then 2.0e-4
    assert ratios[1] <= ratios[0]


@pytest.mark.parametrize("q0", [70, 203])
@pytest.mark.parametrize("lam", [1.0, math.sqrt(2), -2.0])
def test_l2_window_matches_exact_pair_sum(q0, lam):
    # int_-Delta^Delta |S(lam t)|^2 dt = sum_p,q w_p w_q 2 Delta sinc(2 lam
    # Delta (p - q)), summed exactly rounded (40,804 and 1,755,625 pairs)
    params = RunParameters(q0, 0.9, 0.5, epsilon_user=1.0)
    pset = pset_for(params)
    w = pset.weight_w * pset.weight_log
    p = pset.primes.astype(np.float64)
    d = params.Delta
    pairs = np.outer(w, w) * (2.0 * d) * np.sinc(2.0 * lam * d * (p[:, None] - p[None, :]))
    want = math.fsum(pairs.ravel().tolist())
    res = l2_integral("ps_sum", lam, params, pset=pset)
    assert abs(res.value - want) <= 1e-12 * want
    assert abs(res.value - want) <= res.error


@pytest.mark.parametrize("q0", [70, 203])
@pytest.mark.parametrize("lam", [1.0, math.sqrt(2), -2.0])
def test_l2_window_interval_kind_matches_si_closed_form(q0, lam):
    # int_-Delta^Delta (gamma L sinc(lam L t))^2 dt = 2 (gamma L)^2 / (|lam|
    # L) (Si(2 pi A) / pi - sin^2(pi A) / (pi^2 A)), A = |lam| L Delta; the
    # rounding part of the bar alone covers the error (1 to 5 ulps), the
    # truncation bound being far looser.  The window span is twice the
    # band rule on [0, Delta], so the bar holds the truncation bound twice
    params = RunParameters(q0, 0.9, 0.5, epsilon_user=1.0)
    res = l2_integral("interval", lam, params)
    f_max = abs(lam) * (1.0 - params.lambda0) * params.X
    n, h = _band_grid(0.0, params.Delta, f_max)
    assert res.panels == n - 1
    amplitude = params.gamma.value * (1.0 - params.lambda0) * params.X
    tail = 2.0 * euler_maclaurin_tail(h, f_max * h, amplitude**2, _EM_TERMS)
    with mp.workdps(30):
        length = (1 - mp.mpf(params.lambda0)) * mp.mpf(params.X)
        amp = mp.mpf(params.gamma.value) * length
        a = abs(mp.mpf(lam)) * length * mp.mpf(params.Delta)
        want = float(2 * amp**2 / (abs(mp.mpf(lam)) * length) * (
            mp.si(2 * mp.pi * a) / mp.pi - mp.sin(mp.pi * a) ** 2 / (mp.pi**2 * a)))
    assert abs(res.value - want) <= 1e-12 * want
    assert abs(res.value - want) <= res.error - tail


def test_l2_argument_validation():
    params = run70()
    with pytest.raises(ValueError):
        l2_integral("nope", 1.0, params)
    with pytest.raises(ValueError):
        l2_integral("ps_sum", 0.0, params, pset=pset_for(params, TABLE4))
    with pytest.raises(ValueError, match="pset"):
        l2_integral("ps_sum", 1.0, params)


def test_minor_arc_window_edges_are_snapped():
    # X = b^13 (q0 = b^6) puts q = b on the window's lower edge; X^(1/13)
    # rounds to just above b for b = 5, 6, 11, and the report must still
    # place b inside, as approx.classify_denominator does.  The flag does
    # not depend on the primes, so the table is empty.
    for b in (5, 6, 11):
        params = RunParameters(b**6, 0.9, 0.5, epsilon_user=1.0)
        assert params.X ** (1.0 / 13.0) > b
        table = PrimeTable(math.ceil(params.X), np.zeros(0, dtype=np.int64))
        pset = PSPrimeSet(params.gamma, params.lambda0 * params.X, params.X,
                          np.zeros(0, dtype=np.int64))
        rep = minor_arc_check(1, b, params, table, pset)
        assert rep.in_window, b
        assert not minor_arc_check(1, b - 1, params, table, pset).in_window, b


def test_minor_arc_report():
    params = RunParameters(203, 0.9, 0.5, epsilon_user=1.0)
    pset = pset_for(params)
    rep = minor_arc_check(1, 2, params, TABLE6, pset)
    assert not rep.in_window  # q=2 sits below X^(1/13) ~ 2.42
    assert rep.chebyshev_ratio < 1.0
    rep7 = minor_arc_check(3, 7, params, TABLE6, pset)
    assert rep7.in_window
    assert rep7.prime_sum_ratio < 1.0 and rep7.ps_sum_ratio < 1.0
    with pytest.raises(ValueError, match="gcd"):
        minor_arc_check(2, 4, params, TABLE6, pset)
