"""Endpoint-corrected trapezoid rule and the band rule's grid; composite
Boole weights: streaming chunks, exactness, grid validation."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pstriples import quadrature
from pstriples.params import ParameterError
from pstriples.quadrature import (
    QuadratureError,
    _band_grid,
    bernoulli_even,
    boole_weight,
    euler_maclaurin,
    euler_maclaurin_squared,
    euler_maclaurin_tail,
)


def _bernoulli_by_recurrence(count):
    """The O(count^2) reference: sum_{j <= m} C(m+1, j) B_j = 0."""
    b = [Fraction(1)]
    for m in range(1, 2 * count + 1):
        b.append(-sum(math.comb(m + 1, j) * b[j] for j in range(m)) / (m + 1))
    return tuple(b[2::2])


def test_bernoulli_numbers_exact():
    assert bernoulli_even(5) == (Fraction(1, 6), Fraction(-1, 30), Fraction(1, 42),
                                 Fraction(-1, 30), Fraction(5, 66))
    assert bernoulli_even(20)[-1] == Fraction(-261082718496449122051, 13530)
    # up to the 80 terms of an f_max h = 0.8 grid, against the classical
    # recurrence and mpmath
    got = bernoulli_even(80)
    assert got == _bernoulli_by_recurrence(80)
    assert [(b.numerator, b.denominator) for b in got] == [
        mpmath.bernfrac(2 * k) for k in range(1, 81)]
    assert bernoulli_even(20) == got[:20] and bernoulli_even(0) == ()


@pytest.mark.parametrize("terms", [20, 80])
def test_euler_maclaurin_weights_are_the_rounded_bernoulli_ratios(terms):
    # one unit coefficient c_(2k-1) at b, h = 1, reads weight k alone
    zeros = np.zeros(2 * terms)
    for k, b in enumerate(bernoulli_even(terms), 1):
        unit = zeros.copy()
        unit[2 * k - 1] = 1.0
        assert euler_maclaurin(1.0, zeros, unit) == float(b / (2 * k))


def test_euler_maclaurin_on_a_trigonometric_polynomial():
    # g(t) = sum w e(f t) with |f| <= f_max = 3, both extremes present,
    # on [a, a + 50 h] at f_max h = 1/2: the trapezoid sum misses the
    # closed-form integral by 0.33, and K terms of the endpoint series
    # leave an error under euler_maclaurin_tail (measured 10 to 200 times
    # under it), down to rounding at K = 20
    rng = np.random.default_rng(11)
    f = np.concatenate([[-3.0, 3.0, 0.0], rng.uniform(-3.0, 3.0, 9)])
    w = rng.normal(size=f.size) + 1j * rng.normal(size=f.size)
    h, a, n = 1.0 / 6.0, 0.37, 50
    b = a + n * h
    g = np.exp(2j * np.pi * np.outer(a + h * np.arange(n + 1), f)) @ w
    trap = h * (g.sum() - 0.5 * (g[0] + g[-1]))
    nz = f != 0.0
    exact = w[~nz].sum() * (b - a) + np.sum(
        w[nz] * (np.exp(2j * np.pi * f[nz] * b) - np.exp(2j * np.pi * f[nz] * a))
        / (2j * np.pi * f[nz]))

    def series(x, terms):
        j = np.arange(2 * terms)[:, None]
        fact = np.array([math.factorial(int(i)) for i in j.ravel()])[:, None]
        return ((2j * np.pi * h * f) ** j / fact) @ (w * np.exp(2j * np.pi * f * x))

    scale = np.abs(w).sum()
    assert abs(trap - exact) > 0.3
    for terms in (1, 2, 4, 8, 12):
        err = abs(trap - euler_maclaurin(h, series(a, terms), series(b, terms)) - exact)
        assert err <= euler_maclaurin_tail(h, 0.5, scale, terms)
    err = abs(trap - euler_maclaurin(h, series(a, 20), series(b, 20)) - exact)
    assert err <= 1e-13 * scale * (b - a)
    with pytest.raises(ValueError):
        euler_maclaurin_tail(h, 1.0, scale, 20)


def test_euler_maclaurin_squared_on_a_trigonometric_polynomial():
    # |F|^2 for F = sum w e(f t), |f| <= 3/2, so |F|^2 has frequencies up
    # to 3 = f_max; at f_max h = 1/2 the trapezoid sum corrected from F's
    # own series matches the pair-sum integral to rounding, and the
    # helper is euler_maclaurin on the series of F times its conjugate
    rng = np.random.default_rng(12)
    f = np.concatenate([[-1.5, 1.5], rng.uniform(-1.5, 1.5, 10)])
    w = rng.normal(size=f.size) + 1j * rng.normal(size=f.size)
    h, a, n = 1.0 / 6.0, -0.81, 47
    b = a + n * h
    g = np.abs(np.exp(2j * np.pi * np.outer(a + h * np.arange(n + 1), f)) @ w) ** 2
    trap = h * (g.sum() - 0.5 * (g[0] + g[-1]))
    d = f[:, None] - f[None, :]
    ww = w[:, None] * np.conj(w[None, :])
    safe = np.where(d == 0.0, 1.0, d)
    pair = np.where(d == 0.0, b - a, (np.exp(2j * np.pi * d * b)
                                      - np.exp(2j * np.pi * d * a)) / (2j * np.pi * safe))
    exact = float(np.sum(ww * pair).real)

    def series(x):
        j = np.arange(40)[:, None]
        fact = np.array([math.factorial(int(i)) for i in j.ravel()])[:, None]
        return ((2j * np.pi * h * f) ** j / fact) @ (w * np.exp(2j * np.pi * f * x))

    lo, hi = series(a), series(b)
    scale = np.abs(w).sum() ** 2
    assert abs(trap - exact) > 1e-3 * scale
    corr = euler_maclaurin_squared(h, lo, hi)
    assert abs(trap - corr - exact) <= 1e-13 * scale * (b - a)
    assert corr == euler_maclaurin(
        h, np.convolve(lo, np.conj(lo))[:40], np.convolve(hi, np.conj(hi))[:40]
    ).real


@pytest.mark.parametrize("t_lo, t_hi, f_max", [
    (-0.25, 0.25, 1.0), (0.1, 7.3, 123.4), (-3e-3, 3e-3, 9949.0), (1.0, 1.5, 1e-9),
])
def test_band_grid_is_the_coarsest_at_the_band_limit(t_lo, t_hi, f_max):
    n, h = _band_grid(t_lo, t_hi, f_max)
    assert n >= 2
    assert t_lo + (n - 1) * h == pytest.approx(t_hi, rel=1e-15, abs=1e-15)
    assert f_max * h <= quadrature._BAND_FH * (1.0 + 1e-15)
    if n > 2:
        # one interval fewer would pass the band limit
        assert f_max * (t_hi - t_lo) / (n - 2) > quadrature._BAND_FH


def test_band_grid_refuses_empty_and_oversized_bands(monkeypatch):
    with pytest.raises(ParameterError, match="empty band"):
        _band_grid(1.0, 1.0, 5.0)
    with pytest.raises(ParameterError, match="empty band"):
        _band_grid(2.0, 1.0, 5.0)
    cap = quadrature._MAX_BAND_POINTS
    assert _band_grid(0.0, 1.0, (cap - 1) * quadrature._BAND_FH)[0] == cap
    with pytest.raises(QuadratureError, match="cap"):
        _band_grid(0.0, 1.0, cap * quadrature._BAND_FH)
    # the rule's f_max h is read at call time: one edit moves every band
    monkeypatch.setattr(quadrature, "_BAND_FH", 0.25)
    assert _band_grid(0.0, 1.0, 10.0) == (41, 1.0 / 40)


def _full_grid_weights(n_points):
    """The textbook vector 7, 32, 12, 32, 14, 32, 12, 32, ..., 32, 7."""
    w = np.tile([14.0, 32.0, 12.0, 32.0], (n_points + 3) // 4)[:n_points]
    w[0] = w[-1] = 7.0
    return w


@pytest.mark.parametrize("m", [1, 2, 3, 10, 257])
def test_full_grid_matches_textbook_pattern(m):
    n = 4 * m + 1
    assert np.array_equal(boole_weight(np.arange(n), n), _full_grid_weights(n))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 400), st.data())
def test_chunked_weights_equal_full_grid(m, data):
    n = 4 * m + 1
    full = boole_weight(np.arange(n), n)
    lo = data.draw(st.integers(0, n - 1))
    hi = data.draw(st.integers(lo, n))
    assert np.array_equal(boole_weight(np.arange(lo, hi), n), full[lo:hi])
    idx = np.array(data.draw(st.lists(st.integers(0, n - 1), max_size=20)),
                   dtype=np.int64)
    assert np.array_equal(boole_weight(idx, n), full[idx])


def test_chunk_sweep_reassembles_full_grid():
    n = 4 * 1000 + 1
    chunk = 333                         # not a multiple of 4
    parts = [boole_weight(np.arange(s, min(s + chunk, n)), n)
             for s in range(0, n, chunk)]
    assert np.array_equal(np.concatenate(parts), boole_weight(np.arange(n), n))


@pytest.mark.parametrize("m", [1, 4, 25])
def test_boole_integrates_quintic_exactly(m):
    a, b = -0.75, 2.5
    n = 4 * m + 1
    h = (b - a) / (n - 1)
    x = a + h * np.arange(n)
    coef = [3.0, -1.5, 0.25, 2.0, -0.5, 1.25]        # degree 0..5
    f = sum(c * x**k for k, c in enumerate(coef))
    exact = sum(c * (b ** (k + 1) - a ** (k + 1)) / (k + 1)
                for k, c in enumerate(coef))
    value = (2.0 * h / 45.0) * float(np.dot(boole_weight(np.arange(n), n), f))
    assert value == pytest.approx(exact, rel=1e-13)
    # degree 6 misses by more than the quintic tolerance: the rule is O(h^6)
    f6 = x**6
    exact6 = (b**7 - a**7) / 7.0
    value6 = (2.0 * h / 45.0) * float(np.dot(boole_weight(np.arange(n), n), f6))
    assert abs(value6 - exact6) > 1e-11 * abs(exact6)


@pytest.mark.parametrize("n_points", [-3, 0, 1, 2, 3, 4, 6, 7, 8, 10, 4002])
def test_grid_size_must_be_4m_plus_1(n_points):
    with pytest.raises(ValueError):
        boole_weight(np.arange(3), n_points)
