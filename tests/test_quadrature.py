"""Endpoint-corrected trapezoid rule; composite Boole weights: streaming
chunks, exactness, grid validation."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pstriples.quadrature import (
    bernoulli_even,
    boole_weight,
    euler_maclaurin,
    euler_maclaurin_tail,
)


def test_bernoulli_numbers_exact():
    assert bernoulli_even(5) == (Fraction(1, 6), Fraction(-1, 30), Fraction(1, 42),
                                 Fraction(-1, 30), Fraction(5, 66))
    assert bernoulli_even(20)[-1] == Fraction(-261082718496449122051, 13530)


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
