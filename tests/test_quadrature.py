"""Composite Boole weights: streaming chunks, exactness, grid validation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pstriples.quadrature import boole_weight


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
