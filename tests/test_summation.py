"""The row-block extraction kernel: exactly rounded row sums from bounds
given before the loop, at the sizes the exponential sums dispatch to."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pstriples import summation
from pstriples.summation import exact_parts, row_parts

_SIZES = [1023, 1024, 1025, 5000]


def _row_totals(block, bounds):
    return [math.fsum(parts).hex() for parts in row_parts(block, bounds)]


def _fsum_rows(block):
    return [math.fsum(row).hex() for row in block.tolist()]


@st.composite
def _blocks(draw):
    """A C-contiguous block whose rows differ in scale by up to 2^2000,
    with cancelling rows, rows of one sign, -0.0 and all-zero rows, and
    per-row bounds from tight to 2^30 times too loose."""
    n = draw(st.sampled_from(_SIZES))
    k = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    block = np.empty((k, n))
    for i in range(k):
        kind = draw(st.sampled_from(["wide", "narrow", "cancel", "one sign",
                                     "zeros", "negzeros"]))
        top = draw(st.integers(-1040, 980))
        if kind == "zeros":
            block[i] = 0.0
        elif kind == "negzeros":
            block[i] = -0.0
        elif kind == "one sign":    # n terms near the bound add up to n times it
            block[i] = rng.uniform(0.5, 1.0, n) * 2.0**top * draw(st.sampled_from([1, -1]))
        else:
            spread = 60 if kind == "narrow" else 400
            block[i] = (rng.uniform(-1.0, 1.0, n)
                        * np.exp2(top - rng.integers(0, spread, n)))
            if kind == "cancel":
                half = n // 2
                block[i, half:2 * half] = -block[i, :half]
                rng.shuffle(block[i])
    amax = np.max(np.abs(block), axis=1)
    loose = np.exp2(rng.choice([0.0, 0.0, 1.0, rng.integers(2, 31)], k))
    bounds = np.where(amax > 0.0, amax * loose, draw(st.sampled_from([0.0, 1.0])))
    return block, bounds


def _over_the_cap():
    """Terms of 5e294 to 9e294 in 1025 columns (m = 11) under a bound of
    1.1e304, past the extraction's cap 2^(1020-m) ~ 5.49e303, beside a
    row that extracts."""
    rng = np.random.default_rng(5)
    block = np.vstack([rng.uniform(5e294, 9e294, 1025), rng.uniform(-1.0, 1.0, 1025)])
    return block, np.array([1.1e304, 1.0])


@settings(max_examples=80, deadline=None)
@given(_blocks())
@example(_over_the_cap())
def test_row_sums_match_fsum_per_row(case):
    # a row extracts to a few parts only under the cap 2^(1020-m); above
    # it, the row comes back as its terms
    block, bounds = case
    assert _row_totals(block, bounds) == _fsum_rows(block)
    cap = math.ldexp(1.0, 1020 - (block.shape[1] + 1).bit_length())
    for parts, row, bound in zip(row_parts(block, bounds), block, bounds.tolist()):
        if row.size >= summation._EXTRACT_MIN_TERMS and row.any() and 0.0 < bound:
            if bound <= cap:
                assert len(parts) <= 60
            else:
                assert parts == row.tolist()


@pytest.mark.parametrize("n", _SIZES)
def test_loose_bounds_cost_levels_not_bits(n):
    # a bound 2^30 too loose adds a level; the sums stay fsum's
    rng = np.random.default_rng(n)
    block = rng.uniform(-1.0, 1.0, (4, n)) * np.array([[1.0], [2.0**-300],
                                                      [2.0**400], [3.0]])
    tight = np.max(np.abs(block), axis=1)
    loose = tight * 2.0**30
    assert _row_totals(block, tight) == _fsum_rows(block)
    assert _row_totals(block, loose) == _fsum_rows(block)
    if n >= summation._EXTRACT_MIN_TERMS:
        levels = [len(p) for p in row_parts(block, tight)]
        more = [len(p) for p in row_parts(block, loose)]
        assert all(a >= b for a, b in zip(more, levels)) and more != levels
        assert max(levels) <= 3


@pytest.mark.parametrize("n", _SIZES)
def test_fallback_rows_come_back_as_terms(n):
    # all-zero rows (the sign of their sum is fsum's), rows with a bound
    # outside (0, 2^(1020-m)] (an infinite term's is) and rows with a NaN
    # term, as a NaN alpha gives, are their own terms; the other rows of
    # the block still extract
    rng = np.random.default_rng(n + 1)
    fine = rng.uniform(-1.0, 1.0, n)
    rows = {
        "zeros": (np.zeros(n), 1.0),
        "negative zeros": (np.full(n, -0.0), 1.0),
        "zero bound": (np.full(n, -0.0), 0.0),
        "near overflow": (rng.uniform(-1.0, 1.0, n) * 2.0**1012, 2.0**1012),
        "nan": (np.where(np.arange(n) == 7, math.nan, fine), 1.0),
        "inf": (np.where(np.arange(n) == 7, math.inf, fine), math.inf),
        "nan bound": (fine, math.nan),
        "fine": (fine, 1.0),
    }
    block = np.array([row for row, _ in rows.values()])
    bounds = [bound for _, bound in rows.values()]
    got = row_parts(block, bounds)
    for (name, (row, _)), parts in zip(rows.items(), got):
        want = math.fsum(row.tolist())
        assert math.fsum(parts) == want or math.isnan(want), name
        assert math.copysign(1.0, math.fsum(parts)) == math.copysign(1.0, want), name
        if name == "fine" and n >= summation._EXTRACT_MIN_TERMS:
            assert len(parts) <= 3
        else:
            assert parts == row.tolist() or (math.isnan(want) and len(parts) == n), name


def test_exact_parts_is_the_one_row_case():
    rng = np.random.default_rng(3)
    for n in _SIZES:
        vals = rng.uniform(-1.0, 1.0, n) * np.exp2(rng.integers(-60, 60, n))
        one = exact_parts(vals)
        assert one == row_parts(vals.reshape(1, -1), [np.max(np.abs(vals))])[0]
        assert math.fsum(one).hex() == math.fsum(vals.tolist()).hex()


def test_rows_are_read_not_written():
    rng = np.random.default_rng(4)
    block = rng.uniform(-1.0, 1.0, (3, 2000))
    before = block.copy()
    row_parts(block, np.max(np.abs(block), axis=1))
    assert np.array_equal(block, before)
