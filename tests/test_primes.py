"""Sieve, floor-power prime indicator, cross-oracle equality, cache."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pstriples.primes import (
    CacheFormatError,
    cache_load,
    cache_store,
    ps_enumerate_oracle,
    ps_indicator,
    ps_indicator_array,
    ps_primes_in,
    sieve_primes,
)

# Recomputed independently at 60-digit precision before implementation.
PS_50_G09 = [2, 3, 5, 7, 11, 17, 23, 29, 31, 37, 43, 47]
ALL_50 = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]


def trial_division_is_prime(n):
    if n < 2:
        return False
    for d in range(2, math.isqrt(n) + 1):
        if n % d == 0:
            return False
    return True


def test_sieve_small():
    assert sieve_primes(10).primes.tolist() == [2, 3, 5, 7]
    assert sieve_primes(2).primes.tolist() == [2]
    assert sieve_primes(3).primes.tolist() == [2, 3]


def test_sieve_pi_of_1e6():
    table = sieve_primes(10**6)
    assert table.count == 78498
    assert int(table.primes[0]) == 2
    assert int(table.primes[-1]) == 999983
    assert np.all(np.diff(table.primes) > 0)


def test_sieve_against_trial_division_sample():
    table = sieve_primes(20000)
    marked = set(table.primes.tolist())
    rng = np.random.default_rng(11)
    for n in rng.integers(2, 20001, size=300):
        assert (int(n) in marked) == trial_division_is_prime(int(n))


def test_sieve_spans_segment_boundary():
    # limit just past a segment edge exercises the multi-segment path
    limit = (1 << 20) + 1000
    table = sieve_primes(limit)
    marked = set(table.primes.tolist())
    for n in range(limit - 50, limit + 1):
        assert (n in marked) == trial_division_is_prime(n)


def test_sieve_range_errors():
    with pytest.raises(ValueError):
        sieve_primes(1)
    with pytest.raises(ValueError):
        sieve_primes((1 << 40) + 1)
    with pytest.raises(ValueError):
        sieve_primes(10.0)


def test_indicator_examples():
    assert ps_indicator(2, 0.9) == 1   # 2 in [2^0.9, 3^0.9) ~ [1.866, 2.688)
    assert ps_indicator(13, 0.9) == 0  # no integer in ~[10.058, 10.752)
    for p in [2, 3, 5, 7, 11, 13, 97, 1009]:
        assert ps_indicator(p, 1 - 1e-9) == 1


def test_indicator_matches_array_version():
    ps = np.array(ALL_50)
    for g in (0.76, 0.9, 0.98):
        arr = ps_indicator_array(ps, g)
        assert arr.tolist() == [ps_indicator(int(p), g) for p in ps]


def test_indicator_exact_boundary_dyadic_gamma():
    # gamma = 0.5: 4^0.5 = 2 exactly, and the count over [3^0.5, 2) is 0
    assert ps_indicator(3, 0.5) == 0
    # [4^0.5, 5^0.5) = [2, 2.236) contains 2
    assert ps_indicator(4, 0.5) == 1


def test_indicator_near_boundary_power_of_two():
    # 1024^(0.9 as a double) lies a hair above 512; the guard must place
    # the floor on the correct side
    assert ps_indicator(1023, 0.9) == 1


# In a fresh process with warnings as errors (in process, the test
# modules import mpmath themselves): start-up, a decomposition and a
# pipeline run never reach the boundary guard, so mpmath stays unloaded;
# the guard then imports it and still decides both boundary cases
# exactly.
_LAZY_GUARD_SCRIPT = """
import json, math, sys
import pstriples.cli
from pstriples.params import Coefficients, RunParameters
from pstriples.primes import ps_indicator, ps_primes_in, sieve_primes
from pstriples.triplesum import decompose

params = RunParameters(12, 0.9, 0.5, epsilon_user=2.0)
table = sieve_primes(math.ceil(params.X) + 1)
pset = ps_primes_in(params.lambda0 * params.X, params.X, 0.9, table)
decompose(params, Coefficients(1.0, 1.0, -2.0, 0.0), pset)
code = pstriples.cli.main(["run", "--config", sys.argv[1], "--out-dir", sys.argv[2]])
before = "mpmath" in sys.modules
exact = [ps_indicator(3, 0.5), ps_indicator(1023, 0.9)]
print(json.dumps([code, before, exact, "mpmath" in sys.modules]))
"""


def test_boundary_guard_loads_mpmath_only_when_it_fires(tmp_path):
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"),
               PSD_CACHE_DIR=str(tmp_path / "cache"))
    out = subprocess.run(
        [sys.executable, "-W", "error", "-c", _LAZY_GUARD_SCRIPT,
         str(root / "demos" / "sqrt2_demo.conf"), str(tmp_path / "run")],
        env=env, check=True, capture_output=True, text=True).stdout
    code, before, exact, after = json.loads(out.strip().splitlines()[-1])
    assert code == 0 and (tmp_path / "run" / "manifest.json").is_file()
    assert before is False
    assert exact == [0, 1] and after is True


def test_ps_primes_in_window():
    table = sieve_primes(50)
    got = ps_primes_in(0, 50, 0.9, table)
    assert got.primes.tolist() == PS_50_G09
    assert 13 not in got.primes.tolist()
    near_one = ps_primes_in(0, 50, 0.999999, table)
    assert near_one.primes.tolist() == ALL_50


def test_ps_primes_in_empty_and_errors():
    table = sieve_primes(50)
    assert ps_primes_in(10, 10, 0.9, table).count == 0
    with pytest.raises(ValueError):
        ps_primes_in(0, 51, 0.9, table)


def test_ps_primes_in_open_left_boundary():
    table = sieve_primes(50)
    got = ps_primes_in(2, 50, 0.9, table)
    assert got.primes.tolist() == [p for p in PS_50_G09 if p > 2]


def test_weights_recomputable():
    table = sieve_primes(1000)
    pset = ps_primes_in(0, 1000, 0.9, table)
    p = pset.primes.astype(float)
    assert np.allclose(pset.weight_w, p ** 0.1, rtol=1e-14, atol=0)
    assert np.allclose(pset.weight_log, np.log(p), rtol=1e-14, atol=0)


def test_enumeration_oracle_examples():
    got = ps_enumerate_oracle(50, 0.9)
    assert got.primes.tolist() == PS_50_G09
    assert ps_enumerate_oracle(10, 0.5).count == 0  # squares are never prime > 1
    assert ps_enumerate_oracle(2, 0.9).primes.tolist() == [2]


def test_cross_oracle_equality_grid():
    limit = 10**4
    table = sieve_primes(limit)
    for g in (0.76, 0.9, 37.0 / 38.0 + 1e-4, 0.98):
        a = ps_primes_in(0, limit, g, table)
        b = ps_enumerate_oracle(limit, g, table=table)
        assert a.primes.tolist() == b.primes.tolist(), f"gamma={g}"


@settings(max_examples=120, deadline=None)
@given(
    p=st.integers(min_value=2, max_value=10**6),
    g=st.floats(min_value=0.51, max_value=0.999, allow_nan=False),
)
def test_indicator_monotone_consistency(p, g):
    ind = ps_indicator(p, g)
    assert ind in (0, 1)
    if (p + 1) ** g - p**g >= 1.0:
        assert ind == 1


def test_density_sanity():
    table = sieve_primes(10**6)
    for x in (10**4, 10**5, 10**6):
        pset = ps_primes_in(0, x, 0.9, table)
        expected = x**0.9 / math.log(x)
        assert 0.5 <= pset.count / expected <= 2.0


def test_cache_round_trip(tmp_path):
    table = sieve_primes(50)
    pset = ps_primes_in(0, 50, 0.9, table)
    path = tmp_path / "g09.psp"
    cache_store(pset, path)
    back = cache_load(path, gamma=0.9)
    assert back.primes.tolist() == pset.primes.tolist()
    assert back.gamma.value == pset.gamma.value
    assert np.allclose(back.weight_w, pset.weight_w, rtol=0, atol=0)


def test_cache_truncation_detected(tmp_path):
    table = sieve_primes(50)
    pset = ps_primes_in(0, 50, 0.9, table)
    path = tmp_path / "g09.psp"
    cache_store(pset, path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-13])
    with pytest.raises(CacheFormatError):
        cache_load(path)


def test_cache_gamma_mismatch(tmp_path):
    table = sieve_primes(50)
    cache_store(ps_primes_in(0, 50, 0.9, table), tmp_path / "c.psp")
    with pytest.raises(CacheFormatError, match="gamma mismatch"):
        cache_load(tmp_path / "c.psp", gamma=0.76)


def test_cache_bad_magic(tmp_path):
    path = tmp_path / "bad.psp"
    path.write_bytes(b"NOPE" + b"\x00" * 40)
    with pytest.raises(CacheFormatError, match="magic"):
        cache_load(path)


def test_cache_older_format_and_flipped_byte_rejected(tmp_path):
    # a file of the older format (magic PSP1, FNV-1a checksum) fails on
    # its magic, which callers log and rebuild; a flipped prime byte
    # fails the checksum
    table = sieve_primes(50)
    path = tmp_path / "c.psp"
    cache_store(ps_primes_in(0, 50, 0.9, table), path)
    blob = path.read_bytes()
    path.write_bytes(b"PSP1" + blob[4:])
    with pytest.raises(CacheFormatError, match="bad magic"):
        cache_load(path)
    flipped = bytearray(blob)
    flipped[30] ^= 1
    path.write_bytes(bytes(flipped))
    with pytest.raises(CacheFormatError, match="checksum"):
        cache_load(path)


def test_cache_rejects_windowed_set(tmp_path):
    table = sieve_primes(50)
    windowed = ps_primes_in(10, 50, 0.9, table)
    with pytest.raises(CacheFormatError, match="full-range"):
        cache_store(windowed, tmp_path / "w.psp")
