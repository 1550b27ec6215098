"""Grid evaluator on both sides of its dispatch, against an mpmath oracle.

Sizes are those of the real band sweeps: n >= _DIRECT_CUTOFF samples, t0
in the middle (40) and far (700) bands of instance A, spacing 1/(24 X) as
in the band grids (12 points per period of the fastest mode, 2X).  The
oracle is exact for the double inputs (frequencies, weights, t0 + m dt),
so the whole gap is the evaluator's.
"""

import math

import mpmath
import numpy as np
import pytest

from pstriples import trigpoly
from pstriples.expsums import ps_sum_grid
from pstriples.params import RunParameters
from pstriples.primes import ps_primes_in, sieve_primes

LAM = math.sqrt(2)
N = 8193            # 4m+1 like a band chunk; the last block row is partial
# Largest gap over the oracle points divided by sum |w|, measured on this
# test's inputs (the same with one or two BLAS threads):
#
#   q0  path     t0=40     t0=700
#   70  blocked  1.3e-11   2.3e-10
#   203 NUFFT    1.0e-10   2.2e-9
#
# Nearly all of it is the rounding of the products f_j * t to doubles,
# which grows with |f_j t|; with those phases exact the blocked path is
# within 5e-15.  Tolerances are about 4x the measured gap.
TOL = {(70, 40.0): 5e-11, (70, 700.0): 1e-9,
       (203, 40.0): 4e-10, (203, 700.0): 1e-8}


def _pset(q0):
    params = RunParameters(q0, 0.9, 0.5, epsilon_user=1.0)
    table = sieve_primes(int(params.X) + 2)
    return params, ps_primes_in(params.lambda0 * params.X, params.X,
                                params.gamma, table)


def _oracle(freqs, weights, t0, dt, m):
    with mpmath.workdps(30):
        t = mpmath.mpf(t0) + m * mpmath.mpf(dt)
        acc = mpmath.mpc(0)
        for f, w in zip(freqs.tolist(), weights.tolist()):
            acc += mpmath.mpc(w) * mpmath.expjpi(2 * mpmath.mpf(f) * t)
        return complex(acc)


@pytest.mark.parametrize("t0", [40.0, 700.0])
@pytest.mark.parametrize("q0,path", [(70, "blocked"), (203, "nufft")])
def test_grid_evaluator_against_mpmath(q0, path, t0):
    params, pset = _pset(q0)
    # q0 = 70 is instance A's 202-prime window, q0 = 203 instance B's 1325
    assert (pset.count <= trigpoly._BLOCKED_MAX_FREQS) == (path == "blocked")
    assert N >= trigpoly._DIRECT_CUTOFF
    dt = 1.0 / (24.0 * params.X)
    grid = ps_sum_grid(pset, LAM, t0, dt, N)
    assert grid.shape == (N,)
    freqs = LAM * pset.primes.astype(np.float64)
    weights = pset.weight_w * pset.weight_log
    scale = float(np.sum(np.abs(weights)))
    block = 1 << (N.bit_length() // 2)
    rng = np.random.default_rng(q0)
    points = [0, 1, block - 1, block, N // 2, N - 2, N - 1]
    points += rng.integers(0, N, 3).tolist()
    worst = 0.0
    for m in points:
        gap = abs(grid[m] - _oracle(freqs, weights, t0, dt, m))
        worst = max(worst, gap / scale)
    assert worst <= TOL[q0, t0]


@pytest.mark.parametrize("q0", [70, 203])
def test_grid_evaluator_reruns_bitwise(q0):
    params, pset = _pset(q0)
    dt = 1.0 / (24.0 * params.X)
    first = ps_sum_grid(pset, LAM, 40.0, dt, N)
    second = ps_sum_grid(pset, LAM, 40.0, dt, N)
    assert first.tobytes() == second.tobytes()


def test_blocked_path_small_and_empty_inputs():
    # dyadic inputs: every phase product is exact, so only exp rounds
    freqs = np.array([0.25, 1.5, -3.0])
    weights = np.array([1.0, 2.0 - 1.0j, 0.5j])
    for n in (0, 1, 2, 3, 5, 64, np.int64(9)):
        got = trigpoly.trig_sum_uniform(freqs, weights, 0.5, 0.125, n)
        phase = np.outer(0.5 + 0.125 * np.arange(n), freqs)
        want = np.exp(2j * np.pi * (phase - np.floor(phase))) @ weights
        assert got.shape == (n,)
        assert np.allclose(got, want, rtol=0, atol=1e-14)
    empty = trigpoly.trig_sum_uniform(np.zeros(0), np.zeros(0), 0.0, 1.0, 9)
    assert np.array_equal(empty, np.zeros(9, dtype=np.complex128))


@pytest.mark.parametrize("n", [1, 2, 4095, 4096, 8193, 3 * 2**11 + 5,
                               2**17 + 5])
def test_mirrored_evaluator_against_plain_sum(n):
    # Rows of the blocked evaluator are mirrored about the middle row r0:
    # n = 1 and 2 have one row (r0 = 0), 4095 and 4096 an even row count
    # (64), 8193 and 3*2^11+5 odd ones (65, 97), and 2^17+5 257 rows, so
    # more than one block of mirrored rows with a one-row last block.
    # Dyadic inputs keep every phase product exact, in the evaluator and
    # in the plain O(n * n_freqs) sum, so the gap is the evaluator's own
    # rounding: at most 5.2e-15 * sum |w| measured (at 2^17+5).
    rng = np.random.default_rng(5)
    nf = 61
    freqs = rng.integers(1, 1 << 26, nf) / 2.0**16 * rng.choice([-1, 1], nf)
    weights = rng.normal(size=nf) + 1j * rng.normal(size=nf)
    t0, dt = 321987 / 2.0**20, 3 / 2.0**20
    assert nf <= trigpoly._BLOCKED_MAX_FREQS
    got = trigpoly.trig_sum_uniform(freqs, weights, t0, dt, n)
    phase = np.outer(t0 + dt * np.arange(n), freqs)
    want = np.exp(2j * np.pi * (phase - np.floor(phase))) @ weights
    assert got.shape == (n,)
    assert np.max(np.abs(got - want)) <= 2e-14 * np.sum(np.abs(weights))
