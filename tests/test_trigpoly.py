"""Grid evaluator on both sides of its dispatch, against an mpmath oracle.

Sizes are those of the real band sweeps: n >= _DIRECT_CUTOFF samples, t0
in the middle (40) and far (700) bands of instance A, and the band
grids' spacing h = 1/(2 f_max), f_max the top frequency of the band
integrand for the coefficients (1, sqrt 2, -2) (triplesum.band_frequency).
The oracle is exact for the double inputs (frequencies, weights, t0 + m
dt), so the whole gap is the evaluator's.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest

from pstriples import trigpoly
from pstriples.expsums import ps_sum_grid, ps_sum_plan
from pstriples.kernel import make_kernel
from pstriples.params import Coefficients, RunParameters
from pstriples.primes import ps_primes_in, sieve_primes
from pstriples.triplesum import band_frequency

LAM = math.sqrt(2)
N = 8193            # the last block row is partial
# Largest gap over the oracle points divided by sum |w|, measured on this
# test's inputs (the same with one or two BLAS threads):
#
#   q0  path     t0=40     t0=700
#   70  blocked  1.3e-11   2.9e-10
#   203 NUFFT    1.3e-10   9.8e-10
#
# (At the earlier spacing 1/(24 X) they read 1.3e-11, 2.3e-10, 1.0e-10
# and 2.2e-9.)  Nearly all of it is the rounding of the products f_j * t
# to doubles, which grows with |f_j t|; with those phases exact the
# blocked path is within 5e-15.  Tolerances were set at about 4x the
# gaps measured at the earlier spacing and are unchanged.
TOL = {(70, 40.0): 5e-11, (70, 700.0): 1e-9,
       (203, 40.0): 4e-10, (203, 700.0): 1e-8}


def _pset(q0):
    params = RunParameters(q0, 0.9, 0.5, epsilon_user=1.0)
    table = sieve_primes(int(params.X) + 2)
    return params, ps_primes_in(params.lambda0 * params.X, params.X,
                                params.gamma, table)


def _band_spacing(params):
    kern = make_kernel(params.epsilon_effective, params.kernel_k)
    return 0.5 / band_frequency(params, Coefficients(1.0, LAM, -2.0, 0.0), kern)


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
    dt = _band_spacing(params)
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
    dt = _band_spacing(params)
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


@pytest.mark.parametrize("n", [5, 4095, 8193, 3 * 2**11 + 5, 2**17 + 5])
def test_plan_matches_fresh_calls_bitwise(n):
    # one plan per frequency set at several t0, the second and third
    # sharing the first one's work buffers and called in turn, as the
    # band sweep calls them; each call equals a fresh trig_sum_uniform
    rng = np.random.default_rng(n)
    nf = 61
    sets = [(rng.uniform(-3e4, 3e4, nf),
             rng.normal(size=nf) + 1j * rng.normal(size=nf)) for _ in range(3)]
    dt = 1.0 / (24.0 * 3e4)
    plans = []
    for freqs, weights in sets:
        plans.append(trigpoly.plan_uniform(freqs, weights, dt, n,
                                           plans[-1] if plans else None))
    for t0 in (0.25, 40.0, 700.125, 40.0):
        for plan, (freqs, weights) in zip(plans, sets):
            got = plan(t0)
            want = trigpoly.trig_sum_uniform(freqs, weights, t0, dt, n)
            assert got.shape == (n,)
            assert np.array_equal(got, want)
    # a call returns a view of the plan's buffer, overwritten by the next
    first = plans[0](1.0)
    assert np.shares_memory(first, plans[0](2.0))


def test_nufft_sizes_get_no_plan():
    # the dispatch rule lives in trigpoly: wide windows on long grids
    # take the NUFFT and get no plan; below the sample cutoff they plan
    nf = trigpoly._BLOCKED_MAX_FREQS + 1
    freqs, weights = np.linspace(1.0, 2.0, nf), np.ones(nf)
    assert trigpoly.plan_uniform(freqs, weights, 1e-3, trigpoly._DIRECT_CUTOFF) is None
    assert trigpoly.plan_uniform(freqs, weights, 1e-3, 8193) is None
    small = trigpoly.plan_uniform(freqs, weights, 1e-3, trigpoly._DIRECT_CUTOFF - 1)
    assert isinstance(small, trigpoly.BlockedPlan)
    assert np.array_equal(small(3.0), trigpoly.trig_sum_uniform(
        freqs, weights, 3.0, 1e-3, trigpoly._DIRECT_CUTOFF - 1))
    assert trigpoly.plan_uniform(freqs[:-1], weights[:-1], 1e-3, 8193) is not None


def test_shared_plans_need_one_shape():
    freqs, weights = np.array([0.5, 1.5]), np.ones(2)
    plan = trigpoly.plan_uniform(freqs, weights, 1e-3, 8193)
    with pytest.raises(ValueError, match="same frequency count and n"):
        trigpoly.plan_uniform(freqs, weights, 1e-3, 4097, plan)
    with pytest.raises(ValueError, match="same frequency count and n"):
        trigpoly.plan_uniform(freqs[:1], weights[:1], 1e-3, 8193, plan)


@pytest.mark.parametrize("q0", [70, 203])
def test_planned_grid_matches_unplanned(q0):
    # instance A's window plans; instance B's takes the NUFFT (no plan)
    params, pset = _pset(q0)
    dt = _band_spacing(params)
    plan = ps_sum_plan(pset, LAM, dt, N)
    assert (plan is None) == (pset.count > trigpoly._BLOCKED_MAX_FREQS)
    for t0 in (40.0, 700.0):
        want = ps_sum_grid(pset, LAM, t0, dt, N)
        assert np.array_equal(ps_sum_grid(pset, LAM, t0, dt, N, plan=plan), want)
    if plan is not None:
        with pytest.raises(ValueError, match="another window"):
            ps_sum_grid(pset, LAM, 40.0, dt, N - 4, plan=plan)
        with pytest.raises(ValueError, match="another window"):
            ps_sum_grid(pset, 1.0, 40.0, dt, N, plan=plan)


def test_cli_import_leaves_scipy_out():
    # scipy.fft and scipy.special serve the NUFFT only and load on its
    # first call, not at start-up
    code = ("import sys, pstriples.cli; "
            "print(sorted(m for m in ('scipy.fft', 'scipy.special') "
            "if m in sys.modules))")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
