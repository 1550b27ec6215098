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

from pstriples import trigpoly, triplesum
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
    block = 1 << ((N.bit_length() - 1) // 2)       # the blocked path's L
    rng = np.random.default_rng(q0)
    points = [0, 1, block - 1, block, N // 2, N - 2, N - 1]
    points += rng.integers(0, N, 3).tolist()
    worst = 0.0
    for m in points:
        gap = abs(grid[m] - _oracle(freqs, weights, t0, dt, m))
        worst = max(worst, gap / scale)
    assert worst <= TOL[q0, t0]


def _assert_planned_gaps(pset, plan, points):
    # the planned grid of instance A's window at t0 = 40 and 700 against
    # the oracle on the given samples, under the same gates as at N points
    freqs = LAM * pset.primes.astype(np.float64)
    weights = pset.weight_w * pset.weight_log
    scale = float(np.sum(np.abs(weights)))
    for t0 in (40.0, 700.0):
        grid = ps_sum_grid(pset, LAM, t0, plan.dt, plan.n, plan=plan)
        worst = max(abs(grid[m] - _oracle(freqs, weights, t0, plan.dt, m)) for m in points)
        assert worst / scale <= TOL[70, t0]


def test_blocked_plan_against_mpmath_past_one_slab():
    # instance A's window on a 2^18-point grid, the walker's chunk size
    # before it was 2^16: 257 mirrored rows, past the 128-row slabs the
    # products were once split into, so each real table is one product.
    # The oracle points sit on rows 0 and 2 r0 (d = r0), r0 +- 129,
    # r0 +- 200 and r0
    params, pset = _pset(70)
    n = 2**18
    plan = ps_sum_plan(pset, LAM, _band_spacing(params), n)
    assert isinstance(plan, trigpoly.BlockedPlan) and plan._r0 + 1 > 128
    size, r0 = plan._out.shape[1], plan._r0
    points = [0, 1, size - 1, (r0 - 129) * size + 7, (r0 - 200) * size + 300,
              r0 * size, (r0 + 129) * size + 5, (r0 + 200) * size, n - 1]
    _assert_planned_gaps(pset, plan, points)


def test_blocked_plan_against_mpmath_on_a_walked_chunk():
    # the grid the walker plans on instance A (eps 2): its middle band of
    # 745,084 points in twelve chunks of 62,091, each sum a blocked plan
    # of L = 128 columns and 486 rows, mirrored about r0 = 243 (rows r0 -
    # 243 to r0 + 242 hold samples), at the band's own spacing.  Oracle
    # points on rows 0 and r0, on r0 +- d for several d, and on the last
    # sample
    params = RunParameters(70, 0.9, 0.5, epsilon_user=2.0)
    pset = _pset(70)[1]
    kern = make_kernel(params.epsilon_effective, params.kernel_k)
    n_points, dt, n = triplesum._band_layout(
        2, params, Coefficients(1.0, LAM, -2.0, 0.0), kern)[3:]
    assert (n_points, n) == (745_084, 62_091)
    plan = ps_sum_plan(pset, LAM, dt, n)
    assert isinstance(plan, trigpoly.BlockedPlan)
    size, r0 = plan._out.shape[1], plan._r0
    assert (size, r0, -(-n // size)) == (128, 243, 486)
    points = [0, 1, size - 1, (r0 - 243) * size + 77, r0 * size, r0 * size + 63, n - 1]
    for d, col in [(1, 5), (2, 127), (64, 31), (129, 7), (200, 100), (242, 0)]:
        points += [(r0 - d) * size + col, (r0 + d) * size + col]
    _assert_planned_gaps(pset, plan, points)


@pytest.mark.parametrize("lam", [1.0, LAM, -2.0])
def test_grid_rounding_covers_a_small_window(lam):
    # q0 12's window has 9 primes, too few for the terms' phase errors to
    # cancel: at t in [1, 14] the gap reaches 4.4e-16 max |f t| of sum |w|
    # (lam sqrt 2), 0.32 of the derived plan.rounding that the band bars
    # charge; on instance A's 202 primes it stays near 4e-17
    params, pset = _pset(12)
    assert pset.count == 9
    t0, dt, n = 1.0, 13 / 8191, 8192
    plan = ps_sum_plan(pset, lam, dt, n)
    grid = ps_sum_grid(pset, lam, t0, dt, n, plan=plan)
    freqs = lam * pset.primes.astype(np.float64)
    weights = pset.weight_w * pset.weight_log
    scale = float(np.sum(np.abs(weights)))
    for m in range(0, n, 97):
        gap = abs(grid[m] - _oracle(freqs, weights, t0, dt, m)) / scale
        reach = np.max(np.abs(freqs)) * (abs(t0) + m * dt)
        assert gap <= plan.rounding * reach + plan.floor


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
    # Rows of the blocked evaluator are mirrored about the middle row r0,
    # with L the largest power of two <= sqrt(n): n = 1 has one row (r0 =
    # 0), 2 two, 4095 and 4096 an even row count (128, 64), 3*2^11+5 and
    # 8193 odd ones (97, 129), and 2^17+5 513 rows, so 257 mirrored rows:
    # more than one 128-row block of them, with a one-row last block.
    # Dyadic inputs keep every phase product exact, in the evaluator and
    # in the plain O(n * n_freqs) sum, so the gap is the evaluator's own
    # rounding, which the plan's floor bounds: at most 3.5e-15 * sum |w|
    # measured (at 2^17+5), at one and at two BLAS threads.
    rng = np.random.default_rng(5)
    nf = 61
    freqs = rng.integers(1, 1 << 26, nf) / 2.0**16 * rng.choice([-1, 1], nf)
    weights = rng.normal(size=nf) + 1j * rng.normal(size=nf)
    t0, dt = 321987 / 2.0**20, 3 / 2.0**20
    plan = trigpoly.plan_uniform(freqs, weights, dt, n)
    assert isinstance(plan, trigpoly.BlockedPlan)
    got = plan(t0)
    phase = np.outer(t0 + dt * np.arange(n), freqs)
    want = np.exp(2j * np.pi * (phase - np.floor(phase))) @ weights
    assert got.shape == (n,)
    assert np.max(np.abs(got - want)) <= plan.floor * np.sum(np.abs(weights))


@pytest.mark.parametrize("nf", [61, 202, 400, 512])
@pytest.mark.parametrize("n", [4095, 8193, 3 * 2**11 + 5, 62_091, 2**16, 2**17 + 5])
def test_blocked_gap_within_plan_floor(nf, n):
    # the floor the band bars charge, on dyadic inputs at the walker's
    # chunk sizes (62,091 is instance A's middle-band chunk) and past
    # them: every phase product is exact, so the gap to the plain sum at
    # every 61st sample is the evaluator's own rounding, at most 3.4e-15
    # of sum |w| over these 24 cases at one and at two BLAS threads
    rng = np.random.default_rng(7 * nf + n)
    freqs = rng.integers(1, 1 << 26, nf) / 2.0**16 * rng.choice([-1, 1], nf)
    weights = rng.normal(size=nf) + 1j * rng.normal(size=nf)
    t0, dt = 321987 / 2.0**20, 3 / 2.0**20
    plan = trigpoly.plan_uniform(freqs, weights, dt, n)
    assert isinstance(plan, trigpoly.BlockedPlan)
    got = plan(t0)
    idx = np.append(np.arange(0, n, 61), n - 1)
    phase = np.outer(t0 + dt * idx, freqs)
    want = np.exp(2j * np.pi * (phase - np.floor(phase))) @ weights
    assert np.max(np.abs(got[idx] - want)) <= plan.floor * np.sum(np.abs(weights))


def test_floor_rule_at_the_dispatch_edges():
    # a short grid of a window past _BLOCKED_MAX_FREQS takes the blocked
    # path but is charged the NUFFT's floor, which its long grids take
    for n, nf, kind, floor in [(4095, 513, trigpoly.BlockedPlan, 2e-12),
                               (4095, 512, trigpoly.BlockedPlan, 5.2e-15),
                               (4096, 513, trigpoly.NufftPlan, 2e-12)]:
        plan = trigpoly.plan_uniform(np.linspace(1.0, 2.0, nf), np.ones(nf), 1e-3, n)
        assert isinstance(plan, kind)
        assert (plan.floor, plan.rounding) == (floor, 4.0 * math.pi * 2.0**-53)


def _dyadic_nufft_gap(nf, n):
    # dyadic frequencies, t0 and dt at f_max dt 0.4 to 0.8 keep every
    # phase product exact, so the gap to the plain sum, relative to
    # sum |w|, is the NUFFT's own error; returned with the plan's floor
    rng = np.random.default_rng(nf)
    freqs = rng.integers(1, 1 << 26, nf) / 2.0**16 * rng.choice([-1, 1], nf)
    weights = (0.5 + rng.random(nf)).astype(np.complex128)
    dt = 2.0 ** np.floor(np.log2(0.8 / np.max(np.abs(freqs))))
    t0 = 37 * dt / 64
    plan = trigpoly.plan_uniform(freqs, weights, dt, n)
    assert isinstance(plan, trigpoly.NufftPlan)
    got = plan(t0)
    idx = np.append(np.arange(0, n, n // 256), n - 1)
    phase = np.outer(t0 + dt * idx, freqs)
    want = np.exp(2j * np.pi * (phase - np.floor(phase))) @ weights
    return np.max(np.abs(got[idx] - want)) / np.sum(np.abs(weights)), plan.floor


@pytest.mark.parametrize("nf, n", [(600, 4096), (929, 2**14 + 3), (2000, 2**18)])
def test_nufft_error_floor_on_exact_phases(nf, n):
    # the NUFFT's error does not fall with t: 4.0e-13 to 8.4e-13 of
    # sum |w| here (at most 1.6e-12 over 50 such cases), under the
    # plan's floor of 2e-12
    gap, floor = _dyadic_nufft_gap(nf, n)
    assert gap <= floor == 2e-12


def test_nufft_spreading_equals_add_at_bitwise():
    # the plan spreads with one bincount over the flattened taps; it must
    # give np.add.at's fine grid bit for bit where sources share cells
    # (a repeated frequency, sources a cell apart) and where taps wrap
    # past either end of the grid (phases near 0 and near 1)
    rng = np.random.default_rng(31)
    n, dt = 4096, 1.0
    freqs = np.concatenate([[0.0, 0.0, 3e-5, -2e-5, 0.99996, 5.5, 5.5 + 1 / 8192, -3.75],
                            rng.uniform(-50.0, 50.0, 600)])
    plan = trigpoly.NufftPlan(freqs, np.ones(freqs.size, dtype=np.complex128), dt, n)
    m_fine, taps = plan._m_fine, plan._taps.reshape(freqs.size, -1)
    assert np.bincount(plan._taps).max() > 2
    assert all({0, m_fine - 1} <= set(taps[j].tolist()) for j in (0, 2, 3, 4))
    vals = rng.normal(size=taps.shape) + 1j * rng.normal(size=taps.shape)
    vals[1] = -vals[0]              # cells where sources cancel exactly
    want = np.zeros(m_fine, dtype=np.complex128)
    np.add.at(want.real, taps, vals.real)
    np.add.at(want.imag, taps, vals.imag)
    assert plan._spread(vals).tobytes() == want.tobytes()


def test_deconvolution_follows_the_window(monkeypatch):
    # the deconvolution is cached per grid size and window: after a plan
    # of width 13 at this size, a plan of width 17 (with its beta) must
    # divide out its own window's transform, not the cached width-13 one
    # (that gap is 0.185 of sum |w|; the width-17 table's 6.7e-16)
    nf, n = 929, 2**14 + 3
    gap, floor = _dyadic_nufft_gap(nf, n)
    assert gap <= floor
    width = 17
    monkeypatch.setattr(trigpoly, "_SPREAD_WIDTH", width)
    monkeypatch.setattr(trigpoly, "_BETA",
                        np.pi * width * (1.0 - 1.0 / (2.0 * trigpoly._OVERSAMPLING)))
    gap, floor = _dyadic_nufft_gap(nf, n)
    assert gap <= floor


@pytest.mark.parametrize("n", [5, 4095, 8193, 3 * 2**11 + 5, 2**17 + 5])
def test_plan_matches_fresh_calls_bitwise(n):
    # one plan per frequency set at several t0, called in turn as the band
    # sweep calls them; each call equals a fresh trig_sum_uniform
    rng = np.random.default_rng(n)
    nf = 61
    sets = [(rng.uniform(-3e4, 3e4, nf),
             rng.normal(size=nf) + 1j * rng.normal(size=nf)) for _ in range(3)]
    dt = 1.0 / (24.0 * 3e4)
    plans = [trigpoly.plan_uniform(freqs, weights, dt, n) for freqs, weights in sets]
    for t0 in (0.25, 40.0, 700.125, 40.0):
        for plan, (freqs, weights) in zip(plans, sets):
            got = plan(t0)
            want = trigpoly.trig_sum_uniform(freqs, weights, t0, dt, n)
            assert got.shape == (n,)
            assert np.array_equal(got, want)
    # a call returns a view of the plan's own buffer: the other plans'
    # calls leave it alone, and the plan's next call overwrites it
    first = plans[0](1.0)
    kept = first.copy()
    plans[1](1.0), plans[2](1.0)
    assert np.array_equal(first, kept)
    assert np.shares_memory(first, plans[0](2.0))


@pytest.mark.parametrize("nf, n", [(61, 2**18), (202, 2**17 + 5),
                                   (513, 4096), (929, 2**14 + 3)])
def test_plan_reuse_at_a_b_a(nf, n):
    # a plan called at t0 = a, b, a: both a results are bitwise equal and
    # each result equals a fresh trig_sum_uniform.  The blocked cases have
    # 257 mirrored rows each, more than one 128-row slab of the old
    # product loop; the others take the NUFFT (over 512 frequencies,
    # n >= 4096)
    rng = np.random.default_rng(nf)
    freqs = rng.uniform(-3e4, 3e4, nf)
    weights = rng.normal(size=nf) + 1j * rng.normal(size=nf)
    dt = 0.4 / 3e4
    plan = trigpoly.plan_uniform(freqs, weights, dt, n)
    if trigpoly._takes_blocked(n, nf):
        assert isinstance(plan, trigpoly.BlockedPlan) and plan._r0 + 1 > 128
    else:
        assert isinstance(plan, trigpoly.NufftPlan) and n >= trigpoly._DIRECT_CUTOFF
    got = []
    for t0 in (40.0, 700.125, 40.0):
        got.append(plan(t0).copy())
        assert got[-1].shape == (n,)
        assert np.array_equal(got[-1], trigpoly.trig_sum_uniform(freqs, weights, t0, dt, n))
    assert got[0].tobytes() == got[2].tobytes()
    assert not np.array_equal(got[0], got[1])


def test_plan_uniform_plans_every_nonempty_input():
    # the dispatch rule lives in trigpoly and picks the plan's kind: wide
    # windows on long grids take the NUFFT, the rest the blocked path, and
    # every nonempty input gets a plan equal to trig_sum_uniform
    nf = trigpoly._BLOCKED_MAX_FREQS + 1
    freqs, weights = np.linspace(1.0, 2.0, nf), np.ones(nf)
    for n, kind in [(trigpoly._DIRECT_CUTOFF, trigpoly.NufftPlan),
                    (8193, trigpoly.NufftPlan),
                    (trigpoly._DIRECT_CUTOFF - 1, trigpoly.BlockedPlan),
                    (1, trigpoly.BlockedPlan)]:
        plan = trigpoly.plan_uniform(freqs, weights, 1e-3, n)
        assert isinstance(plan, kind)
        assert np.array_equal(plan(3.0), trigpoly.trig_sum_uniform(freqs, weights, 3.0, 1e-3, n))
    assert isinstance(trigpoly.plan_uniform(freqs[:-1], weights[:-1], 1e-3, 8193),
                      trigpoly.BlockedPlan)
    assert isinstance(trigpoly.plan_uniform(freqs[:1], weights[:1], 1e-3, 2**18),
                      trigpoly.BlockedPlan)


@pytest.mark.parametrize("q0", [70, 203])
def test_planned_grid_matches_unplanned(q0):
    # instance A's window plans the blocked path, instance B's the NUFFT
    params, pset = _pset(q0)
    dt = _band_spacing(params)
    plan = ps_sum_plan(pset, LAM, dt, N)
    blocked = pset.count <= trigpoly._BLOCKED_MAX_FREQS
    assert isinstance(plan, trigpoly.BlockedPlan if blocked else trigpoly.NufftPlan)
    for t0 in (40.0, 700.0):
        want = ps_sum_grid(pset, LAM, t0, dt, N)
        assert np.array_equal(ps_sum_grid(pset, LAM, t0, dt, N, plan=plan), want)
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
