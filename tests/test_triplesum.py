"""Triple counts, band integrals, main term, and the bound chains."""

import functools
import itertools
import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pstriples import expsums, quadrature, trigpoly, triplesum
from pstriples.expsums import l2_integral, ps_exp_sum, unit_mean_square
from pstriples.kernel import (
    make_kernel, theta, theta_antiderivative, theta_transform, transform_bound,
)
from pstriples.params import Coefficients, ParameterError, RunParameters
from pstriples.pipeline import Instance
from pstriples.primes import sieve_primes, ps_primes_in
from pstriples.summation import SumResult
from pstriples.triplesum import (
    big_gamma_direct,
    box_integral_B,
    decompose,
    far_tail_majorant,
    find_triples,
    gamma2_majorant,
    integral_J,
    middle_band_sweep,
    phi_bound,
    piece3_truncation,
    piece_quadrature,
    threshold_vacuous,
    triple_sum_bruteforce,
    triple_threshold,
)

SQRT2 = math.sqrt(2)

TABLE = sieve_primes(10000)


def _instance(q0, gamma, lam0, eps_user):
    params = RunParameters(q0, gamma, lam0, epsilon_user=eps_user)
    pset = ps_primes_in(params.lambda0 * params.X, params.X, gamma, TABLE)
    return params, pset


def _kernel_for(params):
    return make_kernel(
        params.epsilon_effective, max(1, math.floor(params.log_X))
    )


# ---------------------------------------------------------------------------
# direct count


def test_small_set_contains_2_3_5():
    # q0=3, lambda0=0.15: window (1.62, 10.81] holds the floor-power
    # primes {2, 3, 5, 7}; with l=(1,1,-1) the form vanishes at (2,3,5).
    params, pset = _instance(3, 0.9, 0.15, 0.5)
    assert all(p in pset.primes for p in (2, 3, 5))
    c = Coefficients(1.0, 1.0, -1.0, 0.0)
    recs = find_triples(params, c, pset, max_results=50)
    hit = [r for r in recs if (r.p1, r.p2, r.p3) == (2, 3, 5)]
    assert len(hit) == 1
    assert hit[0].form_value == 0.0
    # the weight carries (p1 p2 p3)^(1-gamma): the sum-side factors
    # p^(1-gamma) log p force it on the direct side as well
    expected = 30 ** 0.1 * math.log(2) * math.log(3) * math.log(5)
    assert hit[0].weight == pytest.approx(expected, rel=1e-12)
    forms = [abs(r.form_value) for r in recs]
    assert forms == sorted(forms)
    assert all(f < 0.5 for f in forms)


def test_direct_matches_inline_loop_oracle():
    # plain triple loop, written out independently of the sweep
    params, pset = _instance(3, 0.9, 0.15, 0.5)
    c = Coefficients(1.0, 1.0, -1.0, 0.0)
    kern = make_kernel(0.5, 2)
    total = 0.0
    found = 0
    for p1 in pset.primes:
        for p2 in pset.primes:
            for p3 in pset.primes:
                form = 1.0 * p1 + 1.0 * p2 - 1.0 * p3
                if abs(form) < 0.5:
                    found += 1
                    w = (float(p1 * p2 * p3)) ** 0.1
                    w *= math.log(p1) * math.log(p2) * math.log(p3)
                    total += w * theta(kern, form)
    res = big_gamma_direct(params, c, kern, pset)
    assert res.triples_found == found == 4
    assert res.value == pytest.approx(total, rel=1e-13)


@pytest.mark.parametrize(
    "q0,coeffs,eps",
    [
        (20, Coefficients(1.0, 1.0, -2.0, 0.0), 2.0),
        (30, Coefficients(1.0, SQRT2, -2.0, 0.0), 5.0),
        (45, Coefficients(1.0, SQRT2, -2.0, 0.3), 1.0),
        (45, Coefficients(2.0, -1.0, -1.0, 0.0), 3.0),
    ],
)
def test_sweep_equals_bruteforce(q0, coeffs, eps):
    params, pset = _instance(q0, 0.9, 0.5, eps)
    assert 3 < pset.count <= 200
    kern = make_kernel(eps, max(1, math.floor(params.log_X)))
    fast = big_gamma_direct(params, coeffs, kern, pset)
    slow = triple_sum_bruteforce(params, coeffs, kern, pset)
    assert fast.triples_found == slow.triples_found
    assert abs(fast.value - slow.value) <= 1e-10 * max(1.0, abs(slow.value))


def _swept(params, coeffs, kern, pset, eps):
    """The blocked sweep's matches at its full width, its blocks joined,
    the primes gathered and the weights computed as the callers do."""
    tol = triplesum._form_tolerance(params, coeffs)
    blocks = triplesum._matched_sweep(coeffs, pset, eps, tol)
    i, j, k, forms = (np.concatenate(c) for c in zip(*blocks))
    w = pset.weight_w * pset.weight_log
    weights = (w[i] * w[j]) * (w[k] * theta(kern, forms))
    primes = pset.primes
    return [primes[i], primes[j], primes[k], forms, weights]


def _per_row_sweep(coeffs, kern, pset, eps):
    """One p1 row at a time, one (p1, p2) pair at a time: the matched
    triples in the sweep's order and association, and the most p3 any
    pair matched."""
    l1, l2, l3 = coeffs.lambdas
    p = pset.primes.astype(np.float64)
    w = pset.weight_w * pset.weight_log
    z3 = l3 * p
    order = np.argsort(z3, kind="stable")
    z3s = z3[order]
    ijk, forms = [], []
    most = 0
    for i in range(p.size):
        targets = (l1 * p[i] + coeffs.eta) + l2 * p
        lo = np.searchsorted(z3s, -targets - eps, side="right")
        hi = np.searchsorted(z3s, -targets + eps, side="left")
        for j in range(p.size):
            most = max(most, hi[j] - lo[j])
            for k in range(lo[j], hi[j]):
                ijk.append((i, j, order[k]))
                forms.append(targets[j] + z3s[k])
    i, j, k = np.array(ijk, dtype=np.intp).reshape(-1, 3).T
    forms = np.array(forms, dtype=np.float64)
    weights = (w[i] * w[j]) * (w[k] * theta(kern, forms))
    primes = pset.primes
    return [primes[i], primes[j], primes[k], forms, weights], most


@pytest.mark.parametrize("eps,most", [(0.01, (0, 1)), (2.0, (1, 1)),
                                      (37.0, (2, None))])
def test_sweep_independent_of_block_size(monkeypatch, eps, most):
    # 202 primes: every budget runs several blocks, the default three;
    # width 0.01 matches few pairs, 2 at most one p3 a pair (the l3*p3
    # lie 4 or more apart), 37 several, through the exact upper search
    params, pset = _instance(70, 0.9, 0.5, 2.0)
    assert pset.count == 202
    c = Coefficients(1.0, SQRT2, -2.0, 0.0)
    kern = make_kernel(eps, 4)
    want, seen = _per_row_sweep(c, kern, pset, eps)
    assert most[0] <= seen and (most[1] is None or seen <= most[1])
    total = math.fsum(want[4].tolist())
    for pairs in (1, 7, 1000, triplesum._SWEEP_PAIRS):
        monkeypatch.setattr(triplesum, "_SWEEP_PAIRS", pairs)
        got = _swept(params, c, kern, pset, eps)
        for a, b in zip(got, want, strict=True):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        # the direct total streams the blocks' exact parts: every block
        # must reach it, whatever the budget
        res = big_gamma_direct(params, c, kern, pset)
        assert res.triples_found == want[3].size
        assert res.value.hex() == total.hex()


def _assert_table_covers(z3s, width, tol):
    """The occupancy table marks every cell within width + tol of an
    l3*p3 and one guard cell past it on each side; its outermost cells,
    where keys past the span are clipped, stay unmarked."""
    table, origin, scale = triplesum._occupancy(z3s, width, tol)
    reach = width + tol
    lo = ((z3s - reach - origin) * scale).astype(np.intp) - 1
    hi = ((z3s + reach - origin) * scale).astype(np.intp) + 1
    assert 0 < lo.min() and hi.max() < table.size - 1
    for a, b in zip(lo.tolist(), hi.tolist()):
        assert table[a:b + 1].all()
    assert not table[0] and not table[-1]
    assert table.size <= triplesum._CELLS + 6


_LAMBDA = st.one_of(
    st.sampled_from([1.0, 2.0, -1.0, -2.0]),
    st.floats(0.3, 3.0),
    st.floats(-3.0, -0.3),
)


@settings(max_examples=30, deadline=None)
@given(
    l1=st.one_of(st.sampled_from([1.0, 2.0]), st.floats(0.3, 3.0)),
    l2=_LAMBDA,
    l3=_LAMBDA,
    eta=st.one_of(st.sampled_from([0.0, 0.5]), st.floats(-3.0, 3.0)),
    eps=st.floats(0.05, 5.0),
    most=st.sampled_from([1, 3, 17, None]),
    pairs=st.sampled_from([1, 500, triplesum._SWEEP_PAIRS]),
)
def test_filtered_narrowing_sweep_matches_reference(
    l1, l2, l3, eta, eps, most, pairs
):
    # 84 primes: the running cut narrows the search from block to block
    # unless one block holds every row; integer coefficients give ties.
    # find_triples searches at the instance's own width, so the instance
    # is built at the drawn eps
    params, pset = _instance(45, 0.9, 0.5, eps)
    c = Coefficients(l1, l2, l3, eta)
    kern = make_kernel(eps, params.kernel_k)
    want, _ = _per_row_sweep(c, kern, pset, eps)
    p1, p2, p3, forms, weights = want
    total = math.fsum(weights.tolist())
    if most is None:
        most = forms.size + 1
    top = np.lexsort((p3, p2, p1, np.abs(forms)))[:most]
    nearest = [
        (a, b, d, f.hex(), g.hex())
        for a, b, d, f, g in zip(*(x[top].tolist() for x in want))
    ]
    z3s = np.sort(l3 * pset.primes.astype(np.float64))
    tol = triplesum._form_tolerance(params, c)
    for cells in (1, 3, triplesum._CELLS):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(triplesum, "_CELLS", cells)
            patch.setattr(triplesum, "_SWEEP_PAIRS", pairs)
            for margin in (tol, 0.5 * eps):
                _assert_table_covers(z3s, eps, margin)
            recs = find_triples(params, c, pset, max_results=most)
            got = [
                (r.p1, r.p2, r.p3, r.form_value.hex(), r.weight.hex())
                for r in recs
            ]
            assert got == nearest
            res = big_gamma_direct(params, c, kern, pset)
            assert res.triples_found == forms.size
            assert res.value.hex() == total.hex()


@settings(max_examples=25, deadline=None)
@given(
    eps=st.floats(0.1, 5.0),
    eta=st.floats(-3.0, 3.0),
)
def test_sweep_equals_bruteforce_property(eps, eta):
    params, pset = _instance(12, 0.9, 0.5, 2.0)
    c = Coefficients(1.0, 1.0, -2.0, eta)
    kern = make_kernel(eps, 3)
    fast = big_gamma_direct(params, c, kern, pset)
    slow = triple_sum_bruteforce(params, c, kern, pset)
    # window populations may disagree when a form lands within rounding
    # of the search width (theta vanishes there, so totals still agree);
    # the weighted total is the contract
    assert abs(fast.value - slow.value) <= 1e-10 * max(1.0, abs(slow.value))


def test_empty_set_flagged():
    # q0=2, lambda0=0.9: the window (4.04, 4.49] holds no primes at all
    params, pset = _instance(2, 0.9, 0.9, 0.5)
    assert pset.count == 0
    c = Coefficients(1.0, 1.0, -1.0, 0.0)
    kern = make_kernel(0.5, 1)
    res = big_gamma_direct(params, c, kern, pset)
    assert res.value == 0.0
    assert res.triples_found == 0
    assert res.empty_set


def test_unreachable_shift_gives_zero():
    # eta far beyond the window's reach: no form can come near zero
    params, pset = _instance(25, 0.9, 0.5, 1.0)
    assert pset.count > 3
    c = Coefficients(1.0, 1.0, -2.0, 1.0e6)
    kern = make_kernel(1.0, 4)
    res = big_gamma_direct(params, c, kern, pset)
    assert res.value == 0.0
    assert res.triples_found == 0
    assert not res.empty_set


def test_bruteforce_rejects_width_mismatch():
    # both counts search at the kernel's width, so no other width can be
    # passed: at each width they agree, and the cubic oracle rejects a
    # mismatched window set as the sweep does
    params, pset = _instance(12, 0.9, 0.5, 2.0)
    c = Coefficients(1.0, SQRT2, -2.0, 0.0)
    found = []
    for eps in (0.5, 2.0):
        kern = make_kernel(eps, 3)
        direct = big_gamma_direct(params, c, kern, pset)
        brute = triple_sum_bruteforce(params, c, kern, pset)
        assert direct.triples_found == brute.triples_found
        assert direct.value == pytest.approx(brute.value, rel=1e-12, abs=1e-300)
        found.append(brute.triples_found)
    assert 0 < found[0] < found[1]
    c = Coefficients(1.0, 1.0, -2.0, 0.0)
    other, _ = _instance(20, 0.9, 0.5, 2.0)
    wrong_gamma = ps_primes_in(
        params.lambda0 * params.X, params.X, 0.91, TABLE
    )
    for count in (big_gamma_direct, triple_sum_bruteforce):
        with pytest.raises(ParameterError, match="window"):
            count(other, c, make_kernel(2.0, 3), pset)
        with pytest.raises(ParameterError, match="gamma"):
            count(params, c, make_kernel(2.0, 3), wrong_gamma)


def test_guards_reject_mismatches():
    params, pset = _instance(12, 0.9, 0.5, 2.0)
    other, _ = _instance(20, 0.9, 0.5, 2.0)
    wrong_gamma = ps_primes_in(
        params.lambda0 * params.X, params.X, 0.91, TABLE
    )
    # the exponential sums share the counts' one window-set check
    for run, bad, what in ((other, pset, "window"), (params, wrong_gamma, "gamma")):
        with pytest.raises(ParameterError, match=what):
            ps_exp_sum(0.3, run, bad)
        with pytest.raises(ParameterError, match=what):
            l2_integral(1.0, run, bad)
        with pytest.raises(ParameterError, match=what):
            unit_mean_square(run, bad)


# ---------------------------------------------------------------------------
# explicit triples


def test_find_triples_degenerate_set():
    # window (2.02, 4.49] holds a single prime: degenerate by convention
    params, pset = _instance(2, 0.9, 0.45, 0.5)
    assert pset.count < 3
    c = Coefficients(1.0, 1.0, -1.0, 0.0)
    assert find_triples(params, c, pset) == []


def test_find_triples_re_verified_and_sorted():
    params, pset = _instance(70, 0.98, 0.5, 0.05)
    assert pset.count > 100
    c = Coefficients(1.0, SQRT2, -2.0, 0.0)
    recs = find_triples(params, c, pset, max_results=500)
    assert recs
    forms = [abs(r.form_value) for r in recs]
    assert forms == sorted(forms)
    g = params.gamma.value
    for r in recs:
        assert abs(r.form_value) < 0.05
        assert r.weight > 0.0
        # the admissibility width at these scales dwarfs any search
        # width: the tenth log power dominates
        assert r.threshold_value > 1.0
        assert r.within_threshold
        assert r.threshold_value == pytest.approx(
            triple_threshold(g, max(r.p1, r.p2, r.p3)), rel=1e-12
        )


def test_find_triples_decides_each_prime_once(monkeypatch):
    params, pset = _instance(70, 0.98, 0.5, 0.05)
    c = Coefficients(1.0, SQRT2, -2.0, 0.0)
    asked = []
    real = triplesum.ps_indicator

    def counting(p, gamma):
        asked.append(p)
        return real(p, gamma)

    monkeypatch.setattr(triplesum, "ps_indicator", counting)
    recs = find_triples(params, c, pset, max_results=500)
    primes = {p for r in recs for p in (r.p1, r.p2, r.p3)}
    assert len(recs) * 3 > len(primes)
    assert sorted(asked) == sorted(primes)

    # a prime the scalar indicator rejects still fails the search
    bad = recs[1].p2
    monkeypatch.setattr(triplesum, "ps_indicator",
                        lambda p, gamma: 0 if p == bad else real(p, gamma))
    with pytest.raises(RuntimeError,
                       match=f"re-verification failed: {bad} is not a floor-power prime"):
        find_triples(params, c, pset, max_results=500)


@pytest.mark.parametrize(
    "q0,coeffs,eps",
    [
        # integer form: every |form| is 0, so the order is all ties
        (20, Coefficients(1.0, 1.0, -2.0, 0.0), 2.0),
        (45, Coefficients(1.0, SQRT2, -2.0, 0.3), 1.0),
    ],
)
def test_find_triples_equals_bruteforce_order(q0, coeffs, eps):
    params, pset = _instance(q0, 0.9, 0.5, eps)
    l1, l2, l3 = coeffs.lambdas
    p = pset.primes.astype(np.float64)
    # the sweep's association, so the forms agree bit for bit
    forms = (
        ((l1 * p[:, None, None] + coeffs.eta) + l2 * p[None, :, None])
        + l3 * p[None, None, :]
    )
    want = sorted(
        (abs(forms[i, j, k]), int(pset.primes[i]), int(pset.primes[j]),
         int(pset.primes[k]))
        for i, j, k in zip(*np.nonzero(np.abs(forms) < eps))
    )
    assert len({w[0] for w in want}) < len(want)   # ties present
    recs = find_triples(params, coeffs, pset, max_results=len(want) + 5)
    got = [(abs(r.form_value), r.p1, r.p2, r.p3) for r in recs]
    assert got == want
    cut = find_triples(params, coeffs, pset, max_results=len(want) // 3)
    assert cut == recs[: len(want) // 3]


@pytest.mark.parametrize("max_results", [1, 50, 118, 119, 200, 245, 400])
def test_find_triples_cut_keeps_ties_at_nonzero_form(max_results):
    # coefficients (1, 1, -1) and eta 0.5 on odd primes: every |form| is
    # 0.5 (118 matches) or 1.5 (127); cuts fall on the first match,
    # inside the 0.5 group, at its end, one past it, inside the 1.5
    # group, at the last match and past it
    params, pset = _instance(30, 0.9, 0.3, 2.0)
    c = Coefficients(1.0, 1.0, -1.0, 0.5)
    p1, p2, p3, forms, weights = _swept(
        params, c, make_kernel(2.0, params.kernel_k), pset, 2.0
    )
    mags, sizes = np.unique(np.abs(forms), return_counts=True)
    assert mags.tolist() == [0.5, 1.5] and sizes.tolist() == [118, 127]
    top = np.lexsort((p3, p2, p1, np.abs(forms)))[:max_results]
    want = list(zip(*(a[top].tolist() for a in (p1, p2, p3, forms, weights))))
    recs = find_triples(params, c, pset, max_results=max_results)
    got = [(r.p1, r.p2, r.p3, r.form_value, r.weight) for r in recs]
    assert got == want


def test_find_triples_holds_only_its_cut():
    # the run-witness instance: 142,892 matches within eps 2, whose
    # index arrays and forms joined before the cut take 4.6 MB
    params = RunParameters(169, 0.94, 0.5, epsilon_user=2.0)
    table = sieve_primes(math.ceil(params.X) + 1)
    pset = ps_primes_in(params.lambda0 * params.X, params.X, 0.94, table)
    assert pset.count == 1468
    c = Coefficients(1.0, SQRT2, -2.0, 0.0)
    tracemalloc.start()
    try:
        recs = find_triples(params, c, pset, max_results=1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(recs) == 1000
    assert peak < 3e6


def test_triple_threshold_formula():
    thr = triple_threshold(0.98, 9929)
    lp = mp.log(9929)
    expected = float(mp.e ** ((37 - 38 * mp.mpf("0.98")) / 26 * lp) * lp**10)
    assert thr == pytest.approx(expected, rel=1e-12)
    with pytest.raises(ParameterError):
        triple_threshold(0.98, 1)


def test_threshold_vacuous_at_desk_scale():
    # formula width exceeds the attainable |form| by many orders here
    params, _ = _instance(70, 0.98, 0.5, 0.05)
    c = Coefficients(1.0, SQRT2, -2.0, 0.0)
    assert threshold_vacuous(params, c)
    reach = (1 + SQRT2 + 2) * params.X
    assert params.epsilon > reach


# ---------------------------------------------------------------------------
# band integrals and closure


def _bars(res, pieces=(1, 2, 3)):
    return sum(res.bands[p].error for p in pieces)


def test_decomposition_closes_on_feasible_instance():
    # l=(1,1,-2) with eps=2: the only admissible forms are the exact
    # zeros p1+p2 = 2*p3 (the diagonal), so the direct side is a clean
    # reference for the three band integrals
    params, pset = _instance(12, 0.9, 0.5, 2.0)
    c = Coefficients(1.0, 1.0, -2.0, 0.0)
    res = decompose(params, c, pset)
    assert res.triples_found == pset.count == 9
    assert res.direct_value == pytest.approx(5541.591755455742, rel=1e-12)
    assert res.closure_error is not None
    assert res.closure_error <= 0.01
    assert res.closure_error <= 1e-8
    # every band is folded from its half t >= 0: real by construction
    assert res.gamma1.imag == 0.0
    assert res.gamma2.imag == 0.0
    assert res.gamma3.imag == 0.0
    # the truncated far band is genuinely nonempty on this instance
    assert not res.truncation_empty
    assert res.piece3_cut > params.H_effective
    assert res.gamma3 != 0.0
    # the gap (2.0e-8) is the far band past the cut, which piece 3's bar
    # covers; the quadrature bars of pieces 1 and 2 sum to 7.3e-8, nearly
    # all of it the evaluator's phase rounding (the plans' rounding,
    # 4 pi u per unit |l p| r), whose true size on this 9-prime window
    # (0.32 of the figure, tests/test_trigpoly.py) alone puts them above
    # the gap
    assert abs(res.gamma_total - res.direct_value) <= _bars(res)
    assert _bars(res, (1, 2)) < 1e-7


def test_decomposition_closes_with_shift():
    params, pset = _instance(12, 0.9, 0.5, 2.0)
    c = Coefficients(1.0, 1.0, -2.0, 0.3)
    res = decompose(params, c, pset)
    assert res.direct_value and res.direct_value > 0.0
    assert res.closure_error <= 1e-5
    # conjugate symmetry pairs t with -t for any real shift: the main
    # band, folded from t >= 0, is real by construction
    assert res.gamma1.imag == 0.0
    assert abs(res.gamma_total - res.direct_value) <= _bars(res)


def test_decomposition_closes_on_instance_a():
    # q0 70, gamma 0.9, eps 2, l = (1, sqrt 2, -2): the benchmark's
    # decomp-A.  theta and Theta are both exact, so the gap is quadrature
    # error and the far band past the cut: 1.07e-13 measured with the
    # endpoint-corrected trapezoid at f_max h = 0.8, 1.9e-12 with Boole at
    # 7 points per period; a direct-side theta off by up to 8e-7 on its
    # ramps reads 2.65e-9.  band_points pins the grid sizes; it is no
    # accuracy gate
    params, pset = _instance(70, 0.9, 0.5, 2.0)
    res = decompose(params, Coefficients(1.0, SQRT2, -2.0, 0.0), pset)
    assert res.triples_found == 2362
    assert res.closure_error <= 1e-11
    assert tuple(res.bands[p].n_points for p in (1, 2, 3)) == (35, 745_084, 162_420)
    assert abs(res.gamma_total - res.direct_value) <= _bars(res)


def test_decompose_builds_one_plan_set_per_band(monkeypatch):
    # each sum band (pieces 1 to 3) builds one plan per coefficient with
    # its factor source and calls each once per chunk: 3 x 3 plans, and
    # 3 grid calls per chunk of the layout (1 + 12 + 3 chunks on A)
    built, called = [], []

    def counted(name, log):
        real = getattr(expsums, name)

        def wrapper(*args, **kwargs):
            log.append(args[1])
            return real(*args, **kwargs)
        monkeypatch.setattr(expsums, name, wrapper)

    counted("ps_sum_plan", built)
    counted("ps_sum_grid", called)
    params, pset = _instance(70, 0.9, 0.5, 2.0)
    c = Coefficients(1.0, SQRT2, -2.0, 0.0)
    kern = make_kernel(params.epsilon_effective, params.kernel_k)   # decompose's
    chunks = 0
    for piece in (1, 2, 3):
        n_points, _, chunk = triplesum._band_layout(piece, params, c, kern)[3:]
        chunks += -(-n_points // chunk)
    decompose(params, c, pset, with_direct=False)
    assert built == [1.0, SQRT2, -2.0] * 3
    assert chunks == 16 and len(called) == 3 * chunks and called[:3] == [1.0, SQRT2, -2.0]


@pytest.mark.parametrize("fh", [0.75, 0.8, 0.85])
def test_instance_a_closes_across_a_fan_of_grids(monkeypatch, fh):
    # the closure sits on a rounding floor that moves from grid to grid,
    # so one grid's value says little: it must hold at each grid of a fan
    # around the band rule's f_max h
    monkeypatch.setattr(quadrature, "_BAND_FH", fh)
    params, pset = _instance(70, 0.9, 0.5, 2.0)
    res = decompose(params, Coefficients(1.0, SQRT2, -2.0, 0.0), pset)
    f_max = triplesum.band_frequency(params, Coefficients(1.0, SQRT2, -2.0, 0.0),
                                     _kernel_for(params))
    assert f_max * res.bands[2].spacing == pytest.approx(fh, rel=1e-3)
    assert res.closure_error <= 1e-11


def test_shift_past_the_reach_needs_no_dense_grid():
    # eta 1000 puts every form far from zero, so J and the count nearly
    # cancel; the band grids depend on the spectrum alone, 252,644
    # points in all (Boole refined against 1e-9 |J| used 21.5e6), and
    # gamma1 and gamma2 agree within their bars with references: gamma1's
    # from the 30-digit oracle (_piece1_oracle; the Boole value
    # -19.12060776425254 was 5.65e-11 off it), gamma2's from the Boole run
    params, pset = _instance(12, 0.9, 0.5, 2.0)
    res = decompose(params, Coefficients(1.0, 1.0, -2.0, 1000.0), pset)
    assert res.direct_value == 0.0
    assert sum(res.bands[p].n_points for p in (1, 2, 3)) < 1_000_000
    for p, want in zip((1, 2), (-19.120607764196032, 19.1205896344149)):
        assert abs(res.bands[p].value - want) <= res.bands[p].error


def _piece1_oracle(params, coeffs, kernel, pset):
    """Piece 1, the integral of Theta(t) S(l1 t) S(l2 t) S(l3 t) e(eta t)
    over |t| < Delta, at 30 digits for the double inputs the walker takes
    (the weights w_p, l_i, eta, a, b, Delta): its real part by degree-4
    Gauss-Legendre (24 nodes per panel) on ceil(f_max 2 Delta) panels,
    about one period of the top frequency each.  On instance A, 53 and
    106 panels agree to 24 digits."""
    from mpmath.calculus.quadrature import GaussLegendre

    with mp.workdps(30):
        a, b = mp.mpf(kernel.a), mp.mpf(kernel.b)
        w = [mp.mpf(x) for x in (pset.weight_w * pset.weight_log).tolist()]
        p = [int(x) for x in pset.primes]
        lams = [mp.mpf(l) for l in coeffs.lambdas]
        eta = mp.mpf(coeffs.eta)

        def f(t):
            out = 2 * a * mp.sincpi(2 * a * t) * mp.sincpi(2 * b * t) ** kernel.k
            out *= mp.expjpi(2 * eta * t)
            for l in lams:
                out *= mp.fsum(wq * mp.expjpi(2 * l * q * t) for wq, q in zip(w, p))
            return mp.re(out)

        delta = mp.mpf(params.Delta)
        f_max = triplesum.band_frequency(params, coeffs, kernel)
        edges = mp.linspace(-delta, delta, math.ceil(f_max * 2 * params.Delta) + 1)
        rule = GaussLegendre(mp.mp)
        nodes = rule.get_nodes(-1, 1, 4, mp.mp.prec)
        return +mp.fsum(wx * f(x) for lo, hi in zip(edges, edges[1:])
                        for x, wx in rule.transform_nodes(nodes, lo, hi))


# _piece1_oracle on instance A (q0 70, eps 2, l = (1, sqrt 2, -2)); it
# takes about 20 s, so the value is pinned
_PIECE1_A = "21894335.5829187616399654"
_PIECE1_CASES = [
    (12, Coefficients(1.0, 1.0, -2.0, 0.0)),
    (12, Coefficients(1.0, 1.0, -2.0, 0.3)),
    (12, Coefficients(1.0, 1.0, -2.0, 1000.0)),
    (70, Coefficients(1.0, SQRT2, -2.0, 0.0)),
]


@functools.lru_cache(maxsize=None)
def _piece1_reference(q0, c):
    if q0 == 70:
        with mp.workdps(30):
            return mp.mpf(_PIECE1_A)
    params, pset = _instance(q0, 0.9, 0.5, 2.0)
    return _piece1_oracle(params, c, _kernel_for(params), pset)


def _em_tail(params, c, pset, h):
    """The band rule's truncation bound at spacing h."""
    kern = _kernel_for(params)
    f_max = triplesum.band_frequency(params, c, kern)
    majorant = 2.0 * kern.a * float(np.sum(pset.weight_w * pset.weight_log)) ** 3
    return quadrature.euler_maclaurin_tail(h, f_max * h, majorant, quadrature._EM_TERMS)


@pytest.mark.parametrize("q0, c", _PIECE1_CASES)
def test_piece1_bar_covers_30_digit_oracle(q0, c):
    # piece 1 is walked on [0, Delta] and folded, so its bar is twice the
    # half's: the evaluator's phase rounding grows with t from 0, while
    # its floor, Theta's and the walker's own roundings do not fall
    # there.  The errors are 6.4e-13, 2.9e-12, 5.2e-12 and 8.97e-9 on A,
    # and the rounding part of the bar alone covers each (1.37e-6 on A)
    params, pset = _instance(q0, 0.9, 0.5, 2.0)
    band = piece_quadrature(1, params, c, _kernel_for(params), pset)
    err = abs(mp.mpf(band.value) - _piece1_reference(q0, c))
    assert 0.0 < err <= band.error - 2.0 * _em_tail(params, c, pset, band.spacing)


@pytest.mark.parametrize("q0, c", [_PIECE1_CASES[0], _PIECE1_CASES[1], _PIECE1_CASES[3]])
def test_error_bars_cover_pieces_1_and_2(monkeypatch, q0, c):
    # each bar against the piece's error: piece 1's from the 30-digit
    # oracle (a run at half the spacing shares its rounding floor: on q0
    # 12 it moves piece 1 by 1.8e-12 only), piece 2's from a run at half the
    # spacing (f_max h = 0.4), whose correction series converges four
    # times faster per term; the rounding part of the bar alone covers
    # each, the truncation bound being looser
    params, pset = _instance(q0, 0.9, 0.5, 2.0)
    res = decompose(params, c, pset, with_direct=False)
    monkeypatch.setattr(quadrature, "_BAND_FH", 0.5 * quadrature._BAND_FH)
    ref = decompose(params, c, pset, with_direct=False)
    assert (sum(ref.bands[p].n_points for p in (1, 2, 3))
            > 1.9 * sum(res.bands[p].n_points for p in (1, 2, 3)))
    for p, want in zip((1, 2), (_piece1_reference(q0, c), ref.gamma2)):
        band = res.bands[p]
        err = abs(mp.mpf(band.value) - want)
        # both bands are folded: their truncation bounds count twice
        assert 0.0 < err <= band.error - 2.0 * _em_tail(params, c, pset, band.spacing)


def test_gamma_piece_matches_decompose():
    params, pset = _instance(12, 0.9, 0.5, 2.0)
    c = Coefficients(1.0, 1.0, -2.0, 0.0)
    kern = _kernel_for(params)
    res = decompose(params, c, pset, kernel=kern)
    assert piece_quadrature(1, params, c, kern, pset).value == res.gamma1
    assert piece_quadrature(2, params, c, kern, pset).value == res.gamma2
    assert piece_quadrature(3, params, c, kern, pset).value == res.gamma3
    with pytest.raises(ParameterError, match="piece"):
        piece_quadrature(4, params, c, kern, pset)


def test_decompose_refuses_a_kernel_of_another_width():
    # the band edge H, the majorant's 7 eps/4 plateau and scale_ratio take
    # the instance's width: a kernel of another width fails, naming both,
    # and the instance's own kernel gives the default's record
    params, pset = _instance(12, 0.9, 0.5, 2.0)
    c = Coefficients(1.0, 1.0, -2.0, 0.0)
    wide = make_kernel(2.0 * params.epsilon_effective, params.kernel_k)
    with pytest.raises(ParameterError, match=r"kernel width 4\.0 .* instance width 2\.0"):
        decompose(params, c, pset, kernel=wide)
    default = decompose(params, c, pset, with_direct=False)
    for kern in (_kernel_for(params), Instance(params).kernel):
        assert repr(decompose(params, c, pset, kernel=kern, with_direct=False)) == repr(default)


# the drawn family: each l_i +-1, +-sqrt 2 or of size 0.3 to 3, with signs
# mixed; eps 2, 0.5 or log-uniform on [0.05, 5]
_SIZE = st.one_of(st.sampled_from([1.0, SQRT2]), st.floats(0.3, 3.0))
_MIXED_SIGNS = [s for s in itertools.product((1.0, -1.0), repeat=3) if len(set(s)) == 2]


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    q0=st.integers(8, 45),
    gamma=st.floats(0.86, 0.97),
    lam0=st.one_of(st.just(0.5), st.floats(0.3, 0.8)),
    eps=st.one_of(st.sampled_from([2.0, 0.5]),
                  st.floats(math.log(0.05), math.log(5.0)).map(math.exp)),
    sizes=st.tuples(_SIZE, _SIZE, _SIZE),
    signs=st.sampled_from(_MIXED_SIGNS),
    eta=st.one_of(st.just(0.0), st.floats(-3.0, 3.0)),
)
def test_closure_within_bars_on_drawn_instances(q0, gamma, lam0, eps, sizes, signs, eta):
    # the transform identity closes on every instance of the family, not
    # only on the fixed ones: the gap to the direct count lies within the
    # summed bars of pieces 1 to 3
    params, pset = _instance(q0, gamma, lam0, eps)
    c = Coefficients(*(s * a for s, a in zip(signs, sizes)), eta)
    res = decompose(params, c, pset)
    bars = sum(res.bands[p].error for p in (1, 2, 3))
    assert abs(res.gamma_total - res.direct_value) <= bars


def test_decompose_deterministic():
    params, pset = _instance(12, 0.9, 0.5, 2.0)
    c = Coefficients(1.0, 1.0, -2.0, 0.0)
    a = decompose(params, c, pset, with_direct=False)
    b = decompose(params, c, pset, with_direct=False)
    assert a.gamma_total == b.gamma_total
    assert a.middle.t_integrals == b.middle.t_integrals


def test_truncation_point_formula():
    params, _ = _instance(12, 0.9, 0.5, 2.0)
    kern = make_kernel(2.0, 5)
    t_cut = piece3_truncation(params, kern)
    g = params.gamma.value
    tol = 1e-12 * params.X ** (3 - 3 * g)
    log_c = mp.log(4 * 5 / (mp.pi * 2.0))
    expected = float(
        mp.e ** ((5 * log_c - mp.log(mp.pi) - mp.log(tol)) / 6)
    )
    assert t_cut == pytest.approx(expected, rel=1e-12)
    # at the cut the transform bound sits exactly at the tolerance
    assert transform_bound(kern, t_cut) == pytest.approx(tol, rel=1e-9)


# ---------------------------------------------------------------------------
# middle band majorant


def _whole_chunk_reference(kernel, eta, sums, t_lo, h, n_points):
    """Trapezoid value (its real part) and statistics with one whole array
    per chunk (no blocks), theta_transform for Theta and the chunk's own
    sums, each sliced to the chunk's walked count: the chunks are equal,
    and the last one's surplus samples past the band's end are not
    walked."""
    chunk = sums[0].size
    re, cross, squares = [], [], []
    t_ints = ([], [], [])
    sup = 0.0
    for c, start in enumerate(range(0, n_points, chunk)):
        count = min(chunk, n_points - start)
        s = [x[:count] for x in sums[3 * c : 3 * c + 3]]
        t0 = t_lo + start * h
        t_grid = t0 + h * np.arange(count)
        wq = np.ones(count)
        wq[0] = 0.5 if start == 0 else 1.0
        wq[-1] = 0.5 if start + count == n_points else 1.0
        integ = theta_transform(kernel, t_grid) * (s[0] * s[1] * s[2])
        integ = integ * np.exp((2j * np.pi) * np.mod(eta * t_grid, 1.0))
        re.append(float(np.dot(wq, integ.real)))
        del integ
        a = [np.abs(x) for x in s]
        small = np.minimum(a[0], a[1])
        sup = max(sup, float(small.max()))
        cross.append(float(np.dot(wq, small * (a[2] * (a[0] + a[1])))))
        for parts, x in zip(t_ints, a):
            parts.append(float(np.dot(wq, x**2)))
        squares.append(float(np.dot(wq, small * (a[0]**2 + a[1]**2 + a[2]**2))))
    value = math.fsum(re) * h
    stats = (tuple(math.fsum(p) * h for p in t_ints), sup,
             math.fsum(cross) * h, math.fsum(squares) * h)
    return value, stats


def test_block_streamed_band_matches_whole_chunk_reference(monkeypatch):
    # two equal chunks (about 156k points each; the last one's walked
    # count is not a whole number of blocks), each walked in blocks,
    # Theta from GridTransform; the reference takes it from
    # theta_transform, the carrier's reduction from np.mod, and reuses the
    # sweep's own sums.  The endpoint correction is switched off: this
    # checks the streamed trapezoid sums, the correction is checked on its
    # own below
    params, pset = _instance(12, 0.9, 0.5, 0.5)
    c = Coefficients(1.0, SQRT2, -2.0, 0.3)
    kern = _kernel_for(params)
    f_max = triplesum.band_frequency(params, c, kern)
    span = (triplesum._CHUNK + 50_001) * quadrature._BAND_FH / f_max
    t_lo = params.Delta
    recorded = []

    def recording(*args, **kwargs):
        # planned sums are views of reused buffers: keep copies
        out = grid(*args, **kwargs)
        recorded.append(out.copy())
        return out

    def polled(alphas, params, pset):
        # the polish of the best sample raises nothing; its points are kept
        points.extend(alphas)
        return [SumResult(0j, 0)] * len(alphas)

    grid, points = expsums.ps_sum_grid, []
    monkeypatch.setattr(expsums, "ps_sum_grid", recording)
    monkeypatch.setattr(triplesum, "ps_exp_sum", polled)
    monkeypatch.setattr(triplesum, "euler_maclaurin", lambda *args: 0j)
    monkeypatch.setattr(triplesum, "euler_maclaurin_squared", lambda *args: 0.0)
    monkeypatch.setitem(triplesum._BANDS, 2, triplesum._Band(
        lambda params, kernel: (t_lo, t_lo + span), collect=True))
    band = triplesum._band_quadrature(2, params, c, kern, pset)
    n_points, h = band.n_points, band.spacing
    chunk = -(-n_points // 2)
    assert len(recorded) == 6 and triplesum._CHUNK < n_points <= 2 * triplesum._CHUNK
    assert all(x.size == chunk for x in recorded)
    assert (n_points - chunk) % triplesum._BLOCK != 0
    want_value, want_stats = _whole_chunk_reference(
        kern, c.eta, recorded, t_lo, h, n_points
    )
    # folded onto -t: twice the real part
    assert band.value == pytest.approx(2.0 * want_value, rel=1e-12, abs=0)
    assert band.t_integrals == pytest.approx(want_stats[0], rel=1e-12, abs=0)
    assert band.sup_small_pair == want_stats[1]
    assert points and all(t_lo <= x / c.lambda1 <= t_lo + span for x in points[::2])
    assert band.cross_integral == pytest.approx(want_stats[2], rel=1e-12, abs=0)
    assert band.squares_integral == pytest.approx(want_stats[3], rel=1e-12, abs=0)


def test_best_sample_across_chunks_is_the_first_tie(monkeypatch):
    # a band of two chunks whose synthetic factors all have modulus 1, so
    # min(|F1|, |F2|) ties at every sample: the best sample is the first
    # maximum in chunk order, the band's first, and the polish probes
    # only within one spacing of it.  A merge that kept a later chunk's
    # tie would centre the polish on that chunk's first sample instead
    params, pset = _instance(12, 0.9, 0.5, 0.5)
    c = Coefficients(1.0, SQRT2, -2.0, 0.0)
    kern = _kernel_for(params)
    f_max = triplesum.band_frequency(params, c, kern)
    span = (triplesum._CHUNK + 50_001) * quadrature._BAND_FH / f_max
    t_lo = params.Delta
    starts, points = [], []

    def unit_factors(pset, lams, centre, h, n):
        def grid(t0):
            starts.append(t0)
            return [np.ones(n, dtype=np.complex128)] * 3

        def series(x, terms):
            return [np.eye(1, terms, dtype=np.complex128)[0]] * 3
        return grid, series, 1.0, 0.0, 0.0

    def polled(alphas, params, pset):
        points.extend(alphas)
        return [SumResult(0j, 0)] * len(alphas)

    monkeypatch.setattr(triplesum, "_sum_factors", unit_factors)
    monkeypatch.setattr(triplesum, "ps_exp_sum", polled)
    monkeypatch.setitem(triplesum._BANDS, 2, triplesum._Band(
        lambda params, kernel: (t_lo, t_lo + span), collect=True))
    band = triplesum._band_quadrature(2, params, c, kern, pset)
    h = band.spacing
    assert len(starts) == 2 and starts[0] == t_lo and starts[1] > t_lo + h
    assert band.sup_small_pair == 1.0
    assert points and all(t_lo <= x / c.lambda1 <= t_lo + h for x in points[::2])


def test_empty_far_band_is_its_tail_bar(monkeypatch):
    # instance B (q0 203, gamma 0.98, eps 0.01) of criterion 10: piece 3's
    # truncation point lies below H, so the layout gives it no grid, and
    # the band is 0 with the far-tail envelope from H as its whole bar.
    # check_band_grids refuses only the middle band, 2,340,438,808 points
    # past the 2^31 cap; with the cap raised it sizes every band
    params = RunParameters(203, 0.98, 0.5, epsilon_user=0.01)
    pset = ps_primes_in(params.lambda0 * params.X, params.X, 0.98, sieve_primes(100_000))
    c = Coefficients(1.0, SQRT2, -2.0, 0.0)
    kern = _kernel_for(params)
    assert piece3_truncation(params, kern) <= params.H_effective
    assert triplesum._band_layout(3, params, c, kern)[3:] == (0, 0.0, 0)
    with pytest.raises(quadrature.QuadratureError, match=r"\[0.000279355, 13252.5\]"):
        triplesum.check_band_grids(params, c, kern)
    monkeypatch.setattr(quadrature, "_MAX_BAND_POINTS", 1 << 32)
    triplesum.check_band_grids(params, c, kern)
    band = piece_quadrature(3, params, c, kern, pset)
    assert (band.value, band.n_points, band.spacing) == (0.0, 0, 0.0)
    assert band.error == far_tail_majorant(params, kern, pset)


@pytest.mark.parametrize("nufft, bound_mib", [(False, 12), (True, 14)])
def test_middle_band_memory_is_bounded_by_one_chunk(monkeypatch, nufft, bound_mib):
    # instance A's middle band (745,084 points) is walked in twelve equal
    # chunks of 62,091 points, each chunk's sums from one plan set built
    # once: 9.1 MiB at peak as it dispatches (blocked, 487 x 128 output
    # rows per plan) and 10.4 MiB with the NUFFT forced.  Three chunks of
    # 248,362 points read 20.4 and 33.2 MiB, and one 2^21-point chunk
    # holding the band's three whole sums 47.1 and 100.8 MiB.  Bounds
    # about 1.3x the peaks
    import scipy.fft, scipy.special  # noqa: F401  (loaded outside the trace)

    params, pset = _instance(70, 0.9, 0.5, 2.0)
    assert pset.count == 202
    c = Coefficients(1.0, SQRT2, -2.0, 0.0)
    kern = make_kernel(params.epsilon_effective, params.kernel_k)
    if nufft:
        monkeypatch.setattr(trigpoly, "_BLOCKED_MAX_FREQS", 0)
    trigpoly._deconvolution.cache_clear()
    tracemalloc.start()
    try:
        band = middle_band_sweep(params, c, pset, kern)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert band.n_points == 745084
    assert peak <= bound_mib * 2**20


@pytest.mark.parametrize("key", ["J", 1])
def test_folded_band_equals_symmetric_trapezoid(monkeypatch, key):
    # J and piece 1 are walked on [0, Delta] and folded.  The integrand at
    # -t is the conjugate of that at t, so the walker's value must be 2 Re
    # of the trapezoid on [-Delta, 0], and so the real part of that on
    # [-Delta, Delta], both built here on t = -Delta + h j, j <= 2 (n - 1),
    # from theta_transform and the factors at negative t.  The endpoint
    # correction is switched off, as above
    params, pset = _instance(12, 0.9, 0.5, 2.0)
    c = Coefficients(1.0, 1.0, -2.0, 0.3)
    kern = _kernel_for(params)
    monkeypatch.setattr(triplesum, "euler_maclaurin", lambda *args: 0j)
    band = triplesum._band_quadrature(key, params, c, kern, pset)
    n, h = band.n_points, band.spacing
    count = 2 * n - 1
    if key == "J":
        factors = expsums._window_factors(params, c.lambdas, h, count)
    else:
        factors = expsums._sum_factors(pset, c.lambdas, expsums._centre(params), h, count)
    t = -params.Delta + h * np.arange(count)
    f1, f2, f3 = factors[0](-params.Delta)
    integ = theta_transform(kern, t) * (f1 * f2 * f3)
    integ *= np.exp((2j * np.pi) * np.mod(c.eta * t, 1.0))

    def trapezoid(z):
        w = np.ones(z.size)
        w[[0, -1]] = 0.5
        return h * complex(math.fsum((w * z.real).tolist()), math.fsum((w * z.imag).tolist()))

    half, full = trapezoid(integ[:n]), trapezoid(integ)
    assert abs(full.imag) <= 1e-12 * abs(full.real)
    assert isinstance(band.value, float)
    assert band.value == pytest.approx(2.0 * half.real, rel=1e-12, abs=0)
    assert band.value == pytest.approx(full.real, rel=1e-12, abs=0)


def test_t_integrals_match_exact_pair_sum():
    # int_Delta^H |S(l t)|^2 dt = (H - Delta) sum w^2 + the sum over
    # p != p' of w_p w_p' (sin 2 pi f H - sin 2 pi f Delta) / (2 pi f),
    # f = l (p - p'): 40,804 pairs on instance A, summed exactly rounded.
    # In the second case eta 2.25 X centres the form's range: the product
    # reaches 1.75 X, |S3|^2 2.5 X, which a grid sized for the product
    # aliases
    params, pset = _instance(70, 0.9, 0.5, 2.0)
    lo, hi = params.Delta, params.H_effective
    w = pset.weight_w * pset.weight_log
    p = pset.primes.astype(np.float64)
    ww = (w[:, None] * w[None, :]).ravel()
    d = (p[:, None] - p[None, :]).ravel()
    off = d != 0.0
    assert off.sum() == pset.count * (pset.count - 1) == 40_602
    for c in (Coefficients(1.0, SQRT2, -2.0, 0.0),
              Coefficients(1.0, 1.0, -5.0, 2.25 * params.X)):
        band = middle_band_sweep(params, c, pset, _kernel_for(params))
        for lam, got in zip(c.lambdas, band.t_integrals):
            f = lam * d[off]
            sines = (np.sin(2.0 * np.pi * np.mod(f * hi, 1.0))
                     - np.sin(2.0 * np.pi * np.mod(f * lo, 1.0)))
            terms = ww[off] * sines / (2.0 * np.pi * f)
            want = (hi - lo) * math.fsum((w * w).tolist()) + math.fsum(terms.tolist())
            assert got == pytest.approx(want, rel=1e-12, abs=0)
        if c.lambda2 == SQRT2:
            # the polished supremum is a true value of min(|S1|, |S2|),
            # at least the 1261.49 that Boole's 7 points per period sampled
            assert band.sup_small_pair >= 1261.49


def test_majorant_chain_holds():
    params, pset = _instance(12, 0.9, 0.5, 2.0)
    c = Coefficients(1.0, 1.0, -2.0, 0.0)
    band = middle_band_sweep(params, c, pset, _kernel_for(params))
    maj = gamma2_majorant(params, band)
    g2 = abs(band.value)
    assert g2 <= maj.bound_cross <= maj.bound_squares <= maj.bound_factored
    assert band.sup_small_pair > 0.0
    assert all(t > 0.0 for t in band.t_integrals)
    assert maj.sup_shape_ratio > 0.0
    assert all(r > 0.0 for r in maj.t_shape_ratios)


# ---------------------------------------------------------------------------
# main term


def _mpmath_J(params, coeffs, kernel):
    """J's real part by mpmath quadrature at 30 digits (an mpf): Theta times the
    product of the window integrals gamma L sinc(l t L), against cos(2 pi
    F t), F = sum l_i mid + eta (the imaginary part vanishes by
    symmetry)."""
    with mp.workdps(30):
        g = mp.mpf(params.gamma.value)
        x, lam0 = mp.mpf(params.X), mp.mpf(params.lambda0)
        length = (1 - lam0) * x
        mid = (1 + lam0) * x / 2
        lams = [mp.mpf(l) for l in coeffs.lambdas]
        freq = sum(l * mid for l in lams) + mp.mpf(coeffs.eta)
        a, b = mp.mpf(kernel.a), mp.mpf(kernel.b)

        def f(t):
            out = 2 * a * mp.sincpi(2 * a * t) * mp.sincpi(2 * b * t) ** kernel.k
            for l in lams:
                out *= g * length * mp.sincpi(l * length * t)
            return out * mp.cos(2 * mp.pi * freq * t)

        delta = mp.mpf(params.Delta)
        return mp.quad(f, mp.linspace(-delta, delta, 41))


_J_CASES = [
    (8, 1.0, Coefficients(1.0, 1.0, -2.0, 0.0)),
    (12, 2.0, Coefficients(1.0, SQRT2, -2.0, 0.3)),
]


@pytest.mark.parametrize("q0, eps, c", _J_CASES)
def test_integral_J_matches_mpmath(q0, eps, c):
    # J runs through the band walker: streamed trapezoid sums and the
    # endpoint correction from the sinc series of its factors
    params = RunParameters(q0, 0.9, 0.5, epsilon_user=eps)
    kern = _kernel_for(params)
    want = float(_mpmath_J(params, c, kern))
    assert want > 0.0
    assert integral_J(params, c, kern).value == pytest.approx(want, rel=1e-12, abs=0)


@pytest.mark.parametrize("q0, eps, c", _J_CASES)
def test_integral_J_bar_covers_mpmath(q0, eps, c):
    # J's bar charges its window integrals' roundings (_window_factors);
    # the errors are 2.4e-13 and 2.5e-12 under bars of 5.2e-11 and 5.4e-10
    params = RunParameters(q0, 0.9, 0.5, epsilon_user=eps)
    band = integral_J(params, c, _kernel_for(params))
    err = abs(mp.mpf(band.value) - _mpmath_J(params, c, _kernel_for(params)))
    assert 0.0 < err <= band.error


def test_main_band_interval_integral_comparisons():
    params, pset = _instance(8, 0.9, 0.5, 1.0)
    c = Coefficients(1.0, 1.0, -2.0, 0.0)
    kern = _kernel_for(params)
    j = integral_J(params, c, kern).value
    box = box_integral_B(params, c, kern)
    phi = phi_bound(params, kern, c)
    assert box.feasible
    assert j > 0.0 and box.value > 0.0
    assert abs(j - box.value) <= phi.value


def test_main_band_vanishes_for_huge_shift():
    params, _ = _instance(8, 0.9, 0.5, 1.0)
    kern = _kernel_for(params)
    j0 = integral_J(params, Coefficients(1.0, 1.0, -2.0, 0.0), kern).value
    jh = integral_J(params, Coefficients(1.0, 1.0, -2.0, 1.0e6), kern).value
    assert abs(jh) <= 1e-6 * abs(j0)


def test_main_band_scales_like_x_squared():
    c = Coefficients(1.0, 1.0, -2.0, 0.0)
    ratios = []
    for q0 in (8, 17, 36):
        params = RunParameters(q0, 0.9, 0.5, epsilon_user=1.0)
        kern = _kernel_for(params)
        ratios.append(integral_J(params, c, kern).value / params.X**2)
    assert max(ratios) / min(ratios) <= 1.01


def test_box_integral_monte_carlo_oracle():
    # 1e7-sample Monte-Carlo of the triple integral, fixed seed
    params = RunParameters(8, 0.9, 0.5, epsilon_user=1.0)
    c = Coefficients(1.0, 1.0, -2.0, 0.0)
    kern = make_kernel(1.0, 4)
    box = box_integral_B(params, c, kern)
    rng = np.random.default_rng(20260822)
    lo, hi = 0.5 * params.X, params.X
    n, chunk = 10_000_000, 2_500_000
    total = total_sq = 0.0
    for _ in range(n // chunk):
        y = rng.uniform(lo, hi, size=(3, chunk))
        vals = theta(kern, y[0] + y[1] - 2.0 * y[2])
        total += float(vals.sum())
        total_sq += float((vals * vals).sum())
    g3 = params.gamma.value ** 3
    vol = (hi - lo) ** 3
    mean = total / n
    mc = g3 * vol * mean
    sigma = g3 * vol * math.sqrt((total_sq / n - mean * mean) / n)
    assert abs(box.value - mc) <= 3.0 * sigma


def _simpson_box(params, c, kern, panels):
    """gamma^3 times the cube integral of theta(form): the inner axis by
    the exact antiderivative, the outer two by composite Simpson."""
    lam1, lam2, lam3 = c.lambdas
    lo, hi = params.lambda0 * params.X, params.X
    nodes = np.linspace(lo, hi, panels + 1)
    w = np.ones(panels + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    w *= (hi - lo) / (3.0 * panels)
    total = 0.0
    for rows in np.array_split(np.arange(panels + 1), 16):
        base = lam1 * nodes[rows, None] + (lam2 * nodes + c.eta)[None, :]
        ends = np.sort(np.stack([base + lam3 * lo, base + lam3 * hi]), axis=0)
        inner = (theta_antiderivative(kern, ends[1])
                 - theta_antiderivative(kern, ends[0]))
        total += float(w[rows] @ inner @ w)
    return params.gamma.value ** 3 * total / abs(lam3)


@pytest.mark.parametrize("q0, eps, c", [
    (8, 1.0, Coefficients(1.0, 1.0, -2.0, 0.0)),
    (12, 2.0, Coefficients(1.0, SQRT2, -2.0, 0.3)),
])
def test_box_integral_matches_fine_simpson(q0, eps, c):
    # the closed-form corner sum against a 4096-panel Simpson rule over
    # the outer two axes (measured within 1.5e-14)
    params = RunParameters(q0, 0.9, 0.5, epsilon_user=eps)
    kern = _kernel_for(params)
    box = box_integral_B(params, c, kern)
    assert box.feasible
    assert box.value == pytest.approx(_simpson_box(params, c, kern, 4096),
                                      rel=1e-12, abs=0)
    assert box.ratio_eps_x2 == box.value / (kern.epsilon * params.X ** 2)


def test_box_ratio_stable_across_scales():
    c = Coefficients(1.0, 1.0, -2.0, 0.0)
    ratios = []
    for q0 in (8, 17, 36):
        params = RunParameters(q0, 0.9, 0.5, epsilon_user=1.0)
        box = box_integral_B(params, c, make_kernel(1.0, 4))
        ratios.append(box.ratio_eps_x2)
    assert max(ratios) <= 2.0 * min(ratios)


def test_box_infeasible_is_zero():
    params = RunParameters(8, 0.9, 0.5, epsilon_user=1.0)
    c = Coefficients(1.0, 1.0, -2.0, 1.0e6)
    box = box_integral_B(params, c, make_kernel(1.0, 4))
    assert not box.feasible
    assert box.value == 0.0


def test_box_mass_bound():
    # inner interval carries at most the full theta mass 7*eps/4 < 2*eps
    c = Coefficients(1.0, 1.0, -2.0, 0.0)
    for q0, eps in ((8, 1.0), (12, 2.0)):
        params = RunParameters(q0, 0.9, 0.5, epsilon_user=eps)
        box = box_integral_B(params, c, make_kernel(eps, 4))
        g = params.gamma.value
        cap = 2 * eps * g**3 * ((1 - params.lambda0) * params.X) ** 2 / 2.0
        assert box.value <= cap


# ---------------------------------------------------------------------------
# remainder and far tail


def _mpmath_phi(params, kern, c):
    """Both half-lines |t| > Delta of the envelope, transform_bound times
    min(plateau, 1/(pi |l_i| t)) per l_i, by 30-digit quadrature split at
    the envelope's knots past Delta."""
    with mp.workdps(30):
        eps, k = mp.mpf(kern.epsilon), kern.k
        plateau = (mp.mpf(params.gamma.value) * (1 - mp.mpf(params.lambda0))
                   * mp.mpf(params.X))
        corner = 4 * k / (mp.pi * eps)
        lams = [abs(mp.mpf(l)) for l in c.lambdas]

        def envelope(t):
            inv = 1 / (mp.pi * t)
            out = min(7 * eps / 4, inv, inv * (corner / t) ** k)
            for l in lams:
                out *= min(plateau, 1 / (mp.pi * l * t))
            return out

        delta = mp.mpf(params.Delta)
        knots = [4 / (7 * mp.pi * eps), corner] + [1 / (mp.pi * l * plateau) for l in lams]
        inner = sorted(x for x in knots if x > delta)
        return float(2 * mp.quad(envelope, [delta, *inner, mp.inf])), len(inner)


@pytest.mark.parametrize("lam0", [0.5, 0.995])
@pytest.mark.parametrize("eps", [0.05, 2.0])
@pytest.mark.parametrize("k", [1, 4, 9, 64])
def test_phi_bound_matches_30_digit_quadrature(k, eps, lam0):
    # on q0 8 the |Theta| knots lie past Delta = 0.070; lambda0 = 0.995
    # also puts the three plateau knots there (0.78/|l_i| against 0.0078)
    params = RunParameters(8, 0.9, lam0, epsilon_user=eps)
    kern = make_kernel(eps, k)
    c = Coefficients(1.0, SQRT2, -2.0, 0.0)
    want, inner = _mpmath_phi(params, kern, c)
    assert inner == (5 if lam0 == 0.995 else 2)
    phi = phi_bound(params, kern, c)
    assert abs(phi.value - want) <= 1e-13 * want
    assert phi.shape_ratio == phi.value / (eps / params.Delta**2)


def test_phi_bound_shape_and_monotonicity():
    c = Coefficients(1.0, 1.0, -2.0, 0.0)
    kern = make_kernel(1.0, 4)
    for q0 in (8, 17, 36):
        params = RunParameters(q0, 0.9, 0.5, epsilon_user=1.0)
        phi = phi_bound(params, kern, c)
        assert phi.value >= 0.0
        assert 0.0 < phi.shape_ratio < 0.1
    # the plateau arm only bites once gamma*(1-lambda0)*X drops under
    # 1/(pi*Delta); compare two points in that regime
    lo = phi_bound(
        RunParameters(8, 0.9, 0.95, epsilon_user=1.0), kern, c
    )
    hi = phi_bound(
        RunParameters(8, 0.9, 0.995, epsilon_user=1.0), kern, c
    )
    assert hi.value < lo.value


def test_far_tail_majorant_covers_truncated_band():
    # nonempty truncated far band: quadrature against the far band's
    # bound
    params, pset = _instance(12, 0.9, 0.5, 2.0)
    c = Coefficients(1.0, 1.0, -2.0, 0.0)
    kern = _kernel_for(params)
    g3 = piece_quadrature(3, params, c, kern, pset).value
    env = far_tail_majorant(params, kern, pset)
    assert abs(g3) > 0.0
    assert abs(g3) <= env
    # from the cut on, the envelope covers the 2.0e-8 the quadrature
    # omits, and piece 3's bar carries it
    cut = piece3_truncation(params, kern)
    past = far_tail_majorant(params, kern, pset, cut)
    assert 2.0e-8 < past < env
    bar = triplesum.piece_quadrature(3, params, c, kern, pset).error
    assert past < bar < 1.001 * past
