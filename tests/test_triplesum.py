"""Triple counts, band integrals, main term, and the bound chains."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pstriples import expsums, triplesum
from pstriples.expsums import l2_integral, ps_exp_sum
from pstriples.kernel import make_kernel, theta, theta_transform, transform_bound
from pstriples.params import Coefficients, ParameterError, RunParameters
from pstriples.primes import sieve_primes, ps_primes_in
from pstriples.triplesum import (
    big_gamma_direct,
    box_integral_B,
    decompose,
    far_tail_majorant,
    find_triples,
    gamma2_majorant,
    gamma_piece,
    integral_J,
    middle_band_sweep,
    phi_bound,
    piece3_truncation,
    tail_bound_gamma3,
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
    recs = find_triples(params, c, pset, 0.5, max_results=50)
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
    res = big_gamma_direct(params, c, kern, pset, 0.5)
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
    fast = big_gamma_direct(params, coeffs, kern, pset, eps)
    slow = triple_sum_bruteforce(params, coeffs, kern, pset, eps)
    assert fast.triples_found == slow.triples_found
    assert abs(fast.value - slow.value) <= 1e-10 * max(1.0, abs(slow.value))


@settings(max_examples=25, deadline=None)
@given(
    eps=st.floats(0.1, 5.0),
    eta=st.floats(-3.0, 3.0),
)
def test_sweep_equals_bruteforce_property(eps, eta):
    params, pset = _instance(12, 0.9, 0.5, 2.0)
    c = Coefficients(1.0, 1.0, -2.0, eta)
    kern = make_kernel(eps, 3)
    fast = big_gamma_direct(params, c, kern, pset, eps)
    slow = triple_sum_bruteforce(params, c, kern, pset, eps)
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
    res = big_gamma_direct(params, c, kern, pset, 0.5)
    assert res.value == 0.0
    assert res.triples_found == 0
    assert res.empty_set


def test_unreachable_shift_gives_zero():
    # eta far beyond the window's reach: no form can come near zero
    params, pset = _instance(25, 0.9, 0.5, 1.0)
    assert pset.count > 3
    c = Coefficients(1.0, 1.0, -2.0, 1.0e6)
    kern = make_kernel(1.0, 4)
    res = big_gamma_direct(params, c, kern, pset, 1.0)
    assert res.value == 0.0
    assert res.triples_found == 0
    assert not res.empty_set


def test_guards_reject_mismatches():
    params, pset = _instance(12, 0.9, 0.5, 2.0)
    c = Coefficients(1.0, 1.0, -2.0, 0.0)
    with pytest.raises(ParameterError, match="kernel width"):
        big_gamma_direct(params, c, make_kernel(1.0, 3), pset, 2.0)
    other, _ = _instance(20, 0.9, 0.5, 2.0)
    with pytest.raises(ParameterError, match="window"):
        big_gamma_direct(other, c, make_kernel(2.0, 3), pset, 2.0)
    wrong_gamma = ps_primes_in(
        params.lambda0 * params.X, params.X, 0.91, TABLE
    )
    with pytest.raises(ParameterError, match="gamma"):
        big_gamma_direct(params, c, make_kernel(2.0, 3), wrong_gamma, 2.0)
    # the exponential sums share the one window-set check
    for run, bad, what in ((other, pset, "window"), (params, wrong_gamma, "gamma")):
        with pytest.raises(ParameterError, match=what):
            ps_exp_sum(0.3, run, bad)
        for span in ("window", "unit"):
            with pytest.raises(ParameterError, match=what):
                l2_integral("ps_sum", 1.0, run, bad, span=span)


# ---------------------------------------------------------------------------
# explicit triples


def test_find_triples_degenerate_set():
    # window (2.02, 4.49] holds a single prime: degenerate by convention
    params, pset = _instance(2, 0.9, 0.45, 0.5)
    assert pset.count < 3
    c = Coefficients(1.0, 1.0, -1.0, 0.0)
    assert find_triples(params, c, pset, 0.5) == []


def test_find_triples_re_verified_and_sorted():
    params, pset = _instance(70, 0.98, 0.5, 0.05)
    assert pset.count > 100
    c = Coefficients(1.0, SQRT2, -2.0, 0.0)
    recs = find_triples(params, c, pset, 0.05, max_results=500)
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
    recs = find_triples(params, coeffs, pset, eps, max_results=len(want) + 5)
    got = [(abs(r.form_value), r.p1, r.p2, r.p3) for r in recs]
    assert got == want
    cut = find_triples(params, coeffs, pset, eps, max_results=len(want) // 3)
    assert cut == recs[: len(want) // 3]


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
    # symmetric-grid band: imaginary residue at grid noise
    assert abs(res.gamma1.imag) <= 1e-8 * abs(res.gamma1)
    assert res.gamma2.imag == 0.0
    assert res.gamma3.imag == 0.0
    # the truncated far band is genuinely nonempty on this instance
    assert not res.truncation_empty
    assert res.piece3_cut > params.H_effective
    assert res.gamma3.real != 0.0
    # the gap (2.0e-8) is the far band past the cut, which only piece 3's
    # bar covers; the quadrature bars of pieces 1 and 2 sum to 1e-8
    assert abs(res.gamma_total.real - res.direct_value) <= sum(res.gamma_errors)
    assert sum(res.gamma_errors[:2]) < 2e-8


def test_decomposition_closes_with_shift():
    params, pset = _instance(12, 0.9, 0.5, 2.0)
    c = Coefficients(1.0, 1.0, -2.0, 0.3)
    res = decompose(params, c, pset)
    assert res.direct_value and res.direct_value > 0.0
    assert res.closure_error <= 1e-5
    # conjugate symmetry pairs t with -t for any real shift: the main
    # band stays real up to grid noise
    assert abs(res.gamma1.imag) <= 1e-8 * abs(res.gamma1)
    assert abs(res.gamma_total.real - res.direct_value) <= sum(res.gamma_errors)


def test_decomposition_closes_on_instance_a():
    # q0 70, gamma 0.9, eps 2, l = (1, sqrt 2, -2): the benchmark's
    # decomp-A.  theta and Theta are both exact, so the gap is quadrature
    # error and the far band past the cut: 1.95e-13 measured with the
    # endpoint-corrected trapezoid at f_max h = 1/2, 1.9e-12 with Boole
    # at 7 points per period; a direct-side theta off by up to 8e-7 on
    # its ramps reads 2.65e-9
    params, pset = _instance(70, 0.9, 0.5, 2.0)
    res = decompose(params, Coefficients(1.0, SQRT2, -2.0, 0.0), pset)
    assert res.triples_found == 2362
    assert res.closure_error <= 1e-11
    assert res.band_points == (107, 1_192_134, 259_872)
    assert abs(res.gamma_total.real - res.direct_value) <= sum(res.gamma_errors)


def test_shift_past_the_reach_needs_no_dense_grid():
    # eta 1000 puts every form far from zero, so J and the count nearly
    # cancel; the band grids depend on the spectrum alone, 404,318
    # points in all (Boole refined against 1e-9 |J| used 21.5e6), and
    # gamma1 and gamma2 agree with that run's values within their bars
    params, pset = _instance(12, 0.9, 0.5, 2.0)
    res = decompose(params, Coefficients(1.0, 1.0, -2.0, 1000.0), pset)
    assert res.direct_value == 0.0
    assert sum(res.band_points) < 1_000_000
    for got, boole, bar in zip((res.gamma1, res.gamma2),
                               (-19.12060776425254, 19.1205896344149),
                               res.gamma_errors):
        assert abs(got.real - boole) <= bar


@pytest.mark.parametrize("q0, c", [
    (12, Coefficients(1.0, 1.0, -2.0, 0.0)),
    (12, Coefficients(1.0, 1.0, -2.0, 0.3)),
    (70, Coefficients(1.0, SQRT2, -2.0, 0.0)),
])
def test_error_bars_cover_pieces_1_and_2(monkeypatch, q0, c):
    # each bar against the piece's error, read off a run at half the
    # spacing (f_max h = 1/4), whose correction series converges four
    # times faster per term; the rounding part of the bar alone covers it
    # (7.45e-9 against 8.25e-9 on A's piece 1), the truncation bound being
    # far looser
    params, pset = _instance(q0, 0.9, 0.5, 2.0)
    res = decompose(params, c, pset, with_direct=False)
    monkeypatch.setattr(triplesum, "_BAND_FH", 0.5 * triplesum._BAND_FH)
    ref = decompose(params, c, pset, with_direct=False)
    assert sum(ref.band_points) > 1.9 * sum(res.band_points)
    kern = _kernel_for(params)
    f_max = triplesum.band_frequency(params, c, kern)
    majorant = 2.0 * kern.a * float(np.sum(pset.weight_w * pset.weight_log)) ** 3
    pieces = zip((res.gamma1, res.gamma2), (ref.gamma1, ref.gamma2),
                 res.gamma_errors, res.band_spacings, (1.0, 2.0))
    for got, want, bar, h, fold in pieces:
        tail = triplesum.euler_maclaurin_tail(h, f_max * h, majorant,
                                              triplesum._EM_TERMS)
        assert 0.0 < abs(got.real - want.real) <= bar - fold * tail


def test_gamma_piece_matches_decompose():
    params, pset = _instance(12, 0.9, 0.5, 2.0)
    c = Coefficients(1.0, 1.0, -2.0, 0.0)
    kern = _kernel_for(params)
    res = decompose(params, c, pset, kernel=kern)
    assert gamma_piece(1, params, c, kern, pset) == res.gamma1
    assert gamma_piece(2, params, c, kern, pset) == res.gamma2
    assert gamma_piece(3, params, c, kern, pset) == res.gamma3
    with pytest.raises(ParameterError, match="piece"):
        gamma_piece(4, params, c, kern, pset)


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
    """Trapezoid value and statistics with one whole array per chunk (no
    blocks), theta_transform for Theta and the chunk's own sums."""
    chunk = triplesum._CHUNK
    re, im, cross, squares = [], [], [], []
    t_ints = ([], [], [])
    sup = 0.0
    for c, start in enumerate(range(0, n_points, chunk)):
        count = min(chunk, n_points - start)
        s = sums[3 * c : 3 * c + 3]
        t0 = t_lo + start * h
        t_grid = t0 + h * np.arange(count)
        wq = np.ones(count)
        wq[0] = 0.5 if start == 0 else 1.0
        wq[-1] = 0.5 if start + count == n_points else 1.0
        integ = theta_transform(kernel, t_grid) * (s[0] * s[1] * s[2])
        integ = integ * np.exp((2j * np.pi) * np.mod(eta * t_grid, 1.0))
        re.append(float(np.dot(wq, integ.real)))
        im.append(float(np.dot(wq, integ.imag)))
        del integ
        a = [np.abs(x) for x in s]
        small = np.minimum(a[0], a[1])
        sup = max(sup, float(small.max()))
        cross.append(float(np.dot(wq, small * (a[2] * (a[0] + a[1])))))
        for parts, x in zip(t_ints, a):
            parts.append(float(np.dot(wq, x**2)))
        squares.append(float(np.dot(wq, small * (a[0]**2 + a[1]**2 + a[2]**2))))
    value = complex(math.fsum(re) * h, math.fsum(im) * h)
    stats = (tuple(math.fsum(p) * h for p in t_ints), sup,
             math.fsum(cross) * h, math.fsum(squares) * h)
    return value, stats


@pytest.mark.parametrize("symmetric", [False, True])
def test_block_streamed_band_matches_whole_chunk_reference(monkeypatch, symmetric):
    # two chunks (2^21 points and a ragged rest), each walked in blocks;
    # t_lo >= 0 takes Theta from GridTransform, the symmetric band from
    # theta_transform; the reference reuses the sweep's own sums.  The
    # endpoint correction is switched off: this checks the streamed
    # trapezoid sums, the correction is checked on its own below
    params, pset = _instance(12, 0.9, 0.5, 0.5)
    c = Coefficients(1.0, SQRT2, -2.0, 0.3)
    kern = _kernel_for(params)
    f_max = triplesum.band_frequency(params, c, kern)
    span = (triplesum._CHUNK + 50_001) * triplesum._BAND_FH / f_max
    t_lo = -span / 2 if symmetric else params.Delta
    recorded = []

    def recording(*args, **kwargs):
        # planned sums are views of reused buffers: keep copies
        out = grid(*args, **kwargs)
        recorded.append(out.copy())
        return out

    grid = expsums.ps_sum_grid
    monkeypatch.setattr(expsums, "ps_sum_grid", recording)
    monkeypatch.setattr(triplesum, "euler_maclaurin", lambda *args: 0j)
    band, stats = triplesum._band_quadrature(
        params, c, kern, t_lo, t_lo + span,
        triplesum._sum_factors(pset, c, triplesum._centre(params)), True,
    )
    value, n_points, h = band.value, band.n_points, band.spacing
    assert len(recorded) == 6 and n_points > triplesum._CHUNK
    assert (n_points - triplesum._CHUNK) % triplesum._BLOCK != 0
    want_value, want_stats = _whole_chunk_reference(
        kern, c.eta, recorded, t_lo, h, n_points
    )
    assert value == pytest.approx(want_value, rel=1e-12, abs=0)
    t_ints, (sup, t_sup), cross, squares = stats
    assert t_ints == pytest.approx(want_stats[0], rel=1e-12, abs=0)
    assert sup == want_stats[1]
    assert t_lo <= t_sup <= t_lo + span
    assert cross == pytest.approx(want_stats[2], rel=1e-12, abs=0)
    assert squares == pytest.approx(want_stats[3], rel=1e-12, abs=0)


def test_t_integrals_match_exact_pair_sum():
    # int_Delta^H |S(l t)|^2 dt = (H - Delta) sum w^2 + the sum over
    # p != p' of w_p w_p' (sin 2 pi f H - sin 2 pi f Delta) / (2 pi f),
    # f = l (p - p'): 40,804 pairs on instance A, summed exactly rounded
    params, pset = _instance(70, 0.9, 0.5, 2.0)
    c = Coefficients(1.0, SQRT2, -2.0, 0.0)
    band = middle_band_sweep(params, c, pset, _kernel_for(params))
    lo, hi = params.Delta, params.H_effective
    w = pset.weight_w * pset.weight_log
    p = pset.primes.astype(np.float64)
    ww = (w[:, None] * w[None, :]).ravel()
    d = (p[:, None] - p[None, :]).ravel()
    off = d != 0.0
    assert off.sum() == pset.count * (pset.count - 1) == 40_602
    for lam, got in zip(c.lambdas, band.t_integrals):
        f = lam * d[off]
        sines = (np.sin(2.0 * np.pi * np.mod(f * hi, 1.0))
                 - np.sin(2.0 * np.pi * np.mod(f * lo, 1.0)))
        terms = ww[off] * sines / (2.0 * np.pi * f)
        want = (hi - lo) * math.fsum((w * w).tolist()) + math.fsum(terms.tolist())
        assert got == pytest.approx(want, rel=1e-12, abs=0)
    # the polished supremum is a true value of min(|S1|, |S2|), at least
    # the 1261.49 that Boole's 7 points per period sampled
    assert band.sup_small_pair >= 1261.49


def test_majorant_chain_holds():
    params, pset = _instance(12, 0.9, 0.5, 2.0)
    c = Coefficients(1.0, 1.0, -2.0, 0.0)
    band = middle_band_sweep(params, c, pset, _kernel_for(params))
    maj = gamma2_majorant(params, band)
    g2 = abs(band.gamma2)
    assert g2 <= maj.bound_cross <= maj.bound_squares <= maj.bound_factored
    assert band.sup_small_pair > 0.0
    assert all(t > 0.0 for t in band.t_integrals)
    assert maj.sup_shape_ratio > 0.0
    assert all(r > 0.0 for r in maj.t_shape_ratios)


# ---------------------------------------------------------------------------
# main term


def _mpmath_J(params, coeffs, kernel):
    """J's real part by mpmath quadrature at 30 digits: Theta times the
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
        return float(mp.quad(f, mp.linspace(-delta, delta, 41)))


@pytest.mark.parametrize("q0, eps, c", [
    (8, 1.0, Coefficients(1.0, 1.0, -2.0, 0.0)),
    (12, 2.0, Coefficients(1.0, SQRT2, -2.0, 0.3)),
])
def test_integral_J_matches_mpmath(q0, eps, c):
    # J runs through the band walker: streamed trapezoid sums and the
    # endpoint correction from the sinc series of its factors
    params = RunParameters(q0, 0.9, 0.5, epsilon_user=eps)
    kern = _kernel_for(params)
    want = _mpmath_J(params, c, kern)
    assert want > 0.0
    assert integral_J(params, c, kern) == pytest.approx(want, rel=1e-12, abs=0)


def test_main_band_interval_integral_comparisons():
    params, pset = _instance(8, 0.9, 0.5, 1.0)
    c = Coefficients(1.0, 1.0, -2.0, 0.0)
    kern = _kernel_for(params)
    j = integral_J(params, c, kern)
    box = box_integral_B(params, c, kern)
    phi = phi_bound(params, kern, c)
    assert box.feasible and box.converged
    assert j > 0.0 and box.value > 0.0
    assert abs(j - box.value) <= phi.value


def test_main_band_vanishes_for_huge_shift():
    params, _ = _instance(8, 0.9, 0.5, 1.0)
    kern = _kernel_for(params)
    j0 = integral_J(params, Coefficients(1.0, 1.0, -2.0, 0.0), kern)
    jh = integral_J(params, Coefficients(1.0, 1.0, -2.0, 1.0e6), kern)
    assert abs(jh) <= 1e-6 * abs(j0)


def test_main_band_scales_like_x_squared():
    c = Coefficients(1.0, 1.0, -2.0, 0.0)
    ratios = []
    for q0 in (8, 17, 36):
        params = RunParameters(q0, 0.9, 0.5, epsilon_user=1.0)
        kern = _kernel_for(params)
        ratios.append(integral_J(params, c, kern) / params.X**2)
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


def test_box_ratio_stable_across_scales():
    c = Coefficients(1.0, 1.0, -2.0, 0.0)
    ratios = []
    for q0 in (8, 17, 36):
        params = RunParameters(q0, 0.9, 0.5, epsilon_user=1.0)
        box = box_integral_B(params, c, make_kernel(1.0, 4))
        assert box.converged
        ratios.append(box.ratio_eps_x2)
    assert max(ratios) <= 2.0 * min(ratios)


def test_box_infeasible_is_zero():
    params = RunParameters(8, 0.9, 0.5, epsilon_user=1.0)
    c = Coefficients(1.0, 1.0, -2.0, 1.0e6)
    box = box_integral_B(params, c, make_kernel(1.0, 4))
    assert not box.feasible
    assert box.value == 0.0 and box.converged


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


def test_tail_bound_closed_form():
    # q0=587 puts X within 0.3% of 1e6; k = floor(log X) = 13 and the
    # base collapses to 4k/(pi log^2 X) independent of the width
    params = RunParameters(587, 0.98, 0.5, epsilon_user=1.0)
    assert math.floor(params.log_X) == 13
    tb = tail_bound_gamma3(params, make_kernel(1.0, 13))
    assert tb.k == 13
    assert tb.base == pytest.approx(
        4 * 13 / (math.pi * params.log_X**2), rel=1e-12
    )
    assert tb.base < 1.0 and tb.below_one
    lx = mp.mpf(13) / 6 * mp.log(587)
    expected = float(
        mp.e ** ((3 - 3 * mp.mpf("0.98")) * lx) / 13 * (52 / (mp.pi * lx**2)) ** 13
    )
    assert tb.value == pytest.approx(expected, rel=1e-10)


def test_tail_bound_degenerate_and_monotone():
    params = RunParameters(587, 0.98, 0.5, epsilon_user=1.0)
    k1 = tail_bound_gamma3(params, make_kernel(1.0, 1))
    assert math.isfinite(k1.value) and k1.value > 0.0
    k13 = tail_bound_gamma3(params, make_kernel(1.0, 13))
    k14 = tail_bound_gamma3(params, make_kernel(1.0, 14))
    assert k14.value < k13.value


def test_far_tail_majorant_covers_truncated_band():
    # nonempty truncated far band: quadrature against the sup-based
    # envelope, which holds where the scale-shape bound cannot
    params, pset = _instance(12, 0.9, 0.5, 2.0)
    c = Coefficients(1.0, 1.0, -2.0, 0.0)
    kern = _kernel_for(params)
    g3 = gamma_piece(3, params, c, kern, pset)
    env = far_tail_majorant(params, c, kern, pset)
    assert abs(g3) > 0.0
    assert abs(g3) <= env
    # from the cut on, the envelope covers the 2.0e-8 the quadrature
    # omits, and piece 3's bar carries it
    cut = piece3_truncation(params, kern)
    past = far_tail_majorant(params, c, kern, pset, cut)
    assert 2.0e-8 < past < env
    bar = triplesum.piece_quadrature(3, params, c, kern, pset).error
    assert past < bar < 1.001 * past
