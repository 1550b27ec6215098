"""Cutoff kernel construction, closed-form transform, decay bounds."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pstriples import triplesum
from pstriples.kernel import (
    GridTransform,
    _antiderivatives,
    _inversion_cutoff,
    invert_transform,
    make_kernel,
    sinc_series,
    theta,
    theta_antiderivative,
    theta_transform,
    transform_bound,
    transform_series,
    verify_bounds,
)
from pstriples.params import Coefficients, RunParameters

# theta within THETA_TOL absolute and its antiderivative within
# THETA_TOL * 2a of the 50-digit reference at the double y; measured
# up to 3.6e-16 and 1.3e-16 * 2a on the settings below.
THETA_TOL = 1e-15
REF_DPS = 50


def irwin_hall(z, k, m):
    """m-th integral of the Irwin-Hall density of order k at z (m = 1:
    the CDF), by the truncated-power sum in mpmath at REF_DPS digits;
    in doubles that sum is off by 3e-7 at k = 20."""
    with mp.workdps(REF_DPS):
        if z <= 0:
            return mp.mpf(0)
        if z >= k:
            return mp.mpf(1) if m == 1 else z - mp.mpf(k) / 2
        n = k - 1 + m
        s = mp.fsum((-1) ** j * mp.binomial(k, j) * (z - j) ** n
                    for j in range(int(mp.floor(z)) + 1))
        return s / mp.factorial(n)


def theta_reference(y, eps, k):
    # the k-fold box convolution of an interval has an Irwin-Hall CDF
    # difference as its exact value, with a = 7 eps/8 and b = eps/(8k)
    with mp.workdps(REF_DPS):
        eps, y = mp.mpf(eps), mp.mpf(y)
        a, b = 7 * eps / 8, eps / (8 * k)
        return (irwin_hall((y + a + k * b) / (2 * b), k, 1)
                - irwin_hall((y - a + k * b) / (2 * b), k, 1))


def antiderivative_reference(y, eps, k):
    # the integral over (-inf, y] of that difference: 2b (F2(zhi) - F2(zlo))
    with mp.workdps(REF_DPS):
        eps, y = mp.mpf(eps), mp.mpf(y)
        a, b = 7 * eps / 8, eps / (8 * k)
        return 2 * b * (irwin_hall((y + a + k * b) / (2 * b), k, 2)
                        - irwin_hall((y - a + k * b) / (2 * b), k, 2))


def third_antiderivative_reference(y, eps, k):
    """(2b)^3 (F4(zhi) - F4(zlo)), each F4 by the whole truncated-power
    sum (no closed form past z = k), with the working precision raised
    by the digits that sum cancels (its terms reach 2^k z^n)."""
    def f4(z):
        n = k + 3
        if z <= 0:
            return mp.mpf(0)
        cancelled = int(k * math.log10(2) + n * math.log10(max(z, 2))) + 1
        with mp.workdps(REF_DPS + cancelled):
            s = mp.fsum((-1) ** j * mp.binomial(k, j) * (z - j) ** n
                        for j in range(min(k, int(mp.floor(z))) + 1))
            return +(s / mp.factorial(n))

    with mp.workdps(REF_DPS):
        eps, y = mp.mpf(eps), mp.mpf(y)
        a, b = 7 * eps / 8, eps / (8 * k)
        return (2 * b) ** 3 * (f4((y + a + k * b) / (2 * b))
                               - f4((y - a + k * b) / (2 * b)))


@pytest.mark.parametrize("k", [1, 2, 9, 11, 13, 64])
@pytest.mark.parametrize("eps", [0.05, 2.0])
def test_third_antiderivative_matches_mpmath(eps, k):
    # within THETA_TOL of a y^2 + a(a^2 + k b^2)/3 = G3(y) + G3(-y),
    # the scale of the box integral's corner values; measured 3.1e-16
    ker = make_kernel(eps, k)
    a, b = ker.a, ker.b
    rng = np.random.default_rng(1000 * k + int(100 * eps))
    ys = np.concatenate([
        rng.uniform(0.74 * eps, 1.01 * eps, 60),     # ramp
        -rng.uniform(0.74 * eps, 1.01 * eps, 30),
        rng.uniform(-1.02 * eps, 1.02 * eps, 30),    # everywhere
        [0.0, 0.75 * eps, -eps, eps, 3 * eps, -3 * eps],
    ])
    got = _antiderivatives(ker, ys)[1]
    for y, g in zip(ys.tolist(), got.tolist()):
        scale = a * y * y + a * (a * a + k * b * b) / 3.0
        assert abs(g - third_antiderivative_reference(y, eps, k)) <= (
            THETA_TOL * scale), (y, g)
    assert _antiderivatives(ker, float(ys[0]))[1] == got[0]


@pytest.mark.parametrize("k", [1, 2, 9, 11, 13, 64])
@pytest.mark.parametrize("eps", [0.05, 2.0])
def test_theta_and_antiderivative_match_mpmath(eps, k):
    ker = make_kernel(eps, k)
    rng = np.random.default_rng(1000 * k + int(100 * eps))
    ys = np.concatenate([
        rng.uniform(0.74 * eps, 1.01 * eps, 160),    # ramp
        -rng.uniform(0.74 * eps, 1.01 * eps, 40),
        rng.uniform(-1.02 * eps, 1.02 * eps, 40),    # everywhere
        [0.0, 0.75 * eps, -eps, eps, 3 * eps, -3 * eps],
    ])
    got = theta(ker, ys)
    got_int = theta_antiderivative(ker, ys)
    for y, g, gi in zip(ys.tolist(), got.tolist(), got_int.tolist()):
        assert abs(g - theta_reference(y, eps, k)) <= THETA_TOL, (y, g)
        assert abs(gi - antiderivative_reference(y, eps, k)) <= (
            THETA_TOL * 2 * ker.a), (y, gi)
    assert theta(ker, float(ys[0])) == got[0]
    assert theta_antiderivative(ker, float(ys[0])) == got_int[0]


def test_antiderivative_limits_exact():
    for eps, k in ((0.05, 1), (2.0, 9), (0.37, 64)):
        ker = make_kernel(eps, k)
        assert theta_antiderivative(ker, -eps) == 0.0
        assert theta_antiderivative(ker, -1e6) == 0.0
        assert theta_antiderivative(ker, eps) == 2 * ker.a
        assert theta_antiderivative(ker, 1e6) == 2 * ker.a


def test_plateau_and_support_exact():
    for k in (1, 2, 7, 20, 64):
        ker = make_kernel(1.0, k)
        for y in (0.0, 0.3, -0.75, 0.75):
            assert theta(ker, y) == 1.0
        for y in (1.0, -1.0, 1.5, 2.0, -17.0):
            assert theta(ker, y) == 0.0


def test_k1_is_exact_trapezoid():
    ker = make_kernel(2.0, 1)
    assert theta(ker, 7.0 / 4.0) == pytest.approx(0.5, abs=1e-14)
    for y in np.linspace(1.5, 2.0, 41):
        expect = (2.0 - y) / 0.5
        assert theta(ker, y) == pytest.approx(expect, abs=1e-12)


def test_ramp_matches_analytic_convolution():
    for k in (1, 2, 3, 5, 20):
        ker = make_kernel(1.0, k)
        for y in np.linspace(0.74, 1.01, 37):
            assert abs(theta(ker, y) - theta_reference(y, 1.0, k)) <= (
                THETA_TOL), f"k={k}, y={y}"


def test_spot_values():
    assert theta(make_kernel(1.0, 3), 0.8) == pytest.approx(0.964, abs=1e-6)
    assert theta(make_kernel(1.0, 2), 0.9) == pytest.approx(0.32, abs=1e-6)


def test_theta_even_and_bounded():
    for k in (4, 64):
        ker = make_kernel(0.37, k)
        pos = np.linspace(0.0, 0.5, 501)
        vals = theta(ker, pos)
        assert np.all(vals >= 0.0) and np.all(vals <= 1.0)
        assert np.array_equal(vals, theta(ker, -pos))


def test_transform_at_zero_is_mass():
    for eps in (1e-3, 1.0, 10.0):
        ker = make_kernel(eps, 3)
        assert theta_transform(ker, 0.0) == pytest.approx(7 * eps / 4, rel=1e-15)
        # and the integral of theta over [-eps, eps] agrees
        mass = theta_antiderivative(ker, eps) - theta_antiderivative(ker, -eps)
        assert mass == pytest.approx(7 * eps / 4, rel=1e-15)


def test_transform_sine_zero():
    ker = make_kernel(1.0, 2)
    assert theta_transform(ker, 1.0 / (2 * ker.a)) == pytest.approx(0.0, abs=1e-16)


@pytest.mark.parametrize("eps,k", [(2.0, 1), (2.0, 2), (2.0, 9), (0.05, 9),
                                   (0.5, 11)])
def test_transform_matches_sinc_power_form(eps, k):
    # the textbook expression, with np.sinc and **; the repeated-squaring
    # power rounds differently, by a few ulps (1.2e-15 measured at k <= 11)
    ker = make_kernel(eps, k)
    xs = np.concatenate(([0.0, 1.0 / (2 * ker.a)],
                         np.linspace(-3000.0, 3000.0, 100_003)))
    want = 2 * ker.a * np.sinc(2 * ker.a * xs) * np.sinc(2 * ker.b * xs) ** k
    got = theta_transform(ker, xs)
    assert got.shape == xs.shape
    assert np.allclose(got, want, rtol=2e-15, atol=1e-300)
    grid = xs[:100].reshape(4, 25)
    assert np.array_equal(theta_transform(ker, grid), got[:100].reshape(4, 25))
    assert theta_transform(ker, float(xs[7])) == got[7]


# GridTransform against theta_transform on the same grid points: within
# 6.4e-15 relative where 2 pi a t < 1 and 1.7e-15 * 2a absolute elsewhere
# on these settings (7.8e-15 and 5.5e-15 over a wider scan with k <= 11);
# the tolerances are about 4x the relative gap.
GRID_REL_TOL = 2.5e-14
GRID_ABS_TOL = 2.5e-14


@pytest.mark.parametrize("eps,k,h", [(2.0, 9, 1.0 / (24 * 9947.5)),
                                     (2.0, 1, 3.7e-4), (0.5, 11, 1e-5),
                                     (0.05, 9, 2.1e-7), (0.01, 11, 3.7e-4)])
@pytest.mark.parametrize("t0", [0.0, 1e-7, 0.0019, 40.0, 700.0])
def test_grid_transform_matches_closed_form(eps, k, h, t0):
    ker = make_kernel(eps, k)
    size = 1 << 12
    n = 3 * size + 123                  # a ragged last block
    t = t0 + h * np.arange(n)
    rot = GridTransform(ker, h, size)
    got = np.empty(n)
    for i in range(0, n, size):
        block = rot(t[i : i + size])
        assert block.size == min(size, n - i)
        got[i : i + size] = block
    want = theta_transform(ker, t)
    near = 2 * np.pi * ker.a * t < 1.0
    gap = np.abs(got - want)
    assert np.all(gap[near] <= GRID_REL_TOL * np.abs(want[near]))
    assert np.all(gap[~near] <= GRID_ABS_TOL * 2 * ker.a)
    if t0 == 0.0:
        assert got[0] == want[0] == 2 * ker.a


@pytest.mark.parametrize("q0, eps", [(70, 2.0), (70, 0.05), (29, 2.0), (169, 2.0)])
def test_grid_transform_within_its_error_on_walked_grids(q0, eps):
    # the figure the band bars charge, GridTransform.error, against 30
    # digits at the double t of the grids the walker builds: bands 1 to 3
    # (those not empty) at gamma 0.9, l = (1, sqrt 2, -2), blocks formed
    # as the walker forms them, in the first, middle and last chunk.
    # Measured over these 1,023 points: 3.81e-15 relative where
    # 2 pi a t < 1 and 2.71e-15 * 2a elsewhere
    params = RunParameters(q0, 0.9, 0.5, epsilon_user=eps)
    ker = make_kernel(params.epsilon_effective, params.kernel_k)
    coeffs = Coefficients(1.0, math.sqrt(2), -2.0, 0.0)
    rel, absolute = GridTransform.error
    for key in (1, 2, 3):
        t_lo, _, _, n_points, h, chunk = triplesum._band_layout(key, params, coeffs, ker)
        if n_points == 0:
            continue
        block = triplesum._BLOCK
        offsets = np.arange(min(block, n_points), dtype=np.float64)
        rot = GridTransform(ker, h, offsets.size)
        rng = np.random.default_rng(key + q0)
        starts = range(0, n_points, chunk)
        for start in sorted({starts[0], starts[len(starts) // 2], starts[-1]}):
            n_chunk = min(chunk, n_points - start)
            blocks = range(0, n_chunk, block)
            for b in sorted({blocks[0], blocks[-1]}):
                n = min(block, n_chunk - b)
                t = (offsets[:n] + b) * h + (t_lo + start * h)
                got = rot(t)
                with mp.workdps(30):
                    a, bb = mp.mpf(ker.a), mp.mpf(ker.b)
                    for i in sorted({0, 1, n - 1, *rng.integers(0, n, 25).tolist()}):
                        x = mp.mpf(float(t[i]))
                        want = 2 * a * mp.sincpi(2 * a * x) * mp.sincpi(2 * bb * x) ** ker.k
                        gap = abs(mp.mpf(float(got[i])) - want)
                        if 2 * math.pi * ker.a * t[i] < 1.0:
                            assert gap <= rel * abs(want)
                        else:
                            assert gap <= absolute * 2 * ker.a


@pytest.mark.parametrize("u, r", [
    (0.0, 0.3), (0.2, 0.5), (-0.3, 0.4), (0.32, 1e-5), (2.0, 1.0),
    (-5.2, 0.9), (8.0, 1e-3), (12.7, -0.3), (30.1, 0.5), (1e4 + 0.3, 0.2),
])
def test_sinc_series_matches_mpmath(u, r):
    # upward, downward and both recurrences (pi |u| against j < 40), each
    # coefficient within 3e-16 of its scale (pi |r|)^j / j! (measured
    # 1.9e-16); the reference scales the coefficients of sinc(u + s) by r^j
    n = 40
    got = sinc_series(u, r, n)
    with mp.workdps(60):
        base = mp.taylor(lambda s: mp.sincpi(mp.mpf(u) + s), 0, n - 1)
        worst = max(abs(mp.mpf(float(g)) - c * mp.mpf(r) ** j)
                    / ((mp.pi * abs(r)) ** j / mp.factorial(j))
                    for j, (g, c) in enumerate(zip(got, base)))
    assert worst <= 3e-16


@pytest.mark.parametrize("eps, k, x, h", [
    (2.0, 5, 0.0373, 2.27e-3), (2.0, 9, 40.0, 3e-5), (0.05, 9, -0.002, 3e-5),
    (1.0, 13, -7.3, 2e-2), (2.0, 9, 0.0, 5.6e-5),
])
def test_transform_series_matches_mpmath(eps, k, x, h):
    # Theta(x + s h): within 2e-15 of the scale 2a (2 pi eps h)^j / j!
    # (measured 1.0e-15), below the j where that scale underflows.  At x
    # = 0, where every walk of J and piece 1 takes its lower endpoint
    # series, the sinc series are taken in closed form (measured 3.6e-17;
    # the descent from zeros read 2.03e-15, all of it in Theta(0))
    kern = make_kernel(eps, k)
    n = 25
    got = transform_series(kern, x, h, n)
    with mp.workdps(60):
        a, b = mp.mpf(kern.a), mp.mpf(kern.b)
        base = mp.taylor(lambda s: 2 * a * mp.sincpi(2 * a * (x + s))
                         * mp.sincpi(2 * b * (x + s)) ** k, 0, n - 1)
        worst = max(abs(mp.mpf(float(g)) - c * mp.mpf(h) ** j)
                    / (2 * a * (2 * mp.pi * eps * h) ** j / mp.factorial(j))
                    for j, (g, c) in enumerate(zip(got, base)))
    assert worst <= 2e-15
    assert got[0] == pytest.approx(float(theta_transform(kern, x)), rel=1e-13)


def test_grid_transform_rejects_bad_blocks():
    ker = make_kernel(1.0, 3)
    rot = GridTransform(ker, 1e-3, 16)
    with pytest.raises(ValueError):
        rot(-1e-3 + 1e-3 * np.arange(8))
    with pytest.raises(ValueError):
        rot(1e-3 * np.arange(17))
    out = np.full(16, np.nan)
    assert rot(np.zeros(0), out).size == 0


def test_transform_matches_quadrature():
    # Theta(x) = 2 int_0^eps theta(y) cos(2 pi x y) dy by 64-point
    # Gauss-Legendre on each piece between theta's knots (the plateau's
    # end and eps - 2b i), where theta is a polynomial of degree k
    ker = make_kernel(1.0, 3)
    knots = np.concatenate([[0.0], ker.epsilon - 2.0 * ker.b * np.arange(ker.k, -1, -1)])
    nodes, weights = np.polynomial.legendre.leggauss(64)
    mid, half = (knots[1:] + knots[:-1]) / 2, (knots[1:] - knots[:-1]) / 2
    ys = (mid[:, None] + half[:, None] * nodes).ravel()
    ws = (half[:, None] * weights).ravel() * theta(ker, ys)
    for x in np.linspace(-10.0, 10.0, 41):
        quad = 2.0 * float(np.dot(ws, np.cos(2 * np.pi * x * ys)))
        assert abs(quad - theta_transform(ker, x)) <= 1e-4 * ker.epsilon


def test_bound_branch_values():
    ker = make_kernel(1.0, 1)
    assert transform_bound(ker, 0.0) == pytest.approx(1.75)
    # at x=1: min(1.75, 1/pi, (1/pi)(4/pi)) = 1/pi
    assert transform_bound(ker, 1.0) == pytest.approx(1.0 / math.pi, rel=1e-12)
    # large x: the k-th-power branch wins and decays like x^{-k-1}
    ker5 = make_kernel(1.0, 5)
    b1 = transform_bound(ker5, 1e3)
    b2 = transform_bound(ker5, 2e3)
    assert b1 / b2 == pytest.approx(2.0**6, rel=1e-9)


def test_bound_sweep_no_violations():
    for eps in (1e-3, 1.0, 10.0):
        for k in (1, 2, 3, 5, 8, 13, 20):
            ker = make_kernel(eps, k)
            xs = np.logspace(math.log10(1e-3 / eps), math.log10(1e3 / eps), 2000)
            rep = verify_bounds(ker, np.concatenate([xs, -xs, [0.0]]))
            assert rep.violations == 0, (eps, k, rep)
            assert rep.worst_excess_rel <= 1e-12


def test_bound_no_overflow_extreme():
    ker = make_kernel(1e-3, 64)
    xs = np.logspace(-3, 9, 500)
    assert np.all(np.isfinite(transform_bound(ker, xs)))
    assert np.all(np.isfinite(theta_transform(ker, xs)))
    rep = verify_bounds(ker, xs)
    assert rep.violations == 0


def test_inversion_auto_cutoff():
    for k in (1, 2, 3, 5, 20):
        ker = make_kernel(1.0, k)
        ys = np.linspace(-1.2, 1.2, 121)
        approx = invert_transform(ker, ys, tol=1e-3)
        assert np.max(np.abs(approx - theta(ker, ys))) <= 1e-3


@pytest.mark.parametrize("k", [1, 2, 5, 20])
def test_inversion_matches_truncated_integral(k):
    # 2 int_0^T Theta(x) cos(2 pi x y) dx by 32-point Gauss-Legendre on
    # two pieces per period of the top frequency 2.1 eps: the band rule
    # matches it to 2.2e-15 (measured); without its endpoint series it
    # is off by 1e-8 to 7e-6
    ker = make_kernel(1.0, k)
    ys = np.linspace(-1.1, 1.1, 23)
    t_cut = _inversion_cutoff(ker, 1e-3)
    edges = np.linspace(0.0, t_cut, int(4.2 * t_cut) + 1)
    nodes, weights = np.polynomial.legendre.leggauss(32)
    mid, half = (edges[1:] + edges[:-1]) / 2, (edges[1:] - edges[:-1]) / 2
    xs = (mid[:, None] + half[:, None] * nodes).ravel()
    ws = (half[:, None] * weights).ravel() * theta_transform(ker, xs)
    want = np.array([2.0 * np.dot(ws, np.cos(2 * np.pi * xs * y)) for y in ys])
    assert np.max(np.abs(invert_transform(ker, ys, tol=1e-3) - want)) <= 1e-13


@pytest.mark.parametrize("k", [3, 5, 20])
def test_inversion_error_follows_tolerance(k):
    # the band rule leaves only the transform's tail past the cutoff, so
    # the error falls with tol (measured 1.6e-11, 3.8e-11, 2.2e-15)
    ker = make_kernel(1.0, k)
    ys = np.linspace(-1.2, 1.2, 121)
    approx = invert_transform(ker, ys, tol=1e-9)
    assert np.max(np.abs(approx - theta(ker, ys))) <= 1e-9


def test_parameter_validation():
    with pytest.raises(ValueError):
        make_kernel(0.0, 3)
    with pytest.raises(ValueError):
        make_kernel(1.0, 0)
    with pytest.raises(ValueError):
        make_kernel(1.0, 65)
    with pytest.raises(ValueError):
        make_kernel(1.0, 2.0)


def test_geometry_identities():
    for eps in (1e-3, 2.5):
        for k in (1, 4, 64):
            ker = make_kernel(eps, k)
            assert ker.a + k * ker.b == pytest.approx(eps, rel=1e-15)
            assert ker.a - k * ker.b == pytest.approx(0.75 * eps, rel=1e-15)


@settings(max_examples=60, deadline=None)
@given(
    eps=st.floats(min_value=1e-3, max_value=10.0, allow_nan=False),
    k=st.integers(min_value=1, max_value=12),
    x=st.floats(min_value=-1e4, max_value=1e4, allow_nan=False),
)
def test_bound_property(eps, k, x):
    ker = make_kernel(eps, k)
    t = abs(theta_transform(ker, x))
    b = transform_bound(ker, x)
    assert t <= b * (1 + 1e-12) + 1e-300
