"""Continued fractions, capped approximation, denominator dichotomy."""

import math
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from pstriples import approx
from pstriples.approx import (
    ApproxError,
    ConvergentSeq,
    DichotomyReport,
    Rational,
    classify_denominator,
    continued_fraction,
    dichotomy_probe,
    dirichlet_approx,
)
from pstriples.params import Coefficients, ParameterError, RunParameters

SQRT2 = math.sqrt(2)


def test_rational_normalization():
    assert (Rational(2, 4).a, Rational(2, 4).q) == (1, 2)
    assert (Rational(-2, -4).a, Rational(-2, -4).q) == (1, 2)
    assert (Rational(2, -4).a, Rational(2, -4).q) == (-1, 2)
    assert (Rational(0, 5).a, Rational(0, 5).q) == (0, 1)
    assert Rational(7, 3).value == pytest.approx(7 / 3)
    assert str(Rational(-3, 6)) == "-1/2"


def test_rational_rejects_bad_input():
    with pytest.raises(ParameterError):
        Rational(1, 0)
    with pytest.raises(ParameterError):
        Rational(1.5, 2)
    with pytest.raises(ParameterError):
        Rational(True, 2)


def test_cf_sqrt2():
    seq = continued_fraction(SQRT2, 8)
    assert seq.partial_quotients == (1, 2, 2, 2, 2, 2, 2, 2)
    got = [(c.a, c.q) for c in seq.convergents]
    assert got == [(1, 1), (3, 2), (7, 5), (17, 12), (41, 29), (99, 70),
                   (239, 169), (577, 408)]
    assert not seq.rational_at_precision


def test_cf_pi():
    seq = continued_fraction(math.pi, 4)
    got = [(c.a, c.q) for c in seq.convergents]
    assert got == [(3, 1), (22, 7), (333, 106), (355, 113)]


def test_cf_exact_rationals():
    seq = continued_fraction(0.5, 10)
    assert [(c.a, c.q) for c in seq.convergents] == [(0, 1), (1, 2)]
    assert seq.rational_at_precision
    seq2 = continued_fraction(0.75, 10)
    assert seq2.partial_quotients == (0, 1, 3)
    assert (seq2.final.a, seq2.final.q) == (3, 4)
    assert seq2.rational_at_precision
    neg = continued_fraction(-0.5, 10)
    assert [(c.a, c.q) for c in neg.convergents] == [(-1, 1), (-1, 2)]
    assert neg.rational_at_precision


def test_cf_argument_validation():
    with pytest.raises(ParameterError):
        continued_fraction(math.inf, 5)
    with pytest.raises(ParameterError):
        continued_fraction(1.5, 0)


def test_convergent_law_and_monotone_q():
    for x in (SQRT2, math.pi, math.e, 0.3, 5.6789, -2.718):
        seq = continued_fraction(x, 10)
        qs = [c.q for c in seq.convergents]
        for i in range(2, len(qs)):
            assert qs[i] > qs[i - 1]
        for c in seq.convergents:
            assert abs(x - c.value) < 1.0 / c.q**2 + 1e-15


def test_convergent_seq_rejects_decreasing_q():
    with pytest.raises(ParameterError):
        ConvergentSeq(
            x=1.0,
            partial_quotients=(1, 1),
            convergents=(Rational(3, 2), Rational(1, 1)),
            rational_at_precision=False,
        )


@settings(max_examples=120, deadline=None)
@given(st.floats(min_value=-100, max_value=100, allow_nan=False))
def test_cf_law_property(x):
    seq = continued_fraction(x, 12)
    xf = Fraction(x)
    for c in seq.convergents:
        assert abs(xf - Fraction(c.a, c.q)) < Fraction(1, c.q * c.q) or (
            seq.rational_at_precision and c is seq.convergents[-1]
        )


def test_dirichlet_examples():
    r = dirichlet_approx(SQRT2, 25)
    assert (r.a, r.q) == (17, 12)
    assert abs(SQRT2 - r.value) < 1.0 / (12 * 25)
    r2 = dirichlet_approx(0.25, 10)
    assert (r2.a, r2.q) == (1, 4)
    assert dirichlet_approx(3.7, 1).a == 4  # nearest integer, not floor
    assert dirichlet_approx(3.3, 1).a == 3
    assert dirichlet_approx(-2.6, 1).a == -3


def test_dirichlet_guarantee_exact():
    rng_vals = [(0.123456, 7), (SQRT2, 500), (math.pi, 113), (1 / 3, 50),
                (-9.87654, 200), (1e-5, 400)]
    for x, Q in rng_vals:
        r = dirichlet_approx(x, Q)
        assert r.q <= Q
        assert abs(Fraction(x) - Fraction(r.a, r.q)) < Fraction(1, r.q * Q)


def test_dirichlet_exhaustive_agreement():
    # the minimizer of |q x - a| over q <= Q is the returned convergent
    import random

    rng = random.Random(7)
    for _ in range(150):
        x = rng.uniform(-50, 50)
        Q = rng.randint(1, 60)
        r = dirichlet_approx(x, Q)
        best = min(
            ((abs(q * x - round(q * x)), q, round(q * x)) for q in range(1, Q + 1)),
            key=lambda v: (v[0], v[1]),
        )
        _, bq, ba = best
        g = math.gcd(abs(ba), bq)
        assert (ba // g, bq // g) == (r.a, r.q)


@settings(max_examples=400, deadline=None)
@given(
    x=st.floats(allow_nan=False, allow_infinity=False),
    Q=st.integers(1, 10**9),
    k=st.integers(1, 10**9),
    shift=st.integers(-2, 2),
)
@example(x=0.0, Q=1, k=1, shift=0)
@example(x=-0.0, Q=10**9, k=10**9, shift=1)
@example(x=-2.6, Q=1, k=1, shift=0)
@example(x=0.3, Q=10, k=3, shift=1)
@example(x=0.5, Q=2, k=1, shift=0)      # |x - h/k| = 1/(kQ) exactly: a miss
@example(x=-1.7976931348623157e308, Q=10**9, k=7, shift=-1)
@example(x=5e-324, Q=10**9, k=10**9, shift=0)
def test_dirichlet_integer_check_agrees_with_fractions(x, Q, k, shift):
    # the expansion, patched to offer h/k, a neighbour of k x with k <= Q:
    # the integer re-check rejects it exactly when the Fraction one does
    k = min(k, Q)
    h = math.floor(Fraction(x) * k) + shift
    misses = abs(Fraction(x) - Fraction(h, k)) >= Fraction(1, k * Q)
    with mock.patch.object(approx, "_exact_convergents",
                           lambda _x: iter([(0, h, k, False)])):
        if misses:
            with pytest.raises(ApproxError, match="misses"):
                dirichlet_approx(x, Q)
        else:
            assert dirichlet_approx(x, Q) == Rational(h, k)
    # the true expansion's pick passes both
    r = dirichlet_approx(x, Q)
    assert abs(Fraction(x) - Fraction(r.a, r.q)) < Fraction(1, r.q * Q)


def test_dirichlet_rejects_a_non_convergent(monkeypatch):
    # 1/2 is 0.2 from 0.3, not within 1/(2 * 10): the re-check must catch it
    monkeypatch.setattr(approx, "_exact_convergents",
                        lambda x: iter([(0, 0, 1, False), (0, 1, 2, False)]))
    with pytest.raises(ApproxError, match="1/2 misses"):
        dirichlet_approx(0.3, 10)


def test_dirichlet_argument_validation():
    with pytest.raises(ParameterError):
        dirichlet_approx(1.2, 0)
    with pytest.raises(ParameterError):
        dirichlet_approx(math.nan, 5)


def test_classify_window_snap():
    # X = 2^13 puts the window at [2, 4096] with exact integer edges
    X = 2.0**13
    assert classify_denominator(1, X) == "below"
    assert classify_denominator(2, X) == "estimable"
    assert classify_denominator(12, X) == "estimable"
    assert classify_denominator(4096, X) == "estimable"
    assert classify_denominator(4097, X) == "above"
    assert classify_denominator(10**6, X) == "above"
    with pytest.raises(ParameterError):
        classify_denominator(0, X)
    with pytest.raises(ParameterError):
        classify_denominator(3, 1.0)


def probe_setup(q0=29, conv=(41, 29)):
    params = RunParameters(q0, 0.9, 0.5, epsilon_user=1.0)
    return Coefficients(SQRT2, 1.0, -1.0), Rational(*conv), params


def test_probe_grid_all_explained():
    import numpy as np

    coeffs, conv, params = probe_setup()
    rng = np.random.default_rng(11)
    for t in rng.uniform(params.Delta, params.H_effective, size=300):
        rep = dichotomy_probe(coeffs, conv, params, float(t))
        assert rep.explained
        assert rep.a1 != 0 and rep.a2 != 0
        assert rep.nonzero_guaranteed_1 and rep.nonzero_guaranteed_2
        assert rep.case in ("estimable_1", "estimable_2")
        assert rep.q1 <= 29**2 and rep.q2 <= 29**2


def test_probe_rational_t_escalates():
    coeffs, conv, params = probe_setup()
    # lambda1 * t lands on the integer 3, so scale 1 collapses to q=1
    rep = dichotomy_probe(coeffs, conv, params, 3.0 / SQRT2)
    assert rep.q1 == 1 and rep.class1 == "below"
    assert rep.case == "estimable_2"
    # integer t collapses scale 2 instead
    rep2 = dichotomy_probe(coeffs, conv, params, 2.0)
    assert rep2.q2 == 1 and rep2.class2 == "below"
    assert rep2.case == "estimable_1"


def test_probe_negative_t():
    coeffs, conv, params = probe_setup()
    rep = dichotomy_probe(coeffs, conv, params, -0.5)
    assert rep.explained and rep.case == "estimable_1"


def test_probe_band_errors():
    coeffs, conv, params = probe_setup()
    with pytest.raises(ParameterError, match="band"):
        dichotomy_probe(coeffs, conv, params, params.Delta / 2)
    with pytest.raises(ParameterError, match="band"):
        dichotomy_probe(coeffs, conv, params, params.H_effective * 1.01)


def test_probe_precondition_errors():
    coeffs, conv, params = probe_setup()
    with pytest.raises(ParameterError, match="canonical"):
        dichotomy_probe(Coefficients(-SQRT2, -1.0, 2.0), conv, params, 1.0)
    with pytest.raises(ParameterError, match="not a convergent"):
        dichotomy_probe(coeffs, Rational(40, 29), params, 1.0)
    with pytest.raises(ParameterError, match="q0"):
        dichotomy_probe(coeffs, Rational(99, 70), params, 1.0)


def test_probe_both_small_chain():
    # ratio within 1/q0^2 of 41/29 but essentially rational: t = 29 drives
    # both approximations to q = 1 and the product link breaks, as the
    # contradiction argument says it must
    params = RunParameters(29, 0.9, 0.5, epsilon_user=1.0)
    coeffs = Coefficients(41 / 29 + 1e-9, 1.0, -1.0)
    rep = dichotomy_probe(coeffs, Rational(41, 29), params, 29.0)
    assert rep.case == "both_small"
    assert (rep.a1, rep.q1, rep.a2, rep.q2) == (41, 1, 29, 1)
    assert rep.product_value == 29
    assert rep.product_value >= rep.product_bound
    assert rep.explained and rep.reason == "product_not_small"


def test_probe_larger_convergents():
    import numpy as np

    coeffs = Coefficients(SQRT2, 1.0, -1.0)
    for a0, q0 in ((99, 70), (239, 169)):
        params = RunParameters(q0, 0.9, 0.5, epsilon_user=1.0)
        rng = np.random.default_rng(3)
        for t in rng.uniform(params.Delta, params.H_effective, size=60):
            rep = dichotomy_probe(coeffs, Rational(a0, q0), params, float(t))
            assert rep.explained
