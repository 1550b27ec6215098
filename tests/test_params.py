"""Scale derivation, coefficient validation, and the feasibility gate."""

import dataclasses
import math

import pytest
from hypothesis import given, strategies as st

from pstriples.params import (
    Coefficients,
    GammaExponent,
    ParameterError,
    RunParameters,
    feasible_box_check,
    parse_q0,
    validate_coefficients,
)

SQRT2 = math.sqrt(2.0)

# Reference values recomputed independently at 50-digit precision.
SCALE_ORACLE = {
    (29, 0.98): dict(
        X=1474.1069556812734,
        log_X=7.2958076316373604,
        Delta=0.0086751577070598816,
        epsilon=399471485.38533235,
        H=1.332480813906233e-7,
    ),
    (2, 0.99): dict(
        X=4.4898481932374919,
        log_X=1.5018188912132148,
        Delta=0.37545472280330371,
        epsilon=56.314782775982859,
        H=0.040050939927744853,
    ),
    (70, 0.9): dict(
        X=9947.4650061411852,
        log_X=9.2050730244402778,
        Delta=0.001878586331518424,
        epsilon=11770509370.390431,
        H=7.1987852622955307e-9,
    ),
    (203, 0.98): dict(
        X=99902.1302191056,
        log_X=11.511946287923873,
        Delta=0.00027935514785420351,
        epsilon=36756794089.20205,
        H=3.6054533758964505e-9,
    ),
}


def assert_scales_match(q0, gamma, expected):
    # every oracle instance fails the gate at the formula epsilon
    s = RunParameters(q0, gamma, 0.5, epsilon_user=1.0)
    for name, ref in expected.items():
        got = getattr(s, name)
        assert got == pytest.approx(ref, rel=1e-12), f"{name} at q0={q0}"


def test_scale_oracles():
    for (q0, gamma), expected in SCALE_ORACLE.items():
        assert_scales_match(q0, gamma, expected)


def test_x_is_exp_form_of_power():
    # exp((13/6) log 2) agrees with 2**(13/6) to a couple of ulps
    s = RunParameters(2, 0.99, 0.5, epsilon_user=1.0)
    assert s.X == pytest.approx(2.0 ** (13.0 / 6.0), rel=1e-15)


def test_desk_instances_rejected_at_formula_epsilon():
    # (log X)^10 makes epsilon huge, hence H tiny, for every desk q0
    for q0, gamma in [(29, 0.98), (2, 0.99), (70, 0.9), (203, 0.98)]:
        with pytest.raises(ParameterError, match="too small"):
            RunParameters(q0, gamma, 0.5)


def test_epsilon_user_override_opens_the_gate():
    p = RunParameters(70, 0.9, 0.5, epsilon_user=0.05)
    assert p.epsilon == pytest.approx(11770509370.390431, rel=1e-12)
    assert p.epsilon_effective == 0.05
    assert p.H_effective == pytest.approx(p.log_X**2 / 0.05, rel=1e-15)
    assert p.Delta < p.H_effective
    # formula H still reported alongside
    assert p.H == pytest.approx(7.1987852622955307e-9, rel=1e-12)


def test_large_q0_accepted_at_formula_epsilon():
    p = RunParameters(10**8, 0.98, 0.5)
    assert p.epsilon_user is None
    assert p.Delta < p.H


def test_monotonicity_grid():
    grid = [10**70, 10**73, 10**76, 10**79]
    # these all clear the gate with no override
    runs = [RunParameters(q, 0.995, 0.5) for q in grid]
    for a, b in zip(runs, runs[1:]):
        assert b.X > a.X
        assert b.H > a.H
        assert b.Delta < a.Delta
        assert b.epsilon < a.epsilon


def test_scales_are_derived_not_set():
    with pytest.raises(TypeError):
        RunParameters(70, 0.9, 0.5, X=1.0)
    p = RunParameters(70, 0.9, 0.5, epsilon_user=1.0)
    with pytest.raises(ValueError):
        dataclasses.replace(p, X=1.0)
    # replace re-runs the constructor: the scales are re-derived and the
    # gate applies to the new override
    q = dataclasses.replace(p, epsilon_user=0.05)
    assert (q.X, q.Delta, q.epsilon, q.H) == (p.X, p.Delta, p.epsilon, p.H)
    assert q.H_effective == pytest.approx(p.log_X**2 / 0.05, rel=1e-15)
    with pytest.raises(ParameterError, match="too small"):
        dataclasses.replace(p, epsilon_user=None)
    with pytest.raises(ParameterError, match="too small"):
        dataclasses.replace(p, epsilon_user=1e6)


def test_overflowing_q0_is_a_parameter_error():
    # X = q0^(13/6) passes the double range near q0 = 1.5e142
    assert math.isfinite(RunParameters(10**142, 0.995, 0.5).X)
    for q0, gamma in [(10**143, 0.995), (10**200, 0.9)]:
        with pytest.raises(ParameterError, match=f"q0={q0} is too large"):
            RunParameters(q0, gamma, 0.5, epsilon_user=1.0)
    # for small gamma epsilon overflows while X is still finite
    q0 = 10**125
    assert (13.0 / 6.0) * math.log(q0) < math.log(1.7e308)
    with pytest.raises(ParameterError, match="too large"):
        RunParameters(q0, 0.1, 0.5, epsilon_user=1.0)


def test_gamma_domain():
    with pytest.raises(ParameterError):
        GammaExponent(1.0)
    with pytest.raises(ParameterError):
        GammaExponent(0.0)
    with pytest.raises(ParameterError):
        GammaExponent(1.5)
    with pytest.raises(ParameterError):
        GammaExponent(float("nan"))
    assert GammaExponent(0.98).theorem_range
    assert GammaExponent(0.999).theorem_range
    assert not GammaExponent(0.9).theorem_range
    assert not GammaExponent(37.0 / 38.0).theorem_range  # boundary is open


def test_q0_validation():
    with pytest.raises(ParameterError, match="at least 2"):
        RunParameters(1, 0.9, 0.5, epsilon_user=1.0)
    with pytest.raises(ParameterError, match="integer"):
        RunParameters(29.0, 0.9, 0.5, epsilon_user=1.0)
    with pytest.raises(ParameterError, match="integer"):
        RunParameters(True, 0.9, 0.5, epsilon_user=1.0)


def test_lambda0_and_epsilon_user_validation():
    with pytest.raises(ParameterError):
        RunParameters(70, 0.9, 0.0, epsilon_user=1.0)
    with pytest.raises(ParameterError):
        RunParameters(70, 0.9, 1.0, epsilon_user=1.0)
    with pytest.raises(ParameterError):
        RunParameters(70, 0.9, 0.5, epsilon_user=-2.0)


def test_validate_canonical_passthrough():
    rep = validate_coefficients(Coefficients(1.0, SQRT2, -2.0, eta=0.0))
    assert rep.ok
    assert rep.all_nonzero and rep.mixed_signs
    assert rep.canonical.lambdas == (1.0, SQRT2, -2.0)
    assert rep.canonical.eta == 0.0


def test_validate_all_same_sign_fails():
    rep = validate_coefficients(Coefficients(1.0, 2.0, 3.0))
    assert not rep.ok
    assert rep.canonical is None
    assert any("same sign" in m for m in rep.messages)


def test_validate_zero_coefficient_fails():
    rep = validate_coefficients(Coefficients(0.0, 1.0, -1.0))
    assert not rep.ok
    assert not rep.all_nonzero


def test_canonicalization_flips_global_sign_and_eta():
    rep = validate_coefficients(Coefficients(-1.0, -SQRT2, 2.0, eta=0.3))
    assert rep.ok
    assert rep.canonical.lambdas == (1.0, SQRT2, -2.0)
    assert rep.canonical.eta == -0.3


def test_canonicalization_permutes_negative_last():
    rep = validate_coefficients(Coefficients(-1.0, 2.0, -3.0, eta=0.1))
    # one positive among inputs: global flip puts two positives first
    assert rep.canonical.lambdas == (1.0, 3.0, -2.0)
    assert rep.canonical.eta == -0.1


nonzero_floats = st.floats(
    min_value=1e-6, max_value=1e6, allow_nan=False, allow_infinity=False
).flatmap(lambda v: st.sampled_from([v, -v]))


@given(
    l1=nonzero_floats, l2=nonzero_floats, l3=nonzero_floats,
    eta=st.floats(-10, 10, allow_nan=False),
)
def test_validation_negation_invariance(l1, l2, l3, eta):
    a = validate_coefficients(Coefficients(l1, l2, l3, eta))
    b = validate_coefficients(Coefficients(-l1, -l2, -l3, -eta))
    assert a.ok == b.ok
    if a.ok:
        assert a.canonical.lambdas == b.canonical.lambdas
        assert a.canonical.eta == b.canonical.eta
        lam = a.canonical.lambdas
        assert lam[0] > 0 and lam[1] > 0 and lam[2] < 0
        assert sorted(abs(v) for v in lam) == sorted(abs(v) for v in (l1, l2, l3))


def test_feasible_box_spanning_zero():
    assert feasible_box_check(Coefficients(1, 1, -2), 0.5, 100.0, 1.0)


def test_feasible_box_form_bounded_away():
    assert not feasible_box_check(Coefficients(1, 1, -1, eta=10.0), 0.5, 1.0, 0.5)


def test_feasible_box_interval_endpoints():
    # range of the form over the cube is [172.79..., 614.21...]; 0 not within 1.0
    assert not feasible_box_check(Coefficients(1.0, SQRT2, -2.0), 0.9, 1000.0, 1.0)


def test_feasible_box_near_miss_branch():
    c = Coefficients(1, 1, -1, eta=-2.05)
    # form range over (0.5, 1]^3 is [-2.05, -0.55]
    assert not feasible_box_check(c, 0.5, 1.0, 0.1)
    assert feasible_box_check(c, 0.5, 1.0, 0.6)


def test_form_evaluation():
    c = Coefficients(1.0, SQRT2, -2.0, eta=0.25)
    assert c.form(2.0, 3.0, 1.0) == pytest.approx(2 + 3 * SQRT2 - 2 + 0.25, rel=1e-15)


def test_long_q0_is_echoed_short():
    # past the largest double's 309 digits, q0 is echoed by its leading
    # digits and length; str() of it would fail past 4300 digits
    with pytest.raises(ParameterError, match=r"q0=1\.000000e\+5000 \(5001 digits\)"):
        RunParameters(10**5000, 0.9, 0.5)
    with pytest.raises(ParameterError, match=r"at least 2, got -1\.000000e\+5000"):
        RunParameters(-10**5000, 0.9, 0.5)
    assert parse_q0("1_000") == 1000 and parse_q0(" +12 ") == 12
    assert parse_q0("0" * 400 + "29") == 29
    with pytest.raises(ParameterError, match=r"\(5000 digits\) is too large"):
        parse_q0("7" * 5000)
    for text in ("29.5", "1e3", "", "1__0"):
        with pytest.raises(ValueError, match="must be an integer") as info:
            parse_q0(text)
        assert not isinstance(info.value, ParameterError)
