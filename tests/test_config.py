"""Config file parsing: aggregation, domain checks, overrides."""

import math

import pytest

from pstriples.config import ConfigError, parse_config


def write(tmp_path, text, name="run.conf"):
    path = tmp_path / name
    path.write_text(text)
    return path


GOOD = """\
# demo instance
q0 = 29
gamma = 0.9
lambda0 = 0.5
lambda1 = 1.0
lambda2 = 1.4142135623730951
lambda3 = -2.0
eta = 0.0
epsilon_user = 0.5
"""


def test_valid_file_round_trips(tmp_path):
    cfg = parse_config(write(tmp_path, GOOD))
    assert cfg.params.q0 == 29
    assert cfg.params.gamma.value == 0.9
    assert cfg.params.lambda0 == 0.5
    assert cfg.params.epsilon_user == 0.5
    assert cfg.coeffs.lambda1 == 1.0
    assert cfg.coeffs.lambda3 == -2.0
    assert cfg.echo["q0"] == "29"
    assert cfg.echo["lambda2"].startswith("1.41421356")
    # floats cannot decide irrationality, so every run carries the warning
    assert any("irrationality" in w for w in cfg.warnings)


def test_defaults_for_optional_keys(tmp_path):
    text = "q0 = 29\ngamma = 0.9\nlambda1 = 1\nlambda2 = 1.5\nlambda3 = -2\nepsilon_user = 1\n"
    cfg = parse_config(write(tmp_path, text))
    assert cfg.params.lambda0 == 0.5
    assert cfg.coeffs.eta == 0.0


def test_gamma_outside_unit_interval_names_the_rule(tmp_path):
    text = GOOD.replace("gamma = 0.9", "gamma = 1.2")
    with pytest.raises(ConfigError) as err:
        parse_config(write(tmp_path, text))
    assert err.value.all_hypothesis
    joined = " ".join(i.message for i in err.value.issues)
    assert "37/38" in joined
    assert "1.2" in joined


def test_gamma_below_lower_edge_warns_but_parses(tmp_path):
    text = GOOD.replace("gamma = 0.9", "gamma = 0.8")
    cfg = parse_config(write(tmp_path, text))
    assert cfg.params.gamma.value == 0.8
    assert not cfg.params.gamma.theorem_range
    assert any("37/38" in w for w in cfg.warnings)


def test_missing_required_key(tmp_path):
    text = GOOD.replace("lambda3 = -2.0\n", "")
    with pytest.raises(ConfigError) as err:
        parse_config(write(tmp_path, text))
    assert any("required key" in i.message and "lambda3" in i.message
               for i in err.value.issues)
    assert not err.value.all_hypothesis


def test_unknown_key_reports_line_number(tmp_path):
    text = "q0 = 29\ngamma = 0.9\nlambda4 = 7\nlambda1 = 1\nlambda2 = 1.5\nlambda3 = -2\nepsilon_user = 1\n"
    with pytest.raises(ConfigError) as err:
        parse_config(write(tmp_path, text))
    bad = [i for i in err.value.issues if "lambda4" in i.message]
    assert bad and bad[0].line == 3
    assert bad[0].kind == "syntax"


def test_duplicate_key_rejected(tmp_path):
    text = GOOD + "gamma = 0.91\n"
    with pytest.raises(ConfigError) as err:
        parse_config(write(tmp_path, text))
    assert any("duplicate" in i.message for i in err.value.issues)


def test_non_numeric_value_rejected(tmp_path):
    text = GOOD.replace("gamma = 0.9", "gamma = brisk")
    with pytest.raises(ConfigError) as err:
        parse_config(write(tmp_path, text))
    assert any(i.kind == "syntax" and "gamma" in i.message
               for i in err.value.issues)


def test_q0_must_be_an_integer(tmp_path):
    text = GOOD.replace("q0 = 29", "q0 = 29.5")
    with pytest.raises(ConfigError):
        parse_config(write(tmp_path, text))


def test_long_malformed_values_are_echoed_short(tmp_path):
    # a 5000-character value is quoted by its first 40 characters and
    # its length, for q0 and for a float key alike
    for key, good in (("q0", "q0 = 29"), ("gamma", "gamma = 0.9")):
        text = GOOD.replace(good, f"{key} = " + "x" * 5000)
        with pytest.raises(ConfigError) as err:
            parse_config(write(tmp_path, text))
        (issue,) = [i for i in err.value.issues if key in i.message]
        assert issue.kind == "syntax"
        assert f"got {'x' * 40!r}... (5000 characters)" in issue.message
        assert len(issue.message) < 120


def test_all_failures_reported_together(tmp_path):
    text = "q0 = 29\ngamma = 1.2\nlambda4 = 7\nlambda1 = 1\nlambda2 = 1.5\nepsilon_user = 1\n"
    with pytest.raises(ConfigError) as err:
        parse_config(write(tmp_path, text))
    messages = [i.message for i in err.value.issues]
    assert len(messages) >= 3
    assert any("37/38" in m for m in messages)
    assert any("lambda4" in m for m in messages)
    assert any("lambda3" in m for m in messages)


def test_same_sign_coefficients_are_a_hypothesis_issue(tmp_path):
    text = GOOD.replace("lambda3 = -2.0", "lambda3 = 2.0")
    with pytest.raises(ConfigError) as err:
        parse_config(write(tmp_path, text))
    assert err.value.all_hypothesis
    assert any("sign" in i.message for i in err.value.issues)


def test_rational_ratio_is_flagged_in_warnings(tmp_path):
    text = GOOD.replace("lambda2 = 1.4142135623730951", "lambda2 = 1.5")
    cfg = parse_config(write(tmp_path, text))
    assert any("irrationality" in w for w in cfg.warnings)


def test_epsilon_user_argument_overrides_file(tmp_path):
    cfg = parse_config(write(tmp_path, GOOD), epsilon_user=0.25)
    assert cfg.params.epsilon_user == 0.25
    assert cfg.params.epsilon_effective == 0.25


def test_threshold_gate_without_override_is_hypothesis_error(tmp_path):
    text = GOOD.replace("epsilon_user = 0.5\n", "")
    with pytest.raises(ConfigError) as err:
        parse_config(write(tmp_path, text))
    assert err.value.all_hypothesis
    assert any("epsilon_user" in i.message for i in err.value.issues)


def test_canonical_orientation_flips_signs_when_needed(tmp_path):
    text = (
        "q0 = 29\ngamma = 0.9\nlambda1 = -1.0\nlambda2 = -1.4142135623730951\n"
        "lambda3 = 2.0\nepsilon_user = 0.5\n"
    )
    cfg = parse_config(write(tmp_path, text))
    assert cfg.canonical.lambda1 > 0
    assert cfg.canonical.lambda2 > 0
    assert cfg.canonical.lambda3 < 0


def test_scales_match_direct_derivation(tmp_path):
    cfg = parse_config(write(tmp_path, GOOD))
    assert math.isclose(cfg.params.X, 29.0 ** (13.0 / 6.0), rel_tol=1e-15)
    assert cfg.params.Delta < cfg.params.H_effective
