"""Plain-text run configuration.

A config file is `key = value` lines; `#` starts a comment, blank lines
are skipped.  Recognized keys: the seed integer q0, the floor-power
exponent gamma, the window fraction lambda0, the form coefficients
lambda1..lambda3, the shift eta, and an optional epsilon_user override
for the search width.  Unknown keys are errors, as are duplicates.

Parsing never stops at the first problem: every syntax error (with its
line number) and every violated hypothesis is collected into a single
ConfigError so that one round trip fixes a whole file.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .params import (
    Coefficients,
    GammaExponent,
    ParameterError,
    RunParameters,
    echo_text,
    parse_q0,
    validate_coefficients,
)

__all__ = [
    "CONFIG_KEYS",
    "ConfigIssue",
    "ConfigError",
    "RunConfig",
    "parse_config",
]

_REQUIRED = ("q0", "gamma", "lambda1", "lambda2", "lambda3")
_OPTIONAL = ("lambda0", "eta", "epsilon_user")
CONFIG_KEYS = _REQUIRED + _OPTIONAL

_DEFAULTS = {"lambda0": 0.5, "eta": 0.0}


@dataclass(frozen=True)
class ConfigIssue:
    """One problem found in a config file.

    kind is "syntax" for unparseable or structurally wrong input and
    "hypothesis" for values that parse but violate a standing
    assumption.  line is 1-based and None for file-level issues.
    """

    kind: str
    line: "int | None"
    message: str

    def __str__(self) -> str:
        if self.line is not None:
            return f"line {self.line}: {self.message}"
        return self.message


class ConfigError(ValueError):
    """Aggregated report of everything wrong with one config file."""

    def __init__(self, path: "str | Path", issues: "list[ConfigIssue]") -> None:
        self.path = str(path)
        self.issues = tuple(issues)
        body = "\n".join(f"  - {i}" for i in self.issues)
        super().__init__(
            f"{self.path}: {len(self.issues)} problem(s)\n{body}"
        )

    @property
    def all_hypothesis(self) -> bool:
        """True when every issue is a hypothesis violation (no syntax)."""
        return all(i.kind == "hypothesis" for i in self.issues)


@dataclass(frozen=True)
class RunConfig:
    """A validated instance plus the raw echo of where it came from.

    coeffs holds the coefficients exactly as written; canonical is the
    sign-normalized permutation (two positive leads, negative third)
    that the dichotomy machinery requires.  warnings carry advisories
    that do not block a run (gamma outside the theorem range, and the
    irrationality of lambda1/lambda2, which floats cannot decide).
    """

    path: str
    params: RunParameters
    coeffs: Coefficients
    canonical: Coefficients
    echo: "dict[str, str]"
    warnings: "tuple[str, ...]"
    source_text: str


def _parse_lines(text: str, issues: "list[ConfigIssue]") -> "dict[str, tuple[int, str]]":
    """key -> (line number, raw value string); syntax issues appended."""
    seen: dict[str, tuple[int, str]] = {}
    for num, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            issues.append(
                ConfigIssue("syntax", num, f"expected 'key = value', got {line!r}")
            )
            continue
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in CONFIG_KEYS:
            issues.append(ConfigIssue("syntax", num, f"unknown key {key!r}"))
            continue
        if key in seen:
            issues.append(
                ConfigIssue(
                    "syntax", num,
                    f"duplicate key {key!r} (first set on line {seen[key][0]})",
                )
            )
            continue
        if not value:
            issues.append(ConfigIssue("syntax", num, f"empty value for {key!r}"))
            continue
        seen[key] = (num, value)
    return seen


def _number(
    key: str, entry: "tuple[int, str] | None", issues: "list[ConfigIssue]"
) -> "float | None":
    if entry is None:
        return None
    num, text = entry
    try:
        return float(text)
    except ValueError:
        issues.append(
            ConfigIssue("syntax", num, f"{key} must be a number, got {echo_text(text)}")
        )
        return None


def parse_config(
    path: "str | Path", epsilon_user: "float | None" = None
) -> RunConfig:
    """Read, parse, and validate a config file.

    The optional epsilon_user argument overrides the file's value (the
    command-line --eps-user path).  Raises ConfigError carrying every
    issue found; the file must exist and be readable (OSError passes
    through untouched).
    """
    path = Path(path)
    text = path.read_text()
    issues: list[ConfigIssue] = []
    entries = _parse_lines(text, issues)

    for key in _REQUIRED:
        if key not in entries:
            issues.append(ConfigIssue("syntax", None, f"required key {key!r} missing"))

    # numeric parse of whatever is present
    values: dict[str, float] = {}
    q0: int | None = None
    if "q0" in entries:
        num, text_q0 = entries["q0"]
        try:
            q0 = parse_q0(text_q0)
        except ParameterError as exc:
            issues.append(ConfigIssue("hypothesis", num, str(exc)))
        except ValueError as exc:
            issues.append(ConfigIssue("syntax", num, str(exc)))
    for key in CONFIG_KEYS:
        if key == "q0":
            continue
        got = _number(key, entries.get(key), issues)
        if got is not None:
            values[key] = got

    warnings: list[str] = []

    # hypothesis checks on the fields that parsed, aggregated rather
    # than failing at the first constructor to trip
    g = values.get("gamma")
    if g is not None and not 0.0 < g < 1.0:
        issues.append(
            ConfigIssue(
                "hypothesis", entries["gamma"][0],
                f"gamma = {g:g} is outside (0, 1); the theorem needs "
                f"37/38 < gamma < 1",
            )
        )
        g = None
    if g is not None and not GammaExponent(g).theorem_range:
        warnings.append(
            f"gamma = {g:g} is below the theorem range 37/38 < gamma < 1; "
            f"results are experimental, not theorem instances"
        )

    coeffs: Coefficients | None = None
    canonical: Coefficients | None = None
    if all(k in values for k in ("lambda1", "lambda2", "lambda3")):
        try:
            coeffs = Coefficients(
                values["lambda1"], values["lambda2"], values["lambda3"],
                values.get("eta", _DEFAULTS["eta"]),
            )
        except ParameterError as exc:
            issues.append(ConfigIssue("hypothesis", None, str(exc)))
        else:
            report = validate_coefficients(coeffs)
            for msg in report.messages:
                issues.append(ConfigIssue("hypothesis", None, msg))
            canonical = report.canonical
            warnings.append(
                "irrationality of lambda1/lambda2 not asserted; "
                "rational ratios admit obstructed instances"
            )

    eps_user = epsilon_user if epsilon_user is not None else values.get("epsilon_user")
    params: RunParameters | None = None
    if q0 is not None and g is not None:
        try:
            params = RunParameters(
                q0, g, values.get("lambda0", _DEFAULTS["lambda0"]),
                epsilon_user=eps_user,
            )
        except ParameterError as exc:
            issues.append(ConfigIssue("hypothesis", None, str(exc)))

    if issues:
        raise ConfigError(path, issues)
    assert params is not None and coeffs is not None and canonical is not None
    echo = {key: entries[key][1] for key in CONFIG_KEYS if key in entries}
    return RunConfig(
        path=str(path),
        params=params,
        coeffs=coeffs,
        canonical=canonical,
        echo=echo,
        warnings=tuple(warnings),
        source_text=text,
    )
