"""Problem instance and derived scale parameters.

A run is specified by the linear-form coefficients (lambda1, lambda2,
lambda3, eta), the exponent gamma of the floor-power prime set, the
lower cube fraction lambda0, and a seed integer q0.  Everything else
(X, Delta, epsilon, H) is derived from (q0, gamma) by fixed formulas
when the instance is built; none of them can be set by the caller.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from decimal import Decimal

__all__ = [
    "THEOREM_GAMMA_LOWER",
    "ParameterError",
    "GammaExponent",
    "Coefficients",
    "CoefficientReport",
    "validate_coefficients",
    "RunParameters",
    "parse_q0",
    "feasible_box_check",
]

# 37/38: the exponent range below is where the main inequality has power savings.
THEOREM_GAMMA_LOWER = 37.0 / 38.0


class ParameterError(ValueError):
    """An instance failed a constructor constraint."""


# q0 is echoed in messages in full up to the digit count of the largest
# double; a longer one (its X overflows long before) by its leading
# digits and its length.
_ECHO_DIGITS = 309

# the integer syntax int() accepts, once stripped
_INTEGER = re.compile(r"[+-]?\d+(?:_\d+)*")

# a malformed config value is echoed in full up to this many characters
_ECHO_CHARS = 40


def echo_text(text: str) -> str:
    """A config value as an error message quotes it: its repr when short,
    else the repr of its first _ECHO_CHARS characters and its length."""
    if len(text) <= _ECHO_CHARS:
        return repr(text)
    return f"{text[:_ECHO_CHARS]!r}... ({len(text)} characters)"


def _q0_out_of_range(q0: "int | Decimal") -> ParameterError:
    """The error for a q0 below 2 or one whose X overflows a double."""
    d = Decimal(q0)         # neither int() nor str() of a long integer
    digits = d.adjusted() + 1
    text = str(q0) if digits <= _ECHO_DIGITS else f"{d:.6e} ({digits} digits)"
    if d < 2:
        return ParameterError(f"q0 must be at least 2, got {text}")
    return ParameterError(f"q0={text} is too large: X or epsilon overflows a double")


def parse_q0(text: str) -> int:
    """The integer q0 from its decimal text, in time linear in its length.

    Raises ParameterError for a q0 of more than _ECHO_DIGITS digits,
    whose X would overflow (int() refuses such text past Python's
    4300-digit limit and converts it in quadratic time), and a plain
    ValueError when the text is not an integer.
    """
    if _INTEGER.fullmatch(text.strip()) is None:
        raise ValueError(f"q0 must be an integer, got {echo_text(text)}")
    d = Decimal(text)
    if d.adjusted() >= _ECHO_DIGITS:
        raise _q0_out_of_range(d)
    return int(d)


def _require_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ParameterError(f"{name} must be finite, got {value!r}")
    return value


@dataclass(frozen=True)
class GammaExponent:
    """Exponent gamma of the floor-power prime set, 0 < gamma < 1."""

    value: float

    def __post_init__(self) -> None:
        v = _require_finite("gamma", self.value)
        object.__setattr__(self, "value", v)
        if not 0.0 < v < 1.0:
            raise ParameterError(f"gamma must lie in the open interval (0, 1), got {v}")

    @property
    def theorem_range(self) -> bool:
        """True iff gamma sits in the open range (37/38, 1)."""
        return THEOREM_GAMMA_LOWER < self.value < 1.0


@dataclass(frozen=True)
class Coefficients:
    """Linear form coefficients: lambda1*y1 + lambda2*y2 + lambda3*y3 + eta.

    The irrationality of lambda1/lambda2 cannot be decided from floats,
    so it is not checked here.
    """

    lambda1: float
    lambda2: float
    lambda3: float
    eta: float = 0.0

    def __post_init__(self) -> None:
        for name in ("lambda1", "lambda2", "lambda3", "eta"):
            object.__setattr__(self, name, _require_finite(name, getattr(self, name)))

    @property
    def lambdas(self) -> tuple[float, float, float]:
        return (self.lambda1, self.lambda2, self.lambda3)

    def form(self, y1: float, y2: float, y3: float) -> float:
        return self.lambda1 * y1 + self.lambda2 * y2 + self.lambda3 * y3 + self.eta


@dataclass(frozen=True)
class CoefficientReport:
    """Per-hypothesis pass/fail report plus a canonical sign normalization."""

    all_nonzero: bool
    mixed_signs: bool
    ok: bool
    canonical: "Coefficients | None"
    messages: tuple[str, ...]


def validate_coefficients(c: Coefficients) -> CoefficientReport:
    """Check the standing hypotheses on the coefficients; never raises.

    The canonical form permutes and (if needed) globally negates the
    coefficients so that lambda1 > 0, lambda2 > 0, lambda3 < 0, negating
    eta alongside a global sign flip.  The input is not mutated.  The
    canonical field is None when a hypothesis fails.
    """
    messages: list[str] = []
    lams = c.lambdas

    all_nonzero = all(v != 0.0 for v in lams)
    if not all_nonzero:
        messages.append("all coefficients must be nonzero")

    positive = sum(1 for v in lams if v > 0.0)
    negative = sum(1 for v in lams if v < 0.0)
    mixed_signs = positive > 0 and negative > 0
    if all_nonzero and not mixed_signs:
        messages.append("all same sign: the form cannot be small on a positive cube")

    ok = all_nonzero and mixed_signs
    canonical: Coefficients | None = None
    if ok:
        eta = c.eta
        if positive == 1:
            lams = tuple(-v for v in lams)
            eta = -eta
        pos = [v for v in lams if v > 0.0]
        neg = [v for v in lams if v < 0.0]
        canonical = Coefficients(pos[0], pos[1], neg[0], eta)

    return CoefficientReport(
        all_nonzero=all_nonzero,
        mixed_signs=mixed_signs,
        ok=ok,
        canonical=canonical,
        messages=tuple(messages),
    )


@dataclass(frozen=True)
class RunParameters:
    """A validated problem instance with the scales its seed fixes.

    The constructor takes (q0, gamma, lambda0, epsilon_user) and derives

        X       = q0^(13/6)
        Delta   = X^(-12/13) * log X
        epsilon = X^((37 - 38 gamma)/26) * (log X)^10
        H       = (log X)^2 / epsilon

    with natural logs.  X is computed as exp((13/6) log q0), which can
    differ from a repeated-multiplication power by about one ulp; every
    other scale reuses the same log X so the set is consistent.  Powers
    of X are taken in log space, and a q0 whose X or epsilon would
    overflow a double is rejected.

    epsilon and H always hold the formula values.  Desk-scale instances
    have epsilon astronomically large (the tenth log power dominates), so
    a run may carry an epsilon_user override; the effective pair
    (epsilon_effective, H_effective) is what searches and integrals use,
    and the constructor requires Delta < H_effective.
    """

    q0: int
    gamma: GammaExponent
    lambda0: float
    epsilon_user: float | None = None
    log_X: float = field(init=False)
    X: float = field(init=False)
    Delta: float = field(init=False)
    epsilon: float = field(init=False)
    H: float = field(init=False)

    def __post_init__(self) -> None:
        if not isinstance(self.gamma, GammaExponent):
            object.__setattr__(self, "gamma", GammaExponent(float(self.gamma)))
        q0 = self.q0
        if not isinstance(q0, int) or isinstance(q0, bool):
            raise ParameterError(f"q0 must be an integer, got {q0!r}")
        if q0 < 2:
            raise _q0_out_of_range(q0)
        lam0 = _require_finite("lambda0", self.lambda0)
        object.__setattr__(self, "lambda0", lam0)
        if not 0.0 < lam0 < 1.0:
            raise ParameterError(f"lambda0 must lie in (0, 1), got {lam0}")
        if self.epsilon_user is not None:
            eu = _require_finite("epsilon_user", self.epsilon_user)
            if eu <= 0.0:
                raise ParameterError(f"epsilon_user must be positive, got {eu}")
            object.__setattr__(self, "epsilon_user", eu)

        g = self.gamma.value
        log_x = (13.0 / 6.0) * math.log(q0)
        try:
            x = math.exp(log_x)
            epsilon = math.exp(((37.0 - 38.0 * g) / 26.0) * log_x) * log_x**10
            if math.isinf(epsilon):
                raise OverflowError
        except OverflowError:
            raise _q0_out_of_range(q0) from None
        object.__setattr__(self, "log_X", log_x)
        object.__setattr__(self, "X", x)
        object.__setattr__(self, "Delta", math.exp((-12.0 / 13.0) * log_x) * log_x)
        object.__setattr__(self, "epsilon", epsilon)
        object.__setattr__(self, "H", log_x * log_x / epsilon)
        if not self.Delta < self.H_effective:
            raise ParameterError(
                f"instance too small: Delta={self.Delta:.6g} >= "
                f"H_effective={self.H_effective:.6g}; a larger q0 or an "
                f"epsilon_user override is required"
            )

    @property
    def epsilon_effective(self) -> float:
        return self.epsilon if self.epsilon_user is None else self.epsilon_user

    @property
    def H_effective(self) -> float:
        lx = self.log_X
        return lx * lx / self.epsilon_effective

    @property
    def kernel_k(self) -> int:
        """Smoothness k = max(1, floor(log X)) of the canonical kernel."""
        return max(1, math.floor(self.log_X))


def feasible_box_check(
    c: Coefficients, lambda0: float, X: float, epsilon: float
) -> bool:
    """True iff the form can be within epsilon of 0 somewhere on the cube.

    The cube is (lambda0*X, X]^3.  Interval arithmetic on the linear form
    is exact here: each term's range over the cube is an interval, and
    the form's range is the sum.  The set is nonempty iff the distance
    from 0 to that range interval is below epsilon; attainment only on
    the open boundary extends inward by continuity, so the closed-cube
    interval decides the half-open cube too.
    """
    if not X > 0.0:
        raise ParameterError(f"X must be positive, got {X}")
    if not 0.0 < lambda0 < 1.0:
        raise ParameterError(f"lambda0 must lie in (0, 1), got {lambda0}")
    if not epsilon > 0.0:
        raise ParameterError(f"epsilon must be positive, got {epsilon}")
    lo = c.eta
    hi = c.eta
    for lam in c.lambdas:
        a = lam * lambda0 * X
        b = lam * X
        lo += min(a, b)
        hi += max(a, b)
    if lo <= 0.0 <= hi:
        return True
    return min(abs(lo), abs(hi)) < epsilon
