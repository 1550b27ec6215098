"""Problem instance and derived scale parameters.

A run is specified by the linear-form coefficients (lambda1, lambda2,
lambda3, eta), the exponent gamma of the floor-power prime set, the
lower cube fraction lambda0, and a seed integer q0.  Everything else
(X, Delta, epsilon, H) is derived from (q0, gamma) by fixed formulas
and stored in double precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "THEOREM_GAMMA_LOWER",
    "ParameterError",
    "GammaExponent",
    "Coefficients",
    "CoefficientReport",
    "validate_coefficients",
    "DerivedScales",
    "derived_scales",
    "RunParameters",
    "derive_parameters",
    "feasible_box_check",
]

# 37/38: the exponent range below is where the main inequality has power savings.
THEOREM_GAMMA_LOWER = 37.0 / 38.0


class ParameterError(ValueError):
    """An instance failed a constructor constraint."""


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


def _as_gamma(gamma: "GammaExponent | float") -> GammaExponent:
    if isinstance(gamma, GammaExponent):
        return gamma
    return GammaExponent(float(gamma))


@dataclass(frozen=True)
class Coefficients:
    """Linear form coefficients: lambda1*y1 + lambda2*y2 + lambda3*y3 + eta.

    The irrationality of lambda1/lambda2 cannot be decided from floats;
    it is carried as a user assertion and merely echoed by validation.
    """

    lambda1: float
    lambda2: float
    lambda3: float
    eta: float = 0.0
    irrationality_asserted: bool = False

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
    irrationality_asserted: bool
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
    if not c.irrationality_asserted:
        messages.append(
            "irrationality of lambda1/lambda2 not asserted; "
            "rational ratios admit obstructed instances"
        )

    ok = all_nonzero and mixed_signs
    canonical: Coefficients | None = None
    if ok:
        eta = c.eta
        if positive == 1:
            lams = tuple(-v for v in lams)
            eta = -eta
        pos = [v for v in lams if v > 0.0]
        neg = [v for v in lams if v < 0.0]
        canonical = Coefficients(
            pos[0], pos[1], neg[0], eta, irrationality_asserted=c.irrationality_asserted
        )

    return CoefficientReport(
        all_nonzero=all_nonzero,
        mixed_signs=mixed_signs,
        irrationality_asserted=c.irrationality_asserted,
        ok=ok,
        canonical=canonical,
        messages=tuple(messages),
    )


@dataclass(frozen=True)
class DerivedScales:
    """Pure scale derivation from (q0, gamma); no feasibility gate."""

    X: float
    Delta: float
    epsilon: float
    H: float
    log_X: float


def derived_scales(q0: int, gamma: "GammaExponent | float") -> DerivedScales:
    """Derive (X, Delta, epsilon, H) from the seed integer q0.

        X       = q0^(13/6)
        Delta   = X^(-12/13) * log X
        epsilon = X^((37 - 38 gamma)/26) * (log X)^10
        H       = (log X)^2 / epsilon

    All logs are natural.  X is computed as exp((13/6) log q0), which can
    differ from a repeated-multiplication power by about one ulp; every
    other field reuses the same log X so the stored septet is consistent.
    Powers of X are taken in log space so astronomical q0 stays finite as
    long as the result itself is representable.
    """
    g = _as_gamma(gamma).value
    if not isinstance(q0, int) or isinstance(q0, bool):
        raise ParameterError(f"q0 must be an integer, got {q0!r}")
    if q0 < 2:
        raise ParameterError(f"q0 must be at least 2, got {q0}")
    log_x = (13.0 / 6.0) * math.log(q0)
    x = math.exp(log_x)
    delta = math.exp((-12.0 / 13.0) * log_x) * log_x
    epsilon = math.exp(((37.0 - 38.0 * g) / 26.0) * log_x) * log_x**10
    h = log_x * log_x / epsilon
    return DerivedScales(X=x, Delta=delta, epsilon=epsilon, H=h, log_X=log_x)


@dataclass(frozen=True)
class RunParameters:
    """A validated problem instance with its derived scales.

    epsilon and H always hold the formula values.  Desk-scale instances
    have epsilon astronomically large (the tenth log power dominates), so
    a run may carry an epsilon_user override; the effective pair
    (epsilon_effective, H_effective) is what searches and integrals use,
    and the constructor requires Delta < H_effective.
    """

    q0: int
    gamma: GammaExponent
    lambda0: float
    X: float
    Delta: float
    epsilon: float
    H: float
    epsilon_user: float | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.q0, int) or isinstance(self.q0, bool) or self.q0 < 2:
            raise ParameterError(f"q0 must be an integer >= 2, got {self.q0!r}")
        if not isinstance(self.gamma, GammaExponent):
            object.__setattr__(self, "gamma", _as_gamma(self.gamma))
        lam0 = _require_finite("lambda0", self.lambda0)
        object.__setattr__(self, "lambda0", lam0)
        if not 0.0 < lam0 < 1.0:
            raise ParameterError(f"lambda0 must lie in (0, 1), got {lam0}")
        if self.epsilon_user is not None:
            eu = _require_finite("epsilon_user", self.epsilon_user)
            if eu <= 0.0:
                raise ParameterError(f"epsilon_user must be positive, got {eu}")
            object.__setattr__(self, "epsilon_user", eu)

        ref = derived_scales(self.q0, self.gamma)
        for name, stored, fresh in (
            ("X", self.X, ref.X),
            ("Delta", self.Delta, ref.Delta),
            ("epsilon", self.epsilon, ref.epsilon),
            ("H", self.H, ref.H),
        ):
            if not math.isclose(stored, fresh, rel_tol=1e-12, abs_tol=0.0):
                raise ParameterError(
                    f"stored {name}={stored!r} disagrees with rederived {fresh!r}"
                )
        if not self.Delta < self.H_effective:
            raise ParameterError(
                f"instance too small: Delta={self.Delta:.6g} >= "
                f"H_effective={self.H_effective:.6g}; a larger q0 or an "
                f"epsilon_user override is required"
            )

    @property
    def log_X(self) -> float:
        return (13.0 / 6.0) * math.log(self.q0)

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


def derive_parameters(
    q0: int,
    gamma: "GammaExponent | float",
    lambda0: float,
    epsilon_user: "float | None" = None,
) -> RunParameters:
    """Build a RunParameters, rejecting instances with Delta >= H.

    The gate compares Delta against the effective H: the formula H when
    no override is given, (log X)^2 / epsilon_user otherwise.
    """
    g = _as_gamma(gamma)
    s = derived_scales(q0, g)
    return RunParameters(
        q0=q0,
        gamma=g,
        lambda0=lambda0,
        X=s.X,
        Delta=s.Delta,
        epsilon=s.epsilon,
        H=s.H,
        epsilon_user=epsilon_user,
    )


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
