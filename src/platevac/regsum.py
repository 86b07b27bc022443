"""Regularized values for the divergent series behind confined-field sums.

Two schemes are implemented.  Zeta continuation assigns declared series
shapes their analytically continued values: sum n^p -> zeta(-p), plus the
trigonometric shapes sum n^p sin/cos(2 n theta) for p in {0, 1} that the
energy-density formulas consume.  The exponential cutoff multiplies terms
by e^(-eps n) and works with the resulting geometric closed forms, whose
eps -> 0 limits reproduce the continued values in the interior.
Richardson extrapolation ties the two schemes together numerically.

The continuation is deliberately pattern-based (declared series shapes
only); generic analytic continuation of arbitrary term functions is out
of scope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from . import specfun
from .errors import DomainError, PoleError

__all__ = [
    "RegKind",
    "RegScheme",
    "PowerSeriesSpec",
    "TrigFlavor",
    "TrigSeriesSpec",
    "zeta_regularize_power",
    "zeta_regularize_trig",
    "abel_sum_sin",
    "abel_sum_sin_dtheta",
    "abel_sum_sin_limit",
    "abel_sum_linear",
    "abel_sum_linear_minus_bulk",
    "abel_sum_quadratic",
    "abel_sum_quadratic_minus_bulk",
    "richardson_extrapolate",
]

# Default tolerances for "agreement" between the two schemes.  Closed-form
# comparisons are held to the first, extrapolated limits to the second.
CLOSED_FORM_RTOL = 1e-10
EXTRAPOLATED_RTOL = 1e-6


class RegKind(Enum):
    ZETA = "zeta"
    CUTOFF = "cutoff"


@dataclass(frozen=True)
class RegScheme:
    """Which regularization defines a divergent sum.

    ``epsilon`` is present (and positive) exactly when ``kind`` is CUTOFF.
    """

    kind: RegKind
    epsilon: float | None = None

    def __post_init__(self):
        if self.kind is RegKind.CUTOFF:
            if self.epsilon is None:
                raise DomainError("the cutoff scheme requires epsilon > 0")
            eps = float(self.epsilon)
            if not math.isfinite(eps) or eps <= 0.0:
                raise DomainError(f"epsilon must be finite and > 0, got {self.epsilon!r}")
            object.__setattr__(self, "epsilon", eps)
        elif self.epsilon is not None:
            raise DomainError("epsilon is meaningful only for the cutoff scheme")

    @classmethod
    def zeta(cls) -> "RegScheme":
        return cls(RegKind.ZETA)

    @classmethod
    def cutoff(cls, epsilon: float) -> "RegScheme":
        return cls(RegKind.CUTOFF, epsilon)


@dataclass(frozen=True)
class PowerSeriesSpec:
    """The series scale * sum_{n>=1} n^exponent."""

    exponent: float
    scale: float = 1.0

    def __post_init__(self):
        for name in ("exponent", "scale"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise DomainError(f"{name} must be finite, got {value!r}")
            object.__setattr__(self, name, value)


class TrigFlavor(Enum):
    SIN = "sin"
    COS = "cos"


@dataclass(frozen=True)
class TrigSeriesSpec:
    """The series sum_{n>=1} n^weight_power * sin(2 n theta) (or cos).

    The harmonic multiplier is fixed at 2; weight powers 0 and 1 are the
    shapes the density formulas need and the only ones supported.
    """

    theta: float
    flavor: TrigFlavor
    weight_power: int = 0

    def __post_init__(self):
        theta = float(self.theta)
        if not math.isfinite(theta):
            raise DomainError(f"theta must be finite, got {self.theta!r}")
        object.__setattr__(self, "theta", theta)
        if self.weight_power not in (0, 1):
            raise DomainError(
                f"weight_power must be 0 or 1, got {self.weight_power!r}"
            )


# --------------------------------------------------------------------------
# Zeta-continuation scheme
# --------------------------------------------------------------------------


def zeta_regularize_power(spec: PowerSeriesSpec) -> float:
    """Continued value scale * zeta(-p) of the series scale * sum n^p."""
    if spec.exponent == -1.0:
        raise PoleError(
            "sum 1/n is the harmonic series; zeta(1) is a pole and the "
            "continuation assigns no finite value"
        )
    return spec.scale * specfun.riemann_zeta(-spec.exponent)


def zeta_regularize_trig(spec: TrigSeriesSpec) -> float:
    """Continued value of a declared trigonometric series shape.

    These are the Abel limits of the cutoff closed forms and coincide with
    the zeta-scheme assignments:

      sum sin(2 n theta)      ->  cot(theta) / 2
      sum cos(2 n theta)      ->  -1/2
      sum n sin(2 n theta)    ->  0
      sum n cos(2 n theta)    ->  -1 / (4 sin^2 theta)

    The theta-dependent shapes require theta strictly inside (0, pi).
    """
    theta, flavor, p = spec.theta, spec.flavor, spec.weight_power
    if flavor is TrigFlavor.SIN and p == 0:
        return 0.5 * specfun.cot(theta)
    if flavor is TrigFlavor.COS and p == 0:
        return -0.5
    if flavor is TrigFlavor.SIN and p == 1:
        specfun.require_interior_angle(theta)
        return 0.0
    # COS, p == 1
    return _sum_n_cos_continued(math.sin(specfun.require_interior_angle(theta)))


def _sum_n_cos_continued(sin_theta):
    # sum n cos(2 n theta) -> -1 / (4 sin^2 theta); plain arithmetic, so a
    # float or a numpy array of sines works unchanged.
    return -0.25 * (1.0 / (sin_theta * sin_theta))


# --------------------------------------------------------------------------
# Exponential-cutoff scheme
# --------------------------------------------------------------------------


def _check_eps(eps: float) -> float:
    eps = float(eps)
    if not math.isfinite(eps) or eps <= 0.0:
        raise DomainError(f"eps must be finite and > 0, got {eps!r}")
    return eps


def abel_sum_sin(eps: float, theta: float) -> float:
    """sum_{n>=1} e^(-eps n) sin(2 n theta), by its geometric closed form.

    The closed form

        e^(-eps) sin(2 theta) / (1 - 2 e^(-eps) cos(2 theta) + e^(-2 eps))

    is evaluated with the denominator rearranged as
    expm1(-eps)^2 + 4 e^(-eps) sin^2(theta), which stays well conditioned
    for small eps.  theta = 0 and theta = pi return exactly 0.0, matching
    the term-by-term zeros of the series.
    """
    eps = _check_eps(eps)
    theta = float(theta)
    if theta == 0.0 or theta == math.pi:
        return 0.0
    a = math.exp(-eps)
    s = math.sin(theta)
    denom = math.expm1(-eps) ** 2 + 4.0 * a * s * s
    return a * math.sin(2.0 * theta) / denom


def abel_sum_sin_dtheta(eps: float, theta: float) -> float:
    """Analytic theta-derivative of :func:`abel_sum_sin`.

    Equals 2 sum_{n>=1} n e^(-eps n) cos(2 n theta); differentiating the
    closed form gives 2 a ((1 + a^2) cos(2 theta) - 2 a) / D^2 with
    a = e^(-eps) and D the abel_sum_sin denominator.
    """
    eps = _check_eps(eps)
    theta = float(theta)
    return _abel_sin_dtheta(eps, math.sin(theta), math.cos(2.0 * theta))


def _abel_sin_dtheta(eps: float, sin_theta, cos_2theta):
    # The closed form of abel_sum_sin_dtheta as plain arithmetic on sin(theta)
    # and cos(2 theta), so a float or a numpy array works unchanged.  The
    # square is a product: numpy and Python's float ** differ in the last ulp.
    a = math.exp(-eps)
    denom = math.expm1(-eps) ** 2 + 4.0 * a * sin_theta * sin_theta
    return 2.0 * a * ((1.0 + a * a) * cos_2theta - 2.0 * a) / (denom * denom)


def abel_sum_sin_limit(theta: float) -> float:
    """eps -> 0 limit of :func:`abel_sum_sin`: cot(theta) / 2.

    This is simultaneously the zeta-scheme value of sum sin(2 n theta).
    Diverges at the endpoints, where the cutoff sum instead vanishes; the
    clash between the two is precisely the boundary ambiguity the schemes
    disagree about.
    """
    return 0.5 * specfun.cot(theta)


def abel_sum_linear(eps: float) -> float:
    """sum_{n>=1} n e^(-eps n) = e^(-eps) / (1 - e^(-eps))^2.

    Diverges as 1/eps^2 - 1/12 + O(eps^2) for eps -> 0; the -1/12 is the
    zeta-scheme value of sum n once the boundary-independent 1/eps^2 bulk
    piece is removed.
    """
    eps = _check_eps(eps)
    u = -math.expm1(-eps)  # 1 - e^(-eps), fully accurate for small eps
    return math.exp(-eps) / (u * u)


_SUBTRACT_SERIES_TERMS = 14
_SUBTRACT_SERIES_RADIUS = 1.0

# Coefficient tables are swapped in whole so concurrent callers never see a
# partially built one.
_linear_coeffs: tuple[float, ...] | None = None
_quadratic_coeffs: tuple[float, ...] | None = None


def _linear_bulk_coeffs() -> tuple[float, ...]:
    # sum n e^(-eps n) - 1/eps^2 = -sum_{k>=1} (2k-1) B_{2k} eps^(2k-2) / (2k)!
    global _linear_coeffs
    coeffs = _linear_coeffs
    if coeffs is None:
        coeffs = tuple(
            -(2 * k - 1) * float(specfun.bernoulli(2 * k)) / math.factorial(2 * k)
            for k in range(1, _SUBTRACT_SERIES_TERMS + 1)
        )
        _linear_coeffs = coeffs
    return coeffs


def _quadratic_bulk_coeffs() -> tuple[float, ...]:
    # sum n^2 e^(-d n) - 2/d^3 = sum_{j>=2} (2j-1)(2j-2) B_{2j} d^(2j-3) / (2j)!
    global _quadratic_coeffs
    coeffs = _quadratic_coeffs
    if coeffs is None:
        coeffs = tuple(
            (2 * j - 1) * (2 * j - 2) * float(specfun.bernoulli(2 * j)) / math.factorial(2 * j)
            for j in range(2, _SUBTRACT_SERIES_TERMS + 2)
        )
        _quadratic_coeffs = coeffs
    return coeffs


def abel_sum_linear_minus_bulk(eps: float) -> float:
    """abel_sum_linear(eps) - 1/eps^2, evaluated without cancellation.

    The direct difference loses all precision for small eps (two 1/eps^2
    sized terms cancelling to O(1)), so below eps = 1 the Laurent series
    -1/12 + eps^2/240 - ... is summed instead; its coefficients come from
    the Bernoulli numbers.
    """
    eps = _check_eps(eps)
    if eps > _SUBTRACT_SERIES_RADIUS:
        return abel_sum_linear(eps) - 1.0 / (eps * eps)
    total = 0.0
    power = 1.0
    for c in _linear_bulk_coeffs():
        total += c * power
        power *= eps * eps
    return total


def abel_sum_quadratic(eps: float) -> float:
    """sum_{n>=1} n^2 e^(-eps n) = e^(-eps) (1 + e^(-eps)) / (1 - e^(-eps))^3.

    Diverges as 2/eps^3 for eps -> 0 with the finite remainder tending to
    0, the cutoff-scheme counterpart of zeta(-2) = 0.
    """
    eps = _check_eps(eps)
    a = math.exp(-eps)
    u = -math.expm1(-eps)
    return a * (1.0 + a) / (u * u * u)


def abel_sum_quadratic_minus_bulk(eps: float) -> float:
    """abel_sum_quadratic(eps) - 2/eps^3, evaluated without cancellation.

    Series -eps/120 + O(eps^3) below eps = 1, direct difference above.
    The eps -> 0 limit being 0 mirrors zeta(-2) = 0.
    """
    eps = _check_eps(eps)
    if eps > _SUBTRACT_SERIES_RADIUS:
        return abel_sum_quadratic(eps) - 2.0 / (eps * eps * eps)
    total = 0.0
    power = eps
    for c in _quadratic_bulk_coeffs():
        total += c * power
        power *= eps * eps
    return total


# --------------------------------------------------------------------------
# Richardson extrapolation
# --------------------------------------------------------------------------


def richardson_extrapolate(
    samples: Sequence[tuple[float, float]], order: int
) -> tuple[float, float]:
    """Extrapolate samples (h, f(h)) to h -> 0.

    Assumes f(h) = f0 + c1 h^order + c2 h^(2 order) + ... and requires the
    h values to be strictly decreasing in a constant ratio, with at least
    order + 1 of them.  Returns (limit, error_estimate); the estimate is
    the difference between the last two extrapolation stages.
    """
    if isinstance(order, bool) or not isinstance(order, int) or order < 1:
        raise DomainError(f"order must be a positive integer, got {order!r}")
    pts = [(float(h), float(v)) for h, v in samples]
    if len(pts) < order + 1:
        raise DomainError(
            f"need at least order + 1 = {order + 1} samples, got {len(pts)}"
        )
    hs = [h for h, _ in pts]
    if any(h <= 0.0 for h in hs):
        raise DomainError("sample step sizes must be positive")
    if any(hs[i + 1] >= hs[i] for i in range(len(hs) - 1)):
        raise DomainError("sample step sizes must be strictly decreasing")
    ratio = hs[0] / hs[1]
    for i in range(1, len(hs) - 1):
        r = hs[i] / hs[i + 1]
        if abs(r - ratio) > 1e-9 * ratio:
            raise DomainError(
                "sample step sizes must form a geometric sequence; "
                f"ratios {ratio!r} and {r!r} differ"
            )
    level = [v for _, v in pts]
    previous_head = level[-1]
    stage = 1
    while len(level) > 1:
        mult = ratio ** (order * stage)
        level = [
            (mult * level[i + 1] - level[i]) / (mult - 1.0)
            for i in range(len(level) - 1)
        ]
        if len(level) > 1:
            previous_head = level[-1]
        stage += 1
    return level[0], abs(level[0] - previous_head)
