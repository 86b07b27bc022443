"""Regularized values for the divergent series behind confined-field sums.

Two schemes are implemented.  Zeta continuation assigns declared series
shapes their analytically continued values: sum n^p -> zeta(-p), and the
position shape sum n cos(2 n theta) -> -1 / (4 sin^2 theta) that the
energy-density formulas consume.  The exponential cutoff multiplies terms
by e^(-eps n) and works with the resulting geometric closed forms, whose
eps -> 0 limits reproduce the continued values in the interior.
Richardson extrapolation ties the two schemes together numerically.

The continuation is deliberately pattern-based (declared series shapes
only); generic analytic continuation of arbitrary term functions is out
of scope.
"""

from __future__ import annotations

import functools
import math
import operator
from enum import Enum
from typing import Sequence

from . import specfun
from .errors import DomainError, PoleError, RangeError
from .record import Record

__all__ = [
    "RegKind",
    "RegScheme",
    "PowerSeriesSpec",
    "zeta_regularize_power",
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


# The smallest cutoff: below about 1e-77 the fourth power of 1 - e^(-eps)
# in the closed forms underflows, and they divide by zero or return inf.
_EPS_MIN = 1e-75


def _check_eps(eps: float) -> float:
    eps = float(eps)
    if not math.isfinite(eps) or eps <= 0.0:
        raise DomainError(f"epsilon must be finite and > 0, got {eps!r}")
    if eps < _EPS_MIN:
        raise DomainError(f"epsilon must be >= {_EPS_MIN!r}, got {eps!r}")
    return eps


class RegScheme(Record):
    """Which regularization defines a divergent sum.

    ``epsilon`` is present (and positive) exactly when ``kind`` is CUTOFF.
    """

    __slots__ = ("kind", "epsilon")

    def __init__(self, kind: RegKind, epsilon: float | None = None):
        if kind is RegKind.CUTOFF:
            if epsilon is None:
                raise DomainError("the cutoff scheme requires epsilon > 0")
            epsilon = _check_eps(epsilon)
        elif epsilon is not None:
            raise DomainError("epsilon is meaningful only for the cutoff scheme")
        set_kind, set_epsilon = self._setters
        set_kind(self, kind)
        set_epsilon(self, epsilon)

    @classmethod
    def zeta(cls) -> "RegScheme":
        return cls(RegKind.ZETA)

    @classmethod
    def cutoff(cls, epsilon: float) -> "RegScheme":
        return cls(RegKind.CUTOFF, epsilon)


class PowerSeriesSpec(Record):
    """The series scale * sum_{n>=1} n^exponent."""

    __slots__ = ("exponent", "scale")
    _defaults = {"scale": 1.0}

    def _validate(self):
        for name, setter in zip(self._fields, self._setters):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise DomainError(f"{name} must be finite, got {value!r}")
            setter(self, value)


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


def _sum_n_cos_continued(sin_theta):
    # sum n cos(2 n theta) -> -1 / (4 sin^2 theta); plain arithmetic, so a
    # float or a numpy array of sines works unchanged.
    return -0.25 * (1.0 / (sin_theta * sin_theta))


# --------------------------------------------------------------------------
# Exponential-cutoff scheme
# --------------------------------------------------------------------------


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
    theta = specfun._require_finite("theta", theta)
    if theta == 0.0 or theta == math.pi:
        return 0.0
    a = math.exp(-eps)
    s = math.sin(theta)
    denom = math.expm1(-eps) ** 2 + 4.0 * a * s * s
    return a * (2.0 * s * math.cos(theta)) / denom  # 2 theta overflows past 9e307


def abel_sum_sin_dtheta(eps: float, theta: float) -> float:
    """Analytic theta-derivative of :func:`abel_sum_sin`.

    Equals 2 sum_{n>=1} n e^(-eps n) cos(2 n theta); differentiating the
    closed form gives 2 a ((1 + a^2) cos(2 theta) - 2 a) / D^2 with
    a = e^(-eps) and D the abel_sum_sin denominator.  The numerator is
    evaluated as expm1(-eps)^2 - 2 (1 + a^2) sin^2(theta), which keeps
    its relative accuracy for small eps and theta at either wall.
    """
    eps = _check_eps(eps)
    return _abel_sin_dtheta(eps, math.sin(specfun._require_finite("theta", theta)))


def _abel_sin_dtheta(eps: float, sin_theta):
    # The closed form of abel_sum_sin_dtheta as plain arithmetic on sin(theta),
    # so a float or a numpy array works unchanged; cos(2 theta) = 1 - 2 sin^2.
    # Squares are products: numpy and Python's float ** differ in the last ulp.
    a, u = math.exp(-eps), math.expm1(-eps)
    s2 = sin_theta * sin_theta
    denom = u * u + 4.0 * a * s2
    return 2.0 * a * (u * u - 2.0 * (1.0 + a * a) * s2) / (denom * denom)


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


# The coefficient tables are built on first use, not at import, so the
# commands that never take a cutoff total do not pay for the Bernoulli numbers.
@functools.cache
def _linear_bulk_coeffs() -> tuple[float, ...]:
    # sum n e^(-eps n) - 1/eps^2 = -sum_{k>=1} (2k-1) B_{2k} eps^(2k-2) / (2k)!
    pairs = map(specfun._bernoulli_pair, range(2, 2 * _SUBTRACT_SERIES_TERMS + 1, 2))
    return tuple(
        -(2 * k - 1) * (p / q) / math.factorial(2 * k) for k, (p, q) in enumerate(pairs, 1)
    )


@functools.cache
def _quadratic_bulk_coeffs() -> tuple[float, ...]:
    # sum n^2 e^(-d n) - 2/d^3 = sum_{j>=2} (2j-1)(2j-2) B_{2j} d^(2j-3) / (2j)!
    pairs = map(specfun._bernoulli_pair, range(4, 2 * _SUBTRACT_SERIES_TERMS + 3, 2))
    return tuple(
        (2 * j - 1) * (2 * j - 2) * (p / q) / math.factorial(2 * j)
        for j, (p, q) in enumerate(pairs, 2)
    )


def _laurent(coeffs: tuple[float, ...], power: float, eps: float) -> float:
    # sum_k coeffs[k] power eps^(2k), term by term from the lowest power.
    total = 0.0
    for c in coeffs:
        total += c * power
        power *= eps * eps
    return total


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
    return _laurent(_linear_bulk_coeffs(), 1.0, eps)


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
    return _laurent(_quadratic_bulk_coeffs(), eps, eps)


# --------------------------------------------------------------------------
# Richardson extrapolation
# --------------------------------------------------------------------------


def _common_ratio(values: Sequence[float], what: str) -> float:
    """values[0] / values[1], which every ratio of neighbours must match to 1e-9."""
    ratio = values[0] / values[1]
    for a, b in zip(values[1:], values[2:]):
        if abs(a / b - ratio) > 1e-9 * ratio:
            raise DomainError(
                f"{what} must form a geometric sequence; ratios {ratio!r} and {a / b!r} differ"
            )
    return ratio


def richardson_extrapolate(
    samples: Sequence[tuple[float, float]], order: int
) -> tuple[float, float]:
    """Extrapolate samples (h, f(h)) to h -> 0.

    Assumes f(h) = f0 + c1 h^order + c2 h^(2 order) + ... and requires the
    h values to be strictly decreasing in a constant ratio, with at least
    order + 1 of them.  Returns (limit, error_estimate); the estimate is
    the difference between the last two extrapolation stages.  A sample
    that is not finite is a DomainError.  Where a stage overflows a double,
    the stages are redone on the samples scaled by an exact power of two
    (the largest below 1 in magnitude) and the results scaled back, so a
    limit and estimate that are normal doubles are still returned; one
    that is not, or a stage weight that overflows, is a RangeError.
    """
    if isinstance(order, bool) or not isinstance(order, int) or order < 1:
        raise DomainError(f"order must be a positive integer, got {order!r}")
    pts = [(float(h), float(v)) for h, v in samples]
    if len(pts) < order + 1:
        raise DomainError(
            f"need at least order + 1 = {order + 1} samples, got {len(pts)}"
        )
    # The checks run in their order of precedence, each as one pass of a builtin.
    hs, values = zip(*pts)
    if not all(map(math.isfinite, hs + values)):
        raise DomainError(f"samples must be finite, got {pts!r}")
    if min(hs) <= 0.0:
        raise DomainError("sample step sizes must be positive")
    if not all(map(operator.gt, hs, hs[1:])):
        raise DomainError("sample step sizes must be strictly decreasing")
    ratio = _common_ratio(hs, "sample step sizes")
    limit, error = _richardson_stages(values, ratio, order)
    if not math.isfinite(error):
        shift = max(math.frexp(v)[1] for v in values)
        limit, error = _richardson_stages([math.ldexp(v, -shift) for v in values], ratio, order)
        try:
            limit, error = math.ldexp(limit, shift), math.ldexp(error, shift)
        except OverflowError:
            error = math.inf
    if not math.isfinite(error):
        raise RangeError("the extrapolation's arithmetic overflows a double")
    return limit, error


def _richardson_stages(level: Sequence[float], ratio: float, order: int) -> tuple[float, float]:
    # The last stage's value and its distance from the stage before.
    previous_head = level[-1]
    stage = 1
    while len(level) > 1:
        try:
            mult = ratio ** (order * stage)
        except OverflowError:  # the stage weight itself leaves the doubles
            raise RangeError("the extrapolation's arithmetic overflows a double") from None
        level = [
            (mult * level[i + 1] - level[i]) / (mult - 1.0)
            for i in range(len(level) - 1)
        ]
        if len(level) > 1:
            previous_head = level[-1]
        stage += 1
    return level[0], abs(level[0] - previous_head)
