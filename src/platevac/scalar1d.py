"""Massless Dirichlet scalar field on an interval of length L.

Mode data, electric/magnetic vacuum-energy densities under both
regularization schemes, total energies both ways around the
integration/regularization order, and the quartic-interaction correction
in the effective low-energy theory.

Conventions: modes phi_n(z) = sqrt(2/L) sin(omega_n z) with
omega_n = pi n / L.  The electric density is (1/2)<(d_t phi)^2>, the
magnetic density (1/2)<(d_z phi)^2>; their position-dependent parts are
exact negatives, so the sum is the constant -pi/(24 L^2).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from . import regsum, specfun
from .errors import DomainError, SingularityError
from .geometry import Geometry, Position, check_position
from .regsum import PowerSeriesSpec, RegKind, RegScheme

__all__ = [
    "Mode",
    "Couplings",
    "EnergySplit",
    "Route",
    "WindowIntegral",
    "ValidityWarning",
    "mode",
    "mode_function",
    "free_total_energy",
    "electric_density",
    "magnetic_density",
    "density_split",
    "total_energy_by_route",
    "interacting_density",
    "interacting_total_energy",
]


class ValidityWarning(UserWarning):
    """The effective-theory expansion parameter is not small."""


@dataclass(frozen=True)
class Mode:
    """Eigenmode index and frequency omega_n = pi n / L."""

    n: int
    omega: float

    def __post_init__(self):
        if isinstance(self.n, bool) or not isinstance(self.n, int) or self.n < 1:
            raise DomainError(f"mode index must be a positive integer, got {self.n!r}")


@dataclass(frozen=True)
class Couplings:
    """Quartic coupling alpha and heavy mass m of the effective theory."""

    alpha: float
    m: float

    def __post_init__(self):
        alpha = float(self.alpha)
        m = float(self.m)
        if not math.isfinite(alpha) or alpha < 0.0:
            raise DomainError(f"alpha must be finite and >= 0, got {self.alpha!r}")
        if not math.isfinite(m) or m <= 0.0:
            raise DomainError(f"m must be finite and > 0, got {self.m!r}")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "m", m)


@dataclass(frozen=True)
class EnergySplit:
    """Electric, magnetic and total energy density at one position."""

    electric: float
    magnetic: float
    total: float

    def __post_init__(self):
        scale = max(1.0, abs(self.electric), abs(self.magnetic))
        if abs(self.total - (self.electric + self.magnetic)) > 1e-12 * scale:
            raise DomainError("total must equal electric + magnetic")

    @classmethod
    def from_parts(cls, electric: float, magnetic: float) -> "EnergySplit":
        return cls(electric=electric, magnetic=magnetic, total=electric + magnetic)


class Route(Enum):
    SUM_THEN_REGULARIZE = "sum_then_regularize"
    INTEGRATE_REGULARIZED_DENSITY = "integrate_regularized_density"


@dataclass(frozen=True)
class WindowIntegral:
    """Integral of the continued electric density over [delta, L - delta].

    ``value`` is the exact antiderivative cot(a)/(8 L) - (pi - 2a)/(48 L)
    with a = pi delta / L.  ``divergent_estimate`` is its leading boundary
    term cot(a) / (8 L); the integral grows with it as delta -> 0, which
    is the order-of-limits clash in one number.
    """

    value: float
    delta: float
    divergent_estimate: float


def _warn_if_strong(c: Couplings, g: Geometry) -> None:
    # Validity regime of the effective theory; warn, don't reject.
    ratio = c.alpha / (c.m * g.length) ** 2
    if ratio > 0.1:
        warnings.warn(
            f"alpha/(m L)^2 = {ratio:.3g} exceeds 0.1; the lowest-order "
            "correction is outside its validity regime",
            ValidityWarning,
            stacklevel=3,
        )


def mode(n: int, g: Geometry) -> Mode:
    """Mode n with frequency omega_n = pi n / L."""
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise DomainError(f"mode index must be a positive integer, got {n!r}")
    return Mode(n=n, omega=math.pi * n / g.length)


def mode_function(m: Mode, g: Geometry, pos: Position) -> float:
    """Normalized mode amplitude sqrt(2/L) sin(omega_n z).

    Exactly zero on the walls (Dirichlet condition); the sine argument is
    reduced through sin_pi so large n costs no accuracy.
    """
    check_position(g, pos)
    return math.sqrt(2.0 / g.length) * specfun.sin_pi(m.n * pos.z / g.length)


# zeta(-1) = -1/12, the continued value of sum n, taken from the engine
# once rather than rebuilt from Bernoulli numbers at every point.
_ZETA_MINUS_ONE = specfun.riemann_zeta(-1.0)


def free_total_energy(g: Geometry) -> float:
    """Total vacuum energy of the free field: -pi/(24 L).

    The mode sum sum omega_n / 2 = (pi / 2L) sum n is routed through the
    continuation engine, which assigns sum n its value zeta(-1) = -1/12.
    """
    series = PowerSeriesSpec(exponent=1.0, scale=math.pi / (2.0 * g.length))
    return regsum.zeta_regularize_power(series)


def _split(length: float, scheme: RegScheme, sin_theta, cos_2theta):
    # (electric, magnetic) as plain arithmetic on sin(theta) and cos(2 theta):
    # a float or a numpy array works unchanged.  Both densities are
    # (pi/(4 L^2)) [sum n -/+ sum n cos(2 n theta)], electric taking the minus.
    # The caller validates the positions (zeta: strictly inside the walls).
    ll = length * length
    constant = (math.pi / (4.0 * ll)) * _ZETA_MINUS_ONE
    if scheme.kind is RegKind.ZETA:
        position_part = (math.pi / (4.0 * ll)) * regsum._sum_n_cos_continued(sin_theta)
    else:
        # sum n e^(-eps n) cos(2 n theta) is half the theta-derivative of
        # the cutoff sine sum, taken analytically on the closed form.
        position_part = (math.pi / (8.0 * ll)) * regsum._abel_sin_dtheta(
            scheme.epsilon, sin_theta, cos_2theta
        )
    return constant - position_part, constant + position_part


def _split_at(g: Geometry, pos: Position, scheme: RegScheme) -> tuple[float, float]:
    check_position(g, pos)
    if scheme.kind is RegKind.ZETA and not pos.interior:
        raise SingularityError(
            "the continued density diverges on the walls; evaluate the "
            "cutoff scheme there instead"
        )
    return _split(g.length, scheme, math.sin(pos.theta), math.cos(2.0 * pos.theta))


def electric_density(g: Geometry, pos: Position, scheme: RegScheme) -> float:
    """Electric part (1/2)<(d_t phi)^2> of the vacuum energy density.

    Continued scheme: -(pi/(16 L^2)) (1/3 - 1/sin^2 theta), interior only.
    Cutoff scheme: -pi/(48 L^2) - (pi/(8 L^2)) dS(eps, theta)/dtheta,
    defined on the closed interval.
    """
    return _split_at(g, pos, scheme)[0]


def magnetic_density(g: Geometry, pos: Position, scheme: RegScheme) -> float:
    """Magnetic part (1/2)<(d_z phi)^2> of the vacuum energy density.

    Continued scheme: -(pi/(16 L^2)) (1/3 + 1/sin^2 theta).  The position
    dependence is the exact negative of the electric one.
    """
    return _split_at(g, pos, scheme)[1]


def density_split(g: Geometry, pos: Position, scheme: RegScheme) -> EnergySplit:
    """Electric and magnetic densities bundled with their sum."""
    electric, magnetic = _split_at(g, pos, scheme)
    return EnergySplit.from_parts(electric=electric, magnetic=magnetic)


def total_energy_by_route(
    g: Geometry,
    route: Route,
    scheme: RegScheme | None = None,
    delta: float | None = None,
):
    """Total energy, taking regularization and integration in either order.

    SUM_THEN_REGULARIZE integrates mode by mode first (the position terms
    drop out exactly) and regularizes the remaining sum n: the finite
    -pi/(24 L).  Under the cutoff scheme the same route returns the bulk
    subtracted cutoff total, which approaches that value as eps^2.

    INTEGRATE_REGULARIZED_DENSITY instead integrates the continued
    electric density over [delta, L - delta] in closed form and returns a
    :class:`WindowIntegral`; the result grows like cot(pi delta / L) and
    has no delta -> 0 limit.  delta = 0 is rejected with that diagnosis
    rather than attempted.
    """
    if scheme is None:
        scheme = RegScheme.zeta()
    if route is Route.SUM_THEN_REGULARIZE:
        if scheme.kind is RegKind.ZETA:
            return free_total_energy(g)
        return (math.pi / (2.0 * g.length)) * regsum.abel_sum_linear_minus_bulk(
            scheme.epsilon
        )
    if route is not Route.INTEGRATE_REGULARIZED_DENSITY:
        raise DomainError(f"unknown route {route!r}")
    if scheme.kind is not RegKind.ZETA:
        raise DomainError(
            "the window integral probes the continued density; use the zeta scheme"
        )
    if delta is None:
        raise DomainError("the window integral requires a boundary margin delta")
    delta = float(delta)
    if delta == 0.0:
        raise SingularityError(
            "the continued electric density integrates to cot(pi delta / L)/(8 L) "
            "+ finite as delta -> 0; the full-interval integral diverges"
        )
    if not math.isfinite(delta) or delta < 0.0 or delta >= 0.5 * g.length:
        raise DomainError(f"delta must lie in (0, L/2), got {delta!r}")

    a = math.pi * delta / g.length
    # The 1/sin^2 part of the density integrates to cot(a)/(8 L), its
    # constant part -pi/(48 L^2) over the window length L - 2 delta.
    estimate = specfun.cot(a) / (8.0 * g.length)
    value = estimate - (math.pi - 2.0 * a) / (48.0 * g.length)
    return WindowIntegral(value=value, delta=delta, divergent_estimate=estimate)


# Constant part of the interaction correction: the coefficient 1/8 * 1/18
# must reduce to 1/144 for the density and total-energy forms to agree.
_INTERACTION_CONSTANT = Fraction(1, 8) * Fraction(1, 18)
if _INTERACTION_CONSTANT != Fraction(1, 144):
    raise AssertionError("interaction constant-part identity 8 * 18 = 144 broken")


def interacting_density(g: Geometry, pos: Position, c: Couplings) -> float:
    """Vacuum energy density with the quartic interaction, continued scheme.

    -pi/(24 L^2) - (alpha pi^2 / (8 m^2 L^4)) (1/18 + 1/sin^4 theta).
    Diverges like 1/sin^4 near the walls.
    """
    check_position(g, pos)
    _warn_if_strong(c, g)
    if not pos.interior:
        raise SingularityError("the interaction correction diverges on the walls")
    return _interacting(g.length, c, math.sin(pos.theta))


def _interaction_prefactor(length: float, c: Couplings) -> float:
    return -c.alpha * math.pi ** 2 / (8.0 * c.m ** 2 * length ** 4)


def _free_constant(length: float) -> float:
    # free_total_energy / L from the hoisted zeta(-1), bit for bit.
    return (math.pi / (2.0 * length)) * _ZETA_MINUS_ONE / length


def _interacting(length: float, c: Couplings, sin_theta):
    # interacting_density as plain arithmetic on sin(theta); the caller
    # validates the positions (strictly inside the walls) and warns.
    csc2 = 1.0 / (sin_theta * sin_theta)
    prefactor = _interaction_prefactor(length, c)
    return _free_constant(length) + prefactor * (1.0 / 18.0 + csc2 * csc2)


def interacting_total_energy(g: Geometry, c: Couplings) -> float:
    """Total vacuum energy with the quartic interaction.

    -pi/(24 L) - alpha pi^2 / (144 m^2 L^3).  The correction equals L
    times the constant part of the interacting density (1/8 * 1/18 =
    1/144 exactly), while the integrated position-dependent part is the
    series sum n^2, which the engine assigns zeta(-2) = 0.
    """
    _warn_if_strong(c, g)
    free = free_total_energy(g)
    scale = c.alpha * math.pi ** 2 / (c.m ** 2 * g.length ** 3)
    correction = -scale * float(_INTERACTION_CONSTANT)
    divergent_part = regsum.zeta_regularize_power(
        PowerSeriesSpec(exponent=2.0, scale=-scale)
    )
    if divergent_part != 0.0:
        raise AssertionError("sum n^2 must regularize to exactly zero")
    return free + correction + divergent_part
