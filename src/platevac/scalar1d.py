"""Massless Dirichlet scalar field on an interval of length L.

Electric/magnetic vacuum-energy densities under both regularization
schemes, the total energy, the windows of the continued densities that
geometry.window_integral integrates, and the quartic-interaction
correction in the effective low-energy theory.

Conventions: modes phi_n(z) = sqrt(2/L) sin(omega_n z) with
omega_n = pi n / L.  The electric density is (1/2)<(d_t phi)^2>, the
magnetic density (1/2)<(d_z phi)^2>; their position-dependent parts are
exact negatives, so the sum is the constant -pi/(24 L^2), which is what
the total density returns.

Each quantity is one law, an entry of :data:`geometry.LAWS` that holds
its exact coefficient: the densities are a shape in sin(theta) at the
scale of "scalar density", the total a continued mode sum at the scale
of "scalar total", and the interaction's terms the "scalar correction"
laws.  The powers of L, m and alpha are applied once, to the
finished value; a result outside the normal doubles raises RangeError.
"""

from __future__ import annotations

import math
import warnings

from . import regsum, specfun
from .errors import DomainError, SingularityError
from .geometry import LAWS, Geometry, Position, check_position, law, scaled, summed
from .record import Record
from .regsum import PowerSeriesSpec, RegKind, RegScheme

__all__ = [
    "Couplings",
    "EnergySplit",
    "ValidityWarning",
    "ELECTRIC_WINDOW",
    "INTERACTING_WINDOW",
    "free_total_energy",
    "electric_density",
    "magnetic_density",
    "density_split",
    "correction_density",
    "interacting_density",
    "interacting_total_energy",
]


class ValidityWarning(UserWarning):
    """The effective-theory expansion parameter is not small."""


class Couplings(Record):
    """Quartic coupling alpha and heavy mass m of the effective theory."""

    __slots__ = ("alpha", "m")

    def _validate(self):
        alpha = float(self.alpha)
        m = float(self.m)
        if not math.isfinite(alpha) or alpha < 0.0:
            raise DomainError(f"alpha must be finite and >= 0, got {self.alpha!r}")
        if not math.isfinite(m) or m <= 0.0:
            raise DomainError(f"m must be finite and > 0, got {self.m!r}")
        set_alpha, set_m = self._setters
        set_alpha(self, alpha)
        set_m(self, m)


class EnergySplit(Record):
    """Electric, magnetic and total energy density at one position."""

    __slots__ = ("electric", "magnetic", "total")

    def __init__(self, electric: float, magnetic: float, total: float):
        scale = max(1.0, abs(electric), abs(magnetic))
        if abs(total - (electric + magnetic)) > 1e-12 * scale:
            raise DomainError("total must equal electric + magnetic")
        set_electric, set_magnetic, set_total = self._setters
        set_electric(self, electric)
        set_magnetic(self, magnetic)
        set_total(self, total)

    @classmethod
    def from_parts(cls, electric: float, magnetic: float) -> "EnergySplit":
        return cls(electric=electric, magnetic=magnetic, total=electric + magnetic)


# The continued densities over [delta, L - delta], as geometry.window_integral
# reads them: (law, terms, share).  The electric density's position part
# (pi/(16 L^2)) csc^2 and the interaction's -(alpha pi^2/(8 m^2 L^4)) csc^4
# integrate to their law times P_1(cot a) and P_2(cot a); their constant
# parts are half the free total and the whole interacting total, per length.
# Each window grows without bound as delta -> 0, where the totals are finite.
ELECTRIC_WINDOW = ("window divergence", ((1, 1),), 0.5)
INTERACTING_WINDOW = ("scalar correction window", ((1, 2),), 1.0)


def _warn_if_strong(c: Couplings, g: Geometry) -> None:
    # Validity regime of the effective theory; warn, don't reject.
    prefactor, exponent = law("validity ratio", g.length, c)
    ratio = math.ldexp(prefactor, exponent) if exponent < 1020 else math.inf
    if ratio > 0.1:
        warnings.warn(
            f"alpha/(m L)^2 = {ratio:.3g} exceeds 0.1; the lowest-order "
            "correction is outside its validity regime",
            ValidityWarning,
            stacklevel=3,
        )


# zeta(-1) = -1/12, the continued value of sum n, taken from the engine
# once rather than rebuilt from Bernoulli numbers at every point.
_ZETA_MINUS_ONE = specfun.riemann_zeta(-1.0)


def free_total_energy(g: Geometry) -> float:
    """Total vacuum energy of the free field: -pi/(24 L).

    The mode sum sum omega_n / 2 = (pi / 2L) sum n is routed through the
    continuation engine, which assigns sum n its value zeta(-1) = -1/12.
    """
    return scaled(*_free_total(g.length), "the free total", g.length)


def _free_total(length: float) -> tuple[float, int]:
    # The free total at L as (value, exponent), worth value * 2**exponent.
    scale, exponent = law("scalar total", length)
    return regsum.zeta_regularize_power(PowerSeriesSpec(exponent=1.0, scale=scale)), exponent


def _laws(g: Geometry, scheme: RegScheme, c: Couplings | None, sin_theta) -> tuple:
    # The density laws at L as (value, exponent) pairs, worth value * 2**exponent,
    # in plain arithmetic on a validated sin(theta) (a float, or an array of
    # them): the electric and magnetic densities (pi/(4 L^2)) [sum n -/+ sum n
    # cos(2 n theta)] in ``scheme``; the total -pi/(24 L^2), to which their
    # position terms cancel; with couplings, the correction
    # -(alpha pi^2 / (8 m^2 L^4)) (1/18 + 1/sin^4 theta).  Nothing here
    # raises: a caller puts only the laws it returns through scaled.
    scale, exponent = law("scalar density", g.length)
    constant = scale * _ZETA_MINUS_ONE
    if scheme.kind is RegKind.ZETA:
        position_part = scale * regsum._sum_n_cos_continued(sin_theta)
    else:
        # sum n e^(-eps n) cos(2 n theta) is half the theta-derivative of
        # the cutoff sine sum, taken analytically on the closed form.
        position_part = scale * 0.5 * regsum._abel_sin_dtheta(scheme.epsilon, sin_theta)
    laws = ((constant - position_part, exponent), (constant + position_part, exponent),
            (2.0 * constant, exponent))
    if c is not None:
        correction, correction_exponent = law("scalar correction density", g.length, c)
        r, s = LAWS["scalar correction density"][4]
        csc2 = 1.0 / (sin_theta * sin_theta)
        laws += (correction * (r / s + csc2 * csc2), correction_exponent),
    return laws


def _split_at(g: Geometry, pos: Position, scheme: RegScheme) -> tuple[float, float, float]:
    check_position(g, pos)
    sin_theta = pos.sin_theta
    if scheme.kind is RegKind.ZETA:
        if not pos.interior:
            raise SingularityError(
                "the continued density diverges on the walls; evaluate the "
                "cutoff scheme there instead"
            )
        specfun.check_sine(sin_theta, pos.theta)
    (electric, exponent), (magnetic, _), (total, _) = _laws(g, scheme, None, sin_theta)
    return (scaled(electric, exponent, "the electric density", g.length),
            scaled(magnetic, exponent, "the magnetic density", g.length),
            scaled(total, exponent, "the total density", g.length))


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
    """Electric and magnetic densities bundled with their sum.

    The total is the constant -pi/(24 L^2), not the sum of the parts:
    their position terms cancel analytically.
    """
    return EnergySplit(*_split_at(g, pos, scheme))


def _interacting_at(g: Geometry, pos: Position, c: Couplings) -> tuple[tuple[float, int], ...]:
    # (value, exponent) of the free constant and the correction at a validated pos.
    if not pos.interior:
        raise SingularityError("the interaction correction diverges on the walls")
    sin_theta = specfun.check_sine(pos.sin_theta, pos.theta)
    return _laws(g, RegScheme.zeta(), c, sin_theta)[2:]


def correction_density(g: Geometry, pos: Position, c: Couplings) -> float:
    """The quartic interaction's correction to the density, continued scheme.

    -(alpha pi^2 / (8 m^2 L^4)) (1/18 + 1/sin^4 theta), one law rather
    than a difference of two densities.  Diverges like 1/sin^4 near the
    walls.
    """
    check_position(g, pos)
    _warn_if_strong(c, g)
    _, (value, exponent) = _interacting_at(g, pos, c)
    return scaled(value, exponent, "the correction density", g.length)


def interacting_density(g: Geometry, pos: Position, c: Couplings) -> float:
    """Vacuum energy density with the quartic interaction, continued scheme.

    -pi/(24 L^2) - (alpha pi^2 / (8 m^2 L^4)) (1/18 + 1/sin^4 theta): the
    free constant plus :func:`correction_density`.  Diverges like
    1/sin^4 near the walls.
    """
    check_position(g, pos)
    _warn_if_strong(c, g)
    return summed("the interacting density", g.length, *_interacting_at(g, pos, c))


def interacting_total_energy(g: Geometry, c: Couplings) -> float:
    """Total vacuum energy with the quartic interaction.

    -pi/(24 L) - alpha pi^2 / (144 m^2 L^3).  The correction equals L
    times the constant part of the interacting density (1/8 * 1/18 =
    1/144 exactly, which the ``verify`` suite checks on
    :data:`geometry.LAWS`), while the integrated position-dependent part is
    the series sum n^2, which the engine assigns zeta(-2) = 0.  Either law
    may underflow where the total is a normal double.
    """
    _warn_if_strong(c, g)
    free = _free_total(g.length)
    scale, exponent = law("scalar correction total", g.length, c)
    r, s = LAWS["scalar correction total"][4]
    divergent_part = regsum.zeta_regularize_power(PowerSeriesSpec(exponent=2.0, scale=scale))
    return summed("the interacting total", g.length, free,
                  (scale * (r / s), exponent), (divergent_part, exponent))
