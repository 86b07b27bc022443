"""Electromagnetic field between parallel conducting plates.

Field-strength correlators and the profile function carrying their
position dependence, the free Casimir energy density and force, the
lowest-order four-photon (Euler-Heisenberg type) correction to the
density, the corrected total energy per unit plate area, and the thermal
mapping L -> 1/(2T).

All outputs for 3-d quantities are per unit plate area (totals) or per
unit volume (densities), in natural units.

Each quantity is one law, an entry of :data:`geometry.LAWS` that holds
its exact coefficient: the halves of the correlators are a shape in the
profile F at the scale of "em correlator", the free density, total and
force are constants, and the correction is 11/225 + 9 F^2 at the scale
of "eh density", or its constant part at "eh total".  The powers of L,
m and alpha are applied once, to the finished value; a result outside
the normal doubles raises RangeError.  The density total is the free
constant, to which the profile cancels.
"""

from __future__ import annotations

import math

from .errors import DomainError, PlatevacError
from .geometry import LAWS, Geometry, Position, check_position, law, scaled, summed
from .record import Record
from .regsum import RegKind, RegScheme
from .scalar1d import Couplings, EnergySplit
from . import specfun

__all__ = [
    "FINE_STRUCTURE_ALPHA",
    "CorrelatorPair",
    "EhCouplings",
    "profile_F",
    "profile_F_via_cot_derivative",
    "correlators",
    "near_plate_asymptotics",
    "free_casimir_density",
    "casimir_force_per_area",
    "eh_correction_density",
    "eh_correction_constant",
    "corrected_total_energy",
    "thermal_free_energy_density",
    "density_split",
]

FINE_STRUCTURE_ALPHA = 1.0 / 137.035999


class CorrelatorPair(Record):
    """Squared-field expectation values <E^2> and <B^2>, units 1/length^4."""

    __slots__ = ("e2", "b2")


class EhCouplings(Couplings):
    """:class:`scalar1d.Couplings` with the electromagnetic defaults.

    Fine-structure-like coupling and electron-like mass: by default the
    physical fine-structure constant and a unit mass in natural units;
    alpha = 0 is allowed and decouples the correction.  Validation is the
    base class's; every function here accepts any :class:`Couplings`.
    """

    __slots__ = ()
    _defaults = {"alpha": FINE_STRUCTURE_ALPHA, "m": 1.0}


def profile_F(theta: float) -> float:
    """Position profile of the fluctuations: 3/sin^4(theta) - 2/sin^2(theta).

    Interior only; at least 1 everywhere, with the minimum exactly 1 at
    theta = pi/2.
    """
    theta = specfun.require_interior_angle(theta)
    return scaled(_profile(specfun.check_sine(math.sin(theta), theta)), 0, "the profile F", theta,
                  "theta")


def _profile(sin_theta):
    # profile_F as plain arithmetic on sin(theta): a float or a numpy array.
    c2 = 1.0 / (sin_theta * sin_theta)
    return (3.0 * c2 - 2.0) * c2


def _sine_at(g: Geometry, pos: Position) -> float:
    # sin(theta) at a validated interior position, for _laws.
    check_position(g, pos)
    return specfun.check_sine(pos.sin_theta, specfun.require_interior_angle(pos.theta))


def _laws(g: Geometry, c: Couplings | None, sin_theta) -> tuple:
    # The density laws at L as (value, exponent) pairs, worth value * 2**exponent,
    # in plain arithmetic on a validated sin(theta) (a float, or an array of
    # them) through the profile F: <E^2>/2 and <B^2>/2 of
    # -(pi^2/(16 L^4)) (1/45 -/+ F); with couplings, the correction
    # -(alpha^2 pi^4 / (2^7 3^3 5 m^4 L^8)) (11/225 + 9 F^2).  Nothing here
    # raises: a caller puts only the laws it returns through scaled.
    f_value = _profile(sin_theta)
    scale, exponent = law("em correlator", g.length)
    laws = ((0.5 * (-scale * (1.0 / 45.0 - f_value)), exponent),
            (0.5 * (-scale * (1.0 / 45.0 + f_value)), exponent))
    if c is not None:
        scale, exponent = law("eh density", g.length, c)
        r, s = LAWS["eh density"][4]
        laws += (scale * (r / s) + scale * 9.0 * f_value * f_value, exponent),
    return laws


def profile_F_via_cot_derivative(theta: float) -> float:
    """The same profile as -(1/2) d^3 cot(theta)/dtheta^3.

    The third derivative is carried out symbolically, giving
    2 cot^2/sin^2 + 1/sin^4; an independent floating-point route to
    :func:`profile_F` for cross-checking.
    """
    ct = specfun.cot(theta)
    c2 = specfun.csc2(theta)
    return scaled(2.0 * ct * ct * c2 + c2 * c2, 0, "the profile F", theta, "theta")


def correlators(g: Geometry, pos: Position) -> CorrelatorPair:
    """<E^2> and <B^2> between the plates.

    <E^2> = -(pi^2/(16 L^4)) (1/45 - F(theta)) and <B^2> the same with
    +F.  The profile cancels in (e2 + b2)/2, which is checked against the
    constant free density before returning.
    """
    (electric, exponent), (magnetic, _) = _laws(g, None, _sine_at(g, pos))
    e2 = scaled(2.0 * electric, exponent, "<E^2>", g.length)
    b2 = scaled(2.0 * magnetic, exponent, "<B^2>", g.length)
    _check_cancellation(0.5 * e2, 0.5 * b2, free_casimir_density(g))
    return CorrelatorPair(e2=e2, b2=b2)


def _check_cancellation(electric, magnetic, free: float, any_=bool) -> None:
    # Safety code on the finished densities (floats, or columns with any_ =
    # numpy.any or any): electric + magnetic must be the free density.  Near the walls
    # the rounding of the huge terms dominates the constant, so the miss is
    # scaled by the pair: miss > 2e-12 max(|electric|, |magnetic|, 5e-301).
    miss = abs(electric + magnetic - free)
    if any_((miss > 2e-12 * abs(electric)) & (miss > 2e-12 * abs(magnetic)) & (miss > 1e-312)):
        raise PlatevacError("correlator cancellation invariant violated")


def near_plate_asymptotics(g: Geometry, z: float) -> CorrelatorPair:
    """Leading behaviour near a wall: <E^2> = 3/(16 pi^2 z^4) = -<B^2>.

    Valid for 0 < z << L; the full correlators approach these forms with
    a relative error of order (pi z / L)^4.  A value outside the normal
    doubles raises RangeError naming z.
    """
    z = float(z)
    if not math.isfinite(z) or z <= 0.0:
        raise DomainError(f"z must be finite and > 0, got {z!r}")
    e2 = scaled(*law("near-plate correlator", z), "the near-plate <E^2>", z, "z")
    return CorrelatorPair(e2=e2, b2=-e2)


def free_casimir_density(g: Geometry) -> float:
    """Free Casimir energy per unit volume: -pi^2/(720 L^4)."""
    return scaled(*law("em density", g.length), "the free density", g.length)


def casimir_force_per_area(g: Geometry) -> float:
    """Attractive force magnitude per unit plate area: pi^2/(240 L^4).

    The exact -d/dL of the free energy per unit area -pi^2/(720 L^3); the
    ``verify`` suite cross-checks it against a central difference of that
    energy.
    """
    return scaled(*law("casimir force", g.length), "the Casimir force", g.length)


def eh_correction_constant(g: Geometry, c: Couplings) -> float:
    """Position-independent part of the correction density (the 11/225 term)."""
    scale, exponent = law("eh density", g.length, c)
    r, s = LAWS["eh density"][4]
    return scaled(scale * (r / s), exponent, "the correction constant", g.length)


def eh_correction_density(g: Geometry, pos: Position, c: Couplings) -> float:
    """Lowest-order four-photon correction to the energy density.

    -(alpha^2 pi^4 / (2^7 3^3 5 m^4 L^8)) (11/225 + 9 F^2(theta)).
    Diverges like 1/sin^8 near the plates.
    """
    value, exponent = _laws(g, c, _sine_at(g, pos))[-1]
    return scaled(value, exponent, "the correction density", g.length)


def corrected_total_energy(g: Geometry, c: Couplings) -> float:
    """Total energy per unit plate area including the correction.

    -pi^2/(720 L^3) - 11 alpha^2 pi^4 / (2^7 3^5 5^3 m^4 L^7): two laws,
    the free constant and L times the constant part of the correction
    density; the integrated position-dependent part contributes nothing.
    Either term may underflow where their sum is a normal double.
    """
    scale, exponent = law("eh total", g.length, c)
    r, s = LAWS["eh total"][4]
    return summed("the total energy", g.length, law("em total", g.length),
                  (scale * (r / s), exponent))


def thermal_free_energy_density(temperature: float, c: Couplings) -> float:
    """Free energy density of the interacting photon gas at temperature T.

    Obtained strictly by substituting L -> 1/(2T) in the constant energy
    density E0/L, the free and correction density laws; the free part
    becomes -pi^2 T^4 / 45 and the correction scales as T^8.
    """
    temperature = float(temperature)
    if not math.isfinite(temperature) or temperature <= 0.0:
        raise DomainError(f"temperature must be finite and > 0, got {temperature!r}")
    g = Geometry(1.0 / (2.0 * temperature))
    scale, exponent = law("eh density", g.length, c)
    r, s = LAWS["eh density"][4]
    return summed("the free energy density", g.length, law("em density", g.length),
                  (scale * (r / s), exponent))


def density_split(g: Geometry, pos: Position, scheme: RegScheme | None = None) -> EnergySplit:
    """Free EM density split into electric and magnetic halves.

    Electric part <E^2>/2, magnetic part <B^2>/2, and their sum the
    constant free density, to which the profile cancels.  Only the
    continued scheme exists for the EM correlators; a cutoff scheme is
    rejected.
    """
    _require_zeta(scheme)
    (electric, exponent), (magnetic, _) = _laws(g, None, _sine_at(g, pos))
    electric = scaled(electric, exponent, "the electric density", g.length)
    magnetic = scaled(magnetic, exponent, "the magnetic density", g.length)
    total = free_casimir_density(g)
    _check_cancellation(electric, magnetic, total)
    return EnergySplit(electric=electric, magnetic=magnetic, total=total)


def _require_zeta(scheme: RegScheme | None) -> None:
    if scheme is not None and scheme.kind is RegKind.CUTOFF:
        raise DomainError(
            "electromagnetic correlators are available in the continued "
            "(zeta) scheme only"
        )
