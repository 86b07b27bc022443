"""Electromagnetic field between parallel conducting plates.

Field-strength correlators and the profile function carrying their
position dependence, the free Casimir energy density and force, the
lowest-order four-photon (Euler-Heisenberg type) correction to the
density, the corrected total energy per unit plate area, and the thermal
mapping L -> 1/(2T).

All outputs for 3-d quantities are per unit plate area (totals) or per
unit volume (densities), in natural units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, PlatevacError
from .geometry import Geometry, Position, check_position
from .regsum import RegKind, RegScheme
from .scalar1d import EnergySplit
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
    "eh_correction_position",
    "corrected_total_energy",
    "thermal_free_energy_density",
    "density_split",
]

FINE_STRUCTURE_ALPHA = 1.0 / 137.035999

# 2^7 * 3^3 * 5, the denominator of the correction-density prefactor.
_EH_DENOMINATOR = 17280

# The correction to the total energy carries 11 / (2^7 3^5 5^3); it must be
# exactly (11/225) / (2^7 3^3 5) for the density and total forms to agree.
_EH_TOTAL_COEFF = Fraction(11, 225) / _EH_DENOMINATOR
if _EH_TOTAL_COEFF != Fraction(11, 2 ** 7 * 3 ** 5 * 5 ** 3):
    raise AssertionError("constant-part identity 3^3 * 5 * 225 = 3^5 * 5^3 broken")

# The constant part 11/225 of the correction density.
_EH_CONSTANT = float(Fraction(11, 225))


@dataclass(frozen=True)
class CorrelatorPair:
    """Squared-field expectation values <E^2> and <B^2>, units 1/length^4."""

    e2: float
    b2: float


@dataclass(frozen=True)
class EhCouplings:
    """Fine-structure-like coupling and electron-like mass.

    Defaults are the physical fine-structure constant and a unit mass in
    natural units; alpha = 0 is allowed and decouples the correction.
    """

    alpha: float = FINE_STRUCTURE_ALPHA
    m: float = 1.0

    def __post_init__(self):
        alpha = float(self.alpha)
        m = float(self.m)
        if not math.isfinite(alpha) or alpha < 0.0:
            raise DomainError(f"alpha must be finite and >= 0, got {self.alpha!r}")
        if not math.isfinite(m) or m <= 0.0:
            raise DomainError(f"m must be finite and > 0, got {self.m!r}")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "m", m)


def profile_F(theta: float) -> float:
    """Position profile of the fluctuations: 3/sin^4(theta) - 2/sin^2(theta).

    Interior only; at least 1 everywhere, with the minimum exactly 1 at
    theta = pi/2.
    """
    return _profile(math.sin(specfun.require_interior_angle(theta)))


def _profile(sin_theta):
    # profile_F as plain arithmetic on sin(theta): a float or a numpy array.
    c2 = 1.0 / (sin_theta * sin_theta)
    return (3.0 * c2 - 2.0) * c2


def profile_F_via_cot_derivative(theta: float) -> float:
    """The same profile as -(1/2) d^3 cot(theta)/dtheta^3.

    The third derivative is carried out symbolically, giving
    2 cot^2/sin^2 + 1/sin^4; an independent floating-point route to
    :func:`profile_F` for cross-checking.
    """
    ct = specfun.cot(theta)
    c2 = specfun.csc2(theta)
    return 2.0 * ct * ct * c2 + c2 * c2


def correlators(g: Geometry, pos: Position) -> CorrelatorPair:
    """<E^2> and <B^2> between the plates.

    <E^2> = -(pi^2/(16 L^4)) (1/45 - F(theta)) and <B^2> the same with
    +F.  The profile cancels in (e2 + b2)/2, which is checked against the
    constant free density before returning.
    """
    check_position(g, pos)
    e2, b2 = _correlators(g, profile_F(pos.theta))
    return CorrelatorPair(e2=e2, b2=b2)


def _correlators(g: Geometry, f_value, any_=bool):
    # (<E^2>, <B^2>) as plain arithmetic on the profile F: a float, or a
    # numpy array with any_ = numpy.any reducing the guard.
    scale = math.pi ** 2 / (16.0 * g.length ** 4)
    e2 = -scale * (1.0 / 45.0 - f_value)
    b2 = -scale * (1.0 / 45.0 + f_value)
    # Cancellation guard, scaled by the pair magnitude: near the walls the
    # two terms are huge and their rounding dominates the tiny constant.
    # miss > 1e-12 * max(|e2|, |b2|, 1e-300), spelled out term by term.
    miss = abs(0.5 * (e2 + b2) - free_casimir_density(g))
    if any_((miss > 1e-12 * abs(e2)) & (miss > 1e-12 * abs(b2)) & (miss > 1e-12 * 1e-300)):
        raise PlatevacError("correlator cancellation invariant violated")
    return e2, b2


def near_plate_asymptotics(g: Geometry, z: float) -> CorrelatorPair:
    """Leading behaviour near a wall: <E^2> = 3/(16 pi^2 z^4) = -<B^2>.

    Valid for 0 < z << L; the full correlators approach these forms with
    a relative error of order (pi z / L)^4.
    """
    z = float(z)
    if not math.isfinite(z) or z <= 0.0:
        raise DomainError(f"z must be finite and > 0, got {z!r}")
    e2 = 3.0 / (16.0 * math.pi ** 2 * z ** 4)
    return CorrelatorPair(e2=e2, b2=-e2)


def free_casimir_density(g: Geometry) -> float:
    """Free Casimir energy per unit volume: -pi^2/(720 L^4)."""
    return -math.pi ** 2 / (720.0 * g.length ** 4)


def casimir_force_per_area(g: Geometry) -> float:
    """Attractive force magnitude per unit plate area: pi^2/(240 L^4).

    The exact -d/dL of the free energy per unit area -pi^2/(720 L^3); the
    ``verify`` suite cross-checks it against a central difference of that
    energy.
    """
    return math.pi ** 2 / (240.0 * g.length ** 4)


def _eh_scale(g: Geometry, c: EhCouplings) -> float:
    return -(c.alpha ** 2 * math.pi ** 4) / (_EH_DENOMINATOR * c.m ** 4 * g.length ** 8)


def eh_correction_constant(g: Geometry, c: EhCouplings) -> float:
    """Position-independent part of the correction density (the 11/225 term)."""
    return _eh_scale(g, c) * _EH_CONSTANT


def eh_correction_position(g: Geometry, pos: Position, c: EhCouplings) -> float:
    """Position-dependent part of the correction density (the 9 F^2 term)."""
    check_position(g, pos)
    return _eh_position(g, c, profile_F(pos.theta))


def _eh_position(g: Geometry, c: EhCouplings, f_value):
    # The 9 F^2 term as plain arithmetic on F: a float or a numpy array.
    return _eh_scale(g, c) * 9.0 * f_value * f_value


def eh_correction_density(g: Geometry, pos: Position, c: EhCouplings) -> float:
    """Lowest-order four-photon correction to the energy density.

    -(alpha^2 pi^4 / (2^7 3^3 5 m^4 L^8)) (11/225 + 9 F^2(theta)).
    Diverges like 1/sin^8 near the plates.
    """
    return eh_correction_constant(g, c) + eh_correction_position(g, pos, c)


def corrected_total_energy(g: Geometry, c: EhCouplings) -> float:
    """Total energy per unit plate area including the correction.

    -pi^2/(720 L^3) - 11 alpha^2 pi^4 / (2^7 3^5 5^3 m^4 L^7).  The
    correction term is L times the constant part of the correction
    density; the integrated position-dependent part contributes nothing.
    """
    free = g.length * free_casimir_density(g)
    correction = g.length * eh_correction_constant(g, c)
    return free + correction


def thermal_free_energy_density(temperature: float, c: EhCouplings) -> float:
    """Free energy density of the interacting photon gas at temperature T.

    Obtained strictly by substituting L -> 1/(2T) in the constant energy
    density E0/L; the free part becomes -pi^2 T^4 / 45 and the correction
    scales as T^8.
    """
    temperature = float(temperature)
    if not math.isfinite(temperature) or temperature <= 0.0:
        raise DomainError(f"temperature must be finite and > 0, got {temperature!r}")
    g = Geometry(1.0 / (2.0 * temperature))
    return corrected_total_energy(g, c) / g.length


def density_split(g: Geometry, pos: Position, scheme: RegScheme | None = None) -> EnergySplit:
    """Free EM density split into electric and magnetic halves.

    Electric part <E^2>/2, magnetic part <B^2>/2.  Only the continued
    scheme exists for the EM correlators; a cutoff scheme is rejected.
    """
    _require_zeta(scheme)
    pair = correlators(g, pos)
    return EnergySplit.from_parts(electric=0.5 * pair.e2, magnetic=0.5 * pair.b2)


def _require_zeta(scheme: RegScheme | None) -> None:
    if scheme is not None and scheme.kind is RegKind.CUTOFF:
        raise DomainError(
            "electromagnetic correlators are available in the continued "
            "(zeta) scheme only"
        )
