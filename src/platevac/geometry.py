"""Interval geometry, scaled positions and sample grids shared by the field modules.

Natural units throughout: hbar = c = 1, so energies and masses carry the
dimension of inverse length.  Every density, total and force is a law,
an exact coefficient times alpha^j / (m^2j L^k) times a shape in
sin(theta).  :data:`LAWS` is the one table of those coefficients;
:func:`law` reads an entry by name, and it and :func:`scaled` apply the
powers of L, m and alpha by exponent arithmetic, so none of them is ever
formed as a float.  :func:`window_integral` integrates a continued
density over [delta, L - delta] for every model.
"""

from __future__ import annotations

import math
from enum import Enum

from . import specfun
from .errors import DomainError, RangeError
from .record import Record
from .specfun import _TINY

__all__ = [
    "FieldModel", "Clustering", "GridSpec", "Geometry", "Position", "check_position",
    "LAWS", "law", "scaled", "summed", "window_integral",
]


class FieldModel(Enum):
    SCALAR = "scalar"
    EM = "em"


class Clustering(Enum):
    UNIFORM = "uniform"
    ENDPOINTS = "endpoints"


class GridSpec(Record):
    """How to lay out sample angles over (0, pi)."""

    __slots__ = ("count", "clustering")
    _defaults = {"clustering": Clustering.UNIFORM}

    def _validate(self):
        if isinstance(self.count, bool) or not isinstance(self.count, int) or self.count < 2:
            raise DomainError(f"grid count must be an integer >= 2, got {self.count!r}")


class Geometry(Record):
    """Plate (or interval) separation L."""

    __slots__ = ("length",)

    def __init__(self, length: float):
        value = float(length)
        if not math.isfinite(value) or value <= 0.0:
            raise DomainError(f"length must be finite and > 0, got {length!r}")
        self._setters[0](self, value)


class Position(Record):
    """A point between the walls, as physical z and scaled theta = pi z / L.

    The two representations always satisfy theta * L = pi * z; build
    instances through :meth:`from_z` or :meth:`from_theta` so the other
    coordinate is derived consistently.
    """

    # _sin: sin(theta) from the wall distance when built from z; not a field.
    __slots__ = ("z", "theta", "_sin")

    def __init__(self, z: float, theta: float, *, _sin: float | None = None):
        set_z, set_theta = self._setters
        set_z(self, z)
        set_theta(self, theta)
        _set_sin(self, _sin)

    @classmethod
    def from_z(cls, z: float, g: Geometry) -> "Position":
        z = float(z)
        if not math.isfinite(z) or z < 0.0 or z > g.length:
            raise DomainError(f"z = {z!r} lies outside the interval [0, {g.length}]")
        # L - z is exact for z >= L/2, so w is the distance to the nearer wall.
        wall = min(z, g.length - z)
        return cls(z=z, theta=math.pi * z / g.length, _sin=specfun.sin_pi(wall / g.length))

    @classmethod
    def from_theta(cls, theta: float, g: Geometry) -> "Position":
        theta = float(theta)
        if not math.isfinite(theta) or theta < 0.0 or theta > math.pi:
            raise DomainError(f"theta = {theta!r} lies outside [0, pi]")
        return cls(z=g.length * theta / math.pi, theta=theta)

    @property
    def interior(self) -> bool:
        return 0.0 < self.theta < math.pi

    @property
    def sin_theta(self) -> float:
        """sin(theta): from the wall distance when built from z, else math.sin(theta)."""
        return math.sin(self.theta) if self._sin is None else self._sin

    def __reduce__(self):
        return _position, (self.z, self.theta, self._sin)


_set_sin = Position._sin.__set__


def _position(z: float, theta: float, sin_theta: float | None) -> Position:
    return Position(z, theta, _sin=sin_theta)


def check_position(g: Geometry, pos: Position) -> Position:
    """Validate that ``pos`` belongs to the interval described by ``g``."""
    if not (0.0 <= pos.z <= g.length):
        raise DomainError(f"z = {pos.z!r} lies outside the interval [0, {g.length}]")
    if abs(pos.theta * g.length - math.pi * pos.z) > 1e-12 * math.pi * g.length:
        raise DomainError(
            f"inconsistent position: theta = {pos.theta!r} does not match "
            f"pi * z / L for z = {pos.z!r}, L = {g.length!r}"
        )
    return pos


# Every law's exact coefficient, by name: ((p, q), n, k, j, constant) is
# (p pi^n / q) alpha^j / (m^2j L^k) times a shape the model computes, whose
# rational constant part is ``constant`` = (r, s), or None.  The verify suite
# derives its rational identities from these integers.
LAWS = {
    "validity ratio": ((1, 1), 0, 2, 1, None),  # alpha / (m L)^2
    "scalar total": ((1, 2), 1, 1, 0, None),  # times a mode sum
    "scalar density": ((1, 4), 1, 2, 0, None),  # times mode sums in theta
    "window divergence": ((1, 8), 0, 1, 0, None),  # the electric window: times P_1(cot a)
    "scalar correction density": ((-1, 8), 2, 4, 1, (1, 18)),  # times 1/18 + 1/sin^4
    "scalar correction total": ((-1, 1), 2, 3, 1, (1, 144)),
    "scalar correction window": ((-1, 4), 1, 3, 1, None),  # times P_2(cot a)
    "em correlator": ((1, 16), 2, 4, 0, None),  # times -(1/45 -/+ F)
    "em density": ((-1, 720), 2, 4, 0, None),
    "em total": ((-1, 720), 2, 3, 0, None),
    "casimir force": ((1, 240), 2, 4, 0, None),
    "near-plate correlator": ((3, 16), -2, 4, 0, None),  # <E^2> next to a wall, z for L
    "eh density": ((-1, 17280), 4, 8, 2, (11, 225)),  # times 11/225 + 9 F^2
    "eh total": ((-1, 17280), 4, 7, 2, (11, 225)),
}

# Each law's numerator p pi^n and denominator q, or q pi^-n for n < 0, as
# the floats it divides, with its k and j.
_FLOATS = {name: (p * math.pi ** max(n, 0), q * math.pi ** max(-n, 0), k, j)
           for name, ((p, q), n, k, j, _) in LAWS.items()}


def law(name: str, length: float, couplings=None, shape=None):
    """The law ``name`` of :data:`LAWS` at L = ``length`` as (prefactor, exponent).

    The quotient p pi^n alpha^j / (q m^2j L^k), times ``shape`` where one
    is given, is prefactor * 2**exponent.  The prefactor takes the
    mantissas of L, m and alpha in the quotient's own order, so it rounds
    as the quotient would wherever that is a normal double.
    """
    numerator, denominator, k, j = _FLOATS[name]
    if shape is not None:
        numerator = shape * numerator
    l_mantissa, l_exponent = math.frexp(length)
    exponent = -k * l_exponent
    if j:
        a_mantissa, a_exponent = math.frexp(couplings.alpha)
        m_mantissa, m_exponent = math.frexp(couplings.m)
        numerator = a_mantissa ** j * numerator
        denominator = denominator * m_mantissa ** (2 * j)
        exponent += j * (a_exponent - 2 * m_exponent)
    return numerator / (denominator * l_mantissa ** k), exponent


def scaled(value, exponent: int, what: str, length: float, name: str = "L"):
    """``value * 2**exponent`` for a float, a list or a numpy array, exact in the normal range.

    RangeError "<what> overflows a double at <name> = <length>" past the
    largest double, "<what> underflows ..." below the normal range where
    ``value`` is not 0.  A list or an array is checked for overflow first.
    """
    if isinstance(value, float):
        try:
            result = math.ldexp(value, exponent)
        except OverflowError:
            result = math.inf
        if _TINY <= abs(result) < math.inf or value == 0.0:
            return result
        finite, small = abs(result) < math.inf, True
    elif isinstance(value, list):
        try:
            result = [math.ldexp(v, exponent) for v in value]
        except OverflowError:
            result = [math.inf]
        finite = all(map(math.isfinite, result))
        small = min(map(abs, result), default=1.0) < _TINY and any(
            abs(r) < _TINY for r, v in zip(result, value) if v != 0.0)
    else:  # a numpy array, by three powers of two; past -2047 and 2098 no value stays in range
        exponent = max(-2047, min(2098, exponent))
        result = value
        for part in (exponent // 3, (exponent + 1) // 3, (exponent + 2) // 3):  # they sum to it
            result = result * 2.0 ** part
        finite = (abs(result) < math.inf).all()
        small = ((abs(result) < _TINY) & (value != 0.0)).any()
    if not finite:
        raise RangeError(f"{what} overflows a double at {name} = {length!r}")
    if small:
        raise RangeError(f"{what} underflows a double at {name} = {length!r}")
    return result


def summed(what: str, length: float, *terms: tuple[float, int]) -> float:
    """The sum of value * 2**exponent over (value, exponent) terms, through :func:`scaled`.

    The terms are added at the largest exponent of a nonzero value, so a
    term may underflow where the sum is a normal double.
    """
    top = max([exponent for value, exponent in terms if value != 0.0], default=0)
    total = 0.0
    for value, exponent in terms:
        if value != 0.0:  # an exact zero carries no scale; below top, ldexp cannot overflow
            total += math.ldexp(value, exponent - top)
    return scaled(total, top, what, length)


def window_integral(window: tuple, length: float, couplings, total: tuple[float, int],
                    delta: float) -> tuple[float, float]:
    """(value, divergent estimate) of a continued density over [delta, L - delta].

    ``window`` is (law, terms, share).  The density's divergent part,
    (pi K / 2L) sum c_n csc^2n(pi z / L) over the (c_n, n) terms with K the
    law, integrates to the estimate K sum c_n P_n(cot a), a = pi delta / L,
    P_n(c) = sum_{k<n} C(n-1, k) c^(2k+1) / (2k+1).  The value adds the
    constant part, share * total * (1 - 2 delta / L), ``total`` a (value,
    exponent) pair.  The caller validates 0 < delta < L/2; a result outside
    the normal doubles raises RangeError "the window integral ...".
    """
    name, terms, share = window
    pi_delta = math.pi * delta  # where it leaves the normal doubles, a is rounded from delta / L
    a = pi_delta / length if _TINY <= pi_delta < math.inf else math.pi * (delta / length)
    if a >= _TINY:
        mantissa, power = math.frexp(specfun.cot(a))
    else:  # cot a = 1/a = L / (pi delta) to within a^2/3, from the pairs of delta and L
        (d, d_exponent), (l, l_exponent) = math.frexp(delta), math.frexp(length)
        mantissa, power = math.frexp(l / (math.pi * d))
        power += l_exponent - d_exponent
    # Each power c^j is taken at 2**(-power top) of its size, top the highest
    # power 2n - 1, so none overflows before the one scaled call.
    top = 2 * max(n for _, n in terms) - 1
    shape = 0.0
    for coefficient, n in terms:
        for k in range(n):
            j = 2 * k + 1
            power_j = math.ldexp(mantissa ** j, power * (j - top))
            shape += coefficient * math.comb(n - 1, k) * power_j / j
    prefactor, exponent = law(name, length, couplings, shape)
    exponent += top * power
    what = "the window integral"
    estimate = scaled(prefactor, exponent, what, length)
    constant, constant_exponent = total
    constant = share * (1.0 - 2.0 * delta / length) * constant
    return summed(what, length, (prefactor, exponent), (constant, constant_exponent)), estimate
