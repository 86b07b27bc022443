"""Interval geometry, scaled positions and sample grids shared by the field modules.

Natural units throughout: hbar = c = 1, so energies and masses carry the
dimension of inverse length.
"""

from __future__ import annotations

import math
from enum import Enum

from .errors import DomainError
from .record import Record

__all__ = ["FieldModel", "Clustering", "GridSpec", "Geometry", "Position", "check_position"]


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

    __slots__ = ("z", "theta")

    def __init__(self, z: float, theta: float):
        set_z, set_theta = self._setters
        set_z(self, z)
        set_theta(self, theta)

    @classmethod
    def from_z(cls, z: float, g: Geometry) -> "Position":
        z = float(z)
        if not math.isfinite(z) or z < 0.0 or z > g.length:
            raise DomainError(f"z = {z!r} lies outside the interval [0, {g.length}]")
        return cls(z=z, theta=math.pi * z / g.length)

    @classmethod
    def from_theta(cls, theta: float, g: Geometry) -> "Position":
        theta = float(theta)
        if not math.isfinite(theta) or theta < 0.0 or theta > math.pi:
            raise DomainError(f"theta = {theta!r} lies outside [0, pi]")
        return cls(z=g.length * theta / math.pi, theta=theta)

    @property
    def interior(self) -> bool:
        return 0.0 < self.theta < math.pi


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
