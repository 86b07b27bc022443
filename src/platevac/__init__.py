"""Regularized vacuum energies for plate-confined fields.

A Dirichlet scalar on an interval in 1+1 dimensions and the
electromagnetic field between parallel plates: energy densities and
totals under zeta continuation and exponential-cutoff regularization,
lowest-order radiative corrections, and an experiment harness for the
order of regularization versus spatial integration.
"""

from .errors import (
    ConfigError,
    DomainError,
    FitError,
    PlatevacError,
    PoleError,
    RangeError,
    SingularityError,
)
from .geometry import Geometry, Position
from .regsum import PowerSeriesSpec, RegKind, RegScheme
from .scalar1d import Couplings, EnergySplit
from .em3d import CorrelatorPair, EhCouplings

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "PlatevacError",
    "DomainError",
    "PoleError",
    "SingularityError",
    "RangeError",
    "FitError",
    "ConfigError",
    "Geometry",
    "Position",
    "RegKind",
    "RegScheme",
    "PowerSeriesSpec",
    "Couplings",
    "EnergySplit",
    "CorrelatorPair",
    "EhCouplings",
]
