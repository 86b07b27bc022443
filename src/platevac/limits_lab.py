"""Order-of-limits experiments: regularization versus spatial integration.

The two operations do not commute for confined fields: summing modes
first and regularizing the total gives a finite number, while integrating
the regularized density runs into boundary divergences.  This module
samples density profiles, fits the boundary power laws, and assembles a
commutation report that shows the finite route, the divergent route, and
the cutoff-scheme route whose bulk-subtracted total is scheme and cutoff
independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from . import em3d, regsum, scalar1d, specfun
from .em3d import EhCouplings
from .errors import DomainError, FitError
from .geometry import Geometry, Position
from .regsum import RegKind, RegScheme
from .scalar1d import Couplings, EnergySplit, Route

__all__ = [
    "Clustering",
    "FieldModel",
    "GridSpec",
    "DensityProfile",
    "Endpoint",
    "DivergenceFit",
    "ExpansionFit",
    "CommutationModel",
    "WindowRow",
    "CutoffRow",
    "Verdict",
    "CommutationReport",
    "theta_array",
    "theta_grid",
    "density_columns",
    "sample_profile",
    "fit_divergence",
    "epsilon_expansion_check",
    "commutation_report",
]


class Clustering(Enum):
    UNIFORM = "uniform"
    ENDPOINTS = "endpoints"


@dataclass(frozen=True)
class GridSpec:
    """How to lay out sample angles over (0, pi)."""

    count: int
    clustering: Clustering = Clustering.UNIFORM

    def __post_init__(self):
        if isinstance(self.count, bool) or not isinstance(self.count, int) or self.count < 2:
            raise DomainError(f"grid count must be an integer >= 2, got {self.count!r}")


def theta_array(spec: GridSpec) -> np.ndarray:
    """Strictly increasing angles strictly inside (0, pi), as an array."""
    n = spec.count
    if spec.clustering is Clustering.UNIFORM:
        return math.pi * np.arange(1, n + 1) / (n + 1)
    # Chebyshev-style clustering toward both endpoints.
    return 0.5 * math.pi * (1.0 - np.cos(math.pi * (np.arange(n) + 0.5) / n))


def theta_grid(spec: GridSpec) -> tuple[float, ...]:
    """The angles of :func:`theta_array` as a tuple of floats."""
    return tuple(theta_array(spec).tolist())


class FieldModel(Enum):
    SCALAR = "scalar"
    EM = "em"


def density_columns(
    g: Geometry,
    model: FieldModel,
    scheme: RegScheme,
    thetas: Sequence[float] | np.ndarray,
    couplings: Couplings | EhCouplings | None = None,
) -> dict[str, np.ndarray]:
    """The energy density at every angle of ``thetas``, in one array pass.

    Returns the columns theta, z, electric, magnetic and total, plus
    correction (the interaction correction to the density) when
    ``couplings`` is given: :class:`Couplings` for the scalar model,
    :class:`EhCouplings` for the EM model.  The arrays run the formulas of
    the point functions (``density_split``, ``interacting_density`` minus
    the free constant, ``eh_correction_density``), so every entry equals
    their value bit for bit.  Validation happens once per array with the
    point functions' errors: DomainError for angles outside [0, pi] or an
    EM cutoff scheme, SingularityError for wall angles where the density
    diverges, and at most one ValidityWarning for a strong scalar coupling.
    """
    theta = np.asarray(thetas, dtype=float)
    rim = theta[~((theta > 0.0) & (theta < math.pi))]  # walls, outside, nan
    for value in rim.tolist():
        Position.from_theta(value, g)  # DomainError unless on a wall
    em = model is FieldModel.EM
    if em:
        em3d._require_zeta(scheme)
    if rim.size and (em or scheme.kind is RegKind.ZETA or couplings is not None):
        specfun.require_interior_angle(float(rim[0]))  # SingularityError on the wall
    columns = {"theta": theta, "z": g.length * theta / math.pi}
    sin_theta = np.sin(theta)
    # Python raises ZeroDivisionError where the point path divides by zero;
    # numpy raises FloatingPointError, another ArithmeticError.
    with np.errstate(divide="raise", over="ignore", invalid="ignore"):
        if em:
            f_value = em3d._profile(sin_theta)
            e2, b2 = em3d._correlators(g, f_value, any_=np.any)
            electric, magnetic = 0.5 * e2, 0.5 * b2
            if couplings is not None:
                correction = em3d.eh_correction_constant(g, couplings) + em3d._eh_position(
                    g, couplings, f_value
                )
        else:
            electric, magnetic = scalar1d._split(
                g.length, scheme, sin_theta, np.cos(2.0 * theta)
            )
            if couplings is not None:
                scalar1d._warn_if_strong(couplings, g)
                correction = scalar1d._interacting(
                    g.length, couplings, sin_theta
                ) - scalar1d._free_constant(g.length)
    columns.update(electric=electric, magnetic=magnetic, total=electric + magnetic)
    if couplings is not None:
        columns["correction"] = correction
    return columns


@dataclass(frozen=True)
class DensityProfile:
    """A density sampled over a theta grid, with scheme provenance."""

    g: Geometry
    scheme: RegScheme
    grid: tuple[float, ...]
    values: tuple[EnergySplit, ...]

    def __post_init__(self):
        if len(self.values) != len(self.grid):
            raise DomainError("grid and values must have equal length")
        if any(b <= a for a, b in zip(self.grid, self.grid[1:])):
            raise DomainError("grid must be strictly increasing")
        if self.scheme.kind is RegKind.ZETA and (
            self.grid[0] <= 0.0 or self.grid[-1] >= math.pi
        ):
            raise DomainError("zeta-scheme grids must stay strictly inside (0, pi)")

    def component(self, name: str) -> np.ndarray:
        return np.array([getattr(v, name) for v in self.values])


DensitySource = Callable[[Geometry, Position, RegScheme], "EnergySplit | float"]


def sample_profile(
    source: DensitySource, g: Geometry, scheme: RegScheme, spec: GridSpec
) -> DensityProfile:
    """Evaluate a density operation on a grid.

    ``source`` is called as source(g, position, scheme) and may return an
    EnergySplit or a bare density; bare values are stored in the electric
    slot with a zero magnetic part.  Deterministic for a given spec.
    """
    grid = theta_grid(spec)
    values = []
    for theta in grid:
        out = source(g, Position.from_theta(theta, g), scheme)
        if not isinstance(out, EnergySplit):
            out = EnergySplit.from_parts(electric=float(out), magnetic=0.0)
        values.append(out)
    return DensityProfile(g=g, scheme=scheme, grid=grid, values=tuple(values))


class Endpoint(Enum):
    LEFT = "left"
    RIGHT = "right"


@dataclass(frozen=True)
class DivergenceFit:
    """Power law density - constant ~ amplitude * sin(theta)^exponent."""

    exponent: float
    amplitude: float
    r_squared: float
    window: tuple[float, float]
    n_points: int

    @property
    def conclusive(self) -> bool:
        return self.r_squared >= 0.99


def _log_log_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    slope, intercept = np.polyfit(x, y, 1)
    predicted = slope * x + intercept
    ss_res = float(np.sum((y - predicted) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), min(max(r_squared, 0.0), 1.0)


def fit_divergence(
    profile: DensityProfile,
    endpoint: Endpoint,
    component: str = "total",
    constant_part: float | None = None,
    n_points: int = 4,
    window: float | None = None,
) -> DivergenceFit:
    """Least-squares slope of log|density - constant| against log sin(theta).

    The fit window is the ``n_points`` samples nearest the chosen endpoint
    whose residual magnitude is positive (optionally further restricted to
    angles within ``window`` of that endpoint).  When ``constant_part`` is
    not given, the sample nearest theta = pi/2 is subtracted.
    """
    if n_points < 2:
        raise DomainError(f"n_points must be >= 2, got {n_points}")
    values = profile.component(component)
    grid = np.array(profile.grid)
    if constant_part is None:
        constant_part = float(values[int(np.argmin(np.abs(grid - 0.5 * math.pi)))])
    residual = np.abs(values - constant_part)

    order = np.argsort(grid) if endpoint is Endpoint.LEFT else np.argsort(-grid)
    chosen: list[int] = []
    for idx in order:
        theta = grid[idx]
        if window is not None:
            distance = theta if endpoint is Endpoint.LEFT else math.pi - theta
            if distance > window:
                break
        if residual[idx] > 0.0:
            chosen.append(int(idx))
        if len(chosen) == n_points:
            break
    if len(chosen) < n_points:
        raise FitError(
            f"only {len(chosen)} usable residuals available near the "
            f"{endpoint.value} endpoint; the rest vanish and cannot be logged"
        )
    x = np.log(np.sin(grid[chosen]))
    y = np.log(residual[chosen])
    slope, intercept, r_squared = _log_log_fit(x, y)
    thetas = grid[chosen]
    return DivergenceFit(
        exponent=slope,
        amplitude=math.exp(intercept),
        r_squared=r_squared,
        window=(float(thetas.min()), float(thetas.max())),
        n_points=len(chosen),
    )


@dataclass(frozen=True)
class ExpansionFit:
    """Scaling of the cutoff-series residual after the eps^2 term is removed."""

    theta: float
    slope: float
    r_squared: float
    breakdown: bool


def epsilon_expansion_check(
    thetas: Sequence[float], eps_list: Sequence[float]
) -> list[ExpansionFit]:
    """Per-angle log-log slope of S(eps, theta) - cot/2 + (cos/(8 sin^3)) eps^2.

    The residual scales as eps^4 wherever the expansion holds; angles with
    theta < max(eps) sit in the breakdown region where the cutoff value is
    boundary dominated, and are flagged.  ``eps_list`` must be a geometric
    sequence with ratio 2 and at least 3 entries.
    """
    eps = [float(e) for e in eps_list]
    if len(eps) < 3:
        raise DomainError("need at least 3 cutoff values")
    for a, b in zip(eps, eps[1:]):
        if a <= 0.0 or b <= 0.0 or abs(a / b - 2.0) > 1e-9:
            raise DomainError("eps_list must decrease geometrically with ratio 2")
    results = []
    log_eps = np.log(eps)
    for theta in thetas:
        theta = specfun.require_interior_angle(theta)
        limit = regsum.abel_sum_sin_limit(theta)
        quadratic = 0.125 * math.cos(theta) / math.sin(theta) ** 3
        residuals = [
            regsum.abel_sum_sin(e, theta) - limit + quadratic * e * e for e in eps
        ]
        slope, _, r_squared = _log_log_fit(log_eps, np.log(np.abs(residuals)))
        results.append(
            ExpansionFit(
                theta=theta,
                slope=slope,
                r_squared=r_squared,
                breakdown=theta < max(eps),
            )
        )
    return results


# --------------------------------------------------------------------------
# Commutation report
# --------------------------------------------------------------------------


class CommutationModel(Enum):
    FREE_SCALAR = "free_scalar"
    INTERACTING_SCALAR = "interacting_scalar"


@dataclass(frozen=True)
class WindowRow:
    delta: float
    partial_total: float
    divergent_estimate: float


@dataclass(frozen=True)
class CutoffRow:
    epsilon: float
    raw_total: float
    bulk: float
    subtracted: float


@dataclass(frozen=True)
class Verdict:
    agrees: bool
    sum_then_regularize: float
    cutoff_limit: float
    difference: float
    tolerance: float


@dataclass(frozen=True)
class CommutationReport:
    model: str
    length: float
    alpha: float | None
    mass: float | None
    sum_then_regularize: float
    window_rows: tuple[WindowRow, ...]
    window_fit_exponent: float
    window_fit_r_squared: float
    cutoff_rows: tuple[CutoffRow, ...]
    cutoff_spread: float
    cutoff_limit: float
    verdict: Verdict
    notes: tuple[str, ...] = field(default=())

    def to_dict(self) -> dict:
        return {
            "model": self.model,
            "length": self.length,
            "alpha": self.alpha,
            "mass": self.mass,
            "sum_then_regularize": self.sum_then_regularize,
            "integrate_then_regularize": [
                {
                    "delta": r.delta,
                    "partial_total": r.partial_total,
                    "divergent_estimate": r.divergent_estimate,
                }
                for r in self.window_rows
            ],
            "window_fit": {
                "exponent": self.window_fit_exponent,
                "r_squared": self.window_fit_r_squared,
            },
            "cutoff_full_interval": [
                {
                    "epsilon": r.epsilon,
                    "raw_total": r.raw_total,
                    "bulk": r.bulk,
                    "subtracted": r.subtracted,
                }
                for r in self.cutoff_rows
            ],
            "cutoff_spread": self.cutoff_spread,
            "cutoff_limit": self.cutoff_limit,
            "verdict": {
                "agrees": self.verdict.agrees,
                "sum_then_regularize": self.verdict.sum_then_regularize,
                "cutoff_limit": self.verdict.cutoff_limit,
                "difference": self.verdict.difference,
                "tolerance": self.verdict.tolerance,
            },
            "notes": list(self.notes),
        }


def _interacting_window_integral(
    g: Geometry, c: Couplings, delta: float
) -> tuple[float, float]:
    """Interacting density integrated over [delta, L - delta], in closed form.

    Returns (value, divergent part).  The density's constant part
    contributes its value times L - 2 delta; the 1/sin^4 term has the
    exact antiderivative -cot - cot^3/3, so the window grows with
    cot(a) + cot(a)^3 / 3, a = pi delta / L.
    """
    scalar1d._warn_if_strong(c, g)
    prefactor = scalar1d._interaction_prefactor(g.length, c)
    ct = specfun.cot(math.pi * delta / g.length)
    estimate = prefactor * (2.0 * g.length / math.pi) * (ct + ct ** 3 / 3.0)
    constant = scalar1d.free_total_energy(g) / g.length + prefactor / 18.0
    return (g.length - 2.0 * delta) * constant + estimate, estimate


def commutation_report(
    g: Geometry,
    model: CommutationModel,
    deltas: Sequence[float],
    epsilons: Sequence[float],
    couplings: Couplings | None = None,
    tolerance: float = 1e-7,
) -> CommutationReport:
    """Quantify the non-commutation of regularization and integration.

    Sections: (a) the finite sum-then-regularize total; (b) integrals of
    the continued density over [delta, L - delta] with a power-law fit of
    their divergence in delta; (c) full-interval cutoff totals at each
    eps, reported raw, with their boundary-independent bulk divergence,
    and with the bulk subtracted; (d) a verdict comparing (a) with the
    eps -> 0 extrapolation of (c).

    The cutoff bulk is 1/eps^2 per unit mode sum (and 2/eps^3 for the
    squared-frequency series of the interacting position term); removing
    it is this harness's own construction, not an input prescription.
    """
    deltas = [float(d) for d in deltas]
    epsilons = [float(e) for e in epsilons]
    if not deltas or any(b >= a for a, b in zip(deltas, deltas[1:])):
        raise DomainError("deltas must be a decreasing sequence")
    if any(d <= 0.0 or d >= 0.5 * g.length for d in deltas):
        raise DomainError("every delta must lie in (0, L/2)")
    if not epsilons or any(b >= a for a, b in zip(epsilons, epsilons[1:])):
        raise DomainError("epsilons must be a decreasing sequence")
    if any(e <= 0.0 for e in epsilons):
        raise DomainError("every epsilon must be positive")
    interacting = model is CommutationModel.INTERACTING_SCALAR
    if interacting and couplings is None:
        raise DomainError("the interacting model requires couplings")

    # (a) integrate first, regularize the total afterwards.
    if interacting:
        total = scalar1d.interacting_total_energy(g, couplings)
    else:
        total = scalar1d.free_total_energy(g)

    # (b) regularize first, integrate the density over a shrinking window.
    window_rows = []
    for delta in deltas:
        if interacting:
            value, estimate = _interacting_window_integral(g, couplings, delta)
        else:
            result = scalar1d.total_energy_by_route(
                g, Route.INTEGRATE_REGULARIZED_DENSITY, RegScheme.zeta(), delta=delta
            )
            value, estimate = result.value, result.divergent_estimate
        window_rows.append(
            WindowRow(delta=delta, partial_total=value, divergent_estimate=estimate)
        )
    log_d = np.log(deltas)
    log_v = np.log([abs(r.partial_total) for r in window_rows])
    window_exponent, _, window_r2 = _log_log_fit(log_d, log_v)

    # (c) cutoff scheme on the full interval; position terms integrate to
    # zero at any eps, the rest carries the bulk divergence.
    lin_scale = math.pi / (2.0 * g.length)
    rows = []
    for eps in epsilons:
        raw = lin_scale * regsum.abel_sum_linear(eps)
        bulk = lin_scale / (eps * eps)
        subtracted = lin_scale * regsum.abel_sum_linear_minus_bulk(eps)
        if interacting:
            quad_scale = couplings.alpha * math.pi ** 2 / (couplings.m ** 2 * g.length ** 3)
            const_correction = -quad_scale * float(scalar1d._INTERACTION_CONSTANT)
            raw += const_correction - quad_scale * regsum.abel_sum_quadratic(2.0 * eps)
            bulk += -quad_scale * 2.0 / (2.0 * eps) ** 3
            subtracted += const_correction - quad_scale * regsum.abel_sum_quadratic_minus_bulk(
                2.0 * eps
            )
        rows.append(CutoffRow(epsilon=eps, raw_total=raw, bulk=bulk, subtracted=subtracted))
    subtracted_values = [r.subtracted for r in rows]
    spread = max(subtracted_values) - min(subtracted_values)
    # The free remainder is even in eps; the interacting construction also
    # carries odd powers, so extrapolate in plain powers of eps there.
    order = 1 if interacting else 2
    if len(rows) >= order + 1:
        limit, _ = regsum.richardson_extrapolate(
            [(r.epsilon, r.subtracted) for r in rows], order=order
        )
    else:
        limit = subtracted_values[-1]

    difference = abs(limit - total)
    verdict = Verdict(
        agrees=difference <= tolerance * max(1.0, abs(total)),
        sum_then_regularize=total,
        cutoff_limit=limit,
        difference=difference,
        tolerance=tolerance,
    )
    notes = ()
    if interacting:
        notes = (
            "cutoff handling of the 1/sin^4 position term maps it to "
            "4 (dS/dtheta)^2, whose full-interval integral is the squared-index "
            "series; the bulk-subtracted values below are measurements made by "
            "this harness's own construction",
        )
    return CommutationReport(
        model=model.value,
        length=g.length,
        alpha=couplings.alpha if interacting else None,
        mass=couplings.m if interacting else None,
        sum_then_regularize=total,
        window_rows=tuple(window_rows),
        window_fit_exponent=window_exponent,
        window_fit_r_squared=window_r2,
        cutoff_rows=tuple(rows),
        cutoff_spread=spread,
        cutoff_limit=limit,
        verdict=verdict,
        notes=notes,
    )
