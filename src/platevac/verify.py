"""Built-in invariant suite behind the ``verify`` CLI command.

Each check reduces to a single measured deviation compared against a
tolerance; the suite passes when every deviation is inside its tolerance.
Setting the environment variable PLATEVAC_VERIFY_TOLERANCE_SCALE scales
all tolerances (useful for exercising the harness itself).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import em3d, limits_lab, regsum, scalar1d, specfun
from .errors import ConfigError
from .geometry import Geometry, Position
from .limits_lab import Clustering, CommutationModel, Endpoint, GridSpec
from .regsum import RegScheme
from .scalar1d import Couplings

__all__ = ["CheckResult", "run_suite", "SUITES"]

TOLERANCE_SCALE_ENV = "PLATEVAC_VERIFY_TOLERANCE_SCALE"


@dataclass(frozen=True)
class CheckResult:
    name: str
    measured: float
    tolerance: float
    passed: bool


def _tolerance_scale() -> float:
    raw = os.environ.get(TOLERANCE_SCALE_ENV)
    if raw is None:
        return 1.0
    try:
        scale = float(raw)
    except ValueError:
        raise ConfigError(TOLERANCE_SCALE_ENV, f"not a number: {raw!r}") from None
    if not math.isfinite(scale) or scale <= 0.0:
        raise ConfigError(TOLERANCE_SCALE_ENV, f"must be finite and > 0: {raw!r}")
    return scale


# Each check returns (measured deviation, tolerance).
Check = Callable[[], tuple[float, float]]


def _zeta_minus_one():
    return abs(specfun.riemann_zeta(-1.0) + 1.0 / 12.0), 1e-14


def _zeta_minus_two():
    return abs(specfun.riemann_zeta(-2.0)), 1e-14


def _free_scalar_total():
    value = scalar1d.free_total_energy(Geometry(1.0))
    exact = -math.pi / 24.0
    return abs(value - exact) / abs(exact), 1e-12


def _em_constant_density():
    g = Geometry(1.0)
    exact = em3d.free_casimir_density(g)
    rng = np.random.default_rng(20)
    worst = 0.0
    for theta in rng.uniform(0.6, math.pi - 0.6, 20):
        pair = em3d.correlators(g, Position.from_theta(theta, g))
        worst = max(worst, abs(0.5 * (pair.e2 + pair.b2) - exact) / abs(exact))
    return worst, 1e-12


def _casimir_force():
    # -d/dL of the free energy per unit area, as a central difference with
    # step 1e-5 L, against the force the library returns.
    g = Geometry(1.0)
    h = 1e-5 * g.length

    def energy(length):
        gg = Geometry(length)
        return gg.length * em3d.free_casimir_density(gg)

    numeric = abs(-(energy(g.length + h) - energy(g.length - h)) / (2.0 * h))
    force = em3d.casimir_force_per_area(g)
    return abs(numeric - force) / force, 1e-8


def _cutoff_sine_closed_form():
    worst = 0.0
    for eps in (0.05, 0.1, 0.5):
        for theta in (0.3, 1.0, 2.5):
            direct = math.fsum(
                math.exp(-eps * n) * math.sin(2.0 * theta * n) for n in range(1, 2001)
            )
            value = regsum.abel_sum_sin(eps, theta)
            worst = max(worst, abs(value - direct) / max(abs(direct), 1e-30))
    return worst, regsum.CLOSED_FORM_RTOL


def _cutoff_limit_extrapolation():
    worst = 0.0
    for theta in (0.5, 1.0, 2.5):
        samples = [(eps, regsum.abel_sum_sin(eps, theta)) for eps in (0.2, 0.1, 0.05)]
        limit, _ = regsum.richardson_extrapolate(samples, order=2)
        exact = regsum.abel_sum_sin_limit(theta)
        worst = max(worst, abs(limit - exact) / max(abs(exact), 1.0))
    return worst, regsum.EXTRAPOLATED_RTOL


def _scalar_density_cancellation():
    g = Geometry(1.0)
    exact = -math.pi / 24.0
    worst = 0.0
    for scheme in (RegScheme.zeta(), RegScheme.cutoff(0.01)):
        for theta in (0.3, 1.0, 2.0, 2.8):
            split = scalar1d.density_split(g, Position.from_theta(theta, g), scheme)
            worst = max(worst, abs(split.total - exact) / abs(exact))
    return worst, 1e-8


def _rational_identities():
    from fractions import Fraction

    ok = scalar1d._INTERACTION_CONSTANT == Fraction(1, 144)
    ok = ok and em3d._EH_TOTAL_COEFF == Fraction(11, 3888000)
    return (0.0 if ok else 1.0), 0.0


def _gamma_recurrence():
    rng = np.random.default_rng(7)
    worst = 0.0
    for x in rng.uniform(0.1, 20.0, 100):
        lhs = specfun.gamma(x + 1.0)
        rhs = x * specfun.gamma(x)
        worst = max(worst, abs(lhs - rhs) / abs(rhs))
    return worst, 1e-12


def _bernoulli_recurrence():
    from fractions import Fraction

    for n in range(1, specfun.MAX_BERNOULLI_INDEX + 1):
        acc = Fraction(0)
        for k in range(n + 1):
            acc += math.comb(n + 1, k) * specfun.bernoulli(k)
        if acc != 0:
            return 1.0, 0.0
    return 0.0, 0.0


def _functional_equation_integers():
    worst = 0.0
    for n in (1, 3, 5, 7, 9):
        s = -float(n)
        via_fe = (
            2.0 ** s
            * math.pi ** (s - 1.0)
            * specfun.sin_pi(0.5 * s)
            * specfun.gamma(1.0 - s)
            * specfun.riemann_zeta(1.0 - s)
        )
        exact = specfun.riemann_zeta(s)
        worst = max(worst, abs(via_fe - exact) / abs(exact))
    return worst, 1e-12


_SCHEME_LADDER = (0.04, 0.02, 0.01, 0.005)


def _scheme_agreement():
    g = Geometry(1.0)
    worst = 0.0
    for theta in np.linspace(0.2, math.pi - 0.2, 20):
        pos = Position.from_theta(theta, g)
        continued = scalar1d.electric_density(g, pos, RegScheme.zeta())
        samples = [
            (eps, scalar1d.electric_density(g, pos, RegScheme.cutoff(eps)))
            for eps in _SCHEME_LADDER
        ]
        limit, _ = regsum.richardson_extrapolate(samples, order=2)
        worst = max(worst, abs(limit - continued))
    return worst, 1e-7 * math.pi / 16.0


def _expansion_slope():
    fit = limits_lab.epsilon_expansion_check([1.0], [0.04, 0.02, 0.01])[0]
    return abs(fit.slope - 4.0), 0.1


def _near_plate_exponent(kind: str):
    g = Geometry(1.0)
    spec = GridSpec(count=200, clustering=Clustering.ENDPOINTS)
    if kind == "scalar":
        profile = limits_lab.sample_profile(scalar1d.density_split, g, RegScheme.zeta(), spec)
        fit = limits_lab.fit_divergence(
            profile, Endpoint.LEFT, component="electric",
            constant_part=-math.pi / 48.0,
        )
        return abs(fit.exponent + 2.0), 0.02
    if kind == "em":
        profile = limits_lab.sample_profile(
            lambda g_, pos, _s: em3d.correlators(g_, pos).e2, g, RegScheme.zeta(), spec
        )
        fit = limits_lab.fit_divergence(
            profile, Endpoint.LEFT, component="electric",
            constant_part=-math.pi ** 2 / (16.0 * 45.0),
        )
        return abs(fit.exponent + 4.0), 0.02
    c = em3d.EhCouplings()
    profile = limits_lab.sample_profile(
        lambda g_, pos, _s: em3d.eh_correction_density(g_, pos, c), g, RegScheme.zeta(), spec
    )
    fit = limits_lab.fit_divergence(
        profile, Endpoint.LEFT, component="electric",
        constant_part=em3d.eh_correction_constant(g, c),
    )
    return abs(fit.exponent + 8.0), 0.1


def _route_equivalence(model: CommutationModel):
    g = Geometry(1.0)
    if model is CommutationModel.FREE_SCALAR:
        report = limits_lab.commutation_report(
            g, model, deltas=[0.02, 0.01, 0.005, 0.0025],
            epsilons=[1e-3, 5e-4, 2.5e-4],
        )
    else:
        report = limits_lab.commutation_report(
            g, model, deltas=[0.02, 0.01, 0.005, 0.0025],
            epsilons=[0.04, 0.02, 0.01, 0.005], couplings=Couplings(alpha=0.01, m=10.0),
        )
    rel = report.verdict.difference / abs(report.sum_then_regularize)
    return rel, 1e-7


def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    # Nodes and weights on [-1, 1] by Newton's method on the Legendre
    # recurrence.  numpy's leggauss solves a dense eigenproblem instead,
    # which at n = 200 costs ~5x the CPU time and loses ~1e-11 in the
    # weights next to +-1; factoring 1 - x^2 keeps them accurate there.
    x = np.cos(np.pi * (np.arange(1, n + 1) - 0.25) / (n + 0.5))
    for _ in range(10):
        p0, p1 = np.ones_like(x), x
        for k in range(2, n + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        one_minus_x2 = (1.0 - x) * (1.0 + x)
        q = n * (x * p1 - p0)  # (x^2 - 1) P_n'(x)
        step = -p1 * one_minus_x2 / q
        x = x - step
        if np.max(np.abs(step)) < 1e-15:
            break
    return x, 2.0 * one_minus_x2 / (q * q)


def _cutoff_integral_nullity():
    # Gauss-Legendre over [0, L].  The integrand peaks within ~eps of the
    # walls; 200 nodes resolve eps = 0.05 to ~2e-13, while 100 nodes miss
    # the tolerance, so the check still measures the quadrature it runs.
    g = Geometry(1.0)
    nodes, weights = _gauss_legendre(200)
    z = 0.5 * g.length * (nodes + 1.0)
    worst = 0.0
    for eps in (0.5, 0.05):
        values = [regsum.abel_sum_sin_dtheta(eps, math.pi * zi / g.length) for zi in z]
        value = 0.5 * g.length * float(np.dot(weights, values))
        worst = max(worst, abs(-(math.pi / 8.0) * value))
    return worst, 1e-10


def _near_plate_asymptote():
    g = Geometry(1.0)
    worst = 0.0
    for theta, tol in ((0.05, 1e-2), (0.01, 5e-4)):
        pos = Position.from_theta(theta, g)
        full = em3d.correlators(g, pos).e2
        asym = em3d.near_plate_asymptotics(g, pos.z).e2
        worst = max(worst, abs(full / asym - 1.0) / tol)
    return worst, 1.0


def _profile_dual_definitions():
    worst = 0.0
    for theta in np.linspace(0.3, math.pi - 0.3, 20):
        worst = max(
            worst, abs(em3d.profile_F(theta) - em3d.profile_F_via_cot_derivative(theta))
        )
    return worst, 1e-9


def _window_divergence_exponent():
    g = Geometry(1.0)
    report = limits_lab.commutation_report(
        g, CommutationModel.FREE_SCALAR,
        deltas=[0.02, 0.01, 0.005, 0.0025], epsilons=[1e-3, 5e-4, 2.5e-4],
    )
    return abs(report.window_fit_exponent + 1.0), 0.02


def _richardson_polynomial():
    samples = [(h, 3.0 + h * h) for h in (0.4, 0.2, 0.1)]
    limit, _ = regsum.richardson_extrapolate(samples, order=2)
    return abs(limit - 3.0), 1e-12


QUICK_CHECKS: list[tuple[str, Check]] = [
    ("zeta(-1) = -1/12", _zeta_minus_one),
    ("zeta(-2) = 0", _zeta_minus_two),
    ("free scalar total energy", _free_scalar_total),
    ("EM density is the constant -pi^2/720L^4", _em_constant_density),
    ("Casimir force per area", _casimir_force),
    ("cutoff sine sum closed form", _cutoff_sine_closed_form),
    ("cutoff limit extrapolation", _cutoff_limit_extrapolation),
    ("scalar electric+magnetic cancellation", _scalar_density_cancellation),
    ("constant-part rational identities", _rational_identities),
]

FULL_CHECKS: list[tuple[str, Check]] = QUICK_CHECKS + [
    ("gamma recurrence", _gamma_recurrence),
    ("bernoulli recurrence", _bernoulli_recurrence),
    ("zeta functional equation at negative integers", _functional_equation_integers),
    ("scheme agreement in the interior", _scheme_agreement),
    ("cutoff-series residual scales as eps^4", _expansion_slope),
    ("scalar boundary exponent -2", lambda: _near_plate_exponent("scalar")),
    ("EM boundary exponent -4", lambda: _near_plate_exponent("em")),
    ("correction-density boundary exponent -8", lambda: _near_plate_exponent("eh")),
    ("route equivalence, free scalar",
     lambda: _route_equivalence(CommutationModel.FREE_SCALAR)),
    ("route equivalence, interacting scalar",
     lambda: _route_equivalence(CommutationModel.INTERACTING_SCALAR)),
    ("cutoff position term integrates to zero", _cutoff_integral_nullity),
    ("near-plate asymptote matching", _near_plate_asymptote),
    ("profile dual definitions", _profile_dual_definitions),
    ("window-integral divergence exponent -1", _window_divergence_exponent),
    ("richardson annihilates polynomials", _richardson_polynomial),
]

SUITES = {"quick": QUICK_CHECKS, "full": FULL_CHECKS}


def run_suite(suite: str) -> list[CheckResult]:
    """Run the named invariant suite ("quick" or "full")."""
    if suite not in SUITES:
        raise ConfigError("suite", f"must be one of {sorted(SUITES)}, got {suite!r}")
    scale = _tolerance_scale()
    results = []
    for name, check in SUITES[suite]:
        measured, tolerance = check()
        tolerance = tolerance * scale
        results.append(
            CheckResult(
                name=name,
                measured=float(measured),
                tolerance=float(tolerance),
                passed=bool(measured <= tolerance),
            )
        )
    return results
