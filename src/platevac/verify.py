"""Built-in invariant suite behind the ``verify`` CLI command.

Each check reduces to a single measured deviation compared against a
tolerance; the suite passes when every deviation is inside its tolerance.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import random
from typing import Callable

from . import em3d, regsum, scalar1d, specfun
from .errors import ConfigError
from .geometry import LAWS, Clustering, FieldModel, Geometry, GridSpec, Position
from .record import Record
from .regsum import RegScheme
from .scalar1d import Couplings

__all__ = ["CheckResult", "run_suite", "SUITES"]


class CheckResult(Record):
    """One check's outcome; the field names, in order, are its JSON keys."""

    __slots__ = ("name", "measured", "tolerance", "passed")


# Each check returns (measured deviation, tolerance).
Check = Callable[[], tuple[float, float]]


def _linspace(start: float, stop: float, num: int) -> list[float]:
    # The array linspace's points, bit for bit: i step + start, then stop.
    step = (stop - start) / (num - 1)
    return [i * step + start for i in range(num - 1)] + [stop]


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
    rng = random.Random(20)
    worst = 0.0
    for _ in range(20):
        theta = rng.uniform(0.6, math.pi - 0.6)
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


def _sine_sum_terms(eps: float) -> int:
    # The least N whose dropped tail, sum over n > N of e^(-eps n), which is
    # e^(-eps (N + 1)) / (1 - e^(-eps)), lies below e^(-40): far below one
    # rounding of the sums the check compares.
    return math.ceil((40.0 - math.log(-math.expm1(-eps))) / eps)


@functools.cache
def _direct_sine_sums() -> tuple[tuple[float, float, float], ...]:
    # (eps, theta, sum of e^(-eps n) sin(2 theta n) over n = 1 .. N(eps)), from
    # one table of decays per eps and one of sines per theta.  Each fsum is the
    # 2000-term sum bit for bit.  The sums read only math, so a process builds
    # them once; the check still calls the library on every run.
    terms = {eps: _sine_sum_terms(eps) for eps in (0.05, 0.1, 0.5)}
    n_range = range(1, max(terms.values()) + 1)
    sines = {theta: [math.sin(2.0 * theta * n) for n in n_range] for theta in (0.3, 1.0, 2.5)}
    sums = []
    for eps, n_terms in terms.items():
        decay = [math.exp(-eps * n) for n in range(1, n_terms + 1)]
        sums += [(eps, theta, math.fsum(map(operator.mul, decay, sine)))
                 for theta, sine in sines.items()]
    return tuple(sums)


def _cutoff_sine_closed_form():
    worst = 0.0
    for eps, theta, direct in _direct_sine_sums():
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


# Each density of geometry.LAWS, and a law that is its integral over [0, L].
_INTEGRALS = (("scalar correction density", "scalar correction total"),
              ("eh density", "eh total"), ("em density", "em total"))


def _rational_identities():
    # The integral's coefficient times its constant part is the density's, at
    # one power of L less and the same powers of pi and alpha.
    from fractions import Fraction

    def integrated(name, dk):
        (p, q), n, k, j, constant = LAWS[name]
        return Fraction(p, q) * Fraction(*constant or (1, 1)), n, k - dk, j

    ok = all(integrated(density, 1) == integrated(total, 0) for density, total in _INTEGRALS)
    return (0.0 if ok else 1.0), 0.0


def _gamma_recurrence():
    rng = random.Random(7)
    worst = 0.0
    for x in (rng.uniform(0.1, 20.0) for _ in range(100)):
        lhs = specfun.gamma(x + 1.0)
        rhs = x * specfun.gamma(x)
        worst = max(worst, abs(lhs - rhs) / abs(rhs))
    return worst, 1e-12


def _bernoulli_recurrence():
    # sum_k C(n+1, k) B_k = 0 for n = 1..64, in integers: every B_k is
    # scaled by the common denominator D, which leaves each sum exact.  The
    # terms of the odd B_k above B_1, which are 0, are left out.
    pairs = [specfun._bernoulli_pair(k) for k in range(specfun.MAX_BERNOULLI_INDEX + 1)]
    d = math.lcm(*(q for _, q in pairs))
    terms = []  # (k, D B_k) for the nonzero B_k, k <= n
    for n, (p, q) in enumerate(pairs):
        if p:
            terms.append((n, p * (d // q)))
        if n and sum(math.comb(n + 1, k) * b_k for k, b_k in terms):
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


# Checks that use limits_lab import it where they run; all of them are in
# the full suite, so the quick suite never loads it.
def _scheme_agreement():
    # The electric density at 20 interior angles, one float-engine column per
    # scheme: each entry is scalar1d.electric_density's value bit for bit.
    from . import limits_lab

    g = Geometry(1.0)
    thetas = tuple(_linspace(0.2, math.pi - 0.2, 20))

    def electric(scheme):
        return limits_lab.density_columns(g, FieldModel.SCALAR, scheme, thetas)["electric"]

    cutoffs = [electric(RegScheme.cutoff(eps)) for eps in _SCHEME_LADDER]
    worst = 0.0
    for continued, *values in zip(electric(RegScheme.zeta()), *cutoffs):
        limit, _ = regsum.richardson_extrapolate(list(zip(_SCHEME_LADDER, values)), order=2)
        worst = max(worst, abs(limit - continued))
    return worst, 1e-7 * math.pi / 16.0


def _expansion_slope():
    from . import limits_lab

    fit = limits_lab.epsilon_expansion_check([1.0], [0.04, 0.02, 0.01])[0]
    return abs(fit.slope - 4.0), 0.1


def _near_plate_exponent(kind: str):
    from . import limits_lab

    # Per wall law: the density at a position, its constant part at L = 1,
    # the exponent of sin(theta) and the tolerance on that exponent.  The
    # densities are the electric scalar density, <E^2> and
    # eh_correction_density.
    g = Geometry(1.0)
    c = em3d.EhCouplings()
    zeta = RegScheme.zeta()
    density, constant, exponent, tolerance = {
        "scalar": (lambda pos: scalar1d.electric_density(g, pos, zeta),
                   -math.pi / 48.0, -2.0, 0.02),
        "em": (lambda pos: em3d.correlators(g, pos).e2,
               -math.pi ** 2 / (16.0 * 45.0), -4.0, 0.02),
        "eh": (lambda pos: em3d.eh_correction_density(g, pos, c),
               em3d.eh_correction_constant(g, c), -8.0, 0.1),
    }[kind]
    # The walk from the left wall takes the first n_points nonzero
    # residuals of the 200-point endpoint-clustered grid; next to a wall
    # every residual is large, so it reads the first n_points angles only.
    n_points = 4
    grid = tuple(itertools.islice(limits_lab._grid_angles(GridSpec(200, Clustering.ENDPOINTS)),
                                  n_points))
    fit = limits_lab._fit_walk(
        grid, [density(Position.from_theta(theta, g)) for theta in grid],
        limits_lab.Endpoint.LEFT, constant_part=constant, n_points=n_points, window=None,
    )
    return abs(fit.exponent - exponent), tolerance


@functools.cache
def _free_report():
    # The free-scalar commutation report, read by two checks: run_suite
    # clears the cache before and after each run, so a run builds it once.
    from . import limits_lab

    return limits_lab.commutation_report(
        Geometry(1.0), limits_lab.CommutationModel.FREE_SCALAR,
        deltas=[0.02, 0.01, 0.005, 0.0025], epsilons=[1e-3, 5e-4, 2.5e-4],
    )


def _route_equivalence(model: str):
    from . import limits_lab

    report = _free_report() if model == "free_scalar" else limits_lab.commutation_report(
        Geometry(1.0), limits_lab.CommutationModel(model), deltas=[0.02, 0.01, 0.005, 0.0025],
        epsilons=[0.04, 0.02, 0.01, 0.005], couplings=Couplings(alpha=0.01, m=10.0),
    )
    return report.verdict.difference / abs(report.sum_then_regularize), 1e-7


def _position_term_integral(eps: float, m: int) -> float:
    # |integral of the cutoff position term over [0, L]| at L = 1, by the
    # trapezoidal rule on m angles.
    value = 1.0 / m * math.fsum(
        regsum.abel_sum_sin_dtheta(eps, math.pi * k / m) for k in range(m)
    )
    return abs(math.pi / 8.0 * value)


def _cutoff_integral_nullity():
    # The position term is pi-periodic in theta and analytic for eps > 0,
    # so the trapezoidal rule over one period converges exponentially.
    # 100 angles measure 1.5e-16 at eps = 0.5 and 800 measure 1.4e-14 at
    # eps = 0.05, while 50 and 400 miss the tolerance (5.5e-10 and 6.5e-7),
    # so the check still measures the rule it runs.
    worst = 0.0
    for eps, m in ((0.5, 100), (0.05, 800)):
        worst = max(worst, _position_term_integral(eps, m))
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
    for theta in _linspace(0.3, math.pi - 0.3, 20):
        worst = max(
            worst, abs(em3d.profile_F(theta) - em3d.profile_F_via_cot_derivative(theta))
        )
    return worst, 1e-9


def _window_divergence_exponent():
    return abs(_free_report().window_fit_exponent + 1.0), 0.02


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
    ("route equivalence, free scalar", lambda: _route_equivalence("free_scalar")),
    ("route equivalence, interacting scalar",
     lambda: _route_equivalence("interacting_scalar")),
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
    _free_report.cache_clear()
    try:
        measures = [(name, *check()) for name, check in SUITES[suite]]
    finally:
        _free_report.cache_clear()
    return [CheckResult(name=name, measured=float(measured), tolerance=float(tolerance),
                        passed=bool(measured <= tolerance))
            for name, measured, tolerance in measures]
