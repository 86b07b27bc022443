import functools
import math
from fractions import Fraction

import numpy as np
import pytest

from platevac import em3d, geometry, limits_lab, regsum, scalar1d, specfun, verify
from platevac.geometry import Clustering, Geometry, GridSpec, Position
from platevac.regsum import RegScheme


class TestCasimirForceCheck:
    def test_cross_checks_a_finite_difference(self):
        # The check compares the exact force with a central difference of
        # the free energy, so its deviation is the difference's own error.
        (result,) = [r for r in verify.run_suite("quick") if r.name == "Casimir force per area"]
        assert result.passed and result.tolerance == 1e-8
        assert 0.0 < result.measured < 1e-8


# The checks as they were first written, kept as references: each rewritten
# check must return the same (measured, tolerance), bit for bit.
def fraction_bernoulli_recurrence():
    for n in range(1, specfun.MAX_BERNOULLI_INDEX + 1):
        acc = Fraction(0)
        for k in range(n + 1):
            acc += math.comb(n + 1, k) * specfun.bernoulli(k)
        if acc != 0:
            return 1.0, 0.0
    return 0.0, 0.0


def generator_cutoff_sine_closed_form():
    worst = 0.0
    for eps in (0.05, 0.1, 0.5):
        for theta in (0.3, 1.0, 2.5):
            direct = math.fsum(
                math.exp(-eps * n) * math.sin(2.0 * theta * n) for n in range(1, 2001)
            )
            value = regsum.abel_sum_sin(eps, theta)
            worst = max(worst, abs(value - direct) / max(abs(direct), 1e-30))
    return worst, regsum.CLOSED_FORM_RTOL


def per_point_near_plate_exponent(kind):
    g = Geometry(1.0)
    c = em3d.EhCouplings()
    source, constant, exponent, tolerance = {
        "scalar": (lambda g_, pos, s: scalar1d.density_split(g_, pos, s),
                   -math.pi / 48.0, -2.0, 0.02),
        "em": (lambda g_, pos, _s: em3d.correlators(g_, pos).e2,
               -math.pi ** 2 / (16.0 * 45.0), -4.0, 0.02),
        "eh": (lambda g_, pos, _s: em3d.eh_correction_density(g_, pos, c),
               em3d.eh_correction_constant(g, c), -8.0, 0.1),
    }[kind]
    spec = GridSpec(count=200, clustering=Clustering.ENDPOINTS)
    profile = limits_lab.sample_profile(source, g, RegScheme.zeta(), spec)
    fit = limits_lab.fit_divergence(
        profile, limits_lab.Endpoint.LEFT, component="electric", constant_part=constant
    )
    return abs(fit.exponent - exponent), tolerance


def uniform_800_cutoff_integral_nullity():
    g = Geometry(1.0)
    m = 800
    worst = 0.0
    for eps in (0.5, 0.05):
        value = g.length / m * math.fsum(
            regsum.abel_sum_sin_dtheta(eps, math.pi * k / m) for k in range(m)
        )
        worst = max(worst, abs(-(math.pi / 8.0) * value))
    return worst, 1e-10


def linspace_scheme_agreement():
    g = Geometry(1.0)
    worst = 0.0
    for theta in np.linspace(0.2, math.pi - 0.2, 20):
        pos = Position.from_theta(theta, g)
        continued = scalar1d.electric_density(g, pos, RegScheme.zeta())
        samples = [
            (eps, scalar1d.electric_density(g, pos, RegScheme.cutoff(eps)))
            for eps in verify._SCHEME_LADDER
        ]
        limit, _ = regsum.richardson_extrapolate(samples, order=2)
        worst = max(worst, abs(limit - continued))
    return worst, 1e-7 * math.pi / 16.0


def linspace_profile_dual_definitions():
    worst = 0.0
    for theta in np.linspace(0.3, math.pi - 0.3, 20):
        worst = max(
            worst, abs(em3d.profile_F(theta) - em3d.profile_F_via_cot_derivative(theta))
        )
    return worst, 1e-9


def bits(pair):
    return tuple(float(v).hex() for v in pair)


def suite_result(name):
    (result,) = [r for r in verify.run_suite("full") if r.name == name]
    return result


class TestRewrittenChecks:
    @pytest.mark.parametrize("check, reference", [
        (verify._bernoulli_recurrence, fraction_bernoulli_recurrence),
        (verify._cutoff_sine_closed_form, generator_cutoff_sine_closed_form),
    ] + [
        (functools.partial(verify._near_plate_exponent, kind),
         functools.partial(per_point_near_plate_exponent, kind))
        for kind in ("scalar", "em", "eh")
    ] + [
        (verify._scheme_agreement, linspace_scheme_agreement),
        (verify._profile_dual_definitions, linspace_profile_dual_definitions),
        (verify._cutoff_integral_nullity, uniform_800_cutoff_integral_nullity),
    ])
    def test_equals_the_reference_bit_for_bit(self, check, reference):
        assert bits(check()) == bits(reference())

    def test_full_suite_passes(self):
        results = verify.run_suite("full")
        assert [r.name for r in results] == [name for name, _ in verify.FULL_CHECKS]
        assert all(r.passed for r in results)

    @pytest.mark.parametrize("offset", [Fraction(1, 10 ** 6), Fraction(-1, 10 ** 6)])
    @pytest.mark.parametrize("index", [0, 1, 2, 33, 64])
    def test_bernoulli_off_by_a_millionth_fails(self, monkeypatch, index, offset):
        # The check reads the integer pairs that bernoulli() wraps.  The first
        # run builds the suite's cached tables from the exact numbers.
        assert suite_result("bernoulli recurrence").passed
        exact = specfun._bernoulli_pair

        def bernoulli_pair(k):
            b_k = Fraction(*exact(k)) + (offset if k == index else 0)
            return specfun._Pair(b_k.numerator, b_k.denominator)

        monkeypatch.setattr(specfun, "_bernoulli_pair", bernoulli_pair)
        assert verify._bernoulli_recurrence() == (1.0, 0.0)
        assert fraction_bernoulli_recurrence() == (1.0, 0.0)
        assert not suite_result("bernoulli recurrence").passed

    @pytest.mark.parametrize("name, entry", [
        ("scalar correction total", ((-1, 1), 2, 3, 1, (1, 143))),
        ("scalar correction density", ((-1, 9), 2, 4, 1, (1, 18))),
        ("eh total", ((-1, 17280), 4, 7, 2, (11, 226))),
        ("em total", ((-1, 721), 2, 3, 0, None)),
        ("em density", ((-1, 720), 2, 4, 1, None)),
    ])
    def test_law_table_entry_changed_fails(self, monkeypatch, name, entry):
        # One integer of one entry of the table, or its power of alpha, changed.
        monkeypatch.setitem(geometry.LAWS, name, entry)
        assert verify._rational_identities() == (1.0, 0.0)
        assert not suite_result("constant-part rational identities").passed

    def test_closed_form_scaled_by_one_plus_1e_9_fails(self, monkeypatch):
        exact = regsum.abel_sum_sin
        monkeypatch.setattr(
            regsum, "abel_sum_sin", lambda eps, theta: exact(eps, theta) * (1.0 + 1e-9)
        )
        measured, tolerance = verify._cutoff_sine_closed_form()
        assert measured > tolerance
        assert bits((measured, tolerance)) == bits(generator_cutoff_sine_closed_form())
        assert not suite_result("cutoff sine sum closed form").passed

    def test_em_profile_exponent_perturbed_fails(self, monkeypatch):
        # F ~ 3/sin^4 near a wall; F * sin^0.05 moves <E^2>'s exponent to
        # -3.95, outside the check's 0.02.
        exact = em3d._profile
        monkeypatch.setattr(em3d, "_profile", lambda s: exact(s) * s ** 0.05)
        measured, tolerance = verify._near_plate_exponent("em")
        assert measured == pytest.approx(0.05, abs=0.01) and measured > tolerance
        assert per_point_near_plate_exponent("em")[0] > tolerance
        assert not suite_result("EM boundary exponent -4").passed
        assert suite_result("scalar boundary exponent -2").passed

    def test_position_term_offset_by_1e_9_fails(self, monkeypatch):
        # A constant 1e-9 integrates to pi/8 * 1e-9 ~ 3.9e-10 over [0, L].
        exact = regsum.abel_sum_sin_dtheta
        monkeypatch.setattr(
            regsum, "abel_sum_sin_dtheta", lambda eps, theta: exact(eps, theta) + 1e-9
        )
        measured, tolerance = verify._cutoff_integral_nullity()
        assert measured == pytest.approx(math.pi / 8.0 * 1e-9, rel=1e-3)
        assert measured > tolerance
        assert not suite_result("cutoff position term integrates to zero").passed


class TestCheckSizes:
    @pytest.mark.parametrize("eps", [0.05, 0.1, 0.5])
    def test_dropped_sine_tail_is_negligible(self, eps):
        # sum over n > N of e^(-eps n), a bound on the dropped sine terms.
        n = verify._sine_sum_terms(eps)
        assert math.exp(-eps * (n + 1)) / -math.expm1(-eps) < 1e-17

    def test_fifty_nodes_miss_the_nullity_tolerance_at_eps_one_half(self):
        # The check's 100 nodes at eps = 0.5 are needed: 50 fail it.
        _, tolerance = verify._cutoff_integral_nullity()
        assert verify._position_term_integral(0.5, 50) > tolerance
        assert verify._position_term_integral(0.5, 100) < tolerance


class TestLinspace:
    @pytest.mark.parametrize("start, stop, num", [
        (0.2, math.pi - 0.2, 20), (0.3, math.pi - 0.3, 20), (0.0, 1.0, 2),
        (-1.5, 7.25, 3), (1e-3, 0.7, 1001), (2.0, -3.0, 17),
    ])
    def test_numpy_points_bit_for_bit(self, start, stop, num):
        assert [v.hex() for v in verify._linspace(start, stop, num)] == [
            v.hex() for v in np.linspace(start, stop, num).tolist()
        ]


class TestFreeReport:
    """run_suite builds the free-scalar commutation report once per run.

    The route-equivalence and window-exponent checks read the same report,
    and a run reads none built before it.
    """

    CHECKS = ("route equivalence, free scalar", "window-integral divergence exponent -1")

    @staticmethod
    def counted_reports(monkeypatch, deltas=None):
        built = []
        report = limits_lab.commutation_report

        def counted(g, model, **kwargs):
            if model is limits_lab.CommutationModel.FREE_SCALAR:
                built.append(kwargs)
                kwargs = {**kwargs, "deltas": deltas or kwargs["deltas"]}
            return report(g, model, **kwargs)

        monkeypatch.setattr(limits_lab, "commutation_report", counted)
        return built

    @classmethod
    def measured(cls, results):
        return [r.measured for r in results if r.name in cls.CHECKS]

    @staticmethod
    def from_report(report):
        return [report.verdict.difference / abs(report.sum_then_regularize),
                abs(report.window_fit_exponent + 1.0)]

    def test_built_once_per_run(self, monkeypatch):
        built = self.counted_reports(monkeypatch)
        first = verify.run_suite("full")
        assert len(built) == 1
        assert self.measured(first) == self.from_report(verify._free_report.__wrapped__())
        assert verify.run_suite("full") == first
        assert len(built) == 3  # the second run built its own
        verify.run_suite("quick")
        assert len(built) == 3

    def test_a_run_reads_no_report_built_before_it(self, monkeypatch):
        before = self.measured(verify.run_suite("full"))
        self.counted_reports(monkeypatch, deltas=[0.04, 0.02, 0.01, 0.005])
        after = self.measured(verify.run_suite("full"))
        assert after == self.from_report(verify._free_report.__wrapped__())
        assert after[1] != before[1]


class TestDirectSineSums:
    """The closed-form check's direct sums read only math: a process builds them once.

    The check still calls regsum.abel_sum_sin on every run, so a run that
    follows a changed closed form fails.
    """

    NAME = "cutoff sine sum closed form"

    def test_cached_sums_equal_a_fresh_build(self):
        cached, fresh = verify._direct_sine_sums(), verify._direct_sine_sums.__wrapped__()
        assert [tuple(v.hex() for v in row) for row in cached] == [
            tuple(v.hex() for v in row) for row in fresh]
        assert [(eps, theta) for eps, theta, _ in cached] == [
            (eps, theta) for eps in (0.05, 0.1, 0.5) for theta in (0.3, 1.0, 2.5)]

    def test_built_once_across_runs(self):
        verify._direct_sine_sums.cache_clear()
        first = verify.run_suite("full")
        assert verify.run_suite("full") == first
        info = verify._direct_sine_sums.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_closed_form_is_called_on_every_run(self, monkeypatch):
        assert suite_result(self.NAME).passed
        exact = regsum.abel_sum_sin
        calls = []

        def scaled(eps, theta):
            calls.append((eps, theta))
            return exact(eps, theta) * (1.0 + 1e-9)

        monkeypatch.setattr(regsum, "abel_sum_sin", scaled)
        measured, tolerance = verify._cutoff_sine_closed_form()
        assert measured > tolerance and len(calls) == 9
        assert not suite_result(self.NAME).passed
        monkeypatch.setattr(regsum, "abel_sum_sin", exact)
        assert suite_result(self.NAME).passed

