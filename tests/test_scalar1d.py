import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from platevac import limits_lab, regsum, scalar1d
from platevac.errors import DomainError, RangeError, SingularityError
from platevac.geometry import Geometry, Position, window_integral
from platevac.regsum import RegScheme
from platevac.scalar1d import Couplings, EnergySplit, ValidityWarning

G1 = Geometry(1.0)


def pos(theta, g=G1):
    return Position.from_theta(theta, g)


class TestGeometryAndPosition:
    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_bad_length(self, bad):
        with pytest.raises(DomainError):
            Geometry(bad)

    def test_position_consistency(self):
        g = Geometry(2.0)
        p = Position.from_z(0.5, g)
        assert p.theta == pytest.approx(math.pi / 4, rel=1e-15)
        q = Position.from_theta(math.pi / 4, g)
        assert q.z == pytest.approx(0.5, rel=1e-15)

    @pytest.mark.parametrize("z", [-0.1, 1.1])
    def test_position_outside_interval(self, z):
        with pytest.raises(DomainError):
            Position.from_z(z, G1)

    @pytest.mark.parametrize("d", [1e-4, 1e-7, 1e-10])
    def test_mirror_positions_from_z(self, d):
        # z = L - d and its mirror L - z (exact) lie at the same distance
        # from a wall, so their densities agree; theta = pi z / L would
        # lose that distance in the rounding of pi z.
        z = G1.length - d
        near_right, near_left = Position.from_z(z, G1), Position.from_z(G1.length - z, G1)
        for scheme in (RegScheme.zeta(), RegScheme.cutoff(1e-3)):
            right = scalar1d.density_split(G1, near_right, scheme)
            left = scalar1d.density_split(G1, near_left, scheme)
            assert right.electric == pytest.approx(left.electric, rel=1e-12)
            assert right.magnetic == pytest.approx(left.magnetic, rel=1e-12)

    def test_z_positions_keep_their_sine_through_copies(self):
        import copy
        import pickle

        p = Position.from_z(1.0 - 1e-10, G1)
        for twin in (copy.copy(p), pickle.loads(pickle.dumps(p))):
            assert twin == p and twin.sin_theta == p.sin_theta
        assert p.sin_theta != math.sin(p.theta)


class TestFreeTotalEnergy:
    def test_value(self):
        assert scalar1d.free_total_energy(G1) == pytest.approx(
            -math.pi / 24.0, rel=1e-12
        )

    def test_scaling(self):
        assert scalar1d.free_total_energy(Geometry(2.0)) == pytest.approx(
            -math.pi / 48.0, rel=1e-12
        )
        assert scalar1d.free_total_energy(Geometry(0.5)) == pytest.approx(
            -math.pi / 12.0, rel=1e-12
        )

    def test_goes_through_the_engine(self, monkeypatch):
        # the value must be produced by the continuation engine, not a
        # hard-coded constant
        calls = []
        original = regsum.zeta_regularize_power

        def spy(spec):
            calls.append(spec)
            return original(spec)

        monkeypatch.setattr(regsum, "zeta_regularize_power", spy)
        value = scalar1d.free_total_energy(G1)
        assert calls, "free_total_energy bypassed the regularization engine"
        assert calls[0].exponent == 1.0
        assert value == pytest.approx(-math.pi / 24.0, rel=1e-12)


class TestDensities:
    def test_electric_midpoint_continued(self):
        value = scalar1d.electric_density(G1, pos(math.pi / 2), RegScheme.zeta())
        assert value == pytest.approx(math.pi / 24.0, rel=1e-12)

    def test_electric_midpoint_cutoff_extrapolated(self):
        samples = [
            (eps, scalar1d.electric_density(G1, pos(math.pi / 2), RegScheme.cutoff(eps)))
            for eps in (0.04, 0.02, 0.01, 0.005)
        ]
        limit, _ = regsum.richardson_extrapolate(samples, order=2)
        assert limit == pytest.approx(math.pi / 24.0, abs=1e-8)

    def test_electric_closed_form(self):
        for theta in (0.3, 1.0, 2.7):
            value = scalar1d.electric_density(G1, pos(theta), RegScheme.zeta())
            closed = -(math.pi / 16.0) * (1.0 / 3.0 - 1.0 / math.sin(theta) ** 2)
            assert value == pytest.approx(closed, rel=1e-12)

    def test_magnetic_midpoint(self):
        value = scalar1d.magnetic_density(G1, pos(math.pi / 2), RegScheme.zeta())
        assert value == pytest.approx(-math.pi / 12.0, rel=1e-12)

    def test_magnetic_quarter_point(self):
        value = scalar1d.magnetic_density(G1, pos(math.pi / 4), RegScheme.zeta())
        assert value == pytest.approx(-(math.pi / 16.0) * (1.0 / 3.0 + 2.0), rel=1e-12)

    def test_boundary_divergence_ratio(self):
        # the position term grows as 1/sin^2: the ratio between two small
        # angles matches the csc^2 ratio
        const = -math.pi / 48.0
        v1 = scalar1d.electric_density(G1, pos(0.1), RegScheme.zeta()) - const
        v2 = scalar1d.electric_density(G1, pos(0.05), RegScheme.zeta()) - const
        expected = (math.sin(0.1) / math.sin(0.05)) ** 2
        assert v2 / v1 == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize("theta", [0.0, math.pi])
    def test_continued_scheme_endpoint_error(self, theta):
        with pytest.raises(SingularityError):
            scalar1d.electric_density(G1, pos(theta), RegScheme.zeta())
        with pytest.raises(SingularityError):
            scalar1d.magnetic_density(G1, pos(theta), RegScheme.zeta())

    def test_cutoff_scheme_defined_on_walls(self):
        value = scalar1d.electric_density(G1, pos(0.0), RegScheme.cutoff(0.05))
        assert math.isfinite(value)

    def test_wrong_geometry_rejected(self):
        p = Position.from_theta(1.0, Geometry(2.0))
        with pytest.raises(DomainError):
            scalar1d.electric_density(G1, p, RegScheme.zeta())


class TestDensitySplit:
    def test_midpoint_split(self):
        split = scalar1d.density_split(G1, pos(math.pi / 2), RegScheme.zeta())
        assert split.electric == pytest.approx(math.pi / 24.0, rel=1e-12)
        assert split.magnetic == pytest.approx(-math.pi / 12.0, rel=1e-12)
        assert split.total == pytest.approx(-math.pi / 24.0, rel=1e-12)

    def test_total_position_independent(self):
        for theta in (0.2, 1.0, 2.5):
            split = scalar1d.density_split(G1, pos(theta), RegScheme.zeta())
            assert split.total == pytest.approx(-math.pi / 24.0, rel=1e-12)

    def test_length_scaling(self):
        g = Geometry(3.0)
        split = scalar1d.density_split(g, pos(2.0, g), RegScheme.zeta())
        assert split.total == pytest.approx(-math.pi / 216.0, rel=1e-12)

    def test_cancellation_both_schemes(self):
        # electric + magnetic position parts are exact negatives
        for scheme in (RegScheme.zeta(), RegScheme.cutoff(0.02)):
            for theta in (0.05, 0.7, 2.0, 3.0):
                split = scalar1d.density_split(G1, pos(theta), scheme)
                assert abs(split.total + math.pi / 24.0) < 1e-8

    def test_half_energy_split(self):
        # theta-independent electric part integrates to half the energy
        const = scalar1d.electric_density(
            G1, pos(math.pi / 2), RegScheme.zeta()
        ) - math.pi / 16.0
        assert const * G1.length == pytest.approx(
            0.5 * scalar1d.free_total_energy(G1), rel=1e-12
        )

    def test_energy_split_invariant_enforced(self):
        with pytest.raises(DomainError):
            EnergySplit(electric=1.0, magnetic=1.0, total=3.0)

    @pytest.mark.parametrize("length,scheme,theta", [
        (1e-160, RegScheme.zeta(), 1.0),
        (1e-160, RegScheme.cutoff(0.01), 1.0),
        (1e-150, RegScheme.cutoff(1e-12), 1e-10),
    ])
    @pytest.mark.parametrize(
        "function", [scalar1d.electric_density, scalar1d.magnetic_density, scalar1d.density_split]
    )
    def test_point_density_overflow_raises(self, function, length, scheme, theta):
        g = Geometry(length)
        with pytest.raises(
            RangeError, match=f"^the electric density overflows a double at L = {length!r}$"
        ):
            function(g, pos(theta, g), scheme)

    def test_energy_split_holds_a_non_finite_part(self):
        # Overflow is checked where a density is computed, not on every read.
        split = EnergySplit(electric=math.nan, magnetic=1.0, total=math.nan)
        assert math.isnan(split.electric)

    @pytest.mark.parametrize("eps,theta", [(1e-12, 1e-10), (1e-8, 1e-10), (1e-12, math.pi - 1e-9)])
    def test_cutoff_total_is_the_constant_near_the_wall(self, eps, theta):
        # The parts are about +-2e19 and cancel: the total is -pi/24 from
        # the constant, not the rounding of their sum.
        split = scalar1d.density_split(G1, pos(theta), RegScheme.cutoff(eps))
        assert abs(split.electric) > 1e15
        assert split.total == pytest.approx(-math.pi / 24.0, rel=1e-15)


class TestSchemeComparison:
    LADDER = (0.04, 0.02, 0.01, 0.005)

    def test_interior_agreement(self):
        # continued density equals the eps -> 0 extrapolation of the cutoff
        # density well inside the interval
        tol = 1e-7 * math.pi / 16.0
        for theta in np.linspace(0.2, math.pi - 0.2, 20):
            continued = scalar1d.electric_density(G1, pos(theta), RegScheme.zeta())
            samples = [
                (eps, scalar1d.electric_density(G1, pos(theta), RegScheme.cutoff(eps)))
                for eps in self.LADDER
            ]
            limit, _ = regsum.richardson_extrapolate(samples, order=2)
            assert abs(limit - continued) < tol

    def test_near_wall_disagreement(self):
        # inside theta < 3 eps the schemes part ways: the cutoff value is
        # boundary dominated and misses the continued one by far more than
        # the interior tolerance
        theta = 0.02
        eps = 0.04
        continued = scalar1d.electric_density(G1, pos(theta), RegScheme.zeta())
        cutoff = scalar1d.electric_density(G1, pos(theta), RegScheme.cutoff(eps))
        assert abs(cutoff - continued) > 1e-7 * math.pi / 16.0

    def test_brute_force_mode_sum(self):
        # truncated mode sums with a frequency cutoff e^(-eps_omega omega_n)
        # reproduce the closed forms; eps_omega = 1e-3 maps to an index
        # cutoff pi * 1e-3 at L = 1
        eps = math.pi * 1e-3
        n_modes = 10 ** 4
        rng = np.random.default_rng(11)
        n = np.arange(1, n_modes + 1, dtype=float)
        damped = n * np.exp(-eps * n)
        for theta in rng.uniform(0.05, math.pi - 0.05, 20):
            brute = (math.pi / 4.0) * float(np.sum(damped * (1.0 - np.cos(2.0 * n * theta))))
            closed = (math.pi / 4.0) * regsum.abel_sum_linear(eps) - (
                math.pi / 8.0
            ) * regsum.abel_sum_sin_dtheta(eps, theta)
            assert abs(brute - closed) < 1e-6

    def test_cutoff_position_part_integrates_to_zero(self):
        # endpoint values of the cutoff sine sum vanish, so the position
        # part contributes nothing to the total at any finite eps
        for eps in (0.5, 0.05):
            integral, _ = quad(
                lambda z: scalar1d.electric_density(
                    G1, Position.from_z(z, G1), RegScheme.cutoff(eps)
                )
                + math.pi / 48.0,
                0.0,
                1.0,
                epsabs=1e-12,
                epsrel=1e-12,
                limit=200,
            )
            assert abs(integral) < 1e-10


def electric_window(g, delta):
    """The continued electric density over [delta, L - delta], as scan --vary delta takes it."""
    return window_integral(scalar1d.ELECTRIC_WINDOW, g.length, None,
                           scalar1d._free_total(g.length), delta)


class TestElectricWindow:
    """The free scalar's window through geometry.window_integral, and the two totals."""

    def test_sum_then_regularize(self):
        value = scalar1d.free_total_energy(G1)
        assert value == pytest.approx(-math.pi / 24.0, rel=1e-12)

    def test_sum_then_regularize_cutoff_scheme(self):
        # The bulk-subtracted cutoff total, the report's (c) column.
        report = limits_lab.commutation_report(
            G1, limits_lab.CommutationModel.FREE_SCALAR, deltas=[0.02, 0.01], epsilons=[1e-3])
        assert report.cutoff_rows[0].subtracted == pytest.approx(-math.pi / 24.0, rel=1e-5)

    @staticmethod
    def window_closed_form(delta):
        # antiderivative of the continued electric density at L = 1
        a = math.pi * delta
        return -(math.pi / 48.0) * (1.0 - 2.0 * delta) + math.cos(a) / math.sin(a) / 8.0

    def test_window_integral_matches_antiderivative(self):
        for delta in (0.01, 0.005):
            value, _ = electric_window(G1, delta)
            assert value == pytest.approx(self.window_closed_form(delta), abs=1e-9)

    def test_window_difference_matches_cot_difference(self):
        (v1, _), (v2, _) = electric_window(G1, 0.01), electric_window(G1, 0.005)
        expected = self.window_closed_form(0.005) - self.window_closed_form(0.01)
        assert v2 - v1 == pytest.approx(expected, abs=1e-6)

    def test_window_divergence_exponent(self):
        deltas = [0.02, 0.01, 0.005, 0.0025]
        values = [electric_window(G1, d)[0] for d in deltas]
        slope = np.polyfit(np.log(deltas), np.log(np.abs(values)), 1)[0]
        assert slope == pytest.approx(-1.0, abs=0.02)

    @staticmethod
    def mp_window(delta, length):
        # antiderivative -pi z/(48 L^2) - cot(pi z/L)/(16 L) of the continued
        # electric density, taken between the window ends in 50 digits
        with mpmath.workdps(50):
            L, d = mpmath.mpf(length), mpmath.mpf(delta)

            def antiderivative(z):
                return -mpmath.pi * z / (48 * L ** 2) - mpmath.cot(mpmath.pi * z / L) / (16 * L)

            return antiderivative(L - d) - antiderivative(d)

    @pytest.mark.parametrize("length", [1e-2, 1.0, 1e2])
    @pytest.mark.parametrize("fraction", [1e-8, 1e-6, 0.49])
    def test_window_against_mpmath_down_to_deep_margins(self, length, fraction):
        delta = fraction * length
        value, _ = electric_window(Geometry(length), delta)
        assert value == pytest.approx(float(self.mp_window(delta, length)), rel=1e-12)

    @pytest.mark.parametrize("length", [0.5, 3.0])
    @pytest.mark.parametrize("fraction", [0.01, 0.03, 0.1, 0.2])
    def test_window_against_quadrature(self, length, fraction):
        g = Geometry(length)
        delta = fraction * length
        oracle, _ = quad(
            lambda z: scalar1d.electric_density(g, Position.from_z(z, g), RegScheme.zeta()),
            delta, length - delta, epsabs=1e-12, epsrel=1e-12, limit=200,
        )
        value, _ = electric_window(g, delta)
        assert value == pytest.approx(oracle, rel=1e-10)


class TestInteractingDensity:
    def test_free_limit(self):
        c = Couplings(alpha=0.0, m=1.0)
        for theta in (0.4, 1.0, 2.0):
            assert scalar1d.interacting_density(G1, pos(theta), c) == pytest.approx(
                -math.pi / 24.0, rel=1e-12
            )

    def test_midpoint_value(self):
        c = Couplings(alpha=1.0, m=1.0)
        with pytest.warns(ValidityWarning):
            value = scalar1d.interacting_density(G1, pos(math.pi / 2), c)
        expected = -math.pi / 24.0 - (math.pi ** 2 / 8.0) * (19.0 / 18.0)
        assert value == pytest.approx(expected, rel=1e-12)

    def test_mirror_symmetry(self):
        c = Couplings(alpha=0.01, m=10.0)
        for theta in (0.3, 1.2):
            a = scalar1d.interacting_density(G1, pos(theta), c)
            b = scalar1d.interacting_density(G1, pos(math.pi - theta), c)
            assert a == pytest.approx(b, rel=1e-12)

    def test_endpoint_singularity(self):
        with pytest.raises(SingularityError):
            scalar1d.interacting_density(G1, pos(0.0), Couplings(0.01, 10.0))

    def test_validity_warning_threshold(self):
        import warnings

        with pytest.warns(ValidityWarning):
            scalar1d.interacting_density(G1, pos(1.0), Couplings(alpha=0.2, m=1.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scalar1d.interacting_density(G1, pos(1.0), Couplings(alpha=0.01, m=10.0))

    def test_validity_warning_on_every_call(self):
        # Each point call decides the warning itself, in the same words,
        # naming its own caller.
        import warnings

        c = Couplings(alpha=0.3, m=1.0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for _ in range(3):
                scalar1d.interacting_density(G1, pos(1.0), c)
                scalar1d.correction_density(G1, pos(1.0), c)
        assert [str(w.message) for w in caught] == 6 * [
            "alpha/(m L)^2 = 0.3 exceeds 0.1; the lowest-order correction is "
            "outside its validity regime"]
        assert {w.filename for w in caught} == {__file__}

    def test_wick_contraction_cross_check(self):
        # Independent route to the correction: with gaussian fields,
        # <X^4> = 3 <X^2>^2 and <X^2 Y^2> = <X^2><Y^2> for vanishing cross
        # correlator, so <((d_t phi)^2 - (d_z phi)^2)^2> = 3E^2 - 2EB + 3B^2
        # with E, B twice the electric/magnetic densities.  The correction
        # is -(alpha/m^2) times that expectation value.
        c = Couplings(alpha=0.01, m=10.0)
        for theta in (0.4, 1.0, 2.3):
            e_corr = 2.0 * scalar1d.electric_density(G1, pos(theta), RegScheme.zeta())
            b_corr = 2.0 * scalar1d.magnetic_density(G1, pos(theta), RegScheme.zeta())
            wick = 3.0 * e_corr ** 2 - 2.0 * e_corr * b_corr + 3.0 * b_corr ** 2
            expected = -(c.alpha / c.m ** 2) * wick
            measured = scalar1d.interacting_density(G1, pos(theta), c) - (
                -math.pi / 24.0
            )
            assert measured == pytest.approx(expected, rel=1e-12)


class TestInteractingTotalEnergy:
    def test_example_value(self):
        c = Couplings(alpha=0.01, m=10.0)
        expected = -math.pi / 24.0 - 0.01 * math.pi ** 2 / 14400.0
        assert scalar1d.interacting_total_energy(G1, c) == pytest.approx(
            expected, rel=1e-12
        )

    def test_free_decoupling(self):
        c = Couplings(alpha=0.0, m=1.0)
        assert scalar1d.interacting_total_energy(G1, c) == scalar1d.free_total_energy(G1)

    def test_correction_scales_as_inverse_cube(self):
        # the closed-form correction term halves the length into an exact
        # power of two, so the ratio is an exact 8
        c = Couplings(alpha=0.01, m=10.0)
        correction = lambda L: -c.alpha * math.pi ** 2 / (144.0 * c.m ** 2 * L ** 3)
        assert correction(1.0) / correction(2.0) == 8.0
        # and the operation's correction tracks it through the subtraction
        measured1 = scalar1d.interacting_total_energy(G1, c) - scalar1d.free_total_energy(G1)
        g2 = Geometry(2.0)
        measured2 = scalar1d.interacting_total_energy(g2, c) - scalar1d.free_total_energy(g2)
        assert measured1 / measured2 == pytest.approx(8.0, rel=1e-9)

    def test_matches_window_of_constant_density_part(self):
        # total correction equals L times the constant part of the density
        c = Couplings(alpha=0.01, m=10.0)
        corr_total = scalar1d.interacting_total_energy(G1, c) - scalar1d.free_total_energy(
            G1
        )
        density_constant = -c.alpha * math.pi ** 2 / (8.0 * c.m ** 2) / 18.0
        assert corr_total == pytest.approx(G1.length * density_constant, rel=1e-11)


class TestCouplings:
    @pytest.mark.parametrize("alpha,m", [(-0.1, 1.0), (0.1, 0.0), (0.1, -2.0)])
    def test_validation(self, alpha, m):
        with pytest.raises(DomainError):
            Couplings(alpha=alpha, m=m)


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=0.01, max_value=math.pi - 0.01))
def test_total_density_constant_property(theta):
    split = scalar1d.density_split(G1, pos(theta), RegScheme.zeta())
    assert abs(split.total + math.pi / 24.0) < 1e-10
