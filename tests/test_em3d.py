import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from platevac import em3d, regsum
from platevac.errors import DomainError, PlatevacError, RangeError, SingularityError
from platevac.geometry import Geometry, Position
from platevac.regsum import RegScheme

G1 = Geometry(1.0)
ALPHA = 1.0 / 137.036


def pos(theta, g=G1):
    return Position.from_theta(theta, g)


def third_derivative_fd(f, x, h):
    # five-point central stencil for f'''
    return (f(x + 2 * h) - 2 * f(x + h) + 2 * f(x - h) - f(x - 2 * h)) / (2 * h ** 3)


class TestProfileF:
    def test_right_angle(self):
        assert em3d.profile_F(math.pi / 2) == 1.0

    def test_quarter_angle(self):
        assert em3d.profile_F(math.pi / 4) == pytest.approx(8.0, rel=1e-13)

    def test_dual_definitions_agree(self):
        for theta in np.linspace(0.15, math.pi - 0.15, 20):
            closed = em3d.profile_F(theta)
            symbolic = em3d.profile_F_via_cot_derivative(theta)
            assert abs(closed - symbolic) < 1e-9

    def test_against_finite_difference_oracle(self):
        # independent route: numerical third derivative of cot plus
        # Richardson in h^2; large steps keep the third difference away
        # from roundoff
        theta = 1.0
        steps = [0.1 / 2 ** i for i in range(5)]
        samples = [
            (h, third_derivative_fd(lambda t: math.cos(t) / math.sin(t), theta, h))
            for h in steps
        ]
        d3, _ = regsum.richardson_extrapolate(samples, order=2)
        assert abs(-0.5 * d3 - em3d.profile_F(theta)) < 1e-9

    def test_lower_bound_and_minimum(self):
        assert em3d.profile_F(math.pi / 2) == 1.0
        for theta in np.linspace(0.05, math.pi - 0.05, 50):
            assert em3d.profile_F(theta) >= 1.0 - 1e-12

    @pytest.mark.parametrize("theta", [0.0, math.pi])
    def test_endpoint_singularity(self, theta):
        with pytest.raises(SingularityError):
            em3d.profile_F(theta)

    def test_cot_route_names_the_underflow(self):
        with pytest.raises(RangeError) as caught:
            em3d.profile_F_via_cot_derivative(1e-200)
        assert str(caught.value) == "sin(theta)^2 underflows a double at theta = 1e-200"

    @pytest.mark.parametrize("theta", [1e-100, 1e-80, 1e-77])
    @pytest.mark.parametrize("profile", [em3d.profile_F, em3d.profile_F_via_cot_derivative])
    def test_overflow_is_named(self, profile, theta):
        # 3/sin^4(theta) passes the largest double although sin^2(theta) is normal.
        with pytest.raises(RangeError) as caught:
            profile(theta)
        assert str(caught.value) == f"the profile F overflows a double at theta = {theta!r}"

    @pytest.mark.parametrize("profile", [em3d.profile_F, em3d.profile_F_via_cot_derivative])
    def test_largest_value_next_to_the_wall(self, profile):
        assert profile(1e-76) == 3.000000000000001e+304


class TestCorrelators:
    def test_midpoint_values(self):
        pair = em3d.correlators(G1, pos(math.pi / 2))
        assert pair.e2 == pytest.approx((math.pi ** 2 / 16.0) * (44.0 / 45.0), rel=1e-13)
        assert pair.b2 == pytest.approx(-(math.pi ** 2 / 16.0) * (46.0 / 45.0), rel=1e-13)

    def test_cancellation_at_random_interior_points(self):
        rng = np.random.default_rng(42)
        exact = em3d.free_casimir_density(G1)
        for theta in rng.uniform(0.6, math.pi - 0.6, 100):
            pair = em3d.correlators(G1, pos(theta))
            assert 0.5 * (pair.e2 + pair.b2) == pytest.approx(exact, rel=1e-12)

    def test_length_scaling_is_exact(self):
        g2 = Geometry(2.0)
        a = em3d.correlators(G1, pos(1.0))
        b = em3d.correlators(g2, pos(1.0, g2))
        assert b.e2 == a.e2 / 16.0
        assert b.b2 == a.b2 / 16.0

    def test_mirror_symmetry(self):
        for theta in (0.3, 1.0, 1.4):
            a = em3d.correlators(G1, pos(theta))
            b = em3d.correlators(G1, pos(math.pi - theta))
            assert a.e2 == pytest.approx(b.e2, rel=1e-12)
            assert a.b2 == pytest.approx(b.b2, rel=1e-12)


class TestNearPlate:
    def test_example_value(self):
        pair = em3d.near_plate_asymptotics(G1, 0.01)
        assert pair.e2 == pytest.approx(3e8 / (16.0 * math.pi ** 2), rel=1e-13)

    def test_asymptotic_sum_vanishes_exactly(self):
        pair = em3d.near_plate_asymptotics(G1, 0.01)
        assert pair.e2 + pair.b2 == 0.0

    @pytest.mark.parametrize("theta,tol", [(0.05, 1e-2), (0.01, 5e-4)])
    def test_full_correlators_approach_asymptote(self, theta, tol):
        p = pos(theta)
        full = em3d.correlators(G1, p)
        asym = em3d.near_plate_asymptotics(G1, p.z)
        assert abs(full.e2 / asym.e2 - 1.0) < tol
        assert abs(full.b2 / asym.b2 - 1.0) < tol

    def test_scaled_limit_is_three(self):
        p = pos(0.01)
        full = em3d.correlators(G1, p)
        assert full.e2 * 16.0 * math.pi ** 2 * p.z ** 4 == pytest.approx(3.0, rel=5e-4)
        assert full.b2 * 16.0 * math.pi ** 2 * p.z ** 4 == pytest.approx(-3.0, rel=5e-4)

    @pytest.mark.parametrize("z", [0.0, -0.5])
    def test_bad_distance(self, z):
        with pytest.raises(DomainError):
            em3d.near_plate_asymptotics(G1, z)

    @pytest.mark.parametrize("z,state", [
        (1e77, "underflows"),  # a subnormal 1.90e-310
        (1e90, "underflows"),
        (3e-78, "overflows"),
        (1e-200, "overflows"),
    ])
    def test_out_of_range_names_z(self, z, state):
        with pytest.raises(RangeError) as caught:
            em3d.near_plate_asymptotics(Geometry(1e100), z)
        assert str(caught.value) == f"the near-plate <E^2> {state} a double at z = {z!r}"


class TestFreeDensityAndForce:
    def test_density_value(self):
        assert em3d.free_casimir_density(G1) == pytest.approx(
            -math.pi ** 2 / 720.0, rel=1e-14
        )

    def test_density_scaling(self):
        assert em3d.free_casimir_density(Geometry(2.0)) == em3d.free_casimir_density(G1) / 16.0

    def test_density_equals_correlator_average(self):
        rng = np.random.default_rng(9)
        for theta in rng.uniform(0.6, math.pi - 0.6, 10):
            pair = em3d.correlators(G1, pos(theta))
            assert 0.5 * (pair.e2 + pair.b2) == pytest.approx(
                em3d.free_casimir_density(G1), rel=1e-12
            )

    def test_force_value(self):
        assert em3d.casimir_force_per_area(G1) == pytest.approx(
            math.pi ** 2 / 240.0, rel=1e-8
        )

    def test_force_scaling(self):
        assert em3d.casimir_force_per_area(Geometry(2.0)) == pytest.approx(
            math.pi ** 2 / 240.0 / 16.0, rel=1e-8
        )

    def test_force_is_exact(self):
        for length in (0.3, 1.0, 1.5, 17.0):
            assert em3d.casimir_force_per_area(Geometry(length)) == math.pi ** 2 / (
                240.0 * length ** 4
            )

    def test_numeric_derivative_agreement(self):
        # the finite-difference value itself must sit within 1e-8 of the
        # analytic force
        g = Geometry(1.5)
        h = 1e-5 * g.length
        energy = lambda L: -math.pi ** 2 / (720.0 * L ** 3)
        numeric = abs(-(energy(g.length + h) - energy(g.length - h)) / (2.0 * h))
        analytic = math.pi ** 2 / (240.0 * g.length ** 4)
        assert numeric == pytest.approx(analytic, rel=1e-8)
        assert em3d.casimir_force_per_area(g) == pytest.approx(analytic, rel=1e-8)


class TestEhCorrection:
    def test_midpoint_value(self):
        c = em3d.EhCouplings(alpha=ALPHA, m=1.0)
        value = em3d.eh_correction_density(G1, pos(math.pi / 2), c)
        expected = -(ALPHA ** 2 * math.pi ** 4 / 17280.0) * (11.0 / 225.0 + 9.0)
        assert value == pytest.approx(expected, rel=1e-12)
        assert value == pytest.approx(-2.72e-6, rel=5e-3)

    def test_decoupling(self):
        c = em3d.EhCouplings(alpha=0.0, m=1.0)
        assert em3d.eh_correction_density(G1, pos(1.0), c) == 0.0

    def test_near_plate_exponent(self):
        # |correction| ~ F^2 ~ 9/sin^8: slope -8 +/- 0.1
        c = em3d.EhCouplings()
        thetas = [0.1, 0.05, 0.025]
        values = [abs(em3d.eh_correction_density(G1, pos(t), c)) for t in thetas]
        slope = np.polyfit(np.log(np.sin(thetas)), np.log(values), 1)[0]
        assert slope == pytest.approx(-8.0, abs=0.1)


class TestCorrectedTotalEnergy:
    def test_example_value(self):
        c = em3d.EhCouplings(alpha=ALPHA, m=1.0)
        expected = -math.pi ** 2 / 720.0 - 11.0 * ALPHA ** 2 * math.pi ** 4 / 3888000.0
        assert em3d.corrected_total_energy(G1, c) == pytest.approx(expected, rel=1e-13)

    def test_free_limit(self):
        c = em3d.EhCouplings(alpha=0.0, m=1.0)
        assert em3d.corrected_total_energy(G1, c) == G1.length * em3d.free_casimir_density(G1)

    def test_correction_scales_as_inverse_seventh_power(self):
        # the correction term is L times the constant density part; at
        # L = 2 every scale factor is a power of two, so the ratio is an
        # exact 128
        c = em3d.EhCouplings(alpha=ALPHA, m=1.0)
        corr1 = G1.length * em3d.eh_correction_constant(G1, c)
        g2 = Geometry(2.0)
        corr2 = g2.length * em3d.eh_correction_constant(g2, c)
        assert abs(corr1 / corr2 - 128.0) < 1e-12 * 128.0

    def test_constant_part_identity_exact(self):
        # L times the constant density part carries the whole correction
        assert Fraction(11, 225) * Fraction(1, 2 ** 7 * 3 ** 3 * 5) == Fraction(
            11, 2 ** 7 * 3 ** 5 * 5 ** 3
        )
        assert 2 ** 7 * 3 ** 3 * 5 * 225 == 2 ** 7 * 3 ** 5 * 5 ** 3 == 3888000
        c = em3d.EhCouplings(alpha=ALPHA, m=1.0)
        free = G1.length * em3d.free_casimir_density(G1)
        correction = G1.length * em3d.eh_correction_constant(G1, c)
        assert em3d.corrected_total_energy(G1, c) == free + correction


class TestThermalMapping:
    def test_free_photon_gas(self):
        c = em3d.EhCouplings(alpha=0.0, m=1.0)
        assert em3d.thermal_free_energy_density(1.0, c) == pytest.approx(
            -math.pi ** 2 / 45.0, rel=1e-13
        )

    def test_free_part_scales_as_t4(self):
        c = em3d.EhCouplings(alpha=0.0, m=1.0)
        ratio = em3d.thermal_free_energy_density(2.0, c) / em3d.thermal_free_energy_density(
            1.0, c
        )
        assert ratio == pytest.approx(16.0, rel=1e-13)

    def test_correction_scales_as_t8(self):
        c = em3d.EhCouplings(alpha=ALPHA, m=1.0)
        free = em3d.EhCouplings(alpha=0.0, m=1.0)
        corr = lambda t: em3d.thermal_free_energy_density(t, c) - em3d.thermal_free_energy_density(
            t, free
        )
        # extraction by subtraction carries the free part's rounding
        assert corr(2.0) / corr(1.0) == pytest.approx(256.0, rel=1e-9)

    def test_vanishes_at_zero_temperature_limit(self):
        c = em3d.EhCouplings(alpha=ALPHA, m=1.0)
        assert em3d.thermal_free_energy_density(1e-3, c) == pytest.approx(0.0, abs=1e-11)

    @pytest.mark.parametrize("t", [0.0, -1.0])
    def test_bad_temperature(self, t):
        with pytest.raises(DomainError):
            em3d.thermal_free_energy_density(t, em3d.EhCouplings())


class TestDensitySplitAdapter:
    def test_split_halves(self):
        split = em3d.density_split(G1, pos(1.0), RegScheme.zeta())
        pair = em3d.correlators(G1, pos(1.0))
        assert split.electric == 0.5 * pair.e2
        assert split.magnetic == 0.5 * pair.b2

    def test_cutoff_scheme_rejected(self):
        with pytest.raises(DomainError):
            em3d.density_split(G1, pos(1.0), RegScheme.cutoff(0.1))

    def test_overflow_near_the_wall_raises(self):
        # <E^2> ~ 3/(16 pi^2 z^4) at z = 1e-8 L exceeds a double for L = 1e-70.
        g = Geometry(1e-70)
        with pytest.raises(RangeError, match="the electric density overflows a double"):
            em3d.density_split(g, pos(1e-8, g), RegScheme.zeta())

    @pytest.mark.parametrize("quantity", ["free_casimir_density", "casimir_force_per_area"])
    def test_free_overflow_is_a_range_error(self, quantity):
        with pytest.raises(RangeError, match="overflows a double at L = 1e-80"):
            getattr(em3d, quantity)(Geometry(1e-80))


class TestEhCouplings:
    def test_defaults(self):
        c = em3d.EhCouplings()
        assert c.alpha == pytest.approx(1.0 / 137.035999, rel=1e-12)
        assert c.m == 1.0

    @pytest.mark.parametrize("alpha,m", [(-0.1, 1.0), (0.1, 0.0)])
    def test_validation(self, alpha, m):
        with pytest.raises(DomainError):
            em3d.EhCouplings(alpha=alpha, m=m)


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=0.3, max_value=math.pi - 0.3))
def test_profile_cancels_in_density_property(theta):
    pair = em3d.correlators(G1, pos(theta))
    assert 0.5 * (pair.e2 + pair.b2) == pytest.approx(
        em3d.free_casimir_density(G1), rel=1e-11
    )
