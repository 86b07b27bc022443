import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from platevac import regsum, specfun
from platevac.errors import DomainError, PoleError, RangeError, SingularityError
from platevac.regsum import (
    PowerSeriesSpec,
    RegKind,
    RegScheme,
)


def direct_sin_sum(eps: float, theta: float, n_terms: int = 2000) -> float:
    return math.fsum(
        math.exp(-eps * n) * math.sin(2.0 * theta * n) for n in range(1, n_terms + 1)
    )


def direct_linear_sum(eps: float, n_terms: int = 200) -> float:
    return math.fsum(n * math.exp(-eps * n) for n in range(1, n_terms + 1))


class TestRegScheme:
    def test_cutoff_requires_epsilon(self):
        with pytest.raises(DomainError):
            RegScheme(RegKind.CUTOFF)

    @pytest.mark.parametrize("eps", [0.0, -1.0, float("nan")])
    def test_cutoff_rejects_bad_epsilon(self, eps):
        with pytest.raises(DomainError):
            RegScheme.cutoff(eps)

    def test_zeta_rejects_epsilon(self):
        with pytest.raises(DomainError):
            RegScheme(RegKind.ZETA, epsilon=0.1)

    def test_factories(self):
        assert RegScheme.zeta().kind is RegKind.ZETA
        assert RegScheme.cutoff(0.5).epsilon == 0.5


class TestZetaRegularizePower:
    def test_linear_series_gives_minus_pi_over_24(self):
        spec = PowerSeriesSpec(exponent=1.0, scale=math.pi / 2.0)
        assert regsum.zeta_regularize_power(spec) == pytest.approx(
            -math.pi / 24.0, rel=1e-14
        )

    def test_quadratic_series_vanishes(self):
        assert regsum.zeta_regularize_power(PowerSeriesSpec(exponent=2.0)) == 0.0

    def test_constant_series(self):
        assert regsum.zeta_regularize_power(PowerSeriesSpec(exponent=0.0)) == -0.5

    def test_harmonic_series_is_a_pole(self):
        with pytest.raises(PoleError):
            regsum.zeta_regularize_power(PowerSeriesSpec(exponent=-1.0))

    def test_non_finite_spec_rejected(self):
        with pytest.raises(DomainError):
            PowerSeriesSpec(exponent=float("inf"))


class TestAbelSumSin:
    @pytest.mark.parametrize("eps", [0.05, 0.1, 0.5])
    @pytest.mark.parametrize("theta", [0.3, 1.0, 2.5])
    def test_against_direct_summation(self, eps, theta):
        direct = direct_sin_sum(eps, theta)
        assert regsum.abel_sum_sin(eps, theta) == pytest.approx(direct, rel=1e-10)

    def test_example_value(self):
        assert regsum.abel_sum_sin(0.1, 1.0) == pytest.approx(
            direct_sin_sum(0.1, 1.0), rel=1e-12
        )

    @pytest.mark.parametrize("eps", [0.01, 0.5, 3.0])
    def test_endpoints_exactly_zero(self, eps):
        assert regsum.abel_sum_sin(eps, 0.0) == 0.0
        assert regsum.abel_sum_sin(eps, math.pi) == 0.0

    def test_bad_eps(self):
        with pytest.raises(DomainError):
            regsum.abel_sum_sin(0.0, 1.0)
        with pytest.raises(DomainError):
            regsum.abel_sum_sin(-0.1, 1.0)

    @pytest.mark.parametrize("theta", [1.7e308, -1.7e308, 1e300, 9e307])
    def test_huge_theta_against_mpmath(self, theta):
        # 2 theta overflows past 9e307: sin(2 theta) is taken as 2 sin cos.
        with mpmath.workdps(400):  # enough digits to reduce theta mod pi
            a = mpmath.exp(-mpmath.mpf(0.1))
            c = mpmath.cos(2 * mpmath.mpf(theta))
            exact = a * mpmath.sin(2 * mpmath.mpf(theta)) / (1 - 2 * a * c + a * a)
        assert regsum.abel_sum_sin(0.1, theta) == pytest.approx(float(exact), rel=1e-12)


@pytest.mark.parametrize("function", [regsum.abel_sum_sin, regsum.abel_sum_sin_dtheta])
@pytest.mark.parametrize("theta", [math.inf, -math.inf, math.nan])
def test_non_finite_theta_is_a_domain_error(function, theta):
    # Not a bare "math domain error" from sin(inf), nor a nan passed through.
    with pytest.raises(DomainError, match=f"^theta must be finite, got {theta!r}$"):
        function(1.0, theta)


def mp_sin_dtheta(eps: float, theta: float) -> float:
    """2 sum n e^(-eps n) cos(2 n theta) from the cos(2 theta) closed form, to 50 digits."""
    with mpmath.workdps(50):
        a = mpmath.exp(-mpmath.mpf(eps))
        c = mpmath.cos(2 * mpmath.mpf(theta))
        return float(2 * a * ((1 + a * a) * c - 2 * a) / (1 - 2 * a * c + a * a) ** 2)


class TestAbelSumSinDtheta:
    def test_tiny_cutoff_near_the_wall(self):
        # About -5.0e19; the (1 + a^2) cos(2 theta) - 2 a numerator cancels to 0.0.
        value = regsum.abel_sum_sin_dtheta(1e-12, 1e-10)
        assert value == pytest.approx(mp_sin_dtheta(1e-12, 1e-10), rel=1e-13)

    @pytest.mark.parametrize("eps", [0.05, 0.5])
    @pytest.mark.parametrize("theta", [0.3, 1.0, 2.5])
    def test_against_direct_summation(self, eps, theta):
        direct = 2.0 * math.fsum(
            n * math.exp(-eps * n) * math.cos(2.0 * theta * n) for n in range(1, 2001)
        )
        assert regsum.abel_sum_sin_dtheta(eps, theta) == pytest.approx(direct, rel=1e-10)


log_uniform_unit = st.floats(min_value=-12.0, max_value=0.0).map(lambda x: 10.0 ** x)


@settings(max_examples=200, deadline=None)
@given(log_uniform_unit, log_uniform_unit, st.booleans())
def test_sin_dtheta_matches_mpmath_near_both_walls(eps, distance, right_wall):
    theta = math.pi - distance if right_wall else distance
    # The numerator expm1(-eps)^2 - 2 (1 + a^2) sin^2(theta) changes sign
    # near theta = eps / 2; within 1% of that zero no double evaluation has
    # a relative error bound (sin(theta) itself carries half an ulp).
    u2 = math.expm1(-eps) ** 2
    w = 2.0 * (1.0 + math.exp(-2.0 * eps)) * math.sin(theta) ** 2
    assume(abs(u2 - w) >= 1e-2 * (u2 + w))
    expected = mp_sin_dtheta(eps, theta)
    assert regsum.abel_sum_sin_dtheta(eps, theta) == pytest.approx(expected, rel=1e-13)


class TestAbelSumSinLimit:
    def test_right_angle(self):
        assert regsum.abel_sum_sin_limit(math.pi / 2) == pytest.approx(0.0, abs=1e-15)

    def test_quarter_angle(self):
        assert regsum.abel_sum_sin_limit(math.pi / 4) == pytest.approx(0.5, rel=1e-14)

    def test_extrapolation_oracle(self):
        # Richardson in eps^2 of the cutoff sum is the stated oracle.
        samples = [(eps, regsum.abel_sum_sin(eps, 1.0)) for eps in (0.2, 0.1, 0.05)]
        limit, _ = regsum.richardson_extrapolate(samples, order=2)
        assert regsum.abel_sum_sin_limit(1.0) == pytest.approx(limit, abs=1e-6)

    @pytest.mark.parametrize("theta", [0.0, math.pi])
    def test_endpoint_singularity(self, theta):
        with pytest.raises(SingularityError):
            regsum.abel_sum_sin_limit(theta)


class TestAbelSumLinear:
    def test_against_direct_summation(self):
        assert regsum.abel_sum_linear(1.0) == pytest.approx(
            direct_linear_sum(1.0), rel=1e-13
        )
        assert regsum.abel_sum_linear(1.0) == pytest.approx(
            math.e / (math.e - 1.0) ** 2, rel=1e-13
        )

    def test_laurent_behaviour(self):
        eps = 0.01
        value = regsum.abel_sum_linear(eps)
        assert value - 1.0 / eps ** 2 == pytest.approx(-1.0 / 12.0, abs=1e-4)

    def test_large_cutoff_geometric_suppression(self):
        assert regsum.abel_sum_linear(50.0) == pytest.approx(math.exp(-50.0), rel=1e-10)

    def test_minus_bulk_matches_direct_difference(self):
        for eps in (0.9, 0.5, 0.2):
            direct = regsum.abel_sum_linear(eps) - 1.0 / eps ** 2
            assert regsum.abel_sum_linear_minus_bulk(eps) == pytest.approx(
                direct, rel=1e-12
            )

    def test_minus_bulk_limit(self):
        assert regsum.abel_sum_linear_minus_bulk(1e-6) == pytest.approx(
            -1.0 / 12.0, rel=1e-12
        )


class TestAbelSumQuadratic:
    def test_against_direct_summation(self):
        direct = math.fsum(n * n * math.exp(-0.5 * n) for n in range(1, 300))
        assert regsum.abel_sum_quadratic(0.5) == pytest.approx(direct, rel=1e-13)

    def test_minus_bulk_matches_direct_difference(self):
        for eps in (0.9, 0.4):
            direct = regsum.abel_sum_quadratic(eps) - 2.0 / eps ** 3
            assert regsum.abel_sum_quadratic_minus_bulk(eps) == pytest.approx(
                direct, rel=1e-10
            )

    def test_minus_bulk_vanishes_like_zeta_minus_two(self):
        # leading behaviour is -eps/120
        for eps in (1e-2, 1e-3):
            value = regsum.abel_sum_quadratic_minus_bulk(eps)
            assert value == pytest.approx(-eps / 120.0, rel=1e-3)
        assert regsum.abel_sum_quadratic_minus_bulk(1e-9) == pytest.approx(0.0, abs=1e-10)


EPS_FUNCTIONS = [regsum.abel_sum_linear, regsum.abel_sum_linear_minus_bulk,
                 regsum.abel_sum_quadratic, regsum.abel_sum_quadratic_minus_bulk,
                 lambda eps: regsum.abel_sum_sin(eps, 1e-100),
                 lambda eps: regsum.abel_sum_sin_dtheta(eps, 1e-100), RegScheme.cutoff]


class TestSmallestCutoff:
    """Below 1e-75 the closed forms' powers of eps underflow: a DomainError, not a bare error."""

    @pytest.mark.parametrize("function", EPS_FUNCTIONS)
    @pytest.mark.parametrize("eps", [1e-76, 1e-110, 1e-160, 1e-200, 5e-324])
    def test_below_the_smallest_cutoff(self, function, eps):
        # 1e-110 divided by zero in abel_sum_quadratic, 1e-160 returned inf
        # from abel_sum_linear, 1e-200 divided by zero in abel_sum_sin_dtheta.
        with pytest.raises(DomainError, match=f"^epsilon must be >= 1e-75, got {eps!r}$"):
            function(eps)

    @pytest.mark.parametrize("theta", [0.0, 1e-300, 1e-100, 1e-38, 1.0, math.pi - 1e-15])
    def test_smallest_cutoff_against_mpmath(self, theta):
        # The closed forms in u = 1 - e^(-eps) and sin^2(theta), to 50 digits.
        eps = regsum._EPS_MIN
        with mpmath.workdps(50):
            a, u = mpmath.exp(-mpmath.mpf(eps)), -mpmath.expm1(-mpmath.mpf(eps))
            s2 = mpmath.sin(mpmath.mpf(theta)) ** 2
            denom = u * u + 4 * a * s2
            exact = [a / u ** 2, a * (1 + a) / u ** 3, a * mpmath.sin(2 * mpmath.mpf(theta)) / denom,
                     2 * a * (u * u - 2 * (1 + a * a) * s2) / denom ** 2]
        values = [regsum.abel_sum_linear(eps), regsum.abel_sum_quadratic(eps),
                  regsum.abel_sum_sin(eps, theta), regsum.abel_sum_sin_dtheta(eps, theta)]
        for value, exact in zip(values, exact):
            assert math.isfinite(value)
            assert value == pytest.approx(float(exact), rel=1e-12, abs=1e-300)


class TestRichardson:
    def test_polynomial_annihilated(self):
        samples = [(h, 3.0 + h * h) for h in (0.4, 0.2, 0.1)]
        limit, estimate = regsum.richardson_extrapolate(samples, order=2)
        assert limit == pytest.approx(3.0, abs=1e-12)
        assert estimate < 1e-10

    def test_cutoff_sum_extrapolates_to_continued_value(self):
        samples = [(eps, regsum.abel_sum_sin(eps, 1.0)) for eps in (0.2, 0.1, 0.05)]
        limit, _ = regsum.richardson_extrapolate(samples, order=2)
        assert limit == pytest.approx(regsum.abel_sum_sin_limit(1.0), abs=1e-6)

    def test_constant_samples(self):
        samples = [(h, 7.25) for h in (0.4, 0.2, 0.1)]
        limit, estimate = regsum.richardson_extrapolate(samples, order=2)
        assert limit == 7.25
        assert estimate == 0.0

    def test_insufficient_samples(self):
        with pytest.raises(DomainError):
            regsum.richardson_extrapolate([(0.1, 1.0), (0.05, 1.0)], order=2)

    def test_non_geometric_steps(self):
        with pytest.raises(DomainError):
            regsum.richardson_extrapolate(
                [(0.4, 1.0), (0.2, 1.0), (0.13, 1.0)], order=2
            )

    def test_non_decreasing_steps(self):
        with pytest.raises(DomainError):
            regsum.richardson_extrapolate([(0.1, 1.0), (0.1, 1.0), (0.05, 1.0)], order=1)

    def test_bad_order(self):
        with pytest.raises(DomainError):
            regsum.richardson_extrapolate([(0.1, 1.0), (0.05, 1.0)], order=0)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("where", [0, 1, 2])
    @pytest.mark.parametrize("part", [0, 1])
    def test_non_finite_sample_is_a_domain_error(self, bad, where, part):
        samples = [[0.4, 1.0], [0.2, 1.0], [0.1, 1.0]]
        samples[where][part] = bad
        with pytest.raises(DomainError, match="^samples must be finite"):
            regsum.richardson_extrapolate(samples, order=2)

    @pytest.mark.parametrize("values", [
        (1e308, -1e308, 1e308),  # the limit itself is past the doubles
    ])
    def test_overflowing_stage_is_a_range_error(self, values):
        samples = list(zip((0.4, 0.2, 0.1), values))
        with pytest.raises(RangeError, match="^the extrapolation's arithmetic overflows a double$"):
            regsum.richardson_extrapolate(samples, order=2)

    @pytest.mark.parametrize("value", [1e308, -1e308, 1.7976931348623157e308])
    def test_overflowing_stage_with_a_normal_limit(self, value):
        # 4 * 1e308 overflows in the first stage, but the limit is 1e308:
        # the stages are redone on samples scaled by a power of two.
        samples = list(zip((0.4, 0.2, 0.1), (value,) * 3))
        assert regsum.richardson_extrapolate(samples, order=2) == (value, 0.0)

    def test_scaled_stages_are_the_unscaled_ones_times_a_power_of_two(self):
        # Samples 2**1021 times a finite case give its limit and estimate
        # times 2**1021, bit for bit, though the unscaled stages overflow.
        samples = [(0.4, 3.0), (0.2, 2.0), (0.1, 1.5), (0.05, 1.375)]
        limit, error = regsum.richardson_extrapolate(samples, order=1)
        big = [(h, math.ldexp(v, 1021)) for h, v in samples]
        assert regsum._richardson_stages([v for _, v in big], 2.0, 1) == (math.inf, math.inf)
        assert regsum.richardson_extrapolate(big, order=1) == (
            math.ldexp(limit, 1021), math.ldexp(error, 1021))

    @pytest.mark.parametrize("steps,order", [
        ((1e200, 1.0, 1e-200), 2), ((1e110, 1.0, 1e-110, 1e-220), 3)])
    def test_overflowing_stage_weight_is_a_range_error(self, steps, order):
        # ratio ** (order * stage) is 1e400 or 1e330, past the doubles, though
        # the samples are all 1.0: a named error, not a bare OverflowError.
        with pytest.raises(RangeError, match="^the extrapolation's arithmetic overflows a double$"):
            regsum.richardson_extrapolate([(h, 1.0) for h in steps], order=order)

    def test_largest_finite_stage_weights(self):
        # Weights 1e100 and then 1e200 stay finite: the limit is computed as before.
        samples = [(1e100, 1.0), (1.0, 1.0), (1e-100, 1.0)]
        assert regsum.richardson_extrapolate(samples, order=1) == (1.0, 0.0)


class TestSchemeAgreement:
    def test_interior_agreement(self):
        # 100 random interior angles: extrapolated cutoff sums agree with the
        # continued value to 1e-8 absolute.
        rng = np.random.default_rng(314)
        ladder = (0.04, 0.02, 0.01, 0.005)
        for theta in rng.uniform(0.1, math.pi - 0.1, 100):
            samples = [(eps, regsum.abel_sum_sin(eps, theta)) for eps in ladder]
            limit, _ = regsum.richardson_extrapolate(samples, order=2)
            assert abs(limit - regsum.abel_sum_sin_limit(theta)) < 1e-8

    @pytest.mark.parametrize("theta", [0.5, 1.0, 2.0])
    def test_expansion_law(self, theta):
        # After removing the continued value and the eps^2 term, the residual
        # scales as eps^4: log-log slope 4.0 +/- 0.1.
        eps_list = (0.04, 0.02, 0.01)
        limit = regsum.abel_sum_sin_limit(theta)
        quadratic = 0.125 * math.cos(theta) / math.sin(theta) ** 3
        residuals = [
            regsum.abel_sum_sin(eps, theta) - limit + quadratic * eps * eps
            for eps in eps_list
        ]
        slope = np.polyfit(np.log(eps_list), np.log(np.abs(residuals)), 1)[0]
        assert slope == pytest.approx(4.0, abs=0.1)


@settings(max_examples=80, deadline=None)
@given(
    st.floats(min_value=1e-3, max_value=10.0),
    st.floats(min_value=0.0, max_value=math.pi),
)
def test_antisymmetry_property(eps, theta):
    lhs = regsum.abel_sum_sin(eps, math.pi - theta)
    rhs = -regsum.abel_sum_sin(eps, theta)
    assert lhs == pytest.approx(rhs, abs=1e-9)


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=1e-6, max_value=50.0))
def test_endpoint_exactness_property(eps):
    assert regsum.abel_sum_sin(eps, 0.0) == 0.0
    assert regsum.abel_sum_sin(eps, math.pi) == 0.0
