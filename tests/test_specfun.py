import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from platevac import specfun
from platevac.errors import DomainError, PoleError, RangeError, SingularityError


def zeta2_partial_sum_oracle(n_terms: int) -> float:
    """Direct partial sum of 1/n^2 plus the leading tail corrections."""
    partial = math.fsum(1.0 / (n * n) for n in range(1, n_terms + 1))
    n = float(n_terms)
    return partial + 1.0 / n - 1.0 / (2.0 * n * n) + 1.0 / (6.0 * n ** 3)


class TestRiemannZeta:
    def test_minus_one(self):
        assert abs(specfun.riemann_zeta(-1.0) + 1.0 / 12.0) < 1e-14

    def test_minus_two_is_exactly_zero(self):
        assert specfun.riemann_zeta(-2.0) == 0.0

    def test_two_against_partial_sum_oracle(self):
        oracle = zeta2_partial_sum_oracle(10 ** 6)
        assert specfun.riemann_zeta(2.0) == pytest.approx(oracle, rel=1e-12)

    def test_zero(self):
        assert specfun.riemann_zeta(0.0) == -0.5

    def test_tends_to_one(self):
        assert abs(specfun.riemann_zeta(30.0) - 1.0) < 1e-8

    @pytest.mark.parametrize("s", [1e16, 1e20, 1e100, 1e300])
    def test_huge_arguments_are_one(self, s):
        # Every Euler-Maclaurin term is 0 here, while the rising factor
        # overflows to inf: their product must not turn the sum into nan.
        assert specfun.riemann_zeta(s) == 1.0

    def test_large_arguments_against_mpmath(self):
        mpmath.mp.dps = 30
        for s in (40.0, 64.0, 300.0, 1075.0, 1e4, 1e8):
            assert specfun.riemann_zeta(s) == float(mpmath.zeta(s))

    @pytest.mark.parametrize("s", [-141.5, -160.5, -200.25, -259.5, -262.0 + 2e-13])
    def test_large_negative_arguments_against_mpmath(self, s):
        # zeta(-160.5) = -1.0e157; next to -262 the sine keeps it a normal double.
        mpmath.mp.dps = 40
        assert specfun.riemann_zeta(s) == pytest.approx(float(mpmath.zeta(s)), rel=1e-12)

    @pytest.mark.parametrize("s", [-270.5, -400.5, -1e6 - 0.5])
    def test_overflow_is_a_range_error(self, s):
        with pytest.raises(RangeError) as caught:
            specfun.riemann_zeta(s)
        assert str(caught.value) == f"riemann_zeta overflows a double at s = {s!r}"

    def test_pole_at_one(self):
        with pytest.raises(PoleError):
            specfun.riemann_zeta(1.0)

    def test_negative_integer_below_the_bernoulli_table(self):
        # zeta(-n) = (-1)^n B(n+1)/(n+1) needs B(n+1); the table stops at B(64).
        assert specfun.MAX_BERNOULLI_INDEX == 64
        specfun.riemann_zeta(-63.0)
        with pytest.raises(DomainError, match=r"^s = -64\.0 is below the supported range$"):
            specfun.riemann_zeta(-64.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(DomainError):
            specfun.riemann_zeta(bad)

    def test_negative_integers_are_bernoulli_values(self):
        for n in range(1, 21):
            expected = float((-1) ** n * specfun.bernoulli(n + 1) / (n + 1))
            assert specfun.riemann_zeta(-float(n)) == expected

    def test_negative_even_integers_exactly_zero(self):
        for n in (2, 4, 6, 8, 10):
            assert specfun.riemann_zeta(-float(n)) == 0.0

    def test_functional_equation_matches_bernoulli_values(self):
        # The continuation through the functional equation must land on the
        # exact rational values at the negative odd integers.
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
            assert via_fe == pytest.approx(exact, rel=1e-12)

    def test_random_arguments_against_mpmath(self):
        mpmath.mp.dps = 30
        rng = np.random.default_rng(2024)
        count = 0
        while count < 50:
            s = float(rng.uniform(-10.0, 0.0))
            if s == math.floor(s):
                continue
            count += 1
            ref = float(mpmath.zeta(s))
            assert specfun.riemann_zeta(s) == pytest.approx(ref, rel=1e-12)

    def test_just_below_zero_against_mpmath(self):
        # The functional equation takes zeta(1 - s) next to its pole here: it
        # raised ZeroDivisionError at s = -1e-20 and gave -0.4504 at -1e-15.
        grid = -np.logspace(-300, 0, 1201)
        switch = specfun._EM_FLOOR
        with mpmath.workdps(50):
            for s in [*grid.tolist(), switch, math.nextafter(switch, -1.0), -5e-324]:
                exact = float(mpmath.zeta(mpmath.mpf(s)))
                assert specfun.riemann_zeta(s) == pytest.approx(exact, rel=1e-12), s

    def test_positive_range_against_mpmath(self):
        mpmath.mp.dps = 30
        for s in (0.25, 0.5, 1.5, 2.5, 4.0, 11.3, 25.0, 29.5):
            ref = float(mpmath.zeta(s))
            assert specfun.riemann_zeta(s) == pytest.approx(ref, rel=1e-12)


class TestGamma:
    def test_one(self):
        assert specfun.gamma(1.0) == pytest.approx(1.0, rel=1e-14)

    def test_half_squares_to_pi(self):
        assert specfun.gamma(0.5) ** 2 == pytest.approx(math.pi, rel=1e-13)

    def test_integral_oracle_at_7_3(self):
        # gamma(7.3) = integral of t^6.3 e^-t over the half line
        oracle, err = quad(
            lambda t: t ** 6.3 * math.exp(-t), 0.0, math.inf, epsabs=1e-10, epsrel=1e-12
        )
        assert specfun.gamma(7.3) == pytest.approx(oracle, rel=1e-10)

    def test_poles(self):
        for x in (0.0, -1.0, -5.0):
            with pytest.raises(PoleError):
                specfun.gamma(x)

    def test_reflection_for_negative_arguments(self):
        mpmath.mp.dps = 30
        for x in (-0.5, -1.5, -3.7, -9.2):
            assert specfun.gamma(x) == pytest.approx(float(mpmath.gamma(x)), rel=1e-11)

    def test_recurrence(self):
        rng = np.random.default_rng(77)
        for x in rng.uniform(0.1, 20.0, 100):
            lhs = specfun.gamma(x + 1.0)
            rhs = x * specfun.gamma(x)
            assert abs(lhs - rhs) / abs(rhs) < 1e-12

    def test_non_finite_rejected(self):
        with pytest.raises(DomainError):
            specfun.gamma(float("nan"))

    @pytest.mark.parametrize("x", [141.5, 169.0, 171.6, 171.62, -150.3, -170.5, 1e-308, -1e-308,
                                   -1e-10, -1e-200, 6e-309])
    def test_large_and_tiny_arguments_against_mpmath(self, x):
        # Normal doubles up to 1.6e308 at 171.6, and 1/x next to 0 from both sides.
        mpmath.mp.dps = 40
        assert specfun.gamma(x) == pytest.approx(float(mpmath.gamma(x)), rel=1e-12)

    def test_random_arguments_past_the_series_against_mpmath(self):
        mpmath.mp.dps = 40
        rng = np.random.default_rng(171)
        for x in [*rng.uniform(100.0, 171.62, 200), *rng.uniform(-175.0, -100.0, 200),
                  *-10.0 ** rng.uniform(-300.0, -1.0, 200)]:
            exact = float(mpmath.gamma(x))
            if abs(exact) < 2.2250738585072014e-308:  # below the normal doubles
                with pytest.raises(RangeError):
                    specfun.gamma(x)
            else:
                assert specfun.gamma(x) == pytest.approx(exact, rel=1e-12)

    def test_within_2e_15_of_mpmath(self):
        # 2,000 seeded points: the whole range, 1e-9 either side of the poles
        # down to -170, and tiny positive x; results outside the normal
        # doubles are test_outside_the_normal_doubles's.
        mpmath.mp.dps = 50
        rng = np.random.default_rng(2025)
        poles = -np.arange(1.0, 171.0)
        xs = [*rng.uniform(-170.5, 171.6, 1500), *(poles - 1e-9), *(poles + 1e-9),
              *10.0 ** rng.uniform(-300.0, -1.0, 160)]
        for x in xs:
            exact = mpmath.gamma(x)
            if 2.2250738585072014e-308 <= abs(float(exact)) < math.inf:
                assert abs(specfun.gamma(x) - exact) <= 2e-15 * abs(exact), x

    @pytest.mark.parametrize("x, message", [
        (171.7, "gamma overflows a double at x = 171.7"),
        (1e300, "gamma overflows a double at x = 1e+300"),
        (1e-320, "gamma overflows a double at x = 1e-320"),
        (-1e-320, "gamma overflows a double at x = -1e-320"),
        (-200.5, "gamma underflows a double at x = -200.5"),
    ])
    def test_outside_the_normal_doubles(self, x, message):
        with pytest.raises(RangeError) as caught:
            specfun.gamma(x)
        assert str(caught.value) == message


class TestBernoulli:
    def test_table_values(self):
        assert specfun.bernoulli(0) == 1
        assert specfun.bernoulli(1) == Fraction(-1, 2)
        assert specfun.bernoulli(2) == Fraction(1, 6)
        assert specfun.bernoulli(3) == 0
        assert specfun.bernoulli(12) == Fraction(-691, 2730)

    def test_odd_vanish(self):
        for n in range(3, 64, 2):
            assert specfun.bernoulli(n) == 0

    def test_against_sympy(self):
        for n in (4, 10, 12, 30, 64):
            assert specfun.bernoulli(n) == Fraction(sympy.bernoulli(n))

    def test_recurrence_exact(self):
        for n in range(1, specfun.MAX_BERNOULLI_INDEX + 1):
            acc = Fraction(0)
            for k in range(n + 1):
                acc += math.comb(n + 1, k) * specfun.bernoulli(k)
            assert acc == 0

    def test_table_equals_the_fraction_loop_from_any_partial_table(self, monkeypatch):
        reference = [Fraction(1)]
        while len(reference) <= specfun.MAX_BERNOULLI_INDEX:
            m = len(reference)
            acc = sum(math.comb(m + 1, k) * b_k for k, b_k in enumerate(reference))
            reference.append(-acc / (m + 1))
        for start in range(specfun.MAX_BERNOULLI_INDEX + 1):
            monkeypatch.setattr(specfun, "_bernoulli_cache", (Fraction(1),))
            specfun.bernoulli(start)
            table = [specfun.bernoulli(n) for n in range(specfun.MAX_BERNOULLI_INDEX + 1)]
            assert table == reference
            assert all(type(b_n) is Fraction for b_n in table)

    @pytest.mark.parametrize("bad", [-1, 65, 2.0, "3", True])
    def test_bad_index_rejected(self, bad):
        with pytest.raises(DomainError):
            specfun.bernoulli(bad)


class TestTrigHelpers:
    def test_sin_pi_exact_zeros(self):
        for x in (0.0, 1.0, -3.0, 10.0 ** 6):
            assert specfun.sin_pi(x) == 0.0

    def test_sin_pi_matches_sin(self):
        # the reduced form differs from sin(pi*x) by the rounding of pi*x
        for x in (0.25, 0.5, 1.75, -2.3, 17.1):
            assert specfun.sin_pi(x) == pytest.approx(math.sin(math.pi * x), abs=5e-15)

    def test_sin_pi_next_to_an_integer_from_below(self):
        # x - round(x) is exact: 1 + x would round away the distance.
        mpmath.mp.dps = 40
        for x in (-1e-320, -1e-10, -0.3, 2.0 - 2.0 ** -40, -3.0 + 1e-12):
            assert specfun.sin_pi(x) == pytest.approx(float(mpmath.sinpi(x)), rel=1e-13)

    def test_cot_values(self):
        assert specfun.cot(math.pi / 4) == pytest.approx(1.0, rel=1e-14)
        assert specfun.cot(math.pi / 2) == pytest.approx(0.0, abs=1e-15)
        assert specfun.cot(1e-308) == pytest.approx(1e308, rel=1e-15)

    def test_cot_names_the_overflow(self):
        with pytest.raises(RangeError) as caught:
            specfun.cot(1e-320)
        assert str(caught.value) == "cot overflows a double at theta = 1e-320"

    def test_csc2(self):
        assert specfun.csc2(math.pi / 2) == pytest.approx(1.0, rel=1e-14)
        assert specfun.csc2(math.pi / 6) == pytest.approx(4.0, rel=1e-12)

    def test_csc2_names_the_underflow(self):
        with pytest.raises(RangeError) as caught:
            specfun.csc2(1e-200)
        assert str(caught.value) == "sin(theta)^2 underflows a double at theta = 1e-200"

    @pytest.mark.parametrize("sine", [math.inf, -math.inf, math.nan, 2.0, -1.0000000000000002])
    def test_check_sine_rejects_what_is_no_sine(self, sine):
        with pytest.raises(DomainError, match=r"^sin\(theta\) must lie in \[-1, 1\]"):
            specfun.check_sine(sine, 1.0)

    @pytest.mark.parametrize("sine", [1.0, -1.0, 0.5, 1e-150])
    def test_check_sine_keeps_sines(self, sine):
        assert specfun.check_sine(sine, 1.0) == sine

    @pytest.mark.parametrize("theta", [0.0, math.pi, -0.1, 4.0])
    def test_guards(self, theta):
        with pytest.raises(SingularityError):
            specfun.cot(theta)
        with pytest.raises(SingularityError):
            specfun.csc2(theta)


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=0.1, max_value=25.0))
def test_gamma_recurrence_property(x):
    assert specfun.gamma(x + 1.0) == pytest.approx(x * specfun.gamma(x), rel=1e-12)
