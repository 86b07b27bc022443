"""Every density, total and force as one scaled law, against 50-digit mpmath.

Each quantity is a coefficient times powers of L, m and alpha times a
shape in sin(theta).  Over lengths from 1e-100 to 1e100 the library must
return the exact value to rtol 1e-12, or raise RangeError where the exact
value lies outside the normal doubles; it never returns 0, a subnormal,
inf or nan for a nonzero exact value.  For a sum the tolerance is
relative to |constant| + |position term|.
"""

import ast
import inspect
import math
import pathlib
import sys
import textwrap

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import platevac
from platevac import cli, em3d, geometry, limits_lab, scalar1d
from platevac.errors import RangeError
from platevac.geometry import Geometry, Position, scaled, window_integral
from platevac.limits_lab import CommutationModel, FieldModel
from platevac.regsum import RegScheme
from platevac.scalar1d import Couplings

mp.mp.dps = 50
RTOL = 1e-12
TINY = mp.mpf(sys.float_info.min)
HUGE = mp.mpf(sys.float_info.max)
PI = mp.pi


def log_uniform(low, high):
    return st.floats(math.log10(low), math.log10(high)).map(lambda e: 10.0 ** e)


LENGTHS = log_uniform(1e-100, 1e100)
RATIOS = log_uniform(1e-12, 0.5)  # wall distance / L
EPSILONS = log_uniform(1e-12, 1.0)
ALPHAS = log_uniform(1e-20, 1.0)
MASSES = log_uniform(1e-50, 1e50)


def in_range(x):
    return TINY <= abs(x) <= HUGE


def expect(call, exact, scale=None):
    """``call()`` equals each exact value, or raises RangeError if one is out of range.

    ``exact`` and ``scale`` are parallel sequences of mpf; a value's error
    is taken relative to its scale (default: its own magnitude).
    """
    scale = exact if scale is None else scale
    if not all(in_range(x) for x in exact):
        with pytest.raises(RangeError):
            call()
        return
    got = call()
    got = got if isinstance(got, (tuple, list)) else [got]
    for value, x, s in zip(got, exact, scale):
        assert math.isfinite(value) and abs(value) >= sys.float_info.min, (value, x)
        assert abs(mp.mpf(value) - x) <= RTOL * abs(s), (value, x)


def position(g, ratio, right):
    # A position built from z at distance ratio * L from a wall, with the
    # exact sin(theta) of the double z it holds.
    z = g.length - ratio * g.length if right else ratio * g.length
    pos = Position.from_z(z, g)
    wall = mp.mpf(g.length) - mp.mpf(pos.z) if right else mp.mpf(pos.z)
    return pos, mp.sin(PI * wall / mp.mpf(g.length))


def scalar_zeta(length, sin_theta):
    scale = PI / (16 * mp.mpf(length) ** 2)
    return -scale / 3, -scale / sin_theta ** 2  # electric = constant - position term


def scalar_cutoff(length, eps, sin_theta):
    a = mp.exp(-mp.mpf(eps))
    cos2 = 1 - 2 * sin_theta ** 2
    denom = 1 - 2 * a * cos2 + a * a
    dtheta = 2 * a * ((1 + a * a) * cos2 - 2 * a) / denom ** 2
    constant = -PI / (48 * mp.mpf(length) ** 2)
    return constant, PI / (8 * mp.mpf(length) ** 2) * dtheta


def interaction(length, c, sin_theta):
    return -(mp.mpf(c.alpha) * PI ** 2 / (8 * mp.mpf(c.m) ** 2 * mp.mpf(length) ** 4)) * (
        mp.mpf(1) / 18 + 1 / sin_theta ** 4)


def em(length, sin_theta):
    f = 3 / sin_theta ** 4 - 2 / sin_theta ** 2
    scale = PI ** 2 / (32 * mp.mpf(length) ** 4)
    return -scale / 45, -scale * f, f


def eh(length, c, f):
    return -(mp.mpf(c.alpha) ** 2 * PI ** 4 / (17280 * mp.mpf(c.m) ** 4 * mp.mpf(length) ** 8)) * (
        mp.mpf(11) / 225 + 9 * f * f)


def parts(split):
    return split.electric, split.magnetic, split.total


def split_expectation(constant, position_term):
    # (electric, magnetic, total) and their scales.
    exact = [constant - position_term, constant + position_term, 2 * constant]
    scale = [abs(constant) + abs(position_term)] * 2 + [2 * abs(constant)]
    return exact, scale


class TestDensityLaws:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(LENGTHS, RATIOS, st.booleans())
    def test_scalar_zeta(self, length, ratio, right):
        g = Geometry(length)
        pos, sin_theta = position(g, ratio, right)
        exact, scale = split_expectation(*scalar_zeta(length, sin_theta))
        expect(lambda: parts(scalar1d.density_split(g, pos, RegScheme.zeta())), exact, scale)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(LENGTHS, RATIOS, st.booleans(), EPSILONS)
    def test_scalar_cutoff(self, length, ratio, right, eps):
        g = Geometry(length)
        pos, sin_theta = position(g, ratio, right)
        exact, scale = split_expectation(*scalar_cutoff(length, eps, sin_theta))
        expect(lambda: parts(scalar1d.density_split(g, pos, RegScheme.cutoff(eps))), exact, scale)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(LENGTHS, RATIOS, st.booleans(), ALPHAS, MASSES)
    def test_scalar_interacting(self, length, ratio, right, alpha, mass):
        g, c = Geometry(length), Couplings(alpha, mass)
        pos, sin_theta = position(g, ratio, right)
        free = -PI / (24 * mp.mpf(length) ** 2)
        correction = interaction(length, c, sin_theta)
        with _quiet():
            expect(lambda: scalar1d.correction_density(g, pos, c), [correction])
            expect(lambda: scalar1d.interacting_density(g, pos, c), [free + correction],
                   [abs(free) + abs(correction)])

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(LENGTHS, RATIOS, st.booleans(), ALPHAS, MASSES)
    def test_em_and_correction(self, length, ratio, right, alpha, mass):
        g, c = Geometry(length), em3d.EhCouplings(alpha, mass)
        pos, sin_theta = position(g, ratio, right)
        constant, position_term, f = em(length, sin_theta)
        exact, scale = split_expectation(constant, position_term)
        expect(lambda: parts(em3d.density_split(g, pos)), exact, scale)
        expect(lambda: em3d.eh_correction_density(g, pos, c), [eh(length, c, f)])

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(log_uniform(1e-120, 1e120))
    def test_em_near_plate_asymptote(self, z):
        # 3/(16 pi^2 z^4) leaves the normal doubles beyond z of about 1e-77 and 1e77.
        expect(lambda: em3d.near_plate_asymptotics(Geometry(1e100), z).e2,
               [3 / (16 * PI ** 2 * mp.mpf(z) ** 4)])

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(LENGTHS, RATIOS, ALPHAS, MASSES, st.sampled_from(["zeta", "cutoff", "em"]),
           st.sampled_from(["floats", "numpy"]))
    def test_correction_columns(self, length, ratio, alpha, mass, kind, engine):
        # One angle theta = pi * ratio of a density table, with its correction column.
        g = Geometry(length)
        theta = math.pi * ratio
        sin_theta = mp.sin(mp.mpf(theta))
        if kind == "em":
            c = em3d.EhCouplings(alpha, mass)
            constant, position_term, f = em(length, sin_theta)
            correction = eh(length, c, f)
            model, scheme = FieldModel.EM, RegScheme.zeta()
        else:
            c = Couplings(alpha, mass)
            scheme = RegScheme.zeta() if kind == "zeta" else RegScheme.cutoff(1e-3)
            if kind == "zeta":
                constant, position_term = scalar_zeta(length, sin_theta)
            else:
                constant, position_term = scalar_cutoff(length, 1e-3, sin_theta)
            correction = interaction(length, c, sin_theta)
            model = FieldModel.SCALAR
        exact, scale = split_expectation(constant, position_term)
        exact, scale = [*exact, correction], [*scale, abs(correction)]
        thetas = np.array([theta]) if engine == "numpy" else [theta]

        def row():
            with _quiet():
                columns = limits_lab.density_columns(g, model, scheme, thetas, c)
            return [float(columns[name][0])
                    for name in ("electric", "magnetic", "total", "correction")]
        expect(row, exact, scale)


def _outcome(call):
    # call()'s value, or the text of its RangeError.
    try:
        return call()
    except RangeError as exc:
        return str(exc)


class TestScaledColumns:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(st.floats(allow_nan=False) | st.sampled_from([0.0, -0.0, 5e-324]), max_size=8),
           st.integers(-2200, 2200))
    @example([5e-324], 2047)  # 2**973, a normal double
    @example([5e-324], 2098)  # 2**1024 overflows
    @example([1.7976931348623157e308], -2047)  # below the smallest normal double
    def test_a_column_scales_as_its_values(self, values, exponent):
        # A list or an array gives the bits of scaled() on each value; where
        # a value leaves the normal doubles, overflow is named before underflow.
        outcomes = [_outcome(lambda: scaled(value, exponent, "the column", 1.0))
                    for value in values]
        errors = [outcome for outcome in outcomes if isinstance(outcome, str)]
        for column in (values, np.array(values, dtype=float)):
            with np.errstate(over="ignore"):  # as density_columns runs the array pass
                got = _outcome(lambda: scaled(column, exponent, "the column", 1.0))
            if errors:
                assert got == min(errors)  # "overflows" sorts first
            else:
                assert np.array(got, dtype=float).view(np.int64).tolist() == np.array(
                    outcomes, dtype=float).view(np.int64).tolist()


class TestTotalLaws:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(LENGTHS, ALPHAS, MASSES, EPSILONS)
    def test_scalar_totals(self, length, alpha, mass, eps):
        g, c = Geometry(length), Couplings(alpha, mass)
        free = -PI / (24 * mp.mpf(length))
        correction = -mp.mpf(alpha) * PI ** 2 / (144 * mp.mpf(mass) ** 2 * mp.mpf(length) ** 3)
        e = mp.mpf(eps)
        cutoff = PI / (2 * mp.mpf(length)) * (mp.exp(-e) / (1 - mp.exp(-e)) ** 2 - 1 / e ** 2)
        expect(lambda: scalar1d.free_total_energy(g), [free])
        with _quiet():
            expect(lambda: scalar1d.interacting_total_energy(g, c), [free + correction])
        # The bulk-subtracted cutoff total: the free report's (c) column.
        expect(lambda: limits_lab.commutation_report(
            g, CommutationModel.FREE_SCALAR, deltas=[0.25 * length, 0.125 * length],
            epsilons=[eps]).cutoff_rows[0].subtracted, [cutoff])

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(LENGTHS, ALPHAS, MASSES)
    def test_em_totals_and_force(self, length, alpha, mass):
        g, c = Geometry(length), em3d.EhCouplings(alpha, mass)
        free = -PI ** 2 / (720 * mp.mpf(length) ** 3)
        correction = -11 * mp.mpf(alpha) ** 2 * PI ** 4 / (
            3888000 * mp.mpf(mass) ** 4 * mp.mpf(length) ** 7)
        expect(lambda: em3d.corrected_total_energy(g, em3d.EhCouplings(0.0, mass)), [free])
        expect(lambda: em3d.corrected_total_energy(g, c), [free + correction])
        expect(lambda: em3d.casimir_force_per_area(g), [PI ** 2 / (240 * mp.mpf(length) ** 4)])


class TestNamedLimits:
    """The extreme commands of the scaled laws, each with the mpmath value or a named error."""

    @pytest.mark.parametrize("argv,expected", [
        (["total", "--model", "em", "--length", "2.5e76"],
         {"total_energy": -PI ** 2 / (720 * mp.mpf(2.5e76) ** 3),
          "force_per_area": PI ** 2 / (240 * mp.mpf(2.5e76) ** 4)}),
        (["total", "--model", "em", "--alpha", "0.1", "--mass", "1e80"],
         {"total_energy": -PI ** 2 / 720}),
        (["total", "--alpha", "1e-300", "--mass", "1e-200"],
         {"total_energy": -PI / 24 - mp.mpf(1e-300) * PI ** 2 / (144 * mp.mpf(1e-200) ** 2)}),
    ])
    def test_representable_extremes(self, argv, expected, capsys):
        from platevac import cli

        with _quiet():
            assert cli.main(argv + ["--format", "json"]) == 0
        import json

        payload = json.loads(capsys.readouterr().out)
        for key, exact in expected.items():
            assert abs(mp.mpf(payload[key]) - exact) <= RTOL * abs(exact), key

    @pytest.mark.parametrize("argv,message", [
        (["total", "--model", "em", "--length", "1e77"], "the Casimir force underflows"),
        (["total", "--model", "em", "--length", "1e80"], "the Casimir force underflows"),
        (["density", "--grid", "3", "--length", "1e155"], "the electric column underflows"),
        (["total", "--length", "1e-310"], "the free total overflows"),
        (["total", "--length", "1e-200", "--alpha", "0.1"], "the interacting total overflows"),
        (["total", "--model", "em", "--alpha", "0.1", "--mass", "1e-80"],
         "the total energy overflows"),
        (["density", "--grid", "3", "--length", "1e-100", "--alpha", "1"],
         "the correction column overflows"),
    ])
    def test_unrepresentable_extremes(self, argv, message, capsys):
        from platevac import cli

        with _quiet():
            assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"numeric error: {message} a double at L = ")

    @pytest.mark.parametrize("temperature,state", [(1e80, "overflows"), (1e-80, "underflows")])
    def test_thermal_density_out_of_range(self, temperature, state):
        # The free energy density is the density laws at L = 1/(2T), not
        # the total divided by L: no -inf or subnormal comes back.
        with pytest.raises(RangeError, match=f"^the free energy density {state} a double"):
            em3d.thermal_free_energy_density(temperature, em3d.EhCouplings(alpha=0.0))

    def test_free_em_total_at_tiny_length(self):
        # The free total is representable where the free density is not.
        assert em3d.corrected_total_energy(Geometry(1e-78), em3d.EhCouplings(alpha=0.0)) == (
            pytest.approx(float(-PI ** 2 / (720 * mp.mpf(1e-78) ** 3)), rel=RTOL))


# The expressions that stand for L, m and alpha in the source.
_SCALES = ("length", "g.length", "c.m", "c.alpha")


def test_no_power_of_length_mass_or_coupling_is_formed():
    # L, m and alpha enter every law through geometry.law's exponent
    # arithmetic: no ** of them, and no product of one with itself.
    found = []
    for path in sorted(pathlib.Path(platevac.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.BinOp):
                continue
            left, right = ast.unparse(node.left), ast.unparse(node.right)
            if isinstance(node.op, ast.Pow) and any(
                    left == name or f"{name} *" in left or f"* {name}" in left
                    for name in _SCALES):
                found.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
            if isinstance(node.op, ast.Mult) and left == right and left in _SCALES:
                found.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    assert found == []


def test_every_law_coefficient_comes_from_the_table():
    # geometry.law takes an entry's name, L, the couplings and a computed
    # shape: no numeric literal and no math.pi expression reaches it from
    # src/, and every entry of the table is some call's law.
    # The one call that takes its law by variable is window_integral's, which
    # reads each window's law from its data, with integer terms.
    found, named, by_variable = [], set(), []
    for path in sorted(pathlib.Path(platevac.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not (isinstance(node, ast.Call) and "law" in (
                    getattr(node.func, "id", None), getattr(node.func, "attr", None))):
                continue
            name, *args = node.args
            if isinstance(name, ast.Constant):
                named.add(name.value)
            else:
                by_variable.append(f"{path.name}: {ast.unparse(node)}")
            for sub in (n for arg in args + [k.value for k in node.keywords] for n in ast.walk(arg)):
                if ((isinstance(sub, ast.Constant) and type(sub.value) in (int, float, complex))
                        or (isinstance(sub, ast.Attribute) and sub.attr == "pi")):
                    found.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    assert found == []
    assert by_variable == ["geometry.py: law(name, length, couplings, shape)"]
    assert "law(name, length, couplings, shape)" in inspect.getsource(window_integral)
    windows = (scalar1d.ELECTRIC_WINDOW, scalar1d.INTERACTING_WINDOW)
    assert all(type(c) is int and type(n) is int for _, terms, _ in windows for c, n in terms)
    assert named | {law for law, _, _ in windows} == set(geometry.LAWS)


@pytest.mark.parametrize("name, numerator, denominator", [
    ("validity ratio", 1.0, 1.0), ("scalar total", math.pi, 2.0),
    ("scalar density", math.pi, 4.0), ("window divergence", 1.0, 8.0),
    ("scalar correction density", -math.pi ** 2, 8.0),
    ("scalar correction total", -math.pi ** 2, 1.0), ("scalar correction window", -math.pi, 4.0),
    ("em correlator", math.pi ** 2, 16.0),
    ("em density", -math.pi ** 2, 720.0), ("em total", -math.pi ** 2, 720.0),
    ("casimir force", math.pi ** 2, 240.0), ("near-plate correlator", 3.0, 16.0 * math.pi ** 2),
    ("eh density", -math.pi ** 4, 17280.0), ("eh total", -math.pi ** 4, 17280.0),
])
def test_law_takes_the_floats_of_the_written_coefficients(name, numerator, denominator):
    # The table rebuilds p pi^n and q (or q pi^-n) as the floats the laws
    # were written with, so every prefactor keeps its bits.
    assert geometry._FLOATS[name][:2] == (numerator, denominator)


class _quiet:
    """Silence the validity warning where a test does not look for it."""

    def __enter__(self):
        import warnings

        self._catch = warnings.catch_warnings()
        self._catch.__enter__()
        warnings.simplefilter("ignore", scalar1d.ValidityWarning)

    def __exit__(self, *exc):
        return self._catch.__exit__(*exc)


def p_n(n, c):
    """P_n(c) = sum_{k<n} C(n-1, k) c^(2k+1) / (2k+1): (pi / 2L) times the integral of
    csc^2n(pi z / L) over [delta, L - delta], c = cot(pi delta / L)."""
    return mp.fsum(mp.binomial(n - 1, k) * c ** (2 * k + 1) / (2 * k + 1) for k in range(n))


# Each window law with its couplings and its exact K at L.
WINDOW_LAWS = {
    "window divergence": (None, lambda length: 1 / (8 * mp.mpf(length))),
    "scalar correction window": (Couplings(0.01, 10.0), lambda length: -mp.mpf(0.01) * PI / (
        4 * mp.mpf(10.0) ** 2 * mp.mpf(length) ** 3)),
}


class TestWindowIntegral:
    """geometry.window_integral holds K P_n(cot a) to 50-digit mpmath, n = 1-4."""

    @staticmethod
    def check(law, n, length, delta, share=0.5):
        couplings, k = WINDOW_LAWS[law]
        with mp.workdps(60):
            estimate = k(length) * p_n(n, mp.cot(PI * mp.mpf(delta) / mp.mpf(length)))
            total = -PI / (24 * mp.mpf(length))
            constant = share * (1 - 2 * mp.mpf(delta) / mp.mpf(length)) * total
        window = (law, ((1, n),), share)
        expect(lambda: window_integral(window, length, couplings, scalar1d._free_total(length),
                                       delta), [estimate + constant, estimate],
               [abs(estimate) + abs(constant), abs(estimate)])

    @pytest.mark.parametrize("law", list(WINDOW_LAWS))
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("length", [1e-2, 1.0, 1e2])
    @pytest.mark.parametrize("fraction", [1e-8, 1e-4, 0.2])
    def test_each_p_n(self, law, n, length, fraction):
        self.check(law, n, length, fraction * length)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("length, delta", [
        (1e300, 1e-9), (1e300, 1e-20), (1e200, 1e-110), (1.0, 1e-320), (1e-310, 1e-311),
        (1e-310, 4.9e-311), (1.5e308, 7e307)])
    def test_where_a_leaves_the_normal_doubles(self, n, length, delta):
        # a = pi delta / L is subnormal or 0 (cot a is past the doubles), or
        # pi delta is subnormal (L = 1e-310) or past the doubles (L = 1.5e308).
        self.check("window divergence", n, length, delta)

    def test_terms_add(self):
        # 81 P_4 - 108 P_3 + 36 P_2 on one law: each term at its coefficient.
        window = ("window divergence", ((81, 4), (-108, 3), (36, 2)), 0.0)
        for length, delta in ((1.0, 0.01), (1e2, 1e-6), (1e-2, 2e-3)):
            with mp.workdps(60):
                c = mp.cot(PI * mp.mpf(delta) / mp.mpf(length))
                exact = WINDOW_LAWS["window divergence"][1](length) * (
                    81 * p_n(4, c) - 108 * p_n(3, c) + 36 * p_n(2, c))
            value, estimate = window_integral(window, length, None, (1.0, 0), delta)
            assert value == estimate
            assert abs(mp.mpf(estimate) - exact) <= RTOL * abs(exact)


def test_one_window_function():
    # Every window of every model is geometry.window_integral: the report's
    # section (b) and scan --vary delta call it, and no other function in
    # src/ names a window (but the verify check that reads the report's fit)
    # or takes the cot of an angle other than its own argument.
    windows, cots = [], []
    for path in sorted(pathlib.Path(platevac.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.FunctionDef):
                continue
            if "window" in node.name:
                windows.append(f"{path.stem}.{node.name}")
            calls = [call for call in ast.walk(node) if isinstance(call, ast.Call)
                     and ast.unparse(call.func) in ("cot", "specfun.cot")]
            if calls and [ast.unparse(call) for call in calls] != [
                    f"{ast.unparse(calls[0].func)}({node.args.args[0].arg})"]:
                cots.append(f"{path.stem}.{node.name}")
    assert windows == ["geometry.window_integral", "verify._window_divergence_exponent"]
    assert cots == ["geometry.window_integral"]
    for function in (limits_lab.commutation_report, cli._cmd_scan):
        tree = ast.parse(textwrap.dedent(inspect.getsource(function)))
        assert "window_integral" in {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    gone = {"total_energy_by_route", "Route", "WindowIntegral", "_free_windows",
            "_interacting_windows"}
    for module in (platevac, geometry, scalar1d, limits_lab, cli, em3d):
        assert not gone & set(vars(module))
    assert "window remainder" not in geometry.LAWS
