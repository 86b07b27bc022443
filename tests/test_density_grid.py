"""The grid density paths against the per-point functions, bit for bit.

``limits_lab.density_columns`` and ``platevac density`` evaluate a whole
grid at once, on floats for a sequence of angles and in one numpy pass
for an array; the references here are built point by point from the
public point functions, the way the CLI used to build its tables.
"""

import contextlib
import inspect
import io
import json
import math
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

from platevac import cli, em3d, limits_lab, scalar1d
from platevac.errors import DomainError, PlatevacError, RangeError, SingularityError
from platevac.geometry import Geometry, Position, window_integral
from platevac.limits_lab import Clustering, FieldModel, GridSpec
from platevac.regsum import RegScheme
from platevac.scalar1d import Couplings, ValidityWarning

NEAR_WALL = [1e-12, 3e-13, 1e-9, math.pi - 1e-12, math.pi - 1e-9]

SCALAR_CASES = [
    ("zeta", RegScheme.zeta(), None),
    ("cutoff", RegScheme.cutoff(1e-2), None),
    ("cutoff-small", RegScheme.cutoff(3.7e-4), None),
    ("zeta+alpha", RegScheme.zeta(), Couplings(alpha=0.01, m=2.5)),
    ("cutoff+alpha", RegScheme.cutoff(1e-2), Couplings(alpha=0.01, m=2.5)),
]
EM_CASES = [
    ("em", None),
    ("em+alpha", em3d.EhCouplings(alpha=0.05, m=1.7)),
]


def golden_thetas(count=2001):
    # Both clusterings, seeded interior angles and angles within 1e-12 of
    # each wall.
    rng = np.random.default_rng(11)
    grids = [
        limits_lab.theta_array(GridSpec(count)),
        limits_lab.theta_array(GridSpec(count, Clustering.ENDPOINTS)),
        rng.uniform(0.0, math.pi, 500),
        np.array(NEAR_WALL),
    ]
    return np.concatenate(grids)


def point_columns(g, model, scheme, thetas, couplings):
    """The per-point reference: one Position and point calls per angle."""
    rows = []
    for theta in thetas:
        pos = Position.from_theta(float(theta), g)
        if model is FieldModel.SCALAR:
            split = scalar1d.density_split(g, pos, scheme)
            row = [pos.theta, pos.z, split.electric, split.magnetic, split.total]
            if couplings is not None:
                row.append(scalar1d.correction_density(g, pos, couplings))
        else:
            split = em3d.density_split(g, pos, scheme)
            row = [pos.theta, pos.z, split.electric, split.magnetic, split.total]
            if couplings is not None:
                row.append(em3d.eh_correction_density(g, pos, couplings))
        rows.append(row)
    return rows


def grid_rows(columns):
    return [list(row) for row in zip(*(c if isinstance(c, list) else c.tolist()
                                       for c in columns.values()))]


class Engine:
    """One grid engine of density_columns, chosen by the type of the angles."""

    def __init__(self, angles, column_type):
        self.angles = angles
        self.column_type = column_type

    def columns(self, g, model, scheme, thetas, couplings=None):
        columns = limits_lab.density_columns(g, model, scheme, self.angles(thetas), couplings)
        assert {type(c) for c in columns.values()} == {self.column_type}
        return columns


ENGINES = {
    "floats": Engine(lambda thetas: tuple(np.asarray(thetas, dtype=float).tolist()), list),
    "numpy": Engine(lambda thetas: np.asarray(thetas, dtype=float), np.ndarray),
}


@pytest.fixture(params=list(ENGINES))
def engine(request):
    return ENGINES[request.param]


class TestGoldenGrid:
    @pytest.mark.filterwarnings("ignore::platevac.scalar1d.ValidityWarning")
    @pytest.mark.parametrize("length", [1e-2, 1.0, 73.2])
    @pytest.mark.parametrize("name,scheme,couplings", SCALAR_CASES)
    def test_scalar_grid_equals_point_path(self, engine, name, scheme, couplings, length):
        g = Geometry(length)
        thetas = golden_thetas()
        columns = engine.columns(g, FieldModel.SCALAR, scheme, thetas, couplings)
        expected = ["theta", "z", "electric", "magnetic", "total"]
        if couplings is not None:
            expected.append("correction")
        assert list(columns) == expected
        assert grid_rows(columns) == point_columns(
            g, FieldModel.SCALAR, scheme, thetas, couplings
        )

    @pytest.mark.parametrize("length", [1e-2, 1.0, 73.2])
    @pytest.mark.parametrize("name,couplings", EM_CASES)
    def test_em_grid_equals_point_path(self, engine, name, couplings, length):
        g = Geometry(length)
        thetas = golden_thetas()
        scheme = RegScheme.zeta()
        columns = engine.columns(g, FieldModel.EM, scheme, thetas, couplings)
        assert grid_rows(columns) == point_columns(g, FieldModel.EM, scheme, thetas, couplings)

    def test_cutoff_grid_includes_the_walls(self, engine):
        g = Geometry(2.0)
        scheme = RegScheme.cutoff(0.05)
        thetas = np.array([0.0, 1e-12, 1.0, math.pi - 1e-12, math.pi])
        columns = engine.columns(g, FieldModel.SCALAR, scheme, thetas)
        assert grid_rows(columns) == point_columns(g, FieldModel.SCALAR, scheme, thetas, None)

    @pytest.mark.parametrize("eps", [1e-12, 1e-7])
    def test_tiny_cutoff_grid_equals_point_path(self, engine, eps):
        # Where eps and theta are both tiny the position term is ~1/theta^4
        # of either sign; the array and the point path still agree bit for bit.
        g = Geometry(1.0)
        scheme = RegScheme.cutoff(eps)
        thetas = np.concatenate([[0.0], NEAR_WALL, [1e-11, 5e-13, 2e-12, math.pi]])
        thetas.sort()
        columns = engine.columns(g, FieldModel.SCALAR, scheme, thetas)
        assert grid_rows(columns) == point_columns(g, FieldModel.SCALAR, scheme, thetas, None)

    def test_theta_grid_is_the_array_grid(self):
        for spec in (GridSpec(10001), GridSpec(64, Clustering.ENDPOINTS)):
            n = spec.count
            if spec.clustering is Clustering.UNIFORM:
                loop = [math.pi * (i + 1) / (n + 1) for i in range(n)]
            else:
                loop = [0.5 * math.pi * (1.0 - math.cos(math.pi * (i + 0.5) / n))
                        for i in range(n)]
            assert limits_lab.theta_grid(spec) == tuple(loop)
            assert limits_lab.theta_array(spec).tolist() == loop

    def test_grid_angles_switch_engines_above_a_thousand_points(self):
        for clustering in Clustering:
            small, large = GridSpec(1000, clustering), GridSpec(1001, clustering)
            assert limits_lab.grid_angles(small) == limits_lab.theta_grid(small)
            assert isinstance(limits_lab.grid_angles(large), np.ndarray)
            assert limits_lab.grid_angles(large).tolist() == list(limits_lab.theta_grid(large))

    def test_empty_grid(self, engine):
        columns = engine.columns(Geometry(1.0), FieldModel.SCALAR, RegScheme.zeta(), [])
        assert grid_rows(columns) == [] and len(columns) == 5


class TestGridValidation:
    G = Geometry(1.0)

    @pytest.mark.parametrize("bad", [-1e-9, math.pi + 1e-9, float("nan"), float("inf")])
    def test_outside_the_interval(self, engine, bad):
        for model in FieldModel:
            with pytest.raises(DomainError, match="lies outside"):
                engine.columns(self.G, model, RegScheme.zeta(), [0.5, bad, 1.0])

    def test_outside_after_a_cutoff_wall(self, engine):
        with pytest.raises(DomainError, match="theta = 4.0 lies outside"):
            engine.columns(self.G, FieldModel.SCALAR, RegScheme.cutoff(0.1), [0.0, 1.0, 4.0])

    @pytest.mark.parametrize("wall", [0.0, math.pi])
    def test_walls_where_the_density_diverges(self, engine, wall):
        thetas = [1.0, wall]
        message = f"theta = {wall!r} is not strictly inside"
        with pytest.raises(SingularityError, match=message):
            engine.columns(self.G, FieldModel.SCALAR, RegScheme.zeta(), thetas)
        with pytest.raises(SingularityError, match=message):
            engine.columns(self.G, FieldModel.EM, RegScheme.zeta(), thetas)
        with pytest.raises(SingularityError, match=message):
            engine.columns(
                self.G, FieldModel.SCALAR, RegScheme.cutoff(0.1), thetas, Couplings(0.01, 1.0)
            )

    def test_em_rejects_the_cutoff_scheme(self, engine):
        with pytest.raises(DomainError, match="zeta"):
            engine.columns(self.G, FieldModel.EM, RegScheme.cutoff(0.1), [1.0])

    def test_validity_warning_names_the_caller(self, engine):
        # Once per grid, at the line that asked for the columns.
        thetas = engine.angles([0.5, 1.0, 1.5])
        strong = Couplings(alpha=0.5, m=1.0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            line = sys._getframe().f_lineno + 1
            limits_lab.density_columns(self.G, FieldModel.SCALAR, RegScheme.zeta(), thetas, strong)
        assert [(w.category, w.filename, w.lineno) for w in caught] == [
            (ValidityWarning, __file__, line)
        ]

    @pytest.mark.parametrize("model,length,scheme,couplings,name", [
        (FieldModel.SCALAR, 1e-160, RegScheme.zeta(), None, "electric"),
        (FieldModel.SCALAR, 1e-150, RegScheme.cutoff(1e-12), None, "electric"),
        (FieldModel.SCALAR, 1e308, RegScheme.zeta(), None, "z"),
        (FieldModel.EM, 1e-70, RegScheme.zeta(), None, "electric"),
        (FieldModel.EM, 1e-30, RegScheme.zeta(), em3d.EhCouplings(alpha=1.0), "correction"),
    ])
    def test_column_that_overflows(self, engine, model, length, scheme, couplings, name):
        # A column holding inf or nan is never returned, and numpy warns of nothing.
        g = Geometry(length)
        thetas = [1e-10, 1.0, 2.0]
        message = re.escape(f"the {name} column overflows a double at L = {length!r}") + "$"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RangeError, match=message):
                engine.columns(g, model, scheme, thetas, couplings)

    def test_sine_squared_underflow_is_one_named_error(self, engine):
        # At theta = 1e-200, 1/sin^2 theta overflows: both engines and the
        # point functions raise the same RangeError, not an ArithmeticError.
        message = "^sin\\(theta\\)\\^2 underflows a double at theta = 1e-200$"
        thetas = [1e-200, 1.0]
        cases = [(FieldModel.SCALAR, RegScheme.zeta(), None), (FieldModel.EM, RegScheme.zeta(), None),
                 (FieldModel.SCALAR, RegScheme.cutoff(0.1), Couplings(0.01, 1.0)),
                 (FieldModel.EM, RegScheme.zeta(), em3d.EhCouplings())]
        for model, scheme, couplings in cases:
            with pytest.raises(RangeError, match=message):
                engine.columns(self.G, model, scheme, thetas, couplings)
        pos = Position.from_theta(1e-200, self.G)
        c = Couplings(0.01, 1.0)
        for call in (lambda: scalar1d.density_split(self.G, pos, RegScheme.zeta()),
                     lambda: scalar1d.interacting_density(self.G, pos, c),
                     lambda: scalar1d.correction_density(self.G, pos, c),
                     lambda: em3d.correlators(self.G, pos),
                     lambda: em3d.density_split(self.G, pos),
                     lambda: em3d.eh_correction_density(self.G, pos, em3d.EhCouplings()),
                     lambda: em3d.profile_F(1e-200)):
            with pytest.raises(RangeError, match=message):
                call()
        # The cutoff densities do not divide by sin^2 theta and stay defined.
        columns = engine.columns(self.G, FieldModel.SCALAR, RegScheme.cutoff(0.1), thetas)
        assert all(math.isfinite(v) for v in list(columns["electric"]))

    def test_em_cancellation_guard(self, engine, monkeypatch):
        # A free density off by 1e-6 must trip the vectorised guard just
        # as it trips the point path.
        exact = em3d.free_casimir_density
        monkeypatch.setattr(em3d, "free_casimir_density", lambda g: exact(g) * (1.0 + 1e-6))
        with pytest.raises(PlatevacError, match="cancellation"):
            em3d.correlators(self.G, Position.from_theta(1.0, self.G))
        with pytest.raises(PlatevacError, match="^correlator cancellation invariant violated$"):
            engine.columns(self.G, FieldModel.EM, RegScheme.zeta(), [0.5, 1.0, 1.5])


def run_main(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    assert code == 0
    return out.getvalue()


def reference_density_output(model, scheme, length, alpha, mass, spec, fmt):
    """The CLI table as the per-point loop wrote it."""
    g = Geometry(length)
    thetas = limits_lab.theta_grid(spec)
    if alpha is None:
        couplings = None
    elif model is FieldModel.SCALAR:
        couplings = Couplings(alpha=alpha, m=mass)
    else:
        couplings = em3d.EhCouplings(alpha=alpha, m=mass)
    rows = point_columns(g, model, scheme, thetas, couplings)
    header = ["theta", "z", "electric", "magnetic", "total"]
    if alpha is not None:
        header.append("correction")
    if fmt == "csv":
        lines = [",".join(header)]
        lines += [",".join(format(float(x), ".17g") for x in row) for row in rows]
        return "\n".join(lines) + "\n"
    payload = {
        "command": "density",
        "model": model.value,
        "length": length,
        "scheme": scheme.kind.value,
        "epsilon": scheme.epsilon,
        "alpha": alpha,
        "mass": mass if alpha is not None else None,
        "columns": header,
        "rows": rows,
    }
    return json.dumps(payload, indent=2) + "\n"


CLI_CASES = [
    ("scalar", None, None),
    ("scalar", 3.7e-4, None),
    ("scalar", None, 0.01),
    ("scalar", 0.02, 0.01),
    ("em", None, None),
    ("em", None, 0.05),
]


def scan_window_rows(g, deltas):
    total = scalar1d._free_total(g.length)
    return [[delta, *window_integral(scalar1d.ELECTRIC_WINDOW, g.length, None, total, delta)]
            for delta in deltas]


def scan_split_rows(g, theta, epsilons):
    splits = [scalar1d.density_split(g, Position.from_theta(theta, g), RegScheme.cutoff(eps))
              for eps in epsilons]
    return [[eps, s.electric, s.magnetic, s.total] for eps, s in zip(epsilons, splits)]


# scan commands, each with its model, columns and the rows of its per-value
# loop; the epsilon scan's total column holds one value.
SCAN_CASES = [
    (["--vary", "length", "--values", "0.37"], "scalar", ["length", "total_energy"],
     lambda: [[0.37, scalar1d.free_total_energy(Geometry(0.37))]]),
    (["--vary", "epsilon", "--values", "0.04,0.02,0.01", "--length", "0.37", "--theta", "0.7"],
     "scalar", ["epsilon", "electric", "magnetic", "total"],
     lambda: scan_split_rows(Geometry(0.37), 0.7, [0.04, 0.02, 0.01])),
    (["--vary", "length", "--values", "0.1,1,10", "--model", "em", "--alpha", "0.01"], "em",
     ["length", "total_energy", "force_per_area"],
     lambda: [[length, em3d.corrected_total_energy(Geometry(length), Couplings(0.01, 1.0)),
               em3d.casimir_force_per_area(Geometry(length))] for length in (0.1, 1.0, 10.0)]),
    (["--vary", "delta", "--values", "0.02,0.01,1e-8"], "scalar",
     ["delta", "window_integral", "divergent_estimate"],
     lambda: scan_window_rows(Geometry(1.0), [0.02, 0.01, 1e-8])),
]


class TestDensityCommandBytes:
    # 1000 points run on floats, 1001 in one numpy pass.
    @pytest.mark.parametrize("count", [1000, 1001])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("cluster", ["uniform", "endpoints"])
    @pytest.mark.parametrize("model,epsilon,alpha", CLI_CASES)
    def test_bytes_equal_the_point_loop(self, model, epsilon, alpha, cluster, fmt, count):
        length, mass = 0.37, 1.9
        argv = ["density", "--model", model, "--length", repr(length),
                "--grid", str(count), "--cluster", cluster, "--format", fmt]
        scheme = RegScheme.zeta()
        if epsilon is not None:
            argv += ["--scheme", "cutoff", "--epsilon", repr(epsilon)]
            scheme = RegScheme.cutoff(epsilon)
        if alpha is not None:
            argv += ["--alpha", repr(alpha), "--mass", repr(mass)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ValidityWarning)
            expected = reference_density_output(
                FieldModel(model), scheme, length, alpha, mass,
                GridSpec(count, Clustering(cluster)), fmt,
            )
            assert run_main(argv) == expected

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("argv,model,columns,rows", SCAN_CASES,
                             ids=["one-row", "epsilon", "length-em-alpha", "delta"])
    def test_scan_bytes_equal_the_point_loop(self, argv, model, columns, rows, fmt):
        # scan writes through the density table writer; the reference is the
        # per-value loop scan used to run, written cell by cell.
        header = {"command": "scan", "vary": argv[1], "model": model, "columns": columns}
        expected = reference_table(header, list(zip(*rows())), fmt)
        assert run_main(["scan", *argv, "--format", fmt]) == expected

    def test_one_validity_warning_per_grid(self):
        # alpha / (m L)^2 = 0.5 > 0.1
        argv = ["density", "--alpha", "0.5", "--mass", "1", "--grid", "10001"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run_main(argv)
        assert [w.category for w in caught] == [ValidityWarning]

    @pytest.mark.parametrize("count", [3, 1000, 1001])
    def test_validity_warning_names_the_cli_line(self, count):
        # The warning names the line in cli.py that asks for the columns.
        argv = ["density", "--alpha", "0.5", "--mass", "1", "--grid", str(count)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run_main(argv)
        source, first = inspect.getsourcelines(cli._cmd_density)
        line = first + next(i for i, text in enumerate(source) if "density_columns(" in text)
        assert [(w.category, w.filename, w.lineno) for w in caught] == [
            (ValidityWarning, cli.__file__, line)
        ]


# The header fields of a density table, with null and set
# epsilon/alpha/mass, for 5- and 6-column tables.
JSON_HEADERS = {
    5: {"command": "density", "model": "scalar", "length": 0.37, "scheme": "zeta",
        "epsilon": None, "alpha": None, "mass": None,
        "columns": ["theta", "z", "electric", "magnetic", "total"]},
    6: {"command": "density", "model": "scalar", "length": 1e-2, "scheme": "cutoff",
        "epsilon": 3.7e-4, "alpha": 0.01, "mass": 1.9,
        "columns": ["theta", "z", "electric", "magnetic", "total", "correction"]},
}
SPECIAL_DOUBLES = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1.7976931348623157e308]


def table(values, width):
    return [values[i:i + width] for i in range(0, len(values) - width + 1, width)]


class TestCorrectionAgainstMpmath:
    @pytest.mark.parametrize("alpha", [1e-20, 1e-10])
    def test_weak_coupling_correction_column(self, alpha):
        # The correction is its own law, not the interacting density minus
        # the free constant, which cancels to 0 or to a few digits here.
        import mpmath

        mpmath.mp.dps = 50
        payload = json.loads(run_main(
            ["density", "--grid", "3", "--alpha", repr(alpha), "--format", "json"]))
        for theta, *_, correction in payload["rows"]:
            s = mpmath.sin(mpmath.mpf(theta))
            exact = -(mpmath.mpf(alpha) * mpmath.pi ** 2 / 8) * (mpmath.mpf(1) / 18 + 1 / s ** 4)
            assert abs(mpmath.mpf(correction) - exact) <= 1e-12 * abs(exact)


class TestJsonRows:
    """cli._table writes the bytes of json.dumps(payload, indent=2)."""

    @pytest.mark.parametrize("width,seed", [(5, 1), (6, 2)])
    def test_random_bit_patterns(self, width, seed):
        # 5e5 doubles per table, drawn from uniform 64-bit patterns: every
        # exponent, subnormals and NaN payloads.
        rng = np.random.default_rng(seed)
        drawn = rng.integers(0, 2 ** 64, size=500_000, dtype=np.uint64)
        values = SPECIAL_DOUBLES + drawn.view(np.float64).tolist()
        rows = table(values, width)
        header = JSON_HEADERS[width]
        assert (cli._table(header, list(zip(*rows)), "json")
                == json.dumps({**header, "rows": rows}, indent=2) + "\n")

    @pytest.mark.parametrize("width", [5, 6])
    @pytest.mark.parametrize("count", [1, 2, 3])
    def test_short_tables(self, width, count):
        rows = table((SPECIAL_DOUBLES * 3)[:width * count], width)
        header = JSON_HEADERS[width]
        assert cli._table(header, list(zip(*rows)), "json") == cli._json({**header, "rows": rows})

    @pytest.mark.parametrize("model,epsilon,alpha", CLI_CASES)
    def test_two_point_grid_command(self, model, epsilon, alpha):
        argv = ["density", "--model", model, "--grid", "2", "--format", "json"]
        if epsilon is not None:
            argv += ["--scheme", "cutoff", "--epsilon", repr(epsilon)]
        if alpha is not None:
            argv += ["--alpha", repr(alpha)]
        text = run_main(argv)
        payload = json.loads(text)
        assert len(payload["rows"]) == 2
        assert (payload["alpha"] is None) == (alpha is None)
        assert (payload["mass"] is None) == (alpha is None)
        assert (payload["epsilon"] is None) == (epsilon is None)
        assert text == json.dumps(payload, indent=2) + "\n"


def reference_table(header, columns, fmt):
    """A density table cell by cell: format(x, ".17g") rows, or json.dumps."""
    rows = [list(row) for row in zip(*columns)]
    if fmt == "csv":
        lines = [",".join(format(x, ".17g") for x in row) for row in rows]
        return "\n".join([",".join(header["columns"]), *lines]) + "\n"
    return json.dumps({**header, "rows": rows}, indent=2) + "\n"


# Cells beside random bit patterns: NaN, +-inf, signed zeros, subnormals.
CELLS = SPECIAL_DOUBLES + [-5e-324, -1e-310, 2.2250738585072014e-308 / 3, 0.1, -2.5, 1e300]


def random_column(rng, kind, count):
    # The cells of one column, each its own float object as tolist() gives them.
    if kind == "constant":
        value = CELLS[rng.integers(len(CELLS))] if rng.random() < 0.5 else random_cells(rng, 1)[0]
        return np.full(count, value).tolist()
    if kind == "zeros":  # both signs once there are two rows
        signs = np.array([0.0, -0.0] + [rng.choice([0.0, -0.0]) for _ in range(count - 2)])
        return signs[rng.permutation(len(signs))][:count].tolist()
    return [CELLS[rng.integers(len(CELLS))] if rng.random() < 0.3 else cell
            for cell in random_cells(rng, count)]


def random_cells(rng, count):
    return rng.integers(0, 2 ** 64, size=count, dtype=np.uint64).view(np.float64).tolist()


# Whole-table constants: signed zeros print apart, and a NaN with a payload
# and a sign bit is one bit pattern all the same.
NAN_PAYLOAD = np.array(0xFFF8_0000_0000_1234, np.uint64).view(np.float64).item()
CONSTANTS = [(0.5, math.nan, -math.inf, 5e-324, -2.5), (-0.0, NAN_PAYLOAD, 0.0, math.inf, 1e308)]

# Row counts on both sides of the array writer's chunk boundaries.
CHUNK = limits_lab._TABLE_CHUNK
CHUNK_COUNTS = [CHUNK - 1, CHUNK + 1, 2 * CHUNK + 3]


class TestTable:
    """cli._table, both formats, against the table written cell by cell.

    List columns are the float engine's; ndarray columns the array
    engine's, whose CSV and JSON come from limits_lab._table_rows.
    """

    @staticmethod
    def check_random_tables(fmt, count, constant, container):
        rng = np.random.default_rng([count, constant, fmt == "json"])
        header = JSON_HEADERS[6]
        for _ in range(50 if count < 100 else 2):
            kinds = [("random", "constant", "zeros")[rng.integers(3)] for _ in range(6)]
            kinds[constant] = "constant"
            columns = [random_column(rng, kind, count) for kind in kinds]
            assert (cli._table(header, list(map(container, columns)), fmt)
                    == reference_table(header, columns, fmt))

    @staticmethod
    def check_every_column_constant(fmt, count, container):
        header = JSON_HEADERS[5]
        for values in CONSTANTS:
            columns = [[value] * count for value in values]
            assert (cli._table(header, list(map(container, columns)), fmt)
                    == reference_table(header, columns, fmt))

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("count", [1, 2, 3, 40])
    @pytest.mark.parametrize("constant", [0, 2, 5])  # the first, a middle and the last column
    def test_random_tables(self, fmt, count, constant):
        self.check_random_tables(fmt, count, constant, list)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("count", [1, 2, 3, 40, *CHUNK_COUNTS])
    @pytest.mark.parametrize("constant", [0, 2, 5])
    def test_random_tables_of_arrays(self, fmt, count, constant):
        self.check_random_tables(fmt, count, constant, np.array)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("count", [1, 2, 3])
    def test_every_column_constant(self, fmt, count):
        self.check_every_column_constant(fmt, count, list)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("count", [1, 2, 3, *CHUNK_COUNTS])
    def test_every_column_constant_arrays(self, fmt, count):
        self.check_every_column_constant(fmt, count, np.array)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("count", [3, *CHUNK_COUNTS])
    @pytest.mark.parametrize("middle", [1e308, math.nan, math.inf, -math.inf])
    def test_one_cell_in_the_middle_of_huge_arrays(self, fmt, count, middle):
        # Every other cell is near the largest double, so a finiteness test by
        # column.sum() would overflow and warn; a non-finite middle cell still
        # prints as NaN or Infinity in JSON.
        huge = np.where(np.arange(count) % 2, 1.7976931348623157e308, -1e308)
        columns = [huge, -huge, np.full(count, 1e308), huge.copy(), np.linspace(1.0, 2.0, count)]
        for column in columns[::3]:
            column[count // 2] = middle
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            text = cli._table(JSON_HEADERS[5], columns, fmt)
        assert text == reference_table(JSON_HEADERS[5], [c.tolist() for c in columns], fmt)


def hand_joined(columns, shortest, between, row_end):
    cell = repr if shortest else (lambda x: format(x, ".17g"))
    return row_end.join(between.join(map(cell, row)) for row in zip(*columns))


class TestTableRowsLayout:
    """limits_lab._table_rows on 1 to 7 columns, against cells joined by hand.

    Cell j of a row starts j (45 + len(between)) bytes in; the separators
    here are longer and shorter than the row end, unlike CSV's and JSON's,
    and the row end may be empty.
    """

    @pytest.mark.parametrize("between,row_end", [(";;;;", "\n"), (",", "\n]\n["), (";", "")])
    @pytest.mark.parametrize("count", CHUNK_COUNTS)
    @pytest.mark.parametrize("width", range(1, 8))
    def test_cells_joined_by_hand(self, width, count, between, row_end):
        rng = np.random.default_rng([width, count, len(between)])
        kinds = [("random", "constant", "zeros")[i % 3] for i in rng.permutation(width)]
        mixed = [random_column(rng, kind, count) for kind in kinds]
        constant = [random_column(rng, "constant", count) for _ in range(width)]
        for columns in (mixed, constant):
            for shortest in (False, True):
                rows = limits_lab._table_rows(list(map(np.array, columns)), shortest, between, row_end)
                assert "".join(rows) == hand_joined(columns, shortest, between, row_end)

    def test_masks_leave_the_sign_and_lead_bytes_nul(self):
        # keep and points line up with the five words of 20 digit slots, the
        # first three unused: bytes 0-5 of every row are for the sign and lead.
        keep, points = limits_lab._digit_tables()[6:8]
        for masks in (keep, points):
            assert masks.shape[1:] == (5,)
            assert not masks.view(np.uint8)[:, :6].any()

    def test_sign_and_lead_words_leave_the_digit_bytes_nul(self):
        # Each row is OR'd into a cell's first digit word, whose bytes 6 and
        # 7 hold the first digit and the point after it.
        signs = limits_lab._digit_tables()[8]
        assert signs.shape == (12,)
        assert not signs.view(np.uint8).reshape(12, 8)[:, 6:].any()


class TestTableRowsPasses:
    """cli._table through limits_lab._table_rows across passes, cell by cell.

    One cell buffer serves every pass, so what a pass leaves in it must not
    show in the next: each cell against format(x, ".17g") or repr(x).
    """

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("scientific", ["first", "last", "none"])
    def test_state_from_pass_to_pass(self, scientific, fmt):
        # Three passes, the last of one row.  Every 7th row of one pass holds
        # scientific cells, so the next pass must clear their exponent slots;
        # the other cells are fixed, the negative ones in [1e-4, 1) next to
        # positive ones, so each cell takes its own sign and "0.000" lead.
        rng = np.random.default_rng([len(scientific), fmt == "json"])
        count = 2 * CHUNK + 1
        signs = rng.choice([-1.0, 1.0], (count, 4))
        table = 10 ** np.column_stack([rng.uniform(-4, 0, (count, 3)),
                                       rng.uniform(0, 15, count)]) * signs
        rows = {"first": slice(0, CHUNK, 7), "last": slice(count - 1, count), "none": slice(0)}
        sci = table[rows[scientific], :3]  # a view: the cells change in the table
        sci *= 10 ** rng.choice([-20.0, 20.0], sci.shape)
        columns = [table[:, 0], table[:, 1], np.full(count, -0.5), table[:, 2], table[:, 3]]
        assert len(limits_lab._table_rows(columns)) == 3
        assert (cli._table(JSON_HEADERS[5], columns, fmt)
                == reference_table(JSON_HEADERS[5], [c.tolist() for c in columns], fmt))

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_no_live_column(self, fmt):
        # Every column is one bit pattern, so no cell runs the digit passes.
        columns = [np.full(CHUNK + 1, value) for value in (-0.00015, 1e-7, 2.0, -0.0, 1e20)]
        assert (cli._table(JSON_HEADERS[5], columns, fmt)
                == reference_table(JSON_HEADERS[5], [c.tolist() for c in columns], fmt))


def trailing_zero_cells(cell, fill):
    """One 2,048-row pass of 6 columns holding cells whose 17-digit N ends in
    each count of zeros from 0 to 16, in fixed and scientific form, both signs.

    N is the significand the writer's digit rule gives (``cell`` is format
    with ".17g" or repr): from a nonzero last base-10**4 group it reads the
    last nonzero digit from a table, else N's digits.  ``fill`` "mixed" puts
    three cells of each kind among signed log-normal cells; "whole pass"
    tiles them over the pass.
    """
    rng = np.random.default_rng(27)
    pool = []  # short decimals, integers that are doubles, dyadic fractions
    for digits in range(1, 18):
        for d in rng.integers(10 ** (digits - 1), 10 ** digits, 40).tolist():
            d -= d % 10 == 0
            pool.append(float(f"{d}e{rng.integers(-30, 30) - digits}"))
            pool += [float(d * 10 ** k) for k in range(23) if float(d * 10 ** k) == d * 10 ** k]
    for q in range(1, 40):
        pool += [int(m) / 2 ** q for m in rng.integers(1, 2 ** rng.integers(1, 53, 20)) | 1]
    kinds = {}
    for x in pool:
        text = cell(x)
        digits = text.partition("e")[0].replace(".", "").strip("0")
        kinds.setdefault((17 - len(digits), "e" in text), []).append(x)
    assert sorted(kinds) == [(zeros, sci) for zeros in range(17) for sci in (False, True)]
    values = np.array([sign * x for xs in kinds.values() for x in xs[:3] for sign in (1.0, -1.0)])
    if fill == "whole pass":
        return np.resize(values, 6 * CHUNK)
    table = rng.lognormal(0.0, 30.0, 6 * CHUNK) * rng.choice([-1.0, 1.0], 6 * CHUNK)
    table[rng.choice(len(table), len(values), replace=False)] = values
    return table


def csv_cells(values):
    """``values`` as the array writer's 6-column CSV rows, split back into cells."""
    columns = np.asarray(values, dtype=float).reshape(-1, 6).T
    return ",".join("".join(limits_lab._table_rows(list(columns))).splitlines()).split(",")


class TestArrayCsvCells:
    """limits_lab._table_rows against format(x, ".17g"), cell by cell."""

    @pytest.mark.parametrize("seed", [1, 2])
    def test_random_bit_patterns(self, seed):
        # 5e5 doubles from uniform 64-bit patterns: every exponent, subnormals, NaN payloads.
        rng = np.random.default_rng(seed)
        values = np.concatenate([SPECIAL_DOUBLES, rng.integers(
            0, 2 ** 64, size=499_997, dtype=np.uint64).view(np.float64)])
        assert csv_cells(values) == [format(x, ".17g") for x in values.tolist()]

    def test_powers_of_ten_and_their_neighbours(self):
        # 10**k and one ulp either side, both signs: log10's exponent is one
        # off on one side, and digits round to 1 followed by zeros.
        tens = np.array([float(f"1e{k}") for k in range(-300, 301)])
        values = np.concatenate([tens, np.nextafter(tens, 0.0), np.nextafter(tens, np.inf)])
        values = np.concatenate([values, -values])
        assert csv_cells(values) == [format(x, ".17g") for x in values.tolist()]

    @pytest.mark.parametrize("shift", [-0.5, 0.5])
    def test_exponent_one_off_either_way(self, monkeypatch, shift):
        # The exponent from log10 is corrected by exact comparisons in both
        # directions: with log10 half a decade off, every cell is the same.
        log10 = np.log10
        monkeypatch.setattr(np, "log10", lambda x: log10(x) + shift)
        rng = np.random.default_rng(9)
        values = np.concatenate([[float(f"1e{k}") for k in range(-270, 290)],
                                 rng.lognormal(0.0, 100.0, 6000)])
        values = np.concatenate([values, np.nextafter(values, 0.0), np.nextafter(values, np.inf)])
        assert csv_cells(values) == [format(x, ".17g") for x in values.tolist()]
        assert json_cells(values) == [repr(x) for x in values.tolist()]

    def test_halfway_cases(self):
        # m / 2**q with m odd and m 5**q of 18 digits ending in 5: exactly
        # halfway between two 17-digit decimals, so the tie decides.
        rng = np.random.default_rng(5)
        values = []
        for q in range(2, 26):
            low, high = -(-10 ** 17 // 5 ** q), min(10 ** 18 // 5 ** q, 2 ** 53)
            for m in rng.integers(low, high, size=500):
                m = int(m) | 1
                if m * 5 ** q < 10 ** 18:
                    values += [m / 2 ** q, -m / 2 ** q]
        values = values[:len(values) // 6 * 6]
        assert len(values) > 20_000
        assert csv_cells(values) == [format(x, ".17g") for x in values]

    @pytest.mark.parametrize("fill", ["mixed", "whole pass"])
    def test_trailing_zeros_of_the_digits(self, fill):
        values = trailing_zero_cells(lambda x: format(x, ".17g"), fill).tolist()
        assert csv_cells(values) == [format(x, ".17g") for x in values]

    def test_signed_zeros_and_three_digit_exponents(self):
        values = [0.0, -0.0, 1e-100, -1.2345678901234567e-123, 9.999999999999999e299, 1e-300,
                  2.5e-270, 1e-271, 1.7976931348623157e308, -2.2250738585072014e-308,
                  1e100, -1e200, 1.5e-5, 0.00015, 1e16, 1e17, 123456789012345678.0, 0.1]
        values = values * 6
        assert csv_cells(values) == [format(x, ".17g") for x in values]


def json_cells(values):
    """``values`` as the array writer's 6-column rows of repr cells, split back into cells."""
    columns = np.asarray(values, dtype=float).reshape(-1, 6).T
    text = "".join(limits_lab._table_rows(list(columns), shortest=True))
    return ",".join(text.splitlines()).split(",")


def reprs(values):
    values = list(values)[:len(values) // 6 * 6]
    return values, [repr(x) for x in values]


class TestArrayJsonCells:
    """limits_lab._table_rows with shortest digits against repr(x), cell by cell.

    repr keeps the fewest digits that read back as x: 15 or fewer, else 16
    when within half an ulp, else 17; fixed below exponent 16, with '.0'.
    """

    @pytest.mark.parametrize("seed", [1, 2])
    def test_random_bit_patterns(self, seed):
        rng = np.random.default_rng(seed)
        values, expected = reprs(np.concatenate([SPECIAL_DOUBLES, rng.integers(
            0, 2 ** 64, size=499_997, dtype=np.uint64).view(np.float64)]).tolist())
        assert json_cells(values) == expected

    def test_signed_log_normal_values(self):
        # Density-like magnitudes, most of them with 16 or 17 digits.
        rng = np.random.default_rng(3)
        values = rng.lognormal(0.0, 30.0, 120_000) * rng.choice([-1.0, 1.0], 120_000)
        values, expected = reprs(values.tolist())
        assert json_cells(values) == expected

    def test_powers_of_ten_and_two_and_their_neighbours(self):
        # 10**k (1e-269 is stored just below it: its digits carry to 10**17)
        # and 2**k (a lopsided rounding interval), one ulp either side.
        tens = np.array([float(f"1e{k}") for k in range(-300, 301)])
        twos = np.ldexp(1.0, np.arange(-1022, 1024))
        values = np.concatenate([tens, twos])
        values = np.concatenate([values, np.nextafter(values, 0.0), np.nextafter(values, np.inf)])
        values, expected = reprs(np.concatenate([values, -values]).tolist())
        assert json_cells(values) == expected

    def test_halfway_cases(self):
        # m / 2**q exactly halfway between two 16-digit (or 15-digit)
        # decimals: m 5**q of 17 (or 16) digits ending in 5.
        rng = np.random.default_rng(5)
        values = []
        for digits in (16, 17):
            for q in range(2, 24):
                low, high = -(-10 ** (digits - 1) // 5 ** q), min(10 ** digits // 5 ** q, 2 ** 53)
                for m in rng.integers(low, high, size=300) if low < high else ():
                    m = int(m) | 1
                    if m * 5 ** q < 10 ** digits:
                        values += [m / 2 ** q, -m / 2 ** q]
        values, expected = reprs(values)
        assert len(values) > 10_000
        assert json_cells(values) == expected

    def test_near_the_rounding_boundary(self):
        # Integers from 2**54 to 2**57 whose neighbours' midpoint is a
        # multiple of 10 or 100: a 16- or 15-digit decimal exactly half an ulp
        # from both; and random 16-digit decimals with the doubles on each side.
        rng = np.random.default_rng(7)
        values = []
        for power in range(54, 57):
            ulp = 2 ** (power - 52)
            for step in (10, 100):
                for j in rng.integers(2 ** power // step, 2 ** (power + 1) // step, 2000):
                    mid = int(j) * step
                    if mid % ulp == ulp // 2:
                        values += [float(mid - ulp // 2), float(mid + ulp // 2)]
        assert len(values) > 3000
        decimals = [float(f"{d}e{x}") for d, x in zip(
            rng.integers(10 ** 15, 10 ** 16, 20_000), rng.integers(-300, 290, 20_000))]
        decimals = np.array(decimals)
        values = np.concatenate([values, decimals, np.nextafter(decimals, 0.0),
                                 np.nextafter(decimals, np.inf)])
        values, expected = reprs(values.tolist())
        assert json_cells(values) == expected

    @pytest.mark.parametrize("fill", ["mixed", "whole pass"])
    def test_trailing_zeros_of_the_digits(self, fill):
        values, expected = reprs(trailing_zero_cells(repr, fill).tolist())
        assert json_cells(values) == expected

    def test_zeros_subnormals_and_non_finite_cells(self):
        values, expected = reprs([0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2250738585072009e-308,
                                  2.2250738585072014e-308, math.nan, math.inf, -math.inf,
                                  1e-270, 9.9e-271, 1e290, 1.1e290, 1.7976931348623157e308, 0.1])
        assert json_cells(values) == expected

    def test_layout_switches(self):
        # repr is fixed for exponents -4 to 15 and scientific outside; an
        # integral fixed value keeps '.0', a scientific one has no point.
        values = []
        for exponent in (-5, -4, 15, 16, 17):
            for digits in ("1", "15", "123456789012345", "1234567890123456", "12345678901234567"):
                x = float(f"{digits[0]}.{digits[1:]}e{exponent}" if len(digits) > 1
                          else f"{digits}e{exponent}")
                values += [x, -x, math.nextafter(x, 0.0), math.nextafter(x, math.inf)]
        values += [9999999999999998.0, 999999999999999.9, 0.00009999999999999999, 1234.0, 0.5]
        values, expected = reprs(values * 6)
        assert json_cells(values) == expected


class TestFirstError:
    """An EM table that leaves the normal doubles names the same column on both engines."""

    @pytest.mark.parametrize("grid", ["101", "1001"])
    @pytest.mark.parametrize("alpha", [[], ["--alpha", "0.01"]])
    @pytest.mark.parametrize("length, message", [
        ("1e-100", "the electric column overflows a double at L = 1e-100"),
        ("5e76", "the free density underflows a double at L = 5e+76"),
        ("1e77", "the electric column underflows a double at L = 1e+77"),
    ])
    def test_em_table(self, grid, alpha, length, message):
        argv = ["density", "--model", "em", "--length", length, "--grid", grid, *alpha]
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy RuntimeWarning either
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                assert cli.main(argv) == 1
        assert (out.getvalue(), err.getvalue()) == ("", f"numeric error: {message}\n")


class TestNumpyFreeImport:
    def test_point_modules_import_without_numpy(self):
        code = "\n".join([
            "import sys",
            "sys.modules['numpy'] = None",
            "import platevac",
            "from platevac import em3d, scalar1d",
            "from platevac.geometry import Geometry, Position",
            "from platevac.regsum import RegScheme",
            "g = Geometry(1.0)",
            "split = scalar1d.density_split(g, Position.from_theta(1.0, g), RegScheme.zeta())",
            "assert split.total < 0.0",
        ])
        result = subprocess.run([sys.executable, "-c", code], capture_output=True)
        assert result.returncode == 0, result.stderr.decode()

    def test_import_platevac_loads_no_numpy(self):
        code = "import sys, platevac; assert 'numpy' not in sys.modules"
        result = subprocess.run([sys.executable, "-c", code], capture_output=True)
        assert result.returncode == 0, result.stderr.decode()


# Commands that need no array work: with numpy blocked they must run, and
# print the bytes they print with numpy available.  density grids of up to
# 1000 points run on floats.
SCALAR_COMMANDS = [
    ["density"],
    ["density", "--model", "em", "--alpha", "0.01", "--format", "json"],
    ["density", "--grid", "1000", "--cluster", "endpoints", "--scheme", "cutoff",
     "--epsilon", "0.01", "--alpha", "0.01"],
    ["total"],
    ["total", "--model", "em", "--alpha", "0.01", "--format", "json"],
    ["commute"],
    ["commute", "--format", "json"],
    ["commute", "--alpha", "0.01", "--mass", "10"],
    ["commute", "--alpha", "0.01", "--mass", "10", "--format", "json"],
    ["scan", "--vary", "length", "--values", "0.1,1,10"],
    ["scan", "--vary", "delta", "--values", "0.02,0.01,1e-8"],
    ["scan", "--vary", "epsilon", "--values", "0.04,0.02,0.01", "--format", "json"],
    ["verify", "--suite", "quick"],
]


def stdout_in_process(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(argv)
    return out.getvalue()


class TestNumpyFreeCommands:
    def test_commands_run_without_numpy(self):
        code = "\n".join([
            "import contextlib, io, json, sys",
            "sys.modules['numpy'] = None",
            "from platevac import cli",
            f"runs = {SCALAR_COMMANDS!r}",
            "results = []",
            "for argv in runs:",
            "    out = io.StringIO()",
            "    with contextlib.redirect_stdout(out):",
            "        results.append([cli.main(argv), out.getvalue()])",
            "sys.stdout.write(json.dumps(results))",
        ])
        result = subprocess.run([sys.executable, "-c", code], capture_output=True)
        assert result.returncode == 0, result.stderr.decode()
        blocked = json.loads(result.stdout)
        for argv, (exit_code, text) in zip(SCALAR_COMMANDS, blocked):
            assert exit_code == 0, argv
            assert text == stdout_in_process(argv), argv

    def test_import_cli_loads_no_numpy(self):
        code = "import sys, platevac.cli; assert 'numpy' not in sys.modules"
        result = subprocess.run([sys.executable, "-c", code], capture_output=True)
        assert result.returncode == 0, result.stderr.decode()
