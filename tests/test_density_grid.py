"""The array density path against the per-point functions, bit for bit.

``limits_lab.density_columns`` and ``platevac density`` evaluate a whole
grid at once; the references here are built point by point from the
public point functions, the way the CLI used to build its tables.
"""

import contextlib
import io
import json
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest

from platevac import cli, em3d, limits_lab, scalar1d
from platevac.errors import DomainError, PlatevacError, SingularityError
from platevac.geometry import Geometry, Position
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
                row.append(
                    scalar1d.interacting_density(g, pos, couplings)
                    - scalar1d.free_total_energy(g) / g.length
                )
        else:
            split = em3d.density_split(g, pos, scheme)
            row = [pos.theta, pos.z, split.electric, split.magnetic, split.total]
            if couplings is not None:
                row.append(em3d.eh_correction_density(g, pos, couplings))
        rows.append(row)
    return rows


def grid_rows(columns):
    return [list(row) for row in zip(*(c.tolist() for c in columns.values()))]


class TestGoldenGrid:
    @pytest.mark.filterwarnings("ignore::platevac.scalar1d.ValidityWarning")
    @pytest.mark.parametrize("length", [1e-2, 1.0, 73.2])
    @pytest.mark.parametrize("name,scheme,couplings", SCALAR_CASES)
    def test_scalar_grid_equals_point_path(self, name, scheme, couplings, length):
        g = Geometry(length)
        thetas = golden_thetas()
        columns = limits_lab.density_columns(g, FieldModel.SCALAR, scheme, thetas, couplings)
        expected = ["theta", "z", "electric", "magnetic", "total"]
        if couplings is not None:
            expected.append("correction")
        assert list(columns) == expected
        assert grid_rows(columns) == point_columns(
            g, FieldModel.SCALAR, scheme, thetas, couplings
        )

    @pytest.mark.parametrize("length", [1e-2, 1.0, 73.2])
    @pytest.mark.parametrize("name,couplings", EM_CASES)
    def test_em_grid_equals_point_path(self, name, couplings, length):
        g = Geometry(length)
        thetas = golden_thetas()
        scheme = RegScheme.zeta()
        columns = limits_lab.density_columns(g, FieldModel.EM, scheme, thetas, couplings)
        assert grid_rows(columns) == point_columns(g, FieldModel.EM, scheme, thetas, couplings)

    def test_cutoff_grid_includes_the_walls(self):
        g = Geometry(2.0)
        scheme = RegScheme.cutoff(0.05)
        thetas = np.array([0.0, 1e-12, 1.0, math.pi - 1e-12, math.pi])
        columns = limits_lab.density_columns(g, FieldModel.SCALAR, scheme, thetas)
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


class TestGridValidation:
    G = Geometry(1.0)

    def columns(self, model, scheme, thetas, couplings=None):
        return limits_lab.density_columns(self.G, model, scheme, thetas, couplings)

    @pytest.mark.parametrize("bad", [-1e-9, math.pi + 1e-9, float("nan"), float("inf")])
    def test_outside_the_interval(self, bad):
        for model in FieldModel:
            with pytest.raises(DomainError):
                self.columns(model, RegScheme.zeta(), [0.5, bad, 1.0])

    def test_outside_after_a_cutoff_wall(self):
        with pytest.raises(DomainError):
            self.columns(FieldModel.SCALAR, RegScheme.cutoff(0.1), [0.0, 1.0, 4.0])

    @pytest.mark.parametrize("wall", [0.0, math.pi])
    def test_walls_where_the_density_diverges(self, wall):
        thetas = [1.0, wall]
        with pytest.raises(SingularityError):
            self.columns(FieldModel.SCALAR, RegScheme.zeta(), thetas)
        with pytest.raises(SingularityError):
            self.columns(FieldModel.EM, RegScheme.zeta(), thetas)
        with pytest.raises(SingularityError):
            self.columns(
                FieldModel.SCALAR, RegScheme.cutoff(0.1), thetas, Couplings(0.01, 1.0)
            )

    def test_em_rejects_the_cutoff_scheme(self):
        with pytest.raises(DomainError):
            self.columns(FieldModel.EM, RegScheme.cutoff(0.1), [1.0])

    def test_em_cancellation_guard(self, monkeypatch):
        # A free density off by 1e-6 must trip the vectorised guard just
        # as it trips the point path.
        exact = em3d.free_casimir_density
        monkeypatch.setattr(em3d, "free_casimir_density", lambda g: exact(g) * (1.0 + 1e-6))
        with pytest.raises(PlatevacError, match="cancellation"):
            em3d.correlators(self.G, Position.from_theta(1.0, self.G))
        with pytest.raises(PlatevacError, match="cancellation"):
            self.columns(FieldModel.EM, RegScheme.zeta(), [0.5, 1.0, 1.5])


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


class TestDensityCommandBytes:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("cluster", ["uniform", "endpoints"])
    @pytest.mark.parametrize("model,epsilon,alpha", CLI_CASES)
    def test_bytes_equal_the_point_loop(self, model, epsilon, alpha, cluster, fmt):
        length, mass, count = 0.37, 1.9, 1001
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

    def test_one_validity_warning_per_grid(self):
        # alpha / (m L)^2 = 0.5 > 0.1
        argv = ["density", "--alpha", "0.5", "--mass", "1", "--grid", "10001"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run_main(argv)
        assert [w.category for w in caught] == [ValidityWarning]


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
