import ast
import inspect
import json
import math
import operator
import pathlib
import random
import warnings

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from platevac import em3d, limits_lab, regsum, scalar1d
from platevac.errors import DomainError, FitError
from platevac.geometry import Geometry, Position, window_integral
from platevac.limits_lab import (
    Clustering,
    CommutationModel,
    DensityProfile,
    Endpoint,
    GridSpec,
)
from platevac.regsum import RegScheme
from platevac.scalar1d import Couplings, EnergySplit, ValidityWarning

G1 = Geometry(1.0)

FREE_DELTAS = [0.02, 0.01, 0.005, 0.0025]
FREE_EPSILONS = [1e-3, 5e-4, 2.5e-4]
INTERACTING_EPSILONS = [0.04, 0.02, 0.01, 0.005]


def eh_density_source(g, p, _scheme, c=em3d.EhCouplings()):
    return em3d.eh_correction_density(g, p, c)


class TestGrids:
    def test_uniform_grid_hits_midpoint(self):
        grid = limits_lab.theta_grid(GridSpec(101))
        assert len(grid) == 101
        assert grid[50] == pytest.approx(math.pi / 2, rel=1e-15)
        assert 0.0 < grid[0] and grid[-1] < math.pi

    def test_clustered_grid_is_interior_and_increasing(self):
        grid = limits_lab.theta_grid(GridSpec(64, Clustering.ENDPOINTS))
        assert all(b > a for a, b in zip(grid, grid[1:]))
        assert 0.0 < grid[0] and grid[-1] < math.pi
        uniform = limits_lab.theta_grid(GridSpec(64))
        assert grid[0] < uniform[0]  # clustered toward the walls

    def test_single_point_grid_rejected(self):
        with pytest.raises(DomainError):
            GridSpec(1)


class TestSampleProfile:
    def test_scalar_profile_midpoint(self):
        profile = limits_lab.sample_profile(
            scalar1d.density_split, G1, RegScheme.zeta(), GridSpec(101)
        )
        assert profile.values[50].electric == pytest.approx(math.pi / 24.0, rel=1e-12)

    def test_em_profile_is_constant(self):
        profile = limits_lab.sample_profile(
            em3d.density_split, G1, RegScheme.zeta(), GridSpec(101)
        )
        exact = em3d.free_casimir_density(G1)
        for split in profile.values:
            assert split.total == pytest.approx(exact, rel=1e-8)

    def test_scalar_valued_source_is_wrapped(self):
        profile = limits_lab.sample_profile(
            eh_density_source, G1, RegScheme.zeta(), GridSpec(11)
        )
        assert all(v.magnetic == 0.0 for v in profile.values)

    def test_deterministic(self):
        a = limits_lab.sample_profile(scalar1d.density_split, G1, RegScheme.zeta(), GridSpec(21))
        b = limits_lab.sample_profile(scalar1d.density_split, G1, RegScheme.zeta(), GridSpec(21))
        assert a.grid == b.grid
        assert all(x.total == y.total for x, y in zip(a.values, b.values))

    def test_profile_invariants(self):
        with pytest.raises(DomainError):
            DensityProfile(
                g=G1,
                scheme=RegScheme.zeta(),
                grid=(0.2, 0.1),
                values=(
                    EnergySplit.from_parts(0.0, 0.0),
                    EnergySplit.from_parts(0.0, 0.0),
                ),
            )
        with pytest.raises(DomainError):
            DensityProfile(
                g=G1, scheme=RegScheme.zeta(), grid=(0.1, 0.2),
                values=(EnergySplit.from_parts(0.0, 0.0),),
            )

    @pytest.mark.parametrize("grid", [(0.0, 1.0), (1.0, math.pi), (0.0, math.pi)])
    def test_zeta_grid_stays_inside_the_walls(self, grid):
        values = (EnergySplit.from_parts(0.0, 0.0),) * 2
        with pytest.raises(DomainError, match=r"^zeta-scheme grids must stay strictly inside"):
            DensityProfile(g=G1, scheme=RegScheme.zeta(), grid=grid, values=values)
        # the cutoff density is finite at the walls
        DensityProfile(g=G1, scheme=RegScheme.cutoff(0.1), grid=grid, values=values)

    def test_values_compare_unequal_to_a_list(self):
        profile = limits_lab.sample_profile(
            scalar1d.density_split, G1, RegScheme.zeta(), GridSpec(3))
        assert profile.values.__eq__(list(profile.values)) is NotImplemented
        assert (profile.values == list(profile.values)) is False
        assert profile.values == tuple(profile.values)


class TestFitDivergence:
    SPEC = GridSpec(200, Clustering.ENDPOINTS)

    def test_scalar_electric_exponent(self):
        profile = limits_lab.sample_profile(scalar1d.density_split, G1, RegScheme.zeta(), self.SPEC)
        fit = limits_lab.fit_divergence(
            profile, Endpoint.LEFT, component="electric", constant_part=-math.pi / 48.0
        )
        assert fit.exponent == pytest.approx(-2.0, abs=0.02)
        assert fit.conclusive

    def test_em_correlator_exponent(self):
        profile = limits_lab.sample_profile(
            lambda g, p, _s: em3d.correlators(g, p).e2, G1, RegScheme.zeta(), self.SPEC
        )
        fit = limits_lab.fit_divergence(
            profile, Endpoint.LEFT, component="electric",
            constant_part=-math.pi ** 2 / (16.0 * 45.0),
        )
        assert fit.exponent == pytest.approx(-4.0, abs=0.02)

    def test_eh_correction_exponent(self):
        c = em3d.EhCouplings()
        profile = limits_lab.sample_profile(eh_density_source, G1, RegScheme.zeta(), self.SPEC)
        fit = limits_lab.fit_divergence(
            profile, Endpoint.LEFT, component="electric",
            constant_part=em3d.eh_correction_constant(G1, c),
        )
        assert fit.exponent == pytest.approx(-8.0, abs=0.1)

    def test_right_endpoint_matches_left(self):
        profile = limits_lab.sample_profile(scalar1d.density_split, G1, RegScheme.zeta(), self.SPEC)
        left = limits_lab.fit_divergence(
            profile, Endpoint.LEFT, component="electric", constant_part=-math.pi / 48.0
        )
        right = limits_lab.fit_divergence(
            profile, Endpoint.RIGHT, component="electric", constant_part=-math.pi / 48.0
        )
        assert left.exponent == pytest.approx(right.exponent, abs=1e-6)

    def test_default_constant_uses_midpoint(self):
        profile = limits_lab.sample_profile(scalar1d.density_split, G1, RegScheme.zeta(), self.SPEC)
        fit = limits_lab.fit_divergence(profile, Endpoint.LEFT, component="electric")
        assert fit.exponent == pytest.approx(-2.0, abs=0.02)

    def test_window_halving_stability(self):
        profile = limits_lab.sample_profile(
            scalar1d.density_split, G1, RegScheme.zeta(), GridSpec(400, Clustering.ENDPOINTS)
        )
        wide = limits_lab.fit_divergence(
            profile, Endpoint.LEFT, component="electric",
            constant_part=-math.pi / 48.0, n_points=6, window=0.1,
        )
        narrow = limits_lab.fit_divergence(
            profile, Endpoint.LEFT, component="electric",
            constant_part=-math.pi / 48.0, n_points=6, window=0.05,
        )
        assert abs(wide.exponent - narrow.exponent) < 0.05

    def test_window_stays_on_its_half(self):
        # GridSpec(2) holds pi/3 and 2 pi/3, one sample per half: a fit at
        # the left wall must not borrow the right wall's mirror sample.
        profile = limits_lab.sample_profile(
            scalar1d.density_split, G1, RegScheme.zeta(), GridSpec(2)
        )
        for endpoint in (Endpoint.LEFT, Endpoint.RIGHT):
            with pytest.raises(FitError):
                limits_lab.fit_divergence(
                    profile, endpoint, component="electric",
                    constant_part=-math.pi / 48.0, n_points=2,
                )

    @pytest.mark.parametrize("n_points", [1, 0, -3])
    def test_fewer_than_two_points_rejected(self, n_points):
        profile = limits_lab.sample_profile(scalar1d.density_split, G1, RegScheme.zeta(), self.SPEC)
        with pytest.raises(DomainError, match=rf"^n_points must be >= 2, got {n_points}$"):
            limits_lab.fit_divergence(profile, Endpoint.LEFT, n_points=n_points)

    def test_all_zero_residuals_diagnosed(self):
        profile = limits_lab.sample_profile(
            lambda g, p, _s: 1.0, G1, RegScheme.zeta(), GridSpec(16)
        )
        with pytest.raises(FitError):
            limits_lab.fit_divergence(
                profile, Endpoint.LEFT, component="electric", constant_part=1.0
            )


def numpy_fit_divergence(profile, endpoint, component="total", constant_part=None,
                         n_points=4, window=None):
    # fit_divergence as it was written with numpy arrays, kept as the
    # reference the plain-float fit must equal bit for bit.
    if n_points < 2:
        raise DomainError(f"n_points must be >= 2, got {n_points}")
    values = profile.component(component)
    grid = np.array(profile.grid)
    if constant_part is None:
        constant_part = float(values[int(np.argmin(np.abs(grid - 0.5 * math.pi)))])
    residual = np.abs(values - constant_part)
    order = np.argsort(grid) if endpoint is Endpoint.LEFT else np.argsort(-grid)
    reach = 0.5 * math.pi if window is None else min(window, 0.5 * math.pi)
    chosen = []
    for idx in order:
        theta = grid[idx]
        distance = theta if endpoint is Endpoint.LEFT else math.pi - theta
        if distance > reach:
            break
        if residual[idx] > 0.0:
            chosen.append(int(idx))
        if len(chosen) == n_points:
            break
    if len(chosen) < n_points:
        raise FitError(
            f"only {len(chosen)} usable residuals available near the "
            f"{endpoint.value} endpoint; the rest vanish and cannot be logged"
        )
    x = np.log(np.sin(grid[chosen]))
    y = np.log(residual[chosen])
    slope, intercept, r_squared = limits_lab._log_log_fit(x.tolist(), y.tolist())
    thetas = grid[chosen]
    return limits_lab.DivergenceFit(
        exponent=slope,
        amplitude=math.exp(intercept),
        r_squared=r_squared,
        window=(float(thetas.min()), float(thetas.max())),
        n_points=len(chosen),
    )


def fit_bits(fit, *args, **kwargs):
    """A fit's every bit, or its FitError message."""
    try:
        result = fit(*args, **kwargs)
    except FitError as exc:
        return "FitError", str(exc)
    return (result.exponent.hex(), result.amplitude.hex(), result.r_squared.hex(),
            *(t.hex() for t in result.window), result.n_points)


def electric_profile_and_constant(model, cluster, length, count):
    g = Geometry(length)
    if model == "scalar":
        source, constant = scalar1d.density_split, -math.pi / (48.0 * length ** 2)
    else:
        source, constant = em3d.density_split, -math.pi ** 2 / (1440.0 * length ** 4)
    return limits_lab.sample_profile(source, g, RegScheme.zeta(), GridSpec(count, cluster)), constant


class TestFitDivergenceBits:
    """The plain-float fit equals the numpy reference in every bit."""

    def assert_fits_equal(self, profile, **kwargs):
        assert fit_bits(limits_lab.fit_divergence, profile, **kwargs) == fit_bits(
            numpy_fit_divergence, profile, **kwargs
        ), kwargs

    @pytest.mark.parametrize("count", [200, 2001, 10001])
    @pytest.mark.parametrize("length", [0.01, 1.0, 73.0])
    @pytest.mark.parametrize("cluster", list(Clustering))
    @pytest.mark.parametrize("model", ["scalar", "em"])
    def test_equals_the_numpy_fit(self, model, cluster, length, count):
        profile, constant = electric_profile_and_constant(model, cluster, length, count)
        for endpoint in Endpoint:
            for given in (None, constant):
                for settings in ({}, {"n_points": 6, "window": 0.1}):
                    self.assert_fits_equal(
                        profile, endpoint=endpoint, component="electric",
                        constant_part=given, **settings,
                    )

    @pytest.mark.parametrize("count", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("cluster", list(Clustering))
    @pytest.mark.parametrize("model", ["scalar", "em"])
    def test_small_grids_with_two_points(self, model, cluster, count):
        # The default constant on these grids sits at or next to pi/2, and
        # a half may hold fewer than two usable samples (FitError).
        profile, constant = electric_profile_and_constant(model, cluster, 1.0, count)
        for endpoint in Endpoint:
            for given in (None, constant):
                self.assert_fits_equal(
                    profile, endpoint=endpoint, component="electric",
                    constant_part=given, n_points=2,
                )

    def test_nan_sample_at_the_wall_is_skipped(self):
        grid = limits_lab.theta_grid(GridSpec(200, Clustering.ENDPOINTS))
        electric = [1.0 / math.sin(t) ** 2 for t in grid]
        electric[0] = math.nan
        profile = DensityProfile(g=G1, scheme=RegScheme.zeta(), grid=grid,
                                 values=tuple(EnergySplit.from_parts(e, 0.0) for e in electric))
        fit = limits_lab.fit_divergence(profile, Endpoint.LEFT, component="electric",
                                        constant_part=0.0)
        assert fit.window[0] == grid[1] and fit.n_points == 4
        assert fit.exponent == pytest.approx(-2.0, abs=1e-9)
        self.assert_fits_equal(profile, endpoint=Endpoint.LEFT, component="electric",
                               constant_part=0.0)

    def test_nan_profile_reads_back(self):
        # A stored non-finite sample is read, compared and hashed without error.
        profile = DensityProfile(
            g=G1, scheme=RegScheme.zeta(), grid=(0.1, 0.2),
            values=tuple(EnergySplit.from_parts(e, 0.0) for e in [math.nan, 1.0]),
        )
        values = list(profile.values)
        assert math.isnan(values[0].electric) and math.isnan(profile.values[0].total)
        assert values[1] == EnergySplit.from_parts(1.0, 0.0)
        hash(profile.values)
        assert profile.values != tuple(values)  # nan != nan

    def test_tie_nearest_pi_over_2_goes_to_the_lower_index(self):
        # theta - pi/2 rounds to -pi/2 for all three angles: the default
        # constant is the first sample's, so its residual is the zero one.
        profile = DensityProfile(
            g=G1, scheme=RegScheme.cutoff(0.1), grid=(1e-20, 2e-20, 3e-20),
            values=tuple(EnergySplit.from_parts(e, 0.0) for e in [1.0, 2.0, 4.0]),
        )
        fit = limits_lab.fit_divergence(profile, Endpoint.LEFT, component="electric",
                                        n_points=2)
        assert fit.window == (2e-20, 3e-20)
        self.assert_fits_equal(profile, endpoint=Endpoint.LEFT, component="electric",
                               n_points=2)


def point_by_point(source):
    # Any callable other than the library's density_split is sampled point
    # by point, so this wrapper gives the per-point reference profile.
    return lambda g, pos, scheme: source(g, pos, scheme)


def fit_outcome(profile, endpoint, constant):
    try:
        return limits_lab.fit_divergence(
            profile, endpoint, component="electric", constant_part=constant
        )
    except FitError as exc:
        return repr(exc)


class TestColumnsProfile:
    """sample_profile evaluates the library's density_split as columns."""

    @pytest.mark.parametrize("count", [2, 200, 10001])
    @pytest.mark.parametrize("length", [1e-2, 1.0, 73.2])
    @pytest.mark.parametrize("cluster", list(Clustering))
    @pytest.mark.parametrize("model", ["scalar", "em"])
    def test_equals_the_point_loop(self, model, cluster, length, count):
        g = Geometry(length)
        if model == "scalar":
            source, constant = scalar1d.density_split, -math.pi / (48.0 * length ** 2)
        else:
            source, constant = em3d.density_split, -math.pi ** 2 / (1440.0 * length ** 4)
        spec = GridSpec(count, cluster)
        columns = limits_lab.sample_profile(source, g, RegScheme.zeta(), spec)
        points = limits_lab.sample_profile(point_by_point(source), g, RegScheme.zeta(), spec)
        # repr and tobytes tell -0.0 from 0.0 and show every bit.
        assert columns.grid == points.grid
        for name in ("electric", "magnetic", "total"):
            assert columns.component(name).tobytes() == points.component(name).tobytes()
        assert len(columns.values) == count
        for i in range(count):
            assert repr(columns.values[i]) == repr(points.values[i]), i
        for endpoint in Endpoint:
            for given in (None, constant):
                assert repr(fit_outcome(columns, endpoint, given)) == repr(
                    fit_outcome(points, endpoint, given)
                )

    def test_cutoff_scheme_equals_the_point_loop(self):
        spec = GridSpec(2001, Clustering.ENDPOINTS)
        scheme = RegScheme.cutoff(3.7e-4)
        columns = limits_lab.sample_profile(scalar1d.density_split, G1, scheme, spec)
        points = limits_lab.sample_profile(
            point_by_point(scalar1d.density_split), G1, scheme, spec
        )
        assert repr(columns.values) == repr(points.values)

    def test_em_cutoff_scheme_rejected(self):
        with pytest.raises(DomainError):
            limits_lab.sample_profile(em3d.density_split, G1, RegScheme.cutoff(0.01), GridSpec(5))

    @pytest.mark.parametrize("source", [scalar1d.density_split, em3d.density_split])
    def test_repr_and_equality_repeat(self, source):
        spec = GridSpec(201, Clustering.ENDPOINTS)
        a = limits_lab.sample_profile(source, G1, RegScheme.zeta(), spec)
        b = limits_lab.sample_profile(source, G1, RegScheme.zeta(), spec)
        points = limits_lab.sample_profile(point_by_point(source), G1, RegScheme.zeta(), spec)
        assert a == b and repr(a) == repr(b) and hash(a) == hash(b)
        # the same text as a profile built from EnergySplit values
        assert repr(a) == repr(points) and a == points
        assert "EnergySplit(electric=" in repr(a) and " at 0x" not in repr(a)
        assert a != limits_lab.sample_profile(source, Geometry(2.0), RegScheme.zeta(), spec)

    def test_values_is_a_sequence_of_splits(self):
        profile = limits_lab.sample_profile(
            scalar1d.density_split, G1, RegScheme.zeta(), GridSpec(11)
        )
        values = profile.values
        splits = [values[i] for i in range(len(values))]
        assert all(isinstance(v, EnergySplit) for v in splits)
        assert list(values) == splits and tuple(values) == values
        assert values[-1] == splits[-1] and values[-11] == splits[0]
        assert values[2:5] == tuple(splits[2:5])
        assert type(values[0].electric) is float
        for index in (11, -12):
            with pytest.raises(IndexError):
                values[index]

    def test_component_is_read_only(self):
        for source in (scalar1d.density_split, eh_density_source):
            profile = limits_lab.sample_profile(source, G1, RegScheme.zeta(), GridSpec(11))
            column = profile.component("electric")
            assert column is profile.component("electric")
            assert not column.flags.writeable
            with pytest.raises(ValueError):
                column[0] = 0.0

    def test_unknown_component_rejected(self):
        profile = limits_lab.sample_profile(
            scalar1d.density_split, G1, RegScheme.zeta(), GridSpec(11)
        )
        with pytest.raises(DomainError):
            profile.component("z")

    @pytest.mark.parametrize(
        "grid", [(0.1, math.nan), (math.nan, 0.2), (0.1, math.nan, 0.3), (0.1, 0.1, 0.3)]
    )
    def test_grid_with_nan_or_repeat_rejected(self, grid):
        splits = tuple(EnergySplit.from_parts(0.0, 0.0) for _ in grid)
        with pytest.raises(DomainError, match="strictly increasing"):
            DensityProfile(g=G1, scheme=RegScheme.zeta(), grid=grid, values=splits)

    @pytest.mark.parametrize("count", [1, 2, 10001])
    @pytest.mark.parametrize("source", [scalar1d.density_split, em3d.density_split])
    def test_repr_is_the_tuple_repr(self, source, count):
        if count == 1:
            split = source(G1, Position.from_theta(0.3, G1), RegScheme.zeta())
            profile = DensityProfile(
                g=G1, scheme=RegScheme.zeta(), grid=(0.3,), values=(split,)
            )
        else:
            spec = GridSpec(count, Clustering.ENDPOINTS)
            profile = limits_lab.sample_profile(source, G1, RegScheme.zeta(), spec)
        assert repr(profile.values) == repr(tuple(profile.values))

    def test_constructed_profile_stores_its_splits(self):
        splits = (EnergySplit.from_parts(1.0, -0.5), EnergySplit.from_parts(-2.0, 0.25))
        profile = DensityProfile(g=G1, scheme=RegScheme.zeta(), grid=(0.1, 0.2), values=splits)
        assert profile.values == splits and list(profile.values) == list(splits)
        assert profile.component("total").tolist() == [0.5, -1.75]
        assert repr(profile.values) == repr(splits)


class TestEpsilonExpansionCheck:
    def test_interior_slopes(self):
        fits = limits_lab.epsilon_expansion_check([0.5, 1.0, 2.0], [0.04, 0.02, 0.01])
        for fit in fits:
            assert fit.slope == pytest.approx(4.0, abs=0.1)
            assert not fit.breakdown

    def test_right_angle_slope_survives_vanishing_coefficient(self):
        fit = limits_lab.epsilon_expansion_check([math.pi / 2], [0.04, 0.02, 0.01])[0]
        assert fit.slope == pytest.approx(4.0, abs=0.1)

    def test_breakdown_region_flagged(self):
        fit = limits_lab.epsilon_expansion_check([0.005], [0.04, 0.02, 0.01])[0]
        assert fit.breakdown

    def test_requires_geometric_ratio_two(self):
        with pytest.raises(DomainError):
            limits_lab.epsilon_expansion_check([1.0], [0.04, 0.02, 0.013])
        with pytest.raises(DomainError):
            limits_lab.epsilon_expansion_check([1.0], [0.04, 0.02])


class TestCommutationReport:
    def test_free_scalar(self):
        report = limits_lab.commutation_report(
            G1, CommutationModel.FREE_SCALAR, deltas=FREE_DELTAS, epsilons=FREE_EPSILONS
        )
        assert report.sum_then_regularize == pytest.approx(-math.pi / 24.0, rel=1e-12)
        # The fit reads the divergent estimates (-1.0006), not the partial
        # totals, which mix in the finite part (-1.0139).
        assert report.window_fit_exponent == pytest.approx(-1.0, abs=0.004)
        assert report.cutoff_spread < 1e-8
        assert report.verdict.agrees
        assert report.verdict.difference < 1e-7 * abs(report.sum_then_regularize)

    def test_free_scalar_window_monotone(self):
        report = limits_lab.commutation_report(
            G1, CommutationModel.FREE_SCALAR, deltas=FREE_DELTAS, epsilons=FREE_EPSILONS
        )
        partials = [r.partial_total for r in report.window_rows]
        # deltas decrease along the rows, the window integrals grow
        assert all(b > a for a, b in zip(partials, partials[1:]))

    def test_interacting_scalar(self):
        c = Couplings(alpha=0.01, m=10.0)
        report = limits_lab.commutation_report(
            G1,
            CommutationModel.INTERACTING_SCALAR,
            deltas=FREE_DELTAS,
            epsilons=INTERACTING_EPSILONS,
            couplings=c,
        )
        expected = -math.pi / 24.0 - 0.01 * math.pi ** 2 / 14400.0
        assert report.sum_then_regularize == pytest.approx(expected, rel=1e-12)
        assert report.sum_then_regularize == pytest.approx(-0.13090655, abs=5e-9)
        assert report.window_fit_exponent == pytest.approx(-3.0, abs=0.004)  # partials: -2.642
        assert report.verdict.agrees
        assert report.verdict.difference < 1e-7 * abs(report.sum_then_regularize)
        assert report.notes  # measured construction is flagged

    def test_free_window_estimates_track_partials(self):
        report = limits_lab.commutation_report(
            G1, CommutationModel.FREE_SCALAR, deltas=FREE_DELTAS, epsilons=FREE_EPSILONS
        )
        for row in report.window_rows:
            # the cot term dominates the window integral near delta -> 0
            assert row.partial_total == pytest.approx(
                row.divergent_estimate, rel=0.05
            )

    def test_report_serializes(self):
        report = limits_lab.commutation_report(
            G1, CommutationModel.FREE_SCALAR, deltas=FREE_DELTAS, epsilons=FREE_EPSILONS
        )
        payload = report.to_dict()
        text = json.dumps(payload)
        again = json.loads(text)
        assert again["verdict"]["agrees"] is True
        assert len(again["integrate_then_regularize"]) == len(FREE_DELTAS)
        assert len(again["cutoff_full_interval"]) == len(FREE_EPSILONS)

    def test_validation(self):
        with pytest.raises(DomainError):
            limits_lab.commutation_report(
                G1, CommutationModel.FREE_SCALAR, deltas=[0.01, 0.02], epsilons=FREE_EPSILONS
            )
        with pytest.raises(DomainError):
            limits_lab.commutation_report(
                G1, CommutationModel.FREE_SCALAR, deltas=[0.6], epsilons=FREE_EPSILONS
            )
        with pytest.raises(DomainError):
            limits_lab.commutation_report(
                G1, CommutationModel.FREE_SCALAR, deltas=FREE_DELTAS, epsilons=[0.1, -0.05]
            )
        with pytest.raises(DomainError):
            limits_lab.commutation_report(
                G1, CommutationModel.INTERACTING_SCALAR, deltas=FREE_DELTAS,
                epsilons=INTERACTING_EPSILONS,
            )


    def test_epsilon_ladder_must_be_geometric(self):
        # Decreasing but not geometric: the ladder check rejects it with the
        # relative 1e-9 ratio test of richardson_extrapolate.
        with pytest.raises(
            DomainError, match="^epsilons must form a geometric sequence; ratios 1.5 and 4.0 differ$"
        ):
            limits_lab._ladder("epsilon", [0.003, 0.002, 0.0005], G1)
        ratio = 2.0 * (1.0 + 5e-10)  # within 1e-9 of 2: accepted
        assert limits_lab._ladder("epsilon", [1e-3, 5e-4, 5e-4 / ratio], G1)
        assert limits_lab._ladder("delta", [0.02, 0.01, 0.0005], G1)  # deltas are not

    def test_verdict_tolerance_is_fixed(self):
        report = limits_lab.commutation_report(
            G1, CommutationModel.FREE_SCALAR, deltas=FREE_DELTAS, epsilons=FREE_EPSILONS
        )
        assert report.verdict.tolerance == 1e-7
        assert "tolerance" not in inspect.signature(limits_lab.commutation_report).parameters


class TestCommutationModels:
    """A commutation model is one entry of limits_lab._MODELS, read by one report path."""

    def test_every_model_has_one_entry(self):
        assert list(limits_lab._MODELS) == list(CommutationModel)
        assert all(len(entry) == 6 for entry in limits_lab._MODELS.values())
        # Slot (b) is data: the window geometry.window_integral integrates.
        assert [entry[1] for entry in limits_lab._MODELS.values()] == [
            scalar1d.ELECTRIC_WINDOW, scalar1d.INTERACTING_WINDOW]

    def test_a_strong_coupling_warns_once_per_report(self):
        # Through its (a) total; the window is model data and does not warn.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            limits_lab.commutation_report(
                G1, CommutationModel.INTERACTING_SCALAR, deltas=FREE_DELTAS,
                epsilons=INTERACTING_EPSILONS, couplings=Couplings(alpha=1.0, m=1.0))
        assert [w.category for w in caught] == [ValidityWarning]

    def test_report_does_not_branch_on_the_model(self):
        source = inspect.getsource(limits_lab.commutation_report)
        body = ast.parse(source).body[0].body
        nodes = [node for stmt in body for node in ast.walk(stmt)]
        names = {node.id for node in nodes if isinstance(node, ast.Name)}
        assert "CommutationModel" not in names and "interacting" not in names
        branches = [node.test for node in nodes if isinstance(node, (ast.If, ast.IfExp, ast.While))]
        branches += [node.subject for node in nodes if isinstance(node, ast.Match)]
        branches += [node for node in nodes if isinstance(node, (ast.Compare, ast.BoolOp))]
        on_model = [ast.unparse(node) for node in branches
                    if "model" in {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}]
        assert on_model == []
        # The model is read as the key of its entry, and named in the report.
        uses = {ast.unparse(node) for node in nodes for child in ast.iter_child_nodes(node)
                if isinstance(child, ast.Name) and child.id == "model"}
        assert uses == {"_MODELS[model]", "model.value"}

    def test_no_divergence_to_fit_at_zero_alpha(self):
        report = limits_lab.commutation_report(
            G1, CommutationModel.INTERACTING_SCALAR, deltas=FREE_DELTAS,
            epsilons=INTERACTING_EPSILONS, couplings=Couplings(alpha=0.0, m=1.0),
        )
        assert all(row.divergent_estimate == 0.0 for row in report.window_rows)
        assert (report.window_fit_exponent, report.window_fit_r_squared) == (None, None)
        assert report.to_dict()["window_fit"] == {"exponent": None, "r_squared": None}
        assert report.verdict.agrees

    def test_window_constant_is_the_total_to_the_bit(self):
        # Each window row is (a) times 1 - 2 delta / L plus its divergent part,
        # with (a)'s bits.  A window constant formed with a rounded 1/18, where
        # the total takes a rounded 1/144, differs in 128 of these 20,000 draws
        # (L, alpha/(m L)^2 and m log-uniform).
        rng = random.Random(20000)

        def log_uniform(lo, hi):
            return math.exp(rng.uniform(math.log(lo), math.log(hi)))

        off = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ValidityWarning)
            for _ in range(20000):
                length, m, ratio = log_uniform(1e-3, 1e3), log_uniform(0.1, 10.0), log_uniform(1e-4, 1e2)
                c = Couplings(alpha=ratio * (m * length) ** 2, m=m)
                report = limits_lab.commutation_report(
                    Geometry(length), CommutationModel.INTERACTING_SCALAR,
                    deltas=[0.25 * length, 0.125 * length], epsilons=[1e-3], couplings=c,
                )
                total = report.sum_then_regularize
                assert total == scalar1d.interacting_total_energy(Geometry(length), c)
                off += [(length, c) for row in report.window_rows if row.partial_total != (
                    1.0 - 2.0 * row.delta / length) * total + row.divergent_estimate]
        assert off == []


def mp_least_squares(x, y):
    """Slope, intercept and r^2 of the least-squares line, to 50 digits."""
    with mpmath.workdps(50):
        x = [mpmath.mpf(v) for v in x]
        y = [mpmath.mpf(v) for v in y]
        x_mean, y_mean = mpmath.fsum(x) / len(x), mpmath.fsum(y) / len(y)
        sxx = mpmath.fsum((a - x_mean) ** 2 for a in x)
        sxy = mpmath.fsum((a - x_mean) * (b - y_mean) for a, b in zip(x, y))
        slope = sxy / sxx
        intercept = y_mean - slope * x_mean
        ss_res = mpmath.fsum((b - slope * a - intercept) ** 2 for a, b in zip(x, y))
        ss_tot = mpmath.fsum((b - y_mean) ** 2 for b in y)
        return float(slope), float(intercept), float(1 - ss_res / ss_tot)


def window_ladder_points(model, couplings=None):
    report = limits_lab.commutation_report(
        G1, model, deltas=FREE_DELTAS, epsilons=FREE_EPSILONS, couplings=couplings
    )
    x = [math.log(r.delta) for r in report.window_rows]
    y = [math.log(abs(r.divergent_estimate)) for r in report.window_rows]
    assert limits_lab._log_log_fit(x, y)[0] == report.window_fit_exponent
    return x, y


def expansion_residual_points(theta=1.0, eps_list=(0.04, 0.02, 0.01)):
    limit = regsum.abel_sum_sin_limit(theta)
    quadratic = 0.125 * math.cos(theta) / math.sin(theta) ** 3
    x = [math.log(e) for e in eps_list]
    y = [
        math.log(abs(regsum.abel_sum_sin(e, theta) - limit + quadratic * e * e))
        for e in eps_list
    ]
    return x, y


def divergence_window_points():
    # The 4 samples fit_divergence takes at the left wall of this profile.
    profile = limits_lab.sample_profile(
        scalar1d.density_split, G1, RegScheme.zeta(), GridSpec(200, Clustering.ENDPOINTS)
    )
    x = [math.log(math.sin(t)) for t in profile.grid[:4]]
    y = [math.log(abs(v.electric + math.pi / 48.0)) for v in profile.values[:4]]
    return x, y


class TestLogLogFit:
    @pytest.mark.parametrize(
        "points",
        [
            lambda: window_ladder_points(CommutationModel.FREE_SCALAR),
            lambda: window_ladder_points(
                CommutationModel.INTERACTING_SCALAR, Couplings(alpha=0.01, m=10.0)
            ),
            expansion_residual_points,
            divergence_window_points,
        ],
        ids=["free_window", "interacting_window", "expansion_residual", "divergence_window"],
    )
    def test_against_mpmath(self, points):
        x, y = points()
        fitted = limits_lab._log_log_fit(x, y)
        for value, exact in zip(fitted, mp_least_squares(x, y)):
            assert value == pytest.approx(exact, rel=1e-14)

    def test_equal_abscissae_diagnosed(self):
        # Two deltas one ulp apart near 1e299 have the same logarithm.
        with pytest.raises(FitError):
            limits_lab.commutation_report(
                Geometry(1e300), CommutationModel.FREE_SCALAR,
                deltas=[1e299, 9.999999999999999e298], epsilons=FREE_EPSILONS,
            )


def weak_couplings(length, m=10.0):
    # alpha/(m L)^2 = 0.01 at every L: inside the validity regime, and the
    # interaction keeps the same relative weight across length scales
    return Couplings(alpha=0.01 * (m * length) ** 2, m=m)


def interacting_window(g, c, delta):
    # The interacting model's window at one delta, with the total the report passes it.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ValidityWarning)
        total = scalar1d.interacting_total_energy(g, c)
    return window_integral(scalar1d.INTERACTING_WINDOW, g.length, c, (total, 0), delta)


class TestInteractingWindow:
    @staticmethod
    def mp_window(delta, length, c):
        # antiderivative of -pi/(24 L^2) + P (1/18 + csc^4), P = -alpha pi^2/(8 m^2 L^4),
        # using int csc^4 = -cot - cot^3/3, taken between the window ends in 50 digits
        with mpmath.workdps(50):
            L, d = mpmath.mpf(length), mpmath.mpf(delta)
            p = -mpmath.mpf(c.alpha) * mpmath.pi ** 2 / (8 * mpmath.mpf(c.m) ** 2 * L ** 4)

            def antiderivative(z):
                ct = mpmath.cot(mpmath.pi * z / L)
                return (-mpmath.pi / (24 * L ** 2) + p / 18) * z + p * (L / mpmath.pi) * (
                    -ct - ct ** 3 / 3
                )

            return antiderivative(L - d) - antiderivative(d)

    @pytest.mark.parametrize("length", [1e-2, 1.0, 1e2])
    @pytest.mark.parametrize("fraction", [1e-8, 1e-6, 0.49])
    def test_against_mpmath_down_to_deep_margins(self, length, fraction):
        c = weak_couplings(length)
        delta = fraction * length
        value, _ = interacting_window(Geometry(length), c, delta)
        assert value == pytest.approx(float(self.mp_window(delta, length, c)), rel=1e-12)

    @pytest.mark.parametrize("length", [0.5, 3.0])
    @pytest.mark.parametrize("fraction", [0.01, 0.03, 0.1, 0.2])
    def test_against_quadrature(self, length, fraction):
        g = Geometry(length)
        c = weak_couplings(length)
        delta = fraction * length
        oracle, _ = quad(
            lambda z: scalar1d.interacting_density(g, Position.from_z(z, g), c),
            delta, length - delta, epsabs=1e-12, epsrel=1e-12, limit=200,
        )
        value, _ = interacting_window(g, c, delta)
        assert value == pytest.approx(oracle, rel=1e-10)

    @pytest.mark.parametrize("length, delta", [(1e102, 0.02), (1e200, 0.0025), (1.0, 1e-103)])
    def test_where_cot_cubed_overflows(self, length, delta):
        # cot(pi delta / L)^3 is past the doubles; the window integral is not.
        # mp_window's far end L - delta needs more digits than 50; by symmetry,
        # cot there is -cot(pi delta / L), so the window is taken from one end.
        c = Couplings(alpha=0.01, m=1.0)
        with mpmath.workdps(50):
            L, d = mpmath.mpf(length), mpmath.mpf(delta)
            p = -mpmath.mpf(c.alpha) * mpmath.pi ** 2 / (8 * mpmath.mpf(c.m) ** 2 * L ** 4)
            ct = mpmath.cot(mpmath.pi * d / L)
            exact = ((-mpmath.pi / (24 * L ** 2) + p / 18) * (L - 2 * d)
                     + 2 * p * (L / mpmath.pi) * (ct + ct ** 3 / 3))
        value, _ = interacting_window(Geometry(length), c, delta)
        assert value == pytest.approx(float(exact), rel=1e-12)


class TestModelPrivateNames:
    """limits_lab reads the density laws through each model's one evaluator."""

    # Validation, the two law evaluators and the EM cancellation guard.
    READ = {
        "scalar1d._warn_if_strong", "scalar1d._laws",
        "em3d._require_zeta", "em3d._laws", "em3d._check_cancellation",
    }
    # The helpers that wrote the density laws a second time in limits_lab, and
    # the law wrappers and coefficient constants that geometry.LAWS replaced.
    FOLDED = {
        "scalar1d._density_law", "scalar1d._split", "scalar1d._correction",
        "scalar1d._ZETA_MINUS_ONE", "em3d._halves_law", "em3d._halves", "em3d._profile",
        "em3d._eh", "em3d._eh_density",
        "scalar1d._interaction", "scalar1d._free_total", "scalar1d._total_law",
        "scalar1d._INTERACTION_CONSTANT", "em3d._free", "em3d._EH_NUMERATOR",
        "em3d._EH_DENOMINATOR", "em3d._EH_TOTAL_COEFF", "em3d._EH_CONSTANT",
    }

    def test_limits_lab_reads_only_the_declared_private_names(self):
        path = pathlib.Path(limits_lab.__file__)
        read = set()
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in ("scalar1d", "em3d")):
                read.add(f"{node.value.id}.{node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module in ("scalar1d", "em3d"):
                read.update(f"{node.module}.{alias.name}" for alias in node.names)
        private = {name for name in read if name.split(".")[1].startswith("_")}
        assert private == self.READ
        assert not private & self.FOLDED


class TestFloats:
    """limits_lab._Floats: each operator gives the bits of the float operation, item by item."""

    ITEMS = [0.1, -2.5, 1e300, 5e-324, -0.0, 3.0, math.pi, 7e-310]
    OTHERS = [1.7, 1e-300, -3.0, 2.0, 0.5, -1e10, 1e-8, 3.3]
    OPERATORS = [operator.add, operator.sub, operator.mul, operator.truediv, operator.gt]

    @staticmethod
    def bits(values):
        return [float(v).hex() if isinstance(v, float) else v for v in values]

    @pytest.mark.parametrize("op", OPERATORS)
    def test_against_a_list_and_a_float(self, op):
        floats = limits_lab._Floats(self.ITEMS)
        for other in (self.OTHERS, 2.75, -1e-320):
            others = other if isinstance(other, list) else [other] * len(self.ITEMS)
            expected = [op(a, b) for a, b in zip(self.ITEMS, others)]
            assert self.bits(op(floats, other)) == self.bits(expected)
            assert type(op(floats, other)) is limits_lab._Floats

    @pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul, operator.truediv])
    def test_reflected_against_a_float(self, op):
        floats = limits_lab._Floats(self.OTHERS)
        for number in (2.75, -1e-320, 1e308):
            assert self.bits(op(number, floats)) == self.bits([op(number, b) for b in self.OTHERS])

    def test_abs_and_and(self):
        floats = limits_lab._Floats(self.ITEMS)
        assert self.bits(abs(floats)) == self.bits([abs(v) for v in self.ITEMS])
        left, right = floats > 0.0, floats > 1.0
        assert left & right == [a and b for a, b in zip(left, right)]
