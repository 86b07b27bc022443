"""The value-type contract: repr bytes, equality by class and fields,
hashing, immutability, construction and pickling, for every value type."""

import copy
import pickle

import pytest

from platevac.cli import RunConfig
from platevac.em3d import FINE_STRUCTURE_ALPHA, CorrelatorPair, EhCouplings
from platevac.geometry import Clustering, FieldModel, Geometry, GridSpec, Position
from platevac.limits_lab import (
    CommutationReport,
    CutoffRow,
    DensityProfile,
    DivergenceFit,
    ExpansionFit,
    Verdict,
    WindowRow,
)
from platevac.regsum import PowerSeriesSpec, RegKind, RegScheme
from platevac.scalar1d import Couplings, EnergySplit
from platevac.verify import CheckResult

ZETA = RegScheme(RegKind.ZETA, None)
ZETA_REPR = "RegScheme(kind=<RegKind.ZETA: 'zeta'>, epsilon=None)"
SPLITS = (EnergySplit(-1.0, 0.5, -0.5), EnergySplit(-0.25, 0.125, -0.125))
SPLITS_REPR = (
    "(EnergySplit(electric=-1.0, magnetic=0.5, total=-0.5), "
    "EnergySplit(electric=-0.25, magnetic=0.125, total=-0.125))"
)
ROW = WindowRow(0.01, 2.5, 3.0)
CUT = CutoffRow(0.001, 1.5, 2.0, -0.5)
VERDICT = Verdict(True, -0.125, -0.125, 0.0, 1e-06)
ROW_REPR = "WindowRow(delta=0.01, partial_total=2.5, divergent_estimate=3.0)"
CUT_REPR = "CutoffRow(epsilon=0.001, raw_total=1.5, bulk=2.0, subtracted=-0.5)"
VERDICT_REPR = (
    "Verdict(agrees=True, sum_then_regularize=-0.125, cutoff_limit=-0.125, "
    "difference=0.0, tolerance=1e-06)"
)

# (type, fields in order, the defaulted trailing fields, repr)
CASES = [
    (GridSpec, {"count": 5, "clustering": Clustering.ENDPOINTS},
     {"clustering": Clustering.UNIFORM},
     "GridSpec(count=5, clustering=<Clustering.ENDPOINTS: 'endpoints'>)"),
    (Geometry, {"length": 2.0}, {}, "Geometry(length=2.0)"),
    (Position, {"z": 0.5, "theta": 1.5}, {}, "Position(z=0.5, theta=1.5)"),
    (RegScheme, {"kind": RegKind.ZETA, "epsilon": None}, {"epsilon": None}, ZETA_REPR),
    (PowerSeriesSpec, {"exponent": 2.0, "scale": 0.5}, {"scale": 1.0},
     "PowerSeriesSpec(exponent=2.0, scale=0.5)"),
    (Couplings, {"alpha": 0.1, "m": 2.0}, {}, "Couplings(alpha=0.1, m=2.0)"),
    (EnergySplit, {"electric": -1.0, "magnetic": 0.5, "total": -0.5}, {},
     "EnergySplit(electric=-1.0, magnetic=0.5, total=-0.5)"),
    (CorrelatorPair, {"e2": 0.25, "b2": -0.25}, {}, "CorrelatorPair(e2=0.25, b2=-0.25)"),
    (EhCouplings, {"alpha": 0.1, "m": 2.0}, {"alpha": FINE_STRUCTURE_ALPHA, "m": 1.0},
     "EhCouplings(alpha=0.1, m=2.0)"),
    (DensityProfile,
     {"g": Geometry(1.0), "scheme": ZETA, "grid": (1.0, 2.0), "values": SPLITS}, {},
     f"DensityProfile(g=Geometry(length=1.0), scheme={ZETA_REPR}, grid=(1.0, 2.0), "
     f"values={SPLITS_REPR})"),
    (DivergenceFit,
     {"exponent": -2.0, "amplitude": 0.5, "r_squared": 0.999, "window": (0.01, 0.1),
      "n_points": 4}, {},
     "DivergenceFit(exponent=-2.0, amplitude=0.5, r_squared=0.999, window=(0.01, 0.1), "
     "n_points=4)"),
    (ExpansionFit, {"theta": 1.0, "slope": 4.0, "r_squared": 0.99, "breakdown": False}, {},
     "ExpansionFit(theta=1.0, slope=4.0, r_squared=0.99, breakdown=False)"),
    (WindowRow, {"delta": 0.01, "partial_total": 2.5, "divergent_estimate": 3.0}, {}, ROW_REPR),
    (CutoffRow, {"epsilon": 0.001, "raw_total": 1.5, "bulk": 2.0, "subtracted": -0.5}, {},
     CUT_REPR),
    (Verdict,
     {"agrees": True, "sum_then_regularize": -0.125, "cutoff_limit": -0.125,
      "difference": 0.0, "tolerance": 1e-06}, {}, VERDICT_REPR),
    (CommutationReport,
     {"model": "free_scalar", "length": 1.0, "alpha": None, "mass": None,
      "sum_then_regularize": -0.125, "window_rows": (ROW,), "window_fit_exponent": -1.0,
      "window_fit_r_squared": 1.0, "cutoff_rows": (CUT,), "cutoff_spread": 0.0,
      "cutoff_limit": -0.125, "verdict": VERDICT, "notes": ("a note",)},
     {"notes": ()},
     "CommutationReport(model='free_scalar', length=1.0, alpha=None, mass=None, "
     f"sum_then_regularize=-0.125, window_rows=({ROW_REPR},), window_fit_exponent=-1.0, "
     f"window_fit_r_squared=1.0, cutoff_rows=({CUT_REPR},), cutoff_spread=0.0, "
     f"cutoff_limit=-0.125, verdict={VERDICT_REPR}, notes=('a note',))"),
    (CheckResult, {"name": "zeta(-1)", "measured": 0.0, "tolerance": 1e-14, "passed": True},
     {}, "CheckResult(name='zeta(-1)', measured=0.0, tolerance=1e-14, passed=True)"),
    (RunConfig,
     {"model": FieldModel.EM, "geometry": Geometry(1.0), "couplings": Couplings(0.0, 1.0),
      "interacting": False, "scheme": ZETA, "grid": GridSpec(101), "out_format": "csv",
      "out_path": None}, {},
     "RunConfig(model=<FieldModel.EM: 'em'>, geometry=Geometry(length=1.0), "
     "couplings=Couplings(alpha=0.0, m=1.0), interacting=False, "
     f"scheme={ZETA_REPR}, grid=GridSpec(count=101, "
     "clustering=<Clustering.UNIFORM: 'uniform'>), out_format='csv', out_path=None)"),
]

MUTABLE = {RunConfig}


@pytest.fixture(params=CASES, ids=[case[0].__name__ for case in CASES])
def case(request):
    return request.param


def test_repr_bytes(case):
    cls, fields, _, text = case
    assert repr(cls(*fields.values())) == text


def test_positional_and_keyword_construction_agree(case):
    cls, fields, _, _ = case
    a, b = cls(*fields.values()), cls(**fields)
    assert type(a) is type(b) is cls
    assert a == b and not a != b
    assert [getattr(a, name) for name in fields] == list(fields.values())
    if cls in MUTABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)


def test_defaults(case):
    cls, fields, defaults, _ = case
    required = {k: v for k, v in fields.items() if k not in defaults}
    assert cls(**required) == cls(**{**fields, **defaults})
    assert cls(*required.values()) == cls(**{**fields, **defaults})


def test_equality_needs_the_same_class(case):
    cls, fields, _, _ = case
    value = cls(*fields.values())
    assert value != tuple(fields.values())
    assert value != object()


def test_a_subclass_value_differs_from_its_base_value():
    assert Couplings(0.1, 1.0) != EhCouplings(0.1, 1.0)
    assert EhCouplings(0.1, 1.0) != Couplings(0.1, 1.0)


def test_fields_cannot_be_assigned_or_deleted(case):
    cls, fields, _, _ = case
    value = cls(*fields.values())
    for name, field_value in fields.items():
        if cls in MUTABLE:
            setattr(value, name, field_value)
            continue
        with pytest.raises(AttributeError):
            setattr(value, name, field_value)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert value == cls(*fields.values())


def test_missing_or_unknown_argument_is_a_type_error(case):
    cls, fields, defaults, _ = case
    required = [k for k in fields if k not in defaults]
    if required:
        with pytest.raises(TypeError):
            cls(**{k: v for k, v in fields.items() if k != required[-1]})
    with pytest.raises(TypeError):
        cls(**fields, unknown=1.0)
    with pytest.raises(TypeError):
        cls(*fields.values(), 1.0)
    first, *_ = fields
    with pytest.raises(TypeError):
        cls(*fields.values(), **{first: fields[first]})


def test_pickle_and_copy_round_trip(case):
    cls, fields, _, text = case
    value = cls(*fields.values())
    for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(twin) is cls
        assert twin == value and repr(twin) == text


def test_named_constructors():
    g = Geometry(2.0)
    assert repr(RegScheme.cutoff(0.01)) == "RegScheme(kind=<RegKind.CUTOFF: 'cutoff'>, epsilon=0.01)"
    assert RegScheme.zeta() == ZETA and RegScheme.cutoff(1) == RegScheme(RegKind.CUTOFF, 1.0)
    assert Position.from_theta(0.5, g) == Position(z=2.0 * 0.5 / 3.141592653589793, theta=0.5)
    assert Position.from_z(1, g) == Position(1.0, 3.141592653589793 / 2.0)
    assert EnergySplit.from_parts(-1.0, 0.5) == EnergySplit(-1.0, 0.5, -0.5)
    assert Geometry(2) == g and type(Geometry(2).length) is float
