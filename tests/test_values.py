"""The value-type contract: repr bytes, equality by class and fields,
hashing, immutability, construction and pickling, for every value type."""

import copy
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from platevac.record import Record
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


def _reference_init(self, *args, **kwargs):
    # The generic binder as it was written before it bound in one pass: a
    # dict of defaults, positional and keyword arguments, read field by field.
    name, fields = type(self).__name__, self._fields
    if len(args) > len(fields):
        raise TypeError(f"{name}() takes {len(fields)} arguments, got {len(args)}")
    unknown = kwargs.keys() - fields[len(args):]
    if unknown:
        raise TypeError(f"{name}() got unexpected or repeated arguments {sorted(unknown)}")
    bound = {**self._defaults, **dict(zip(fields, args)), **kwargs}
    for field, setter in zip(fields, self._setters):
        if field not in bound:
            raise TypeError(f"{name}() missing argument {field!r}")
        setter(self, bound[field])
    self._validate()


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


# Every value type in the package that binds through Record's own __init__.
GENERIC = sorted({cls for cls in _subclasses(Record) if cls.__module__.startswith("platevac.")
                  and cls.__init__ is Record.__init__}, key=lambda cls: cls.__qualname__)
VALID = {case[0]: case[1] for case in CASES}


def _bind(init, cls, args, kwargs):
    """The fields ``init`` binds, or the type and message of what it raises."""
    value = cls.__new__(cls)
    try:
        init(value, *args, **kwargs)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)
    return [getattr(value, field) for field in cls._fields]


def test_every_generic_type_has_a_case():
    assert len(GENERIC) == 14 and set(GENERIC) <= set(VALID)
    assert {RunConfig, EhCouplings, CommutationReport, CheckResult} <= set(GENERIC)


def _shapes(cls):
    # (name, args, kwargs): each call shape over the case's valid fields.
    fields = VALID[cls]
    values, half = list(fields.values()), len(fields) // 2
    required = {k: v for k, v in fields.items() if k not in cls._defaults}
    first = next(iter(fields))
    missing = {k: v for k, v in fields.items() if k != [*required, first][0]}
    return [
        ("positional", values, {}),
        ("keyword", [], fields),
        ("mixed", values[:half], dict(list(fields.items())[half:])),
        ("defaults omitted", list(required.values()), {}),
        ("missing", [], missing),
        ("extra positional", [*values, 1.0], {}),
        ("extra keyword", values, {"extra": 1.0}),
        ("repeated", values[:1], {first: values[0]}),
    ]


@pytest.mark.parametrize("cls", GENERIC, ids=lambda cls: cls.__name__)
def test_each_call_shape_binds_as_the_reference(cls):
    for name, args, kwargs in _shapes(cls):
        assert _bind(Record.__init__, cls, args, kwargs) == _bind(
            _reference_init, cls, args, kwargs), name


@st.composite
def _calls(draw):
    # A generic type and a call: some leading fields by position (maybe one
    # too many), then keywords drawn from its fields and one unknown name;
    # each value the case's valid one or an int that some types reject.
    cls = draw(st.sampled_from(GENERIC))
    fields = VALID[cls]
    names = list(fields)
    positional = draw(st.integers(0, len(names) + 1))
    args = [draw(st.sampled_from([fields[name], 7])) for name in names[:positional]]
    args += [7] * (positional - len(names))
    keywords = draw(st.lists(st.sampled_from([*names, "extra"]), unique=True))
    return cls, args, {name: draw(st.sampled_from([fields.get(name, 7), 7])) for name in keywords}


@settings(max_examples=2000, deadline=None, derandomize=True)
@given(_calls())
def test_any_call_binds_as_the_reference(call):
    cls, args, kwargs = call
    assert _bind(Record.__init__, cls, args, kwargs) == _bind(_reference_init, cls, args, kwargs)
