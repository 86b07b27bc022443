"""Command-line front end.

Subcommands: density, total, verify, commute, scan.  Output is CSV or
JSON with deterministic bytes for a fixed configuration: floats are
formatted with 17 significant digits, '.' as the decimal separator, and
'\\n' line endings.  Exit codes: 0 success, 1 numeric failure, 2
usage/configuration error.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
import warnings
from json.encoder import encode_basestring_ascii
from pathlib import Path

from . import em3d, scalar1d
from .errors import ConfigError, PlatevacError
from .geometry import (
    Clustering, FieldModel as Model, Geometry, GridSpec, Position, window_integral,
)
from .record import Record
from .regsum import RegKind, RegScheme
from .scalar1d import Couplings

__all__ = ["main"]

UNITS_NOTE = """\
Natural units: hbar = c = 1.  Lengths are the only dimension; energies,
masses and temperatures are inverse lengths.  Scalar (1+1-d) totals are
energies, densities are energy per length.  EM totals are per unit plate
area, densities per unit volume, forces per unit area.  Multiply by
hbar*c with your favourite length unit to restore SI.
"""


# The common fields, in flag order: name -> (type, default, choices, help).
# Each entry declares the flag, the config-file converter and the default.
_FIELDS = {
    "model": (str, "scalar", [m.value for m in Model], "field model (default scalar)"),
    "length": (float, 1.0, None, "plate/interval separation L (default 1)"),
    "alpha": (float, None, None, "interaction coupling; enables correction output"),
    "mass": (float, 1.0, None, "heavy mass of the effective theory (default 1)"),
    "scheme": (str, "zeta", ["zeta", "cutoff"], "regularization scheme (default zeta)"),
    "epsilon": (float, None, None, "cutoff parameter, required with --scheme cutoff"),
    "grid": (int, 101, None, "number of grid points (default 101)"),
    "cluster": (str, "uniform", [c.value for c in Clustering], "grid layout (default uniform)"),
    "format": (str, "csv", ["csv", "json"], "output format (default csv)"),
    "out": (str, None, None, "output path (default stdout)"),
}


class RunConfig(Record):
    """One command's validated common fields.

    ``couplings`` has alpha = 0 unless a coupling was given; ``interacting``
    says one was, and the correction is reported.  Unlike the value types,
    a RunConfig is mutable, and so unhashable.
    """

    __slots__ = ("model", "geometry", "couplings", "interacting", "scheme", "grid",
                 "out_format", "out_path")
    __setattr__, __delattr__, __hash__ = object.__setattr__, object.__delattr__, None

    @property
    def alpha(self) -> float | None:
        return self.couplings.alpha if self.interacting else None

    @property
    def mass(self) -> float | None:
        return self.couplings.m if self.interacting else None


def _read_config_file(path: str) -> dict:
    """Flat key-value file: one ``key = value`` per line, '#' comments."""
    values = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError("config", f"cannot read {path!r}: {exc}") from None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError("config", f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _FIELDS:
            raise ConfigError("config", f"{path}:{lineno}: unknown key {key!r}")
        try:
            values[key] = _FIELDS[key][0](value)
        except ValueError:
            raise ConfigError(key, f"invalid value {value!r} in {path}") from None
    return values


def _resolve(args: argparse.Namespace) -> dict:
    """Apply precedence: flags > config file > defaults."""
    from_file = _read_config_file(args.config) if getattr(args, "config", None) else {}
    resolved = {}
    for key, (_, default, _, _) in _FIELDS.items():
        flag = getattr(args, key, None)
        if flag is not None:
            resolved[key] = flag
        elif key in from_file:
            resolved[key] = from_file[key]
        else:
            resolved[key] = default
    return resolved


def _checked(field: str, build, *args, **kwargs):
    """``build(*args, **kwargs)``, its DomainError or ValueError named by ``field``."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:  # DomainError is a ValueError
        raise ConfigError(field, str(exc)) from None


def _build_config(args: argparse.Namespace) -> RunConfig:
    # The domain types check their own ranges; each is built in the order
    # the fields are reported.  Couplings and GridSpec take two fields, so
    # each is built again with the second to name it on its own.
    raw = _resolve(args)
    model = _checked("model", Model, raw["model"])
    geometry = _checked("length", Geometry, raw["length"])
    alpha = raw["alpha"]
    couplings = _checked("alpha", Couplings, 0.0 if alpha is None else alpha, 1.0)
    couplings = _checked("mass", Couplings, couplings.alpha, raw["mass"])
    kind = _checked("scheme", RegKind, raw["scheme"])
    scheme = _checked("epsilon", RegScheme, kind, raw["epsilon"])
    if model is Model.EM:
        _checked("scheme", em3d._require_zeta, scheme)
    grid = _checked("grid", GridSpec, raw["grid"])
    grid = GridSpec(grid.count, _checked("cluster", Clustering, raw["cluster"]))
    if raw["format"] not in ("csv", "json"):
        raise ConfigError("format", f"must be 'csv' or 'json', got {raw['format']!r}")
    return RunConfig(
        model=model,
        geometry=geometry,
        couplings=couplings,
        interacting=alpha is not None,
        scheme=scheme,
        grid=grid,
        out_format=raw["format"],
        out_path=raw["out"],
    )


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        raise ConfigError("out", f"cannot write {out_path!r}: {exc}") from None


def _json(payload: dict) -> str:
    return _json_text(payload) + "\n"


def _json_text(value, indent: str = "\n") -> str:
    """The bytes of ``json.dumps(value, indent=2)``, whose indent runs a pure-Python
    encoder, for what a CLI document holds: dicts with str keys, lists, tuples, str,
    float, int, bool, None.  ``indent`` opens the value's lines; others raise TypeError.
    A finite float item (x - x == 0.0) is written in place, without a call."""
    if isinstance(value, float):
        return (float.__repr__(value) if math.isfinite(value) else "NaN" if value != value
                else "Infinity" if value > 0.0 else "-Infinity")
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    inner = indent + "  "
    if isinstance(value, dict):
        items = [encode_basestring_ascii(k) + ": " + (
            float.__repr__(v) if v.__class__ is float and v - v == 0.0 else _json_text(v, inner))
            for k, v in value.items()]
        return "{" + inner + ("," + inner).join(items) + indent + "}" if items else "{}"
    if isinstance(value, (list, tuple)):
        items = [float.__repr__(v) if v.__class__ is float and v - v == 0.0
                 else _json_text(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + indent + "]" if items else "[]"
    if value is None or isinstance(value, bool):
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _table(header: dict, columns: list, out_format: str) -> str:
    """A density, scan or commute table of one or more float rows, given column by column.

    CSV: the header["columns"] line, then a line per row of its cells as
    format(x, ".17g"); JSON: the bytes of ``_json({**header, "rows": rows})``,
    each cell repr(x), in which only nan and inf hold an 'n'.  Numpy columns go
    through ``limits_lab._table_rows``; lists fill one template per row.
    The rows' pieces and the framing are joined once.
    """
    cell, start, between, end, newline = (
        ("%.17g", "", ",", "", "\n") if out_format == "csv"
        else ("%r", "    [\n      ", ",\n      ", "\n    ]", ",\n"))
    lists = isinstance(columns[0], (list, tuple))
    if lists:
        template = start + between.join([cell] * len(columns)) + end
        parts = [newline.join([template % row for row in zip(*columns)])]
    else:
        from . import limits_lab

        rows = limits_lab._table_rows(columns, out_format == "json", between, end + newline + start)
        parts = [start, *rows, end]
    if out_format == "csv":
        return "".join([",".join(header["columns"]) + "\n", *parts, "\n"])
    # An array's min and max propagate nan and cannot overflow: a finite table needs no pass.
    if lists or not all(math.isfinite(column.min()) and math.isfinite(column.max())
                        for column in columns):
        parts = [part.replace("nan", "NaN").replace("inf", "Infinity") for part in parts]
    return "".join([_json_text(header)[:-2] + ',\n  "rows": [\n', *parts, "\n  ]\n}\n"])


# --------------------------------------------------------------------------
# Subcommands
# --------------------------------------------------------------------------


def _cmd_density(args: argparse.Namespace) -> int:
    from . import limits_lab

    config = _build_config(args)
    columns = limits_lab.density_columns(
        config.geometry,
        config.model,
        config.scheme,
        limits_lab.grid_angles(config.grid),
        config.couplings if config.interacting else None,
    )
    header = {
        "command": "density",
        "model": config.model.value,
        "length": config.geometry.length,
        "scheme": config.scheme.kind.value,
        "epsilon": config.scheme.epsilon,
        "alpha": config.alpha,
        "mass": config.mass,
        "columns": list(columns),
    }
    _emit(_table(header, list(columns.values()), config.out_format), config.out_path)
    return 0


def _totals(config: RunConfig, g: Geometry) -> dict[str, float]:
    """The total energy at separation ``g``, and for EM the force per area."""
    if config.model is Model.EM:
        return {
            "total_energy": em3d.corrected_total_energy(g, config.couplings),
            "force_per_area": em3d.casimir_force_per_area(g),
        }
    if config.interacting:
        return {"total_energy": scalar1d.interacting_total_energy(g, config.couplings)}
    return {"total_energy": scalar1d.free_total_energy(g)}


def _cmd_total(args: argparse.Namespace) -> int:
    config = _build_config(args)
    g = config.geometry
    totals = _totals(config, g)
    if config.out_format == "csv":
        values = [g.length, config.couplings.alpha, config.couplings.m, *totals.values()]
        text = ",".join(["model", "length", "alpha", "mass", *totals]) + "\n"
        text += ",".join([config.model.value, *("%.17g" % value for value in values)]) + "\n"
    else:
        text = _json(
            {
                "command": "total",
                "model": config.model.value,
                "length": g.length,
                "alpha": config.alpha,
                "mass": config.mass,
                **totals,
            }
        )
    _emit(text, config.out_path)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from . import verify

    suite = args.suite
    results = verify.run_suite(suite)
    all_passed = all(r.passed for r in results)
    payload = {
        "command": "verify",
        "suite": suite,
        "checks": [r.asdict() for r in results],
        "all_passed": all_passed,
    }
    _emit(_json(payload), args.out)
    return 0 if all_passed else 1


def _parse_float_list(text: str, field: str) -> list[float]:
    try:
        values = [float(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ConfigError(field, f"expected comma-separated numbers, got {text!r}") from None
    if not values:
        raise ConfigError(field, "expected at least one value")
    return values


def _cmd_commute(args: argparse.Namespace) -> int:
    from . import limits_lab
    from .limits_lab import CommutationModel

    config = _build_config(args)
    if config.model is not Model.SCALAR:
        raise ConfigError("model", "the commutation report covers the scalar model")
    g = config.geometry
    deltas = _checked(
        "deltas", limits_lab._ladder, "delta", _parse_float_list(args.deltas, "deltas"), g
    )
    epsilons = _checked(
        "epsilons", limits_lab._ladder, "epsilon", _parse_float_list(args.epsilons, "epsilons"), g
    )
    model = CommutationModel("interacting_scalar" if config.interacting else "free_scalar")
    # The free report ignores the couplings.
    report = limits_lab.commutation_report(
        g, model, deltas=deltas, epsilons=epsilons, couplings=config.couplings
    )
    if config.out_format == "json":
        text = _json({"command": "commute", **report.to_dict()})
    else:
        # Flattened numeric tables: section 0 = delta windows, section 1 =
        # cutoff totals, section 2 = the sum-then-regularize / limit summary.
        header = ["section", "index", "parameter", "value", "reference"]
        rows: list[list] = []
        for i, r in enumerate(report.window_rows):
            rows.append([0.0, float(i), r.delta, r.partial_total, r.divergent_estimate])
        for i, r in enumerate(report.cutoff_rows):
            rows.append([1.0, float(i), r.epsilon, r.subtracted, r.raw_total])
        rows.append([2.0, 0.0, 0.0, report.sum_then_regularize, report.cutoff_limit])
        text = _table({"columns": header}, list(zip(*rows)), "csv")
    _emit(text, config.out_path)
    return 0


def _cmd_scan(args: argparse.Namespace) -> int:
    config = _build_config(args)
    values = _parse_float_list(args.values, "values")
    vary = args.vary
    g = config.geometry
    rows: list[list] = []
    if vary == "length":
        for length in values:
            totals = _totals(config, _checked("values", Geometry, length))
            rows.append([length, *totals.values()])
        header = ["length", *totals]  # values holds at least one length
    elif vary == "epsilon":
        if config.model is not Model.SCALAR:
            raise ConfigError("vary", "epsilon sweeps apply to the scalar model")
        theta = args.theta
        if not 0.0 < theta < math.pi:
            raise ConfigError("theta", f"must lie in (0, pi), got {theta!r}")
        header = ["epsilon", "electric", "magnetic", "total"]
        pos = Position.from_theta(theta, g)
        for eps in values:
            split = scalar1d.density_split(g, pos, _checked("values", RegScheme.cutoff, eps))
            rows.append([eps, split.electric, split.magnetic, split.total])
    elif vary == "delta":
        if config.model is not Model.SCALAR:
            raise ConfigError("vary", "delta sweeps apply to the scalar model")
        header = ["delta", "window_integral", "divergent_estimate"]
        total = scalar1d._free_total(g.length)
        for delta in values:
            if delta == 0.0:
                raise ConfigError("values", "the continued electric density integrates to "
                                  "cot(pi delta / L)/(8 L) + finite as delta -> 0; the "
                                  "full-interval integral diverges")
            if not 0.0 < delta < 0.5 * g.length:
                raise ConfigError("values", f"delta must lie in (0, L/2), got {delta!r}")
            rows.append([delta, *window_integral(scalar1d.ELECTRIC_WINDOW, g.length, None,
                                                 total, delta)])
    else:  # pragma: no cover - argparse restricts choices
        raise ConfigError("vary", f"unknown sweep {vary!r}")
    table = {"command": "scan", "vary": vary, "model": config.model.value, "columns": header}
    _emit(_table(table, list(zip(*rows)), config.out_format), config.out_path)
    return 0


# --------------------------------------------------------------------------
# Parser
# --------------------------------------------------------------------------


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    # default None, so _resolve can tell a flag from an absent one
    for name, (type_, _, choices, help_) in _FIELDS.items():
        parser.add_argument(f"--{name}", type=type_, choices=choices, default=None, help=help_)
    parser.add_argument("--config", default=None,
                        help="flat key-value config file; flags take precedence")


@functools.cache  # parse_args leaves the parser unchanged, and every default is immutable
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="platevac",
        description="Regularized vacuum energies for plate-confined fields.",
    )
    parser.add_argument("--units-note", action="store_true",
                        help="print the unit conventions and exit")
    sub = parser.add_subparsers(dest="command")

    p_density = sub.add_parser("density", help="sample an energy-density profile")
    _add_common_flags(p_density)
    p_density.set_defaults(func=_cmd_density)

    p_total = sub.add_parser("total", help="total energy (and EM force per area)")
    _add_common_flags(p_total)
    p_total.set_defaults(func=_cmd_total)

    p_verify = sub.add_parser("verify", help="run the built-in invariant suite")
    # sorted(verify.SUITES), spelled out so the parser does not import verify
    p_verify.add_argument("--suite", choices=["full", "quick"], default="quick")
    p_verify.add_argument("--out", default=None, help="output path (default stdout)")
    p_verify.set_defaults(func=_cmd_verify)

    p_commute = sub.add_parser(
        "commute", help="order-of-limits report: regularization vs integration"
    )
    _add_common_flags(p_commute)
    p_commute.add_argument("--deltas", default="0.02,0.01,0.005,0.0025",
                           help="decreasing boundary margins (comma separated)")
    p_commute.add_argument("--epsilons", default="0.001,0.0005,0.00025",
                           help="decreasing cutoffs (comma separated, geometric)")
    p_commute.set_defaults(func=_cmd_commute)

    p_scan = sub.add_parser("scan", help="sweep epsilon, delta or length")
    _add_common_flags(p_scan)
    p_scan.add_argument("--vary", choices=["epsilon", "delta", "length"], required=True)
    p_scan.add_argument("--values", required=True,
                        help="comma-separated sweep values")
    p_scan.add_argument("--theta", type=float, default=1.0,
                        help="evaluation angle for epsilon sweeps (default 1.0)")
    p_scan.set_defaults(func=_cmd_scan)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else argv
    commands = next(action for action in parser._actions if action.dest == "command").choices
    # A subcommand's strings go through its parser only: the top-level parser
    # hands them on unchanged, and rejects only "--=..." (ambiguous to it).
    if argv and argv[0] in commands and not any(arg.startswith("--=") for arg in argv):
        args, extras = commands[argv[0]].parse_known_args(
            argv[1:], argparse.Namespace(units_note=False, command=argv[0]))
        if extras:
            parser.error("unrecognized arguments: " + " ".join(extras))
    else:
        args = parser.parse_args(argv)
    if args.units_note:
        sys.stdout.write(UNITS_NOTE)
        return 0
    if getattr(args, "func", None) is None:
        parser.print_help(sys.stderr)
        return 2
    # A ValidityWarning prints as one line, without its source path and line.
    formatwarning = warnings.formatwarning
    warnings.formatwarning = lambda message, category, *where: (
        f"warning: {message}\n" if issubclass(category, scalar1d.ValidityWarning)
        else formatwarning(message, category, *where))
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (PlatevacError, ArithmeticError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 1
    finally:
        warnings.formatwarning = formatwarning


if __name__ == "__main__":
    sys.exit(main())
