"""Command-line front end.

Subcommands: density, total, verify, commute, scan.  Output is CSV or
JSON with deterministic bytes for a fixed configuration: floats are
formatted with 17 significant digits, '.' as the decimal separator, and
'\\n' line endings.  Exit codes: 0 success, 1 numeric failure, 2
usage/configuration error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

from . import em3d, limits_lab, scalar1d, verify
from .errors import ConfigError, PlatevacError
from .geometry import Geometry, Position
from .limits_lab import Clustering, CommutationModel, FieldModel as Model, GridSpec
from .regsum import RegKind, RegScheme
from .scalar1d import Couplings, Route

__all__ = ["main"]

UNITS_NOTE = """\
Natural units: hbar = c = 1.  Lengths are the only dimension; energies,
masses and temperatures are inverse lengths.  Scalar (1+1-d) totals are
energies, densities are energy per length.  EM totals are per unit plate
area, densities per unit volume, forces per unit area.  Multiply by
hbar*c with your favourite length unit to restore SI.
"""


_DEFAULTS = {
    "model": "scalar",
    "length": 1.0,
    "alpha": None,
    "mass": 1.0,
    "scheme": "zeta",
    "epsilon": None,
    "grid": 101,
    "cluster": "uniform",
    "format": "csv",
    "out": None,
}

_CONVERTERS = {
    "model": str,
    "length": float,
    "alpha": float,
    "mass": float,
    "scheme": str,
    "epsilon": float,
    "grid": int,
    "cluster": str,
    "format": str,
    "out": str,
}


@dataclass
class RunConfig:
    model: Model
    length: float
    alpha: float | None
    mass: float
    scheme: RegScheme
    grid: GridSpec
    out_format: str
    out_path: str | None

    @property
    def geometry(self) -> Geometry:
        return Geometry(self.length)

    @property
    def couplings(self) -> Couplings | None:
        if self.alpha is None:
            return None
        return Couplings(alpha=self.alpha, m=self.mass)

    @property
    def eh_couplings(self) -> em3d.EhCouplings:
        return em3d.EhCouplings(alpha=0.0 if self.alpha is None else self.alpha, m=self.mass)


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
        if key not in _CONVERTERS:
            raise ConfigError("config", f"{path}:{lineno}: unknown key {key!r}")
        try:
            values[key] = _CONVERTERS[key](value)
        except ValueError:
            raise ConfigError(key, f"invalid value {value!r} in {path}") from None
    return values


def _resolve(args: argparse.Namespace) -> dict:
    """Apply precedence: flags > config file > defaults."""
    from_file = _read_config_file(args.config) if getattr(args, "config", None) else {}
    resolved = {}
    for key, default in _DEFAULTS.items():
        flag = getattr(args, key, None)
        if flag is not None:
            resolved[key] = flag
        elif key in from_file:
            resolved[key] = from_file[key]
        else:
            resolved[key] = default
    return resolved


def _build_config(args: argparse.Namespace) -> RunConfig:
    raw = _resolve(args)
    try:
        model = Model(raw["model"])
    except ValueError:
        raise ConfigError("model", f"must be one of {[m.value for m in Model]}") from None
    length = raw["length"]
    if not math.isfinite(length) or length <= 0.0:
        raise ConfigError("length", f"must be finite and > 0, got {length!r}")
    alpha = raw["alpha"]
    if alpha is not None and (not math.isfinite(alpha) or alpha < 0.0):
        raise ConfigError("alpha", f"must be finite and >= 0, got {alpha!r}")
    mass = raw["mass"]
    if not math.isfinite(mass) or mass <= 0.0:
        raise ConfigError("mass", f"must be finite and > 0, got {mass!r}")
    if raw["scheme"] not in ("zeta", "cutoff"):
        raise ConfigError("scheme", f"must be 'zeta' or 'cutoff', got {raw['scheme']!r}")
    epsilon = raw["epsilon"]
    if raw["scheme"] == "cutoff":
        if epsilon is None:
            raise ConfigError("epsilon", "required when scheme = cutoff")
        if not math.isfinite(epsilon) or epsilon <= 0.0:
            raise ConfigError("epsilon", f"must be finite and > 0, got {epsilon!r}")
        scheme = RegScheme.cutoff(epsilon)
    else:
        if epsilon is not None:
            raise ConfigError("epsilon", "only meaningful when scheme = cutoff")
        scheme = RegScheme.zeta()
    if model is Model.EM and scheme.kind is RegKind.CUTOFF:
        raise ConfigError("scheme", "the em model defines densities in the zeta scheme only")
    if raw["grid"] < 2:
        raise ConfigError("grid", f"must be >= 2, got {raw['grid']!r}")
    try:
        cluster = Clustering(raw["cluster"])
    except ValueError:
        raise ConfigError(
            "cluster", f"must be one of {[c.value for c in Clustering]}"
        ) from None
    if raw["format"] not in ("csv", "json"):
        raise ConfigError("format", f"must be 'csv' or 'json', got {raw['format']!r}")
    return RunConfig(
        model=model,
        length=length,
        alpha=alpha,
        mass=mass,
        scheme=scheme,
        grid=GridSpec(count=raw["grid"], clustering=cluster),
        out_format=raw["format"],
        out_path=raw["out"],
    )


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", newline="") as handle:
            handle.write(text)


def _csv(header: list[str], rows: list[list]) -> str:
    # One row template per table, from the cell types of the first row (all
    # rows share them): '%.17g' gives the bytes of format(x, ".17g").
    lines = [",".join(header)]
    if rows:
        template = ",".join("%s" if isinstance(cell, str) else "%.17g" for cell in rows[0])
        lines.extend(template % tuple(row) for row in rows)
    return "\n".join(lines) + "\n"


def _json(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"


# --------------------------------------------------------------------------
# Subcommands
# --------------------------------------------------------------------------


def _cmd_density(args: argparse.Namespace) -> int:
    config = _build_config(args)
    with_correction = config.alpha is not None
    couplings = None
    if with_correction:
        couplings = config.couplings if config.model is Model.SCALAR else config.eh_couplings
    columns = limits_lab.density_columns(
        config.geometry,
        config.model,
        config.scheme,
        limits_lab.theta_array(config.grid),
        couplings,
    )
    header = list(columns)
    rows = list(zip(*(column.tolist() for column in columns.values())))
    if config.out_format == "csv":
        text = _csv(header, rows)
    else:
        text = _json(
            {
                "command": "density",
                "model": config.model.value,
                "length": config.length,
                "scheme": config.scheme.kind.value,
                "epsilon": config.scheme.epsilon,
                "alpha": config.alpha,
                "mass": config.mass if with_correction else None,
                "columns": header,
                "rows": rows,
            }
        )
    _emit(text, config.out_path)
    return 0


def _cmd_total(args: argparse.Namespace) -> int:
    config = _build_config(args)
    g = config.geometry
    payload: dict = {
        "command": "total",
        "model": config.model.value,
        "length": config.length,
        "alpha": config.alpha,
        "mass": config.mass if config.alpha is not None else None,
    }
    if config.model is Model.SCALAR:
        if config.alpha is None:
            payload["total_energy"] = scalar1d.free_total_energy(g)
        else:
            payload["total_energy"] = scalar1d.interacting_total_energy(g, config.couplings)
    else:
        payload["total_energy"] = em3d.corrected_total_energy(g, config.eh_couplings)
        payload["force_per_area"] = em3d.casimir_force_per_area(g)
    if config.out_format == "csv":
        header = ["model", "length", "alpha", "mass", "total_energy"]
        row: list = [
            config.model.value,
            config.length,
            0.0 if config.alpha is None else config.alpha,
            config.mass,
            payload["total_energy"],
        ]
        if "force_per_area" in payload:
            header.append("force_per_area")
            row.append(payload["force_per_area"])
        text = _csv(header, [row])
    else:
        text = _json(payload)
    _emit(text, config.out_path)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    suite = args.suite
    results = verify.run_suite(suite)
    all_passed = all(r.passed for r in results)
    payload = {
        "command": "verify",
        "suite": suite,
        "checks": [
            {
                "name": r.name,
                "measured": r.measured,
                "tolerance": r.tolerance,
                "passed": r.passed,
            }
            for r in results
        ],
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
    config = _build_config(args)
    if config.model is not Model.SCALAR:
        raise ConfigError("model", "the commutation report covers the scalar model")
    deltas = _parse_float_list(args.deltas, "deltas")
    epsilons = _parse_float_list(args.epsilons, "epsilons")
    if config.alpha is not None:
        model = CommutationModel.INTERACTING_SCALAR
        couplings = config.couplings
    else:
        model = CommutationModel.FREE_SCALAR
        couplings = None
    report = limits_lab.commutation_report(
        config.geometry, model, deltas=deltas, epsilons=epsilons, couplings=couplings
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
        text = _csv(header, rows)
    _emit(text, config.out_path)
    return 0


def _cmd_scan(args: argparse.Namespace) -> int:
    config = _build_config(args)
    values = _parse_float_list(args.values, "values")
    vary = args.vary
    g = config.geometry
    rows: list[list] = []
    if vary == "length":
        header = ["length", "total_energy"]
        if config.model is Model.EM:
            header.append("force_per_area")
        for length in values:
            if not math.isfinite(length) or length <= 0.0:
                raise ConfigError("values", f"lengths must be > 0, got {length!r}")
            gg = Geometry(length)
            if config.model is Model.SCALAR:
                if config.alpha is None:
                    total = scalar1d.free_total_energy(gg)
                else:
                    total = scalar1d.interacting_total_energy(gg, config.couplings)
                rows.append([length, total])
            else:
                total = em3d.corrected_total_energy(gg, config.eh_couplings)
                rows.append([length, total, em3d.casimir_force_per_area(gg)])
    elif vary == "epsilon":
        if config.model is not Model.SCALAR:
            raise ConfigError("vary", "epsilon sweeps apply to the scalar model")
        theta = args.theta
        if not 0.0 < theta < math.pi:
            raise ConfigError("theta", f"must lie in (0, pi), got {theta!r}")
        header = ["epsilon", "electric", "magnetic", "total"]
        pos = Position.from_theta(theta, g)
        for eps in values:
            if not math.isfinite(eps) or eps <= 0.0:
                raise ConfigError("values", f"epsilons must be > 0, got {eps!r}")
            split = scalar1d.density_split(g, pos, RegScheme.cutoff(eps))
            rows.append([eps, split.electric, split.magnetic, split.total])
    elif vary == "delta":
        if config.model is not Model.SCALAR:
            raise ConfigError("vary", "delta sweeps apply to the scalar model")
        header = ["delta", "window_integral", "divergent_estimate"]
        for delta in values:
            if not math.isfinite(delta) or not 0.0 < delta < 0.5 * g.length:
                raise ConfigError("values", f"deltas must lie in (0, L/2), got {delta!r}")
            result = scalar1d.total_energy_by_route(
                g, Route.INTEGRATE_REGULARIZED_DENSITY, RegScheme.zeta(), delta=delta
            )
            rows.append([delta, result.value, result.divergent_estimate])
    else:  # pragma: no cover - argparse restricts choices
        raise ConfigError("vary", f"unknown sweep {vary!r}")
    if config.out_format == "csv":
        text = _csv(header, rows)
    else:
        text = _json(
            {
                "command": "scan",
                "vary": vary,
                "model": config.model.value,
                "columns": header,
                "rows": rows,
            }
        )
    _emit(text, config.out_path)
    return 0


# --------------------------------------------------------------------------
# Parser
# --------------------------------------------------------------------------


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--model", choices=[m.value for m in Model], default=None,
                        help="field model (default scalar)")
    parser.add_argument("--length", type=float, default=None,
                        help="plate/interval separation L (default 1)")
    parser.add_argument("--alpha", type=float, default=None,
                        help="interaction coupling; enables correction output")
    parser.add_argument("--mass", type=float, default=None,
                        help="heavy mass of the effective theory (default 1)")
    parser.add_argument("--scheme", choices=["zeta", "cutoff"], default=None,
                        help="regularization scheme (default zeta)")
    parser.add_argument("--epsilon", type=float, default=None,
                        help="cutoff parameter, required with --scheme cutoff")
    parser.add_argument("--grid", type=int, default=None,
                        help="number of grid points (default 101)")
    parser.add_argument("--cluster", choices=[c.value for c in Clustering], default=None,
                        help="grid layout (default uniform)")
    parser.add_argument("--format", choices=["csv", "json"], default=None,
                        help="output format (default csv)")
    parser.add_argument("--out", default=None, help="output path (default stdout)")
    parser.add_argument("--config", default=None,
                        help="flat key-value config file; flags take precedence")


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
    p_verify.add_argument("--suite", choices=sorted(verify.SUITES), default="quick")
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
    args = parser.parse_args(argv)
    if args.units_note:
        sys.stdout.write(UNITS_NOTE)
        return 0
    if getattr(args, "func", None) is None:
        parser.print_help(sys.stderr)
        return 2
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (PlatevacError, ArithmeticError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
