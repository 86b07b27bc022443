import argparse
import ast
import json
import math
import os
import pathlib
import subprocess
import sys
import warnings

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import platevac
from platevac import scalar1d
from platevac.geometry import Geometry, Position
from platevac.regsum import RegScheme

CLI = [sys.executable, "-m", "platevac"]


def em_free_total_and_force(length):
    """-pi^2/(720 L^3) and pi^2/(240 L^4) at the double ``length``, to 50 digits."""
    with mpmath.workdps(50):
        L = mpmath.mpf(length)
        return (
            float(-mpmath.pi ** 2 / (720 * L ** 3)),
            float(mpmath.pi ** 2 / (240 * L ** 4)),
        )


def run_cli(args, env=None, check=False):
    result = subprocess.run(
        CLI + list(args),
        capture_output=True,
        env=env if env is not None else os.environ.copy(),
    )
    if check and result.returncode != 0:
        raise AssertionError(
            f"platevac {' '.join(args)} failed ({result.returncode}): "
            f"{result.stderr.decode()}"
        )
    return result


DENSITY_ARGS = [
    "density", "--model", "scalar", "--length", "1", "--scheme", "zeta",
    "--grid", "31", "--cluster", "uniform", "--format", "csv",
]


class TestDeterminism:
    def test_density_runs_are_byte_identical(self):
        first = run_cli(DENSITY_ARGS, check=True)
        second = run_cli(DENSITY_ARGS, check=True)
        assert first.stdout == second.stdout

    def test_commute_runs_are_byte_identical(self):
        args = ["commute", "--format", "json"]
        assert run_cli(args, check=True).stdout == run_cli(args, check=True).stdout

    def test_newline_discipline(self):
        out = run_cli(DENSITY_ARGS, check=True).stdout
        assert b"\r" not in out
        assert out.endswith(b"\n")


def run_in_process(argv, capsys):
    """``cli.main(argv)`` in this process: the exit code and the bytes it wrote."""
    from platevac import cli

    capsys.readouterr()
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse usage errors and --help
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out.encode(), captured.err.encode()


class TestInProcessCalls:
    """``cli.main`` builds its parser once; repeated calls share it and no state."""

    def test_repeated_calls_match_fresh_processes(self, tmp_path, monkeypatch, capsys):
        # A fixed width, so a usage message wraps the same in both places.
        monkeypatch.setenv("COLUMNS", "80")
        config = tmp_path / "run.conf"
        config.write_text("length = 2.0\nalpha = 0.05\n")
        sequence = [
            ["total", "--alpha", "0.1", "--mass", "2"],
            ["total"],
            ["density", "--scheme", "cutoff", "--epsilon", "0.01", "--grid", "3"],
            ["density", "--grid", "3"],
            ["total", "--config", str(config)],
            ["total"],
            ["total", "--length", "-2"],
            ["total", "--model", "em"],
            ["scan", "--vary", "epsilon", "--theta", "0.5", "--values", "0.1"],
            ["scan", "--vary", "epsilon", "--values", "0.1"],
            ["--units-note"],
            ["commute", "--deltas", "0.1,0.05"],
            ["commute"],
            ["total", "--bogus"],
            ["total"],
        ]
        codes = []
        for argv in sequence:
            code, out, err = run_in_process(argv, capsys)
            fresh = run_cli(argv)
            assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
            codes.append(code)
        assert codes == [0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 2, 0]

    def test_parser_is_built_once(self):
        from platevac import cli

        assert cli._build_parser() is cli._build_parser()

    def test_parser_holds_no_mutable_state(self):
        # A list default, or an action that appends, extends or counts into
        # one, would carry values from one call into the next.
        from platevac import cli

        accumulating = (argparse._AppendAction, argparse._AppendConstAction,
                        argparse._CountAction)
        parsers = [cli._build_parser()]
        for parser in parsers:
            for value in parser._defaults.values():
                assert callable(value) or isinstance(value, (type(None), bool, int, float, str))
            for action in parser._actions:
                assert isinstance(action.default, (type(None), bool, int, float, str)), action
                assert not isinstance(action, accumulating), action
                if isinstance(action, argparse._SubParsersAction):
                    parsers.extend(action.choices.values())
        assert len(parsers) == 6  # the main parser and five subcommands

    @pytest.mark.parametrize("argv", [["--help"], ["commute", "--help"]])
    def test_help_follows_the_width_of_each_call(self, argv, monkeypatch, capsys):
        # The help width is read when the help is written, not when the
        # parser is built.
        for columns in ("60", "100"):
            monkeypatch.setenv("COLUMNS", columns)
            fresh = run_cli(argv)
            assert run_in_process(argv, capsys) == (0, fresh.stdout, b""), columns
            assert fresh.returncode == 0 and fresh.stderr == b""


TOP_USAGE = b"usage: platevac [-h] [--units-note] {density,total,verify,commute,scan} ...\n"
HELP = TOP_USAGE + b"""
Regularized vacuum energies for plate-confined fields.

positional arguments:
  {density,total,verify,commute,scan}
    density             sample an energy-density profile
    total               total energy (and EM force per area)
    verify              run the built-in invariant suite
    commute             order-of-limits report: regularization vs integration
    scan                sweep epsilon, delta or length

options:
  -h, --help            show this help message and exit
  --units-note          print the unit conventions and exit
"""


class TestSingleParse:
    """A subcommand's argv goes through its own parser only.

    What the top-level parser reported before is reported with the same
    bytes: strings the subcommand leaves, an unknown command, no command,
    and the ambiguous "--=" form.
    """

    @pytest.mark.parametrize("argv, stderr", [
        (["total", "--bogus"], TOP_USAGE + b"platevac: error: unrecognized arguments: --bogus\n"),
        (["commute", "--", "--length", "1"],
         TOP_USAGE + b"platevac: error: unrecognized arguments: -- --length 1\n"),
        (["total", "--units-note"],
         TOP_USAGE + b"platevac: error: unrecognized arguments: --units-note\n"),
        (["total", "total"], TOP_USAGE + b"platevac: error: unrecognized arguments: total\n"),
        (["nope"], TOP_USAGE + b"platevac: error: argument command: invalid choice: 'nope' "
                               b"(choose from 'density', 'total', 'verify', 'commute', 'scan')\n"),
        ([], HELP),
        (["total", "--=x"],
         TOP_USAGE + b"platevac: error: ambiguous option: --=x could match --help, --units-note\n"),
    ])
    def test_top_level_messages_keep_their_bytes(self, argv, stderr, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")
        assert run_in_process(argv, capsys) == (2, b"", stderr)

    def test_subcommand_does_not_reach_the_top_level_parser(self, monkeypatch, capsys):
        from platevac import cli

        def refuse(*args, **kwargs):
            raise AssertionError("the top-level parser parsed a subcommand")

        parser = cli._build_parser()
        for name in ("parse_args", "parse_known_args", "parse_intermixed_args"):
            monkeypatch.setattr(parser, name, refuse)
        code, out, err = run_in_process(["total"], capsys)
        assert (code, err) == (0, b"") and out.startswith(b"model,length,alpha,mass,total_energy\n")


# Leaves a CLI document may hold, with the edge cases of each type.
JSON_LEAVES = st.one_of(
    st.none(), st.booleans(),
    st.integers(), st.integers(min_value=-(10 ** 40), max_value=10 ** 40),
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 2.225e-308, 1e308, -1e308]),
    st.text(), st.text(st.characters(max_codepoint=0x9f)),
    st.sampled_from(["", "\x00\x1f\x7f\t\n", "caf\u00e9", "\u2028", "\ud800", "\U0001f600", '"\\/']),
)
JSON_TREES = st.recursive(
    JSON_LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=6), children, max_size=4),
    ),
    max_leaves=40,
)


class TestJsonWriter:
    """cli._json_text writes the bytes of json.dumps(value, indent=2)."""

    @settings(max_examples=1000, deadline=None, derandomize=True)
    @given(JSON_TREES)
    def test_equals_json_dumps(self, value):
        from platevac import cli

        assert cli._json_text(value) == json.dumps(value, indent=2)

    @pytest.mark.parametrize("value", [
        {}, [], (), {"a": {}}, [[], {}], {"rows": [[1.0, -0.0], []]}, [math.nan, [math.inf]],
    ])
    def test_empty_and_nested_containers(self, value):
        from platevac import cli

        assert cli._json(value) == json.dumps(value, indent=2) + "\n"

    @pytest.mark.parametrize("value", [
        {1, 2}, b"bytes", 1j, object(), [1.0, {"a": frozenset()}], {"a": (1, {2})},
    ])
    def test_unsupported_value_raises_type_error(self, value):
        from platevac import cli

        with pytest.raises(TypeError):
            json.dumps(value, indent=2)
        with pytest.raises(TypeError):
            cli._json_text(value)


class TestDensityCommand:
    def test_scalar_csv_midpoint(self):
        result = run_cli(
            ["density", "--grid", "3", "--format", "csv"], check=True
        )
        lines = result.stdout.decode().splitlines()
        assert lines[0] == "theta,z,electric,magnetic,total"
        middle = lines[2].split(",")
        assert float(middle[4]) == pytest.approx(-math.pi / 24.0, rel=1e-12)

    def test_csv_fields_round_trip(self):
        result = run_cli(["density", "--grid", "3"], check=True)
        middle = result.stdout.decode().splitlines()[2].split(",")
        g = Geometry(1.0)
        pos = Position.from_theta(math.pi / 2, g)
        expected = scalar1d.electric_density(g, pos, RegScheme.zeta())
        assert float(middle[2]) == expected

    def test_json_round_trip_is_exact(self):
        result = run_cli(
            ["density", "--grid", "3", "--format", "json"], check=True
        )
        payload = json.loads(result.stdout)
        g = Geometry(1.0)
        pos = Position.from_theta(math.pi / 2, g)
        split = scalar1d.density_split(g, pos, RegScheme.zeta())
        row = payload["rows"][1]
        assert row[2] == split.electric
        assert row[3] == split.magnetic
        assert row[4] == split.total

    def test_em_total_column_constant(self):
        result = run_cli(
            ["density", "--model", "em", "--alpha", "0", "--grid", "9",
             "--format", "json"],
            check=True,
        )
        payload = json.loads(result.stdout)
        idx = payload["columns"].index("total")
        exact = -math.pi ** 2 / 720.0
        for row in payload["rows"]:
            assert row[idx] == pytest.approx(exact, rel=1e-8)
        cidx = payload["columns"].index("correction")
        assert all(row[cidx] == 0.0 for row in payload["rows"])

    def test_correction_column_for_interacting_scalar(self):
        result = run_cli(
            ["density", "--alpha", "0.01", "--mass", "10", "--grid", "3",
             "--format", "json"],
            check=True,
        )
        payload = json.loads(result.stdout)
        assert payload["columns"][-1] == "correction"
        g = Geometry(1.0)
        pos = Position.from_theta(math.pi / 2, g)
        from platevac.scalar1d import Couplings

        expected = scalar1d.correction_density(g, pos, Couplings(0.01, 10.0))
        assert payload["rows"][1][-1] == expected

    def test_cutoff_scheme(self):
        result = run_cli(
            ["density", "--scheme", "cutoff", "--epsilon", "0.01", "--grid", "5"],
            check=True,
        )
        assert result.returncode == 0

    def test_output_file(self, tmp_path):
        out = tmp_path / "density.csv"
        run_cli(["density", "--grid", "5", "--out", str(out)], check=True)
        text = out.read_bytes()
        assert text.startswith(b"theta,")
        assert b"\r" not in text


class TestTotalCommand:
    def test_scalar_free(self):
        result = run_cli(["total", "--format", "json"], check=True)
        payload = json.loads(result.stdout)
        assert payload["total_energy"] == pytest.approx(-math.pi / 24.0, rel=1e-12)

    def test_em_with_coupling(self):
        result = run_cli(
            ["total", "--model", "em", "--alpha", str(1.0 / 137.036), "--mass", "1",
             "--format", "json"],
            check=True,
        )
        payload = json.loads(result.stdout)
        expected = -math.pi ** 2 / 720.0 - 11.0 * (1.0 / 137.036) ** 2 * math.pi ** 4 / 3888000.0
        assert payload["total_energy"] == pytest.approx(expected, rel=1e-12)
        assert payload["force_per_area"] == pytest.approx(math.pi ** 2 / 240.0, rel=1e-8)

    @pytest.mark.parametrize("length", ["1e50", "1e-50"])
    def test_em_free_total_at_extreme_length(self, length):
        # Without --alpha the correction, with its L^8, is not formed.
        result = run_cli(
            ["total", "--model", "em", "--length", length, "--format", "json"], check=True
        )
        payload = json.loads(result.stdout)
        total, force = em_free_total_and_force(float(length))
        assert payload["total_energy"] == pytest.approx(total, rel=1e-15)
        assert payload["force_per_area"] == pytest.approx(force, rel=1e-15)

    def test_em_density_overflow_is_a_numeric_error(self):
        # At L = 1e-80 pi^2/(720 L^4) exceeds the largest double; no inf is printed.
        result = run_cli(["total", "--model", "em", "--length", "1e-80"])
        assert result.returncode == 1
        assert result.stdout == b""
        assert b"overflows" in result.stderr

    def test_csv_single_record(self):
        result = run_cli(["total", "--model", "em", "--format", "csv"], check=True)
        lines = result.stdout.decode().splitlines()
        assert len(lines) == 2
        assert lines[0].split(",")[0] == "model"

    @pytest.mark.parametrize("argv, model, alpha, mass, keys", [
        ([], "scalar", 0.0, 1.0, ["total_energy"]),
        (["--alpha", "0.01", "--mass", "2.5"], "scalar", 0.01, 2.5, ["total_energy"]),
        (["--model", "em", "--alpha", "0.01"], "em", 0.01, 1.0,
         ["total_energy", "force_per_area"]),
    ])
    def test_csv_cells(self, argv, model, alpha, mass, keys, capsys):
        # The model's name, then every number as format(x, ".17g").
        code, out, _ = run_in_process(["total", "--length", "0.37", *argv], capsys)
        _, payload, _ = run_in_process(["total", "--length", "0.37", *argv, "--format", "json"],
                                       capsys)
        totals = json.loads(payload)
        cells = [format(x, ".17g") for x in (0.37, alpha, mass, *(totals[k] for k in keys))]
        assert code == 0
        assert out.decode() == (",".join(["model", "length", "alpha", "mass", *keys]) + "\n"
                                + ",".join([model, *cells]) + "\n")


WARNING_LINE = (b"warning: alpha/(m L)^2 = %s exceeds 0.1; the lowest-order correction "
                b"is outside its validity regime\n")


class TestValidityWarningLine:
    """The CLI prints each ValidityWarning as one stderr line.

    The default filter shows a message once per place that warns, so a
    repeated length in a scan prints its line once.
    """

    @pytest.mark.parametrize("argv,ratios", [
        (["total", "--alpha", "5", "--mass", "1"], [b"5"]),
        (["density", "--alpha", "0.5", "--grid", "3"], [b"0.5"]),
        (["density", "--alpha", "0.5", "--grid", "1001", "--format", "json"], [b"0.5"]),
        (["scan", "--vary", "length", "--values", "1,1,0.5,2", "--alpha", "0.5"],
         [b"0.5", b"2", b"0.125"]),
    ])
    def test_stderr_bytes(self, argv, ratios, capsys):
        result = run_cli(argv)
        assert result.returncode == 0
        assert result.stderr == b"".join(WARNING_LINE % ratio for ratio in ratios)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", scalar1d.ValidityWarning)
            assert run_in_process(argv, capsys) == (0, result.stdout, b"")

    def test_main_restores_formatwarning(self, capsys):
        # Library callers, and main's caller once it has returned, get
        # Python's own warning format.
        formatwarning = warnings.formatwarning
        with pytest.warns(scalar1d.ValidityWarning):
            assert run_in_process(["total", "--alpha", "5"], capsys)[0] == 0
        assert warnings.formatwarning is formatwarning
        assert run_in_process(["total", "--length", "-2"], capsys)[0] == 2
        assert warnings.formatwarning is formatwarning


class TestExitCodes:
    def test_missing_epsilon_is_config_error(self):
        result = run_cli(["density", "--scheme", "cutoff"])
        assert result.returncode == 2
        assert b"epsilon" in result.stderr

    def test_bad_length_names_field(self):
        result = run_cli(["total", "--length", "-2"])
        assert result.returncode == 2
        assert b"length" in result.stderr

    def test_em_cutoff_rejected(self):
        result = run_cli(
            ["density", "--model", "em", "--scheme", "cutoff", "--epsilon", "0.1"]
        )
        assert result.returncode == 2
        assert b"scheme" in result.stderr

    @pytest.mark.parametrize("command", ["total", "verify"])
    def test_unwritable_out_is_config_error(self, tmp_path, command):
        result = run_cli([command, "--out", str(tmp_path / "missing" / "out.txt")])
        assert result.returncode == 2
        assert result.stderr.startswith(b"error: out: cannot write")
        assert b"Traceback" not in result.stderr

    def test_epsilon_without_cutoff_rejected(self):
        result = run_cli(["density", "--epsilon", "0.1"])
        assert result.returncode == 2

    def test_unknown_subcommand(self):
        result = run_cli(["frobnicate"])
        assert result.returncode == 2


# A command line of each subcommand that reads the common fields.
SHARED_COMMANDS = [["total"], ["commute"], ["scan", "--vary", "length", "--values", "1,2"]]
# The flags of the common fields only density reads.
DENSITY_ONLY_FLAGS = [["--scheme", "cutoff"], ["--epsilon", "0.1"], ["--grid", "7"],
                      ["--cluster", "endpoints"]]


class TestConfigFieldContract:
    """Every bad field exits 2, prints nothing and names itself on stderr."""

    @staticmethod
    def _assert_named(command, tmp_path, flags, config_line, field):
        args = [*command, *flags]
        if config_line is not None:
            config = tmp_path / "run.conf"
            config.write_text(config_line + "\n")
            args += ["--config", str(config)]
        result = run_cli(args)
        assert result.returncode == 2
        assert result.stdout == b""
        assert result.stderr.startswith(f"error: {field}:".encode())

    @pytest.mark.parametrize("flags,config_line,field", [
        (["--length", "nan"], None, "length"),
        (["--alpha", "-1"], None, "alpha"),
        (["--mass", "0"], None, "mass"),
        (["--grid", "1"], None, "grid"),
        (["--scheme", "cutoff", "--epsilon", "0"], None, "epsilon"),
        (["--model", "em", "--scheme", "cutoff", "--epsilon", "0.1"], None, "scheme"),
        ([], "model = photon", "model"),
        ([], "scheme = bogus", "scheme"),
        ([], "cluster = spiral", "cluster"),
        ([], "format = xml", "format"),
    ])
    def test_bad_field_is_named(self, tmp_path, flags, config_line, field):
        # density reads every common field
        self._assert_named(["density"], tmp_path, flags, config_line, field)

    @pytest.mark.parametrize("command", SHARED_COMMANDS, ids=" ".join)
    @pytest.mark.parametrize("flags,config_line,field", [
        (["--length", "nan"], None, "length"),
        (["--alpha", "-1"], None, "alpha"),
        (["--mass", "0"], None, "mass"),
        ([], "model = photon", "model"),
        ([], "length = short", "length"),
        ([], "format = xml", "format"),
    ])
    def test_shared_bad_field_is_named(self, tmp_path, command, flags, config_line, field):
        self._assert_named(command, tmp_path, flags, config_line, field)

    @pytest.mark.parametrize("command", [["density"], *SHARED_COMMANDS], ids=" ".join)
    def test_bad_format_message(self, tmp_path, command, capsys):
        config = tmp_path / "run.conf"
        config.write_text("format = xml\n")
        assert run_in_process([*command, "--config", str(config)], capsys) == (
            2, b"", b"error: format: must be 'csv' or 'json', got 'xml'\n")


class TestDeclaredFields:
    """Each subcommand declares only the flags it reads, the common ones from cli._FIELDS."""

    COMMON = ["--model", "--length", "--alpha", "--mass", "--format", "--out", "--config"]
    FLAGS = {
        "density": ["--model", "--length", "--alpha", "--mass", "--scheme", "--epsilon",
                    "--grid", "--cluster", "--format", "--out", "--config"],
        "total": COMMON,
        "verify": ["--suite", "--out"],
        "commute": [*COMMON, "--deltas", "--epsilons"],
        "scan": [*COMMON, "--vary", "--values", "--theta"],
    }

    @staticmethod
    def _subparsers():
        from platevac import cli

        parser = cli._build_parser()
        return next(a for a in parser._actions if a.dest == "command").choices

    def test_each_subcommand_declares_its_flags(self):
        flags = {name: [a.option_strings[0] for a in sub._actions if a.dest != "help"]
                 for name, sub in self._subparsers().items()}
        assert flags == self.FLAGS
        assert sum(map(len, flags.values())) == 39

    def test_common_flags_come_from_fields(self):
        from platevac import cli

        for name, sub in self._subparsers().items():
            for action in sub._actions:
                if action.dest in cli._FIELDS and name != "verify":  # verify's --out is its own
                    type_, _, choices, help_ = cli._FIELDS[action.dest]
                    assert (action.type, action.choices, action.help, action.default) == (
                        type_, choices, help_, None), action

    # commute reads --epsilon as its --epsilons (test_epsilon_abbreviates_commute_epsilons)
    @pytest.mark.parametrize("command, flag", [
        (command, flag) for command in SHARED_COMMANDS for flag in DENSITY_ONLY_FLAGS
        if not (command == ["commute"] and flag[0] == "--epsilon")
    ], ids=lambda argv: " ".join(argv))
    def test_density_only_flags_are_unrecognized(self, command, flag, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")
        assert run_in_process([*command, *flag], capsys) == (
            2, b"", TOP_USAGE + b"platevac: error: unrecognized arguments: "
            + " ".join(flag).encode() + b"\n")

    @pytest.mark.parametrize("prefix", ["--epsilon", "--e"])
    def test_epsilon_abbreviates_commute_epsilons(self, prefix, capsys):
        # argparse reads a unique prefix of a flag as the flag itself.
        expected = run_in_process(["commute", "--epsilons", "0.002,0.001"], capsys)
        assert expected[0] == 0
        assert run_in_process(["commute", prefix, "0.002,0.001"], capsys) == expected

    @pytest.mark.parametrize("line, field", [
        ("scheme = bogus", "scheme"), ("scheme = cutoff", "epsilon"), ("epsilon = 0", "epsilon"),
        ("epsilon = none", "epsilon"), ("grid = 1", "grid"), ("grid = many", "grid"),
        ("cluster = spiral", "cluster"),
    ])
    def test_density_only_config_values_are_read_by_density_alone(self, line, field, tmp_path,
                                                                  capsys):
        config = tmp_path / "run.conf"
        config.write_text(line + "\n")
        code, out, err = run_in_process(["density", "--config", str(config)], capsys)
        assert (code, out) == (2, b"") and err.startswith(f"error: {field}:".encode())
        for command in SHARED_COMMANDS:
            assert run_in_process([*command, "--config", str(config)], capsys) == (
                run_in_process(command, capsys)), command

    def test_em_cutoff_config_runs_total(self, tmp_path, capsys):
        config = tmp_path / "run.conf"
        config.write_text("model = em\nscheme = cutoff\nepsilon = 0.01\n")
        expected = run_in_process(["total", "--model", "em"], capsys)
        assert expected[0] == 0
        assert run_in_process(["total", "--config", str(config)], capsys) == expected
        code, out, err = run_in_process(["density", "--config", str(config)], capsys)
        assert (code, out) == (2, b"") and err.startswith(b"error: scheme:")

    @pytest.mark.parametrize("command", [["density"], *SHARED_COMMANDS], ids=" ".join)
    def test_readme_config_runs_every_command(self, command, tmp_path, capsys):
        config = tmp_path / "run.conf"
        config.write_text("model  = scalar\nlength = 2.0\ngrid   = 51\n")
        code, out, err = run_in_process([*command, "--config", str(config)], capsys)
        assert (code, err) == (0, b"")
        assert out == run_in_process([*command, "--length", "2.0"]
                                     + (["--grid", "51"] if command == ["density"] else []),
                                     capsys)[1]

    @pytest.mark.parametrize("command", [["density"], *SHARED_COMMANDS], ids=" ".join)
    def test_unknown_config_key_rejected(self, command, tmp_path, capsys):
        config = tmp_path / "run.conf"
        config.write_text("speed = 11\n")
        assert run_in_process([*command, "--config", str(config)], capsys) == (
            2, b"", f"error: config: {config}:1: unknown key 'speed'\n".encode())


class TestVerifyCommand:
    def test_quick_suite_passes(self):
        result = run_cli(["verify", "--suite", "quick"], check=True)
        payload = json.loads(result.stdout)
        assert payload["all_passed"] is True
        assert result.returncode == 0
        assert all(c["passed"] for c in payload["checks"])

    def test_failing_check_fails_the_run(self, monkeypatch, capsys):
        from platevac import cli, verify

        failing = ("always off", lambda: (1.0, 0.0))
        monkeypatch.setitem(verify.SUITES, "quick", verify.QUICK_CHECKS + [failing])
        assert cli.main(["verify", "--suite", "quick"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["all_passed"] is False
        assert payload["checks"][-1] == {
            "name": "always off", "measured": 1.0, "tolerance": 0.0, "passed": False,
        }
        assert all(c["passed"] for c in payload["checks"][:-1])

    def test_checks_carry_measured_and_tolerance(self):
        result = run_cli(["verify", "--suite", "quick"], check=True)
        payload = json.loads(result.stdout)
        for check in payload["checks"]:
            assert set(check) == {"name", "measured", "tolerance", "passed"}


class TestCommuteCommand:
    def test_json_report(self):
        result = run_cli(["commute", "--format", "json"], check=True)
        payload = json.loads(result.stdout)
        assert payload["verdict"]["agrees"] is True
        assert payload["sum_then_regularize"] == pytest.approx(-math.pi / 24.0, rel=1e-12)
        assert payload["window_fit"]["exponent"] == pytest.approx(-1.0, abs=0.004)

    def test_interacting_report(self):
        result = run_cli(
            ["commute", "--alpha", "0.01", "--mass", "10",
             "--epsilons", "0.04,0.02,0.01,0.005", "--format", "json"],
            check=True,
        )
        payload = json.loads(result.stdout)
        assert payload["model"] == "interacting_scalar"
        assert payload["verdict"]["agrees"] is True
        assert payload["window_fit"]["exponent"] == pytest.approx(-3.0, abs=0.004)

    def test_no_window_fit_at_zero_alpha(self, capsys):
        # The divergent estimate is 0 at every delta: nothing diverges to fit.
        code, out, _ = run_in_process(["commute", "--alpha", "0", "--format", "json"], capsys)
        assert code == 0
        assert json.loads(out)["window_fit"] == {"exponent": None, "r_squared": None}

    def test_csv_flattening(self):
        result = run_cli(["commute", "--format", "csv"], check=True)
        lines = result.stdout.decode().splitlines()
        assert lines[0] == "section,index,parameter,value,reference"
        sections = {line.split(",")[0] for line in lines[1:]}
        assert sections == {"0", "1", "2"}

    @pytest.mark.parametrize("argv", [
        [],
        ["--length", "0.37", "--alpha", "0.01", "--mass", "10",
         "--epsilons", "0.04,0.02,0.01,0.005"],
    ])
    def test_csv_cells(self, argv, capsys):
        # The JSON report's rows, every cell written as format(x, ".17g").
        code, out, _ = run_in_process(["commute", *argv], capsys)
        _, payload, _ = run_in_process(["commute", *argv, "--format", "json"], capsys)
        report = json.loads(payload)
        rows = [[0.0, float(i), r["delta"], r["partial_total"], r["divergent_estimate"]]
                for i, r in enumerate(report["integrate_then_regularize"])]
        rows += [[1.0, float(i), r["epsilon"], r["subtracted"], r["raw_total"]]
                 for i, r in enumerate(report["cutoff_full_interval"])]
        rows.append([2.0, 0.0, 0.0, report["sum_then_regularize"], report["cutoff_limit"]])
        lines = [",".join(format(x, ".17g") for x in row) for row in rows]
        assert code == 0
        header = "section,index,parameter,value,reference"
        assert out.decode() == "\n".join([header, *lines]) + "\n"

    @pytest.mark.parametrize("flag,values", [
        ("--deltas", "0.1,0.2"),
        ("--deltas", "0.6"),
        ("--deltas", "0.1"),
        ("--deltas", "nan"),
        ("--epsilons", "0.1,-0.05"),
        ("--epsilons", "inf,1"),
    ])
    def test_bad_ladder_is_config_error(self, flag, values):
        result = run_cli(["commute", flag, values])
        assert result.returncode == 2
        assert result.stdout == b""
        assert result.stderr.startswith(f"error: {flag[2:]}:".encode())

    @pytest.mark.parametrize("argv", [["commute"], ["commute", "--alpha", "0.01", "--mass", "10"]])
    def test_ladders_are_checked_once_per_report(self, argv, monkeypatch, capsys):
        # commutation_report checks each ladder; the command checks none of its own.
        from platevac import limits_lab

        calls = []
        ladder = limits_lab._ladder
        monkeypatch.setattr(limits_lab, "_ladder", lambda *a: calls.append(a[0]) or ladder(*a))
        assert run_in_process(argv, capsys)[0] == 0
        assert calls == ["delta", "epsilon"]

    @pytest.mark.parametrize("argv, err", [
        (["--deltas", "0.1,0.2", "--epsilons", "x"],
         "error: deltas: deltas must be a decreasing sequence\n"),
        (["--deltas", "x", "--epsilons", "0.1,0.2"],
         "error: deltas: expected comma-separated numbers, got 'x'\n"),
        (["--epsilons", "x"], "error: epsilons: expected comma-separated numbers, got 'x'\n"),
        (["--deltas", "0.1,0.2", "--epsilons", "0.1,0.2"],
         "error: deltas: deltas must be a decreasing sequence\n"),
        (["--epsilons", "1e-80"], "error: epsilons: "),
    ])
    def test_errors_come_in_flag_order(self, argv, err, capsys):
        code, out, printed = run_in_process(["commute", *argv], capsys)
        assert (code, out) == (2, b"") and printed.decode().startswith(err)

    def test_non_geometric_epsilons_are_config_error(self, capsys):
        # Decreasing, but the ratios 1.5 and 4 differ: Richardson cannot
        # extrapolate them, and the ladder check says so before the report.
        from platevac import cli

        assert cli.main(["commute", "--epsilons", "0.003,0.002,0.0005"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: epsilons: epsilons must form a geometric sequence; "
            "ratios 1.5 and 4.0 differ\n"
        )


class TestZeroCoupling:
    """At alpha = 0 every correction is +0.0: no subcommand prints -0 or -0.0."""

    @pytest.mark.parametrize("out_format", ["csv", "json"])
    @pytest.mark.parametrize("argv", [
        ["density", "--grid", "3"],
        ["density", "--grid", "1001"],
        ["density", "--scheme", "cutoff", "--epsilon", "0.01", "--grid", "3"],
        ["density", "--model", "em", "--grid", "3"],
        ["density", "--model", "em", "--grid", "1001", "--cluster", "endpoints"],
        ["total"],
        ["total", "--model", "em"],
        ["commute"],
        ["commute", "--length", "1e102"],
        ["scan", "--vary", "length", "--values", "0.1,1,10"],
        ["scan", "--vary", "length", "--model", "em", "--values", "0.1,1,10"],
        ["scan", "--vary", "epsilon", "--values", "0.04,0.02"],
        ["scan", "--vary", "delta", "--values", "0.1,0.01"],
    ], ids=" ".join)
    def test_no_negative_zero(self, argv, out_format, capsys):
        # Epsilon and delta sweeps take no coupling, and their rows hold no
        # alpha-dependent column: they run without --alpha 0.
        coupling = [] if argv[0] == "scan" and argv[2] != "length" else ["--alpha", "0"]
        code, out, err = run_in_process([*argv, *coupling, "--format", out_format], capsys)
        assert code == 0 and err == b""
        tokens = out.decode().replace(",", " ").replace(":", " ").split()
        assert "-0" not in tokens and "-0.0" not in tokens

    @pytest.mark.parametrize("model", ["scalar", "em"])
    def test_correction_column_is_zero(self, model, capsys):
        code, out, _ = run_in_process(
            ["density", "--model", model, "--grid", "3", "--alpha", "0"], capsys)
        assert code == 0
        assert [line.split(",")[-1] for line in out.decode().splitlines()] == [
            "correction", "0", "0", "0"]

    def test_commute_estimates_are_zero(self, capsys):
        code, out, _ = run_in_process(["commute", "--alpha", "0", "--format", "json"], capsys)
        rows = json.loads(out)["integrate_then_regularize"]
        assert code == 0
        assert [repr(r["divergent_estimate"]) for r in rows] == ["0.0"] * 4


class TestScanCommand:
    def test_epsilon_sweep(self):
        result = run_cli(
            ["scan", "--vary", "epsilon", "--values", "0.04,0.02,0.01",
             "--theta", "1.0", "--format", "json"],
            check=True,
        )
        payload = json.loads(result.stdout)
        assert payload["columns"] == ["epsilon", "electric", "magnetic", "total"]
        assert len(payload["rows"]) == 3
        for row in payload["rows"]:
            assert row[3] == pytest.approx(-math.pi / 24.0, rel=1e-10)

    def test_delta_sweep(self):
        result = run_cli(
            ["scan", "--vary", "delta", "--values", "0.02,0.01", "--format", "csv"],
            check=True,
        )
        lines = result.stdout.decode().splitlines()
        assert lines[0] == "delta,window_integral,divergent_estimate"
        assert len(lines) == 3

    def test_deep_delta_window(self):
        result = run_cli(["scan", "--vary", "delta", "--values", "1e-8"], check=True)
        row = result.stdout.decode().splitlines()[1].split(",")
        assert row[1].startswith("3978873.51")
        # cot(pi 1e-8)/8 - (pi - 2 pi 1e-8)/48, to 50 digits
        assert float(row[1]) == pytest.approx(3978873.5118475363611865, rel=1e-12)

    def test_length_sweep_em(self):
        result = run_cli(
            ["scan", "--vary", "length", "--values", "1,2", "--model", "em",
             "--format", "json"],
            check=True,
        )
        payload = json.loads(result.stdout)
        assert payload["columns"] == ["length", "total_energy", "force_per_area"]
        force_1 = payload["rows"][0][2]
        force_2 = payload["rows"][1][2]
        assert force_1 / force_2 == pytest.approx(16.0, rel=1e-8)

    def test_length_sweep_em_extreme_lengths(self):
        result = run_cli(
            ["scan", "--vary", "length", "--values", "1e50,1e-50", "--model", "em",
             "--format", "json"],
            check=True,
        )
        rows = json.loads(result.stdout)["rows"]
        assert [row[0] for row in rows] == [1e50, 1e-50]
        for length, total, force in rows:
            expected_total, expected_force = em_free_total_and_force(length)
            assert total == pytest.approx(expected_total, rel=1e-15)
            assert force == pytest.approx(expected_force, rel=1e-15)

    def test_tiny_cutoff_near_the_wall(self):
        # eps = 1e-12 at theta = 1e-10: the position term dominates; 50-digit
        # mpmath gives 1.96334815247369201e19 for the electric density.
        result = run_cli(
            ["scan", "--vary", "epsilon", "--values", "1e-12", "--theta", "1e-10"], check=True
        )
        row = result.stdout.decode().splitlines()[1].split(",")
        assert row[1] == "1.9633481524736918e+19"
        assert row[2] == "-1.9633481524736918e+19"
        assert float(row[3]) == pytest.approx(-math.pi / 24.0, rel=1e-15)  # not their sum, 0

    @pytest.mark.parametrize("vary, values", [("length", "0.5,2"), ("delta", "0.1,0.01")])
    def test_theta_is_read_by_epsilon_sweeps_only(self, vary, values, capsys):
        argv = ["scan", "--vary", vary, "--values", values]
        assert run_in_process(argv, capsys)[0] == 0
        assert run_in_process([*argv, "--theta", "2.0"], capsys) == (
            2, b"", f"error: theta: only an epsilon sweep reads it, not a {vary} sweep\n".encode())

    @pytest.mark.parametrize("flag", ["--alpha", "--mass"])
    @pytest.mark.parametrize("vary, values", [("epsilon", "0.04,0.02"), ("delta", "0.1,0.01")])
    def test_coupling_is_read_by_length_sweeps_only(self, vary, values, flag, capsys):
        argv = ["scan", "--vary", vary, "--values", values]
        assert run_in_process(argv, capsys)[0] == 0
        article = "an" if vary == "epsilon" else "a"
        assert run_in_process([*argv, flag, "0.05"], capsys) == (
            2, b"", f"error: {flag[2:]}: only a length sweep reads it, "
                    f"not {article} {vary} sweep\n".encode())
        assert run_in_process(["scan", "--vary", "length", "--values", "1,2", flag, "0.05"],
                              capsys)[0] == 0

    @pytest.mark.parametrize("vary, values", [("epsilon", "0.04,0.02"), ("delta", "0.1,0.01")])
    def test_config_file_coupling_is_allowed_on_every_sweep(self, vary, values, tmp_path,
                                                             capsys):
        config = tmp_path / "coupling.conf"
        config.write_text("alpha = 0.05\nmass = 3\n")
        argv = ["scan", "--vary", vary, "--values", values]
        assert run_in_process([*argv, "--config", str(config)], capsys) == run_in_process(
            argv, capsys)

    def test_epsilon_sweep_theta_defaults_to_one(self, capsys):
        argv = ["scan", "--vary", "epsilon", "--values", "0.04,0.02"]
        code, out, err = run_in_process(argv, capsys)
        assert (code, err) == (0, b"")
        assert run_in_process([*argv, "--theta", "1.0"], capsys) == (0, out, b"")
        assert run_in_process([*argv, "--theta", "2.0"], capsys)[1] != out

    def test_bad_values_rejected(self):
        result = run_cli(["scan", "--vary", "length", "--values", "1,-2"])
        assert result.returncode == 2

    @pytest.mark.parametrize("vary,values", [
        ("epsilon", "0.1,0"),
        ("delta", "0.5"),
        ("delta", "0.6"),
        ("delta", "nan"),
        ("delta", "0"),
        ("length", "inf"),
    ])
    def test_every_sweep_rejects_bad_values(self, vary, values):
        result = run_cli(["scan", "--vary", vary, "--values", values])
        assert result.returncode == 2
        assert result.stdout == b""
        assert result.stderr.startswith(b"error: values:")
        if (vary, values) == ("delta", "0"):
            assert result.stderr == (
                b"error: values: the continued electric density integrates to "
                b"cot(pi delta / L)/(8 L) + finite as delta -> 0; the full-interval "
                b"integral diverges\n")

    @pytest.mark.parametrize("argv, exact", [
        # The window integral to 50 digits (its constant part lies below the
        # last digit): a = pi delta / L is below the normal doubles in each,
        # and cot a is past them in the first two.
        (["--length", "1e300", "--values", "1e-9"], "39788735.772973831"),
        (["--length", "1e300", "--values", "1e-20"], "3.9788735772973836e+18"),
        (["--length", "1e200", "--values", "1e-110"], "3.9788735772973832e+108"),
    ])
    def test_window_where_cot_leaves_the_doubles(self, argv, exact, capsys):
        code, out, err = run_in_process(["scan", "--vary", "delta", *argv], capsys)
        assert (code, err) == (0, b"")
        _, value, estimate = out.decode().splitlines()[1].split(",")
        assert float(value) == pytest.approx(float(exact), rel=1e-12)
        assert float(estimate) == pytest.approx(float(exact), rel=1e-12)


class TestSmallestCutoff:
    """A cutoff below 1e-75 is a configuration error, not "float division by zero"."""

    @pytest.mark.parametrize("argv, message", [
        (["scan", "--vary", "epsilon", "--values", "1e-200", "--theta", "1e-100"],
         "error: values: epsilon must be >= 1e-75, got 1e-200\n"),
        (["commute", "--epsilons", "1e-160,5e-161,2.5e-161", "--alpha", "0.01"],
         "error: epsilons: epsilon must be >= 1e-75, got 2.5e-161\n"),
        (["commute", "--epsilons", "1e-160,5e-161,2.5e-161"],
         "error: epsilons: epsilon must be >= 1e-75, got 2.5e-161\n"),
        (["density", "--scheme", "cutoff", "--epsilon", "1e-100"],
         "error: epsilon: epsilon must be >= 1e-75, got 1e-100\n"),
    ])
    def test_below_the_smallest_cutoff(self, argv, message, capsys):
        assert run_in_process(argv, capsys) == (2, b"", message.encode())

    @pytest.mark.parametrize("argv", [
        ["scan", "--vary", "epsilon", "--values", "1e-75", "--theta", "1e-100"],
        ["commute", "--epsilons", "4e-75,2e-75,1e-75", "--alpha", "0.01"],
        ["commute", "--epsilons", "4e-75,2e-75,1e-75"],
    ])
    def test_smallest_cutoff_prints_finite_values(self, argv, capsys):
        code, out, err = run_in_process(argv, capsys)
        assert (code, err) == (0, b"")
        cells = [float(c) for row in out.decode().splitlines()[1:] for c in row.split(",")]
        assert all(map(math.isfinite, cells))


class TestOverflow:
    @pytest.mark.parametrize("argv", [
        ["density", "--grid", "3", "--length", "1e-160"],
        ["density", "--grid", "3", "--length", "1e-160", "--format", "json"],
        ["density", "--model", "em", "--grid", "10001", "--cluster", "endpoints",
         "--length", "1e-70"],
        ["density", "--grid", "3", "--length", "1e308"],
        ["scan", "--vary", "epsilon", "--length", "1e-160", "--values", "0.01"],
        ["scan", "--vary", "epsilon", "--length", "1e-150", "--theta", "1e-10",
         "--values", "1e-12"],
    ])
    def test_density_overflow_is_a_numeric_error(self, argv, capsys):
        # No nan or inf is printed, and no numpy RuntimeWarning is raised.
        from platevac import cli

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("numeric error: the ")
        assert "overflows a double" in captured.err

    def test_window_integral_overflow_is_a_numeric_error(self, capsys):
        # At L = 1e-310 both terms of the window integral overflow, and their
        # difference is nan: never printed as nan,inf with exit 0.
        from platevac import cli

        argv = ["scan", "--vary", "delta", "--length", "1e-310", "--values", "1e-311"]
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "numeric error: the window integral overflows a double at L = 1e-310\n"
        )


class TestCommuteCotCubed:
    """The interacting report where cot(pi delta / L)^3 overflows a double."""

    def test_huge_length_prints_finite_cells(self, capsys):
        from platevac import cli

        assert cli.main(["commute", "--alpha", "0.01", "--mass", "1", "--length", "1e102"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert len(rows) == 8 and all(math.isfinite(float(c)) for r in rows for c in r.split(","))

    def test_past_the_doubles_is_a_named_error(self, capsys):
        from platevac import cli

        argv = ["commute", "--alpha", "0.01", "--deltas", "1e-200,5e-201,2.5e-201,1.25e-201"]
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "", "numeric error: the window integral overflows a double at L = 1.0\n")


class TestDeepWindows:
    """Windows where a = pi delta / L is below the normal doubles."""

    def test_free_report_where_cot_overflows(self, capsys):
        # cot a is past the doubles; 50-digit mpmath gives cot(a)/(8 L) less
        # (pi - 2a)/(48 L) for each window.
        code, out, err = run_in_process(
            ["commute", "--length", "1e300", "--deltas", "1e-9,5e-10", "--format", "json"], capsys)
        assert (code, err) == (0, b"")
        rows = json.loads(out)["integrate_then_regularize"]
        with mpmath.workdps(50):
            for row in rows:
                L, d = mpmath.mpf(1e300), mpmath.mpf(row["delta"])
                a = mpmath.pi * d / L
                exact = mpmath.cot(a) / (8 * L) - (mpmath.pi - 2 * a) / (48 * L)
                assert row["partial_total"] == pytest.approx(float(exact), rel=1e-12)
                assert row["divergent_estimate"] == pytest.approx(
                    float(mpmath.cot(a) / (8 * L)), rel=1e-12)

    @pytest.mark.parametrize("argv", [
        ["commute", "--deltas", "1e-320,5e-321"],
        ["scan", "--vary", "delta", "--length", "1e300", "--values", "1e-320"],
    ])
    def test_a_window_past_the_doubles_names_the_window(self, argv, capsys):
        assert run_in_process(argv, capsys) == (1, b"", b"numeric error: the window integral "
                                                b"overflows a double at L = %s\n" % (
                                                    b"1e+300" if "scan" in argv else b"1.0"))


class TestConfigFile:
    def test_flags_take_precedence(self, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text("length = 2.0\ngrid = 5\n# a comment\n")
        result = run_cli(
            ["total", "--config", str(config), "--length", "1", "--format", "json"],
            check=True,
        )
        payload = json.loads(result.stdout)
        assert payload["length"] == 1.0

    def test_config_value_used_when_flag_absent(self, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text("length = 2.0\n")
        result = run_cli(["total", "--config", str(config), "--format", "json"], check=True)
        payload = json.loads(result.stdout)
        assert payload["length"] == 2.0
        assert payload["total_energy"] == pytest.approx(-math.pi / 48.0, rel=1e-12)

    def test_unknown_key_rejected(self, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text("speed = 11\n")
        result = run_cli(["total", "--config", str(config)])
        assert result.returncode == 2


class TestUnitsNote:
    def test_prints_and_exits_zero(self):
        result = run_cli(["--units-note"], check=True)
        assert b"hbar = c = 1" in result.stdout


class TestRuntimeDependencies:
    def test_commands_run_without_scipy(self):
        # numpy is the only runtime dependency; scipy is a test-only oracle
        code = "\n".join([
            "import contextlib, io, sys",
            "import platevac.cli as cli",
            "runs = [['commute'], ['commute', '--alpha', '0.01', '--mass', '10'],",
            "        ['verify', '--suite', 'full']]",
            "with contextlib.redirect_stdout(io.StringIO()):",
            "    codes = [cli.main(argv) for argv in runs]",
            "assert codes == [0, 0, 0], codes",
            "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if 'scipy' in m)",
        ])
        result = subprocess.run([sys.executable, "-c", code], capture_output=True)
        assert result.returncode == 0, result.stderr.decode()


class TestImports:
    """Each subcommand imports only the modules it runs."""

    @staticmethod
    def _importers(package: str) -> set[str]:
        # The platevac modules whose source imports ``package`` anywhere.
        importers = set()
        for path in pathlib.Path(platevac.__file__).parent.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names = [node.module]
                else:
                    continue
                if any(name.split(".")[0] == package for name in names):
                    importers.add(path.name)
        return importers

    def test_only_limits_lab_imports_numpy(self):
        # numpy is limits_lab's grid engine; every other module works on
        # plain floats.
        assert self._importers("numpy") == {"limits_lab.py"}

    def test_no_module_imports_dataclasses(self):
        # The value types are platevac.record.Record classes; importing
        # dataclasses would cost every cold command inspect, ast and dis.
        assert self._importers("dataclasses") == set()

    @pytest.mark.parametrize("argv,absent", [
        (["total"],
         ["platevac.limits_lab", "platevac.verify", "dataclasses", "inspect", "fractions"]),
        (["scan", "--vary", "length", "--values", "1,2"],
         ["platevac.limits_lab", "platevac.verify", "dataclasses", "inspect", "fractions"]),
        (["scan", "--vary", "delta", "--values", "0.01"],
         ["platevac.limits_lab", "platevac.verify", "numpy", "dataclasses", "inspect",
          "fractions"]),
        (["density", "--grid", "5"],
         ["platevac.verify", "numpy", "dataclasses", "inspect", "fractions"]),
        (["density", "--model", "em", "--alpha", "0.01", "--format", "json"],
         ["platevac.verify", "numpy", "dataclasses", "inspect", "fractions"]),
        (["commute"], ["platevac.verify", "numpy", "dataclasses", "inspect", "fractions"]),
        (["verify", "--suite", "quick"], ["platevac.limits_lab", "dataclasses", "inspect"]),
        (["verify", "--suite", "full"], ["numpy", "dataclasses", "inspect"]),
    ])
    def test_subcommand_leaves_modules_unloaded(self, argv, absent):
        code = "\n".join([
            "import contextlib, io, sys",
            "from platevac.cli import main",
            "with contextlib.redirect_stdout(io.StringIO()):",
            f"    assert main({argv!r}) == 0",
            f"loaded = [m for m in {absent!r} if m in sys.modules]",
            "assert not loaded, loaded",
        ])
        result = subprocess.run([sys.executable, "-c", code], capture_output=True)
        assert result.returncode == 0, result.stderr.decode()

    def test_suite_choices_match_verify(self):
        from platevac import cli, verify

        parser = cli._build_parser()
        commands = next(a for a in parser._actions if a.dest == "command")
        suite = next(a for a in commands.choices["verify"]._actions if a.dest == "suite")
        assert suite.choices == sorted(verify.SUITES)


class TestPublicNames:
    """Every name in a module's ``__all__`` is read somewhere in ``src/``."""

    # Names kept public with no reader in src/: the package version, the
    # paper's own quantities, the exact Bernoulli numbers (verify reads the
    # integer pairs they wrap), and the API of the benchmark's profile workload.
    UNREAD = {
        "__version__",
        "specfun.bernoulli",
        "em3d.thermal_free_energy_density",
        "scalar1d.magnetic_density",
        "scalar1d.correction_density",
        "scalar1d.interacting_density",
        "limits_lab.sample_profile",
        "limits_lab.fit_divergence",
    }

    @staticmethod
    def _origin(trees, module, name):
        # (module, name) of the definition a re-exported name is bound to.
        for node in ast.walk(trees[module]):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                for alias in node.names:
                    if (alias.asname or alias.name) == name:
                        return TestPublicNames._origin(trees, node.module, alias.name)
        return module, name

    @staticmethod
    def _defined(statement):
        # The names a top-level statement defines; its own body reads none of them.
        if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
            return {statement.name}
        return {target.id for node in ast.walk(statement) if isinstance(node, ast.Assign)
                for target in node.targets if isinstance(target, ast.Name)}

    def test_every_public_name_has_a_reader(self):
        src = pathlib.Path(platevac.__file__).parent
        trees = {path.stem: ast.parse(path.read_text(), str(path)) for path in src.glob("*.py")}
        read = set()
        for module, tree in trees.items():
            # The module aliases bound by "from . import m", anywhere in the module.
            aliases = {alias.asname or alias.name: alias.name for node in ast.walk(tree)
                       if isinstance(node, ast.ImportFrom) and node.level == 1 and not node.module
                       for alias in node.names}
            for statement in tree.body:
                defined = self._defined(statement)
                for node in ast.walk(statement):
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                        key = self._origin(trees, module, node.id)
                    elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                          and node.value.id in aliases):
                        key = self._origin(trees, aliases[node.value.id], node.attr)
                    else:
                        continue
                    if not (key[0] == module and key[1] in defined):
                        read.add(key)
        unread = set()
        for module, tree in trees.items():
            exported = [node.value for node in tree.body if isinstance(node, ast.Assign)
                        and any(getattr(t, "id", None) == "__all__" for t in node.targets)]
            for name in (ast.literal_eval(exported[0]) if exported else []):
                if self._origin(trees, module, name) not in read:
                    unread.add(name if module == "__init__" else f"{module}.{name}")
        assert unread == self.UNREAD
