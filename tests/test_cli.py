"""Command-line contract: exit codes, stderr, the --config merge, the
per-subcommand parser against the full one, unwritable outputs, the simulate
outputs, that no command loads scipy, numpy, dataclasses or inspect or builds
the quadrature nodes before it needs them, and that CSV runs load no json."""

import ast
import bisect
import gc
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

import gravreduce
from gravreduce import cli, criticality, dynamics, sweep
from gravreduce.core import Body, LawKind, PhysicalContext, UnitSystem, WavePacket
from gravreduce.errors import DomainError

SRC = str(Path(gravreduce.__file__).resolve().parents[1])
SUBPROCESS_TIMEOUT_S = 60


def run(argv):
    """cli.main in this process: (exit code, stdout, stderr)."""
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:      # argparse rejects the command line
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def run_process(args, timeout=SUBPROCESS_TIMEOUT_S):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, timeout=timeout)


def write_config(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return str(path)


def sweep_rows(stdout):
    return [line for line in stdout.splitlines()[2:] if line]


BODY = ["--mass", "1", "--sigma0", "1"]
VALID = {
    "critical": ["critical"] + BODY,
    "simulate": ["simulate"] + BODY + ["--r0", "1", "--t-end", "10"],
    "tau": ["tau"] + BODY,
    "sweep": ["sweep", "--sigma0", "1", "--grid", "mass=0.1:10:3"],
    "verify": ["verify", "--quick"],
}


# ---------------------------------------------------------------- contract

@pytest.mark.parametrize("command", sorted(VALID))
def test_valid_argv_exits_0_with_empty_stderr(command):
    code, out, err = run(VALID[command])
    assert (code, err) == (cli.EXIT_OK, "")
    assert out


@pytest.mark.parametrize("command", sorted(VALID))
def test_unknown_option_exits_2(command):
    code, _, err = run(VALID[command] + ["--no-such-option"])
    assert code == cli.EXIT_CONFIG
    assert "unrecognized arguments" in err


@pytest.mark.parametrize("command", sorted(VALID))
def test_unknown_config_key_exits_2(command, tmp_path):
    config = write_config(tmp_path, "no_such_key = 1\n")
    code, out, err = run(VALID[command] + ["--config", config])
    assert (code, out) == (cli.EXIT_CONFIG, "")
    assert err == "error: unknown config key: no_such_key\n"


@pytest.mark.parametrize("argv,name", [
    (["critical", "--mass", "inf", "--sigma0", "1"], "mass"),
    (["critical", "--mass", "1", "--sigma0", "inf"], "sigma0"),
    (["critical", "--mass", "1", "--sigma0", "1", "--kind", "sphere", "--radius", "inf"],
     "sphere radius"),
    (["critical", "--mass", "1", "--sigma0", "1", "--units", "si", "--hbar", "inf"], "hbar"),
    (["tau", "--mass", "1", "--sigma0", "1", "--units", "si", "--G", "inf"], "G"),
    (["sweep", "--mass", "inf", "--grid", "sigma0=1:2:2"], "mass"),
    (["simulate", "--mass", "1", "--sigma0", "inf", "--r0", "1", "--t-end", "1"], "sigma0"),
])
def test_an_infinite_parameter_is_refused_by_name(argv, name):
    # Not a derived quantity out of the floating-point range: the record refuses it.
    assert run(argv) == (cli.EXIT_CONFIG, "", f"error: {name} must be finite\n")


def test_missing_required_option_exits_2():
    code, _, err = run(["critical", "--mass", "1"])
    assert code == cli.EXIT_CONFIG
    assert err == "error: missing required option --sigma0\n"


def strict_json(text):
    """json.loads that refuses NaN and Infinity, which are not JSON."""
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("perturb", ["1e-6", "1e308"])
def test_verify_negative_control_exits_1(perturb):
    # 1e308 makes every perturbed closed form overflow, so each of its
    # discrepancies is NaN: each of the nine checks still fails, and reports
    # its discrepancy as null.
    code, out, err = run(["verify", "--quick", "--perturb", perturb])
    report = strict_json(out)
    assert (code, err) == (cli.EXIT_VERIFY_FAILED, "")
    assert (report["n_checks"], report["n_failed"]) == (27, 9)
    failed = [check["measured"] for check in report["checks"] if not check["passed"]]
    assert all(m is None for m in failed) if perturb == "1e308" else None not in failed


@pytest.mark.parametrize("perturb", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_verify_refuses_a_non_finite_perturbation(perturb, source, tmp_path):
    if source == "flag":
        argv = ["verify", "--quick", f"--perturb={perturb}"]
    else:
        argv = ["verify", "--config", write_config(tmp_path, f"quick = on\nperturb = {perturb}\n")]
    assert run(argv) == (cli.EXIT_CONFIG, "", "error: perturb must be finite\n")


# ---------------------------------------------------------------- --config merge

def test_config_grid_line_is_one_spec(tmp_path):
    config = write_config(tmp_path, "grid = mass=0.1:10:3\nsigma0 = 1\n")
    code, out, err = run(["sweep", "--config", config])
    assert (code, err) == (cli.EXIT_OK, "")
    assert len(sweep_rows(out)) == 3


def test_config_grid_lines_accumulate_and_flag_replaces_them(tmp_path):
    config = write_config(tmp_path, "grid = mass=0.1:10:3\ngrid = sigma0=1:2:2\n")
    code, out, _ = run(["sweep", "--config", config])
    assert code == cli.EXIT_OK
    assert len(sweep_rows(out)) == 6

    code, out, _ = run(["sweep", "--config", config, "--mass", "1",
                        "--grid", "sigma0=1:4:4"])
    assert code == cli.EXIT_OK
    rows = [row.split(",") for row in sweep_rows(out)]
    assert [row[0] for row in rows] == ["1.0"] * 4
    assert (rows[0][1], rows[-1][1]) == ("1.0", "4.0")


def _tau_methods(stdout):
    return [e["method"] for e in json.loads(stdout)["estimates"]]


def test_config_no_numeric_is_applied(tmp_path):
    config = write_config(tmp_path, "mass = 1\nsigma0 = 1\nno_numeric = true\n")
    code, out, _ = run(["tau", "--config", config])
    assert code == cli.EXIT_OK
    assert "quarter-period-numeric" not in _tau_methods(out)

    config = write_config(tmp_path, "mass = 1\nsigma0 = 1\nno_numeric = false\n")
    assert "quarter-period-numeric" in _tau_methods(run(["tau", "--config", config])[1])


def test_config_quick_is_applied(tmp_path, monkeypatch):
    seen = {}

    def fake_run_all(**kwargs):
        seen.update(kwargs)
        return {"passed": True}

    monkeypatch.setattr("gravreduce.verify.run_all", fake_run_all)
    config = write_config(tmp_path, "quick = yes\n")
    assert run(["verify", "--config", config])[0] == cli.EXIT_OK
    assert seen["quick"] is True


@pytest.mark.parametrize("command", sorted(VALID))
def test_config_file_cannot_name_another(command, tmp_path):
    # The command line's --config always wins, so the line could only be
    # ignored; it is refused even when the file it names is valid.
    nested = tmp_path / "nested.cfg"
    nested.write_text("mass = 2\n")
    config = write_config(tmp_path, f"config = {nested}\n")
    code, out, err = run(VALID[command] + ["--config", config])
    assert (code, out) == (cli.EXIT_CONFIG, "")
    assert err == "error: config key config is refused: a config file cannot name another\n"


def test_config_flag_takes_a_boolean_word(tmp_path):
    config = write_config(tmp_path, "mass = 1\nsigma0 = 1\nno_numeric = maybe\n")
    code, out, err = run(["tau", "--config", config])
    assert (code, out) == (cli.EXIT_CONFIG, "")
    assert err == "error: config key no_numeric takes true or false, not 'maybe'\n"


@pytest.mark.parametrize("line,message", [
    ("mass = abc", "config key mass takes a float, not 'abc'"),
    ("units = furlongs", "config key units takes one of si, cgs, dimensionless, not 'furlongs'"),
    ("kind = cube", "config key kind takes one of point, sphere, not 'cube'"),
])
def test_config_values_are_typed_like_their_flags(tmp_path, line, message):
    config = write_config(tmp_path, f"mass = 1\nsigma0 = 1\n{line}\n")
    code, out, err = run(["critical", "--config", config])
    assert (code, out) == (cli.EXIT_CONFIG, "")
    assert err == f"error: {message}\n"


def test_config_values_take_the_flag_types(tmp_path):
    config = write_config(tmp_path, "mass = 2\nsigma0 = 1e-1\nunits = cgs\n")
    code, out, _ = run(["critical", "--config", config])
    payload = json.loads(out)
    assert code == cli.EXIT_OK
    assert (payload["mass"], payload["sigma0"], payload["units"]) == (2.0, 0.1, "cgs")


def test_command_line_overrides_config(tmp_path):
    config = write_config(tmp_path, "mass = 2\nsigma0 = 1\nno_numeric = false\n")
    code, out, _ = run(["tau", "--config", config, "--mass", "1", "--no-numeric"])
    assert code == cli.EXIT_OK
    assert "quarter-period-numeric" not in _tau_methods(out)
    period = json.loads(out)["estimates"][0]
    assert (period["method"], period["tau"]) == ("period-formula", 1.0)


# Config parity: for every option of these subcommands that a config line can
# set, the line and the flag give the same run.  Each option is left out of
# its subcommand's base argv and given one value, plus the argv that value
# needs; {dir} is the run's output directory.
PARITY_BASE = {
    "critical": {"mass": "1", "sigma0": "1"},
    "simulate": {"mass": "1", "sigma0": "1", "r0": "1", "t_end": "10"},
    "tau": {"mass": "1", "sigma0": "1"},
    "sweep": {"sigma0": "1", "grid": "mass=0.1:10:3"},
}
PARITY_VALUES = {
    "units": ("cgs", []),
    "hbar": ("1e-34", ["--units", "si"]),
    "G": ("6e-11", ["--units", "si"]),
    "out": ("{dir}/out.txt", []),
    "mass": ("2", []),
    "sigma0": ("2", []),
    "kind": ("sphere", ["--radius", "0.5"]),
    "radius": ("0.5", ["--kind", "sphere"]),
    "law": ("gravity-object", ["--radius", "0.5"]),
    "r0": ("2", []),
    "v0": ("0.1", []),
    "t_end": ("5", []),
    "rtol": ("1e-8", []),
    "atol": ("1e-10", []),
    "gnuplot_script": ("{dir}/plot.gp", ["--out", "{dir}/traj.csv"]),
    "no_numeric": ("true", []),
    "grid": ("mass=1:2:2", []),
}
PARITY_OVERRIDES = {
    ("critical", "format"): ("csv", []),
    ("tau", "format"): ("csv", []),
    ("simulate", "format"): ("json", []),
    ("sweep", "format"): ("json", []),
    ("simulate", "kind"): ("sphere", ["--radius", "0.5", "--law", "gravity-object"]),
    ("simulate", "radius"): ("0.5", ["--law", "gravity-object"]),
}
# The sweep base grids mass, which a fixed mass may not join, so mass is
# checked on a sweep that grids sigma0 instead.
PARITY_BASE_FOR = {("sweep", "mass"): {"grid": "sigma0=0.1:10:3"}}


def config_keys(command):
    """Every option of the subcommand a config line can set."""
    actions = cli.build_parser().parse_args([command]).parser._actions
    dests = [a.dest for a in actions if a.option_strings and a.dest not in ("help", "config")]
    return list(dict.fromkeys(dests))       # --dimensionless sets units


def run_with_files(argv, outdir):
    """(exit code, stdout, stderr, {name: text} of the files the run wrote)."""
    result = run(argv)
    files = {}
    for path in sorted(outdir.iterdir()):
        files[path.name] = path.read_text()
        path.unlink()
    return result + (files,)


@pytest.mark.parametrize("command, key", [(command, key) for command in PARITY_BASE
                                          for key in config_keys(command)])
def test_config_line_gives_the_same_run_as_its_flag(command, key, tmp_path):
    outdir = tmp_path / "outputs"
    outdir.mkdir()
    value, extra = PARITY_OVERRIDES.get((command, key)) or PARITY_VALUES[key]
    value = value.replace("{dir}", str(outdir))
    given_options = PARITY_BASE_FOR.get((command, key), PARITY_BASE[command])
    base = [command] + [arg for name, given in given_options.items() if name != key
                        for arg in (f"--{name.replace('_', '-')}", given)]
    base += [arg.replace("{dir}", str(outdir)) for arg in extra]
    flag = [f"--{key.replace('_', '-')}"] + ([] if value == "true" else [value])

    as_flag = run_with_files(base + flag, outdir)
    config = write_config(tmp_path, f"{key} = {value}\n")
    assert run_with_files(base + ["--config", config], outdir) == as_flag
    assert (as_flag[0], as_flag[2]) == (cli.EXIT_OK, "")


@pytest.mark.parametrize("option", [["--units", "si"], ["--dimensionless"], ["--hbar", "2"],
                                    ["--G", "2"], ["--format", "csv"]])
def test_verify_refuses_the_options_it_has_no_use_for(option):
    code, out, err = run(["verify", "--quick"] + option)
    assert (code, out) == (cli.EXIT_CONFIG, "")
    assert "unrecognized arguments" in err


# main builds the options of the subcommand it runs alone; what argparse
# prints must not tell.  Each argv is parsed by main and by the parser that
# holds every subcommand's options.
PARSER_CASES = [[], ["--help"], ["no-such-command"], ["--mass", "1", "critical"],
                ["--no-such-flag", "critical", "--mass", "1", "--sigma0", "1"]] + [
    [command, *args] for command in sorted(VALID)
    for args in (["--help"], ["--out"], ["--no-such-flag"],
                 ["--perturb", "x"] if command == "verify" else ["--format", "xml"])]


def parse_with_every_option(argv):
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err), pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(argv)
    return exc.value.code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", PARSER_CASES, ids=" ".join)
def test_parser_of_one_subcommand_prints_what_the_full_parser_does(argv):
    assert run(argv) == parse_with_every_option(argv)


# ---------------------------------------------------------------- robustness

@pytest.mark.parametrize("start", [["--t-end", "inf"], ["--t-end", "nan"],
                                   ["--t-end", "10", "--r0", "nan"],
                                   ["--t-end", "10", "--v0", "inf"]])
def test_simulate_non_finite_start_exits_2_without_hanging(start):
    argv = ["simulate", "--mass", "1", "--sigma0", "1", "--r0", "1"] + start
    res = run_process(["-m", "gravreduce.cli"] + argv, timeout=30)
    assert (res.returncode, res.stdout) == (cli.EXIT_CONFIG, "")
    assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1


@pytest.mark.parametrize("law, kind", [("gravity-point", "sphere"), ("mixed-point", "sphere"),
                                       ("gravity-object", "point")])
def test_law_for_the_other_body_kind_is_refused_before_integrating(law, kind):
    argv = ["simulate", "--law", law, "--kind", kind, "--mass", "1", "--sigma0", "1",
            "--r0", "1", "--t-end", "10"]
    if kind == "sphere":
        argv += ["--radius", "1"]
    code, out, err = run(argv)
    assert code == cli.EXIT_CONFIG
    assert out == ""
    assert err.startswith("error: ") and "does not apply" in err and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["tau", "--mass", "1e-200", "--sigma0", "1", "--no-numeric"],
    ["tau", "--mass", "1e200", "--sigma0", "1", "--no-numeric"],
    ["tau", "--mass", "1", "--sigma0", "1e200", "--no-numeric"],
    ["tau", "--mass", "1", "--sigma0", "1e-200", "--no-numeric"],
    ["tau", "--mass", "1e-200", "--sigma0", "1", "--kind", "sphere", "--radius", "1"],
    ["tau", "--mass", "1", "--sigma0", "1", "--kind", "sphere", "--radius", "1e-300"],
])
def test_tau_outside_float_range_is_a_one_line_error(argv):
    code, out, err = run(argv)
    assert code in (cli.EXIT_CONFIG, cli.EXIT_NUMERIC)
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["critical", "--mass", "1e-200", "--sigma0", "1"],
    ["critical", "--mass", "1e200", "--sigma0", "1"],
    ["critical", "--mass", "1e-105", "--sigma0", "1"],      # printed Infinity before
    ["critical", "--mass", "1e-200", "--sigma0", "1", "--kind", "sphere", "--radius", "1"],
    ["sweep", "--sigma0", "1", "--grid", "mass=1e-200:1:3"],
    ["sweep", "--sigma0", "1", "--kind", "sphere", "--radius", "1",
     "--grid", "mass=1:1e200:3", "--format", "json"],
    ["simulate", "--mass", "1", "--sigma0", "1e200", "--r0", "1", "--t-end", "1"],
    # sigma0^3 underflows to zero in the force law's constants
    ["simulate", "--mass", "1", "--sigma0", "1e-120", "--r0", "1e-120", "--t-end", "1e-100"],
    # m * m overflows to inf without raising, and the equilibrium start takes no step
    ["simulate", "--mass", "1e200", "--sigma0", "1", "--r0", "0", "--t-end", "1e-100"],
])
def test_closed_forms_outside_float_range_are_a_one_line_error(argv):
    code, out, err = run(argv)
    assert (code, out) == (cli.EXIT_CONFIG, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "outside the floating-point range" in err


# cli.main in a process whose address space is capped at 1 GiB, so that a
# column too large for memory fails to allocate at once whatever the host has.
CAPPED_MAIN = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from gravreduce.cli import main
sys.exit(main(sys.argv[1:]))
"""


def test_sweep_grid_too_large_for_memory_exits_2(tmp_path, monkeypatch):
    # 1e7 rows, sweep.MAX_ROWS itself: the columns need about 1.4 GB, so
    # under a 1 GiB cap they fail to allocate, and MemoryError is the error.
    pytest.importorskip("resource")
    out = tmp_path / "x.csv"
    argv = ["sweep", "--grid", "mass=1:2:10000", "--grid", "sigma0=1:2:1000",
            "--out", str(out)]
    assert 10000 * 1000 <= sweep.MAX_ROWS
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")     # fewer thread buffers to map
    res = run_process(["-c", CAPPED_MAIN] + argv)
    assert (res.returncode, res.stdout) == (cli.EXIT_CONFIG, "")
    assert res.stderr == ("error: the sweep grid has 10000000 rows, and its columns "
                          "do not fit in memory\n")
    assert not out.exists()


@pytest.mark.parametrize("grids, rows", [
    (["--sigma0", "1", "--grid", "mass=1:2:99999999999999999999"], "99999999999999999999"),
    (["--grid", "mass=1:2:100000", "--grid", "sigma0=1:2:100000"], "10000000000"),
])
def test_sweep_grid_too_large_to_list_exits_2(tmp_path, grids, rows):
    # In a process without a memory cap: a grid of more than sweep.MAX_ROWS
    # rows is refused before any value is listed, where listing the values
    # of the 1e20-point axis would fill memory and never end.
    out = tmp_path / "x.csv"
    res = run_process(["-m", "gravreduce.cli", "sweep", *grids, "--out", str(out)])
    assert (res.returncode, res.stdout) == (cli.EXIT_CONFIG, "")
    assert res.stderr == (f"error: the sweep grid has {rows} rows, and its columns "
                          "do not fit in memory\n")
    assert not out.exists()


@pytest.mark.parametrize("grid", ["mass=1:inf:3", "mass=nan:2:3", "mass=-inf:1:3:lin"])
def test_grid_bounds_must_be_finite(grid):
    code, out, err = run(["sweep", "--sigma0", "1", "--grid", grid])
    assert (code, out) == (cli.EXIT_CONFIG, "")
    assert err == f"error: grid bounds must be finite: {grid!r}\n"


# Sweep input that no row would use: each is refused before any output is opened.
TWICE = "error: grid variable mass is given more than once\n"
RADIUS = "error: --radius only applies to --kind sphere\n"
DROPPED_SWEEP_INPUT = {
    "grid-twice": (["--sigma0", "1", "--grid", "mass=1:2:3", "--grid", "mass=5:6:2"], TWICE),
    "grid-twice-apart": (["--grid", "mass=1:2:2", "--grid", "sigma0=1:3:3",
                          "--grid", "mass=5:6:2"], TWICE),
    "mass-fixed-and-gridded": (
        ["--sigma0", "1", "--mass", "2", "--grid", "mass=1:3:3"],
        "error: mass is both fixed (--mass) and gridded (--grid mass=...)\n"),
    "sigma0-fixed-and-gridded": (
        ["--mass", "1", "--sigma0", "2", "--grid", "sigma0=1:3:3"],
        "error: sigma0 is both fixed (--sigma0) and gridded (--grid sigma0=...)\n"),
    "radius-fixed-and-gridded": (
        ["--kind", "sphere", "--mass", "1", "--sigma0", "1", "--radius", "0.5",
         "--grid", "radius=1:2:2"],
        "error: radius is both fixed (--radius) and gridded (--grid radius=...)\n"),
    "point-radius-fixed": (["--sigma0", "1", "--radius", "3", "--grid", "mass=1:2:2"], RADIUS),
    # 0.0 == False: a radius of zero is given all the same.
    "point-radius-zero": (["--kind", "point", "--sigma0", "1", "--radius", "0",
                           "--grid", "mass=1:2:2"], RADIUS),
    "point-radius-gridded": (["--sigma0", "1", "--grid", "mass=1:2:2",
                              "--grid", "radius=1:2:2"], RADIUS),
    "one-point-grid-with-two-bounds": (["--sigma0", "1", "--grid", "mass=1:3:1"],
                                       "error: a one-point grid requires lo = hi: "
                                       "'mass=1:3:1'\n"),
}


@pytest.mark.parametrize("case", sorted(DROPPED_SWEEP_INPUT))
def test_sweep_refuses_input_it_would_drop(case, tmp_path):
    args, message = DROPPED_SWEEP_INPUT[case]
    out = tmp_path / "sweep.csv"
    code, stdout, err = run(["sweep", *args, "--out", str(out)])
    assert (code, stdout, err) == (cli.EXIT_CONFIG, "", message)
    assert not out.exists()


def test_sweep_refuses_a_config_grid_given_twice(tmp_path):
    config = write_config(tmp_path, "sigma0 = 1\ngrid = mass=1:2:3\ngrid = mass=5:6:2\n")
    code, out, err = run(["sweep", "--config", config])
    assert (code, out, err) == (cli.EXIT_CONFIG, "", TWICE)


# The single-run commands refuse a radius for a point as sweep does, a radius
# of zero (0.0 == False) included.
@pytest.mark.parametrize("radius", ["3", "0"])
@pytest.mark.parametrize("command", ["critical", "simulate", "tau"])
def test_radius_for_a_point_is_refused(command, radius, tmp_path):
    out = tmp_path / "out.txt"
    argv = VALID[command] + ["--kind", "point", "--radius", radius, "--out", str(out)]
    assert run(argv) == (cli.EXIT_CONFIG, "", RADIUS)
    assert not out.exists()


# A model option neither fixed nor gridded is named alike by every command.
@pytest.mark.parametrize("argv, name", [
    (["critical", "--kind", "sphere", "--mass", "1", "--sigma0", "1"], "radius"),
    (["tau", "--kind", "sphere", "--mass", "1", "--sigma0", "1"], "radius"),
    # gravity-object makes the kind a sphere
    (["simulate", "--law", "gravity-object", "--mass", "1", "--sigma0", "1", "--r0", "1",
      "--t-end", "10"], "radius"),
    (["sweep", "--grid", "sigma0=1:2:2"], "mass"),
    (["sweep", "--grid", "mass=1:2:2"], "sigma0"),
    (["sweep", "--kind", "sphere", "--sigma0", "1", "--grid", "mass=1:2:2"], "radius"),
])
def test_a_missing_model_option_is_named(argv, name):
    assert run(argv) == (cli.EXIT_CONFIG, "", f"error: missing required option --{name}\n")


# The model options given to critical, and to sweep with one of them moved
# into a one-point grid: each present, absent or of the wrong sign.
model_value = st.one_of(st.none(), st.floats(1e-3, 1e3), st.floats(-1e3, -1e-3))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(values=st.fixed_dictionaries({"mass": model_value, "sigma0": model_value,
                                     "radius": model_value}),
       kind=st.sampled_from([None, "point", "sphere"]), data=st.data())
def test_critical_and_sweep_check_the_model_alike(values, kind, data):
    given_values = {name: value for name, value in values.items() if value is not None}
    assume(given_values)
    gridded = data.draw(st.sampled_from(sorted(given_values)))
    options = [] if kind is None else ["--kind", kind]
    fixed = {name: value for name, value in given_values.items() if name != gridded}
    critical = run(["critical", *options] + [arg for name, value in given_values.items()
                                             for arg in (f"--{name}", repr(value))])
    point = repr(given_values[gridded])
    sweep = run(["sweep", *options, "--grid", f"{gridded}={point}:{point}:1:lin"]
                + [arg for name, value in fixed.items() for arg in (f"--{name}", repr(value))])
    assert (critical[0], critical[2]) == (sweep[0], sweep[2])
    if critical[0] != cli.EXIT_OK:
        assert critical[0] == cli.EXIT_CONFIG and critical[1] == sweep[1] == ""
        assert critical[2].startswith("error: ") and critical[2].count("\n") == 1



@pytest.mark.parametrize("kind, method", [("point", "force-balance"),
                                          ("sphere", "energy-minimization")])
def test_critical_names_the_route_of_the_body_kind(kind, method):
    radius = ["--radius", "1"] if kind == "sphere" else []
    code, out, err = run(["critical", "--mass", "1", "--sigma0", "1", "--kind", kind, *radius])
    assert (code, err) == (cli.EXIT_OK, "")
    assert json.loads(out)["method"] == method


EXTREMES = ["1e-300", "1e-200", "1e-120", "1e-60", "1", "1e60", "1e120", "1e200", "1e300"]
# What the error names when one of the columns of criticality.report_at
# leaves the floating-point range (a sphere's force-balance width is its
# macro transition width).
REPORT_COLUMNS = ("critical mass", "force-balance critical width", "macro transition width",
                  "energy-minimum critical width", "force ratio", "regime")
# The keys of those columns in critical's report and in a sweep row.
REPORT_KEYS = ("critical_mass", "critical_width_force_balance", "critical_width_energy_min",
               "force_ratio", "regime")


@pytest.mark.parametrize("mass", EXTREMES)
@pytest.mark.parametrize("units", ["dimensionless", "si"])
@pytest.mark.parametrize("kind", ["point", "sphere"])
def test_critical_and_a_one_point_sweep_refuse_alike(kind, units, mass):
    # Both take the report from criticality.report_at, in one column order,
    # and refuse only for one of its columns; where both print, critical's
    # report columns are the sweep row's.  A literature reference value
    # outside the float range is null, in critical and tau alike, and so is
    # every one built from an absent karolyhazy width; tau refuses only for
    # one of its estimates.
    for sigma0 in EXTREMES:
        for radius in EXTREMES if kind == "sphere" else [None]:
            options = ["--kind", kind, "--units", units] + (["--radius", radius] if radius else [])
            tau = run(["tau", "--mass", mass, "--sigma0", sigma0, *options,
                       *(["--no-numeric"] if kind == "point" else [])])
            if tau[0] != cli.EXIT_OK:
                assert "reduction time is outside the floating-point range" in tau[2]
            critical = run(["critical", "--mass", mass, "--sigma0", sigma0, *options])
            sweep = run(["sweep", "--mass", mass, "--grid", f"sigma0={sigma0}:{sigma0}:1:lin",
                         *options, "--format", "json"])
            if critical[0] != cli.EXIT_OK:
                assert any(critical[2].startswith(f"error: {name} is outside")
                           for name in REPORT_COLUMNS), (sigma0, radius, critical[2])
                assert sweep == critical, (sigma0, radius)
                continue
            report = json.loads(critical[1])
            if sweep[0] == cli.EXIT_OK:
                table = json.loads(sweep[1])
                row = dict(zip(table["columns"], table["rows"][0]))
                assert [row[key] for key in REPORT_KEYS] == [report[key] for key in REPORT_KEYS]
            refs = report["reference_values"]
            assert refs == criticality.reference_formulas(
                float(mass), getattr(PhysicalContext, units)(), radius and float(radius))
            if refs["karolyhazy_width"] is None:
                assert set(refs.values()) == {None}
            if tau[0] == cli.EXIT_OK:
                assert json.loads(tau[1])["reference_values"] == refs


@pytest.mark.parametrize("fmt, absent", [("json", '"karolyhazy_time": null\n'),
                                         ("csv", "\nreference_values.karolyhazy_time,\n")])
def test_an_absent_reference_value_is_null_or_an_empty_csv_value(fmt, absent):
    code, out, err = run(["critical", "--mass", "1e-60", "--sigma0", "1e-60", "--format", fmt])
    assert (code, err) == (cli.EXIT_OK, "")
    assert absent in out and out.count("karolyhazy_width") == 1


# A sphere has no quarter-period-numeric estimate to leave out.
NO_NUMERIC = "error: --no-numeric only applies to --kind point\n"
TAU_SPHERE = ["tau", "--mass", "1", "--sigma0", "1", "--kind", "sphere", "--radius", "0.5"]


def test_tau_refuses_no_numeric_for_a_sphere(tmp_path):
    out = tmp_path / "tau.json"
    assert run(TAU_SPHERE + ["--no-numeric", "--out", str(out)]) == (
        cli.EXIT_CONFIG, "", NO_NUMERIC)
    assert not out.exists()


@pytest.mark.parametrize("line, refused", [("no_numeric = true", True),
                                           ("no-numeric = off", False)])
def test_tau_refuses_no_numeric_for_a_sphere_from_a_config_file(line, refused, tmp_path):
    config = write_config(tmp_path, line + "\n")
    out = tmp_path / "tau.json"
    code, stdout, err = run(TAU_SPHERE + ["--config", config, "--out", str(out)])
    assert (code, stdout, err) == ((cli.EXIT_CONFIG, "", NO_NUMERIC) if refused
                                   else (cli.EXIT_OK, "", ""))
    assert out.exists() is not refused


SIMULATE = ["simulate", "--mass", "1", "--sigma0", "1", "--r0", "1", "--t-end", "10"]


@pytest.mark.parametrize("start", [["--r0", "5e-324"], ["--r0", "0", "--v0", "5e-324"]])
def test_simulate_refuses_a_subnormal_start(start, tmp_path):
    # Not refused, the first wrote 10,001 v-zero events over 9,997 tiled
    # legs, the second 197,782 samples.
    out = tmp_path / "traj.csv"
    code, stdout, err = run(["simulate", "--mass", "1", "--sigma0", "1", *start,
                             "--t-end", "100", "--out", str(out)])
    assert (code, stdout) == (cli.EXIT_CONFIG, "")
    assert err.startswith("error: ") and "subnormal" in err and err.count("\n") == 1
    assert not out.exists()


def test_simulate_reports_the_solver_effort(tmp_path):
    code, out, err = run(SIMULATE + ["--format", "json", "--rtol", "1e-8"])
    payload = json.loads(out)
    assert (code, err) == (cli.EXIT_OK, "")
    assert list(payload) == ["law", "events", "period", "energy_drift", "solver",
                             "units", "samples"]
    solver = payload["solver"]
    assert (solver["method"], solver["rtol"], solver["atol"]) == ("DOP853", 1e-8, 1e-12)
    assert solver["t_char"] == 1.0
    t = payload["samples"]["t"]
    assert solver["samples"] == len(t)
    # From rest over 10 characteristic times, the run is stepped in three
    # pieces and tiles no leg: to its first turning point, over one leg to the
    # second, and from there to t_end.  So every sample ends a step.
    assert (solver["legs_tiled"], solver["steps"]) == (0, len(t) - 1)
    turns = [e["time"] for e in payload["events"] if e["kind"] == "v-zero" and e["time"] > 0]
    assert len(turns) == 2
    # One force call at the start of each piece, 12 per attempted step, and 3
    # more for the dense output of each step in which an event fires; the two
    # pieces that start at rest at a turning point fire a v = 0 root at their
    # start, which is not an event of the run.
    event_steps = {max(1, bisect.bisect_left(t, e["time"])) for e in payload["events"]}
    event_steps |= {bisect.bisect_left(t, turn) + 1 for turn in turns}
    assert solver["nfev"] == (3 + 12 * (solver["steps"] + solver["rejected"])
                              + 3 * len(event_steps))

    csv_path = str(tmp_path / "traj.csv")
    assert run(SIMULATE + ["--rtol", "1e-8", "--out", csv_path])[0] == cli.EXIT_OK
    sidecar = json.loads(Path(csv_path + ".events.json").read_text())
    assert sidecar["solver"] == solver
    assert sidecar["events"] == payload["events"]


@pytest.mark.parametrize("flags,message", [
    (["--rtol", "0"], "tolerances must be positive and finite"),
    (["--atol", "0"], "tolerances must be positive and finite"),
    # An infinite tolerance turns the error control off, and JSON has no Infinity.
    (["--rtol", "inf"], "tolerances must be positive and finite"),
    (["--atol", "inf"], "tolerances must be positive and finite"),
    (["--rtol", "1e-20", "--atol", "1e-30"],
     "rtol must be at least 2.22e-14, 100 times the double-precision epsilon"),
])
def test_simulate_tolerance_out_of_range_exits_2(flags, message):
    code, out, err = run(SIMULATE + flags)
    assert (code, out, err) == (cli.EXIT_CONFIG, "", f"error: {message}\n")


@pytest.mark.parametrize("t_end", ["0", "-1"])
def test_simulate_t_end_must_be_positive(t_end):
    code, out, err = run(["simulate", "--mass", "1", "--sigma0", "1", "--r0", "1",
                          "--t-end", t_end])
    assert (code, out, err) == (cli.EXIT_CONFIG, "", "error: t_end must be positive\n")


@pytest.mark.parametrize("outputs", [["--format", "json", "--out", "traj.json"], []])
def test_gnuplot_script_without_a_csv_out_is_refused(outputs, tmp_path):
    script = tmp_path / "plot.gp"
    outputs = [str(tmp_path / arg) if arg.endswith(".json") else arg for arg in outputs]
    code, out, err = run(SIMULATE + outputs + ["--gnuplot-script", str(script)])
    assert (code, out) == (cli.EXIT_CONFIG, "")
    assert err.startswith("error: --gnuplot-script ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("script", ["./traj.csv", "traj.csv.events.json"])
def test_gnuplot_script_naming_an_output_is_refused(script, tmp_path):
    # The script would overwrite the CSV it plots, or its events sidecar.
    code, out, err = run(SIMULATE + ["--out", str(tmp_path / "traj.csv"),
                                     "--gnuplot-script", f"{tmp_path}/{script}"])
    assert (code, out) == (cli.EXIT_CONFIG, "")
    assert err == ("error: --gnuplot-script names the --out file or its .events.json "
                   "sidecar, which it would overwrite\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("name, quoted", [("traj.csv", "traj.csv"), ("a'b.csv", "a''b.csv")])
def test_gnuplot_script_plots_the_csv_out(name, quoted, tmp_path):
    # gnuplot reads '' as one quote inside a single-quoted string.
    csv_path, script = tmp_path / name, tmp_path / "plot.gp"
    code, _, err = run(SIMULATE + ["--out", str(csv_path), "--gnuplot-script", str(script)])
    assert (code, err) == (cli.EXIT_OK, "")
    assert csv_path.exists()
    assert script.read_text() == (
        "set datafile separator ','\nset xlabel 't'\nset ylabel 'r(t)'\n"
        f"plot '{tmp_path}/{quoted}' every ::1 using 1:2 with lines title 'r(t)'\n")


@pytest.mark.parametrize("command, where", [(command, where) for command in sorted(VALID)
                                             for where in ("missing/out.txt", None)]
                         + [("critical", "")])
def test_unwritable_out_exits_2(command, where, tmp_path, monkeypatch):
    # A path under a missing directory, the directory itself, or the empty
    # path (None), once read as no --out: the output went to stdout, and
    # simulate's events sidecar to .events.json in the working directory.
    monkeypatch.chdir(tmp_path)
    path = "" if where is None else str(tmp_path / where)
    code, out, err = run(VALID[command] + ["--out", path])
    reason = "Is a directory" if where == "" else "No such file or directory"
    assert (code, out, err) == (cli.EXIT_CONFIG, "", f"error: cannot write {path}: {reason}\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", sorted(VALID))
def test_config_empty_out_is_an_unwritable_path(command, tmp_path, monkeypatch):
    # As --out "" above: the line ``out =`` names the empty path, not stdout.
    monkeypatch.chdir(tmp_path)
    code, out, err = run(VALID[command] + ["--config", write_config(tmp_path, "out =\n")])
    assert (code, out, err) == (cli.EXIT_CONFIG, "",
                                "error: cannot write : No such file or directory\n")
    assert [path.name for path in tmp_path.iterdir()] == ["run.cfg"]


@pytest.mark.parametrize("path", ["missing.cfg", ""])
def test_unreadable_config_exits_2(path, tmp_path, monkeypatch):
    # The empty path was once read as no --config: the run went on without one.
    monkeypatch.chdir(tmp_path)
    code, out, err = run(VALID["critical"] + ["--config", path])
    assert (code, out) == (cli.EXIT_CONFIG, "")
    assert err.startswith("error: cannot read config file: ") and err.count("\n") == 1


@pytest.mark.parametrize("where", ["missing/plot.gp", None])
def test_unwritable_gnuplot_script_exits_2(where, tmp_path):
    # The empty path (None) was once read as no script: the run exited 0
    # and wrote none.  The CSV and its sidecar, once left behind, are gone.
    csv_path = tmp_path / "traj.csv"
    script = "" if where is None else str(tmp_path / where)
    code, out, err = run(SIMULATE + ["--out", str(csv_path), "--gnuplot-script", script])
    assert (code, out) == (cli.EXIT_CONFIG, "")
    assert err == f"error: cannot write {script}: No such file or directory\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("full", ["traj.csv", "traj.csv.events.json", "plot.gp"])
def test_failed_write_is_named_and_leaves_no_output(full, tmp_path):
    # Every output opens, and the write of the one linked to /dev/full fails:
    # the error names that one, not the last one opened, and the files the
    # run created go, those written before the failure included.
    (tmp_path / full).symlink_to("/dev/full")
    code, out, err = run(SIMULATE + ["--out", str(tmp_path / "traj.csv"),
                                     "--gnuplot-script", str(tmp_path / "plot.gp")])
    assert (code, out) == (cli.EXIT_CONFIG, "")
    assert err == f"error: cannot write {tmp_path / full}: No space left on device\n"
    assert list(tmp_path.iterdir()) == [tmp_path / full]


@pytest.mark.parametrize("command", ["critical", "simulate", "tau", "sweep"])
def test_units_choices_are_the_unit_systems(command):
    actions = cli.build_parser(command).parse_args([command]).parser._actions
    units = next(a for a in actions if "--units" in a.option_strings)
    assert units.choices == [u.value for u in UnitSystem]


def test_stdout_closed_early_exits_2_with_one_line():
    # About 5 MB of rows: far more than the pipe holds, so the child is still
    # writing when the reader goes away.
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    argv = ["sweep", "--grid", "mass=1:2:20000", "--sigma0", "1"]
    proc = subprocess.Popen([sys.executable, "-m", "gravreduce.cli", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    assert proc.stdout.readline().startswith("# units: ")
    proc.stdout.close()
    with proc.stderr:
        err = proc.stderr.read()
    assert proc.wait(timeout=SUBPROCESS_TIMEOUT_S) == cli.EXIT_CONFIG
    assert err == "error: cannot write stdout: Broken pipe\n"


@pytest.mark.parametrize("argv,stdout", [
    # stdout and stderr share one pipe: the rows fail first, then the error line
    (["sweep", "--sigma0", "1", "--grid", "mass=1:2:3000"], "shared"),
    (["critical", "--mass", "-1", "--sigma0", "1"], "devnull"),
])
def test_stderr_closed_early_keeps_the_exit_code(argv, stdout):
    # A write of the error line to a closed pipe raised BrokenPipeError in
    # main's handler, and the process exited 1, the code of a failed verify.
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        out = write_end if stdout == "shared" else subprocess.DEVNULL
        proc = subprocess.run([sys.executable, "-m", "gravreduce.cli", *argv], env=env,
                              stdout=out, stderr=write_end, timeout=SUBPROCESS_TIMEOUT_S)
    finally:
        os.close(write_end)
    assert proc.returncode == cli.EXIT_CONFIG


# A child that runs a process entry with an atexit hook, which runs once the
# entry has exited and before the interpreter's shutdown collections, and
# writes gc.get_freeze_count() to the file named by argv[1].  The entry is
# the module run as __main__ (python -m gravreduce.cli), or the
# [project.scripts] target called as an installed console script calls it.
ENTRY_PROBE = """
import atexit, gc, importlib, runpy, sys
path, target = sys.argv.pop(1), sys.argv.pop(1)

def report():
    with open(path, "w") as fh:
        fh.write(str(gc.get_freeze_count()))

atexit.register(report)
if target == "-m":
    runpy.run_module("gravreduce.cli", run_name="__main__", alter_sys=True)
else:
    module, _, name = target.partition(":")
    sys.exit(getattr(importlib.import_module(module), name)())
"""
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
ENTRY_RUNS = {
    "valid": VALID["critical"],
    "refused": ["sweep", "--sigma0", "1", "--grid", "mass=1:2:2", "--radius", "1"],
    "argparse error": ["critical", "--mass", "1", "--no-such-option"],
}


def console_script_target():
    """The ``gravreduce`` target of pyproject.toml's [project.scripts]."""
    text = PYPROJECT.read_text()
    section = text.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    for line in section.splitlines():
        key, _, value = line.partition("=")
        if key.strip() == "gravreduce":
            return value.strip().strip('"')
    raise AssertionError("pyproject.toml names no gravreduce console script")


@pytest.mark.parametrize("run_name", sorted(ENTRY_RUNS))
@pytest.mark.parametrize("entry", ["-m", "console script"])
def test_the_process_entry_freezes_the_heap_before_exit(entry, run_name, tmp_path):
    argv = ENTRY_RUNS[run_name]
    target = "-m" if entry == "-m" else console_script_target()
    count = tmp_path / "freeze_count"
    probed = run_process(["-c", ENTRY_PROBE, str(count), target, *argv])
    plain = run_process(["-m", "gravreduce.cli", *argv])
    assert (probed.returncode, probed.stdout, probed.stderr) == (
        plain.returncode, plain.stdout, plain.stderr)
    assert plain.returncode == {"valid": 0}.get(run_name, cli.EXIT_CONFIG)
    if run_name == "refused":
        assert plain.stderr.startswith("error: ") and plain.stderr.count("\n") == 1
    assert int(count.read_text()) > 0


@pytest.mark.parametrize("enabled", [True, False], ids=["gc enabled", "gc disabled"])
@pytest.mark.parametrize("frozen", [False, True], ids=["nothing frozen", "heap frozen"])
def test_main_in_process_leaves_the_collector_as_it_was(enabled, frozen, tmp_path):
    # The sweep to a file forks its row writer; the child leaves by os._exit.
    runs = [*VALID.values(),
            ["sweep", "--sigma0", "1", "--grid", "mass=0.1:10:40", "--out", str(tmp_path / "s")]]
    was_enabled = gc.isenabled()
    if not enabled:
        gc.disable()
    if frozen:
        gc.freeze()
    try:
        before = gc.get_freeze_count()
        for argv in runs:
            assert run(argv)[0] == cli.EXIT_OK, argv
            assert (gc.isenabled(), gc.get_freeze_count()) == (enabled, before), argv
    finally:
        if frozen:
            gc.unfreeze()
        if was_enabled:
            gc.enable()


# The mixed-point law has one form: its printed sigma0^2 variant is gone.
def test_printed_mixed_variant_option_exits_2():
    code, out, err = run(SIMULATE + ["--law", "mixed-point", "--printed-mixed-variant"])
    assert (code, out) == (cli.EXIT_CONFIG, "")
    assert "unrecognized arguments: --printed-mixed-variant" in err
    assert "Traceback" not in err


def test_printed_mixed_variant_config_key_exits_2(tmp_path):
    config = write_config(tmp_path, "printed_mixed_variant = true\n")
    assert run(SIMULATE + ["--law", "mixed-point", "--config", config]) == (
        cli.EXIT_CONFIG, "", "error: unknown config key: printed_mixed_variant\n")


def test_simulate_t_end_beyond_budget_exits_2_at_once():
    argv = ["simulate", "--mass", "1", "--sigma0", "1", "--r0", "1", "--t-end", "1e300"]
    res = run_process(["-m", "gravreduce.cli"] + argv, timeout=5)
    assert (res.returncode, res.stdout) == (cli.EXIT_CONFIG, "")
    assert res.stderr.startswith("error: t_end is ") and res.stderr.count("\n") == 1


def test_step_budget_is_in_characteristic_times():
    ctx = PhysicalContext.dimensionless()
    law = dynamics.ForceLaw(LawKind.GRAVITY_POINT, WavePacket(4.0), Body.point(1.0), ctx)
    limit = dynamics.MAX_CHARACTERISTIC_TIMES * law.characteristic_time()
    assert limit == 8.0 * dynamics.MAX_CHARACTERISTIC_TIMES
    with pytest.raises(DomainError, match="characteristic times"):
        dynamics.integrate(law, r0=4.0, v0=0.0, t_end=1.01 * limit)
    # runs of 1000 characteristic times stay well inside the budget
    assert dynamics.MAX_CHARACTERISTIC_TIMES >= 10 * 1000


def test_tau_runs_no_integration(monkeypatch):
    def integrate(*args, **kwargs):
        raise AssertionError("tau integrated a trajectory")

    monkeypatch.setattr(dynamics, "integrate", integrate)
    code, out, err = run(["tau", "--mass", "1", "--sigma0", "1"])
    assert (code, err) == (cli.EXIT_OK, "")
    numeric = [e for e in json.loads(out)["estimates"]
               if e["method"] == "quarter-period-numeric"]
    assert numeric == [{"method": "quarter-period-numeric",
                        "tau": criticality.QUARTER_PERIOD_POINT,
                        "assumptions": "first origin crossing from rest at r0 = sigma0"}]


# ---------------------------------------------------------------- modules loaded, lazy quadrature nodes

SCIPY_MODULES = """
import sys


def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
"""

IMPORT_PROBE = SCIPY_MODULES + """
import contextlib, io, json
import gravreduce.cli as cli
from gravreduce import potentials


def state():
    return {"scipy": scipy_modules(), "numpy": "numpy" in sys.modules,
            "dataclasses": "dataclasses" in sys.modules, "inspect": "inspect" in sys.modules,
            "gauss_nodes_built": potentials._gauss_pair.cache_info().currsize > 0,
            "stepper": "gravreduce.dop853" in sys.modules}


loaded = {"import": state()}
for name, argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, name
    loaded[name] = state()
print(json.dumps(loaded))
"""

# The closed-form commands run on Python floats and load no numpy.
CLOSED_FORM_RUNS = [
    ("critical", ["critical", "--mass", "1", "--sigma0", "1"]),
    ("tau point --no-numeric", ["tau", "--mass", "1", "--sigma0", "1", "--no-numeric"]),
    ("tau sphere", ["tau", "--mass", "1", "--sigma0", "1", "--kind", "sphere",
                    "--radius", "0.5"]),
    ("tau point numeric", ["tau", "--mass", "1", "--sigma0", "1"]),
]
# sweep, whose closed forms run over its grid, runs in a process of its own.
SWEEP_RUN = ("sweep", ["sweep", "--sigma0", "1", "--grid", "mass=0.1:10:3"])
# verify, the one command that builds the quadrature nodes, runs in a process
# of its own too; its rule and battery run on Python floats.
VERIFY_RUN = ("verify --quick", ["verify", "--quick"])
LAWS = {"gravity-point": [], "mixed-point": [], "gravity-object": ["--radius", "0.5"]}
# Each law, over enough time for a period, and the runs whose mapping has an
# edge: a period of null (one turning point, at the start), an escape, and no
# events at all.
MAPPING_RUNS = {**{law: SIMULATE[:-1] + ["40", "--law", law] + extra
                   for law, extra in LAWS.items()},
                "no period": SIMULATE[:-1] + ["1"],
                "escape": SIMULATE[:-2] + ["--v0", "5", "--t-end", "50"],
                "equilibrium": SIMULATE[:-4] + ["--r0", "0", "--t-end", "10"]}


def _refuse_constant(name):
    raise AssertionError(f"{name} is not JSON")


@pytest.mark.parametrize("name", sorted(MAPPING_RUNS))
def test_simulate_mapping_is_what_json_dumps_writes(name, tmp_path):
    # simulate writes its events sidecar and its JSON head without the json
    # module; both must be json.dumps(..., indent=2) bytes, with no NaN or
    # Infinity, which strict parsers refuse.
    argv, csv_path = MAPPING_RUNS[name], tmp_path / "traj.csv"
    assert run(argv + ["--out", str(csv_path)]) == (cli.EXIT_OK, "", "")
    code, out, err = run(argv + ["--format", "json"])
    assert (code, err) == (cli.EXIT_OK, "")
    sidecar = Path(f"{csv_path}.events.json").read_text()
    for text in (sidecar, out):
        assert text == json.dumps(json.loads(text, parse_constant=_refuse_constant),
                                  indent=2) + "\n"
    payload = json.loads(out)
    assert list(payload)[-2:] == ["units", "samples"]
    del payload["units"], payload["samples"]
    assert payload == json.loads(sidecar)
    kinds = {e["kind"] for e in payload["events"]}
    assert (payload["period"] is None) == (name in ("no period", "escape", "equilibrium"))
    assert ("escape" in kinds) == (name == "escape")
    assert (kinds == set()) == (name == "equilibrium")


def simulate_runs(outdir):
    """Every law, written as CSV to stdout, as JSON, and as CSV to --out with
    a gnuplot script."""
    runs = []
    for law, extra in LAWS.items():
        argv = SIMULATE + ["--law", law] + extra
        csv_out = ["--out", str(outdir / f"{law}.csv"),
                   "--gnuplot-script", str(outdir / f"{law}.gp")]
        runs += [(f"simulate {law} csv", argv),
                 (f"simulate {law} json", argv + ["--format", "json"]),
                 (f"simulate {law} csv --out --gnuplot-script", argv + csv_out)]
    return runs


@pytest.fixture(scope="module")
def command_probe(tmp_path_factory):
    # Fresh interpreters: other test modules import scipy and numpy here.
    # The closed-form and simulate runs share one, each state taken after its
    # command, so a module loaded by any of them shows in the states of those
    # after it.
    states = {}
    shared = CLOSED_FORM_RUNS + simulate_runs(tmp_path_factory.mktemp("probe"))
    for runs in [shared, [SWEEP_RUN], [VERIFY_RUN]]:
        res = run_process(["-c", IMPORT_PROBE, json.dumps(runs)])
        assert res.returncode == 0, res.stderr
        states.update(json.loads(res.stdout))
    return states


def test_closed_form_commands_do_not_load_scipy_integrate(command_probe):
    # No command, verify included, loads any scipy module: the quadrature
    # and the ODE stepper are the package's own.
    assert {name: state["scipy"] for name, state in command_probe.items()} == {
        name: [] for name in command_probe}
    # Positive control: the same probe sees scipy.integrate in a process that
    # imports it.
    res = run_process(["-c", SCIPY_MODULES + "import scipy.integrate\nprint(scipy_modules())"])
    assert res.returncode == 0, res.stderr
    assert "'scipy.integrate'" in res.stdout


def test_no_command_loads_numpy(command_probe):
    # Importing the CLI, critical, the three tau runs, all nine simulate runs,
    # sweep and verify leave numpy unloaded: every closed form runs on Python
    # floats, over a sweep's grid too.
    loaded = {name: state["numpy"] for name, state in command_probe.items()}
    assert sum(name.startswith("simulate ") for name in loaded) == 3 * len(LAWS)
    assert set(dict(CLOSED_FORM_RUNS + [SWEEP_RUN, VERIFY_RUN])) <= set(loaded)
    assert not any(loaded.values()), loaded
    # Positive control: the same probe sees numpy, and the inspect it
    # imports, in a process that imports it.
    res = run_process(["-c", "import numpy\n" + IMPORT_PROBE, "[]"])
    assert res.returncode == 0, res.stderr
    state = json.loads(res.stdout)["import"]
    assert state["numpy"] is True and state["inspect"] is True


def test_no_command_loads_dataclasses_or_inspect(command_probe):
    # The records are built without dataclasses, which imports inspect, and
    # no command loads numpy, which imports it too.
    assert not any(state["dataclasses"] for state in command_probe.values())
    assert not any(state["inspect"] for state in command_probe.values())


def test_only_integrating_commands_load_the_stepper(command_probe):
    # critical, tau and sweep do not compile the DOP853 module; simulate and
    # verify's energy checks load it.
    loaded = {name: state["stepper"] for name, state in command_probe.items()}
    assert loaded == {name: name.startswith(("simulate ", "verify")) for name in loaded}


def test_only_verify_builds_the_gauss_nodes(command_probe):
    built = {name: state["gauss_nodes_built"] for name, state in command_probe.items()}
    assert built.pop("verify --quick")
    assert not any(built.values()), built


# Runs argv through cli.main in a fresh interpreter, then prints the exit code
# and every loaded module.  It imports nothing the CLI might not: json, for
# one, would hide the CLI's own import of it.
MODULE_PROBE = """
import io, sys

stdout, sys.stdout = sys.stdout, io.StringIO()
from gravreduce.cli import main

code = main(sys.argv[1:])
sys.stdout = stdout
print(code, *sorted(sys.modules))
"""


@pytest.fixture(scope="module")
def fresh_modules():
    """modules(argv, *flags): the modules a fresh interpreter started with
    ``flags`` has loaded after running argv; each run is made once."""
    seen = {}

    def modules(argv, *flags):
        key = (*flags, "--", *argv)
        if key not in seen:
            res = run_process([*flags, "-c", MODULE_PROBE, *argv])
            assert res.returncode == 0, res.stderr
            code, *loaded = res.stdout.split()
            assert code == "0", argv
            seen[key] = set(loaded)
        return seen[key]
    return modules


# What critical and tau run: the closed forms, and the CLI around them.
CLOSED_FORM_MODULES = {"gravreduce", "gravreduce.cli", "gravreduce.core", "gravreduce.errors",
                       "gravreduce.criticality"}
POINT_LAW_MODULES = (CLOSED_FORM_MODULES - {"gravreduce.criticality"}
                     | {"gravreduce.dynamics", "gravreduce.dop853", "gravreduce.minimize",
                        "gravreduce.simulate"})
# verify runs every module but the two that hold the sweep and simulate commands
# and the grids that only sweep builds.
VERIFY_MODULES = (CLOSED_FORM_MODULES
                  | {f"gravreduce.{name}" for name in ("dynamics", "dop853", "potentials",
                                                       "averages", "minimize", "verify")})
MODULE_SETS = (
    [(name, argv, CLOSED_FORM_MODULES) for name, argv in CLOSED_FORM_RUNS]
    + [(f"simulate {law}", SIMULATE + ["--law", law] + extra,
        POINT_LAW_MODULES | ({"gravreduce.potentials"} if law == "gravity-object" else set()))
       for law, extra in LAWS.items()]
    + [(*SWEEP_RUN, CLOSED_FORM_MODULES | {"gravreduce.grid", "gravreduce.sweep"}),
       (*VERIFY_RUN, VERIFY_MODULES)]
    # the --config reader, for a run that names a file ({config}: mass = 1, sigma0 = 1)
    + [("critical --config", ["critical", "--config", "{config}"],
        CLOSED_FORM_MODULES | {"gravreduce.config"}),
       ("simulate --config", SIMULATE + ["--config", "{config}"],
        POINT_LAW_MODULES | {"gravreduce.config"})])


@pytest.mark.parametrize("argv, modules", [case[1:] for case in MODULE_SETS],
                         ids=[case[0] for case in MODULE_SETS])
def test_each_command_loads_only_the_modules_it_runs(argv, modules, fresh_modules, tmp_path):
    # A fresh interpreter per command: the set is exactly what it imported.
    # critical and tau compile no module of the trajectories, the averages,
    # the minimizer, the potentials, the grids, the sweep or simulate; a
    # point-law simulate none of the closed forms or the potentials, but the
    # minimizer's module, whose bisection finds its event roots; sweep
    # neither dynamics nor dop853; verify neither the grids, the sweep nor
    # the simulate module.  Only a run with --config loads its reader.
    config = write_config(tmp_path, "mass = 1\nsigma0 = 1\n")
    loaded = {m for m in fresh_modules([arg.replace("{config}", config) for arg in argv])
              if m.split(".")[0] == "gravreduce"}
    assert loaded == modules
    assert ("gravreduce.config" in loaded) == ("--config" in argv)


# Each is run with --format csv, and with --format json as the positive
# control, but for simulate, which writes JSON from its own template.
FORMAT_RUNS = {
    "critical": ["critical", "--mass", "1", "--sigma0", "1"],
    "tau": ["tau", "--mass", "1", "--sigma0", "1"],
    "tau sphere": ["tau", "--mass", "1", "--sigma0", "1", "--kind", "sphere", "--radius", "0.5"],
    "sweep": SWEEP_RUN[1],
    "simulate to stdout": SIMULATE,
}


@pytest.mark.parametrize("name", sorted(FORMAT_RUNS))
def test_csv_runs_load_no_json(name, fresh_modules):
    argv = FORMAT_RUNS[name]
    assert "json" not in fresh_modules(argv + ["--format", "csv"])
    assert ("json" in fresh_modules(argv + ["--format", "json"])) == (argv[0] != "simulate")


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_simulate_loads_no_json_writing_files(fmt, tmp_path, fresh_modules):
    # A CSV --out adds the .events.json sidecar, which simulate writes from
    # its template too.
    out = tmp_path / f"traj.{fmt}"
    assert "json" not in fresh_modules(SIMULATE + ["--format", fmt, "--out", str(out)])
    assert Path(f"{out}.events.json").exists() == (fmt == "csv")


NUMPY_FREE_RUNS = [("critical", CLOSED_FORM_RUNS[0][1]), ("tau", CLOSED_FORM_RUNS[-1][1])] + [
    (f"simulate {law}", SIMULATE + ["--law", law] + extra) for law, extra in LAWS.items()] + [
    SWEEP_RUN, VERIFY_RUN]


@pytest.mark.parametrize("argv", [argv for _, argv in NUMPY_FREE_RUNS],
                         ids=[name for name, _ in NUMPY_FREE_RUNS])
def test_numpy_free_commands_load_no_typing(argv, fresh_modules):
    # Under -S no .pth file can have loaded typing before the command runs;
    # the package annotates with collections.abc.
    assert "typing" not in fresh_modules(argv, "-S")


def test_no_module_imports_the_cli():
    # Under python -m gravreduce.cli that module is __main__, so an import of
    # gravreduce.cli would compile and run it a second time.
    for path in Path(cli.__file__).parent.glob("*.py"):
        imported = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                imported.add(base)
                imported.update(f"{base}.{alias.name}".lstrip(".") for alias in node.names)
        assert not imported & {"cli", "gravreduce.cli"}, path.name


def test_no_module_imports_a_name_it_never_uses():
    # A name bound by an import must be read in the module, or listed in its
    # __all__, or its import line must say "# noqa: F401".
    for path in Path(cli.__file__).parent.glob("*.py"):
        lines = path.read_text().splitlines()
        tree = ast.parse("\n".join(lines))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                used.update(ast.literal_eval(node.value))
        unused = []
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or (
                    isinstance(node, ast.ImportFrom) and node.module == "__future__"):
                continue
            if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                if name not in used:
                    unused.append(name)
        assert not unused, (path.name, unused)
