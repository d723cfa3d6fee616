"""Command-line contract: exit codes, stderr, the --config merge, the
per-subcommand parser against the full one, unwritable outputs, the simulate
outputs, that no command loads scipy, dataclasses or numpy.random or builds
the quadrature nodes before it needs them, that only the commands that build
arrays load numpy and inspect, and that CSV runs load no json."""

import ast
import bisect
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

import gravreduce
from gravreduce import cli, criticality, dynamics, simulate
from gravreduce.core import Body, PhysicalContext, WavePacket
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


def test_missing_required_option_exits_2():
    code, _, err = run(["critical", "--mass", "1"])
    assert code == cli.EXIT_CONFIG
    assert err == "error: missing required option --sigma0\n"


def test_verify_negative_control_exits_1():
    code, out, err = run(["verify", "--quick", "--perturb", "1e-6"])
    report = json.loads(out)
    assert (code, err) == (cli.EXIT_VERIFY_FAILED, "")
    assert (report["n_checks"], report["n_failed"]) == (27, 9)


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
    base = [command] + [arg for name, given in PARITY_BASE[command].items() if name != key
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
    # 1e10 rows: a full-grid column alone needs 74.5 GiB.
    pytest.importorskip("resource")
    out = tmp_path / "x.csv"
    argv = ["sweep", "--grid", "mass=1:2:100000", "--grid", "sigma0=1:2:100000",
            "--out", str(out)]
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")     # fewer thread buffers to map
    res = run_process(["-c", CAPPED_MAIN] + argv)
    assert (res.returncode, res.stdout) == (cli.EXIT_CONFIG, "")
    assert res.stderr == ("error: the sweep grid has 10000000000 rows, and its columns "
                          "do not fit in memory\n")
    assert not out.exists()


@pytest.mark.parametrize("grid", ["mass=1:inf:3", "mass=nan:2:3", "mass=-inf:1:3:lin"])
def test_grid_bounds_must_be_finite(grid):
    code, out, err = run(["sweep", "--sigma0", "1", "--grid", grid])
    assert (code, out) == (cli.EXIT_CONFIG, "")
    assert err == f"error: grid bounds must be finite: {grid!r}\n"


SIMULATE = ["simulate", "--mass", "1", "--sigma0", "1", "--r0", "1", "--t-end", "10"]


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
    (["--rtol", "0"], "tolerances must be positive"),
    (["--atol", "0"], "tolerances must be positive"),
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


def test_gnuplot_script_plots_the_csv_out(tmp_path):
    csv_path, script = tmp_path / "traj.csv", tmp_path / "plot.gp"
    code, _, err = run(SIMULATE + ["--out", str(csv_path), "--gnuplot-script", str(script)])
    assert (code, err) == (cli.EXIT_OK, "")
    assert f"plot '{csv_path}' " in script.read_text()


@pytest.mark.parametrize("command, where", [(command, "missing/out.txt") for command in sorted(VALID)]
                         + [("critical", "")])
def test_unwritable_out_exits_2(command, where, tmp_path):
    # A path under a missing directory, or the directory itself.
    path = tmp_path / where
    code, out, err = run(VALID[command] + ["--out", str(path)])
    reason = "No such file or directory" if where else "Is a directory"
    assert (code, out, err) == (cli.EXIT_CONFIG, "", f"error: cannot write {path}: {reason}\n")


def test_unwritable_gnuplot_script_exits_2(tmp_path):
    csv_path, script = tmp_path / "traj.csv", tmp_path / "missing" / "plot.gp"
    code, out, err = run(SIMULATE + ["--out", str(csv_path), "--gnuplot-script", str(script)])
    assert (code, out) == (cli.EXIT_CONFIG, "")
    assert err == f"error: cannot write {script}: No such file or directory\n"


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
    err = proc.stderr.read()
    assert proc.wait(timeout=SUBPROCESS_TIMEOUT_S) == cli.EXIT_CONFIG
    assert err == "error: cannot write stdout: Broken pipe\n"


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


def test_trajectory_writers_are_the_per_value_formatting():
    # Over 40 t_char the run is tiled with reversed legs, which end on
    # v = -0.0 and start from v = 0.0: one dict key, formatted apart.
    ctx = PhysicalContext.dimensionless()
    law = dynamics.ForceLaw.gravity_point(WavePacket(1.0), Body.point(1.0), ctx)
    traj = dynamics.integrate(law, r0=1.0, v0=0.0, t_end=40.0)
    assert traj.legs_tiled > 2
    assert {repr(v) for v in traj.v if v == 0.0} == {"0.0", "-0.0"}
    rows = [f"{cli._fmt(float(traj.t[i]))},{cli._fmt(float(traj.r[i]))},"
            f"{cli._fmt(float(traj.v[i]))},{cli._fmt(float(traj.energy[i]))}\n"
            for i in range(len(traj.t))]
    columns = simulate.sample_columns(traj)
    expected = cli._units_comment(ctx) + "t,r,v,energy\n" + "".join(rows)
    assert simulate.trajectory_csv(columns, cli._units_comment(ctx)) == expected
    payload = {"law": law.kind.value, "period": None, "solver": {"rtol": 1e-9}, "units": "x"}
    samples = {"t": traj.t.tolist(), "r": traj.r.tolist(), "v": traj.v.tolist(),
               "energy": traj.energy.tolist()}
    assert simulate.trajectory_json(payload, columns) == json.dumps(
        {**payload, "samples": samples}, indent=2) + "\n"
    argv = SIMULATE[:-1] + ["40"]
    assert run(argv) == (cli.EXIT_OK, expected, "")
    code, out, err = run(argv + ["--format", "json"])
    assert (code, err) == (cli.EXIT_OK, "")
    assert out == json.dumps(json.loads(out), indent=2) + "\n"
    assert json.loads(out)["samples"] == samples


def test_simulate_t_end_beyond_budget_exits_2_at_once():
    argv = ["simulate", "--mass", "1", "--sigma0", "1", "--r0", "1", "--t-end", "1e300"]
    res = run_process(["-m", "gravreduce.cli"] + argv, timeout=5)
    assert (res.returncode, res.stdout) == (cli.EXIT_CONFIG, "")
    assert res.stderr.startswith("error: t_end is ") and res.stderr.count("\n") == 1


def test_step_budget_is_in_characteristic_times():
    ctx = PhysicalContext.dimensionless()
    law = dynamics.ForceLaw.gravity_point(WavePacket(4.0), Body.point(1.0), ctx)
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


def test_reduction_estimate_requires_finite_positive_tau():
    for tau in (0.0, -1.0, float("inf"), float("nan")):
        with pytest.raises(DomainError):
            criticality.ReductionEstimate(tau, criticality.TauMethod.SHORT_TIME)


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
            "stepper": "gravreduce.dop853" in sys.modules,
            "numpy.random": "numpy.random" in sys.modules}


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
# Each command that builds arrays, and so loads numpy, runs in a process of its own.
NUMPY_RUNS = [
    ("sweep", ["sweep", "--sigma0", "1", "--grid", "mass=0.1:10:3"]),
    ("verify --quick", ["verify", "--quick"]),
]
LAWS = {"gravity-point": [], "mixed-point": [], "gravity-object": ["--radius", "0.5"]}


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
    for runs in [shared] + [[r] for r in NUMPY_RUNS]:
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


def test_only_array_commands_load_numpy(command_probe):
    # Importing the CLI, critical, the three tau runs and all nine simulate
    # runs leave numpy unloaded; positive control: sweep and verify, which
    # build arrays, load it.
    loaded = {name: state["numpy"] for name, state in command_probe.items()}
    assert sum(name.startswith("simulate ") for name in loaded) == 3 * len(LAWS)
    assert set(dict(CLOSED_FORM_RUNS)) <= set(loaded)
    assert loaded == {name: name in dict(NUMPY_RUNS) for name in loaded}


def test_no_command_loads_dataclasses_and_only_numpy_commands_load_inspect(command_probe):
    # The records are built without dataclasses, which imports inspect: a
    # command that loads no numpy, which imports inspect itself, loads neither.
    assert not any(state["dataclasses"] for state in command_probe.values())
    loaded = {name: state["inspect"] for name, state in command_probe.items()}
    assert loaded == {name: name in dict(NUMPY_RUNS) for name in loaded}


def test_only_integrating_commands_load_the_stepper(command_probe):
    # critical, tau and sweep do not compile the DOP853 module; simulate and
    # verify's energy checks load it.
    loaded = {name: state["stepper"] for name, state in command_probe.items()}
    assert loaded == {name: name.startswith(("simulate ", "verify")) for name in loaded}


def test_no_command_loads_numpy_random(command_probe):
    # verify draws its parameters from the stdlib generator, and numpy loads
    # numpy.random only when it is first used.
    assert sum(state["numpy"] for state in command_probe.values()) == len(NUMPY_RUNS)
    assert not any(state["numpy.random"] for state in command_probe.values())


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
                     | {"gravreduce.dynamics", "gravreduce.dop853", "gravreduce.simulate"})
# verify runs every module but the two that hold the sweep and simulate commands.
VERIFY_MODULES = (CLOSED_FORM_MODULES
                  | {f"gravreduce.{name}" for name in ("dynamics", "dop853", "potentials",
                                                       "averages", "minimize", "verify")})
MODULE_SETS = (
    [(name, argv, CLOSED_FORM_MODULES) for name, argv in CLOSED_FORM_RUNS]
    + [(f"simulate {law}", SIMULATE + ["--law", law] + extra,
        POINT_LAW_MODULES | ({"gravreduce.potentials"} if law == "gravity-object" else set()))
       for law, extra in LAWS.items()]
    + [("sweep", dict(NUMPY_RUNS)["sweep"], CLOSED_FORM_MODULES | {"gravreduce.sweep"}),
       ("verify --quick", dict(NUMPY_RUNS)["verify --quick"], VERIFY_MODULES)])


@pytest.mark.parametrize("argv, modules", [case[1:] for case in MODULE_SETS],
                         ids=[case[0] for case in MODULE_SETS])
def test_each_command_loads_only_the_modules_it_runs(argv, modules, fresh_modules):
    # A fresh interpreter per command: the set is exactly what it imported.
    # critical and tau compile no module of the trajectories, the averages,
    # the minimizer, the potentials, the sweep or simulate; a point-law
    # simulate none of the closed forms or the potentials; sweep neither
    # dynamics nor dop853; verify neither the sweep nor the simulate module.
    loaded = {m for m in fresh_modules(argv) if m.split(".")[0] == "gravreduce"}
    assert loaded == modules


# Each is run with --format csv, and with --format json as the positive control.
FORMAT_RUNS = {
    "critical": ["critical", "--mass", "1", "--sigma0", "1"],
    "tau": ["tau", "--mass", "1", "--sigma0", "1"],
    "tau sphere": ["tau", "--mass", "1", "--sigma0", "1", "--kind", "sphere", "--radius", "0.5"],
    "sweep": dict(NUMPY_RUNS)["sweep"],
    "simulate to stdout": SIMULATE,
}


@pytest.mark.parametrize("name", sorted(FORMAT_RUNS))
def test_csv_runs_load_no_json(name, fresh_modules):
    argv = FORMAT_RUNS[name]
    assert "json" not in fresh_modules(argv + ["--format", "csv"])
    assert "json" in fresh_modules(argv + ["--format", "json"])


NUMPY_FREE_RUNS = [("critical", CLOSED_FORM_RUNS[0][1]), ("tau", CLOSED_FORM_RUNS[-1][1])] + [
    (f"simulate {law}", SIMULATE + ["--law", law] + extra) for law, extra in LAWS.items()]


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
