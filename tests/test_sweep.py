"""The sweep and the closed forms against golden outputs and against the
scalar entry points, and the rows split between two processes against the
grid written whole.

``golden/cli.json`` holds outputs recorded from the scalar, row-by-row code
of an earlier version (see ``golden/record.py``).  Columns, keys, row order,
units lines and labels must be identical; numbers may move by at most 1e-12
relative, since some closed forms were rewritten after the recording (the
force ratio and the object-uncertainty time, for one) and moved in their last
digits.  Against the scalar entry points of this version a sweep is exact:
its grids run the same Python float arithmetic.
"""

import errno
import gc
import json
import math
import os
import random
import signal
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

import gravreduce
from gravreduce import cli, criticality, sweep
from gravreduce.core import Body, PhysicalContext, WavePacket
from gravreduce.errors import ConfigError

VALUE_RTOL = 1e-12
GOLDEN = json.loads((Path(__file__).parent / "golden" / "cli.json").read_text())


def stdout_of(argv):
    out = StringIO()
    with redirect_stdout(out):
        assert cli.main(argv) == cli.EXIT_OK
    return out.getvalue()


def same_cell(got, want):
    """Numbers, or cells that read as numbers, within VALUE_RTOL relative;
    anything else equal."""
    try:
        got, want = float(got), float(want)
    except (TypeError, ValueError):
        return got == want
    return abs(got - want) <= VALUE_RTOL * max(abs(got), abs(want))


def flatten(payload, prefix=""):
    if isinstance(payload, dict):
        items = payload.items()
    elif isinstance(payload, list):
        items = enumerate(payload)
    else:
        return [(prefix, payload)]
    return [kv for key, value in items for kv in flatten(value, f"{prefix}{key}.")]


def assert_matches(got: str, want: str):
    if want.startswith("{"):
        assert got == json.dumps(json.loads(got), indent=2) + "\n"
        got_items, want_items = flatten(json.loads(got)), flatten(json.loads(want))
    else:
        got_lines, want_lines = got.splitlines(), want.splitlines()
        assert got_lines[:2] == want_lines[:2]          # units comment and header
        assert len(got_lines) == len(want_lines)
        got_items = [(i, cell) for i, line in enumerate(got_lines[2:])
                     for cell in line.split(",")]
        want_items = [(i, cell) for i, line in enumerate(want_lines[2:])
                      for cell in line.split(",")]
    assert [key for key, _ in got_items] == [key for key, _ in want_items]
    bad = [(key, g, w) for (key, g), (_, w) in zip(got_items, want_items)
           if not same_cell(g, w)]
    assert not bad, bad[:5]


@pytest.mark.parametrize("case", GOLDEN, ids=[case["name"] for case in GOLDEN])
def test_output_matches_golden(case):
    assert_matches(stdout_of(case["argv"]), case["stdout"])


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_out_file_equals_stdout(fmt, tmp_path):
    argv = ["sweep", "--kind", "sphere", "--radius", "0.5", "--grid", "mass=0.1:10:4",
            "--grid", "sigma0=0.1:10:3", "--format", fmt]
    path = tmp_path / f"sweep.{fmt}"
    assert stdout_of(argv + ["--out", str(path)]) == ""
    assert path.read_text() == stdout_of(argv)


def scalar_rows(kind, masses, widths, radius, ctx):
    """The sweep as a loop over the scalar entry points, in product order."""
    rows = []
    for m in masses:
        for s0 in widths:
            body = Body.point(m) if kind == "point" else Body.sphere(m, radius)
            packet = WavePacket(s0)
            report = criticality.report_at(body.mass, packet.sigma0, ctx, body.radius)
            report["regime"] = criticality.REGIMES[report["regime"]].value
            taus = criticality.taus_at(body.mass, packet.sigma0, ctx, body.radius, numeric=False)
            rows.append([m, s0] + ([radius] if kind == "sphere" else [])
                        + list(report.values()) + list(taus.values()))
    return rows


@pytest.mark.parametrize("kind", ["point", "sphere"])
def test_broadcast_sweep_matches_scalar_loop(kind):
    # 70 x 70 rows span two write blocks of the streamed output.
    argv = ["sweep", "--units", "si", "--kind", kind, "--grid", "mass=1e-27:10:70",
            "--grid", "sigma0=1e-15:1e-1:70", "--format", "json"]
    if kind == "sphere":
        argv += ["--radius", "1e-3"]
    assert 70 * 70 > sweep.ROWS_PER_WRITE
    payload = json.loads(stdout_of(argv))
    grids = sweep.parse_grids(["mass=1e-27:10:70", "sigma0=1e-15:1e-1:70"])
    masses, widths = grids["mass"], grids["sigma0"]
    want = scalar_rows(kind, masses, widths, 1e-3 if kind == "sphere" else None,
                       PhysicalContext.si())
    assert len(payload["rows"]) == len(want)
    for got_row, want_row in zip(payload["rows"], want):
        assert got_row == want_row


@pytest.mark.parametrize("spacing", ["log", "lin"])
def test_a_grid_runs_from_its_lower_to_its_upper_bound(spacing):
    # The last point is hi itself, not lo plus n - 1 steps, so the last row
    # is the one critical and tau give for hi.
    rng = random.Random(25)
    for _ in range(2000):
        if spacing == "log":
            lo = 10.0 ** rng.uniform(-30.0, 0.0)
            hi = lo * 10.0 ** rng.uniform(0.5, 30.0)
        else:
            lo, hi = sorted(rng.uniform(-1e3, 1e3) for _ in range(2))
        n = rng.randint(2, 300)
        points = sweep.parse_grids([f"mass={lo!r}:{hi!r}:{n}:{spacing}"])["mass"]
        assert len(points) == n and points[0] == lo and points[-1] == hi
        assert all(a < b for a, b in zip(points, points[1:]))

def test_sweep_cells_are_plain_reprs():
    # numpy 2 writes repr(np.float64(x)) as "np.float64(x)"
    text = stdout_of(["sweep", "--sigma0", "1", "--grid", "mass=0.5:2:3"])
    assert "np." not in text
    for name in ("critical", "tau"):
        argv = [name, "--mass", "1", "--sigma0", "1", "--format", "csv"]
        assert "np." not in stdout_of(argv + (["--no-numeric"] if name == "tau" else []))


# hi / lo overflows: the points are listed in logs.
@pytest.mark.parametrize("lo, hi, n", [(1e-300, 1e300, 3), (1e-10, 1.7976931348623157e308, 7),
                                       (5e-324, 1.7976931348623157e308, 6), (1e-200, 1e200, 1000)])
def test_log_grid_whose_bound_ratio_overflows(lo, hi, n):
    values = sweep.parse_grids([f"mass={lo!r}:{hi!r}:{n}"])["mass"]
    assert len(values) == n and all(math.isfinite(v) for v in values)
    assert all(a < b for a, b in zip(values, values[1:]))
    assert values[0] == lo and abs(values[-1] - hi) <= 4 * math.ulp(hi)


# ---------------------------------------------------------------- the split
#
# A sweep written to a file descriptor splits its rows between this process
# and a forked child, which writes the first half.  redirect_stdout(StringIO)
# has no file descriptor, so stdout_of() runs the whole grid in one process:
# that is the reference each split run must equal byte for byte.

SRC = str(Path(gravreduce.__file__).resolve().parents[1])
SUBPROCESS_TIMEOUT_S = 60
SPLIT_GRIDS = {
    # 9,001 rows: each half spans two write blocks.
    "1-D": ["--sigma0", "1", "--grid", "mass=0.1:10:9001"],
    "2-D, odd first axis": ["--grid", "mass=0.1:10:7", "--grid", "sigma0=0.1:10:4:lin"],
    "3-D sphere": ["--kind", "sphere", "--grid", "mass=0.1:10:5", "--grid", "radius=0.5:2:3",
                   "--grid", "sigma0=0.1:10:4"],
    "first axis one point": ["--grid", "sigma0=2:2:1", "--grid", "mass=0.1:10:5"],
    "one row": ["--sigma0", "1", "--grid", "mass=2:2:1"],
}


def cli_process(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, "-m", "gravreduce.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT_S)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("grid", SPLIT_GRIDS, ids=list(SPLIT_GRIDS))
def test_split_sweep_equals_the_whole_grid(grid, fmt, tmp_path):
    argv = ["sweep", *SPLIT_GRIDS[grid], "--format", fmt]
    want = stdout_of(argv)
    res = cli_process(argv)
    assert (res.returncode, res.stderr) == (cli.EXIT_OK, "")
    assert res.stdout == want
    path = tmp_path / f"sweep.{fmt}"
    res = cli_process(argv + ["--out", str(path)])
    assert (res.returncode, res.stdout, res.stderr) == (cli.EXIT_OK, "", "")
    assert path.read_text() == want


@pytest.fixture
def forks(monkeypatch):
    """The pids os.fork returned to this process."""
    pids = []

    def fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    real_fork = os.fork
    monkeypatch.setattr(os, "fork", fork)
    return pids


@pytest.mark.parametrize("grid, split", [("2-D, odd first axis", True),
                                         ("first axis one point", True),
                                         ("one row", False)])
def test_split_runs_in_process_and_leaves_no_child(grid, split, forks, tmp_path):
    argv = ["sweep", *SPLIT_GRIDS[grid]]
    path = tmp_path / "sweep.csv"
    with warnings.catch_warnings(record=True) as caught:
        # Python 3.12+ warns when a process with several threads forks.
        warnings.simplefilter("always")
        assert cli.main(argv + ["--out", str(path)]) == cli.EXIT_OK
    assert caught == []
    assert len(forks) == split
    assert gc.get_freeze_count() == 0
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert path.read_text() == stdout_of(argv)
    assert len(forks) == split      # stdout_of's StringIO has no file descriptor


def no_process_to_spare():
    raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")


@pytest.mark.parametrize("fork", [None, no_process_to_spare], ids=["missing", "failing"])
def test_without_fork_the_grid_is_written_whole(fork, monkeypatch, tmp_path):
    if fork is None:
        monkeypatch.delattr(os, "fork")
    else:
        monkeypatch.setattr(os, "fork", fork)
    argv = ["sweep", *SPLIT_GRIDS["3-D sphere"]]
    path = tmp_path / "sweep.csv"
    assert cli.main(argv + ["--out", str(path)]) == cli.EXIT_OK
    assert path.read_text() == stdout_of(argv)
    assert gc.get_freeze_count() == 0


def test_the_child_writes_the_first_half(forks, monkeypatch, tmp_path):
    # 3 of the 7 masses by 4 widths are the child's rows, written to the file;
    # the other 16 are this process's, joined into memory while the child
    # runs and written after it.  The two processes log their calls in either
    # order, so the log is compared sorted; the file holds the rows in order.
    writers = tmp_path / "writers"

    def write_rows(fh, cells, *layout, continued=False):
        with open(writers, "a") as log:
            log.write(f"{os.getpid()} {len(cells[0])} {continued} {type(fh).__name__}\n")
        real_write_rows(fh, cells, *layout, continued=continued)

    real_write_rows = sweep._write_rows
    monkeypatch.setattr(sweep, "_write_rows", write_rows)
    path = tmp_path / "sweep.csv"
    argv = ["sweep", *SPLIT_GRIDS["2-D, odd first axis"]]
    assert cli.main(argv + ["--out", str(path)]) == 0
    assert sorted(writers.read_text().splitlines()) == sorted([
        f"{forks[0]} 12 False TextIOWrapper", f"{os.getpid()} 16 True _Held"])
    assert path.read_text() == stdout_of(argv)


def test_grid_of_more_than_max_rows_is_refused_before_listing(monkeypatch):
    monkeypatch.setattr(sweep, "MAX_ROWS", 6)
    assert list(sweep.parse_grids(["mass=1:2:2", "sigma0=1:3:3"])) == ["mass", "sigma0"]
    monkeypatch.setattr(sweep, "_grid_values", lambda *spec: pytest.fail(f"listed {spec}"))
    with pytest.raises(ConfigError) as err:
        sweep.parse_grids(["mass=1:2:7"])
    assert str(err.value) == "the sweep grid has 7 rows, and its columns do not fit in memory"


@pytest.mark.parametrize("fail, message", [
    (lambda: MemoryError(), "the sweep grid has 28 rows, and its columns do not fit in memory"),
    (lambda: OSError(errno.ENOSPC, "No space left on device"),
     "cannot write {path}: No space left on device"),
    (lambda: os.kill(os.getpid(), signal.SIGKILL),
     "cannot write {path}: the process writing the first half of the rows ended with "
     "status -9"),
])
def test_a_failed_child_is_the_error_of_the_whole_grid(fail, message, forks, monkeypatch,
                                                       tmp_path):
    def write_rows(fh, cells, *layout, continued=False):
        if not continued:       # the child's rows
            raise fail()
        real_write_rows(fh, cells, *layout, continued=continued)

    real_write_rows = sweep._write_rows
    monkeypatch.setattr(sweep, "_write_rows", write_rows)
    path = tmp_path / "sweep.csv"
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(["sweep", *SPLIT_GRIDS["2-D, odd first axis"], "--out", str(path)])
    assert (code, out.getvalue()) == (cli.EXIT_CONFIG, "")
    assert err.getvalue() == f"error: {message.format(path=path)}\n"
    assert len(forks) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
