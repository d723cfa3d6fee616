"""The broadcast sweep and the closed forms against golden outputs.

``golden/cli.json`` holds outputs recorded from the scalar, row-by-row code
(see ``golden/record.py``).  Columns, keys, row order, units lines and labels
must be identical; numbers may move by at most 1e-12 relative, since numpy's
vectorized ``pow`` can differ from the C library's in the last bit.
"""

import json
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

from gravreduce import cli, criticality, sweep
from gravreduce.core import Body, PhysicalContext, WavePacket

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
            report = criticality.classify_regime(packet, body, ctx)
            taus = [e.tau for e in criticality.tau_estimates(packet, body, ctx,
                                                             include_numeric=False)]
            rows.append([m, s0] + ([radius] if kind == "sphere" else [])
                        + [report.critical_mass, criticality.critical_width_force_balance(body, ctx),
                           criticality.critical_width_energy_min_exact(body, ctx),
                           report.force_ratio, report.regime.value] + taus)
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
    masses = sweep.parse_grid("mass=1e-27:10:70")[1]
    widths = sweep.parse_grid("sigma0=1e-15:1e-1:70")[1]
    want = scalar_rows(kind, masses, widths, 1e-3 if kind == "sphere" else None,
                       PhysicalContext.si())
    assert len(payload["rows"]) == len(want)
    for got_row, want_row in zip(payload["rows"], want):
        assert all(same_cell(g, w) for g, w in zip(got_row, want_row)), (got_row, want_row)


def test_sweep_cells_are_plain_reprs():
    # numpy 2 writes repr(np.float64(x)) as "np.float64(x)"
    text = stdout_of(["sweep", "--sigma0", "1", "--grid", "mass=0.5:2:3"])
    assert "np." not in text
    for name in ("critical", "tau"):
        argv = [name, "--mass", "1", "--sigma0", "1", "--format", "csv"]
        assert "np." not in stdout_of(argv + (["--no-numeric"] if name == "tau" else []))
