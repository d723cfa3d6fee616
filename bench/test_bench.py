"""Tests of the benchmark's own machinery (not of gravreduce).

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import ops  # noqa: E402
import run  # noqa: E402
import session  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", workloads.CLI_WORKLOADS)
def test_same_seed_gives_same_ops(workload):
    a, b = workloads.OpList(workload, 7), workloads.OpList(workload, 7)
    other = workloads.OpList(workload, 8)
    first = [a[i]["argv"] for i in range(60)]
    assert first == [b[i]["argv"] for i in range(60)]
    assert first != [other[i]["argv"] for i in range(60)]


def test_same_seed_gives_same_oracle_calls():
    assert workloads.oracle_calls(3) == workloads.oracle_calls(3)
    assert workloads.oracle_calls(3) != workloads.oracle_calls(4)


def test_every_pool_op_has_a_current_reference():
    reference = json.loads((BENCH / "reference.json").read_text())
    for workload in workloads.CLI_WORKLOADS:
        for variants in workloads.pool(workload):
            for spec in variants:
                assert reference[spec["id"]]["argv"] == spec["argv"]


def test_percentiles_on_synthetic_latencies():
    values = [float(v) for v in range(1, 101)]
    assert tracing.percentile(values, 50) == 50.5
    assert tracing.percentile(values, 90) == pytest.approx(90.1)
    assert tracing.percentile([4.0], 90) == 4.0


def test_self_times_subtract_child_spans():
    # pass [0, 100] > op [10, 90] > cli [20, 80] > criticality [30, 40], [50, 70]
    names = ["bench.pass", "bench.op", "cli.main", "criticality.classify_regime"]
    name = np.array([0, 1, 2, 3, 3])
    start = np.array([0, 10, 20, 30, 50])
    end = np.array([100, 90, 80, 40, 70])
    parent = np.array([-1, 0, 1, 2, 2])
    own = tracing.self_times(names, name, start, end, parent)
    assert own == pytest.approx({"bench.pass": 20e-9, "bench.op": 20e-9,
                                 "cli.main": 30e-9,
                                 "criticality.classify_regime": 30e-9})
    assert sum(own.values()) == pytest.approx(100e-9)


def test_recorded_spans_reduce_to_layer_self_times():
    rec = tracing.Recorder()
    with rec.span("bench.pass"):
        for op in range(3):
            rec.op_id = op
            with rec.span("bench.op"), rec.span("cli.main"):
                with rec.span("criticality.classify_regime"):
                    rec.count(rec.name_id("core.density"))
    out = tracing.reduce(rec, ops=3, rows=0)
    parts = sum(out[f"{layer}.self_s"] for layer in tracing.LAYERS + ("bench",))
    assert parts == pytest.approx(out["trace.wall_s"], rel=1e-12)
    assert out["criticality.calls_per_op"] == 1.0
    assert out["core.calls_per_op"] == 1.0
    assert out["verify.calls_per_op"] == 0.0


def test_parse_importtime():
    stderr = ("import time: self [us] | cumulative | imported package\n"
              "import time:       679 |      27344 |   gravreduce\n"
              "import time:      2132 |      96461 |           numpy\n"
              "import time:       620 |     809888 |       scipy.integrate\n"
              "import time:     21051 |     974160 | gravreduce.cli\n")
    out = tracing.parse_importtime(stderr, run.PROFILED_MODULES)
    assert out == pytest.approx({"gravreduce.cli": 0.97416, "numpy": 0.096461,
                                 "scipy.integrate": 0.809888})


def _record(tmp_path, code, timeout=30.0):
    res = ops.run_process([sys.executable, "-c", code], timeout,
                          str(tmp_path / "out"), str(tmp_path / "err"))
    spec = {"id": "survey/0/0", "argv": ["critical"], "expect_exit": 0, "work": 1}
    return ops.OpRecord(spec, ["critical"], res.latency_s, res.exit_code, res.timed_out,
                        (tmp_path / "out").read_text(), (tmp_path / "err").read_text(),
                        None, res.maxrss_kb)


def test_wrong_exit_code_counts_as_failed(tmp_path):
    rec = _record(tmp_path, "import sys; sys.exit(3)")
    failures, _ = ops.judge(rec, {})
    assert rec.exit_code == 3 and rec.maxrss_kb > 0
    assert any("exit code 3" in f for f in failures)


def test_timeout_counts_as_failed(tmp_path):
    rec = _record(tmp_path, "import time; time.sleep(30)", timeout=0.5)
    assert rec.timed_out and rec.latency_s < 10.0
    assert ops.judge(rec, {})[0] == ["timed out"]


def test_stderr_counts_as_failed(tmp_path):
    rec = _record(tmp_path, "import sys; sys.stderr.write('warning')")
    assert any(f.startswith("stderr") for f in ops.judge(rec, {})[0])


def test_session_leaves_calibrations_out_of_wall_time(monkeypatch):
    monkeypatch.setattr(session, "CALIBRATE_EVERY_S", 0.0)
    calls = [(lambda: 1.0, 1.0, 1e-9, None)]
    calibrations = []
    results, latencies, wall = session.run(calls, count=5, calibrations=calibrations)
    assert results == [1.0] * 5
    assert [done for done, _ in calibrations] == [1, 2, 3, 4, 5]
    assert wall < sum(seconds for _, seconds in calibrations)


def test_metric_names_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    for key, names in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        values = {n: 1.0 for n in names}
        line = run.result_line(True, 1, 0, values, names)
        assert [(n, m["unit"]) for n, m in line["metrics"].items()] == \
            [(m["name"], m["unit"]) for m in spec[key]]
    assert spec["command"] == ["python3", "bench/run.py"]
