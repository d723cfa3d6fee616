"""gravreduce benchmark: one seeded workload, measured end to end or traced.

Run from the repository root:

    python3 bench/run.py --workload survey --seed 1 --trace 0

--seconds defaults to run_seconds in BENCHMARK.json.

Workloads (see README.md for why each exists):
    survey      short critical / tau / verify CLI queries, one process each
    sweep       large grid sweeps to CSV and JSON
    trajectory  long simulate runs over all three force laws
    oracle      public-API quadrature and minimization calls in one session

Load model: a closed loop with one client.  The next op starts when the
previous one has exited; ops are started until --seconds have passed.

--trace 0 prints the end-to-end metrics; --trace 1 runs the same seeded ops
in this process, untraced and then traced, and prints per-layer metrics.
Every op is checked (exit code, empty stderr, timeout, values against
reference.json).  The last line of stdout is one JSON object with keys
correct, attempted, failed and metrics; a full record with the run manifest
goes to .bench_work/results/.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import calibrate  # noqa: E402
import ops  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

CLIENTS = 1
# Set-up runs before and after the measured loop, so that their median
# samples the host at both ends of the run.
SETUP_REPS_BEFORE = 3
SETUP_REPS_AFTER = 2
IMPORT_PROFILE_REPS = 3
OP_TIMEOUT_S = {"survey": 30.0, "sweep": 60.0, "trajectory": 60.0}
SESSION_GRACE_S = 60.0
# The clock around the traced pass also times entering and leaving its span.
SELF_SUM_RTOL = 1e-4
WARMUP_ARGV = ["critical", "--mass", "1", "--sigma0", "1"]
PROFILED_MODULES = ("gravreduce.cli", "numpy", "scipy.integrate")

END_TO_END = ("setup_s", "work_per_s", "op_p50_s", "peak_rss_mb")
PER_LAYER = (
    ("import.gravreduce_cli_s", "import.scipy_integrate_s", "import.numpy_s",
     "trace.wall_s", "trace.overhead_s")
    # core.density is counted, not spanned, so core has no self time of its own
    + tuple(f"{layer}.self_frac" for layer in tracing.LAYERS + ("bench",) if layer != "core")
    + tuple(f"{layer}.calls_per_op" for layer in tracing.LAYERS)
    + ("cli.bytes_out",))
WORK_UNIT = {"survey": "ops", "sweep": "rows", "trajectory": "characteristic times",
             "oracle": "calls"}


def unit_of(name: str) -> str:
    if name.startswith("raw."):
        return unit_of(name[len("raw."):])
    if name == "work_per_s":
        return "work/s"
    if name == "peak_rss_mb":
        return "MB"
    if name == "cli.bytes_out":
        return "bytes"
    if name in ("op_count", "closed_form_cancellations"):
        return "count"
    for tag, unit in (("_us", "us"), ("_ms", "ms"), ("_s", "s")):
        if name.endswith(tag) or f"{tag}." in name or f"{tag}_per_" in name:
            return unit
    return "1/op" if name.endswith("_per_op") else "1"


def result_line(correct: bool, attempted: int, failed: int, values: dict,
                names: tuple[str, ...]) -> dict:
    """The result line: the named metrics, each with its unit."""
    return {"correct": bool(correct), "attempted": int(attempted), "failed": int(failed),
            "metrics": {n: {"value": values[n], "unit": unit_of(n)} for n in names}}


# ---------------------------------------------------------------- manifest

def _git(*args) -> str | None:
    if not (ROOT / ".git").exists():
        return None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        res = subprocess.run(["git", *args], cwd=ROOT, env=env, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def _cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def manifest(args, samples: dict) -> dict:
    sha = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain") if sha else None
    return {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "git_sha": sha,
        "git_dirty": bool(status) if status is not None else None,
        "src_sha256": _source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "clients": CLIENTS,
        "load_model": "closed loop",
        "samples": samples,
    }


# ---------------------------------------------------------------- end to end

def calibrate_process(workdir: Path) -> float:
    """Seconds from spawn to exit of one calibration process."""
    out, err = workdir / "calibrate.stdout", workdir / "calibrate.stderr"
    res = ops.run_process([sys.executable, str(BENCH / "calibrate.py")], 60.0,
                          str(out), str(err))
    if res.exit_code != 0 or err.read_text():
        raise RuntimeError(f"calibration failed: exit {res.exit_code}, "
                           f"stderr {err.read_text()[:500]!r}")
    return res.latency_s


def measure_setup(workload: str, workdir: Path,
                  reps: range) -> tuple[list[float], list[float], list[str]]:
    """Fresh-interpreter import plus one warm-up call, once per rep, each
    followed by a calibration process: set-up times, calibration times and
    problems."""
    if workload == "oracle":
        argv = [sys.executable, str(BENCH / "session.py")]
        stdin = json.dumps({"warmup": True}).encode()
    else:
        argv = [sys.executable, "-m", "gravreduce.cli"] + WARMUP_ARGV
        stdin = None
    times, calibrations, problems = [], [], []
    for rep in reps:
        out, err = workdir / f"setup{rep}.stdout", workdir / f"setup{rep}.stderr"
        res = ops.run_process(argv, 60.0, str(out), str(err), env=ops.cli_env(ROOT),
                              stdin_data=stdin)
        if res.exit_code != 0 or err.read_text():
            problems.append(f"set-up run {rep}: exit {res.exit_code}, "
                            f"stderr {err.read_text()[:300]!r}")
        times.append(res.latency_s)
        calibrations.append(calibrate_process(workdir))
    return times, calibrations, problems


def run_cli_workload(workload: str, seed: int, seconds: float, workdir: Path,
                     reference: dict) -> dict:
    op_list = workloads.OpList(workload, seed)
    records, calibrations = [], []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        i = len(records)
        records.append(ops.run_cli_process(op_list[i], i, workdir, ROOT,
                                           OP_TIMEOUT_S[workload]))
        calibrations.append(calibrate_process(workdir))
    wall = time.perf_counter() - start - sum(calibrations)
    summaries = []
    for rec in records:
        rec.failures, summary = ops.judge(rec, reference)
        summaries.append(summary)
        rec.remove_outputs()
    latencies = [r.latency_s for r in records]
    out = {
        "latencies": latencies,
        "op_calibrations": calibrations,
        "wall_s": wall,
        "work": sum(r.spec["work"] for r in records),
        "peak_rss_kb": max(r.maxrss_kb for r in records),
        "failures": [f"{r.spec['id']}: {f}" for r in records for f in r.failures],
        "failed": sum(bool(r.failures) for r in records),
    }
    if workload == "trajectory":
        out["energy_drift_max"] = max((s["energy_drift"] for s in summaries if s),
                                      default=float("nan"))
    if workload == "survey":
        controls = [r for r in records if "--perturb" in r.argv]
        out["negative_controls"] = {"run": len(controls),
                                    "failed_as_expected": sum(not r.failures for r in controls)}
    return out


def run_oracle_workload(seed: int, seconds: float, workdir: Path) -> dict:
    request = {"calls": workloads.oracle_calls(seed), "seconds": seconds}
    out_path, err_path = workdir / "session.stdout", workdir / "session.stderr"
    res = ops.run_process([sys.executable, str(BENCH / "session.py")],
                          seconds + SESSION_GRACE_S, str(out_path), str(err_path),
                          env=ops.cli_env(ROOT), stdin_data=json.dumps(request).encode())
    stderr = err_path.read_text()
    if res.exit_code != 0 or stderr:
        raise RuntimeError(f"oracle session failed: exit {res.exit_code}, "
                           f"timed out {res.timed_out}, stderr {stderr[:500]!r}")
    report = json.loads(out_path.read_text())
    op_cal: list[float] = []   # the calibration that followed each call
    for done, seconds_ in report["calibrations"]:
        op_cal += [seconds_] * (done - len(op_cal))
    return {"latencies": report["latencies"], "op_calibrations": op_cal,
            "session_calibrations": [seconds_ for _, seconds_ in report["calibrations"]],
            "wall_s": report["wall_s"],
            "work": len(report["latencies"]), "peak_rss_kb": res.maxrss_kb,
            "failures": report["failures"], "failed": len(report["failures"]),
            "closed_form_cancellations": report["closed_form_cancellations"]}


def end_to_end(args, workdir: Path, reference: dict) -> tuple[dict, dict]:
    setup_times, setup_cal, setup_problems = measure_setup(
        args.workload, workdir, range(SETUP_REPS_BEFORE))
    if args.workload == "oracle":
        run = run_oracle_workload(args.seed, args.seconds, workdir)
    else:
        run = run_cli_workload(args.workload, args.seed, args.seconds, workdir, reference)
    after = measure_setup(args.workload, workdir,
                          range(SETUP_REPS_BEFORE, SETUP_REPS_BEFORE + SETUP_REPS_AFTER))
    setup_times += after[0]
    setup_cal += after[1]
    setup_problems += after[2]
    lat, op_cal = run["latencies"], run["op_calibrations"]
    # Times are scaled to the calibration's reference host speed, each by the
    # calibration run right after it: a set-up run or CLI op by a calibration
    # process, an oracle call by the in-session calibration that ended its
    # stretch of calls.  The raw values are kept beside them.
    setup_scaled = statistics.median(
        t / c for t, c in zip(setup_times, setup_cal)) * calibrate.PROCESS_REF_S
    ref = calibrate.SESSION_REF_S if args.workload == "oracle" else calibrate.PROCESS_REF_S
    scaled = [t * ref / c for t, c in zip(lat, op_cal)]
    process_cal = setup_cal + (op_cal if args.workload != "oracle" else [])
    raw = {
        "setup_s": statistics.median(setup_times),
        "work_per_s": run["work"] / run["wall_s"],
        "op_p50_s": statistics.median(lat),
    }
    samples = {"setup_s": len(setup_times), "op_p50_s": len(lat),
               "calibration.process_s": len(process_cal)}
    # A percentile is reported only with at least ten samples beyond it.
    if len(lat) >= 100:
        raw["op_p90_s"] = tracing.percentile(lat, 90)
        samples["op_p90_s"] = len(lat)
    values = {
        "setup_s": setup_scaled,
        "work_per_s": run["work"] / math.fsum(scaled),
        "op_p50_s": statistics.median(scaled),
        "peak_rss_mb": run["peak_rss_kb"] / 1024.0,
        "failed_frac": run["failed"] / len(lat),
        "op_count": len(lat),
        "calibration.process_s": statistics.median(process_cal),
        **{f"raw.{name}": value for name, value in raw.items()},
    }
    if "op_p90_s" in raw:
        values["op_p90_s"] = tracing.percentile(scaled, 90)
    if args.workload == "oracle":
        values["calibration.session_s"] = statistics.median(run["session_calibrations"])
        samples["calibration.session_s"] = len(run["session_calibrations"])
    for key in ("energy_drift_max", "closed_form_cancellations"):
        if key in run:
            values[key] = run[key]
    extra = {
        "work_unit": WORK_UNIT[args.workload],
        "work": run["work"],
        "wall_s": run["wall_s"],
        "setup_times_s": setup_times,
        "calibration_process_s": process_cal,
        "latencies_s": lat if len(lat) <= 1000 else None,
        "op_calibrations_s": op_cal if len(lat) <= 1000 else None,
        "failures": run["failures"] + setup_problems,
        "negative_controls": run.get("negative_controls"),
        "samples": samples,
        "attempted": len(lat),
        "failed": run["failed"],
        "correct": not run["failures"] and not setup_problems,
    }
    return values, extra


# ---------------------------------------------------------------- traced run

def import_profile(workdir: Path) -> dict[str, float]:
    """Median cumulative import time of each profiled module, fresh interpreter."""
    code = "import " + ", ".join(PROFILED_MODULES)
    runs = []
    for rep in range(IMPORT_PROFILE_REPS):
        out, err = workdir / f"imp{rep}.stdout", workdir / f"imp{rep}.stderr"
        res = ops.run_process([sys.executable, "-X", "importtime", "-c", code], 60.0,
                              str(out), str(err), env=ops.cli_env(ROOT))
        if res.exit_code != 0:
            raise RuntimeError(f"import profile failed: {err.read_text()[:500]}")
        runs.append(tracing.parse_importtime(err.read_text(), PROFILED_MODULES))
    return {f"import.{m.replace('.', '_')}_s": statistics.median(r[m] for r in runs)
            for m in PROFILED_MODULES}


def _cli_pass(cli, op_list, workdir, timeout, rec, seconds=None, count=None, first=0):
    """Ops first.. through cli.main, for a time or a count; spans when rec is given."""
    def main(argv):  # looked up per call, so installed wrappers are used
        return cli.main(argv)

    records = []
    start = time.perf_counter()
    i = first
    while ((count is None or i - first < count)
           and (seconds is None or time.perf_counter() - start < seconds)):
        if rec is not None:
            rec.op_id = i
        with rec.span("bench.op") if rec is not None else contextlib.nullcontext():
            records.append(ops.run_cli_inprocess(main, op_list[i], i, workdir, timeout))
        i += 1
    return records, time.perf_counter() - start


def traced(args, workdir: Path, reference: dict) -> tuple[dict, dict, tracing.Recorder]:
    values = import_profile(workdir)
    sys.path.insert(0, str(ROOT / "src"))
    from gravreduce import cli  # imports every package module
    import session

    # The traced pass repeats the untraced pass's ops and runs up to 4.5x
    # slower (oracle), so the untraced pass gets a fifth of the run.
    untraced_s = args.seconds / 5.0
    rec = tracing.Recorder()
    failures: list[str] = []
    if args.workload == "oracle":
        prepared = session.prepare(workloads.oracle_calls(args.seed))
        session.run(prepared, count=1)  # warm-up, not counted
        results_u, _, wall_u = session.run(prepared, seconds=untraced_s)
        n = len(results_u)

        def op_span(thunk):
            def call():
                rec.op_id += 1
                with rec.span("bench.op"):
                    return thunk()
            return call

        traced_prepared = [(op_span(thunk), *rest) for thunk, *rest in prepared]
        saved = tracing.install(rec)
        try:
            clock = time.perf_counter()
            with rec.span("bench.pass"):
                results_t, _, _ = session.run(traced_prepared, count=n)
            clock = time.perf_counter() - clock
        finally:
            tracing.uninstall(saved)
        failures = session.check(prepared, results_u)[0] + session.check(prepared, results_t)[0]
        failed = len(failures)
        rows, bytes_out = 0, 0.0
    else:
        op_list = workloads.OpList(args.workload, args.seed)
        timeout = OP_TIMEOUT_S[args.workload]
        dirs = [workdir / name for name in ("warm", "untraced", "traced")]
        for d in dirs:
            d.mkdir()
        warm, _ = _cli_pass(cli, op_list, dirs[0], timeout, None, count=1)
        untraced, wall_u = _cli_pass(cli, op_list, dirs[1], timeout, None,
                                     seconds=untraced_s, first=1)
        n = len(untraced)
        saved = tracing.install(rec)
        try:
            clock = time.perf_counter()
            with rec.span("bench.pass"):
                traced_ops, _ = _cli_pass(cli, op_list, dirs[2], timeout, rec, count=n, first=1)
            clock = time.perf_counter() - clock
        finally:
            tracing.uninstall(saved)
        bytes_out = statistics.fmean(r.bytes_out() for r in traced_ops)
        failed = 0
        for r in warm + untraced + traced_ops:
            bad, _ = ops.judge(r, reference)
            failures += [f"{r.spec['id']}: {msg}" for msg in bad]
            failed += bool(bad)
            r.remove_outputs()
        rows = sum(r.spec["work"] for r in traced_ops) if args.workload == "sweep" else 0
    values.update(tracing.reduce(rec, ops=n, rows=rows))
    values["cli.bytes_out"] = bytes_out
    values["trace.untraced_wall_s"] = wall_u
    values["trace.overhead_s"] = values["trace.wall_s"] - wall_u
    values["trace.overhead_frac"] = values["trace.overhead_s"] / wall_u
    # Checked against a clock read outside the recorder: an op that ran outside
    # the pass span, a second root span or a span left open all break the sum.
    values["trace.clock_s"] = clock
    if abs(values["trace.self_sum_s"] - clock) > SELF_SUM_RTOL * clock:
        failures.append(f"layer self times add up to {values['trace.self_sum_s']:.6f} s, "
                        f"not the traced pass's {clock:.6f} s")
    extra = {"samples": {"ops_per_pass": n, "spans": len(rec.start)},
             "attempted": 2 * n, "failed": failed,
             "failures": failures, "correct": not failures}
    return values, extra, rec


# ---------------------------------------------------------------- main

def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n", 1)[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float,
                   default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "gravreduce" / "cli.py").is_file():
        print(f"error: no gravreduce sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    reference = json.loads((BENCH / "reference.json").read_text())
    results_dir = ROOT / ".bench_work" / "results"
    workdir = ROOT / ".bench_work" / f"run-{os.getpid()}"
    results_dir.mkdir(parents=True, exist_ok=True)
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            values, extra, rec = traced(args, workdir, reference)
            names = PER_LAYER
        else:
            values, extra = end_to_end(args, workdir, reference)
            names = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"manifest": manifest(args, extra.pop("samples")),
              "metrics": {n: {"value": v, "unit": unit_of(n)} for n, v in sorted(values.items())},
              **extra}
    (results_dir / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    if args.trace:
        # one span file per workload: a traced sweep holds about 1.6e6 spans
        rec.save(results_dir / f"{args.workload}-spans.npz")

    for name, value in sorted(values.items()):
        print(f"{args.workload:<10} {name:<46} {value:>14.6g} {unit_of(name)}")
    if args.workload == "survey" and not args.trace:
        nc = extra["negative_controls"]
        print(f"{args.workload:<10} negative control (verify --perturb 1e-6): "
              f"{nc['failed_as_expected']} of {nc['run']} exited 1 with the expected 9 failed checks")
    for failure in extra["failures"][:20]:
        print(f"FAILED {failure}")
    print(f"record: {results_dir / stem}.json")
    print(json.dumps(result_line(extra["correct"], extra["attempted"], extra["failed"],
                                 values, names)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
