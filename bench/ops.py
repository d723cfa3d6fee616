"""Running one CLI op, in its own process or in-process, and judging it.

An op fails when it exits with another code than expected, writes anything
to stderr, runs past its timeout, or produces values that differ from the
reference recorded at the seed commit (see ``checks``).
"""

from __future__ import annotations

import contextlib
import io
import os
import signal
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import checks


@dataclass
class OpRecord:
    spec: dict
    argv: list[str]
    latency_s: float
    exit_code: int | None
    timed_out: bool
    stdout: str
    stderr: str
    out_path: str | None
    maxrss_kb: int = 0
    failures: list[str] = field(default_factory=list)

    def bytes_out(self) -> int:
        n = len(self.stdout.encode())
        if self.out_path:
            for path in (self.out_path, self.out_path + ".events.json"):
                if os.path.exists(path):
                    n += os.path.getsize(path)
        return n

    def remove_outputs(self):
        if self.out_path:
            for path in (self.out_path, self.out_path + ".events.json"):
                with contextlib.suppress(FileNotFoundError):
                    os.remove(path)


@dataclass
class ProcessResult:
    exit_code: int | None
    latency_s: float
    timed_out: bool
    maxrss_kb: int


def run_process(argv: list[str], timeout: float, stdout_path: str, stderr_path: str,
                env: dict | None = None, stdin_data: bytes | None = None) -> ProcessResult:
    """Run argv to completion, timing it from spawn until exit.

    The child is reaped with ``os.wait4`` so that its own peak RSS is known;
    a timer kills it once ``timeout`` seconds have passed.
    """
    killed = threading.Event()
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env,
                                stdin=subprocess.PIPE if stdin_data is not None
                                else subprocess.DEVNULL)

    def kill():
        killed.set()
        proc.kill()

    timer = threading.Timer(timeout, kill)
    timer.start()
    try:
        if stdin_data is not None:
            with contextlib.suppress(BrokenPipeError):
                proc.stdin.write(stdin_data)
            proc.stdin.close()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    latency = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    timer.join()
    timed_out = killed.is_set() and os.WIFSIGNALED(status)
    return ProcessResult(None if timed_out else proc.returncode, latency, timed_out,
                         usage.ru_maxrss)


def materialize(spec: dict, workdir: Path, index: int) -> tuple[list[str], str | None]:
    """The op's argv with its output placeholder bound to a path in workdir."""
    out_path = None
    argv = []
    for arg in spec["argv"]:
        if arg.startswith("{out}"):
            out_path = str(workdir / f"op{index}{arg[len('{out}'):]}")
            arg = out_path
        argv.append(arg)
    return argv, out_path


def cli_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


def run_cli_process(spec: dict, index: int, workdir: Path, root: Path,
                    timeout: float) -> OpRecord:
    argv, out_path = materialize(spec, workdir, index)
    stdout_path = workdir / f"op{index}.stdout"
    stderr_path = workdir / f"op{index}.stderr"
    res = run_process([sys.executable, "-m", "gravreduce.cli"] + argv, timeout,
                      str(stdout_path), str(stderr_path), env=cli_env(root))
    rec = OpRecord(spec, argv, res.latency_s, res.exit_code, res.timed_out,
                   stdout_path.read_text(), stderr_path.read_text(), out_path,
                   res.maxrss_kb)
    stdout_path.unlink()
    stderr_path.unlink()
    return rec


class OpTimeout(Exception):
    pass


@contextlib.contextmanager
def _alarm(seconds: float):
    def expire(signum, frame):
        raise OpTimeout()

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def run_cli_inprocess(main, spec: dict, index: int, workdir: Path,
                      timeout: float) -> OpRecord:
    """Run an op through ``main(argv)`` in this process (traced run, reference)."""
    argv, out_path = materialize(spec, workdir, index)
    out, err = io.StringIO(), io.StringIO()
    timed_out = False
    code = None
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            with _alarm(timeout):
                code = main(argv)
        except OpTimeout:
            timed_out = True
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # an escaped exception is a traceback the user would see
            traceback.print_exc(file=err)
    latency = time.perf_counter() - t0
    return OpRecord(spec, argv, latency, code, timed_out, out.getvalue(),
                    err.getvalue(), out_path)


def judge(rec: OpRecord, reference: dict) -> tuple[list[str], dict | None]:
    """Every reason the op failed (empty when it passed), and its output summary."""
    if rec.timed_out:
        return ["timed out"], None
    bad = []
    if rec.exit_code != rec.spec["expect_exit"]:
        bad.append(f"exit code {rec.exit_code}, expected {rec.spec['expect_exit']}")
    if rec.stderr:
        bad.append(f"stderr: {rec.stderr.strip()[:300]}")
    ref = reference.get(rec.spec["id"])
    if ref is None or ref["argv"] != rec.spec["argv"]:
        return bad + ["no reference recorded for this op"], None
    try:
        got = checks.extract(rec.argv, rec.stdout, rec.out_path)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return bad + [f"unreadable output: {exc!r}"], None
    return bad + checks.compare(checks.output_kind(rec.argv), got, ref["summary"]), got
