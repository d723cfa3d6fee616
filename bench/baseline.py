"""Repeat the benchmark over many seeds and summarise the spread.

Runs ``run.py`` with tracing off for two sets of ten seeds on every workload
in BENCHMARK.json, then once per workload with tracing on.  The two sets are
interleaved: round i runs seed i of one set and seed i of the other, in an
order that alternates from round to round, and the workload order rotates
from one seed to the next.  A slow drift of the host's speed then widens both
sets alike instead of shifting one against the other.

It writes every value, the medians, quartiles and interquartile spread (as a
share of the median) of every end-to-end metric, and how far the second
set's median lies from the first's, judged against the bounds in
BENCHMARK.json.  Run from the repository root:

    python3 bench/baseline.py --out bench/baseline.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUNS = 10   # seeds per set
SETS = 2


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    res = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", workload,
                          "--seed", str(seed), "--seconds", str(seconds),
                          "--trace", str(trace)],
                         cwd=ROOT, capture_output=True, text=True, timeout=600)
    if res.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {res.returncode}: {res.stderr[-2000:]}")
    line = json.loads(res.stdout.strip().splitlines()[-1])
    print(f"{time.strftime('%H:%M:%S')} {workload} seed {seed} trace {trace}: "
          f"correct={line['correct']} attempted={line['attempted']} failed={line['failed']}",
          flush=True)
    return line


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n", 1)[0])
    p.add_argument("--out", required=True)
    args = p.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    started = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    lines: dict[tuple[int, str], list[dict]] = {(s, w): [] for s in range(SETS) for w in names}
    step = 0
    for i in range(RUNS):
        for s in (range(SETS) if i % 2 == 0 else reversed(range(SETS))):
            r = step % len(names)
            for workload in names[r:] + names[:r]:
                lines[s, workload].append(run_once(workload, 1 + s * RUNS + i, seconds, 0))
            step += 1
    finished = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())

    sets = [{w: {"seeds": list(range(1 + s * RUNS, 1 + (s + 1) * RUNS)),
                 "all_correct": all(ln["correct"] for ln in lines[s, w]),
                 "attempted": sum(ln["attempted"] for ln in lines[s, w]),
                 "failed": sum(ln["failed"] for ln in lines[s, w]),
                 "metrics": {m: summarise([ln["metrics"][m]["value"] for ln in lines[s, w]])
                             for m in bounds}}
             for w in names} for s in range(SETS)]

    verdict = {}
    for workload in names:
        for metric, b in bounds.items():
            first = sets[0][workload]["metrics"][metric]["median"]
            shift = (sets[1][workload]["metrics"][metric]["median"] - first) / first
            worse_shift = max(0.0, shift if b["better"] == "lower" else -shift)
            spreads = [st[workload]["metrics"][metric]["spread"] for st in sets]
            verdict[f"{workload}/{metric}"] = {
                "bound": b["bound"], "spreads": spreads, "worse_shift": worse_shift,
                "spread_within_bound": max(spreads) <= b["bound"],
                "shift_within_bound": worse_shift <= b["bound"]}

    traced = {w: run_once(w, 1, seconds, 1)["metrics"] for w in names}
    results = sorted((ROOT / ".bench_work" / "results").glob("*-trace0.json"))
    manifest = json.loads(results[-1].read_text())["manifest"] if results else None
    out = {"run_seconds": seconds, "started": started, "finished": finished,
           "order": "interleaved", "manifest": manifest, "sets": sets,
           "verdict": verdict, "traced_seed1": traced}
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    for key, v in verdict.items():
        print(f"{key:<28} spreads {', '.join(f'{x:.3f}' for x in v['spreads'])} "
              f"bound {v['bound']}  worse shift {v['worse_shift']:+.3f}  "
              f"{'ok' if v['spread_within_bound'] and v['shift_within_bound'] else 'OUT OF BOUND'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
