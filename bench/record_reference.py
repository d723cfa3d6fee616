"""Record ``reference.json``: the output summary of every pool op.

The reference belongs to the commit the benchmark was defined at; re-record
it only when the op pools in ``workloads.py`` change, and then from a
checkout of that commit's ``src/``.  Run from the repository root:

    python3 bench/record_reference.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import ops  # noqa: E402
import workloads  # noqa: E402
from gravreduce import cli  # noqa: E402


def main() -> int:
    workdir = ROOT / ".bench_work" / "reference"
    workdir.mkdir(parents=True, exist_ok=True)
    reference = {}
    for workload in workloads.CLI_WORKLOADS:
        for variants in workloads.pool(workload):
            for spec in variants:
                rec = ops.run_cli_inprocess(cli.main, spec, 0, workdir, timeout=600.0)
                if rec.exit_code != spec["expect_exit"] or rec.stderr or rec.timed_out:
                    print(f"{spec['id']} failed: exit {rec.exit_code}, {rec.stderr!r}",
                          file=sys.stderr)
                    return 1
                summary = checks.extract(rec.argv, rec.stdout, rec.out_path)
                rec.remove_outputs()
                if workload == "trajectory" and (
                        summary["period"] is None
                        or any(kind == "escape" for _, kind in summary["events"].values())):
                    print(f"{spec['id']} is not a bound orbit", file=sys.stderr)
                    return 1
                reference[spec["id"]] = {"argv": spec["argv"], "summary": summary}
                print(spec["id"], f"{rec.latency_s:.3f} s", flush=True)
    (BENCH / "reference.json").write_text(json.dumps(reference, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
