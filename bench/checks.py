"""Output checks: what a CLI op produced, reduced to comparable values.

``extract`` turns an op's output into a small JSON-ready summary; the
reference file holds the same summary recorded at the seed commit, and
``compare`` lists every difference beyond the tolerances below.  Trajectories
are compared by event times, period and energy drift, never by raw samples,
so that a different integrator stays checkable.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

# gravreduce.verify's tolerance for closed forms against quadrature, and its
# loosest numeric tolerance (central differences), used for integrated values.
CLOSED_FORM_RTOL = 1e-9
INTEGRATED_RTOL = 1e-6
# A faster integrator must not buy its speed with a looser tolerance: the
# energy drift of each trajectory may not exceed the reference's by more.
DRIFT_SLACK = 1.25

SWEEP_SAMPLE_ROWS = 16
TRAJECTORY_SAMPLE_EVENTS = 24


def _number(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def _flatten(payload, prefix=""):
    if isinstance(payload, dict):
        items = payload.items()
    elif isinstance(payload, list):
        items = enumerate(payload)
    else:
        return {prefix[:-1]: payload}
    out = {}
    for key, value in items:
        out.update(_flatten(value, f"{prefix}{key}."))
    return out


def _mapping(text: str) -> dict:
    """critical / tau output, JSON or key,value CSV, as a flat dict."""
    if text.lstrip().startswith("{"):
        return _flatten(json.loads(text))
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    if lines[0] != "key,value":
        raise ValueError(f"unexpected CSV header {lines[0]!r}")
    out = {}
    for line in lines[1:]:
        key, _, value = line.partition(",")
        out[key] = _number(value)
    return out


def _verify(text: str) -> dict:
    report = json.loads(text)
    return {"passed": report["passed"], "n_failed": report["n_failed"],
            "checks": {c["name"]: c["passed"] for c in report["checks"]}}


def _sample_indices(n: int, k: int) -> list[int]:
    if n <= k:
        return list(range(n))
    return sorted({round(j * (n - 1) / (k - 1)) for j in range(k)})


def _sweep(text: str) -> dict:
    if text.lstrip().startswith("{"):
        payload = json.loads(text)
        columns, rows = payload["columns"], payload["rows"]
    else:
        lines = text.splitlines()
        if not lines[0].startswith("# units"):
            raise ValueError("sweep CSV lacks its units comment")
        columns = lines[1].split(",")
        rows = lines[2:]
        if any(ln.count(",") != len(columns) - 1 for ln in rows):
            raise ValueError("a sweep row has the wrong number of fields")
        idx = _sample_indices(len(rows), SWEEP_SAMPLE_ROWS)
        return {"columns": columns, "n_rows": len(rows),
                "sample": {str(i): [_number(x) for x in rows[i].split(",")] for i in idx}}
    if any(len(row) != len(columns) for row in rows):
        raise ValueError("a sweep row has the wrong number of fields")
    idx = _sample_indices(len(rows), SWEEP_SAMPLE_ROWS)
    return {"columns": columns, "n_rows": len(rows),
            "sample": {str(i): rows[i] for i in idx}}


def _trajectory(sidecar: dict, t_end: float) -> dict:
    events = [[e["time"], e["kind"]] for e in sidecar["events"]]
    idx = _sample_indices(len(events), TRAJECTORY_SAMPLE_EVENTS)
    return {"law": sidecar["law"], "t_end": t_end, "n_events": len(events),
            "events": {str(i): events[i] for i in idx},
            "period": sidecar["period"], "energy_drift": sidecar["energy_drift"]}


def output_kind(argv: list[str]) -> str:
    return {"critical": "mapping", "tau": "mapping", "verify": "verify",
            "sweep": "sweep", "simulate": "trajectory"}[argv[0]]


def extract(argv: list[str], stdout: str, out_path: str | None) -> dict:
    """Summary of one op's output; raises on output that cannot be parsed."""
    kind = output_kind(argv)
    text = Path(out_path).read_text() if out_path else stdout
    if out_path and stdout:
        raise ValueError("op wrote to stdout although --out was given")
    if kind == "mapping":
        return _mapping(text)
    if kind == "verify":
        return _verify(text)
    if kind == "sweep":
        return _sweep(text)
    t_end = float(argv[argv.index("--t-end") + 1])
    if text.lstrip().startswith("{"):
        return _trajectory(json.loads(text), t_end)
    header = text.split("\n", 2)[1]
    if header != "t,r,v,energy":
        raise ValueError(f"unexpected trajectory header {header!r}")
    return _trajectory(json.loads(Path(out_path + ".events.json").read_text()), t_end)


def _close(a, b, rtol) -> bool:
    if isinstance(a, bool) or isinstance(b, bool) or isinstance(a, str) or isinstance(b, str):
        return a == b
    if a is None or b is None:
        return a is b
    if not (math.isfinite(a) and math.isfinite(b)):
        return False
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)


def _numeric_tau_keys(flat: dict) -> set[str]:
    return {key[:-len("method")] + "tau" for key, value in flat.items()
            if key.endswith(".method") and value == "quarter-period-numeric"}


def compare(kind: str, got: dict, ref: dict) -> list[str]:
    """Differences between an op's summary and its reference summary."""
    if kind == "mapping":
        if set(got) != set(ref):
            return [f"keys differ: {sorted(set(got) ^ set(ref))}"]
        integrated = _numeric_tau_keys(ref)
        return [f"{key}: {got[key]!r} != {ref[key]!r}" for key in ref
                if not _close(got[key], ref[key],
                              INTEGRATED_RTOL if key in integrated else CLOSED_FORM_RTOL)]
    if kind == "verify":
        return [] if got == ref else [f"verify report {got} != {ref}"]
    if kind == "sweep":
        if got["columns"] != ref["columns"] or got["n_rows"] != ref["n_rows"]:
            return [f"shape {got['columns']} x {got['n_rows']} != "
                    f"{ref['columns']} x {ref['n_rows']}"]
        bad = []
        for i, row in ref["sample"].items():
            if not all(_close(a, b, CLOSED_FORM_RTOL) for a, b in zip(got["sample"][i], row)):
                bad.append(f"row {i}: {got['sample'][i]} != {row}")
        return bad
    bad = []
    if got["law"] != ref["law"]:
        bad.append(f"law {got['law']} != {ref['law']}")
    if abs(got["n_events"] - ref["n_events"]) > 1:
        bad.append(f"{got['n_events']} events != {ref['n_events']}")
    # event times accumulate phase error over the run: bound it by t_end
    atol = INTEGRATED_RTOL * ref["t_end"]
    for i, (t, kind_) in ref["events"].items():
        if i not in got["events"]:
            continue
        gt, gk = got["events"][i]
        if gk != kind_ or abs(gt - t) > atol:
            bad.append(f"event {i}: {gt!r} {gk} != {t!r} {kind_}")
    if not _close(got["period"], ref["period"], INTEGRATED_RTOL):
        bad.append(f"period {got['period']!r} != {ref['period']!r}")
    if not got["energy_drift"] <= DRIFT_SLACK * ref["energy_drift"]:
        bad.append(f"energy drift {got['energy_drift']!r} exceeds "
                   f"{DRIFT_SLACK} x reference {ref['energy_drift']!r}")
    return bad
