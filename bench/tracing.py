"""Span recorder, layer wrappers and the reductions of the traced run.

The traced run wraps the public functions of every package module at the
module attribute, in every module that binds them, so calls made inside the
package through module globals are seen too.  Entry points record a span
(name, start, end, parent, op id); the hot scalar functions, which run once
per quadrature node or ODE right-hand side, only count their calls, keyed by
the span they ran in, and their time is charged to that span.  Spans stay in
memory and are written out when the run ends.

A layer is a package module.  Its self time is the time of its spans minus
that of their child spans; the ``bench`` layer is the benchmark's own loop
around the ops, so the self times of all layers add up to the traced wall
time.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import statistics
import time
import timeit
from array import array
from collections import Counter

import numpy as np

LAYERS = ("cli", "criticality", "dynamics", "potentials", "averages", "minimize",
          "core", "verify")
MODULES = ("gravreduce",) + tuple(f"gravreduce.{name}" for name in LAYERS)

# Scalar functions evaluated per quadrature node or ODE step: counted, not spanned.
HOT = {
    "core": {"density"},
    "potentials": {"quantum_potential", "quantum_force", "classical_kernel",
                   "qg_potential_point", "qg_force_point", "qg_potential_object",
                   "qg_force_object", "qg_potential_object_asymptotic",
                   "qg_well_potential_point"},
    "dynamics": {"force_gravity_dominant_point", "force_mixed_point",
                 "force_gravity_dominant_object"},
    "criticality": {"force_balance_residual"},
    "averages": {"avg_quantum_force", "avg_qg_force_point", "avg_quantum_potential",
                 "avg_qg_potential_point", "avg_energy_point", "avg_qg_potential_object",
                 "avg_energy_object", "avg_qg_force_object", "avg_qg_force_object_micro",
                 "avg_qg_force_object_macro", "avg_qg_force_object_intermediate"},
}
HOT_METHODS = {("dynamics", "ForceLaw"): ("force_at", "potential_at")}


class Recorder:
    """Spans in flat arrays, open spans on a stack, counts keyed by enclosing span."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self.stack: list[int] = []
        self.op_id = -1
        self.counts: Counter = Counter()     # (name id, enclosing name id) -> calls
        self.sums: Counter = Counter()       # quantities read off return values
        self.sample_args: dict[int, tuple] = {}

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.op_id)
        self.end.append(0)
        self.stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int):
        self.end[idx] = time.perf_counter_ns()
        self.stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(self.name_id(name))
        try:
            yield
        finally:
            self.close(idx)

    def count(self, nid: int):
        self.counts[nid, self.name[self.stack[-1]] if self.stack else -1] += 1

    def arrays(self) -> dict[str, np.ndarray]:
        return {key: np.frombuffer(getattr(self, key), dtype=dtype).copy()
                for key, dtype in (("name", np.int32), ("start", np.int64),
                                   ("end", np.int64), ("parent", np.int32),
                                   ("op", np.int32))}

    def save(self, path):
        """Write the spans (times in ns from perf_counter) and the name table."""
        np.savez(path, names=np.array(self.names), **self.arrays())


# ---------------------------------------------------------------- wrappers

def _span_wrapper(rec: Recorder, name: str, fn):
    nid = rec.name_id(name)
    if name == "dynamics.integrate":
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = rec.open(nid)
            try:
                traj = fn(*args, **kwargs)
            finally:
                rec.close(idx)
            rec.sums["dynamics.steps"] += len(traj.t) - 1
            rec.sums["dynamics.samples"] += len(traj.t)
            rec.sums["dynamics.t_chars"] += float(traj.t[-1]) / traj.law.characteristic_time()
            return traj
        return wrapper
    if name == "minimize.minimize_bracketed":
        f_nid = rec.name_id("minimize.f_evals")

        def counted(f):
            def g(x):
                rec.count(f_nid)
                return f(x)
            return g

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            args = [counted(a) if callable(a) else a for a in args]
            kwargs = {k: counted(v) if callable(v) else v for k, v in kwargs.items()}
            idx = rec.open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                rec.close(idx)
        return wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = rec.open(nid)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.close(idx)
    return wrapper


def _count_wrapper(rec: Recorder, name: str, fn):
    nid = rec.name_id(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec.count(nid)
        if nid not in rec.sample_args:
            rec.sample_args[nid] = (fn, args, kwargs)
        return fn(*args, **kwargs)
    return wrapper


def install(rec: Recorder) -> list[tuple]:
    """Wrap the package's public functions; returns what ``uninstall`` restores."""
    import importlib
    import scipy.integrate

    # third-party solvers bound as package module globals: counted per caller
    foreign = {id(scipy.integrate.quad): "scipy.quad",
               id(scipy.integrate.solve_ivp): "scipy.solve_ivp"}
    wrapped: dict = {}
    saved = []
    for mod in [importlib.import_module(m) for m in MODULES]:
        for attr, value in list(vars(mod).items()):
            if attr.startswith("_"):
                continue
            if inspect.isfunction(value) and value.__module__.startswith("gravreduce."):
                layer = value.__module__.split(".", 1)[1]
                name = f"{layer}.{value.__name__}"
                make = _count_wrapper if value.__name__ in HOT.get(layer, ()) else _span_wrapper
            elif id(value) in foreign:
                name, make = foreign[id(value)], _count_wrapper
            else:
                continue
            if value not in wrapped:
                wrapped[value] = make(rec, name, value)
            saved.append((mod, attr, value))
            setattr(mod, attr, wrapped[value])
    for (layer, cls_name), methods in HOT_METHODS.items():
        cls = getattr(importlib.import_module(f"gravreduce.{layer}"), cls_name)
        for meth in methods:
            original = cls.__dict__[meth]
            saved.append((cls, meth, original))
            setattr(cls, meth, _count_wrapper(rec, f"{layer}.{cls_name}.{meth}", original))
    return saved


def uninstall(saved: list[tuple]):
    for obj, attr, value in reversed(saved):
        setattr(obj, attr, value)


# ---------------------------------------------------------------- reductions

def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def self_times(names: list[str], name: np.ndarray, start: np.ndarray, end: np.ndarray,
               parent: np.ndarray) -> dict[str, float]:
    """Seconds of self time per span name: duration minus child durations."""
    dur = (end - start).astype(np.float64)
    child = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    own = np.bincount(name, weights=dur - child, minlength=len(names))
    return {n: float(own[i]) * 1e-9 for i, n in enumerate(names)}


def span_stats(names: list[str], name: np.ndarray, start: np.ndarray,
               end: np.ndarray) -> dict[str, tuple[int, float]]:
    """(calls, total seconds) of the spans of each name."""
    dur = (end - start).astype(np.float64)
    calls = np.bincount(name, minlength=len(names))
    total = np.bincount(name, weights=dur, minlength=len(names))
    return {n: (int(calls[i]), float(total[i]) * 1e-9) for i, n in enumerate(names)}


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile (statistics.quantiles, inclusive method)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[int(q) - 1]


def microbench_us(fn, args, kwargs, target_s: float = 0.01, repeat: int = 5) -> float:
    """Best-of-repeat microseconds per call of fn(*args, **kwargs)."""
    timer = timeit.Timer(lambda: fn(*args, **kwargs))
    number, _ = timer.autorange()
    number = max(1, int(number * target_s / 0.2))
    return min(timer.repeat(repeat=repeat, number=number)) / number * 1e6


def parse_importtime(stderr: str, modules: tuple[str, ...]) -> dict[str, float]:
    """Cumulative seconds of each module's first import in ``-X importtime`` output."""
    out = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name = parts[2].strip()
        if name in modules and name not in out:
            out[name] = int(parts[1]) * 1e-6
    return out


def reduce(rec: Recorder, ops: int, rows: int) -> dict[str, float]:
    """Per-layer metrics of a traced pass over ``ops`` ops (``rows`` sweep rows)."""
    arr = rec.arrays()
    names = rec.names
    own = self_times(names, arr["name"], arr["start"], arr["end"], arr["parent"])
    stats = span_stats(names, arr["name"], arr["start"], arr["end"])
    wall = stats["bench.pass"][1]
    out: dict[str, float] = {"trace.wall_s": wall}
    layer_self = Counter()
    for n, s in own.items():
        layer_self[layer_of(n)] += s
    for layer in LAYERS + ("bench",):
        out[f"{layer}.self_s"] = layer_self[layer]
        out[f"{layer}.self_frac"] = layer_self[layer] / wall
    out["trace.self_sum_s"] = sum(layer_self.values())

    calls = Counter()       # per function name, spans and counted calls alike
    within = Counter()      # (function, enclosing span name) -> calls
    for n, (c, _) in stats.items():
        calls[n] += c
    for (nid, enc), c in rec.counts.items():
        calls[names[nid]] += c
        within[names[nid], names[enc] if enc >= 0 else None] += c
    for layer in LAYERS:
        out[f"{layer}.calls_per_op"] = sum(c for n, c in calls.items()
                                           if layer_of(n) == layer) / ops

    def mean(name, scale=1e6):
        c, total = stats.get(name, (0, 0.0))
        return total / c * scale if c else None

    def ratio(num, den):
        return num / den if den else None

    steps, samples = rec.sums["dynamics.steps"], rec.sums["dynamics.samples"]
    tau_closed_us, tau_numeric_ms = _tau_split(names, arr)
    derived = {
        "cli.self_us_per_row": ratio(layer_self["cli"] * 1e6, rows),
        "cli.self_us_per_sample": ratio(layer_self["cli"] * 1e6, samples),
        "criticality.classify_regime_us": mean("criticality.classify_regime"),
        "criticality.calls_per_row": ratio(sum(c for n, c in calls.items()
                                               if layer_of(n) == "criticality"), rows),
        "dynamics.integrate_us_per_step": ratio(stats.get("dynamics.integrate", (0, 0.0))[1] * 1e6,
                                                steps),
        "dynamics.steps_per_tchar": ratio(steps, rec.sums["dynamics.t_chars"]),
        "dynamics.force_evals_per_step": ratio(
            within["dynamics.ForceLaw.force_at", "dynamics.integrate"], steps),
        "dynamics.potential_evals_per_sample": ratio(
            within["dynamics.ForceLaw.potential_at", "dynamics.integrate"], samples),
        "dynamics.tau_closed_us": tau_closed_us,
        "dynamics.tau_numeric_ms": tau_numeric_ms,
        "potentials.qg_potential_numeric_us": mean("potentials.qg_potential_numeric"),
        "potentials.qg_potential_numeric_neval": ratio(
            within["core.density", "potentials.qg_potential_numeric"],
            calls["potentials.qg_potential_numeric"]),
        "averages.expect_us": mean("averages.expect"),
        "averages.expect_neval": ratio(within["core.density", "averages.expect"],
                                       calls["averages.expect"]),
        "averages.quad_calls_per_expect": ratio(within["scipy.quad", "averages.expect"],
                                                calls["averages.expect"]),
        "minimize.minimize_bracketed_us": mean("minimize.minimize_bracketed"),
        "minimize.f_evals": ratio(calls["minimize.f_evals"],
                                  calls["minimize.minimize_bracketed"]),
        "core.density_calls_per_op": calls["core.density"] / ops,
        "verify.run_all_s": mean("verify.run_all", 1.0),
    }
    for name in names:
        if name.startswith("verify.check_"):
            derived[f"verify.check_s.{name[len('verify.'):]}"] = mean(name, 1.0)
    for nid, (fn, args, kwargs) in rec.sample_args.items():
        if layer_of(names[nid]) == "potentials":
            derived[f"potentials.scalar_us.{fn.__name__}"] = microbench_us(fn, args, kwargs)
    out.update({k: v for k, v in derived.items() if v is not None})
    return out


def _tau_split(names, arr) -> tuple[float | None, float | None]:
    """Mean closed-form tau span (us) and numeric tau span (ms).

    A tau_point span is the numeric estimate exactly when it contains an
    integrate span.
    """
    if "dynamics.integrate" not in names:
        integrate_parents = set()
    else:
        nid = names.index("dynamics.integrate")
        integrate_parents = set(arr["parent"][arr["name"] == nid].tolist())
    closed, numeric = [], []
    for tau in ("dynamics.tau_point", "dynamics.tau_object"):
        if tau not in names:
            continue
        idx = np.flatnonzero(arr["name"] == names.index(tau))
        dur = (arr["end"][idx] - arr["start"][idx]) * 1e-9
        for i, d in zip(idx.tolist(), dur.tolist()):
            (numeric if i in integrate_parents else closed).append(d)
    return (statistics.fmean(closed) * 1e6 if closed else None,
            statistics.fmean(numeric) * 1e3 if numeric else None)
