"""The oracle workload's long-lived library session.

Run as a child process with the package on PYTHONPATH, it reads one JSON
request on stdin.  ``{"warmup": true}`` imports the library modules, makes one
call and exits (the set-up measurement).  ``{"calls": [...], "seconds": s}``
makes the calls in a closed loop, cycling through the list, until s seconds
have passed, then checks every result against its closed form at
gravreduce.verify's tolerances and prints latencies and failures as JSON.

The traced run imports this module and uses ``prepare``/``run``/``check``
in-process.  Calls go through module attributes at call time, so wrappers
installed on those attributes see them.

Where a self-energy integral cancels (the sphere kernel changes sign at
sqrt(3) R), the closed form loses digits to cancellation: for r, R << sigma0
it can be off by 1e-9 relative while the quadrature is right to 1e-15.  Such
a result is judged, as ``averages.expect`` judges a cancelling integrand,
against the integrand's L1 scale at the same tolerance, and is counted as a
closed-form cancellation rather than a failed call.
"""

from __future__ import annotations

import json
import math
import sys
import time

import calibrate
from checks import CLOSED_FORM_RTOL  # verify.check_potential_oracles, check_critical_constants

EXPECT_RTOL = 1e-8        # verify.check_average_oracles
# The measured loop times a calibration once this long has passed since the
# last, so each stretch of calls is scaled by the host speed right after it.
CALIBRATE_EVERY_S = 0.1


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def _observable(name, packet, point, sphere, ctx):
    """(closed form, observable) for one of the averages verify checks."""
    from gravreduce import averages as a, potentials as p
    return {
        "avg-quantum-force": (
            a.avg_quantum_force(packet, point, ctx),
            lambda r: p.quantum_force(r, packet, point, ctx)),
        "avg-self-gravity-force-point": (
            a.avg_qg_force_point(packet, point, ctx),
            lambda r: p.qg_force_point(r, packet, point, ctx)),
        "avg-quantum-potential": (
            a.avg_quantum_potential(packet, point, ctx),
            lambda r: p.quantum_potential(r, packet, point, ctx)),
        "avg-self-gravity-potential-point": (
            a.avg_qg_potential_point(packet, point, ctx),
            lambda r: p.qg_potential_point(r, packet, point, ctx)),
        "avg-energy-point": (
            a.avg_energy_point(packet, point, ctx),
            lambda r: (p.quantum_potential(r, packet, point, ctx)
                       + p.qg_potential_point(r, packet, point, ctx))),
        "avg-self-gravity-potential-object": (
            a.avg_qg_potential_object(packet, sphere, ctx),
            lambda r: p.qg_potential_object(r, packet, sphere, ctx)),
        "avg-self-gravity-force-object": (
            a.avg_qg_force_object(packet, sphere, ctx),
            lambda r: p.qg_force_object(r, packet, sphere, ctx)),
    }[name]


def _l1_scale(r, body, packet, ctx):
    """Integral of |kernel * density * 4 pi r'^2| over [0, r]."""
    from scipy.integrate import quad
    from gravreduce import potentials as p
    from gravreduce.core import density
    value, _ = quad(lambda x: abs(p.classical_kernel(x, body, ctx) * density(x, packet))
                    * 4.0 * math.pi * x * x, 0.0, r, epsrel=1e-6, limit=200)
    return value


def prepare(calls: list[dict]) -> list[tuple]:
    """(thunk, closed-form value, tolerance, L1 scale or None) for each call spec."""
    from gravreduce import averages as a, criticality as c, potentials as p
    from gravreduce.core import Body, PhysicalContext, WavePacket

    ctx = PhysicalContext.dimensionless()
    out = []
    for spec in calls:
        packet = WavePacket(spec["s0"])
        point = Body.point(spec["m"])
        sphere = Body.sphere(spec["m"], spec["R"])
        fn = spec["fn"]
        if fn == "expect":
            closed, obs = _observable(spec["obs"], packet, point, sphere, ctx)
            out.append((lambda obs=obs, packet=packet: a.expect(obs, packet, ctx).value,
                        closed, EXPECT_RTOL, None))
        elif fn == "qg_potential_numeric":
            body = point if spec["kind"] == "point" else sphere
            closed_fn = p.qg_potential_point if body.is_point else p.qg_potential_object
            r = spec["r"]
            out.append((lambda r=r, body=body, packet=packet: p.qg_potential_numeric(
                r, lambda rp: p.classical_kernel(rp, body, ctx), packet, ctx),
                closed_fn(r, packet, body, ctx), CLOSED_FORM_RTOL,
                lambda r=r, body=body, packet=packet: _l1_scale(r, body, packet, ctx)))
        else:
            body = point if spec["kind"] == "point" else sphere
            out.append((lambda body=body: c.critical_width_energy_min(body, ctx),
                        c.critical_width_energy_min_exact(body, ctx), CLOSED_FORM_RTOL, None))
    return out


def run(prepared: list[tuple], seconds: float | None = None, count: int | None = None,
        calibrations: list | None = None) -> tuple[list, list[float], float]:
    """Closed loop over the prepared calls, for a time or a number of calls.

    Returns the results (a value, or the exception raised), per-call
    latencies and the loop's wall time.  Given a list, it also times
    ``calibrate.work`` between calls and after the last one, appends
    ``[calls made so far, seconds]`` for each to the list, and leaves them
    out of the wall time.
    """
    results, latencies = [], []
    n = len(prepared)
    calibrating = 0.0
    start = last = time.perf_counter()
    deadline = start + seconds if seconds is not None else None
    i = 0
    while (count is None or i < count) and (deadline is None or time.perf_counter() < deadline):
        thunk = prepared[i % n][0]
        t0 = time.perf_counter()
        try:
            value = thunk()
        except Exception as exc:  # a raising call is a failed op, not a crash
            value = exc
        latencies.append(time.perf_counter() - t0)
        results.append(value)
        i += 1
        if calibrations is not None and time.perf_counter() - last >= CALIBRATE_EVERY_S:
            calibrating += _calibrate(calibrations, i)
            last = time.perf_counter()
    if calibrations is not None and (not calibrations or calibrations[-1][0] < i):
        calibrating += _calibrate(calibrations, i)
    return results, latencies, time.perf_counter() - start - calibrating


def _calibrate(calibrations: list, done: int) -> float:
    t0 = time.perf_counter()
    calibrate.work(calibrate.SESSION_N)
    seconds = time.perf_counter() - t0
    calibrations.append([done, seconds])
    return seconds


def check(prepared: list[tuple], results: list) -> tuple[list[str], int]:
    """A message for every result that raised or missed its closed form, and
    the number of distinct calls that passed only at the L1 scale."""
    bad = []
    cancelling: dict[int, bool] = {}
    for i, value in enumerate(results):
        k = i % len(prepared)
        _, closed, tol, l1 = prepared[k]
        if isinstance(value, Exception):
            bad.append(f"call {i}: raised {value!r}")
        elif _rel(value, closed) < tol:
            continue
        elif l1 is None:
            bad.append(f"call {i}: {value!r} vs closed form {closed!r}")
        else:
            if k not in cancelling:
                cancelling[k] = abs(value - closed) < tol * l1()
            if not cancelling[k]:
                bad.append(f"call {i}: {value!r} vs closed form {closed!r}")
    return bad, sum(cancelling.values())


def main() -> int:
    request = json.load(sys.stdin)
    if request.get("warmup"):
        prepared = prepare([{"fn": "expect", "obs": "avg-energy-point",
                             "m": 1.0, "s0": 1.0, "R": 1.0}])
        results, _, _ = run(prepared, count=1)
        return 0 if not check(prepared, results)[0] else 1
    prepared = prepare(request["calls"])
    calibrations: list[float] = []
    results, latencies, wall = run(prepared, seconds=request["seconds"],
                                   calibrations=calibrations)
    failures, cancelling = check(prepared, results)
    json.dump({"latencies": latencies, "wall_s": wall, "calibrations": calibrations,
               "failures": failures,
               "closed_form_cancellations": cancelling}, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
