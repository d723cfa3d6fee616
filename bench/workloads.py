"""Seeded operation lists for the four benchmark workloads.

Every CLI workload is a fixed cycle of *slots*.  A slot fixes what kind of
operation runs (subcommand, body kind, unit system, output format and
destination); its physical parameters come from a pool of variants drawn
once from ``POOL_SEED``.  The run seed only chooses which variant each
occurrence of a slot uses.  So the same seed always gives the same op list,
every seed gives the same mix of work (which keeps runs comparable across
seeds), and every op that can ever run has a reference output recorded in
``reference.json`` (see ``record_reference.py``).

The oracle workload has no pool: its results are checked against the
package's closed forms inside the session, so its parameters are drawn from
the run seed directly.
"""

from __future__ import annotations

import math
import random

POOL_SEED = 240909655

PROTON_MASS_KG = 1.67262192369e-27
# CODATA 2018, as in gravreduce.core; used only to choose t_end in units of
# the characteristic time sqrt(sigma0^3 / (G m)).
G = {"dimensionless": 1.0, "si": 6.67430e-11, "cgs": 6.67430e-8}

# Parameter ranges.  Dimensionless values are log-uniform over 1e-3..1e3, as
# gravreduce.verify draws them.  SI and CGS masses run from a proton to about
# 10 kg; sphere radii follow from the mass at ordinary densities.
MASS = {"dimensionless": (1e-3, 1e3), "si": (PROTON_MASS_KG, 10.0),
        "cgs": (PROTON_MASS_KG * 1e3, 1e4)}
WIDTH = {"dimensionless": (1e-3, 1e3), "si": (1e-15, 1e-1), "cgs": (1e-13, 10.0)}
DENSITY = {"si": (1e3, 2e4), "cgs": (1.0, 20.0)}
# Integrated quantities (numeric tau, simulate) need r and v well above the
# CLI's absolute tolerance of 1e-12, so that the solver's relative tolerance
# governs the result and an integrator change stays checkable.
INTEGRATED_MASS = {"dimensionless": (1e-3, 1e3), "si": (1e-3, 10.0), "cgs": (1.0, 1e4)}
INTEGRATED_WIDTH = {"dimensionless": (1e-1, 1e3), "si": (1e-2, 1.0), "cgs": (1.0, 100.0)}

POOL_VARIANTS = {"survey": 16, "sweep": 8, "trajectory": 8}
T_END_CHARS = 1000.0    # simulate span, in characteristic times

# survey: (op, kind, units, format, destination)
SURVEY_SLOTS = [
    ("critical", "point", "dimensionless", "json", "stdout"),
    ("tau-closed", "point", "si", "json", "stdout"),
    ("critical", "sphere", "cgs", "csv", "out"),
    ("tau-numeric", "point", "dimensionless", "json", "stdout"),
    ("critical", "point", "si", "csv", "stdout"),
    ("tau-closed", "sphere", "dimensionless", "csv", "out"),
    ("verify", None, None, None, "stdout"),
    ("tau-numeric", "point", "cgs", "json", "out"),
    ("critical", "sphere", "si", "json", "out"),
    ("tau-closed", "point", "dimensionless", "csv", "stdout"),
    ("verify-perturb", None, None, None, "stdout"),
    ("tau-closed", "sphere", "si", "json", "stdout"),
]

# sweep: (kind, units, gridded variables with point counts, spacing, format).
# Ops of similar cost keep the median op latency steady from seed to seed.
SWEEP_SLOTS = [
    ("point", "dimensionless", (("mass", 160), ("sigma0", 160)), "log", "csv"),
    ("sphere", "si", (("mass", 30), ("sigma0", 30), ("radius", 30)), "log", "csv"),
    ("sphere", "cgs", (("mass", 150), ("sigma0", 150)), "log", "csv"),
    ("point", "dimensionless", (("mass", 200), ("sigma0", 120)), "lin", "csv"),
    ("point", "si", (("mass", 120), ("sigma0", 120)), "log", "json"),
    ("point", "cgs", (("mass", 250), ("sigma0", 100)), "log", "csv"),
]

# trajectory: (law, units, format)
TRAJECTORY_SLOTS = [
    ("gravity-point", "dimensionless", "csv"),
    ("mixed-point", "dimensionless", "csv"),
    ("gravity-object", "si", "csv"),
    ("gravity-point", "cgs", "json"),
    ("gravity-object", "dimensionless", "csv"),
    ("gravity-point", "si", "csv"),
]

SLOTS = {"survey": SURVEY_SLOTS, "sweep": SWEEP_SLOTS, "trajectory": TRAJECTORY_SLOTS}
CLI_WORKLOADS = ("survey", "sweep", "trajectory")
WORKLOADS = CLI_WORKLOADS + ("oracle",)

# The seven observables gravreduce.verify checks with expect().
OBSERVABLES = ("avg-quantum-force", "avg-self-gravity-force-point",
               "avg-quantum-potential", "avg-self-gravity-potential-point",
               "avg-energy-point", "avg-self-gravity-potential-object",
               "avg-self-gravity-force-object")
ORACLE_PARAM_SETS = 512


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return lo * (hi / lo) ** rng.random()


def _uniform(rng: random.Random, lo: float, hi: float) -> float:
    return lo + (hi - lo) * rng.random()


def _log_span(rng, lo, hi, min_decades, max_decades):
    """A log-spaced sub-interval of [lo, hi] covering min..max decades."""
    total = math.log10(hi / lo)
    width = min(_uniform(rng, min_decades, max_decades), total)
    start = lo * 10.0 ** (_uniform(rng, 0.0, total - width))
    return start, start * 10.0 ** width


def _radius(rng, mass, units):
    if units == "dimensionless":
        return _log_uniform(rng, *MASS["dimensionless"])
    rho = _log_uniform(rng, *DENSITY[units])
    return (3.0 * mass / (4.0 * math.pi * rho)) ** (1.0 / 3.0)


def _out_args(fmt, dest):
    args = ["--format", fmt]
    if dest == "out":
        args += ["--out", "{out}." + fmt]
    return args


# ---------------------------------------------------------------- pools

def _survey_variant(rng, slot):
    op, kind, units, fmt, dest = slot
    if op == "verify":
        return {"argv": ["verify", "--quick"], "expect_exit": 0, "work": 1}
    if op == "verify-perturb":
        return {"argv": ["verify", "--quick", "--perturb", "1e-6"],
                "expect_exit": 1, "work": 1}
    if op == "tau-numeric":
        mass = _log_uniform(rng, *INTEGRATED_MASS[units])
        sigma0 = _log_uniform(rng, *INTEGRATED_WIDTH[units])
    else:
        mass = _log_uniform(rng, *MASS[units])
        sigma0 = _log_uniform(rng, *WIDTH[units])
    argv = ["critical" if op == "critical" else "tau", "--units", units]
    argv += ["--mass", repr(mass), "--sigma0", repr(sigma0), "--kind", kind]
    if kind == "sphere":
        argv += ["--radius", repr(_radius(rng, mass, units))]
    if op == "tau-closed" and kind == "point":
        argv.append("--no-numeric")
    argv += _out_args(fmt, dest)
    return {"argv": argv, "expect_exit": 0, "work": 1}


def _sweep_variant(rng, slot):
    kind, units, grids, spacing, fmt = slot
    ranges = {"mass": MASS[units], "sigma0": WIDTH[units]}
    if units == "dimensionless":
        ranges["radius"] = MASS["dimensionless"]
    else:
        # radii of a proton-mass to 10 kg body at ordinary densities
        ranges["radius"] = {"si": (1e-11, 1e-1), "cgs": (1e-9, 10.0)}[units]
    argv = ["sweep", "--units", units, "--kind", kind]
    gridded = {name for name, _ in grids}
    rows = 1
    for name, n in grids:
        lo, hi = ranges[name]
        if spacing == "log":
            lo, hi = _log_span(rng, lo, hi, 1.0, 4.0)
        else:
            lo = _uniform(rng, 0.1, 1.0)
            hi = lo * _uniform(rng, 10.0, 100.0)
        argv += ["--grid", f"{name}={lo!r}:{hi!r}:{n}:{spacing}"]
        rows *= n
    if kind == "sphere" and "radius" not in gridded:
        argv += ["--radius", repr(_log_uniform(rng, *ranges["radius"]))]
    argv += _out_args(fmt, "out")
    return {"argv": argv, "expect_exit": 0, "work": rows}


def _trajectory_variant(rng, slot):
    law, units, fmt = slot
    if law == "mixed-point":
        # Gravity must dominate near the origin, and the start must lie inside
        # the barrier r_b where the net force turns outward, so the orbit is
        # bound.  k is the ratio of the gravitational to the quantum slope of
        # the force at r = 0 (hbar = G = 1).
        sigma0 = _log_uniform(rng, 0.1, 10.0)
        k = _log_uniform(rng, 100.0, 300.0)
        mass = (k / (4.0 * math.sqrt(2.0 / math.pi) * sigma0)) ** (1.0 / 3.0)
        r0 = sigma0 * math.sqrt(2.0 * math.log(k)) * _uniform(rng, 0.35, 0.5)
    else:
        mass = _log_uniform(rng, *INTEGRATED_MASS[units])
        sigma0 = _log_uniform(rng, *INTEGRATED_WIDTH[units])
        if law == "gravity-object":
            # the sphere's force vanishes at sqrt(3) R; start inside that well
            radius = sigma0 * _uniform(rng, 0.8, 1.0)
            r0 = math.sqrt(3.0) * radius * _uniform(rng, 0.8, 0.9)
        else:
            r0 = sigma0 * _uniform(rng, 0.75, 1.25)
    t_end = T_END_CHARS * math.sqrt(sigma0 ** 3 / (G[units] * mass))
    argv = ["simulate", "--law", law, "--units", units]
    argv += ["--mass", repr(mass), "--sigma0", repr(sigma0)]
    if law == "gravity-object":
        argv += ["--kind", "sphere", "--radius", repr(radius)]
    argv += ["--r0", repr(r0), "--t-end", repr(t_end)]
    argv += _out_args(fmt, "out")
    return {"argv": argv, "expect_exit": 0, "work": T_END_CHARS}


_VARIANT = {"survey": _survey_variant, "sweep": _sweep_variant,
            "trajectory": _trajectory_variant}


def pool(workload: str) -> list[list[dict]]:
    """All variants of every slot of a CLI workload, each with a stable id."""
    out = []
    for s, slot in enumerate(SLOTS[workload]):
        rng = random.Random(f"{POOL_SEED}/{workload}/{s}")
        n = 1 if slot[0] in ("verify", "verify-perturb") else POOL_VARIANTS[workload]
        variants = []
        for v in range(n):
            spec = _VARIANT[workload](rng, slot)
            spec["id"] = f"{workload}/{s}/{v}"
            variants.append(spec)
        out.append(variants)
    return out


class OpList:
    """The seeded, unbounded op sequence of a CLI workload.

    Op i runs slot i mod len(slots); successive occurrences of a slot walk a
    seeded permutation of that slot's variants.
    """

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.slots = pool(workload)
        self.orders = []
        for s, variants in enumerate(self.slots):
            order = list(range(len(variants)))
            random.Random(f"{seed}/{workload}/{s}").shuffle(order)
            self.orders.append(order)

    def __getitem__(self, i: int) -> dict:
        s = i % len(self.slots)
        k = i // len(self.slots)
        order = self.orders[s]
        return self.slots[s][order[k % len(order)]]


def _params(rng, lo, hi):
    return {"m": _log_uniform(rng, lo, hi), "s0": _log_uniform(rng, lo, hi),
            "R": _log_uniform(rng, lo, hi)}


def oracle_calls(seed: int) -> list[dict]:
    """Seeded public-API calls for the oracle session, ten per parameter set.

    Each call's parameters cover the range gravreduce.verify certifies for
    that oracle: 1e-3..1e3 for averages, 1e-2..1e2 for self-energies.
    """
    rng = random.Random(f"{seed}/oracle")
    calls = []
    for i in range(ORACLE_PARAM_SETS):
        params = _params(rng, 1e-3, 1e3)
        for name in OBSERVABLES:
            calls.append({"fn": "expect", "obs": name, **params})
        for kind in ("point", "sphere"):
            near = _params(rng, 1e-2, 1e2)
            calls.append({"fn": "qg_potential_numeric", "kind": kind,
                          "r": near["s0"] * _uniform(rng, 0.05, 4.0), **near})
        calls.append({"fn": "critical_width_energy_min",
                      "kind": "point" if i % 2 == 0 else "sphere", **params})
    return calls
