"""Self-verification suite: oracle cross-checks runnable from the CLI.

Each check compares an independent numerical route (Gauss-Legendre quadrature,
central differences, energy conservation, reference magnitudes) against the
closed forms, and reports the measured discrepancy next to its tolerance.
A perturbation factor can be injected into the closed-form side to prove the
checks actually bite.
"""

from __future__ import annotations

import math
import random
from collections import namedtuple

# dop853 is the stepper of the energy checks.  Imported with this module, its
# compile does not land on the battery's heap, where it raised the peak RSS
# by about 1.1 MB.
from . import averages, criticality, dop853, dynamics, potentials  # noqa: F401
from .core import Body, PhysicalContext, WavePacket

# Each battery draws its parameters from its own stream, random.Random(RNG_SEED
# + k).  The draws only call uniform, and the stdlib Mersenne Twister serves
# them without numpy.random, whose import costs about 20 ms (7-11 ms for
# random under python -S, none where site has loaded it already).
RNG_SEED = 20240811
# Bounds on the worst relative discrepancy of each battery
GRADIENT_TOL = 1e-6          # central differences of every (potential, force) pair
SELF_ENERGY_TOL = 1e-9       # closed-form self-energies against quadrature
AVERAGE_TOL = 1e-8           # closed-form averages against expect
ENERGY_DRIFT_TOL = 1e-7      # energy drift of integrate
MINIMIZER_TOL = 1e-9         # numeric energy minimizers against their closed forms


class Check(namedtuple("Check", "name passed measured tolerance detail", defaults=("",))):
    __slots__ = ()


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def _erf_series(x: float) -> float:
    # Alternating Maclaurin series; adequate to full precision for |x| <= 2.
    total = 0.0
    term = x
    n = 0
    factorial = 1.0
    while True:
        contrib = term / (2 * n + 1)
        total += contrib
        if abs(contrib) < 1e-20 * abs(total):
            break
        n += 1
        factorial *= n
        term = (-1) ** n * x ** (2 * n + 1) / factorial
    return 2.0 / math.sqrt(math.pi) * total


def check_erf_accuracy() -> Check:
    # numpy.linspace(0.05, 2.0, 10), element for element
    step = (2.0 - 0.05) / 9
    xs = [0.05 + i * step for i in range(9)] + [2.0]
    worst = max(_rel(math.erf(x), _erf_series(x)) for x in xs)
    return Check("erf-vs-series", worst < 1e-14, worst, 1e-14,
                 "platform erf against Maclaurin series at 10 points")


def check_gradient_consistency(n_points: int = 100) -> list[Check]:
    """Central-difference checks of every (potential, force) pair."""
    rng = random.Random(RNG_SEED)
    ctx = PhysicalContext.dimensionless()
    out = []
    worst_by_label: dict[str, float] = {}
    for _ in range(n_points):
        m = 10.0 ** rng.uniform(-3, 3)
        s0 = 10.0 ** rng.uniform(-3, 3)
        R = 10.0 ** rng.uniform(-3, 3)
        packet = WavePacket(s0)
        for body in (Body.point(m), Body.sphere(m, R)):
            pairs = potentials.potential_force_pairs(packet, body, ctx)
            r = rng.uniform(0.1, 3.0) * s0
            h = 1e-6 * s0
            for label, pot, force in pairs:
                fd = -(pot(r + h) - pot(r - h)) / (2.0 * h)
                f = force(r)
                rel = abs(f - fd) / max(abs(f), abs(fd), 1e-300)
                worst_by_label[label] = max(worst_by_label.get(label, 0.0), rel)
    for label, worst in sorted(worst_by_label.items()):
        out.append(Check(f"gradient-{label}", worst < GRADIENT_TOL, worst, GRADIENT_TOL,
                         f"worst of {n_points} random parameter sets"))
    return out


def check_potential_oracles(n_radii: int = 50, perturb: float = 0.0) -> list[Check]:
    """Closed-form self-energies against direct quadrature of the definition."""
    rng = random.Random(RNG_SEED + 1)
    ctx = PhysicalContext.dimensionless()
    factor = 1.0 + perturb
    worst_point = 0.0
    worst_object = 0.0
    for _ in range(n_radii):
        m = 10.0 ** rng.uniform(-2, 2)
        s0 = 10.0 ** rng.uniform(-2, 2)
        R = 10.0 ** rng.uniform(-2, 2)
        r = rng.uniform(0.05, 4.0) * s0
        packet = WavePacket(s0)

        point = Body.point(m)
        closed = potentials.qg_potential_point(r, packet, point, ctx) * factor
        numeric = potentials.qg_potential_numeric(
            r, lambda rp: potentials.classical_kernel(rp, point, ctx), packet, ctx)
        worst_point = max(worst_point, _rel(closed, numeric))

        sphere = Body.sphere(m, R)
        closed = potentials.qg_potential_object(r, packet, sphere, ctx) * factor
        numeric = potentials.qg_potential_numeric(
            r, lambda rp: potentials.classical_kernel(rp, sphere, ctx), packet, ctx)
        worst_object = max(worst_object, _rel(closed, numeric))
    return [Check(f"self-energy-{kind}-vs-quadrature", worst < SELF_ENERGY_TOL, worst,
                  SELF_ENERGY_TOL, f"{n_radii} random radii over 4 decades")
            for kind, worst in (("point", worst_point), ("object", worst_object))]


def check_average_oracles(n_sets: int = 20, perturb: float = 0.0) -> list[Check]:
    """Every closed-form ensemble average against the quadrature expectation."""
    rng = random.Random(RNG_SEED + 2)
    ctx = PhysicalContext.dimensionless()
    factor = 1.0 + perturb
    worst: dict[str, float] = {}
    for _ in range(n_sets):
        m = 10.0 ** rng.uniform(-3, 3)
        s0 = 10.0 ** rng.uniform(-3, 3)
        R = 10.0 ** rng.uniform(-3, 3)
        packet = WavePacket(s0)
        point = Body.point(m)
        sphere = Body.sphere(m, R)

        cases = [
            ("avg-quantum-force",
             averages.avg_quantum_force(packet, point, ctx),
             lambda r: potentials.quantum_force(r, packet, point, ctx)),
            ("avg-self-gravity-force-point",
             averages.avg_qg_force_point(packet, point, ctx),
             lambda r: potentials.qg_force_point(r, packet, point, ctx)),
            ("avg-quantum-potential",
             averages.avg_quantum_potential(packet, point, ctx),
             lambda r: potentials.quantum_potential(r, packet, point, ctx)),
            ("avg-self-gravity-potential-point",
             averages.avg_qg_potential_point(packet, point, ctx),
             lambda r: potentials.qg_potential_point(r, packet, point, ctx)),
            ("avg-energy-point",
             averages.avg_energy_point(packet, point, ctx),
             lambda r: (potentials.quantum_potential(r, packet, point, ctx)
                        + potentials.qg_potential_point(r, packet, point, ctx))),
            ("avg-self-gravity-potential-object",
             averages.avg_qg_potential_object(packet, sphere, ctx),
             lambda r: potentials.qg_potential_object(r, packet, sphere, ctx)),
            ("avg-self-gravity-force-object",
             averages.avg_qg_force_object(packet, sphere, ctx),
             lambda r: potentials.qg_force_object(r, packet, sphere, ctx)),
        ]
        for name, closed, observable in cases:
            got = averages.expect(observable, packet, ctx).value
            worst[name] = max(worst.get(name, 0.0), _rel(closed * factor, got))
    return [Check(name, w < AVERAGE_TOL, w, AVERAGE_TOL,
                  f"{n_sets} random parameter sets over 6 decades")
            for name, w in sorted(worst.items())]


def check_energy_conservation() -> list[Check]:
    ctx = PhysicalContext.dimensionless()
    packet = WavePacket(1.0)
    runs = [
        ("gravity-point", dynamics.ForceLaw.gravity_point(packet, Body.point(1.0), ctx),
         1.0, 0.0, 20.0),
        ("mixed-point", dynamics.ForceLaw.mixed_point(packet, Body.point(5.0), ctx),
         1.0, 0.0, 10.0),
        ("gravity-object",
         dynamics.ForceLaw.gravity_object(packet, Body.sphere(1.0, 1.0), ctx),
         1.5, 0.0, 15.0),
    ]
    out = []
    for name, law, r0, v0, t_end in runs:
        traj = dynamics.integrate(law, r0, v0, t_end)
        out.append(Check(f"energy-drift-{name}", traj.energy_drift < ENERGY_DRIFT_TOL,
                         traj.energy_drift, ENERGY_DRIFT_TOL,
                         f"r0={r0}, v0={v0}, t_end={t_end}"))
    return out


def check_critical_constants() -> list[Check]:
    """Numeric energy minimizers against their closed-form roots."""
    ctx = PhysicalContext.dimensionless()
    out = []
    for name, body in (("point", Body.point(1.0)), ("object", Body.sphere(1.0, 1.0))):
        numeric = criticality.critical_width_energy_min(body, ctx)
        exact = criticality.critical_width_energy_min_exact(body, ctx)
        rel = _rel(numeric, exact)
        out.append(Check(f"energy-min-width-{name}", rel < MINIMIZER_TOL, rel, MINIMIZER_TOL,
                         f"derivative bisection vs closed form {exact!r}"))
    # force balance: averaged residual must vanish at the critical width
    body = Body.point(1.0)
    w = criticality.critical_width_force_balance_at(body.mass, ctx)
    packet = WavePacket(w)
    resid = averages.expect(
        lambda r: criticality.force_balance_residual(r, packet, body, ctx),
        packet, ctx).value
    scale = averages.avg_quantum_force(packet, body, ctx)
    rel = abs(resid) / scale
    out.append(Check("force-balance-at-critical-width", rel < 1e-9, rel, 1e-9,
                     "mean residual over mean quantum force"))
    return out


# Reference magnitudes: (name, builder) -> (value, quoted power of ten)
def _reference_order_cases():
    si = PhysicalContext.si()
    proton = Body.point(1.67262192369e-27)
    proton_sphere = Body.sphere(1.67262192369e-27, 1e-15)
    ball = Body.sphere(0.1, 0.05)
    flea_egg = Body.sphere(1e-8, 5e-4)

    refs_p = criticality.reference_formulas(proton.mass, si)
    cases = [
        ("proton-critical-width-m", refs_p["karolyhazy_width"], 22),
        ("proton-localization-time-s", refs_p["karolyhazy_time"], 53),
        ("critical-mass-at-1e-4m-grams",
         criticality.critical_mass_at(1e-4, si) * 1e3, -15),
        ("proton-micro-width-cm",
         criticality.transition_width_object_at(proton_sphere.mass, proton_sphere.radius, si,
                                                criticality.ObjectRegime.MICRO).value * 1e2, 6),
        ("proton-micro-tau-s",
         criticality.tau_at(criticality.TauMethod.OBJECT_MICRO, proton_sphere.mass, 1.0, si,
                            proton_sphere.radius), 15),
    ]
    for name, body, power in (("ball-tau-s", ball, -23), ("flea-egg-tau-s", flea_egg, -11)):
        width = criticality.critical_width_energy_min_exact(body, si)
        tau = criticality.tau_at(criticality.TauMethod.OBJECT_UNCERTAINTY, body.mass, width, si,
                                 body.radius)
        cases.append((name, tau, power))
    return cases


def check_reference_orders() -> list[Check]:
    """Benchmark magnitudes must land within one decade of their quoted orders."""
    out = []
    for name, value, power in _reference_order_cases():
        dev = abs(math.log10(value) - power)
        out.append(Check(f"order-{name}", dev <= 1.0, dev, 1.0,
                         f"value={value:.3e}, quoted order 1e{power}"))
    return out


def run_all(perturb: float = 0.0, quick: bool = False) -> dict:
    """Run the full verification battery; returns a JSON-ready report."""
    n_grad = 25 if quick else 100
    n_avg = 8 if quick else 20
    n_orc = 12 if quick else 50
    checks: list[Check] = []
    checks.append(check_erf_accuracy())
    checks.extend(check_gradient_consistency(n_points=n_grad))
    checks.extend(check_potential_oracles(n_radii=n_orc, perturb=perturb))
    checks.extend(check_average_oracles(n_sets=n_avg, perturb=perturb))
    checks.extend(check_energy_conservation())
    checks.extend(check_critical_constants())
    checks.extend(check_reference_orders())
    return {
        "passed": all(c.passed for c in checks),
        "perturb": perturb,
        "n_checks": len(checks),
        "n_failed": sum(not c.passed for c in checks),
        "checks": [c._asdict() for c in checks],
    }
