"""Self-verification suite: oracle cross-checks runnable from the CLI.

Each check compares an independent numerical route (Gauss-Legendre quadrature,
central differences, energy conservation, reference magnitudes) against the
closed forms, and reports the measured discrepancy next to its tolerance.
The gradient and force-balance checks read the force laws through
``dynamics.ForceLaw``, the (potential, force) pairs that ``simulate`` steps.
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
from .core import Body, LawKind, PhysicalContext, WavePacket
from .errors import DomainError

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


def _worse(worst: float, rel: float) -> float:
    """The larger discrepancy, NaN once either is NaN: ``max`` drops a NaN
    that comes second, and a check must fail on it."""
    return rel if rel > worst or rel != rel else worst


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


def _gradient_pairs(packet: WavePacket, body: Body, ctx: PhysicalContext) -> list:
    """(label, potential, force) of the quantum pair, which no force law holds
    alone, and of each ``dynamics.ForceLaw`` of the body's kind."""
    laws = ({"self-gravity-force-point": LawKind.GRAVITY_POINT,
             "mixed-force-point": LawKind.MIXED_POINT}
            if body.is_point else {"self-gravity-force-object": LawKind.GRAVITY_OBJECT})
    pairs = [("quantum-force", lambda r: potentials.quantum_potential(r, packet, body, ctx),
              lambda r: potentials.quantum_force(r, packet, body, ctx))]
    for label, kind in laws.items():
        law = dynamics.ForceLaw(kind, packet, body, ctx)
        pairs.append((label, law.potential_at, law.force_at))
    return pairs


def check_gradient_consistency(n_points: int = 100) -> list[Check]:
    """Central-difference checks of every pair of :func:`_gradient_pairs`."""
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
            pairs = _gradient_pairs(packet, body, ctx)
            r = rng.uniform(0.1, 3.0) * s0
            h = 1e-6 * s0
            for label, pot, force in pairs:
                fd = -(pot(r + h) - pot(r - h)) / (2.0 * h)
                f = force(r)
                rel = abs(f - fd) / max(abs(f), abs(fd), 1e-300)
                worst_by_label[label] = _worse(worst_by_label.get(label, 0.0), rel)
    for label, worst in sorted(worst_by_label.items()):
        out.append(Check(f"gradient-{label}", worst < GRADIENT_TOL, worst, GRADIENT_TOL,
                         f"worst of {n_points} random parameter sets"))
    return out


def _self_energy_pairs(r: float, packet: WavePacket, m: float, R: float,
                       ctx: PhysicalContext) -> list:
    """(kind, closed form, quadrature) of the self-energy at r of a point
    particle of mass m and of a sphere of mass m and radius R."""
    pairs = []
    for kind, body, closed in (("point", Body.point(m), potentials.qg_potential_point),
                               ("object", Body.sphere(m, R), potentials.qg_potential_object)):
        numeric = potentials.qg_potential_numeric(
            r, lambda rp: potentials.classical_kernel(rp, body, ctx), packet, ctx)
        pairs.append((kind, closed(r, packet, body, ctx), numeric))
    return pairs


def check_potential_oracles(n_radii: int = 50, perturb: float = 0.0) -> list[Check]:
    """Closed-form self-energies against direct quadrature of the definition
    (:func:`_self_energy_pairs`)."""
    rng = random.Random(RNG_SEED + 1)
    ctx = PhysicalContext.dimensionless()
    factor = 1.0 + perturb
    worst = {"point": 0.0, "object": 0.0}
    for _ in range(n_radii):
        m = 10.0 ** rng.uniform(-2, 2)
        s0 = 10.0 ** rng.uniform(-2, 2)
        R = 10.0 ** rng.uniform(-2, 2)
        r = rng.uniform(0.05, 4.0) * s0
        for kind, closed, numeric in _self_energy_pairs(r, WavePacket(s0), m, R, ctx):
            worst[kind] = _worse(worst[kind], _rel(closed * factor, numeric))
    return [Check(f"self-energy-{kind}-vs-quadrature", w < SELF_ENERGY_TOL, w,
                  SELF_ENERGY_TOL, f"{n_radii} random radii over 4 decades")
            for kind, w in worst.items()]


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
            worst[name] = _worse(worst.get(name, 0.0), _rel(closed * factor, got))
    return [Check(name, w < AVERAGE_TOL, w, AVERAGE_TOL,
                  f"{n_sets} random parameter sets over 6 decades")
            for name, w in sorted(worst.items())]


def check_energy_conservation() -> list[Check]:
    ctx = PhysicalContext.dimensionless()
    packet = WavePacket(1.0)
    runs = [(LawKind.GRAVITY_POINT, Body.point(1.0), 1.0, 0.0, 20.0),
            (LawKind.MIXED_POINT, Body.point(5.0), 1.0, 0.0, 10.0),
            (LawKind.GRAVITY_OBJECT, Body.sphere(1.0, 1.0), 1.5, 0.0, 15.0)]
    out = []
    for kind, body, r0, v0, t_end in runs:
        traj = dynamics.integrate(dynamics.ForceLaw(kind, packet, body, ctx), r0, v0, t_end)
        out.append(Check(f"energy-drift-{kind.value}", traj.energy_drift < ENERGY_DRIFT_TOL,
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
    # force balance: the mixed law's mean force must vanish at the critical width
    body = Body.point(1.0)
    w = criticality.critical_width_force_balance_at(body.mass, ctx)
    packet = WavePacket(w)
    resid = averages.expect(dynamics.ForceLaw(LawKind.MIXED_POINT, packet, body, ctx).force_at,
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
         criticality.micro_transition_width_at(proton_sphere.mass, proton_sphere.radius,
                                               si) * 1e2, 6),
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
    """Run the full verification battery; returns a JSON-ready report.

    A perturbation that is not finite is refused with a :class:`DomainError`,
    and a measured discrepancy that is not finite (a failed check) is
    reported as ``None``, so the report is strict JSON.
    """
    if not math.isfinite(perturb):
        raise DomainError("perturb must be finite")
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
        "checks": [(c if math.isfinite(c.measured) else c._replace(measured=None))._asdict()
                   for c in checks],
    }
