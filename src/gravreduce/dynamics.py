"""Radial trajectory integration and reduction-time estimators.

The center of mass moves through its own probability distribution under one
of three conservative force laws: pure self-gravity of a point packet, the
mixed quantum-plus-gravity point law, or the self-gravity of a homogeneous
sphere.  The radial coordinate is extended through the origin with an
odd-symmetric force (equivalently, an even potential), so oscillations may
cross r = 0 the way the reference trajectories do.

Reduction-time estimators come in four flavors: the numerically detected
quarter period, the closed-form period law, the short-time objective formula,
and uncertainty-based estimates built from the self-energy spread.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np

from .core import Body, PhysicalContext, WavePacket, in_float_range
from .errors import (BodyKindError, DomainError, InsufficientDataError,
                     IntegrationError)
from .potentials import (SQRT_2, SQRT_2_OVER_PI, _qg_potential_object_terms,
                         qg_force_object, qg_potential_object, qg_well_potential_point,
                         quantum_potential)

ESCAPE_RADII = 10.0   # escape event fires at r > ESCAPE_RADII * sigma0 moving outward
# Longest run integrate() accepts, in characteristic times sqrt(sigma0^3 / G m).
# RK45 at the default tolerances takes about 13 (gravity-point) to 28
# (mixed-point) accepted steps per characteristic time, so the cap bounds a
# run at a few hundred thousand steps, under a minute and a few tens of MB.
MAX_CHARACTERISTIC_TIMES = 1e4

# Self-energy spread coefficients of the sphere evaluated at r = sigma0:
# |U(sigma0)| = |ALPHA_OBJECT * G m^2 sigma0^2 / R^3 - BETA_OBJECT * G m^2 / R|.
ALPHA_OBJECT = 1.5 * math.erf(0.5 * math.sqrt(2.0)) - 2.0 * math.sqrt(2.0) * math.exp(-0.5) / math.sqrt(math.pi)
BETA_OBJECT = 1.5 * (math.erf(0.5 * math.sqrt(2.0)) - math.sqrt(2.0) * math.exp(-0.5) / math.sqrt(math.pi))


class LawKind(str, Enum):
    GRAVITY_POINT = "gravity-point"
    MIXED_POINT = "mixed-point"
    GRAVITY_OBJECT = "gravity-object"


class EventKind(str, Enum):
    R_ZERO = "r-zero"
    V_ZERO = "v-zero"
    ESCAPE = "escape"


@dataclass(frozen=True)
class Event:
    time: float
    kind: EventKind


def force_gravity_dominant_point(r: float, packet: WavePacket, body: Body,
                                 ctx: PhysicalContext) -> float:
    """-sqrt(2/pi) (G m^2 / sigma0^3) r exp(-r^2 / 2 sigma0^2); odd in r."""
    s0 = packet.sigma0
    m = body.mass
    return -SQRT_2_OVER_PI * ctx.G * m * m / s0 ** 3 * r * math.exp(-(r * r) / (2.0 * s0 * s0))


def force_mixed_point(r: float, packet: WavePacket, body: Body,
                      ctx: PhysicalContext, printed_variant: bool = False) -> float:
    """Quantum force plus point self-gravity; odd in r.

    The quantum term is hbar^2 r / (4 m sigma0^4).  With ``printed_variant``
    the dimensionally inconsistent sigma0^2 denominator variant is used
    instead, for side-by-side comparison runs.
    """
    s0 = packet.sigma0
    quantum_denominator = s0 ** 2 if printed_variant else s0 ** 4
    fq = ctx.hbar ** 2 * r / (4.0 * body.mass * quantum_denominator)
    return fq + force_gravity_dominant_point(r, packet, body, ctx)


def force_gravity_dominant_object(r: float, packet: WavePacket, body: Body,
                                  ctx: PhysicalContext) -> float:
    """Sphere self-gravity force, odd-extended through the origin.

    For r >= 0 this is the negative gradient of the sphere self-energy: the
    r^2 term pushes outward, the r^4 term pulls inward, changing sign at
    r = sqrt(3) R.
    """
    if not body.is_sphere:
        raise BodyKindError("object force law requires a homogeneous sphere")
    x = abs(r)
    f = qg_force_object(x, packet, body, ctx)
    return f if r >= 0.0 else -f


@dataclass(frozen=True)
class ForceLaw:
    """A force law bound to its (packet, body, context) parameters."""

    kind: LawKind
    packet: WavePacket
    body: Body
    ctx: PhysicalContext
    printed_mixed_variant: bool = False

    @classmethod
    def gravity_point(cls, packet, body, ctx) -> "ForceLaw":
        return cls(LawKind.GRAVITY_POINT, packet, body, ctx)

    @classmethod
    def mixed_point(cls, packet, body, ctx, printed_variant=False) -> "ForceLaw":
        return cls(LawKind.MIXED_POINT, packet, body, ctx,
                   printed_mixed_variant=printed_variant)

    @classmethod
    def gravity_object(cls, packet, body, ctx) -> "ForceLaw":
        if not body.is_sphere:
            raise BodyKindError("object force law requires a homogeneous sphere")
        return cls(LawKind.GRAVITY_OBJECT, packet, body, ctx)

    def force_at(self, r: float) -> float:
        if self.kind is LawKind.GRAVITY_POINT:
            return force_gravity_dominant_point(r, self.packet, self.body, self.ctx)
        if self.kind is LawKind.MIXED_POINT:
            return force_mixed_point(r, self.packet, self.body, self.ctx,
                                     self.printed_mixed_variant)
        return force_gravity_dominant_object(r, self.packet, self.body, self.ctx)

    def potential_at(self, r: float) -> float:
        """Potential energy whose negative gradient is ``force_at``; even in r.

        Point laws use the binding-well form of the self-energy so that the
        sum with the kinetic term is the conserved trajectory energy.
        """
        x = abs(r)
        if self.kind is LawKind.GRAVITY_POINT:
            return qg_well_potential_point(x, self.packet, self.body, self.ctx)
        if self.kind is LawKind.MIXED_POINT:
            grav = qg_well_potential_point(x, self.packet, self.body, self.ctx)
            if self.printed_mixed_variant:
                s0 = self.packet.sigma0
                return -self.ctx.hbar ** 2 * x * x / (8.0 * self.body.mass * s0 * s0) + grav
            return quantum_potential(x, self.packet, self.body, self.ctx) + grav
        return qg_potential_object(x, self.packet, self.body, self.ctx)

    def characteristic_time(self) -> float:
        return math.sqrt(self.packet.sigma0 ** 3 / (self.ctx.G * self.body.mass))


@dataclass(frozen=True)
class Trajectory:
    """Accepted solver steps of one integration, with located events."""

    t: np.ndarray
    r: np.ndarray
    v: np.ndarray
    energy: np.ndarray
    events: list[Event]
    energy_drift: float
    law: ForceLaw

    def events_of(self, kind: EventKind) -> list[Event]:
        return [e for e in self.events if e.kind is kind]


def integrate(law: ForceLaw, r0: float, v0: float, t_end: float,
              rtol: float = 1e-9, atol: float = 1e-12) -> Trajectory:
    """Integrate m r'' = F(r) with an adaptive embedded Runge-Kutta 4(5) pair.

    Events are located by root refinement on the dense output: r = 0 and
    v = 0 crossings, plus an escape event when r crosses ESCAPE_RADII * sigma0
    outward (v > 0), which also terminates the run.  One sample is recorded
    per accepted step.

    Raises :class:`DomainError` for a non-finite start or end, or a t_end
    beyond ``MAX_CHARACTERISTIC_TIMES`` characteristic times, and
    :class:`IntegrationError` on solver failure or non-finite forces.
    """
    if not all(math.isfinite(x) for x in (r0, v0, t_end)):
        raise DomainError("r0, v0 and t_end must be finite")
    if not t_end > 0.0:
        raise DomainError("t_end must be positive")
    if not (rtol > 0.0 and atol > 0.0):
        raise DomainError("tolerances must be positive")
    try:
        t_char = law.characteristic_time()
    except (OverflowError, ZeroDivisionError):
        raise DomainError("the characteristic time is outside the floating-point range "
                          "for these parameters") from None
    if not t_end <= MAX_CHARACTERISTIC_TIMES * t_char:
        raise DomainError(f"t_end is {t_end / t_char:.3g} characteristic times; "
                          f"the limit is {MAX_CHARACTERISTIC_TIMES:g}")

    m = law.body.mass
    if r0 == 0.0 and v0 == 0.0:
        # Equilibrium point: the solution is identically zero.
        t = np.array([0.0, t_end])
        zero = np.zeros(2)
        e0 = law.potential_at(0.0)
        return Trajectory(t=t, r=zero.copy(), v=zero.copy(),
                          energy=np.array([e0, e0]), events=[],
                          energy_drift=0.0, law=law)

    def rhs(t, y):
        return (y[1], law.force_at(y[0]) / m)

    def ev_r(t, y):
        return y[0]

    def ev_v(t, y):
        return y[1]

    escape_radius = ESCAPE_RADII * law.packet.sigma0

    def ev_escape(t, y):
        return y[0] - escape_radius

    ev_escape.direction = 1.0
    ev_escape.terminal = True

    from scipy.integrate import solve_ivp

    first_step = min(t_char / 1000.0, t_end / 10.0)
    sol = solve_ivp(rhs, (0.0, t_end), [r0, v0], method="RK45",
                    rtol=rtol, atol=atol, first_step=first_step,
                    events=[ev_r, ev_v, ev_escape], dense_output=False)
    if sol.status < 0:
        raise IntegrationError(f"solver failed: {sol.message}")
    if not (np.all(np.isfinite(sol.y)) and np.all(np.isfinite(sol.t))):
        raise IntegrationError("non-finite state encountered during integration")

    events = []
    for kind, times in zip((EventKind.R_ZERO, EventKind.V_ZERO, EventKind.ESCAPE),
                           sol.t_events):
        events.extend(Event(time=float(ti), kind=kind) for ti in times)
    events.sort(key=lambda e: (e.time, e.kind.value))

    r = sol.y[0]
    v = sol.y[1]
    energy = 0.5 * m * v * v + np.array([law.potential_at(x) for x in r])
    scale = max(abs(energy[0]), float(np.max(0.5 * m * v * v)), 1e-300)
    drift = float(np.max(np.abs(energy - energy[0])) / scale)

    return Trajectory(t=sol.t, r=r, v=v, energy=energy, events=events,
                      energy_drift=drift, law=law)


def detect_period(traj: Trajectory) -> float:
    """Full oscillation period t3 - t1 from successive turning points (v = 0).

    Works for asymmetric oscillations because a full cycle always spans three
    consecutive turning points.  Raises :class:`InsufficientDataError` with
    fewer than three.
    """
    times = [e.time for e in traj.events_of(EventKind.V_ZERO)]
    # collapse root-refinement duplicates
    dedup: list[float] = []
    eps = 1e-9 * max(traj.t[-1], 1.0)
    for ti in times:
        if not dedup or ti - dedup[-1] > eps:
            dedup.append(ti)
    if len(dedup) < 3:
        raise InsufficientDataError(
            f"need at least 3 turning points, found {len(dedup)}")
    return dedup[2] - dedup[0]


def angular_frequency(packet: WavePacket, body: Body, ctx: PhysicalContext) -> float:
    """sqrt(2) (2/pi)^(1/4) sqrt(G m / sigma0^3), the reference cosine-solution rate."""
    return (math.sqrt(2.0) * (2.0 / math.pi) ** 0.25
            * math.sqrt(ctx.G * body.mass / packet.sigma0 ** 3))


def angular_frequency_linearized(packet: WavePacket, body: Body,
                                 ctx: PhysicalContext) -> float:
    """(2/pi)^(1/4) sqrt(G m / sigma0^3): small-amplitude rate of the point law."""
    return (2.0 / math.pi) ** 0.25 * math.sqrt(ctx.G * body.mass / packet.sigma0 ** 3)


def analytic_trajectory_point(t: float, r0: float, packet: WavePacket, body: Body,
                              ctx: PhysicalContext) -> float:
    """Cosine reference solution r0 cos(omega t), intended for r0 = sigma0 starts."""
    return r0 * math.cos(angular_frequency(packet, body, ctx) * t)


def period_formula(packet: WavePacket, body: Body, ctx: PhysicalContext) -> float:
    """2^(1/4) pi^(5/4) sqrt(sigma0^3 / G m), i.e. 2 pi over the cosine rate."""
    return (2.0 ** 0.25 * math.pi ** 1.25
            * math.sqrt(packet.sigma0 ** 3 / (ctx.G * body.mass)))


def period_linearized(packet: WavePacket, body: Body, ctx: PhysicalContext) -> float:
    """2 pi over the linearized small-amplitude rate."""
    return 2.0 * math.pi / angular_frequency_linearized(packet, body, ctx)


def qg_acceleration_analytic(t: float, packet: WavePacket, body: Body,
                             ctx: PhysicalContext) -> float:
    """-2 sqrt(2/pi) (G m / sigma0^2) cos(omega t) along the cosine solution."""
    return (-2.0 * SQRT_2_OVER_PI * ctx.G * body.mass / packet.sigma0 ** 2
            * math.cos(angular_frequency(packet, body, ctx) * t))


class TauMethod(str, Enum):
    QUARTER_PERIOD_NUMERIC = "quarter-period-numeric"
    PERIOD_FORMULA = "period-formula"
    SHORT_TIME = "short-time"
    UNCERTAINTY = "uncertainty"
    OBJECT_UNCERTAINTY = "object-uncertainty"
    OBJECT_MICRO = "object-micro"


@dataclass(frozen=True)
class ReductionEstimate:
    tau: float
    method: TauMethod
    assumptions: str = ""

    def __post_init__(self):
        if not (self.tau > 0.0 and math.isfinite(self.tau)):
            raise DomainError(f"reduction time must be finite and positive, got {self.tau!r}")


POINT_CLOSED_FORMS = (TauMethod.PERIOD_FORMULA, TauMethod.SHORT_TIME, TauMethod.UNCERTAINTY)
OBJECT_CLOSED_FORMS = (TauMethod.OBJECT_UNCERTAINTY, TauMethod.OBJECT_MICRO)

_ASSUMPTIONS = {
    TauMethod.QUARTER_PERIOD_NUMERIC: "first origin crossing from rest at r0 = sigma0",
    TauMethod.PERIOD_FORMULA: "unit-constant quarter-period law",
    TauMethod.SHORT_TIME: "width fixed at its critical value",
    TauMethod.UNCERTAINTY: "hbar over the self-energy spread across one width",
    TauMethod.OBJECT_UNCERTAINTY: ("hbar over the exact self-energy spread across one width; "
                                   f"implied spread coefficients alpha={ALPHA_OBJECT:.6f}, "
                                   f"beta={BETA_OBJECT:.6f}"),
    TauMethod.OBJECT_MICRO: "wide-packet cubic self-energy evaluated at one width",
}


def _by_value(fn, x):
    """A math-module function applied to an array once per distinct value
    (numpy has no erf; the arguments here take very few values)."""
    values, inverse = np.unique(np.ravel(x), return_inverse=True)
    return np.array([fn(v) for v in values.tolist()])[inverse].reshape(np.shape(x))


@np.errstate(all="ignore")
def tau_at(method: TauMethod, mass, sigma0, ctx: PhysicalContext, radius=None):
    """Closed-form reduction time, elementwise over floats or broadcastable arrays.

    The point-particle methods take no radius, the sphere methods require one.
    The object-uncertainty spread is ``|qg_potential_object(sigma0, ...)|``,
    evaluated by the same arithmetic.  Overflow and underflow are not warned
    about; :class:`DomainError` is raised unless every result is finite and
    positive.
    """
    if method not in (OBJECT_CLOSED_FORMS if radius is not None else POINT_CLOSED_FORMS):
        kind = "sphere" if radius is not None else "point particle"
        raise BodyKindError(f"method {method} does not apply to a {kind}")
    G, hbar = ctx.G, ctx.hbar
    m = np.asarray(mass, dtype=float)
    s0 = np.asarray(sigma0, dtype=float)
    if method is TauMethod.PERIOD_FORMULA:
        tau = np.sqrt(s0 ** 3 / (G * m))
    elif method is TauMethod.SHORT_TIME:
        tau = hbar ** 3 / (G ** 2 * m ** 5)
    elif method is TauMethod.UNCERTAINTY:
        tau = hbar / (SQRT_2_OVER_PI * (-math.expm1(-0.5)) * G * m * m / s0)
    else:
        R = np.asarray(radius, dtype=float)
        gm2 = G * m ** 2
        if method is TauMethod.OBJECT_UNCERTAINTY:
            g = _by_value(math.exp, -(s0 * s0) / (2.0 * s0 * s0))
            e = _by_value(math.erf, SQRT_2 * s0 / (2.0 * s0))
            tau = hbar / np.abs(_qg_potential_object_terms(s0, s0, R, gm2, g, e))
        else:
            tau = 1.25 * math.sqrt(2.0 * math.pi) * hbar * R / gm2
    return in_float_range(tau, f"{method.value} reduction time")


def tau_point(method: TauMethod, packet: WavePacket, body: Body,
              ctx: PhysicalContext) -> ReductionEstimate:
    """Reduction-time estimate for a point particle by the chosen method."""
    if not body.is_point:
        raise BodyKindError("tau_point requires a point particle")
    if method is TauMethod.QUARTER_PERIOD_NUMERIC:
        law = ForceLaw.gravity_point(packet, body, ctx)
        traj = integrate(law, r0=packet.sigma0, v0=0.0, t_end=4.0 * law.characteristic_time())
        zeros = traj.events_of(EventKind.R_ZERO)
        if not zeros:
            raise InsufficientDataError("no origin crossing found")
        return ReductionEstimate(zeros[0].time, method, _ASSUMPTIONS[method])
    tau = tau_at(method, body.mass, packet.sigma0, ctx)
    return ReductionEstimate(float(tau), method, _ASSUMPTIONS[method])


def tau_object(method: TauMethod, packet: WavePacket, body: Body,
               ctx: PhysicalContext) -> ReductionEstimate:
    """Reduction-time estimate for a homogeneous sphere by the chosen method."""
    if not body.is_sphere:
        raise BodyKindError("tau_object requires a homogeneous sphere")
    tau = tau_at(method, body.mass, packet.sigma0, ctx, body.radius)
    return ReductionEstimate(float(tau), method, _ASSUMPTIONS[method])


def tau_estimates(packet: WavePacket, body: Body, ctx: PhysicalContext,
                  include_numeric: bool = True) -> list[ReductionEstimate]:
    """All applicable reduction-time estimates for this (packet, body) pair."""
    if body.is_sphere:
        return [tau_object(method, packet, body, ctx) for method in OBJECT_CLOSED_FORMS]
    methods = POINT_CLOSED_FORMS
    if include_numeric:
        methods += (TauMethod.QUARTER_PERIOD_NUMERIC,)
    return [tau_point(method, packet, body, ctx) for method in methods]
