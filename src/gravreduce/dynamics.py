"""Radial trajectory integration.

The center of mass moves through its own probability distribution under one
of three conservative force laws: pure self-gravity of a point packet, the
mixed quantum-plus-gravity point law, or the self-gravity of a homogeneous
sphere.  The radial coordinate is extended through the origin with an
odd-symmetric force (equivalently, an even potential), so oscillations may
cross r = 0 the way the reference trajectories do.

Trajectories are integrated by a scalar port of scipy's DOP853
(:mod:`gravreduce.dop853`) in the packet's own units, x = r / sigma0 against
tau = t / t_char, so the solver's tolerances, step sizes and event roots are
the same in every unit system; samples and events are scaled back, and the
energy is computed in the law's units.

A bound run repeats itself after its first turning point (Landau & Lifshitz,
Mechanics, section 11): the motion from one turning point to the next, a leg,
alternates with its time reversal.  So ``integrate`` steps the run only to
its first turning point, over one leg, and over the part of a leg left at the
end; every whole leg between them is built from the stepped one.
"""

from __future__ import annotations

import math
import operator
import sys
from array import array
from collections import namedtuple
from enum import Enum

from .core import (DEFAULT_ATOL, DEFAULT_RTOL, SQRT_2_OVER_PI, Body, LawKind,
                   PhysicalContext, Record, UnitSystem, WavePacket, closed_form, finite,
                   in_float_range)
from .errors import (BodyKindError, DomainError, InsufficientDataError,
                     IntegrationError)

ESCAPE_RADII = 10.0   # escape event fires at r > ESCAPE_RADII * sigma0 moving outward
# Longest run integrate() accepts, in characteristic times sqrt(sigma0^3 / G m).
# At the default tolerances a run stepped whole takes about 2.6 (gravity-object)
# to 2.8 (gravity-point) accepted steps per characteristic time, and 15 to 17
# force calls per step, rejected attempts included; a bound run steps 30 to 45
# of them, whatever its length, and tiles the rest at about 3.5 samples per
# characteristic time.  So the cap bounds a run at a few tens of thousands of
# steps or samples.  Stepped whole at the cap from rest at r0 = sigma0, a run
# took 1.1-1.7 s (gravity-point) and 2.0-3.3 s (gravity-object, R = sigma0 / 2)
# on a 2-CPU Xeon (Python 3.11), at 25-35 us per attempted step.
MAX_CHARACTERISTIC_TIMES = 1e4
# Steps a run may hold, whatever the law's time scale: accepted steps in each
# stepped piece, so that a piece whose steps have stalled (or a law far
# stiffer than t_char suggests) ends with IntegrationError instead of growing
# without bound, and MAX_STEPS + 1 samples in the whole run, counted before
# tiled legs are built.  It is 100 per characteristic time of the longest run
# allowed.  A sphere with R << sigma0 moves on the time scale
# t_char (R / sigma0)^(3/2): one characteristic time from r0 = sigma0 holds
# 2,217 samples at R = 0.01 sigma0 and 70,066 at R = 0.001 sigma0, from 40 and
# 42 stepped ones.  A stalled piece reaches the cap holding about 115 MB of
# samples.
MAX_STEPS = 100 * int(MAX_CHARACTERISTIC_TIMES)


class EventKind(str, Enum):
    R_ZERO = "r-zero"
    V_ZERO = "v-zero"
    ESCAPE = "escape"


Event = namedtuple("Event", "time kind")


_LAW_CONSTANT = "a constant of the force law"


def _kernels(kind: LawKind, packet: WavePacket, body: Body, ctx: PhysicalContext):
    """The law's (force, potential), as closures over its constants.  Each
    repeats its ``potentials`` entry point operation for operation, with the
    factors of the parameters alone hoisted out; the sphere's potential calls it.
    Each constant is checked with :func:`core.finite`: a product overflows
    without raising."""
    s0, m = packet.sigma0, body.mass
    two_s0_sq = finite(2.0 * s0 * s0, _LAW_CONSTANT)
    if kind is LawKind.GRAVITY_OBJECT:
        R, R3 = body.radius, finite(body.radius ** 3, _LAW_CONSTANT)
        c = finite(SQRT_2_OVER_PI * (ctx.G * m ** 2) / (2.0 * s0 ** 3), _LAW_CONSTANT)
        # here, so that the point laws do not load potentials
        from .potentials import qg_potential_object

        def force(r):       # odd extension through the origin
            x = abs(r)
            f = c * math.exp(-(x * x) / two_s0_sq) * (3.0 * x * x / R - x ** 4 / R3)
            return f if r >= 0.0 else -f

        def potential(r):
            return qg_potential_object(abs(r), packet, body, ctx)
        return force, potential

    # qg_force_point's prefactor and the well's depth
    k = finite(-SQRT_2_OVER_PI * ctx.G * m * m / s0 ** 3, _LAW_CONSTANT)
    depth = finite(SQRT_2_OVER_PI * ctx.G * m * m / s0, _LAW_CONSTANT)
    if kind is LawKind.GRAVITY_POINT:
        def force(r):
            return k * r * math.exp(-(r * r) / two_s0_sq)

        def potential(r):
            x = r / s0
            return depth * -math.expm1(-0.5 * x * x)
        return force, potential

    hbar2 = ctx.hbar ** 2
    force_den, six_s0_sq, potential_den = 4.0 * m * s0 ** 4, 6.0 * s0 * s0, 8.0 * m * s0 ** 4
    for constant in (hbar2, force_den, potential_den):
        finite(constant, _LAW_CONSTANT)

    def force(r):
        return hbar2 * r / force_den + k * r * math.exp(-(r * r) / two_s0_sq)

    def potential(r):
        x = r / s0
        return hbar2 * (six_s0_sq - r * r) / potential_den + depth * -math.expm1(-0.5 * x * x)
    return force, potential


class ForceLaw(Record):
    """A force law bound to its (packet, body, context) parameters.

    Its force and potential are built once, with the law (:func:`_kernels`).
    ``force_at`` is odd in r and ``potential_at`` even, and for r >= 0 both
    are bit-equal to the ``potentials`` entry points; the point laws use the
    binding well.  A point law for a sphere, or the object law for a point
    particle, raises :class:`BodyKindError` when built, and a constant of the
    law outside the floating-point range raises :class:`DomainError`.
    """

    _fields = ("kind", "packet", "body", "ctx")
    __slots__ = _fields + ("_force", "_potential")

    def __init__(self, kind: LawKind, packet: WavePacket, body: Body, ctx: PhysicalContext):
        if body.is_sphere != (kind is LawKind.GRAVITY_OBJECT):
            raise BodyKindError(f"the {kind.value} force law does not apply to a "
                                f"{'sphere' if body.is_sphere else 'point particle'}")
        with closed_form(_LAW_CONSTANT):
            force, potential = _kernels(kind, packet, body, ctx)
        self._set(kind, packet, body, ctx)
        object.__setattr__(self, "_force", force)
        object.__setattr__(self, "_potential", potential)

    @classmethod
    def gravity_point(cls, packet, body, ctx) -> "ForceLaw":
        return cls(LawKind.GRAVITY_POINT, packet, body, ctx)

    @classmethod
    def mixed_point(cls, packet, body, ctx) -> "ForceLaw":
        return cls(LawKind.MIXED_POINT, packet, body, ctx)

    @classmethod
    def gravity_object(cls, packet, body, ctx) -> "ForceLaw":
        return cls(LawKind.GRAVITY_OBJECT, packet, body, ctx)

    def force_at(self, r: float) -> float:
        return self._force(r)

    def potential_at(self, r: float) -> float:
        """Potential energy whose negative gradient is ``force_at``."""
        return self._potential(r)

    def characteristic_time(self) -> float:
        return math.sqrt(self.packet.sigma0 ** 3 / (self.ctx.G * self.body.mass))


class Trajectory(namedtuple("Trajectory", "t r v energy events energy_drift law nfev "
                             "n_steps n_rejected legs_tiled")):
    """The samples of one integration, with located events.

    ``t``, ``r``, ``v`` and ``energy`` hold one sample per accepted step of a
    stepped piece and per row of a tiled leg (see :func:`integrate`), as
    stdlib ``array('d')``, so that a run loads no numpy.  They index, slice
    and ``tolist()`` like lists; for arithmetic take ``np.asarray(traj.r)``,
    which shares their memory, since ``traj.r * 2`` repeats an ``array``.
    ``nfev``, ``n_steps`` and ``n_rejected`` count the work done, summed over
    the stepped pieces: ``nfev`` counts right-hand-side evaluations, one
    ``force_at`` call each, which are one at the start of each piece, 12 per
    step attempt, and 3 more for the dense output of each step in which an
    event fires (a piece that starts at rest fires a v = 0 root at its start);
    ``n_steps`` counts accepted steps and ``n_rejected`` rejected step
    attempts.  ``legs_tiled`` counts the legs built from the stepped one, and
    is 0 for a run stepped whole.  ``events`` are ordered by time, then by
    kind name, and ``energy_drift`` is computed over the stepped pieces' rows,
    which hold every energy of the tiled legs.
    """

    __slots__ = ()

    def events_of(self, kind: EventKind) -> list[Event]:
        return [e for e in self.events if e.kind is kind]


_MIN_RTOL = 100.0 * sys.float_info.epsilon   # smaller relative errors are round-off
SOLVER_METHOD = "DOP853"                      # the stepper of gravreduce.dop853
_EVENT_KINDS = (EventKind.R_ZERO, EventKind.V_ZERO, EventKind.ESCAPE)   # dop853's events 0-2


def _in_packet_units(law: ForceLaw) -> ForceLaw:
    """``law`` with sigma0 = m = G = 1: the same motion in x = r / sigma0
    against tau = t / t_char, with u = v t_char / sigma0.

    Only hbar and a sphere's radius remain: hbar / sqrt(G m^3 sigma0), which
    makes the mixed law's quantum slope q / 4 with q = hbar^2 / (G m^3 sigma0),
    and R / sigma0.  A subclass stays a subclass.
    """
    s0, m, ctx = law.packet.sigma0, law.body.mass, law.ctx
    what = "hbar in units of the packet"
    with closed_form(what):
        hbar = ctx.hbar / (m * math.sqrt(ctx.G * m * s0))
    body = Body.sphere(1.0, law.body.radius / s0) if law.body.is_sphere else Body.point(1.0)
    ctx = PhysicalContext(in_float_range(hbar, what), 1.0, UnitSystem.PACKET)
    return type(law)(law.kind, WavePacket(1.0), body, ctx)


def integrate(law: ForceLaw, r0: float, v0: float, t_end: float,
              rtol: float = DEFAULT_RTOL, atol: float = DEFAULT_ATOL) -> Trajectory:
    """Integrate m r'' = F(r) with the adaptive Dormand-Prince 8(5,3) method.

    The stepper (:mod:`gravreduce.dop853`) is a scalar port of
    scipy.integrate.DOP853, so neither numpy nor scipy runs per step.  It runs
    in the packet's own units (:func:`_in_packet_units`): x = r / sigma0
    against tau = t / t_char, with u = v t_char / sigma0, first step
    min(1/1000, tau_end / 10) and no maximum step.  So ``rtol`` and ``atol``
    mean the same in every unit system: atol is in units of sigma0 for r and
    of sigma0 / t_char for v.  Events are located by Brent's method on the
    dense output: r = 0 and v = 0 crossings, plus an escape event when r
    crosses ESCAPE_RADII * sigma0 outward (v > 0), which also terminates the
    run.  One sample is recorded per accepted step, with t, r, v and the
    event times scaled back to the law's units; a run that reaches t_end ends
    exactly there.  The energy column and ``energy_drift``, max |E - E0| over
    max(|E0|, max kinetic, 1e-300), are computed in the law's units and in
    Python floats, so ``integrate`` loads no numpy either.  Both, and the
    check that every energy is finite, are computed over the rows of the
    stepped pieces, not over the samples of the legs tiled from them (below);
    the events are sorted by time and kind as they are built from the
    pieces' roots.

    A bound run is stepped in three pieces, each from its own first step and
    at ``rtol`` and ``atol``: to its first turning point tau_a (the first
    v = 0 root after the start), over one leg of length L from rest there to
    the next turning point, and from rest at tau_a + n L to t_end, where n is
    the number of whole legs that end before t_end.  Leg k, for 1 <= k < n,
    is not stepped but built from leg 0 by reflection: leg 0 shifted to
    tau_a + k L when k is even, and leg 0 time-reversed, with its velocity
    negated, when k is odd.  Its r and |v|, and so its energy, repeat leg 0's
    bit for bit, its r = 0 events move with it, and its v = 0 event falls at
    its end, tau_a + k L + L.  A run that escapes or ends before its second
    turning point, or whose leg reaches ESCAPE_RADII (where a reversed leg
    could escape), is stepped whole, as one piece.

    The law is read through ``force_at`` and ``potential_at`` only: the force
    is odd in r and the potential even, for r >= 0 both are bit-equal to the
    ``potentials`` entry points, and the body kind was checked with the law.
    The stepper calls the force closure that ``force_at`` wraps, of the law
    in the packet's units, without the bound method's call; a subclass that
    overrides ``force_at`` is called through it.

    Raises :class:`DomainError` for a non-finite start or end, a tolerance
    that is not positive and finite, a t_end beyond
    ``MAX_CHARACTERISTIC_TIMES`` characteristic times, an rtol below
    100 eps (where scipy's solvers raise rtol with a warning), or a start or
    a constant of the law that leaves the floating-point range in the
    packet's units, and :class:`IntegrationError` for a step below the
    floating-point spacing of tau, more than ``MAX_STEPS`` accepted steps in
    a stepped piece or more than ``MAX_STEPS`` + 1 samples in the run, a
    non-finite state, energy or drift, a force or potential that overflows or
    divides by zero, or an event root that is not bracketed or not converged.
    The sphere's potential is ``qg_potential_object``, whose own
    :class:`DomainError` passes through.
    """
    if not all(math.isfinite(x) for x in (r0, v0, t_end)):
        raise DomainError("r0, v0 and t_end must be finite")
    if not t_end > 0.0:
        raise DomainError("t_end must be positive")
    if not (0.0 < rtol < math.inf and 0.0 < atol < math.inf):
        raise DomainError("tolerances must be positive and finite")
    if rtol < _MIN_RTOL:
        raise DomainError(f"rtol must be at least {_MIN_RTOL:.3g}, 100 times the "
                          "double-precision epsilon")
    # positive and finite, as the unit of velocity sigma0 / t_char must be
    with closed_form("the characteristic time"):
        t_char = in_float_range(law.characteristic_time(), "the characteristic time")
    if not t_end <= MAX_CHARACTERISTIC_TIMES * t_char:
        raise DomainError(f"t_end is {t_end / t_char:.3g} characteristic times; "
                          f"the limit is {MAX_CHARACTERISTIC_TIMES:g}")

    m = law.body.mass
    if r0 == 0.0 and v0 == 0.0:
        # Equilibrium point: the solution is identically zero, no step is taken.
        e0 = law.potential_at(0.0)
        return Trajectory(t=array("d", [0.0, t_end]), r=array("d", [0.0, 0.0]),
                          v=array("d", [0.0, 0.0]), energy=array("d", [e0, e0]), events=[],
                          energy_drift=0.0, law=law, nfev=0, n_steps=0, n_rejected=0,
                          legs_tiled=0)

    s0 = law.packet.sigma0
    v_unit = s0 / t_char
    t_end, tau_end = float(t_end), t_end / t_char
    x0 = finite(r0 / s0, "r0 in units of sigma0")
    u0 = finite(v0 / v_unit, "v0 in units of sigma0 / t_char")
    from . import dop853     # here, so that critical, tau and sweep do not compile it

    unit_law = _in_packet_units(law)       # the unit mass: no division
    # the force closure itself, unless a subclass overrides force_at
    accel = unit_law._force if type(unit_law).force_at is ForceLaw.force_at else unit_law.force_at
    h0 = min(1e-3, tau_end / 10.0)

    def step(x, u, span, stop_at_turn):
        return dop853.solve(accel, x, u, span, h0, rtol, atol, ESCAPE_RADII, MAX_STEPS,
                            stop_at_turn)

    def rows(piece):
        """A stepped piece's (tau, r, v, energy) columns, in the law's units
        but for tau, and its kinetic energies."""
        taus, xs, us = piece[:3]
        rs = [x * s0 for x in xs]
        vs = [u * v_unit for u in us]
        if not all(map(math.isfinite, rs + vs)):
            raise IntegrationError("non-finite state encountered during integration")
        kinetic = [0.5 * m * vi * vi for vi in vs]
        return (taus, rs, vs, list(map(operator.add, kinetic, map(law.potential_at, rs)))), kinetic

    try:
        pieces, n_legs = _stepped_pieces(step, x0, u0, tau_end)
        stepped = [rows(piece) for piece in pieces]
        if n_legs:
            taus, rs, vs, energy = _tile([columns for columns, _ in stepped], n_legs)
            taus[-1] = tau_end
            found = _tile_events(pieces, n_legs)
            # The rows the run holds: leg 0's first only if a reversed leg
            # ends on it, and the last piece's without its first.
            starts = (0, 0 if n_legs > 1 else 1, 1)
        else:
            (taus, rs, vs, energy), _ = stepped[0]
            found = pieces[0][3]
            starts = (0,)
        ts = [tau * t_char for tau in taus]
        if taus[-1] == tau_end:
            ts[-1] = t_end
    except (OverflowError, ZeroDivisionError):
        raise IntegrationError("the force or potential left the floating-point range "
                               "during integration") from None
    # Tiled legs repeat the stepped rows bit for bit, so those rows hold every
    # energy and kinetic energy of the run.
    energies = [e for (columns, _), i in zip(stepped, starts) for e in columns[3][i:]]
    kinetic = [k for (_, ks), i in zip(stepped, starts) for k in ks[i:]]
    e0 = energies[0]
    scale = max(abs(e0), max(kinetic), 1e-300)
    drift = max(abs(e - e0) for e in energies) / scale
    if not (all(map(math.isfinite, energies)) and math.isfinite(drift)):
        raise IntegrationError("the trajectory's energy is not finite")
    # by time, then by the kind's name: an EventKind compares as its str value
    events = list(map(Event._make, sorted([(tau * t_char, _EVENT_KINDS[i]) for tau, i in found])))
    return Trajectory(t=array("d", ts), r=array("d", rs), v=array("d", vs),
                      energy=array("d", energy),
                      events=events, energy_drift=drift, law=law,
                      nfev=sum(piece[4] for piece in pieces),
                      n_steps=sum(len(piece[0]) - 1 for piece in pieces),
                      n_rejected=sum(piece[5] for piece in pieces),
                      legs_tiled=max(n_legs - 1, 0))


def _turned(piece, span: float) -> bool:
    """Whether a ``dop853.solve`` run over ``span`` with ``stop_at_turn``
    ended at a turning point: before its end, and not by escaping."""
    return piece[0][-1] < span and piece[3][-1][1] == 1


def _stepped_pieces(step, x0: float, u0: float, tau_end: float):
    """The pieces ``integrate`` steps, each a ``dop853.solve`` result
    (tau, x, u, events, nfev, n_rejected) in its own time from 0, and the
    number of whole legs the run is tiled with.

    A bound run is stepped to its first turning point tau_a, then over one
    leg of length L to the next, from rest, and the last piece from rest at
    the turning point tau_a + n L to tau_end, where n is the number of whole
    legs (leg 0 included) that end before tau_end.  Every other run is one
    piece, stepped as a whole, with n = 0: one that escapes or ends before
    its first turning point, one that ends before its second, and one whose
    leg reaches ESCAPE_RADII, where a reversed leg could escape.
    """
    first = step(x0, u0, tau_end, True)
    if not _turned(first, tau_end):
        return [first], 0       # the whole run: no turning point stopped it
    tau_a, x_a = first[0][-1], first[1][-1]
    leg = step(x_a, 0.0, tau_end - tau_a, True)
    if _turned(leg, tau_end - tau_a) and max(x_a, leg[1][-1]) < ESCAPE_RADII:
        length = leg[0][-1]
        n = int((tau_end - tau_a) / length)
        while n > 0 and not tau_a + n * length < tau_end:    # the last piece is not empty
            n -= 1
        if n > 0:
            base = tau_a + n * length
            last = step(x_a if n % 2 == 0 else leg[1][-1], 0.0, tau_end - base, False)
            n_rows = len(first[0]) + n * (len(leg[0]) - 1) + len(last[0]) - 1
            if n_rows > MAX_STEPS + 1:
                raise IntegrationError(f"the run would take {n_rows - 1} steps with its "
                                       f"tiled legs, more than {MAX_STEPS}")
            return [first, leg, last], n
    return [step(x0, u0, tau_end, False)], 0


def _tile(columns, n: int):
    """The run's columns from those of its three stepped pieces (see
    :func:`_stepped_pieces`): the first piece, n whole legs, then the last
    piece, each piece's first row dropped after the first.  Leg k is leg 0
    shifted by k L when k is even, and leg 0 time-reversed, with its velocity
    negated, when k is odd; the rows of a leg that ends at a turning point
    end at tau_a + k L + L exactly."""
    first, leg, last = columns
    tau_a, length = first[0][-1], leg[0][-1]
    even = [c[1:] for c in leg]
    odd = [c[-2::-1] for c in leg]
    odd[0] = [length - s for s in odd[0]]
    odd[2] = [-v for v in odd[2]]
    taus = [tau_a + k * length + s for k in range(n) for s in (odd if k % 2 else even)[0]]
    base = tau_a + n * length
    out = [first[0] + taus + [base + s for s in last[0][1:]]]
    for f, e, o, l in zip(first[1:], even[1:], odd[1:], last[1:]):
        out.append(f + (e + o) * (n // 2) + (e if n % 2 else []) + l[1:])
    return out


def _tile_events(pieces, n: int) -> list:
    """The run's events, as (tau, i) pairs, from those of its stepped pieces
    (see :func:`_tile`): leg 0's r = 0 roots move with each leg, each leg
    ends with a v = 0 root, and the root at the start of the last piece,
    where it is at rest, is the end of the last whole leg."""
    first, leg, last = pieces
    tau_a, length = first[0][-1], leg[0][-1]
    origins = [s for s, i in leg[3] if i == 0]
    found = list(first[3])
    for k in range(n):
        base = tau_a + k * length
        found += [(base + (length - s if k % 2 else s), 0) for s in origins]
        found.append((base + length, 1))
    base = tau_a + n * length
    found += [(base + s, i) for s, i in last[3] if s > 0.0 or i != 1]
    return found


def detect_period(traj: Trajectory) -> float:
    """Full oscillation period t3 - t1 from successive turning points (v = 0).

    Works for asymmetric oscillations because a full cycle always spans three
    consecutive turning points.  Raises :class:`InsufficientDataError` with
    fewer than three.
    """
    times = [e.time for e in traj.events_of(EventKind.V_ZERO)]
    # collapse root-refinement duplicates, within a window relative to the
    # run, so that it means the same in every unit system
    dedup: list[float] = []
    eps = 1e-9 * traj.t[-1]
    for ti in times:
        if not dedup or ti - dedup[-1] > eps:
            dedup.append(ti)
    if len(dedup) < 3:
        raise InsufficientDataError(
            f"need at least 3 turning points, found {len(dedup)}")
    return dedup[2] - dedup[0]

