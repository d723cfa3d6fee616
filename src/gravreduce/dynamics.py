"""Radial trajectory integration and reduction-time estimators.

The center of mass moves through its own probability distribution under one
of three conservative force laws: pure self-gravity of a point packet, the
mixed quantum-plus-gravity point law, or the self-gravity of a homogeneous
sphere.  The radial coordinate is extended through the origin with an
odd-symmetric force (equivalently, an even potential), so oscillations may
cross r = 0 the way the reference trajectories do.

Reduction-time estimators are closed forms of four flavors: the gravity-point
law's exact quarter period with its unit-constant approximation, the short-time
objective formula, and uncertainty-based estimates from the self-energy spread.
"""

from __future__ import annotations

import math
import operator
import sys
from array import array
from dataclasses import dataclass
from enum import Enum

from .core import Body, PhysicalContext, WavePacket, closed_form, in_float_range
from .errors import (BodyKindError, DomainError, InsufficientDataError,
                     IntegrationError)
from .potentials import SQRT_2, SQRT_2_OVER_PI, qg_potential_object

ESCAPE_RADII = 10.0   # escape event fires at r > ESCAPE_RADII * sigma0 moving outward
# Longest run integrate() accepts, in characteristic times sqrt(sigma0^3 / G m).
# RK45 at the default tolerances takes about 13 (gravity-point) to 28
# (mixed-point) accepted steps per characteristic time, so the cap bounds a
# run at a few hundred thousand steps, under a minute and a few tens of MB.
MAX_CHARACTERISTIC_TIMES = 1e4
# Accepted steps integrate() may take in one run, whatever the law's time
# scale, so that a run whose steps have stalled (or a law far stiffer than
# t_char suggests) ends with IntegrationError instead of growing without
# bound.  It is 100 steps per characteristic time of the longest run allowed,
# 3.5 times what the point laws take there.  A sphere with R << sigma0 moves
# on the time scale t_char (R / sigma0)^(3/2), about 14 (sigma0 / R)^(3/2)
# steps per t_char: one characteristic time from r0 = sigma0 takes 11,251
# steps at R = 0.01 sigma0 and 355,627 at R = 0.001 sigma0.  A stalled run
# reaches the cap in about 10 s, holding about 115 MB of samples (2-CPU VM).
MAX_STEPS = 100 * int(MAX_CHARACTERISTIC_TIMES)

# Self-energy spread coefficients of the sphere evaluated at r = sigma0:
# |U(sigma0)| = |ALPHA_OBJECT * G m^2 sigma0^2 / R^3 - BETA_OBJECT * G m^2 / R|, correctly
# rounded from ALPHA_OBJECT = (3/2) erf(1/sqrt 2) - 2 sqrt(2/pi) e^(-1/2) and
# BETA_OBJECT = (3/2) (erf(1/sqrt 2) - sqrt(2/pi) e^(-1/2)).
ALPHA_OBJECT = 0.05615134012905545
BETA_OBJECT = 0.2981220646481988
# First origin crossing of the gravity-point law from rest at r0 = sigma0 in
# characteristic times, correctly rounded from the energy integral with
# r = sigma0 sin(theta) (Landau & Lifshitz, Mechanics, sections 11-12): the
# integral over [0, pi/2] of cos(theta) / sqrt(2 c expm1(cos(theta)^2 / 2)),
# c = sqrt(2/pi) e^(-1/2).  In x = r / sigma0 the law has no parameter.
QUARTER_PERIOD_POINT = 2.1193028269432572


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


def _finite(*constants: float) -> None:
    """Raise OverflowError for a constant that overflowed without raising (m * m)."""
    if not all(map(math.isfinite, constants)):
        raise OverflowError("non-finite force-law constant")


def _kernels(kind: LawKind, packet: WavePacket, body: Body, ctx: PhysicalContext,
             printed_mixed_variant: bool):
    """The law's (force, potential), as closures over its constants.  Each
    repeats its ``potentials`` entry point operation for operation, with the
    factors of the parameters alone hoisted out; the sphere's potential calls it."""
    s0, m = packet.sigma0, body.mass
    two_s0_sq = 2.0 * s0 * s0
    if kind is LawKind.GRAVITY_OBJECT:
        R, R3 = body.radius, body.radius ** 3
        c = SQRT_2_OVER_PI * (ctx.G * m ** 2) / (2.0 * s0 ** 3)
        _finite(two_s0_sq, R3, c)

        def force(r):       # odd extension through the origin
            x = abs(r)
            f = c * math.exp(-(x * x) / two_s0_sq) * (3.0 * x * x / R - x ** 4 / R3)
            return f if r >= 0.0 else -f

        def potential(r):
            return qg_potential_object(abs(r), packet, body, ctx)
        return force, potential

    k = -SQRT_2_OVER_PI * ctx.G * m * m / s0 ** 3      # qg_force_point's prefactor
    depth = SQRT_2_OVER_PI * ctx.G * m * m / s0        # the well's depth
    _finite(two_s0_sq, k, depth)
    if kind is LawKind.GRAVITY_POINT:
        def force(r):
            return k * r * math.exp(-(r * r) / two_s0_sq)

        def potential(r):
            x = r / s0
            return depth * -math.expm1(-0.5 * x * x)
        return force, potential

    hbar2 = ctx.hbar ** 2
    if printed_mixed_variant:   # the printed sigma0^2 for sigma0^4, for comparison runs
        force_den, neg_hbar2, potential_den = 4.0 * m * s0 ** 2, -hbar2, 8.0 * m * s0 * s0

        def potential(r):
            x = r / s0
            return neg_hbar2 * r * r / potential_den + depth * -math.expm1(-0.5 * x * x)
    else:
        force_den, six_s0_sq, potential_den = 4.0 * m * s0 ** 4, 6.0 * s0 * s0, 8.0 * m * s0 ** 4

        def potential(r):
            x = r / s0
            return (hbar2 * (six_s0_sq - r * r) / potential_den
                    + depth * -math.expm1(-0.5 * x * x))
    _finite(hbar2, force_den, potential_den)

    def force(r):
        return hbar2 * r / force_den + k * r * math.exp(-(r * r) / two_s0_sq)
    return force, potential


@dataclass(frozen=True)
class ForceLaw:
    """A force law bound to its (packet, body, context) parameters.

    Its force and potential are built once, with the law (:func:`_kernels`).
    ``force_at`` is odd in r and ``potential_at`` even, and for r >= 0 both
    are bit-equal to the ``potentials`` entry points; the point laws use the
    binding well.  A point law for a sphere, or the object law for a point
    particle, raises :class:`BodyKindError` when built, and
    ``printed_mixed_variant`` on a law other than mixed-point, or a constant
    of the law outside the floating-point range, raises :class:`DomainError`.
    """

    kind: LawKind
    packet: WavePacket
    body: Body
    ctx: PhysicalContext
    printed_mixed_variant: bool = False

    def __post_init__(self):
        if self.body.is_sphere != (self.kind is LawKind.GRAVITY_OBJECT):
            raise BodyKindError(f"the {self.kind.value} force law does not apply to a "
                                f"{'sphere' if self.body.is_sphere else 'point particle'}")
        if self.printed_mixed_variant and self.kind is not LawKind.MIXED_POINT:
            raise DomainError(f"the printed mixed variant does not apply to the "
                              f"{self.kind.value} force law")
        try:
            force, potential = _kernels(self.kind, self.packet, self.body, self.ctx,
                                        self.printed_mixed_variant)
        except (OverflowError, ZeroDivisionError):
            raise DomainError("the force law's constants are outside the floating-point "
                              "range for these parameters") from None
        object.__setattr__(self, "_force", force)
        object.__setattr__(self, "_potential", potential)

    @classmethod
    def gravity_point(cls, packet, body, ctx) -> "ForceLaw":
        return cls(LawKind.GRAVITY_POINT, packet, body, ctx)

    @classmethod
    def mixed_point(cls, packet, body, ctx, printed_variant=False) -> "ForceLaw":
        return cls(LawKind.MIXED_POINT, packet, body, ctx,
                   printed_mixed_variant=printed_variant)

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


@dataclass(frozen=True)
class Trajectory:
    """Accepted solver steps of one integration, with located events.

    ``t``, ``r``, ``v`` and ``energy`` hold one sample per accepted step as
    stdlib ``array('d')``, so that a run loads no numpy.  They index, slice
    and ``tolist()`` like lists; for arithmetic take ``np.asarray(traj.r)``,
    which shares their memory, since ``traj.r * 2`` repeats an ``array``.
    ``nfev`` counts right-hand-side evaluations (one ``force_at`` call each),
    ``n_steps`` accepted steps and ``n_rejected`` rejected step attempts.
    """

    t: array
    r: array
    v: array
    energy: array
    events: list[Event]
    energy_drift: float
    law: ForceLaw
    nfev: int
    n_steps: int
    n_rejected: int

    def events_of(self, kind: EventKind) -> list[Event]:
        return [e for e in self.events if e.kind is kind]


# Dormand-Prince 5(4) pair with Shampine's quartic dense output (Hairer,
# Norsett & Wanner, Solving ODEs I, sections II.4-II.6), with the
# coefficients, error norm and step-size controller of scipy.integrate.RK45:
# the step advances with the 5th-order solution, E weights the 4th-order
# error estimate, and y(t_old + x h) = y_old + h sum_k Q_k x^(k+1) with
# Q = K^T P over the seven stage slopes K.  The stage times C are not needed:
# m r'' = F(r) is autonomous.
_A = ((1 / 5,),
      (3 / 40, 9 / 40),
      (44 / 45, -56 / 15, 32 / 9),
      (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
      (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656))
_B = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)
_E = (-71 / 57600, 0.0, 71 / 16695, -71 / 1920, 17253 / 339200, -22 / 525, 1 / 40)
_P = ((1.0, -8048581381 / 2820520608, 8663915743 / 2820520608,
       -12715105075 / 11282082432),
      (0.0, 0.0, 0.0, 0.0),
      (0.0, 131558114200 / 32700410799, -68118460800 / 10900136933,
       87487479700 / 32700410799),
      (0.0, -1754552775 / 470086768, 14199869525 / 1410260304,
       -10690763975 / 1880347072),
      (0.0, 127303824393 / 49829197408, -318862633887 / 49829197408,
       701980252875 / 199316789632),
      (0.0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844),
      (0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423))
_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
_ERROR_EXPONENT = -1.0 / 5.0          # -1 / (order of the error estimate + 1)
_MIN_RTOL = 100.0 * sys.float_info.epsilon   # smaller relative errors are round-off
_ROOT_TOL = 4.0 * sys.float_info.epsilon     # absolute and relative, per event root
_ROOT_MAXITER = 100
SOLVER_METHOD = "RK45"


def _brentq(f, xa: float, xb: float) -> float:
    """A zero of f in [xa, xb] by Brent's method (Brent, Algorithms for
    Minimization without Derivatives, 1973, ch. 4), step for step as
    scipy.optimize.brentq, with xtol = rtol = 4 eps.

    A zero division, where C arithmetic would give inf or nan, falls back to
    bisection as the comparisons on those values do there.
    """
    xpre, xcur = xa, xb
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise IntegrationError(f"event root is not bracketed on [{xa!r}, {xb!r}]")
    for _ in range(_ROOT_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (_ROOT_TOL + _ROOT_TOL * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        stry = math.nan          # bisect unless interpolation is possible and good
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:         # secant
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:                    # inverse quadratic
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                pass
        if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
            spre, scur = scur, stry
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0.0 else -delta
        fcur = f(xcur)
    raise IntegrationError(f"event root search did not converge in {_ROOT_MAXITER} "
                           f"iterations on [{xa!r}, {xb!r}]")


def _dense(t_old: float, h: float, y_old: float, k: tuple):
    """One component of the step's quartic dense output, from its 7 stage slopes."""
    q0, q1, q2, q3 = (sum(p[j] * kj for p, kj in zip(_P, k)) for j in range(4))

    def y(t: float) -> float:
        x = (t - t_old) / h
        x2 = x * x
        x3 = x2 * x
        return h * (q0 * x + q1 * x2 + q2 * x3 + q3 * (x3 * x)) + y_old
    return y


def _dormand_prince(accel, r: float, v: float, t_end: float, h_abs: float,
                    rtol: float, atol: float, escape_radius: float, max_steps: int):
    """Integrate r' = v, v' = accel(r) from t = 0 with first step ``h_abs``,
    in at most ``max_steps`` accepted steps.

    Returns the accepted (t, r, v) samples, the events as sorted (time, kind)
    pairs, the number of accel calls and the number of rejected attempts.
    Events fire where an event function (r, v, r - escape_radius) is <= 0 at
    one end of a step and >= 0 at the other, so a zero at a step end fires in
    both adjacent steps; the escape event fires only upward and ends the run
    at its root, with the state taken from the dense output.
    """
    (a21,), (a31, a32), (a41, a42, a43), (a51, a52, a53, a54), \
        (a61, a62, a63, a64, a65) = _A
    b1, _, b3, b4, b5, b6 = _B
    e1, _, e3, e4, e5, e6, e7 = _E
    t = 0.0
    a = accel(r)
    nfev, n_rejected = 1, 0
    ts, rs, vs = [t], [r], [v]
    events: list[tuple[float, EventKind]] = []
    while t < t_end:
        min_step = 10.0 * abs(math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                raise IntegrationError(f"solver failed at t={t!r}: the required step "
                                       "is below the spacing of floating-point numbers")
            t_new = min(t + h_abs, t_end)
            h = t_new - t
            h_abs = h
            # The stage slopes of r are velocities (p), those of v accelerations (q).
            p1, q1 = v, a
            r2 = r + (a21 * p1) * h
            p2 = v + (a21 * q1) * h
            q2 = accel(r2)
            r3 = r + (a31 * p1 + a32 * p2) * h
            p3 = v + (a31 * q1 + a32 * q2) * h
            q3 = accel(r3)
            r4 = r + (a41 * p1 + a42 * p2 + a43 * p3) * h
            p4 = v + (a41 * q1 + a42 * q2 + a43 * q3) * h
            q4 = accel(r4)
            r5 = r + (a51 * p1 + a52 * p2 + a53 * p3 + a54 * p4) * h
            p5 = v + (a51 * q1 + a52 * q2 + a53 * q3 + a54 * q4) * h
            q5 = accel(r5)
            r6 = r + (a61 * p1 + a62 * p2 + a63 * p3 + a64 * p4 + a65 * p5) * h
            p6 = v + (a61 * q1 + a62 * q2 + a63 * q3 + a64 * q4 + a65 * q5) * h
            q6 = accel(r6)
            r_new = r + h * (b1 * p1 + b3 * p3 + b4 * p4 + b5 * p5 + b6 * p6)
            v_new = v + h * (b1 * q1 + b3 * q3 + b4 * q4 + b5 * q5 + b6 * q6)
            p7, q7 = v_new, accel(r_new)
            nfev += 6
            err_r = (e1 * p1 + e3 * p3 + e4 * p4 + e5 * p5 + e6 * p6 + e7 * p7) * h
            err_v = (e1 * q1 + e3 * q3 + e4 * q4 + e5 * q5 + e6 * q6 + e7 * q7) * h
            err_r /= atol + max(abs(r), abs(r_new)) * rtol
            err_v /= atol + max(abs(v), abs(v_new)) * rtol
            error_norm = math.sqrt(err_r * err_r + err_v * err_v) / SQRT_2
            if error_norm < 1.0:
                if error_norm == 0.0:
                    factor = _MAX_FACTOR
                else:
                    factor = min(_MAX_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
                if rejected:
                    factor = min(1.0, factor)
                h_abs *= factor
                break
            # nan compares false, so a non-finite error shrinks the step by MIN_FACTOR
            h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
            rejected = True
            n_rejected += 1

        r_zero = (r <= 0.0 <= r_new) or (r >= 0.0 >= r_new)
        v_zero = (v <= 0.0 <= v_new) or (v >= 0.0 >= v_new)
        escaped = r - escape_radius <= 0.0 <= r_new - escape_radius
        if r_zero or v_zero or escaped:
            r_of = _dense(t, h, r, (p1, p2, p3, p4, p5, p6, p7))
            v_of = _dense(t, h, v, (q1, q2, q3, q4, q5, q6, q7))
            found = []
            if r_zero:
                found.append((_brentq(r_of, t, t_new), EventKind.R_ZERO))
            if v_zero:
                found.append((_brentq(v_of, t, t_new), EventKind.V_ZERO))
            if escaped:
                t_esc = _brentq(lambda ti: r_of(ti) - escape_radius, t, t_new)
                # the run ends at the terminal root: later roots never happen
                found = [e for e in found if e[0] <= t_esc] + [(t_esc, EventKind.ESCAPE)]
                t_new, r_new, v_new = t_esc, r_of(t_esc), v_of(t_esc)
            events.extend(found)
        t, r, v, a = t_new, r_new, v_new, q7
        ts.append(t)
        rs.append(r)
        vs.append(v)
        if escaped:
            break
        if len(ts) > max_steps and t < t_end:
            raise IntegrationError(f"solver took {max_steps} steps and reached only "
                                   f"t={t!r} of t_end={t_end!r}")
    events.sort(key=lambda e: (e[0], e[1].value))
    return ts, rs, vs, events, nfev, n_rejected


def integrate(law: ForceLaw, r0: float, v0: float, t_end: float,
              rtol: float = 1e-9, atol: float = 1e-12) -> Trajectory:
    """Integrate m r'' = F(r) with the adaptive Dormand-Prince 5(4) pair.

    The stepper is a scalar port of scipy.integrate.RK45 (first step
    min(t_char / 1000, t_end / 10), no maximum step), so neither numpy nor
    scipy runs per step.  Events are located by Brent's method on the dense
    output: r = 0 and v = 0 crossings, plus an escape event when r crosses
    ESCAPE_RADII * sigma0 outward (v > 0), which also terminates the run.  One
    sample is recorded per accepted step.  The energy column and
    ``energy_drift``, max |E - E0| over max(|E0|, max kinetic, 1e-300), are
    computed in Python floats, so ``integrate`` loads no numpy either.

    The law is read through ``force_at`` and ``potential_at`` only: the force
    is odd in r and the potential even, for r >= 0 both are bit-equal to the
    ``potentials`` entry points, and the body kind was checked with the law.

    Raises :class:`DomainError` for a non-finite start or end, a t_end
    beyond ``MAX_CHARACTERISTIC_TIMES`` characteristic times, or an rtol
    below 100 eps (where scipy's RK45 raises rtol with a warning), and
    :class:`IntegrationError` for a step below the floating-point spacing of
    t, more than ``MAX_STEPS`` accepted steps, a non-finite state, energy or
    drift, a force or potential that overflows or divides by zero, or an
    event root that is not bracketed or not converged.
    """
    if not all(math.isfinite(x) for x in (r0, v0, t_end)):
        raise DomainError("r0, v0 and t_end must be finite")
    if not t_end > 0.0:
        raise DomainError("t_end must be positive")
    if not (rtol > 0.0 and atol > 0.0):
        raise DomainError("tolerances must be positive")
    if rtol < _MIN_RTOL:
        raise DomainError(f"rtol must be at least {_MIN_RTOL:.3g}, 100 times the "
                          "double-precision epsilon")
    try:
        t_char = law.characteristic_time()
    except (OverflowError, ZeroDivisionError):
        t_char = math.nan
    if not t_char > 0.0:        # nan, or sigma0^3 underflowed to zero
        raise DomainError("the characteristic time is outside the floating-point range "
                          "for these parameters")
    if not t_end <= MAX_CHARACTERISTIC_TIMES * t_char:
        raise DomainError(f"t_end is {t_end / t_char:.3g} characteristic times; "
                          f"the limit is {MAX_CHARACTERISTIC_TIMES:g}")

    m = law.body.mass
    if r0 == 0.0 and v0 == 0.0:
        # Equilibrium point: the solution is identically zero, no step is taken.
        e0 = law.potential_at(0.0)
        return Trajectory(t=array("d", [0.0, t_end]), r=array("d", [0.0, 0.0]),
                          v=array("d", [0.0, 0.0]), energy=array("d", [e0, e0]), events=[],
                          energy_drift=0.0, law=law, nfev=0, n_steps=0, n_rejected=0)

    force = law.force_at

    def accel(x):
        return force(x) / m

    t_end = float(t_end)
    first_step = min(t_char / 1000.0, t_end / 10.0)
    try:
        ts, rs, vs, found, nfev, n_rejected = _dormand_prince(
            accel, float(r0), float(v0), t_end, first_step, rtol, atol,
            ESCAPE_RADII * law.packet.sigma0, MAX_STEPS)
        if not all(map(math.isfinite, rs + vs)):
            raise IntegrationError("non-finite state encountered during integration")
        kinetic = [0.5 * m * vi * vi for vi in vs]
        energy = array("d", map(operator.add, kinetic, map(law.potential_at, rs)))
    except (OverflowError, ZeroDivisionError):
        raise IntegrationError("the force or potential left the floating-point range "
                               "during integration") from None
    e0 = energy[0]
    scale = max(abs(e0), max(kinetic), 1e-300)
    drift = max(abs(e - e0) for e in energy) / scale
    if not (all(map(math.isfinite, energy)) and math.isfinite(drift)):
        raise IntegrationError("the trajectory's energy is not finite")
    return Trajectory(t=array("d", ts), r=array("d", rs), v=array("d", vs), energy=energy,
                      events=[Event(time=ti, kind=kind) for ti, kind in found],
                      energy_drift=drift, law=law, nfev=nfev, n_steps=len(ts) - 1,
                      n_rejected=n_rejected)


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


def period_linearized(packet: WavePacket, body: Body, ctx: PhysicalContext) -> float:
    """2 pi over the point law's small-amplitude rate (2/pi)^(1/4) sqrt(G m / sigma0^3)."""
    rate = (2.0 / math.pi) ** 0.25 * math.sqrt(ctx.G * body.mass / packet.sigma0 ** 3)
    return 2.0 * math.pi / rate


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
POINT_METHODS = POINT_CLOSED_FORMS + (TauMethod.QUARTER_PERIOD_NUMERIC,)
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


def tau_at(method: TauMethod, mass, sigma0, ctx: PhysicalContext, radius=None):
    """Reduction time by ``method``, elementwise over floats or broadcastable arrays.

    Python floats run on Python arithmetic and load no numpy; arrays run on
    numpy (see :func:`core.closed_form`).  The point-particle methods take no
    radius, the sphere methods require one.  The quarter period is
    ``QUARTER_PERIOD_POINT`` characteristic times.  The object-uncertainty
    spread |qg_potential_object(sigma0, ...)| is (G m^2 / R)
    |ALPHA_OBJECT x^2 - BETA_OBJECT| with x = sigma0 / R, which cancels only
    near its zero x ~ 2.3035.  Overflow and underflow are not warned about;
    :class:`DomainError` is raised unless every result is finite and positive.
    """
    if method not in (OBJECT_CLOSED_FORMS if radius is not None else POINT_METHODS):
        kind = "sphere" if radius is not None else "point particle"
        raise BodyKindError(f"method {method} does not apply to a {kind}")
    G, hbar = ctx.G, ctx.hbar
    what = f"{method.value} reduction time"
    with closed_form(what, mass, sigma0, radius) as (m, s0, R):
        if method is TauMethod.PERIOD_FORMULA:
            tau = (s0 ** 3 / (G * m)) ** 0.5
        elif method is TauMethod.QUARTER_PERIOD_NUMERIC:
            tau = QUARTER_PERIOD_POINT * (s0 ** 3 / (G * m)) ** 0.5
        elif method is TauMethod.SHORT_TIME:
            tau = hbar ** 3 / (G ** 2 * m ** 5)
        elif method is TauMethod.UNCERTAINTY:
            tau = hbar / (SQRT_2_OVER_PI * (-math.expm1(-0.5)) * G * m * m / s0)
        else:
            gm2 = G * (m * m)
            if method is TauMethod.OBJECT_UNCERTAINTY:
                x = s0 / R
                tau = hbar * R / (gm2 * abs(ALPHA_OBJECT * x * x - BETA_OBJECT))
            else:
                tau = 1.25 * math.sqrt(2.0 * math.pi) * hbar * R / gm2
        return in_float_range(tau, what)


def tau_estimates(packet: WavePacket, body: Body, ctx: PhysicalContext,
                  include_numeric: bool = True) -> list[ReductionEstimate]:
    """All applicable reduction-time estimates for this (packet, body) pair."""
    if body.is_sphere:
        methods = OBJECT_CLOSED_FORMS
    else:
        methods = POINT_METHODS if include_numeric else POINT_CLOSED_FORMS
    return [ReductionEstimate(float(tau_at(method, body.mass, packet.sigma0, ctx, body.radius)),
                              method, _ASSUMPTIONS[method]) for method in methods]
