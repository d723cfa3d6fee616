"""Ensemble averages over the Gaussian distribution.

Every quantity of interest can be averaged against the radial weight
density * 4 pi r^2 on [0, infinity).  A generic expectation engine, a
Gauss-Legendre rule with an error estimate (see ``potentials._radial_quad``),
lives next to the closed-form results so each closed form can be
cross-tested against the same independent integrator.  Each closed form has
one implementation: the sphere's mean energy is
``avg_qg_potential_object + avg_quantum_potential``, and its asymptotic
forces are the two terms of ``avg_qg_force_object``.  The rule runs on
Python floats, with correctly rounded sums (``math.fsum``), so an
expectation loads no numpy.
"""

from __future__ import annotations

import math
from collections.abc import Callable

from .core import SQRT_2_OVER_PI, Body, PhysicalContext, Record, WavePacket, closed_form, finite
from .errors import AccuracyError
from .potentials import TRUNCATION_SIGMAS, _radial_quad, _require_point, _require_sphere

EXPECT_RELTOL = 1e-10


class Expectation(Record):
    """A quadrature ensemble average with its absolute error estimate and the
    number of observable evaluations behind it."""

    __slots__ = _fields = ("value", "abs_error_estimate", "neval")

    def __init__(self, value: float, abs_error_estimate: float, neval: int):
        if abs_error_estimate < 0.0:
            raise ValueError("error estimate must be non-negative")
        self._set(value, abs_error_estimate, neval)


def expect(observable: Callable[[float], float], packet: WavePacket,
           ctx: PhysicalContext) -> Expectation:
    """Quadrature of density * observable * 4 pi r^2 over [0, 12 sigma0].

    The integration variable is r / sigma0, so the Gaussian weight is folded
    into fixed node weights; the observable is called once per node, bisected
    panels included, and ``neval`` counts those calls.  Raises
    :class:`AccuracyError` with the partial result if the requested relative
    tolerance cannot be certified, and :class:`DomainError` if the observable
    or the average leaves the floating-point range.
    """
    value, abserr, l1, neval = _radial_quad(observable, packet.sigma0, TRUNCATION_SIGMAS)
    # A cancelling integrand can converge in absolute terms while the
    # relative criterion is ill-posed near zero; judge it against the
    # integrand's own L1 scale.
    if abserr > EXPECT_RELTOL * max(abs(value), l1):
        raise AccuracyError("expectation quadrature did not converge",
                            value=value, error_estimate=abserr)
    return Expectation(value=value, abs_error_estimate=abserr, neval=neval)


def avg_quantum_force(packet: WavePacket, body: Body, ctx: PhysicalContext) -> float:
    """(1/2) sqrt(2/pi) hbar^2 / (m sigma0^3)."""
    what = "the mean quantum force"
    with closed_form(what):
        return finite(0.5 * SQRT_2_OVER_PI * ctx.hbar ** 2
                      / (body.mass * packet.sigma0 ** 3), what)


def avg_qg_force_point(packet: WavePacket, body: Body, ctx: PhysicalContext) -> float:
    """-(1/pi) G m^2 / sigma0^2."""
    _require_point(body)
    what = "the mean point self-gravity force"
    with closed_form(what):
        return finite(-ctx.G * body.mass ** 2 / (math.pi * packet.sigma0 ** 2), what)


def avg_quantum_potential(packet: WavePacket, body: Body, ctx: PhysicalContext) -> float:
    """3 hbar^2 / (8 m sigma0^2)."""
    what = "the mean quantum potential"
    with closed_form(what):
        return finite(3.0 * ctx.hbar ** 2 / (8.0 * body.mass * packet.sigma0 ** 2), what)


def avg_qg_potential_point(packet: WavePacket, body: Body, ctx: PhysicalContext) -> float:
    """-(2 sqrt2 - 1) G m^2 / (2 sqrt(pi) sigma0)."""
    _require_point(body)
    what = "the mean point self-gravity potential"
    with closed_form(what):
        gm2 = ctx.G * body.mass ** 2
        return finite(-(2.0 * math.sqrt(2.0) - 1.0) * gm2
                      / (2.0 * math.sqrt(math.pi) * packet.sigma0), what)


def avg_energy_point(packet: WavePacket, body: Body, ctx: PhysicalContext) -> float:
    """Stationary-packet mean energy: gravitational plus quantum average."""
    # a negative plus a positive finite float: the sum is finite
    return (avg_qg_potential_point(packet, body, ctx)
            + avg_quantum_potential(packet, body, ctx))


def avg_qg_potential_object(packet: WavePacket, body: Body, ctx: PhysicalContext) -> float:
    """-3 G m^2 / (4 R) + (G m^2 sigma0^2 / R^3) (3/4 - 1/pi)."""
    _require_sphere(body)
    what = "the mean sphere self-gravity potential"
    with closed_form(what):
        gm2 = ctx.G * body.mass ** 2
        R = body.radius
        s0 = packet.sigma0
        return finite(-3.0 * gm2 / (4.0 * R)
                      + gm2 * s0 * s0 / R ** 3 * (0.75 - 1.0 / math.pi), what)


def avg_qg_force_object(packet: WavePacket, body: Body, ctx: PhysicalContext) -> float:
    """Exact ensemble average of the sphere's self-gravitational force.

    9 G m^2 / (8 sqrt(pi) sigma0 R) - 15 G m^2 sigma0 / (16 sqrt(pi) R^3).
    The first term dominates where sigma0 << R and the second where
    sigma0 >> R.  Balanced against ``avg_quantum_force``, the first term's
    magnitude gives ``criticality.micro_transition_width_at`` and the
    second's the sphere law of ``critical_width_force_balance_at`` (the
    macro width).
    """
    _require_sphere(body)
    what = "the mean sphere self-gravity force"
    with closed_form(what):
        gm2 = ctx.G * body.mass ** 2
        R = body.radius
        s0 = packet.sigma0
        sqrtpi = math.sqrt(math.pi)
        return finite(9.0 * gm2 / (8.0 * sqrtpi * s0 * R)
                      - 15.0 * gm2 * s0 / (16.0 * sqrtpi * R ** 3), what)
