"""Closed-form radial potentials and forces for a self-gravitating Gaussian packet.

Two force channels act on the packet's guidance trajectory: the dispersive
quantum force derived from the curvature of the Gaussian amplitude, and the
self-gravitational pull of the probability distribution itself.  Both are
available for a point particle and for a homogeneous sphere, together with a
quadrature fallback that integrates the defining self-energy integral
directly and serves as the oracle for every closed form here.

Sign convention: the self-gravitational potentials are the running integral
of (classical kernel) * density * 4 pi r'^2, which is negative wherever the
kernel is attractive.  Forces are the negative radial derivatives of their
potentials; this pairing is enforced by tests, not assumed.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

from .core import Body, PhysicalContext, WavePacket, density
from .errors import AccuracyError, BodyKindError, DomainError, SingularityError

SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
SQRT_2 = math.sqrt(2.0)
SQRT_PI = math.sqrt(math.pi)

# Truncation radius for semi-infinite integrals, in units of sigma0.  The
# Gaussian weight at 12 sigma is below 1e-31 of the total mass.
TRUNCATION_SIGMAS = 12.0
QUAD_RELTOL = 1e-12
QUAD_LIMIT = 200


class RegimeWarning(UserWarning):
    """An asymptotic form was evaluated outside its validity regime."""


@dataclass(frozen=True)
class RadialField:
    """A scalar field of the radius: either a potential or its paired force."""

    fn: Callable[[float], float]
    kind: str          # "potential" | "force"
    label: str

    def __call__(self, r: float) -> float:
        return self.fn(r)


def _quad(fn: Callable[[float], float], a: float, b: float,
          epsrel: float) -> tuple[float, float]:
    """``scipy.integrate.quad`` of fn on [a, b]: returns (value, abserr).

    scipy is imported here, on first use, so that the closed forms load
    without it.  ``IntegrationWarning`` is silenced because every caller
    judges ``abserr`` itself and reports non-convergence through
    :class:`AccuracyError`.
    """
    from scipy.integrate import IntegrationWarning, quad

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        return quad(fn, a, b, epsabs=0.0, epsrel=epsrel, limit=QUAD_LIMIT)


def _require_point(body: Body):
    if not body.is_point:
        raise BodyKindError("operation requires a point particle")


def _require_sphere(body: Body):
    if not body.is_sphere:
        raise BodyKindError("operation requires a homogeneous sphere")


def _require_nonnegative(r: float):
    if r < 0.0:
        raise DomainError("radius must be non-negative")


def quantum_potential(r: float, packet: WavePacket, body: Body,
                      ctx: PhysicalContext) -> float:
    """Quantum potential of the Gaussian packet: hbar^2 (6 sigma0^2 - r^2) / (8 m sigma0^4)."""
    _require_nonnegative(r)
    s0 = packet.sigma0
    return ctx.hbar ** 2 * (6.0 * s0 * s0 - r * r) / (8.0 * body.mass * s0 ** 4)


def quantum_force(r: float, packet: WavePacket, body: Body,
                  ctx: PhysicalContext) -> float:
    """Dispersive quantum force hbar^2 r / (4 m sigma0^4), the negative gradient
    of :func:`quantum_potential`.  Positive (outward) for r > 0."""
    _require_nonnegative(r)
    return ctx.hbar ** 2 * r / (4.0 * body.mass * packet.sigma0 ** 4)


def classical_kernel(r: float, body: Body, ctx: PhysicalContext) -> float:
    """Classical gravitational kernel of the body.

    Point particle: -G m^2 / r (singular at r = 0).
    Homogeneous sphere: -(G m^2 / R) (3/2 - r^2 / 2 R^2), the interior form,
    used at all radii as the defining kernel of the object's self-energy.
    """
    m = body.mass
    if body.is_point:
        if r == 0.0:
            raise SingularityError("point kernel is singular at r = 0")
        if r < 0.0:
            raise DomainError("radius must be positive for the point kernel")
        return -ctx.G * m * m / r
    _require_nonnegative(r)
    R = body.radius
    return -(ctx.G * m * m / R) * (1.5 - r * r / (2.0 * R * R))


def qg_potential_point(r: float, packet: WavePacket, body: Body,
                       ctx: PhysicalContext) -> float:
    """Self-gravitational potential of a point particle's distribution.

    -sqrt(2/pi) (G m^2 / sigma0) (1 - exp(-r^2 / 2 sigma0^2)); zero at the
    origin, monotone decreasing, bounded below by -sqrt(2/pi) G m^2 / sigma0.
    """
    _require_point(body)
    _require_nonnegative(r)
    s0 = packet.sigma0
    m = body.mass
    return -SQRT_2_OVER_PI * ctx.G * m * m / s0 * (-math.expm1(-(r * r) / (2.0 * s0 * s0)))


def qg_force_point(r: float, packet: WavePacket, body: Body,
                   ctx: PhysicalContext) -> float:
    """-sqrt(2/pi) (G m^2 / sigma0^3) r exp(-r^2 / 2 sigma0^2); always attractive."""
    _require_point(body)
    _require_nonnegative(r)
    s0 = packet.sigma0
    m = body.mass
    return (-SQRT_2_OVER_PI * ctx.G * m * m / s0 ** 3
            * r * math.exp(-(r * r) / (2.0 * s0 * s0)))


def qg_potential_object(r: float, packet: WavePacket, body: Body,
                        ctx: PhysicalContext) -> float:
    """Self-gravitational potential of a homogeneous sphere's distribution.

    Closed form of the running integral of the sphere kernel against the
    Gaussian density; involves exp and erf terms in (r, sigma0, R).  Zero at
    the origin; negative throughout the attractive region r < sqrt(3) R.
    """
    _require_sphere(body)
    _require_nonnegative(r)
    s0 = packet.sigma0
    g = math.exp(-(r * r) / (2.0 * s0 * s0))
    e = math.erf(SQRT_2 * r / (2.0 * s0))
    return _qg_potential_object_terms(r, s0, body.radius, ctx.G * body.mass ** 2, g, e)


def _qg_potential_object_terms(r, s0, R, gm2, g, e):
    """The closed form of :func:`qg_potential_object`, given its Gaussian
    factor g and error-function factor e.  Plain arithmetic, so every
    argument may also be a numpy array."""
    return (3.0 * gm2 * SQRT_2 * g * r / (2.0 * SQRT_PI * s0 * R)
            - gm2 * SQRT_2 * r ** 3 * g / (2.0 * SQRT_PI * s0 * R ** 3)
            - 3.0 * gm2 * SQRT_2 * s0 * r * g / (2.0 * SQRT_PI * R ** 3)
            - 3.0 * gm2 * e / (2.0 * R)
            + 3.0 * gm2 * s0 * s0 * e / (2.0 * R ** 3))


def qg_force_object(r: float, packet: WavePacket, body: Body,
                    ctx: PhysicalContext) -> float:
    """Negative gradient of :func:`qg_potential_object`.

    (3/2) sqrt(2/pi) (G m^2 / sigma0^3 R) r^2 exp(...) minus the r^4 term;
    the r^2 term pushes outward, the r^4 term pulls in, with the sign change
    at r = sqrt(3) R.
    """
    _require_sphere(body)
    _require_nonnegative(r)
    s0 = packet.sigma0
    R = body.radius
    gm2 = ctx.G * body.mass ** 2
    g = math.exp(-(r * r) / (2.0 * s0 * s0))
    c = SQRT_2_OVER_PI * gm2 / (2.0 * s0 ** 3)
    return c * g * (3.0 * r * r / R - r ** 4 / R ** 3)


def qg_potential_object_asymptotic(r: float, packet: WavePacket, body: Body,
                                   ctx: PhysicalContext) -> float:
    """Wide-packet (sigma0 >> R) cubic approximation -(2 sqrt2 / 5 sqrt pi) G m^2 r^3 / (R sigma0^3).

    Warns with :class:`RegimeWarning` when sigma0 < 10 R.  The cubic matches
    the exact potential near r = R; away from that radius it is only an
    order-of-magnitude guide.
    """
    _require_sphere(body)
    if packet.sigma0 < 10.0 * body.radius:
        warnings.warn("asymptotic form evaluated with sigma0 < 10 R",
                      RegimeWarning, stacklevel=2)
    gm2 = ctx.G * body.mass ** 2
    return (-2.0 * math.sqrt(2.0) / (5.0 * math.sqrt(math.pi))
            * gm2 * r ** 3 / (body.radius * packet.sigma0 ** 3))


def qg_potential_numeric(r: float, kernel: RadialField | Callable[[float], float],
                         packet: WavePacket, ctx: PhysicalContext) -> float:
    """Self-energy by adaptive quadrature of kernel * density * 4 pi r'^2 on [0, r].

    This is the oracle the closed forms are tested against.  The upper limit
    is truncated at 12 sigma0; the integration variable is rescaled by sigma0
    so the scheme is well conditioned across many decades of packet width.

    Raises :class:`AccuracyError` (carrying the partial result and achieved
    error estimate) if the quadrature does not converge.
    """
    _require_nonnegative(r)
    s0 = packet.sigma0
    kern = kernel.fn if isinstance(kernel, RadialField) else kernel
    upper = min(r / s0, TRUNCATION_SIGMAS)
    if upper <= 0.0:
        return 0.0

    def integrand(u):
        rp = u * s0
        return kern(rp) * density(rp, packet) * 4.0 * math.pi * rp * rp * s0

    value, abserr = _quad(integrand, 0.0, upper, QUAD_RELTOL)
    if abserr > 1e-8 * max(abs(value), 1e-300):
        raise AccuracyError("self-energy quadrature did not converge",
                            value=value, error_estimate=abserr)
    return value


def qg_well_potential_point(r: float, packet: WavePacket, body: Body,
                            ctx: PhysicalContext) -> float:
    """Binding-well potential of the point force: the negation of
    :func:`qg_potential_point`.

    The self-energy integral is negative by convention while the force it is
    associated with points inward, so the potential whose negative gradient
    equals :func:`qg_force_point` (and which conserves trajectory energy) is
    the sign-flipped well form used here.
    """
    return -qg_potential_point(r, packet, body, ctx)


def potential_force_pairs(packet: WavePacket, body: Body, ctx: PhysicalContext):
    """The (potential, force) pairs applicable to this body, for gradient checks.

    Always includes the quantum pair; adds the point or sphere gravitational
    pair, and for points also the combined (quantum + gravitational) pair that
    drives the mixed-regime dynamics.  Each pair satisfies force = -dU/dr.
    """
    pairs = [(
        RadialField(lambda r: quantum_potential(r, packet, body, ctx),
                    "potential", "quantum-potential"),
        RadialField(lambda r: quantum_force(r, packet, body, ctx),
                    "force", "quantum-force"),
    )]
    if body.is_point:
        pairs.append((
            RadialField(lambda r: qg_well_potential_point(r, packet, body, ctx),
                        "potential", "self-gravity-well-point"),
            RadialField(lambda r: qg_force_point(r, packet, body, ctx),
                        "force", "self-gravity-force-point"),
        ))
        pairs.append((
            RadialField(lambda r: quantum_potential(r, packet, body, ctx)
                        + qg_well_potential_point(r, packet, body, ctx),
                        "potential", "mixed-well-point"),
            RadialField(lambda r: quantum_force(r, packet, body, ctx)
                        + qg_force_point(r, packet, body, ctx),
                        "force", "mixed-force-point"),
        ))
    else:
        pairs.append((
            RadialField(lambda r: qg_potential_object(r, packet, body, ctx),
                        "potential", "self-gravity-potential-object"),
            RadialField(lambda r: qg_force_object(r, packet, body, ctx),
                        "force", "self-gravity-force-object"),
        ))
    return pairs
