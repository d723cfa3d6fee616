"""Closed-form radial potentials and forces for a self-gravitating Gaussian packet.

Two force channels act on the packet's guidance trajectory: the dispersive
quantum force derived from the curvature of the Gaussian amplitude, and the
self-gravitational pull of the probability distribution itself.  Both are
available for a point particle and for a homogeneous sphere, together with a
quadrature fallback that integrates the defining self-energy integral
directly and serves as the oracle for every closed form here.

That fallback, and the ensemble averages of ``averages.expect``, integrate
against the Gaussian's radial weight with one fixed rule: 48-node
Gauss-Legendre, checked against the 40-node rule on the same panel and
bisected only where the two disagree.  The rules are the package's own, in
Python floats: nodes by Newton's method on the Legendre recurrence, weights
2 / ((1 - t^2) P_n'(t)^2), built on first use in about 2 ms.  No code here
loads numpy, so neither importing this module, as ``simulate`` does, nor
integrating, as ``verify`` does, loads it.

Sign convention: the self-gravitational potentials are the running integral
of (classical kernel) * density * 4 pi r'^2, which is negative wherever the
kernel is attractive.  Forces are the negative radial derivatives of their
potentials; this pairing is enforced by tests, not assumed.
"""

from __future__ import annotations

import functools
import heapq
import math
import operator
from collections.abc import Callable

from .core import SQRT_2_OVER_PI, Body, PhysicalContext, WavePacket, range_error
from .errors import AccuracyError, BodyKindError, DomainError, SingularityError

SQRT_2 = math.sqrt(2.0)
SQRT_PI = math.sqrt(math.pi)
SQRT_2PI = math.sqrt(2.0 * math.pi)

# Truncation radius for semi-infinite integrals, in units of sigma0.  The
# Gaussian weight at 12 sigma is below 1e-31 of the total mass.
TRUNCATION_SIGMAS = 12.0
QUAD_RELTOL = 1e-12
# The radial rule: the GAUSS_NODES-point Gauss-Legendre sum is the value and
# its distance from the COMPARISON_NODES-point sum on the same panel the error
# estimate.  A result that misses its tolerance bisects the panel with the
# largest estimate, until MAX_PANELS panels are in use.
GAUSS_NODES = 48
COMPARISON_NODES = 40
MAX_PANELS = 64
_INTEGRAL = "the integrand or its integral"


def _legendre(n: int, x: float) -> tuple[float, float]:
    """P_n(x) and P_n'(x), by the three-term recurrence
    k P_k = (2k - 1) x P_(k-1) - (k - 1) P_(k-2) and
    (1 - x^2) P_n' = n (P_(n-1) - x P_n) (Abramowitz & Stegun 22.7.10, 22.8.5)."""
    p0, p1 = 1.0, x
    for k in range(2, n + 1):
        p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
    return p1, n * (p0 - x * p1) / (1.0 - x * x)


def _legendre_rule(n: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """The n-point Gauss-Legendre rule on [-1, 1], n even: (nodes, weights),
    nodes ascending.

    Each positive node is Newton's method on the recurrence from the
    asymptotic guess cos(pi (i + 3/4) / (n + 1/2)), which converges in at
    most 4 steps for n = 40 and 48; the negative nodes are their mirror
    images.  The weight is 2 / ((1 - t^2) P_n'(t)^2) (A&S 25.4.29) at the
    root t, taken to first order from the rounded node x: the denominator
    (1 - x^2) P_n'(x)^2 - 2 x P_n'(x) P_n(x).  That keeps the weights
    within 8e-15 relative of 40-digit mpmath, against 4e-14 for the formula
    at x.
    """
    half = []
    for i in range(n // 2):
        x = math.cos(math.pi * (i + 0.75) / (n + 0.5))
        for _ in range(8):
            p, dp = _legendre(n, x)
            dx = p / dp
            x -= dx
            if abs(dx) <= 1e-15:
                break
        p, dp = _legendre(n, x)
        half.append((x, 2.0 / ((1.0 - x * x) * dp * dp - 2.0 * x * dp * p)))
    nodes = [-x for x, _ in half] + [x for x, _ in reversed(half)]
    weights = [w for _, w in half] + [w for _, w in reversed(half)]
    return tuple(nodes), tuple(weights)


def _panel_rule(t, w, a: float, b: float):
    """Nodes u on [a, b] of the reference rule (t, w) on [-1, 1], and its
    weights times the radial weight rho(u) = sqrt(2/pi) u^2 exp(-u^2 / 2),
    as two lists.

    rho(u) du is density(r) 4 pi r^2 dr at r = u sigma0, whatever sigma0 is,
    so the Gaussian never has to be evaluated per call.  t and w hold both
    rules of :func:`_gauss_pair`, concatenated.  A fresh panel costs one
    math.exp per node, about 15 us for the 88 nodes.
    """
    half = 0.5 * (b - a)
    mid = a + half
    u = [mid + half * x for x in t]
    exp = math.exp
    return u, [half * wi * (SQRT_2_OVER_PI * x * x * exp(-0.5 * x * x))
               for wi, x in zip(w, u)]


@functools.cache
def _gauss_pair():
    """The GAUSS_NODES- and COMPARISON_NODES-point Gauss-Legendre rules on
    [-1, 1] as (t, w): the nodes of both, concatenated in that order, and
    their weights, in the same order.  Also (u, weights), the rule of the
    panel [0, TRUNCATION_SIGMAS] that every expectation starts from, as
    :func:`_panel_rule` gives it.  All four are tuples.

    The rules come from :func:`_legendre_rule`, with weights
    2 / ((1 - t^2) P_n'(t)^2).  Built on first use, in about 2 ms, so that
    the commands which never integrate do not pay for it.
    """
    t_value, w_value = _legendre_rule(GAUSS_NODES)
    t_comparison, w_comparison = _legendre_rule(COMPARISON_NODES)
    t, w = t_value + t_comparison, w_value + w_comparison
    u, weights = _panel_rule(t, w, 0.0, TRUNCATION_SIGMAS)
    return t, w, (tuple(u), tuple(weights))


def _radial_quad(fn: Callable[[float], float], s0: float,
                 upper: float) -> tuple[float, float, float, int]:
    """Integral of rho(u) fn(u s0) over u in [0, upper], with rho the radial
    weight of :func:`_panel_rule`: returns (value, abserr, l1, neval).

    fn is called once per node with a float radius.  Each panel's sums are
    ``math.fsum``'s, so they are correctly rounded.  abserr sums
    |G48 - G40| over the panels and l1 is the same rule's integral of
    |rho fn|.  While abserr exceeds QUAD_RELTOL * max(|value|, l1), the
    panel with the largest estimate is bisected, up to MAX_PANELS panels; the
    caller judges what is left.  neval counts the calls of fn.  The first
    call builds the rules (:func:`_gauss_pair`).

    Raises :class:`DomainError` when fn, or the result, leaves the
    floating-point range.
    """
    t, w, fixed = _gauss_pair()

    def panel(a, b):
        """(-abserr, a, b, value, l1) of [a, b]: a heap entry, largest error first."""
        u, weights = fixed if (a, b) == (0.0, TRUNCATION_SIGMAS) else _panel_rule(t, w, a, b)
        try:
            f = list(map(fn, [x * s0 for x in u]))
        except OverflowError:
            raise range_error(_INTEGRAL) from None
        p = list(map(operator.mul, weights, f))
        terms = p[:GAUSS_NODES]
        # Every weight is positive, so a node value that is not finite leaves
        # a sum not finite, or makes fsum raise (inf - inf, or an overflow).
        try:
            value = math.fsum(terms)
            l1 = math.fsum(map(abs, terms))
            comparison = math.fsum(p[GAUSS_NODES:])
        except (ValueError, OverflowError):
            raise range_error(_INTEGRAL) from None
        if not (math.isfinite(value) and math.isfinite(comparison) and math.isfinite(l1)):
            raise range_error(_INTEGRAL)
        return -abs(value - comparison), a, b, value, l1

    def totals():
        neg_err, _, _, value, l1 = map(sum, zip(*panels))
        return value, -neg_err, l1

    panels = [panel(0.0, upper)]
    value, err, l1 = totals()
    while err > QUAD_RELTOL * max(abs(value), l1) and len(panels) < MAX_PANELS:
        _, a, b, _, _ = heapq.heappop(panels)
        mid = 0.5 * (a + b)
        heapq.heappush(panels, panel(a, mid))
        heapq.heappush(panels, panel(mid, b))
        value, err, l1 = totals()
    if not (math.isfinite(value) and math.isfinite(err) and math.isfinite(l1)):
        raise range_error(_INTEGRAL)
    return value, err, l1, (2 * len(panels) - 1) * (GAUSS_NODES + COMPARISON_NODES)


def _require_point(body: Body):
    if not body.is_point:
        raise BodyKindError("operation requires a point particle")


def _require_sphere(body: Body):
    if not body.is_sphere:
        raise BodyKindError("operation requires a homogeneous sphere")


_NEGATIVE_RADIUS = "radius must be non-negative"


def quantum_potential(r: float, packet: WavePacket, body: Body,
                      ctx: PhysicalContext) -> float:
    """Quantum potential of the Gaussian packet: hbar^2 (6 sigma0^2 - r^2) / (8 m sigma0^4)."""
    if r < 0.0:
        raise DomainError(_NEGATIVE_RADIUS)
    s0 = packet.sigma0
    try:
        u = ctx.hbar ** 2 * (6.0 * s0 * s0 - r * r) / (8.0 * body.mass * s0 ** 4)
        if math.isfinite(u):
            return u
    except (OverflowError, ZeroDivisionError):
        pass
    raise range_error("the quantum potential")


def quantum_force(r: float, packet: WavePacket, body: Body,
                  ctx: PhysicalContext) -> float:
    """Dispersive quantum force hbar^2 r / (4 m sigma0^4), the negative gradient
    of :func:`quantum_potential`.  Positive (outward) for r > 0."""
    if r < 0.0:
        raise DomainError(_NEGATIVE_RADIUS)
    try:
        f = ctx.hbar ** 2 * r / (4.0 * body.mass * packet.sigma0 ** 4)
        if math.isfinite(f):
            return f
    except (OverflowError, ZeroDivisionError):
        pass
    raise range_error("the quantum force")


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
        k = -ctx.G * m * m / r
    else:
        if r < 0.0:
            raise DomainError(_NEGATIVE_RADIUS)
        R = body.radius
        try:
            k = -(ctx.G * m * m / R) * (1.5 - r * r / (2.0 * R * R))
        except ZeroDivisionError:   # R * R underflowed to zero
            k = math.nan
    if not math.isfinite(k):        # products and quotients overflow without raising
        raise range_error("the classical kernel")
    return k


def qg_potential_point(r: float, packet: WavePacket, body: Body,
                       ctx: PhysicalContext) -> float:
    """Self-gravitational potential of a point particle's distribution.

    -sqrt(2/pi) (G m^2 / sigma0) (1 - exp(-r^2 / 2 sigma0^2)); zero at the
    origin, monotone decreasing, bounded below by -sqrt(2/pi) G m^2 / sigma0.
    """
    _require_point(body)
    if r < 0.0:
        raise DomainError(_NEGATIVE_RADIUS)
    s0 = packet.sigma0
    m = body.mass
    x = r / s0
    u = -SQRT_2_OVER_PI * ctx.G * m * m / s0 * (-math.expm1(-0.5 * x * x))
    if not math.isfinite(u):        # products and quotients overflow without raising
        raise range_error("the point self-gravity potential")
    return u


def qg_force_point(r: float, packet: WavePacket, body: Body,
                   ctx: PhysicalContext) -> float:
    """-sqrt(2/pi) (G m^2 / sigma0^3) r exp(-r^2 / 2 sigma0^2); always attractive."""
    _require_point(body)
    if r < 0.0:
        raise DomainError(_NEGATIVE_RADIUS)
    s0 = packet.sigma0
    m = body.mass
    try:
        f = (-SQRT_2_OVER_PI * ctx.G * m * m / s0 ** 3
             * r * math.exp(-(r * r) / (2.0 * s0 * s0)))
        if math.isfinite(f):
            return f
    except (OverflowError, ZeroDivisionError):
        pass
    raise range_error("the point self-gravity force")


def qg_potential_object(r: float, packet: WavePacket, body: Body,
                        ctx: PhysicalContext) -> float:
    """Self-gravitational potential of a homogeneous sphere's distribution.

    Closed form of the running integral of the sphere kernel against the
    Gaussian density; involves exp and erf terms in (r, sigma0, R).  Zero at
    the origin; negative throughout the attractive region r < sqrt(3) R.
    """
    _require_sphere(body)
    if r < 0.0:
        raise DomainError(_NEGATIVE_RADIUS)
    s0 = packet.sigma0
    R = body.radius
    try:
        gm2 = ctx.G * body.mass ** 2
        if r < s0:
            u = _qg_potential_object_series(r / s0, s0, R, gm2)
        else:
            x = r / s0
            g = math.exp(-0.5 * x * x)
            e = math.erf(SQRT_2 * r / (2.0 * s0))
            u = (3.0 * gm2 * SQRT_2 * g * r / (2.0 * SQRT_PI * s0 * R)
                 - gm2 * SQRT_2 * r ** 3 * g / (2.0 * SQRT_PI * s0 * R ** 3)
                 - 3.0 * gm2 * SQRT_2 * s0 * r * g / (2.0 * SQRT_PI * R ** 3)
                 - 3.0 * gm2 * e / (2.0 * R)
                 + 3.0 * gm2 * s0 * s0 * e / (2.0 * R ** 3))
        if math.isfinite(u):
            return u
    except (OverflowError, ZeroDivisionError):
        pass
    raise range_error("the sphere self-gravity potential")


def _qg_potential_object_series(u: float, s0: float, R: float, gm2: float) -> float:
    """:func:`qg_potential_object` at r = u sigma0 < sigma0, from the series
    of its two radial moments.

    U = -(G m^2 / R) (u^3 e^(-u^2/2) / sqrt(2 pi)) (1 - (u^2/5) S (sigma0^2/R^2 - 1)),
    with S = sum_n x^n / ((7/2)(9/2)...(5/2 + n)) at x = u^2/2, the series of
    the regularized incomplete gamma function P(5/2, x).  Every term of S is
    positive, so the only cancellation left is the one inherent to U near its
    zero at r ~ sqrt(5) R.  The five-term closed form cancels from terms of
    size (sigma0/R)^2 u down to u^3: against 50-digit mpmath, over 3000
    draws with R/sigma0 in 1e-4..10, it lost up to 2e13 ulp times the
    condition number below u = 0.1 and 158 below u = 1, this form at most 4.
    Above u = 1 its loss falls off (600 draws per band: 43 in 1..1.25, 13
    in 1.25..1.6, 6 in 1.6..1.8, against this form's 4 to 6), and the two
    cross between u = 1.6 and 2.  The switch stays at u = 1, where the loss
    is down to tens of ulp, because this form costs about 1 us more per
    call (2.5 against 1.6 us) and a gravity-object trajectory evaluates U
    once per step.
    """
    x = 0.5 * u * u
    term = total = 1.0
    k = 3.5
    while term > 1e-17 * total:     # x < 1/2: at most 17 terms
        term *= x / k
        total += term
        k += 1.0
    return (-gm2 / R * u ** 3 * math.exp(-x) / SQRT_2PI
            * (1.0 - 0.2 * u * u * total * ((s0 / R) ** 2 - 1.0)))


def qg_force_object(r: float, packet: WavePacket, body: Body,
                    ctx: PhysicalContext) -> float:
    """Negative gradient of :func:`qg_potential_object`.

    (3/2) sqrt(2/pi) (G m^2 / sigma0^3 R) r^2 exp(...) minus the r^4 term;
    the r^2 term pushes outward, the r^4 term pulls in, with the sign change
    at r = sqrt(3) R.
    """
    _require_sphere(body)
    if r < 0.0:
        raise DomainError(_NEGATIVE_RADIUS)
    s0 = packet.sigma0
    R = body.radius
    try:
        gm2 = ctx.G * body.mass ** 2
        g = math.exp(-(r * r) / (2.0 * s0 * s0))
        c = SQRT_2_OVER_PI * gm2 / (2.0 * s0 ** 3)
        f = c * g * (3.0 * r * r / R - r ** 4 / R ** 3)
        if math.isfinite(f):
            return f
    except (OverflowError, ZeroDivisionError):
        pass
    raise range_error("the sphere self-gravity force")


def qg_potential_numeric(r: float, kernel: Callable[[float], float],
                         packet: WavePacket, ctx: PhysicalContext) -> float:
    """Self-energy by quadrature of kernel * density * 4 pi r'^2 on [0, r].

    This is the oracle the closed forms are tested against.  The upper limit
    is truncated at 12 sigma0 and the integration variable is r' / sigma0, so
    the Gaussian weight is the same at every packet width; the rule is the
    Gauss-Legendre pair of :func:`_radial_quad`, bisected where it disagrees.

    Raises :class:`AccuracyError` (carrying the partial result and achieved
    error estimate) if that estimate exceeds 1e-8 * max(|value|, L1), L1
    being the integral of the integrand's magnitude, which bounds the rule's
    error where the value itself cancels to near zero; and
    :class:`DomainError` if the integrand or the result leaves the
    floating-point range.
    """
    if r < 0.0:
        raise DomainError(_NEGATIVE_RADIUS)
    s0 = packet.sigma0
    upper = min(r / s0, TRUNCATION_SIGMAS)
    if upper <= 0.0:
        return 0.0
    value, abserr, l1, _ = _radial_quad(kernel, s0, upper)
    if abserr > 1e-8 * max(abs(value), l1):
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
    """The (label, potential, force) triples applicable to this body, for
    gradient checks; the label names the force.

    Always includes the quantum pair; adds the point or sphere gravitational
    pair, and for points also the combined (quantum + gravitational) pair that
    drives the mixed-regime dynamics.  Each pair satisfies force = -dU/dr.
    """
    pairs = [("quantum-force",
              lambda r: quantum_potential(r, packet, body, ctx),
              lambda r: quantum_force(r, packet, body, ctx))]
    if body.is_point:
        pairs.append(("self-gravity-force-point",
                      lambda r: qg_well_potential_point(r, packet, body, ctx),
                      lambda r: qg_force_point(r, packet, body, ctx)))
        pairs.append(("mixed-force-point",
                      lambda r: (quantum_potential(r, packet, body, ctx)
                                 + qg_well_potential_point(r, packet, body, ctx)),
                      lambda r: (quantum_force(r, packet, body, ctx)
                                 + qg_force_point(r, packet, body, ctx))))
    else:
        pairs.append(("self-gravity-force-object",
                      lambda r: qg_potential_object(r, packet, body, ctx),
                      lambda r: qg_force_object(r, packet, body, ctx)))
    return pairs
