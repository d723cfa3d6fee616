"""Critical widths and masses for the quantum-to-classical transition, and
reduction-time estimators.

Two independent routes give the transition scale: balancing the averaged
quantum force against the averaged self-gravitational force, and minimizing
the mean stationary energy over the packet width.  Both are implemented with
their exact unit constants.  The literature's forms, which drop the O(1)
constants (Karolyhazy's and Diosi's widths), live in ``reference_formulas``
alone, for order-of-magnitude comparisons.

Reduction-time estimators are closed forms of four flavors: the gravity-point
law's exact quarter period with its unit-constant approximation, the short-time
objective formula, and uncertainty-based estimates from the self-energy spread.

Only the closed forms load with this module, so that ``critical``, ``tau`` and
``sweep`` compile nothing else of the package: the one function that
evaluates ``minimize`` imports it when called.
"""

from __future__ import annotations

import math
from enum import Enum

from .core import SQRT_2_OVER_PI, Body, PhysicalContext, closed_form, in_float_range
from .errors import BodyKindError, DomainError

# Tie band around the critical mass: exact equality is measure zero, so the
# transition label applies within a narrow relative band.
TIE_BAND = 1e-6

# Exact unit constants of the transition widths, from the closed-form roots.
FORCE_BALANCE_POINT_CONST = math.sqrt(math.pi / 2.0)
CRITICAL_MASS_CONST = (math.pi / 2.0) ** (1.0 / 6.0)
ENERGY_MIN_POINT_CONST = 3.0 * math.sqrt(math.pi) / (2.0 * (2.0 * math.sqrt(2.0) - 1.0))
ENERGY_MIN_OBJECT_CONST = (3.0 / (8.0 * (0.75 - 1.0 / math.pi))) ** 0.25
FORCE_BALANCE_MACRO_CONST = (8.0 * math.sqrt(2.0) / 15.0) ** 0.25
FORCE_BALANCE_MICRO_CONST = math.sqrt(4.0 * math.sqrt(2.0) / 9.0)

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


class Regime(str, Enum):
    GRAVITY_DOMINANT = "gravity-dominant"
    TRANSITION = "transition"
    QUANTUM_DOMINANT = "quantum-dominant"


# The route that defines a body's critical width, ``critical``'s ``method``:
# force balance for a point particle, energy minimization for a sphere.
class CriticalMethod(str, Enum):
    FORCE_BALANCE = "force-balance"
    ENERGY_MINIMIZATION = "energy-minimization"


# Each closed form below has one entry point, its ``*_at`` function: it takes
# the bare parameters (mass, sigma0, radius) as floats or ``grid.Grid``
# values, checked by the caller, and is written with operators alone inside
# ``core.closed_form``, so it runs on Python float arithmetic either way; a
# result over grids has the broadcast shape of the parameters it depends on,
# and each of its elements the bits of the float result.  Only the numeric
# route, the energy minimization with its closed-form oracle, takes ``Body``
# records.

REGIMES = tuple(Regime)     # regime_index() indexes into this


def _scale(mass, ctx: PhysicalContext):
    """hbar^2 / (G m^3), the elementary-particle transition width."""
    return ctx.hbar ** 2 / (ctx.G * mass ** 3)


def critical_mass_at(sigma0, ctx: PhysicalContext):
    """(pi/2)^(1/6) (hbar^2 / G sigma0)^(1/3), elementwise."""
    with closed_form("critical mass", sigma0) as s0:
        return in_float_range(CRITICAL_MASS_CONST * (ctx.hbar ** 2 / (ctx.G * s0)) ** (1.0 / 3.0),
                              "critical mass")


def force_ratio_at(mass, sigma0, ctx: PhysicalContext):
    """Mean quantum force over the magnitude of the mean point self-gravity
    force: the force-balance width sqrt(pi/2) hbar^2 / (G m^3) over sigma0."""
    with closed_form("force ratio", mass, sigma0) as (m, s0):
        return in_float_range(FORCE_BALANCE_POINT_CONST * _scale(m, ctx) / s0, "force ratio")


def regime_index(mass, critical_mass):
    """Index into ``REGIMES`` of each mass against its critical mass.

    Gravity dominates above the critical mass and quantum dispersion below
    it; a relative tie band of ``TIE_BAND`` around it maps to the transition.
    The sum of two bools is an int.
    """
    with closed_form("regime", mass, critical_mass) as (m, m_c):
        return (m <= m_c * (1.0 + TIE_BAND)) + (m < m_c * (1.0 - TIE_BAND))


def critical_width_force_balance_at(mass, ctx: PhysicalContext, radius=None):
    """Force-balance transition width: the point law sqrt(pi/2) hbar^2 / (G m^3)
    without a radius, and with one the sphere's narrow-packet (sigma0 << R)
    law (8 sqrt2 / 15)^(1/4) (hbar^2 R^3 / G m^3)^(1/4)."""
    if radius is not None:
        with closed_form("macro transition width", mass, radius) as (m, R):
            return in_float_range(FORCE_BALANCE_MACRO_CONST * (_scale(m, ctx) * R ** 3) ** 0.25,
                                  "macro transition width")
    with closed_form("force-balance critical width", mass) as m:
        return in_float_range(FORCE_BALANCE_POINT_CONST * _scale(m, ctx),
                              "force-balance critical width")


def micro_transition_width_at(mass, radius, ctx: PhysicalContext):
    """Force-balance width of a sphere's wide packet (sigma0 >> R):
    (4 sqrt2 / 9)^(1/2) (hbar^2 R / G m^3)^(1/2)."""
    with closed_form("micro transition width", mass, radius) as (m, R):
        return in_float_range(FORCE_BALANCE_MICRO_CONST * (_scale(m, ctx) * R) ** 0.5,
                              "micro transition width")


def critical_width_energy_min_at(mass, ctx: PhysicalContext, radius=None):
    """Closed-form minimizer of the mean energy, point law without a radius
    and sphere law with one (the oracle for the numeric route)."""
    what = "energy-minimum critical width"
    with closed_form(what, mass, radius) as (m, R):
        scale = _scale(m, ctx)
        if R is None:
            width = ENERGY_MIN_POINT_CONST * scale
        else:
            width = ENERGY_MIN_OBJECT_CONST * (scale * R ** 3) ** 0.25
        return in_float_range(width, what)


def report_at(mass, sigma0, ctx: PhysicalContext, radius=None) -> dict:
    """The five regime columns of ``critical`` and of a ``sweep`` row, by
    output name and evaluated in output order, so that the first one out of
    the floating-point range names the error: the critical mass, the
    force-balance and energy-minimum widths (point laws without a radius,
    sphere laws with one), the force ratio, and the regime as an index into
    ``REGIMES``."""
    m_c = critical_mass_at(sigma0, ctx)
    return {"critical_mass": m_c,
            "critical_width_force_balance": critical_width_force_balance_at(mass, ctx, radius),
            "critical_width_energy_min": critical_width_energy_min_at(mass, ctx, radius),
            "force_ratio": force_ratio_at(mass, sigma0, ctx),
            "regime": regime_index(mass, m_c)}


def _energy_derivative(body: Body, ctx: PhysicalContext):
    """d<E>/d sigma0 of the mean energy, ``averages.avg_energy_point`` or
    ``avg_qg_potential_object + avg_quantum_potential``, as a function of the
    width."""
    m = body.mass
    c2 = 3.0 * ctx.hbar ** 2 / (8.0 * m)
    if body.is_point:
        c1 = -(2.0 * math.sqrt(2.0) - 1.0) * ctx.G * m * m / (2.0 * math.sqrt(math.pi))

        def derivative(s0):
            return -c1 / s0 ** 2 - 2.0 * c2 / s0 ** 3
    else:
        a = ctx.G * m * m * (0.75 - 1.0 / math.pi) / body.radius ** 3

        def derivative(s0):
            return 2.0 * a * s0 - 2.0 * c2 / s0 ** 3

    return derivative


def critical_width_energy_min_exact(body: Body, ctx: PhysicalContext) -> float:
    """Closed-form minimizer of the mean energy (the oracle for the numeric route)."""
    return critical_width_energy_min_at(body.mass, ctx, body.radius)


def critical_width_energy_min(body: Body, ctx: PhysicalContext) -> float:
    """Minimize the mean energy over the packet width by bisection on the sign
    of its analytic derivative (:func:`minimize.minimize_bracketed`).

    The result is within one float of the derivative's sign change; the
    bracket spans a factor of ten either side of the closed-form minimizer.
    A bracket end or a derivative that leaves the floating-point range raises
    :class:`DomainError`.
    """
    guess = critical_width_energy_min_exact(body, ctx)
    from .minimize import minimize_bracketed

    what = "the energy minimization's bracket"
    lo, hi = (in_float_range(f * guess, what) for f in (0.1, 10.0))
    with closed_form("the mean energy's derivative"):
        return minimize_bracketed(_energy_derivative(body, ctx), lo, hi)


# The sphere's reference widths, scale^p R^q with scale = hbar^2 / (G m^3).
_OBJECT_REFERENCE_POWERS = (("karolyhazy_object_width", 1.0 / 3.0, 2.0 / 3.0),
                            ("diosi_macro_width", 0.25, 0.75),
                            ("diosi_micro_width", 0.5, 0.5))


def _reference(what: str, formula, *params):
    """``formula(*params)`` in a closed-form scope, or ``None`` (absent) where
    it leaves the floating-point range or a parameter is absent."""
    if any(p is None for p in params):
        return None
    try:
        with closed_form(what, *params) as args:     # one parameter comes bare
            return in_float_range(formula(*(args if len(params) > 1 else (args,))), what)
    except DomainError:
        return None


def reference_formulas(mass, ctx: PhysicalContext, radius=None) -> dict:
    """Literature reference widths and times (unit constants dropped).

    Point particles (no radius) get the elementary-particle width
    hbar^2 / (G m^3) and the associated localization time m sigma_c^2 / hbar;
    spheres additionally get the three object widths built from R.  They are
    for order-of-magnitude comparison only, so a value outside the
    floating-point range is ``None``, absent, rather than an error, and so is
    every value built from an absent width; the keys are the same either way.
    """
    scale = _reference("karolyhazy width", lambda m: _scale(m, ctx), mass)
    out = {"karolyhazy_width": scale,
           "karolyhazy_time": _reference("karolyhazy time", lambda m, s: m * s ** 2 / ctx.hbar,
                                         mass, scale)}
    if radius is not None:
        for name, p, q in _OBJECT_REFERENCE_POWERS:
            out[name] = _reference(name.replace("_", " "), lambda s, R: s ** p * R ** q,
                                   scale, radius)
    return out


class TauMethod(str, Enum):
    QUARTER_PERIOD_NUMERIC = "quarter-period-numeric"
    PERIOD_FORMULA = "period-formula"
    SHORT_TIME = "short-time"
    UNCERTAINTY = "uncertainty"
    OBJECT_UNCERTAINTY = "object-uncertainty"
    OBJECT_MICRO = "object-micro"


POINT_CLOSED_FORMS = (TauMethod.PERIOD_FORMULA, TauMethod.SHORT_TIME, TauMethod.UNCERTAINTY)
POINT_METHODS = POINT_CLOSED_FORMS + (TauMethod.QUARTER_PERIOD_NUMERIC,)
OBJECT_CLOSED_FORMS = (TauMethod.OBJECT_UNCERTAINTY, TauMethod.OBJECT_MICRO)

# What each reduction time assumes, as ``tau`` prints it.
ASSUMPTIONS = {
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
    """Reduction time by ``method``, of floats or elementwise over grids.

    The point-particle methods take no radius, the sphere methods require
    one.  The quarter period is ``QUARTER_PERIOD_POINT`` characteristic
    times.  The object-uncertainty spread |qg_potential_object(sigma0, ...)|
    is (G m^2 / R) |ALPHA_OBJECT x^2 - BETA_OBJECT| with x = sigma0 / R,
    which cancels only near its zero x ~ 2.3035.  The object-micro spread is
    the wide-packet (sigma0 >> R) cubic self-energy
    (2 sqrt2 / 5 sqrt pi) G m^2 r^3 / (R sigma0^3) at r = sigma0.
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


def taus_at(mass, sigma0, ctx: PhysicalContext, radius=None, numeric=True) -> dict:
    """``{TauMethod: tau}`` of every reduction time that applies, in method
    order: a sphere's with a radius, a point particle's without one, the
    quarter period among these unless ``numeric`` is false."""
    if radius is not None:
        methods = OBJECT_CLOSED_FORMS
    else:
        methods = POINT_METHODS if numeric else POINT_CLOSED_FORMS
    return {method: tau_at(method, mass, sigma0, ctx, radius) for method in methods}
