"""Physical constants, unit systems, and the domain records used everywhere else.

The math core is unit-agnostic: a :class:`PhysicalContext` simply carries the
numerical values of hbar and G in whatever system the caller chose, and every
formula multiplies the numbers it is given.  Unit conversion, if any, happens
at the CLI boundary.

The probability density is always that of a spherically symmetric Gaussian
wave packet of initial width sigma0, normalized so that the radial integral
of density * 4 pi r^2 equals one.

Records.  A record is an immutable value: its fields cannot be assigned, two
records of one type with equal fields are equal and hash alike, and its repr
names each field.  A record that validates its fields (:class:`PhysicalContext`,
:class:`Body`, :class:`WavePacket`, ``dynamics.ForceLaw`` and
``averages.Expectation``) subclasses :class:`Record`: its ``__init__``
checks and coerces the fields, then stores them in the slots named by
``_fields``, and copies and pickles are rebuilt through it.  A result record that validates nothing is a
``collections.namedtuple``.  Neither loads ``dataclasses``, which imports
``inspect``: see the ``cli`` module docstring.

Float range.  Every public function returns a finite value or raises a
``GravreduceError``; a value that leaves the double range, as the paper's
parameters can in SI and CGS units, raises :func:`range_error`.  A closed
form runs inside :func:`closed_form`, which maps ``OverflowError`` and
``ZeroDivisionError``, and checks its result with :func:`finite` (either
sign) or :func:`in_float_range` (positive).  Seven entry points of
``potentials`` run once per quadrature node and keep an inline ``try``
raising the same error, because a scope triples their cost
(``quantum_force``: 0.25 us inline, 0.75 us in a scope on Python 3.11 and a
2-CPU Xeon): ``quantum_potential``, ``quantum_force``,
``classical_kernel``, ``qg_potential_point``, ``qg_force_point``,
``qg_potential_object`` (also once per trajectory sample) and
``qg_force_object``.

Grids.  The closed forms of ``criticality`` also take ``grid.Grid`` values,
which ``sweep`` builds one per gridded variable: a list of Python floats
and the shape of the grid axes it varies along.  Their operators run the
scalar arithmetic element by element, so no command needs numpy.  Only a
grid, or a parameter that is neither a float nor ``None``, loads the
``grid`` module; only such a parameter loads ``numbers``, to refuse complex
scalars.
"""

from __future__ import annotations

import math
from enum import Enum

from .errors import DomainError, ParameterTypeError

# CODATA 2018 values.
HBAR_SI = 1.054571817e-34      # J s
G_SI = 6.67430e-11             # m^3 kg^-1 s^-2
HBAR_CGS = 1.054571817e-27     # erg s
G_CGS = 6.67430e-8             # cm^3 g^-1 s^-2

SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)

# Default relative and absolute tolerances of dynamics.integrate and of the
# CLI's simulate, which reads them without loading the integrator.
DEFAULT_RTOL = 1e-9
DEFAULT_ATOL = 1e-12


class UnitSystem(str, Enum):
    SI = "si"
    CGS = "cgs"
    DIMENSIONLESS = "dimensionless"
    # sigma0 = m = G = 1 for one packet: the units dynamics.integrate steps in
    PACKET = "packet"


class Record:
    """Base of the validated records; see the module docstring.  A subclass
    names its fields in ``_fields``, and in ``__slots__`` with any private
    attribute; its ``__init__`` stores the fields with ``_set``."""

    __slots__ = ()

    def _set(self, *values):
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):       # copy and pickle rebuild through __init__
        return type(self), self._key()


class PhysicalContext(Record):
    """Values of hbar and G plus the unit-system label they are expressed in."""

    __slots__ = _fields = ("hbar", "G", "unit_system")

    def __init__(self, hbar: float, G: float,
                 unit_system: UnitSystem = UnitSystem.DIMENSIONLESS):
        # Python floats, so that the closed forms run on Python arithmetic
        # (see closed_form) whatever number type the constants came as.
        hbar, G = float(hbar), float(G)
        if not (hbar > 0.0 and G > 0.0):
            raise DomainError("hbar and G must be positive")
        if unit_system is UnitSystem.DIMENSIONLESS:
            if hbar != 1.0 or G != 1.0:
                raise DomainError("dimensionless mode requires hbar = G = 1 exactly")
        self._set(hbar, G, unit_system)

    @classmethod
    def si(cls, hbar: float = HBAR_SI, G: float = G_SI) -> "PhysicalContext":
        return cls(hbar=hbar, G=G, unit_system=UnitSystem.SI)

    @classmethod
    def cgs(cls, hbar: float = HBAR_CGS, G: float = G_CGS) -> "PhysicalContext":
        return cls(hbar=hbar, G=G, unit_system=UnitSystem.CGS)

    @classmethod
    def dimensionless(cls) -> "PhysicalContext":
        return cls(hbar=1.0, G=1.0, unit_system=UnitSystem.DIMENSIONLESS)


class BodyKind(str, Enum):
    POINT_PARTICLE = "point"
    HOMOGENEOUS_SPHERE = "sphere"


class LawKind(str, Enum):
    """The force laws of ``dynamics.ForceLaw``."""

    GRAVITY_POINT = "gravity-point"
    MIXED_POINT = "mixed-point"
    GRAVITY_OBJECT = "gravity-object"


class Body(Record):
    """A point particle, or a homogeneous sphere of the given radius.

    The mass and a radius are stored as Python floats, as in
    :class:`PhysicalContext`, so a numpy scalar runs on Python arithmetic.
    """

    __slots__ = _fields = ("mass", "kind", "radius")

    def __init__(self, mass: float, kind: BodyKind = BodyKind.POINT_PARTICLE,
                 radius: float | None = None):
        mass = float(mass)
        if radius is not None:
            radius = float(radius)
        if not mass > 0.0:
            raise DomainError("mass must be positive")
        if kind is BodyKind.HOMOGENEOUS_SPHERE:
            if radius is None or not radius > 0.0:
                raise DomainError("sphere radius must be positive")
        elif radius is not None:
            raise DomainError("point particle takes no radius")
        self._set(mass, kind, radius)

    @classmethod
    def point(cls, mass: float) -> "Body":
        return cls(mass=mass, kind=BodyKind.POINT_PARTICLE)

    @classmethod
    def sphere(cls, mass: float, radius: float) -> "Body":
        return cls(mass=mass, kind=BodyKind.HOMOGENEOUS_SPHERE, radius=radius)

    @property
    def is_point(self) -> bool:
        return self.kind is BodyKind.POINT_PARTICLE

    @property
    def is_sphere(self) -> bool:
        return self.kind is BodyKind.HOMOGENEOUS_SPHERE


class WavePacket(Record):
    """Spherically symmetric Gaussian packet of initial width sigma0, centered at r = 0.

    sigma0 is stored as a Python float, as in :class:`PhysicalContext`.
    """

    __slots__ = _fields = ("sigma0",)

    def __init__(self, sigma0: float):
        sigma0 = float(sigma0)
        if not sigma0 > 0.0:
            raise DomainError("sigma0 must be positive")
        self._set(sigma0)


def range_error(what: str) -> DomainError:
    """The one error of a value outside the double range; see the module docstring."""
    return DomainError(f"{what} is outside the floating-point range for these parameters")


def finite(value: float, what: str) -> float:
    """``value`` itself if it is a finite float, of either sign; otherwise
    raises the :func:`range_error` naming ``what``."""
    if math.isfinite(value):
        return value
    raise range_error(what)


def in_float_range(value, what: str):
    """``value`` itself if it is a finite positive float, or a
    ``grid.Grid`` of them.

    The closed forms are positive for positive parameters, so a zero, an
    infinity or a NaN can only come from a power or quotient that left the
    double range, and a complex number from a fractional power of a negative
    parameter; either raises the :func:`range_error` naming ``what``.
    """
    if type(value) is float:
        ok = math.isfinite(value) and value > 0.0
    elif type(value) is _grid():
        values = value.values
        # sum and min scan a column in C, about four times faster than a
        # per-value pass, which runs only where the sum is not finite.
        total = sum(values)             # complex if any value is, else finite unless
        if type(total) is not float:    # a value is not, or the sum overflows
            ok = False
        elif math.isfinite(total):
            ok = min(values) > 0.0
        else:
            ok = all(0.0 < v < math.inf for v in values)
    else:
        ok = False
    if not ok:
        raise range_error(what)
    return value


def _grid():
    # Only sweep builds grids, so only its process compiles their module.
    from .grid import Grid

    return Grid


def _parameter(p, what: str):
    if type(p) is float or p is None or type(p) is _grid():
        return p
    import numbers                      # only a parameter that is not a float comes here

    # float() of a complex scalar, such as numpy's, warns and drops its imaginary part.
    complex_valued = isinstance(p, numbers.Complex) and not isinstance(p, numbers.Real)
    if hasattr(type(p), "__float__") and getattr(p, "ndim", 0) == 0 and not complex_valued:
        try:
            return float(p)
        except OverflowError:           # an int beyond the double range
            raise range_error(what) from None
    raise ParameterTypeError(f"{what} takes Python floats, numbers that float() converts "
                             f"or gravreduce.grid.Grid values, not {type(p).__name__}")


class closed_form:
    """Scope in which a closed form is evaluated on ``params``; ``with`` gives
    them ready for arithmetic, one bare and several as a tuple.

    A parameter is a Python float, a ``grid.Grid``, ``None`` (an absent
    radius) or a real scalar that ``float()`` converts, such as an ``int`` or
    a numpy float, which is given as that float.  Anything else, a numpy
    array or a complex scalar included, raises :class:`ParameterTypeError`.
    Every closed form thus runs on Python arithmetic, which raises
    ``OverflowError`` or ``ZeroDivisionError`` where numpy would return an
    infinity; either becomes the :func:`range_error` naming ``what``.  A
    product that overflows without raising is caught by checking the result
    with :func:`finite` or :func:`in_float_range` (see the module docstring).
    """

    __slots__ = ("what", "params")

    def __init__(self, what: str, *params):
        self.what = what
        for p in params:
            if type(p) is not float and p is not None:
                params = tuple([_parameter(p, what) for p in params])
                break
        self.params = params

    def __enter__(self):
        params = self.params
        return params[0] if len(params) == 1 else params

    def __exit__(self, exc_type, exc, tb):
        if exc_type is not None and issubclass(exc_type, (OverflowError, ZeroDivisionError)):
            raise range_error(self.what) from None
        return False


def density(r: float, packet: WavePacket) -> float:
    """Probability density (2 pi sigma0^2)^(-3/2) exp(-r^2 / 2 sigma0^2).

    Strictly positive and monotone decreasing in r; integrates to one
    against the radial measure 4 pi r^2 dr.
    """
    if r < 0.0:
        raise DomainError("radius must be non-negative")
    s0 = packet.sigma0
    with closed_form("the density"):
        x = r / s0
        return finite((2.0 * math.pi * s0 * s0) ** -1.5 * math.exp(-0.5 * x * x), "the density")


def width_at(t: float, packet: WavePacket, body: Body, ctx: PhysicalContext) -> float:
    """Free-spreading packet width sigma0 * sqrt(1 + hbar^2 t^2 / (4 m^2 sigma0^4)).

    Diagnostic only: the short-time treatment used by every force and average
    in this package freezes the width at sigma0.
    """
    if t < 0.0:
        raise DomainError("time must be non-negative")
    s0 = packet.sigma0
    with closed_form("the packet width"):
        x = ctx.hbar * t / (2.0 * body.mass * s0 * s0)
        return in_float_range(s0 * math.sqrt(1.0 + x * x), "the packet width")
