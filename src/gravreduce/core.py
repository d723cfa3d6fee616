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
:class:`Body`, :class:`WavePacket`, ``dynamics.ForceLaw``,
``averages.Expectation`` and ``criticality.ReductionEstimate``) subclasses
:class:`Record`: its ``__init__`` checks and coerces the fields, then stores
them in the slots named by ``_fields``, and copies and pickles are rebuilt
through it.  A result record that validates nothing is a
``collections.namedtuple``.  Neither loads ``dataclasses``, which imports
``inspect``: see the ``cli`` module docstring.

Float range.  Every public function returns a finite value or raises a
``GravreduceError``; a value that leaves the double range, as the paper's
parameters can in SI and CGS units, raises :func:`range_error`.  A closed
form runs inside :func:`closed_form`, which maps ``OverflowError`` and
``ZeroDivisionError``, and checks its result with :func:`finite` (either
sign) or :func:`in_float_range` (positive).  Seven entry points of
``potentials`` run once per quadrature node and keep an inline ``try``
raising the same error, because a scope costs ten times their arithmetic
(``quantum_force``: 0.23 us inline, 2.4 us in a scope on Python 3.11 and a
2-CPU Xeon): ``quantum_potential``, ``quantum_force``,
``classical_kernel``, ``qg_potential_point``, ``qg_force_point``,
``qg_potential_object`` (also once per trajectory sample) and
``qg_force_object``.
"""

from __future__ import annotations

import contextlib
import math
from enum import Enum

from .errors import DomainError

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
    """``value`` itself if every element is finite and positive.

    The closed forms are positive for positive parameters, so a zero, an
    infinity or a NaN can only come from a power or quotient that left the
    double range; that raises the :func:`range_error` naming ``what``.  A
    Python float is checked with :mod:`math`, an array with numpy.
    """
    if type(value) is float:
        ok = math.isfinite(value) and value > 0.0
    elif type(value) is complex:        # a fractional power of a negative parameter
        ok = False
    else:
        import numpy as np

        ok = np.all(np.isfinite(value) & (np.asarray(value) > 0.0))
    if not ok:
        raise range_error(what)
    return value


@contextlib.contextmanager
def closed_form(what: str, *params):
    """Scope in which a closed form is evaluated on ``params``; yields them
    ready for arithmetic, one bare and several as a tuple.

    Python floats (exactly ``float``; ``None``, an absent radius, passes
    through) are yielded as they are and run on Python arithmetic, which loads
    no numpy.  Anything else, numpy scalars included (``np.float64``
    subclasses ``float`` but only warns on overflow), becomes a float array
    and runs under ``np.errstate(all="ignore")``.  Python arithmetic raises
    ``OverflowError`` or ``ZeroDivisionError`` where numpy returns an
    infinity; either becomes the :func:`range_error` naming ``what``.  A
    product that overflows without raising is caught by checking the result
    with :func:`finite` or :func:`in_float_range` (see the module docstring).
    """
    if all(type(p) is float or p is None for p in params):
        values, errstate = params, contextlib.nullcontext()
    else:
        import numpy as np

        values = tuple(p if p is None else np.asarray(p, dtype=float) for p in params)
        errstate = np.errstate(all="ignore")
    try:
        with errstate:
            yield values[0] if len(values) == 1 else values
    except (OverflowError, ZeroDivisionError):
        raise range_error(what) from None


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
