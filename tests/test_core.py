import math
import pickle
import re

import pytest
from scipy.integrate import quad

from gravreduce.averages import Expectation
from gravreduce.core import (Body, BodyKind, LawKind, PhysicalContext, UnitSystem, WavePacket,
                             density, width_at)
from gravreduce.dynamics import Event, EventKind, ForceLaw, Trajectory
from gravreduce.errors import BodyKindError, DomainError
from gravreduce.verify import Check

# (2 pi)^(-3/2), frozen from a 50-digit oracle.
DENSITY_AT_ORIGIN = 0.06349363593424097


def test_density_at_origin(packet):
    assert density(0.0, packet) == pytest.approx(DENSITY_AT_ORIGIN, rel=1e-14)


def test_density_monotone_decreasing(packet):
    values = [density(r, packet) for r in (0.0, 0.3, 1.0, 2.5, 6.0)]
    assert all(a > b > 0.0 for a, b in zip(values, values[1:]))


def test_density_vanishes_at_large_radius(packet):
    assert density(40.0, packet) < 1e-300


def test_density_finite_where_r_squared_and_sigma0_squared_overflow():
    # r * r / (2 sigma0^2) was inf / inf = nan; the exact density underflows to 0.
    assert density(1e200, WavePacket(1e200)) == 0.0


def test_density_rejects_negative_radius(packet):
    with pytest.raises(DomainError):
        density(-0.1, packet)


@pytest.mark.parametrize("sigma0", [1e-12, 1e-6, 1.0, 1e3, 1e6])
def test_density_normalization(sigma0):
    packet = WavePacket(sigma0)
    total, _ = quad(lambda r: density(r, packet) * 4.0 * math.pi * r * r,
                    0.0, 12.0 * sigma0, epsabs=0.0, epsrel=1e-13, limit=200)
    assert total == pytest.approx(1.0, abs=1e-10)


def test_width_at_zero_time_is_sigma0(packet, point, ctx):
    assert width_at(0.0, packet, point, ctx) == packet.sigma0


def test_width_at_unit_parameters(packet, point, ctx):
    # hbar = m = sigma0 = 1, t = 2 doubles the squared width
    assert width_at(2.0, packet, point, ctx) == pytest.approx(math.sqrt(2.0), rel=1e-15)


def test_width_doubling_time(packet, point, ctx):
    # sigma(t) = 2 sigma0 exactly at t = 2 sqrt(3) m sigma0^2 / hbar
    t = 2.0 * math.sqrt(3.0) * point.mass * packet.sigma0 ** 2 / ctx.hbar
    assert width_at(t, packet, point, ctx) == pytest.approx(2.0 * packet.sigma0, rel=1e-14)


def test_width_strictly_increasing(packet, point, ctx):
    ts = [0.0, 0.1, 0.5, 1.0, 5.0, 50.0]
    ws = [width_at(t, packet, point, ctx) for t in ts]
    assert all(b > a for a, b in zip(ws, ws[1:]))


def test_width_rejects_negative_time(packet, point, ctx):
    with pytest.raises(DomainError):
        width_at(-1.0, packet, point, ctx)


def test_contexts():
    si = PhysicalContext.si()
    assert si.unit_system is UnitSystem.SI
    assert si.hbar == pytest.approx(1.054571817e-34)
    assert si.G == pytest.approx(6.67430e-11)
    cgs = PhysicalContext.cgs()
    assert cgs.hbar == pytest.approx(1.054571817e-27)
    assert cgs.G == pytest.approx(6.67430e-8)


def test_dimensionless_context_requires_unit_constants():
    with pytest.raises(DomainError):
        PhysicalContext(hbar=2.0, G=1.0, unit_system=UnitSystem.DIMENSIONLESS)
    with pytest.raises(DomainError):
        PhysicalContext(hbar=-1.0, G=1.0, unit_system=UnitSystem.SI)


def test_dimensionless_matches_general_form_bitwise(packet, point):
    # Same code path: hbar = G = 1 carried through an SI-labeled context must
    # be bit-identical to the dimensionless context.
    general = PhysicalContext(hbar=1.0, G=1.0, unit_system=UnitSystem.SI)
    dimless = PhysicalContext.dimensionless()
    from gravreduce.averages import avg_energy_point
    from gravreduce.criticality import critical_mass_at, critical_width_force_balance_at
    assert (critical_width_force_balance_at(point.mass, general)
            == critical_width_force_balance_at(point.mass, dimless))
    assert critical_mass_at(packet.sigma0, general) == critical_mass_at(packet.sigma0, dimless)
    assert avg_energy_point(packet, point, general) == avg_energy_point(packet, point, dimless)


def test_body_validation():
    with pytest.raises(DomainError):
        Body.point(-1.0)
    with pytest.raises(DomainError):
        Body.sphere(1.0, 0.0)
    with pytest.raises(DomainError):
        Body(mass=1.0, radius=1.0)   # point with a radius
    assert Body.sphere(2.0, 0.5).is_sphere
    assert Body.point(2.0).is_point


def test_packet_validation():
    with pytest.raises(DomainError):
        WavePacket(0.0)


# ---------------------------------------------------------------- records

UNIT_CTX = PhysicalContext.dimensionless()
UNIT_LAW = ForceLaw(LawKind.GRAVITY_POINT, WavePacket(1.0), Body.point(1.0), UNIT_CTX)
# Each record type: the arguments of one record, and each validation as
# (arguments, error class, message).
RECORDS = {
    PhysicalContext: ((2.0, 3.0, UnitSystem.SI), [
        ((0.0, 1.0, UnitSystem.SI), DomainError, "hbar and G must be positive"),
        ((1.0, -1.0, UnitSystem.SI), DomainError, "hbar and G must be positive"),
        ((2.0, 1.0), DomainError, "dimensionless mode requires hbar = G = 1 exactly"),
        ((math.inf, 1.0, UnitSystem.SI), DomainError, "hbar must be finite"),
        ((1.0, math.inf, UnitSystem.SI), DomainError, "G must be finite"),
        ((-math.inf, 1.0, UnitSystem.SI), DomainError, "hbar and G must be positive")]),
    Body: ((2.0, BodyKind.HOMOGENEOUS_SPHERE, 0.5), [
        ((0.0,), DomainError, "mass must be positive"),
        ((1.0, BodyKind.HOMOGENEOUS_SPHERE), DomainError, "sphere radius must be positive"),
        ((1.0, BodyKind.HOMOGENEOUS_SPHERE, -1.0), DomainError,
         "sphere radius must be positive"),
        ((1.0, BodyKind.POINT_PARTICLE, 1.0), DomainError, "point particle takes no radius"),
        ((math.inf,), DomainError, "mass must be finite"),
        ((math.nan,), DomainError, "mass must be positive"),
        ((1.0, BodyKind.HOMOGENEOUS_SPHERE, math.inf), DomainError,
         "sphere radius must be finite")]),
    WavePacket: ((2.0,), [((math.nan,), DomainError, "sigma0 must be positive"),
                          ((-math.inf,), DomainError, "sigma0 must be positive"),
                          ((math.inf,), DomainError, "sigma0 must be finite")]),
    ForceLaw: ((LawKind.MIXED_POINT, WavePacket(2.0), Body.point(3.0), UNIT_CTX), [
        ((LawKind.GRAVITY_OBJECT, WavePacket(1.0), Body.point(1.0), UNIT_CTX), BodyKindError,
         "the gravity-object force law does not apply to a point particle"),
        ((LawKind.GRAVITY_POINT, WavePacket(1.0), Body.sphere(1.0, 1.0), UNIT_CTX),
         BodyKindError, "the gravity-point force law does not apply to a sphere"),
        ((LawKind.GRAVITY_POINT, WavePacket(1e-200), Body.point(1e200), UNIT_CTX), DomainError,
         "a constant of the force law is outside the floating-point range for these "
         "parameters")]),
    Event: ((1.5, EventKind.V_ZERO), []),
    # a run stepped whole: its tiling is its rows as a first piece, with no legs
    Trajectory: (((0.0, 1.0), (1.0, 0.5), (0.0, -0.5), (-1.0, -1.0), (), 0.0, UNIT_LAW,
                  13, 1, 0, 0, (((1.0, 0.5), (0.0, -0.5), (-1.0, -1.0)), *[((), (), ())] * 3,
                                0)), []),
    Expectation: ((1.0, 1e-12, 88), [
        ((1.0, -1e-12, 88), ValueError, "error estimate must be non-negative")]),
    Check: (("order-x", True, 0.5, 1.0, "detail"), []),
}


@pytest.mark.parametrize("cls", RECORDS, ids=[cls.__name__ for cls in RECORDS])
def test_record_contract(cls):
    # Immutable values: equal arguments give equal records with equal hashes,
    # the repr names each field, and copies and pickles rebuild an equal record.
    args, validations = RECORDS[cls]
    record, twin = cls(*args), cls(*args)
    assert record == twin and record is not twin
    assert hash(record) == hash(twin)
    assert tuple(getattr(record, name) for name in record._fields) == args
    assert re.fullmatch(rf"{cls.__name__}\(" + ", ".join(f"{name}=.*" for name in record._fields)
                        + r"\)", repr(record))
    assert pickle.loads(pickle.dumps(record)) == record
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, 0.0)
        with pytest.raises(AttributeError):
            delattr(record, name)
    # A validated record is no tuple, so namedtuple's _make and _replace,
    # which skip a subclass's constructor, cannot build one unvalidated.
    assert not (validations and isinstance(record, tuple))
    for bad, error, message in validations:
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            cls(*bad)

