import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gravreduce.averages import (Expectation, avg_energy_point, avg_qg_force_object,
                                 avg_qg_force_point, avg_qg_potential_object,
                                 avg_qg_potential_point, avg_quantum_force,
                                 avg_quantum_potential, expect)
from gravreduce.core import Body, PhysicalContext, WavePacket
from gravreduce.errors import BodyKindError, DomainError, GravreduceError
from gravreduce.potentials import (qg_force_object, qg_force_point,
                                   qg_potential_object, qg_potential_point,
                                   quantum_force, quantum_potential)

# Frozen from a 50-digit oracle.
AVG_QUANTUM_FORCE = 0.39894228040143268          # (1/2) sqrt(2/pi)
GAUSS_MOMENT = 0.35355339059327376               # <exp(-r^2/2 s^2)> = 1/(2 sqrt2)
AVG_QG_FORCE_POINT = -0.31830988618379067        # -1/pi
AVG_QG_POTENTIAL_POINT = -0.51578976902898721    # -(2 sqrt2 - 1)/(2 sqrt pi)
AVG_ENERGY_POINT = -0.14078976902898721
# Exact object force average at assorted (sigma0, R), via direct quadrature.
OBJECT_FORCE_AVG_CASES = [
    ((1.0, 1.0), 0.105785546915204),
    ((0.01, 1.0), 63.4660388717768),
    ((100.0, 1.0), -52.8864263247872),
    ((10.0, 1.0), -5.22580601761109),
]


def sphere_energy(packet, body, ctx):
    """The sphere's stationary-packet mean energy, gravitational plus quantum."""
    return avg_qg_potential_object(packet, body, ctx) + avg_quantum_potential(packet, body, ctx)


class TestExpectationEngine:
    def test_normalization(self, packet, ctx):
        got = expect(lambda r: 1.0, packet, ctx)
        assert got.value == pytest.approx(1.0, abs=1e-10)
        assert got.abs_error_estimate >= 0.0
        assert got.neval > 0

    def test_quantum_force_average(self, packet, point, ctx):
        got = expect(lambda r: quantum_force(r, packet, point, ctx), packet, ctx)
        assert got.value == pytest.approx(AVG_QUANTUM_FORCE, abs=1e-9)

    def test_gaussian_moment(self, ctx):
        packet = WavePacket(2.0)
        got = expect(lambda r: math.exp(-r * r / (2.0 * packet.sigma0 ** 2)), packet, ctx)
        assert got.value == pytest.approx(GAUSS_MOMENT, rel=1e-10)

    def test_linearity(self, packet, point, ctx):
        f = lambda r: quantum_force(r, packet, point, ctx)
        g = lambda r: qg_force_point(r, packet, point, ctx)
        combo = expect(lambda r: 2.5 * f(r) - 0.75 * g(r), packet, ctx).value
        parts = 2.5 * expect(f, packet, ctx).value - 0.75 * expect(g, packet, ctx).value
        assert combo == pytest.approx(parts, rel=1e-10)

    def test_error_estimate_validation(self):
        with pytest.raises(ValueError):
            Expectation(value=1.0, abs_error_estimate=-1.0, neval=1)


class TestPointClosedForms:
    def test_values(self, packet, point, ctx):
        assert avg_quantum_force(packet, point, ctx) == pytest.approx(AVG_QUANTUM_FORCE, rel=1e-14)
        assert avg_qg_force_point(packet, point, ctx) == pytest.approx(AVG_QG_FORCE_POINT, rel=1e-14)
        assert avg_quantum_potential(packet, point, ctx) == pytest.approx(0.375, rel=1e-15)
        assert avg_qg_potential_point(packet, point, ctx) == pytest.approx(
            AVG_QG_POTENTIAL_POINT, rel=1e-14)
        assert avg_energy_point(packet, point, ctx) == pytest.approx(AVG_ENERGY_POINT, rel=1e-14)

    def test_scaling_laws(self, ctx, point):
        one = avg_quantum_force(WavePacket(1.0), point, ctx)
        assert avg_quantum_force(WavePacket(2.0), point, ctx) == pytest.approx(one / 8.0, rel=1e-14)
        heavy = Body.point(2.0)
        assert avg_qg_force_point(WavePacket(1.0), heavy, ctx) == pytest.approx(
            4.0 * avg_qg_force_point(WavePacket(1.0), Body.point(1.0), ctx), rel=1e-14)

    def test_avg_quantum_potential_limit(self, ctx, point):
        assert avg_quantum_potential(WavePacket(1e8), point, ctx) < 1e-15

    def test_energy_term_dominance(self, ctx, point):
        assert avg_energy_point(WavePacket(1e-3), point, ctx) > 0.0      # quantum wins
        large = avg_energy_point(WavePacket(1e3), point, ctx)
        assert -1e-3 < large < 0.0                                       # gravity tail

    def test_kind_guards(self, packet, sphere, ctx):
        with pytest.raises(BodyKindError):
            avg_qg_force_point(packet, sphere, ctx)
        with pytest.raises(BodyKindError):
            avg_qg_potential_point(packet, sphere, ctx)


class TestObjectClosedForms:
    def test_unit_values(self, packet, sphere, ctx, sphere_force_terms):
        assert avg_qg_potential_object(packet, sphere, ctx) == pytest.approx(
            -1.0 / math.pi, rel=1e-14)
        assert sphere_energy(packet, sphere, ctx) == pytest.approx(
            0.375 - 1.0 / math.pi, rel=1e-13)
        wide, narrow = sphere_force_terms(packet, sphere, ctx)
        assert avg_qg_force_object(packet, sphere, ctx) == pytest.approx(wide - narrow,
                                                                         rel=1e-14)

    def test_force_is_the_difference_of_its_two_terms(self, ctx, sphere_force_terms):
        # within 8 eps of the terms' size; measured worst over 2e4 draws: 2.6
        rng = np.random.default_rng(41)
        for m, s0, R in 10.0 ** rng.uniform(-3, 3, size=(300, 3)):
            packet, body = WavePacket(s0), Body.sphere(m, R)
            first, second = sphere_force_terms(packet, body, ctx)
            got = avg_qg_force_object(packet, body, ctx)
            assert abs(got - (first - second)) <= 8 * sys.float_info.epsilon * (first + second)

    def test_narrow_packet_potential_limit(self, ctx):
        body = Body.sphere(1.0, 2.0)
        got = avg_qg_potential_object(WavePacket(1e-6), body, ctx)
        assert got == pytest.approx(-3.0 / (4.0 * body.radius), rel=1e-9)

    def test_energy_convexity_in_width(self, ctx, sphere):
        # second difference positive across a wide range of widths
        for s0 in (0.2, 0.5, 1.0, 2.0, 5.0):
            h = 1e-4 * s0
            e = lambda s: sphere_energy(WavePacket(s), sphere, ctx)
            second = (e(s0 + h) - 2.0 * e(s0) + e(s0 - h)) / (h * h)
            assert second > 0.0

    def test_object_energy_minimizer_relation(self, ctx):
        body = Body.sphere(1.3, 0.8)
        s4 = 3.0 * ctx.hbar ** 2 * body.radius ** 3 / (
            8.0 * ctx.G * body.mass ** 3 * (0.75 - 1.0 / math.pi))
        s_star = s4 ** 0.25
        h = 1e-6 * s_star
        e = lambda s: sphere_energy(WavePacket(s), body, ctx)
        slope = (e(s_star + h) - e(s_star - h)) / (2.0 * h)
        assert abs(slope) < 1e-9

    @pytest.mark.parametrize("args,want", OBJECT_FORCE_AVG_CASES)
    def test_exact_object_force_average(self, ctx, args, want):
        s0, R = args
        got = avg_qg_force_object(WavePacket(s0), Body.sphere(1.0, R), ctx)
        assert got == pytest.approx(want, rel=1e-12)

    def test_kind_guards(self, packet, point, ctx):
        for fn in (avg_qg_potential_object, avg_qg_force_object):
            with pytest.raises(BodyKindError):
                fn(packet, point, ctx)


class TestQuadratureAgreement:
    """Every closed form against the expectation engine, random parameters."""

    def test_all_closed_forms(self, ctx):
        rng = np.random.default_rng(23)
        for _ in range(20):
            m = 10.0 ** rng.uniform(-3, 3)
            s0 = 10.0 ** rng.uniform(-3, 3)
            R = 10.0 ** rng.uniform(-3, 3)
            packet = WavePacket(s0)
            point = Body.point(m)
            sphere = Body.sphere(m, R)
            cases = [
                (avg_quantum_force(packet, point, ctx),
                 lambda r: quantum_force(r, packet, point, ctx)),
                (avg_qg_force_point(packet, point, ctx),
                 lambda r: qg_force_point(r, packet, point, ctx)),
                (avg_quantum_potential(packet, point, ctx),
                 lambda r: quantum_potential(r, packet, point, ctx)),
                (avg_qg_potential_point(packet, point, ctx),
                 lambda r: qg_potential_point(r, packet, point, ctx)),
                (avg_qg_potential_object(packet, sphere, ctx),
                 lambda r: qg_potential_object(r, packet, sphere, ctx)),
                (avg_qg_force_object(packet, sphere, ctx),
                 lambda r: qg_force_object(r, packet, sphere, ctx)),
            ]
            for closed, observable in cases:
                got = expect(observable, packet, ctx).value
                assert closed == pytest.approx(got, rel=1e-8)

    def test_homogeneity_under_rescaling(self, ctx):
        # exponents visible in the closed forms, probed by random rescalings
        rng = np.random.default_rng(5)
        m, s0, R = 1.7, 0.9, 1.3
        lam_m, lam_s, lam_R = (float(10.0 ** rng.uniform(-1, 1)) for _ in range(3))
        base = avg_qg_potential_object(WavePacket(s0), Body.sphere(m, R), ctx)
        scaled = avg_qg_potential_object(WavePacket(s0), Body.sphere(lam_m * m, R), ctx)
        assert scaled == pytest.approx(lam_m ** 2 * base, rel=1e-12)
        fq0 = avg_quantum_force(WavePacket(s0), Body.point(m), ctx)
        fq1 = avg_quantum_force(WavePacket(lam_s * s0), Body.point(m), ctx)
        assert fq1 == pytest.approx(fq0 / lam_s ** 3, rel=1e-12)
        # both terms of the sphere force go as 1/length^2
        fo0 = avg_qg_force_object(WavePacket(s0), Body.sphere(m, R), ctx)
        fo1 = avg_qg_force_object(WavePacket(lam_R * s0), Body.sphere(m, lam_R * R), ctx)
        assert fo1 == pytest.approx(fo0 / lam_R ** 2, rel=1e-12)


class TestAsymptoticRegimes:
    """The two terms of the exact object force average are its limits.

    The narrow-packet (sigma0 << R) average approaches its first term,
    9 G m^2/(8 sqrt(pi) sigma0 R), and the wide-packet (sigma0 >> R) average
    its second, the sigma0 / R^3 form, in magnitude, with agreement improving
    by two decades of accuracy per decade of scale separation.
    """

    @pytest.mark.parametrize("widths,term", [((0.1, 0.01), 0), ((10.0, 100.0), 1)],
                             ids=["narrow", "wide"])
    def test_packet_limit(self, ctx, sphere_force_terms, widths, term):
        body = Body.sphere(1.0, 1.0)
        devs = []
        for s0 in widths:
            exact = abs(avg_qg_force_object(WavePacket(s0), body, ctx))
            limit = sphere_force_terms(WavePacket(s0), body, ctx)[term]
            devs.append(abs(exact - limit) / limit)
        assert devs[0] < 0.05
        assert devs[1] < devs[0] / 10.0

    def test_intermediate_order_of_magnitude(self, packet, sphere, ctx):
        # At sigma0 = R the exact average is small by cancellation; the
        # G m^2 / R^2 order estimate sits within one power of ten of it.
        exact = abs(avg_qg_force_object(packet, sphere, ctx))
        order = ctx.G * sphere.mass ** 2 / sphere.radius ** 2
        assert 1.0 < order / exact < 10.0


# ---------------------------------------------------------------- the float range

CONTEXTS = (PhysicalContext.dimensionless(), PhysicalContext.si(), PhysicalContext.cgs())
log_uniform = st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e)
POINT_AVERAGES = (avg_quantum_force, avg_qg_force_point, avg_quantum_potential,
                  avg_qg_potential_point, avg_energy_point)
SPHERE_AVERAGES = (avg_qg_potential_object, avg_qg_force_object)


@pytest.mark.parametrize("number", [float, np.float64])
@settings(max_examples=400, deadline=None, derandomize=True)
@given(m=log_uniform, s0=log_uniform, R=log_uniform, ctx=st.sampled_from(CONTEXTS))
def test_averages_return_a_finite_float_or_a_gravreduce_error(number, m, s0, R, ctx):
    # Negative control: before the averages mapped their arithmetic, this
    # failed, and each case of the next test raised ZeroDivisionError or
    # OverflowError or returned an infinity; with numpy scalars it warned
    # until the packet and the body stored Python floats.
    m, s0, R = number(m), number(s0), number(R)
    packet = WavePacket(s0)
    calls = ([(fn, Body.point(m)) for fn in POINT_AVERAGES]
             + [(fn, Body.sphere(m, R)) for fn in SPHERE_AVERAGES])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for fn, body in calls:
            try:
                value = fn(packet, body, ctx)
            except GravreduceError:
                continue
            assert type(value) is float and math.isfinite(value), (fn.__name__, value)


@pytest.mark.parametrize("call", [
    lambda ctx: avg_quantum_force(WavePacket(1e-170), Body.point(1.0), ctx),      # sigma0^3 = 0
    lambda ctx: avg_qg_potential_object(WavePacket(1.0), Body.sphere(1.0, 1e-120), ctx),
    lambda ctx: avg_qg_force_object(WavePacket(1.0), Body.sphere(1e200, 1e-100), ctx),
    lambda ctx: avg_qg_potential_point(WavePacket(1e-300), Body.point(1e10), ctx),  # -inf
    # numpy scalars: numpy arithmetic warned where Python's raises
    lambda ctx: avg_quantum_force(WavePacket(np.float64(1e-170)), Body.point(1.0), ctx),
    lambda ctx: avg_qg_potential_object(WavePacket(1.0), Body.sphere(1.0, np.float64(1e-120)),
                                        ctx),
    lambda ctx: avg_qg_potential_point(WavePacket(1e-300), Body.point(np.float64(1e10)), ctx),
])
def test_raw_float_errors_are_domain_errors(call, ctx):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(DomainError,
                           match="is outside the floating-point range for these parameters"):
            call(ctx)


def test_packet_and_body_store_python_floats():
    packet, sphere = WavePacket(np.float64(2.0)), Body.sphere(np.float32(3.0), np.int64(1))
    assert type(packet.sigma0) is type(sphere.mass) is type(sphere.radius) is float
    assert Body.point(np.float64(3.0)).radius is None
