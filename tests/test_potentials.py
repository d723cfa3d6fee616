import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gravreduce.core import Body, PhysicalContext, WavePacket, density, width_at
from gravreduce.criticality import TauMethod, tau_at
from gravreduce.errors import (AccuracyError, BodyKindError, DomainError,
                               GravreduceError, SingularityError)
from gravreduce.potentials import (_radial_quad, classical_kernel, qg_force_object,
                                   qg_force_point, qg_potential_numeric,
                                   qg_potential_object, qg_potential_point,
                                   quantum_force, quantum_potential)
from gravreduce.verify import _gradient_pairs, _self_energy_pairs

# Frozen from a 50-digit oracle.
SQRT_2_OVER_PI = 0.79788456080286536
U_POINT_AT_SIGMA = -0.31394311176457866       # -sqrt(2/pi) (1 - e^-1/2)
F_POINT_AT_ONE = -0.4839414490382867          # -sqrt(2/pi) e^-1/2
ASYMPT_AT_ONE = -0.31915382432114614          # -2 sqrt2 / (5 sqrt pi)
# Object self-energy at assorted (r, sigma0, R), via direct quadrature.
U_OBJECT_CASES = [
    ((2.0, 1.0, 1.0), -0.431927732105504),
    ((0.7, 1.0, 1.0), -0.107103099144799),
    ((1.0, 0.5, 2.0), -0.532780775257829),
    ((3.0, 3.0, 0.5), 3.44665235999559),
]


class TestQuantumPair:
    def test_potential_values(self, packet, point, ctx):
        assert quantum_potential(0.0, packet, point, ctx) == pytest.approx(0.75, rel=1e-15)
        assert quantum_potential(2.0, packet, point, ctx) == pytest.approx(0.25, rel=1e-15)
        root = math.sqrt(6.0) * packet.sigma0
        assert quantum_potential(root, packet, point, ctx) == pytest.approx(0.0, abs=1e-15)

    def test_force_values(self, packet, point, ctx):
        assert quantum_force(0.0, packet, point, ctx) == 0.0
        assert quantum_force(1.0, packet, point, ctx) == pytest.approx(0.25, rel=1e-15)

    def test_force_is_negative_gradient(self, packet, point, ctx):
        r, h = 0.7, 1e-6
        fd = -(quantum_potential(r + h, packet, point, ctx)
               - quantum_potential(r - h, packet, point, ctx)) / (2.0 * h)
        assert quantum_force(r, packet, point, ctx) == pytest.approx(fd, rel=1e-8)

    def test_domain_errors(self, packet, point, ctx):
        with pytest.raises(DomainError):
            quantum_potential(-1.0, packet, point, ctx)
        with pytest.raises(DomainError):
            quantum_force(-1.0, packet, point, ctx)


class TestClassicalKernel:
    def test_sphere_center(self, ctx):
        assert classical_kernel(0.0, Body.sphere(1.0, 1.0), ctx) == pytest.approx(-1.5)

    def test_sphere_surface_continuity(self, ctx):
        body = Body.sphere(2.0, 0.7)
        want = -ctx.G * body.mass ** 2 / body.radius
        assert classical_kernel(body.radius, body, ctx) == pytest.approx(want, rel=1e-14)

    def test_point_value(self, ctx, point):
        assert classical_kernel(2.0, point, ctx) == pytest.approx(-0.5, rel=1e-15)

    def test_point_singularity(self, ctx, point):
        with pytest.raises(SingularityError):
            classical_kernel(0.0, point, ctx)


class TestPointSelfGravity:
    def test_zero_at_origin(self, packet, point, ctx):
        assert qg_potential_point(0.0, packet, point, ctx) == 0.0

    def test_large_radius_limit(self, packet, point, ctx):
        got = qg_potential_point(50.0, packet, point, ctx)
        assert got == pytest.approx(-SQRT_2_OVER_PI, rel=1e-14)

    def test_value_at_sigma(self, packet, point, ctx):
        got = qg_potential_point(1.0, packet, point, ctx)
        assert got == pytest.approx(U_POINT_AT_SIGMA, rel=1e-14)

    def test_monotone_decreasing_and_bounded(self, packet, point, ctx):
        vals = [qg_potential_point(r, packet, point, ctx) for r in (0.0, 0.5, 1.0, 3.0, 10.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert all(v >= -SQRT_2_OVER_PI for v in vals)

    def test_finite_where_r_squared_and_sigma0_squared_overflow(self, packet, point, ctx):
        # r * r / (2 sigma0^2) was inf / inf = nan past r, sigma0 ~ 1e154.
        big = 1e200
        assert qg_potential_point(big, WavePacket(big), Body.point(1e-200), ctx) == 0.0
        got = qg_potential_point(big, WavePacket(big), Body.point(1e100), ctx)
        assert got == pytest.approx(qg_potential_point(1.0, packet, point, ctx), rel=1e-14)

    def test_force_values(self, packet, point, ctx):
        assert qg_force_point(0.0, packet, point, ctx) == 0.0
        assert qg_force_point(1.0, packet, point, ctx) == pytest.approx(F_POINT_AT_ONE, rel=1e-14)

    def test_force_attractive_everywhere(self, packet, point, ctx):
        assert all(qg_force_point(r, packet, point, ctx) < 0.0 for r in (0.1, 1.0, 5.0))

    def test_force_is_negative_gradient_of_well(self, packet, point, ctx):
        # The binding well is -qg_potential_point, so the force is +dU/dr.
        r, h = 1.3, 1e-6
        fd = (qg_potential_point(r + h, packet, point, ctx)
              - qg_potential_point(r - h, packet, point, ctx)) / (2.0 * h)
        assert qg_force_point(r, packet, point, ctx) == pytest.approx(fd, rel=1e-8)

    def test_kind_guard(self, packet, sphere, ctx):
        with pytest.raises(BodyKindError):
            qg_potential_point(1.0, packet, sphere, ctx)
        with pytest.raises(BodyKindError):
            qg_force_point(1.0, packet, sphere, ctx)


class TestObjectSelfGravity:
    def test_zero_at_origin(self, packet, sphere, ctx):
        assert qg_potential_object(0.0, packet, sphere, ctx) == pytest.approx(0.0, abs=1e-300)

    @pytest.mark.parametrize("args,want", U_OBJECT_CASES)
    def test_frozen_values(self, ctx, args, want):
        r, s0, R = args
        got = qg_potential_object(r, WavePacket(s0), Body.sphere(1.0, R), ctx)
        assert got == pytest.approx(want, rel=1e-12)

    def test_finite_where_sigma0_squared_underflows(self, ctx):
        # r * r / (2 sigma0^2) was 0 / 0, a ZeroDivisionError, below sigma0 ~ 1e-162.
        tiny = 1e-170
        got = qg_potential_object(tiny, WavePacket(tiny), Body.sphere(1.0, 1.0), ctx)
        assert math.isfinite(got) and got < 0.0

    def test_matches_quadrature(self, ctx):
        packet = WavePacket(1.0)
        body = Body.sphere(1.0, 1.0)
        closed = qg_potential_object(2.0, packet, body, ctx)
        numeric = qg_potential_numeric(
            2.0, lambda rp: classical_kernel(rp, body, ctx), packet, ctx)
        assert closed == pytest.approx(numeric, rel=1e-9)

    def test_large_radius_equals_full_space_integral(self, ctx):
        packet = WavePacket(1.0)
        body = Body.sphere(1.0, 2.0)
        closed = qg_potential_object(30.0, packet, body, ctx)
        numeric = qg_potential_numeric(
            math.inf, lambda rp: classical_kernel(rp, body, ctx), packet, ctx)
        assert closed == pytest.approx(numeric, rel=1e-10)

    def test_force_zero_at_origin(self, packet, sphere, ctx):
        assert qg_force_object(0.0, packet, sphere, ctx) == 0.0

    def test_force_is_negative_gradient(self, ctx):
        packet = WavePacket(1.0)
        body = Body.sphere(1.0, 1.0)
        r, h = 0.9, 1e-6
        fd = -(qg_potential_object(r + h, packet, body, ctx)
               - qg_potential_object(r - h, packet, body, ctx)) / (2.0 * h)
        assert qg_force_object(r, packet, body, ctx) == pytest.approx(fd, rel=1e-8)

    @pytest.mark.parametrize("sigma0", [0.5, 1.0, 2.0])
    def test_force_sign_change_at_sqrt3_R(self, ctx, sigma0):
        packet = WavePacket(sigma0)
        body = Body.sphere(1.0, 1.0)
        root = math.sqrt(3.0) * body.radius
        below = qg_force_object(root * 0.999, packet, body, ctx)
        above = qg_force_object(root * 1.001, packet, body, ctx)
        assert below > 0.0 > above
        assert qg_force_object(root, packet, body, ctx) == pytest.approx(0.0, abs=1e-12)

    def test_kind_guard(self, packet, point, ctx):
        with pytest.raises(BodyKindError):
            qg_potential_object(1.0, packet, point, ctx)

    def test_nonpositive_in_attractive_region_when_narrow(self, ctx):
        # sigma0 <= R: the self-energy stays non-positive at all radii.
        packet = WavePacket(0.5)
        body = Body.sphere(1.0, 1.0)
        for r in np.linspace(0.0, 8.0, 50):
            assert qg_potential_object(float(r), packet, body, ctx) <= 1e-15


class TestWidePacketCubic:
    # The object-micro reduction time is hbar over the wide-packet (sigma0 >> R)
    # cubic self-energy (2 sqrt2 / 5 sqrt pi) G m^2 r^3 / (R sigma0^3) at
    # r = sigma0, so the cubic at r is (hbar / tau_micro) (r / sigma0)^3.
    def test_unit_value(self, ctx):
        spread = ctx.hbar / tau_at(TauMethod.OBJECT_MICRO, 1.0, 1.0, ctx, 1.0)
        assert -spread == pytest.approx(ASYMPT_AT_ONE, rel=1e-14)

    @pytest.mark.parametrize("ratio,tol", [(10.0, 0.01), (100.0, 1e-4)])
    def test_matches_exact_at_anchor_radius(self, ctx, ratio, tol):
        # The cubic is anchored at r = R; agreement there tightens as
        # (R/sigma0)^2.  Away from r = R it is order-of-magnitude only.
        body = Body.sphere(1.0, 1.0)
        packet = WavePacket(ratio)
        exact = qg_potential_object(body.radius, packet, body, ctx)
        spread = ctx.hbar / tau_at(TauMethod.OBJECT_MICRO, body.mass, ratio, ctx, body.radius)
        assert spread * (body.radius / ratio) ** 3 == pytest.approx(-exact, rel=tol)


class TestNumericOracle:
    def test_point_kernel_at_sigma(self, packet, point, ctx):
        got = qg_potential_numeric(
            1.0, lambda rp: classical_kernel(rp, point, ctx), packet, ctx)
        assert got == pytest.approx(U_POINT_AT_SIGMA, abs=1e-9)

    def test_zero_range(self, packet, sphere, ctx):
        got = qg_potential_numeric(
            0.0, lambda rp: classical_kernel(rp, sphere, ctx), packet, ctx)
        assert got == 0.0

    def test_near_a_zero_of_the_self_energy_converges_to_its_l1_scale(self, packet, ctx):
        # 1e-9 relative from the sphere self-energy's sign change the value
        # is 1.6e-9 while the integrand's L1 scale is 0.35; the rule's error
        # is judged against the larger of the two, as expect judges it.
        sphere = Body.sphere(1.0, 0.5)
        r = 1.165330291911023
        kernel = lambda rp: classical_kernel(rp, sphere, ctx)
        _, _, l1, _ = _radial_quad(kernel, packet.sigma0, r / packet.sigma0)
        got = qg_potential_numeric(r, kernel, packet, ctx)
        assert abs(got) < 1e-8 * l1
        assert abs(got - qg_potential_object(r, packet, sphere, ctx)) <= 1e-12 * l1

    def test_nonconvergence_raises_accuracy_error(self, packet, ctx):
        # A wildly oscillatory kernel defeats the fixed refinement budget.
        kernel = lambda rp: math.sin(1e9 * rp) / (rp + 1e-12) ** 2
        with pytest.raises(AccuracyError) as err:
            qg_potential_numeric(5.0, kernel, packet, ctx)
        assert err.value.error_estimate is not None


class TestGradientAndOracleSweeps:
    def test_gradient_consistency_random_sweep(self, ctx):
        rng = np.random.default_rng(7)
        for _ in range(100):
            m = 10.0 ** rng.uniform(-3, 3)
            s0 = 10.0 ** rng.uniform(-3, 3)
            R = 10.0 ** rng.uniform(-3, 3)
            packet = WavePacket(s0)
            body = Body.sphere(m, R) if rng.random() < 0.5 else Body.point(m)
            r = float(rng.uniform(0.05, 3.0)) * s0
            h = 1e-6 * s0
            for _, pot, force in _gradient_pairs(packet, body, ctx):
                fd = -(pot(r + h) - pot(r - h)) / (2.0 * h)
                f = force(r)
                assert f == pytest.approx(fd, rel=1e-6, abs=1e-6 * max(abs(f), abs(fd), 1e-30))

    def test_closed_forms_match_numeric_oracle(self, ctx):
        rng = np.random.default_rng(11)
        for _ in range(50):
            m = 10.0 ** rng.uniform(-2, 2)
            s0 = 10.0 ** rng.uniform(-2, 2)
            R = 10.0 ** rng.uniform(-2, 2)
            r = float(rng.uniform(0.05, 4.0)) * s0
            for kind, closed, numeric in _self_energy_pairs(r, WavePacket(s0), m, R, ctx):
                assert closed == pytest.approx(numeric, rel=1e-9), kind

    def test_sphere_self_energy_below_sigma0_holds_to_its_l1_scale(self, ctx):
        # For r, R << sigma0 the five terms of the closed form are about
        # (sigma0/R)^2 u in size and cancel to about u^3; the moment series
        # used below r = sigma0 keeps the error at the rounding of |U|'s
        # parts, which the L1 scale of the integrand bounds.
        rng = np.random.default_rng(505)
        for _ in range(200):
            m = 10.0 ** rng.uniform(-2, 2)
            s0 = 10.0 ** rng.uniform(-2, 2)
            R = s0 * 10.0 ** rng.uniform(-4, 1)
            u = 10.0 ** rng.uniform(-3, 0)
            packet, sphere = WavePacket(s0), Body.sphere(m, R)
            closed = qg_potential_object(u * s0, packet, sphere, ctx)
            numeric, _, l1, _ = _radial_quad(
                lambda rp: classical_kernel(rp, sphere, ctx), s0, u)
            assert abs(closed - numeric) <= 1e-13 * l1, (m, s0, R, u)

    def test_opposing_forces(self, packet, point, ctx):
        # dispersion pushes out, self-gravity pulls in
        for r in (0.2, 1.0, 2.5):
            assert quantum_force(r, packet, point, ctx) > 0.0
            assert qg_force_point(r, packet, point, ctx) < 0.0


# ---------------------------------------------------------------- the float range

CONTEXTS = (PhysicalContext.dimensionless(), PhysicalContext.si(), PhysicalContext.cgs())
log_uniform = st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e)


def scalar_entry_points(packet, point, sphere, ctx):
    """The closed forms of ``potentials``, the density and the packet width, as
    functions of r (the time, for the width)."""
    return {
        "density": lambda r: density(r, packet),
        "quantum_potential": lambda r: quantum_potential(r, packet, point, ctx),
        "quantum_force": lambda r: quantum_force(r, packet, point, ctx),
        "classical_kernel point": lambda r: classical_kernel(r, point, ctx),
        "classical_kernel sphere": lambda r: classical_kernel(r, sphere, ctx),
        "qg_potential_point": lambda r: qg_potential_point(r, packet, point, ctx),
        "qg_force_point": lambda r: qg_force_point(r, packet, point, ctx),
        "qg_potential_object": lambda r: qg_potential_object(r, packet, sphere, ctx),
        "qg_force_object": lambda r: qg_force_object(r, packet, sphere, ctx),
        "width_at": lambda r: width_at(r, packet, point, ctx),
    }


@pytest.mark.parametrize("number", [float, np.float64])
@settings(max_examples=400, deadline=None, derandomize=True)
@given(m=log_uniform, s0=log_uniform, R=log_uniform, r=log_uniform,
       u=st.floats(-3.0, 1.0).map(lambda e: 10.0 ** e), ctx=st.sampled_from(CONTEXTS))
def test_scalar_entry_points_return_a_finite_float_or_a_gravreduce_error(number, m, s0, R, r,
                                                                         u, ctx):
    # Radii independent of sigma0, and near it (u sigma0), where each closed
    # form has its Gaussian weight.  Negative controls: qg_force_point at
    # m = sigma0 = 1e200 raised a raw OverflowError, and returned inf or nan
    # where G m^2 overflowed; with numpy scalars for m, sigma0 and R it
    # warned until the packet and the body stored Python floats.
    packet = WavePacket(number(s0))
    entry_points = scalar_entry_points(packet, Body.point(number(m)),
                                       Body.sphere(number(m), number(R)), ctx)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for name, fn in entry_points.items():
            for radius in (r, u * packet.sigma0):
                try:
                    value = fn(radius)
                except GravreduceError:
                    continue
                assert type(value) is float and math.isfinite(value), (name, radius, value)


@pytest.mark.parametrize("call", [
    lambda ctx: qg_force_point(1e200, WavePacket(1e200), Body.point(1e-200), ctx),
    lambda ctx: qg_potential_object(1e200, WavePacket(1e200), Body.sphere(1e-200, 1.0), ctx),
    lambda ctx: qg_force_point(1e-170, WavePacket(1e-170), Body.point(1.0), ctx),
    lambda ctx: qg_force_object(1e-170, WavePacket(1e-170), Body.sphere(1.0, 1.0), ctx),
    lambda ctx: density(1e-170, WavePacket(1e-170)),
    lambda ctx: qg_force_point(1.0, WavePacket(1.0), Body.point(1e200), ctx),   # G m^2 = inf
    lambda ctx: width_at(1e200, WavePacket(1.0), Body.point(1.0), ctx),         # x^2 = inf
    lambda ctx: quantum_potential(1.0, WavePacket(1e-110), Body.point(1.0), ctx),  # sigma0^4 = 0
    lambda ctx: quantum_force(1.0, WavePacket(1e110), Body.point(1.0), ctx),  # sigma0^4 overflows
    # numpy scalars: numpy arithmetic warned where Python's raises
    lambda ctx: density(1e-170, WavePacket(np.float64(1e-170))),
    lambda ctx: qg_force_object(1e-170, WavePacket(1.0), Body.sphere(1.0, np.float64(1e-120)),
                                ctx),
])
def test_raw_float_errors_are_domain_errors(call, ctx):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(DomainError,
                           match="is outside the floating-point range for these parameters"):
            call(ctx)
