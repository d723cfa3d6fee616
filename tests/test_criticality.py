import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gravreduce.averages import (avg_energy_point, avg_qg_force_point,
                                 avg_qg_potential_object, avg_qg_potential_point,
                                 avg_quantum_force, avg_quantum_potential, expect)
from gravreduce.core import Body, LawKind, PhysicalContext, WavePacket
from gravreduce.criticality import (REGIMES, Regime, _energy_derivative, critical_mass_at,
                                    critical_width_energy_min,
                                    critical_width_energy_min_exact,
                                    critical_width_force_balance_at, force_ratio_at,
                                    micro_transition_width_at, reference_formulas, report_at)
from gravreduce.dynamics import ForceLaw
from gravreduce.errors import BracketError, DomainError, GravreduceError
from gravreduce.minimize import minimize_bracketed

# Frozen from a 50-digit oracle.
FORCE_BALANCE_CONST = 1.2533141373155003        # sqrt(pi/2)
CRITICAL_MASS_CONST = 1.0781685172131611        # (pi/2)^(1/6)
ENERGY_MIN_POINT = 1.4540808000358965           # 3 sqrt(pi) / (2 (2 sqrt2 - 1))
ENERGY_MIN_OBJECT = 0.96541666470535785         # (3 / (8 (3/4 - 1/pi)))^(1/4)
MICRO_WIDTH_CONST = 0.79280474333514738         # sqrt(4 sqrt2 / 9)
MACRO_WIDTH_CONST = 0.93191956908496532         # (8 sqrt2 / 15)^(1/4)
RESIDUAL_AT_ONE = -0.23394144903828673          # 0.25 - sqrt(2/pi) e^(-1/2)

PROTON_MASS = 1.67262192369e-27                 # kg


def sphere_energy(packet, body, ctx):
    """The sphere's stationary-packet mean energy, gravitational plus quantum."""
    return avg_qg_potential_object(packet, body, ctx) + avg_quantum_potential(packet, body, ctx)


class TestForceBalanceWidth:
    def test_unit_constant(self, point, ctx):
        assert critical_width_force_balance_at(point.mass, ctx) == pytest.approx(
            FORCE_BALANCE_CONST, rel=1e-12)

    def test_proton_order_of_magnitude(self):
        si = PhysicalContext.si()
        proton = Body.point(PROTON_MASS)
        scale = si.hbar ** 2 / (si.G * PROTON_MASS ** 3)
        assert scale == pytest.approx(3.5608464e22, rel=1e-5)
        width = critical_width_force_balance_at(proton.mass, si)
        assert abs(math.log10(width) - 22.0) <= 1.0

    def test_forces_balance_at_critical_width(self, point, ctx):
        packet = WavePacket(critical_width_force_balance_at(point.mass, ctx))
        fq = avg_quantum_force(packet, point, ctx)
        fqg = avg_qg_force_point(packet, point, ctx)
        assert fq == pytest.approx(abs(fqg), rel=1e-9)

    def test_monotone_decreasing_in_mass(self, ctx):
        widths = [critical_width_force_balance_at(m, ctx) for m in (0.5, 1.0, 2.0, 8.0)]
        assert all(a > b for a, b in zip(widths, widths[1:]))


class TestCriticalMass:
    def test_unit_constant(self, packet, ctx):
        assert critical_mass_at(packet.sigma0, ctx) == pytest.approx(CRITICAL_MASS_CONST, rel=1e-12)

    def test_cgs_benchmark(self):
        # 1e-2 cm packet holds a critical mass of about 1e-15 grams
        cgs = PhysicalContext.cgs()
        mc = critical_mass_at(1e-2, cgs)
        assert abs(math.log10(mc) - (-15.0)) <= 1.0
        assert mc == pytest.approx(1.2785e-15, rel=1e-3)

    def test_round_trip_with_width(self, ctx):
        for m in (0.1, 1.0, 25.0):
            width = critical_width_force_balance_at(m, ctx)
            assert critical_mass_at(width, ctx) == pytest.approx(m, rel=1e-12)

    def test_monotone_decreasing_in_width(self, ctx):
        ms = [critical_mass_at(s, ctx) for s in (0.1, 1.0, 10.0, 100.0)]
        assert all(a > b for a, b in zip(ms, ms[1:]))


class TestRegimeClassification:
    def test_transition_at_exact_balance(self, ctx):
        packet = WavePacket(1.0)
        mc = critical_mass_at(packet.sigma0, ctx)
        report = report_at(mc, packet.sigma0, ctx)
        assert REGIMES[report["regime"]] is Regime.TRANSITION
        assert report["force_ratio"] == pytest.approx(1.0, rel=1e-12)

    def test_cube_law_above_and_below(self, ctx):
        packet = WavePacket(1.0)
        mc = critical_mass_at(packet.sigma0, ctx)
        heavy = report_at(2.0 * mc, packet.sigma0, ctx)
        assert REGIMES[heavy["regime"]] is Regime.GRAVITY_DOMINANT
        assert heavy["force_ratio"] == pytest.approx(0.125, rel=1e-12)
        light = report_at(0.5 * mc, packet.sigma0, ctx)
        assert REGIMES[light["regime"]] is Regime.QUANTUM_DOMINANT
        assert light["force_ratio"] == pytest.approx(8.0, rel=1e-12)

    def test_tie_band(self, ctx):
        packet = WavePacket(1.0)
        mc = critical_mass_at(packet.sigma0, ctx)
        assert REGIMES[report_at(mc * (1.0 + 5e-7), packet.sigma0, ctx)["regime"]] \
            is Regime.TRANSITION
        assert REGIMES[report_at(mc * (1.0 + 5e-6), packet.sigma0, ctx)["regime"]] \
            is Regime.GRAVITY_DOMINANT

    def test_cube_law_identity_random(self, ctx):
        rng = np.random.default_rng(3)
        for _ in range(50):
            m = 10.0 ** rng.uniform(-3, 3)
            s0 = 10.0 ** rng.uniform(-3, 3)
            packet = WavePacket(s0)
            ratio = force_ratio_at(m, packet.sigma0, ctx)
            cube = (critical_mass_at(packet.sigma0, ctx) / m) ** 3
            assert cube == pytest.approx(ratio, rel=1e-9)

    @pytest.mark.parametrize("ctx", [PhysicalContext.dimensionless(), PhysicalContext.si(),
                                     PhysicalContext.cgs()], ids=["dimensionless", "si", "cgs"])
    def test_force_ratio_is_the_quotient_of_the_mean_forces(self, ctx):
        rng = np.random.default_rng(17)
        for m, s0 in 10.0 ** rng.uniform(-3, 3, size=(500, 2)):
            packet, point = WavePacket(s0), Body.point(m)
            fq, fqg = avg_quantum_force(packet, point, ctx), avg_qg_force_point(packet, point, ctx)
            ratio = force_ratio_at(point.mass, packet.sigma0, ctx)
            assert ratio == pytest.approx(fq / abs(fqg), rel=1e-14)

    def test_sphere_report_carries_object_references(self, sphere, ctx):
        # critical's method label per body kind: tests/test_cli.py
        assert "diosi_macro_width" in reference_formulas(sphere.mass, ctx, sphere.radius)


class TestEnergyMinimization:
    def test_point_constant(self, point, ctx):
        got = critical_width_energy_min(point, ctx)
        assert got == pytest.approx(ENERGY_MIN_POINT, rel=1e-9)
        assert critical_width_energy_min_exact(point, ctx) == pytest.approx(
            ENERGY_MIN_POINT, rel=1e-13)

    def test_object_constant(self, sphere, ctx):
        got = critical_width_energy_min(sphere, ctx)
        assert got == pytest.approx(ENERGY_MIN_OBJECT, rel=1e-9)
        assert critical_width_energy_min_exact(sphere, ctx) == pytest.approx(
            ENERGY_MIN_OBJECT, rel=1e-13)

    def test_close_to_reference_scale(self, point, ctx):
        # within a factor 1.5 of hbar^2 / (G m^3)
        got = critical_width_energy_min(point, ctx)
        assert 1.0 / 1.5 < got / 1.0 < 1.5

    def test_agreement_between_routes(self, point, ctx):
        fb = critical_width_force_balance_at(point.mass, ctx)
        em = critical_width_energy_min_exact(point, ctx)
        assert 1.0 < em / fb < 1.2

    def test_hbar_scaling(self, point):
        # hbar -> lam hbar maps the point minimizer by lam^2
        base = critical_width_energy_min(point, PhysicalContext(1.0, 1.0))
        for lam in (0.1, 10.0):
            scaled = critical_width_energy_min(
                point, PhysicalContext(lam, 1.0, unit_system="si"))
            assert scaled == pytest.approx(lam ** 2 * base, rel=1e-9)

    def test_bad_bracket_raises(self, point, ctx):
        with pytest.raises(BracketError):
            minimize_bracketed(_energy_derivative(point, ctx), 5.0, 50.0)
        with pytest.raises(BracketError, match="0 < lo < hi"):
            minimize_bracketed(_energy_derivative(point, ctx), -1.0, 2.0)

    def test_minimizer_requires_sign_change(self):
        with pytest.raises(BracketError):
            minimize_bracketed(lambda x: x, 1.0, 2.0)

    def test_within_rounding_of_the_closed_form(self, ctx):
        # Bisection runs to adjacent floats, so only the rounding of the
        # derivative and of the closed form remains: at most 3.9 eps over
        # 40,000 draws of this test's ranges.
        rng = np.random.default_rng(29)
        for m, R in 10.0 ** rng.uniform(-3, 3, size=(300, 2)):
            for body in (Body.point(m), Body.sphere(m, R)):
                got = critical_width_energy_min(body, ctx)
                exact = critical_width_energy_min_exact(body, ctx)
                assert abs(got - exact) <= 1e-14 * exact

    def test_bisection_ends_on_a_subnormal_bracket(self):
        # subnormal differences are exact: the sign change is at 3e-320
        got = minimize_bracketed(lambda x: x - 3e-320, 1e-320, 5e-320)
        assert got in (math.nextafter(3e-320, 0.0), 3e-320)

    @pytest.mark.parametrize("kind", ["point", "sphere"])
    def test_derivative_is_the_slope_of_the_mean_energy(self, kind, ctx):
        # The minimizer reads only the derivative: tie it to averages.py.
        rng = np.random.default_rng(31)
        for m, s0, R in 10.0 ** rng.uniform(-3, 3, size=(300, 3)):
            if kind == "point":
                body, energy, gravity = Body.point(m), avg_energy_point, avg_qg_potential_point
            else:
                body, energy, gravity = Body.sphere(m, R), sphere_energy, avg_qg_potential_object
            h = 1e-4 * s0
            slope = (energy(WavePacket(s0 + h), body, ctx)
                     - energy(WavePacket(s0 - h), body, ctx)) / (2.0 * h)
            # the size of the terms bounds both the rounding and the truncation error
            scale = max(abs(avg_quantum_potential(WavePacket(s), body, ctx))
                        + abs(gravity(WavePacket(s), body, ctx)) for s in (s0 - h, s0 + h)) / s0
            assert abs(_energy_derivative(body, ctx)(s0) - slope) <= 1e-6 * scale

    @pytest.mark.parametrize("m", [1e60, 1e-100])
    def test_derivative_out_of_range_is_a_domain_error(self, m, ctx):
        # s0 ** 3 at a bracket end underflows to zero (m = 1e60) or overflows
        # (m = 1e-100), while the closed-form minimizer is still in range.
        with pytest.raises(DomainError, match="outside the floating-point range"):
            critical_width_energy_min(Body.point(m), ctx)

    def test_bracket_below_the_float_range_is_a_domain_error(self):
        # The closed-form width of 3e88 kg in SI is the subnormal 5e-324, so
        # the bracket's lower end, a tenth of it, underflows to zero: that is
        # the float-range error, not a bracket the caller never passed.
        body, ctx = Body.point(3e88), PhysicalContext.si()
        assert critical_width_energy_min_exact(body, ctx) == 5e-324
        with pytest.raises(DomainError, match="bracket is outside the floating-point range"):
            critical_width_energy_min(body, ctx)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(kind=st.sampled_from(["point", "sphere"]),
           m=st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e),
           R=st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e))
    def test_finite_width_or_a_gravreduce_error(self, kind, m, R):
        body = Body.point(m) if kind == "point" else Body.sphere(m, R)
        try:
            width = critical_width_energy_min(body, PhysicalContext.dimensionless())
        except GravreduceError:
            return
        assert math.isfinite(width) and width > 0.0


class TestObjectTransitionWidths:
    """The sphere's narrow-packet (macro) and wide-packet (micro) force-balance
    widths: Diosi's object widths times their exact constants."""

    @pytest.mark.parametrize("units", ["dimensionless", "si", "cgs"])
    def test_diosi_widths_times_their_constants(self, units):
        ctx = getattr(PhysicalContext, units)()
        rng = np.random.default_rng(37)
        for m, R in 10.0 ** rng.uniform(-10, 10, size=(200, 2)):
            refs = reference_formulas(m, ctx, R)
            assert critical_width_force_balance_at(m, ctx, R) == pytest.approx(
                MACRO_WIDTH_CONST * refs["diosi_macro_width"], rel=1e-14)
            assert micro_transition_width_at(m, R, ctx) == pytest.approx(
                MICRO_WIDTH_CONST * refs["diosi_micro_width"], rel=1e-14)

    def test_proton_micro_width(self):
        si = PhysicalContext.si()
        width_cm = micro_transition_width_at(PROTON_MASS, 1e-15, si) * 100.0
        assert abs(math.log10(width_cm) - 6.0) <= 1.0

    def test_ball_macro_width(self):
        refs = reference_formulas(0.1, PhysicalContext.si(), 0.05)
        width_cm = refs["diosi_macro_width"] * 100.0
        assert abs(math.log10(width_cm) - (-12.0)) <= 1.0

    def test_regimes_coincide_when_width_equals_radius(self, ctx):
        # with R = hbar^2 / (G m^3) both unit-constant forms collapse to it
        m = 1.3
        scale = ctx.hbar ** 2 / (ctx.G * m ** 3)
        refs = reference_formulas(m, ctx, scale)
        assert refs["diosi_macro_width"] == pytest.approx(scale, rel=1e-12)
        assert refs["diosi_micro_width"] == pytest.approx(scale, rel=1e-12)

    @pytest.mark.parametrize("regime", ["micro", "macro"])
    def test_width_balances_the_quantum_force_against_its_term(self, regime, ctx,
                                                               sphere_force_terms):
        # The micro width balances the mean quantum force against the first
        # term of the mean sphere force, the macro width against the second;
        # test_averages ties the terms to avg_qg_force_object.
        rng = np.random.default_rng(43)
        for m, R in 10.0 ** rng.uniform(-3, 3, size=(100, 2)):
            body = Body.sphere(m, R)
            if regime == "micro":
                packet = WavePacket(micro_transition_width_at(m, R, ctx))
            else:
                packet = WavePacket(critical_width_force_balance_at(m, ctx, R))
            first, second = sphere_force_terms(packet, body, ctx)
            fq = avg_quantum_force(packet, body, ctx)
            assert fq == pytest.approx(first if regime == "micro" else second, rel=1e-12)


class TestForceBalanceResidual:
    """The mixed-point law's force, quantum plus point self-gravity: the
    pointwise force-balance residual."""

    def test_zero_at_origin(self, packet, point, ctx):
        assert ForceLaw(LawKind.MIXED_POINT, packet, point, ctx).force_at(0.0) == 0.0

    def test_unit_value(self, packet, point, ctx):
        got = ForceLaw(LawKind.MIXED_POINT, packet, point, ctx).force_at(1.0)
        assert got == pytest.approx(RESIDUAL_AT_ONE, rel=1e-13)

    def test_mean_residual_vanishes_at_critical_width(self, point, ctx):
        packet = WavePacket(critical_width_force_balance_at(point.mass, ctx))
        law = ForceLaw(LawKind.MIXED_POINT, packet, point, ctx)
        mean = expect(law.force_at, packet, ctx).value
        scale = avg_quantum_force(packet, point, ctx)
        assert abs(mean) / scale < 1e-9


class TestReferenceFormulas:
    def test_dimensionless_unit_values(self, ctx):
        refs = reference_formulas(1.0, ctx, 1.0)
        assert set(refs) == {"karolyhazy_width", "karolyhazy_time",
                             "karolyhazy_object_width", "diosi_macro_width",
                             "diosi_micro_width"}
        for value in refs.values():
            assert value == pytest.approx(1.0, rel=1e-14)

    def test_point_subset(self, point, ctx):
        refs = reference_formulas(point.mass, ctx)
        assert set(refs) == {"karolyhazy_width", "karolyhazy_time"}

    def test_proton_orders(self):
        si = PhysicalContext.si()
        refs = reference_formulas(PROTON_MASS, si)
        assert abs(math.log10(refs["karolyhazy_width"]) - 22.0) <= 1.0
        assert abs(math.log10(refs["karolyhazy_time"]) - 53.0) <= 1.0

    def test_tennis_ball_object_width(self):
        si = PhysicalContext.si()
        refs = reference_formulas(0.057, si, 0.04)
        width_cm = refs["karolyhazy_object_width"] * 100.0
        assert abs(math.log10(width_cm) - (-17.0)) <= 1.0

    def test_a_value_outside_the_float_range_is_absent(self, ctx):
        # m sigma_c^2 / hbar overflows while the widths stay in range; at
        # m = 1e-120 the width itself overflows, and every value built from it
        # is absent too.
        refs = reference_formulas(1e-60, ctx, 1e-60)
        assert refs["karolyhazy_time"] is None
        assert all(type(v) is float for k, v in refs.items() if k != "karolyhazy_time")
        assert reference_formulas(1e-120, ctx, 1.0) == dict.fromkeys(refs)
