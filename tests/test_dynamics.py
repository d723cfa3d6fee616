"""The scalar Dormand-Prince stepper of ``dynamics.integrate`` against
``scipy.integrate.solve_ivp(method="RK45")``, the algorithm it ports, and the
trajectory facts the reduction-time estimates rest on."""

import itertools
import math
import random
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from gravreduce import dynamics, potentials
from gravreduce.core import Body, PhysicalContext, WavePacket
from gravreduce.dynamics import EventKind, ForceLaw
from gravreduce.errors import BodyKindError, DomainError, GravreduceError, IntegrationError

CTX = PhysicalContext.dimensionless()
PACKET = WavePacket(1.0)
GRAVITY_POINT = ForceLaw.gravity_point(PACKET, Body.point(1.0), CTX)
EPS = sys.float_info.epsilon


def scipy_rk45(law, r0, v0, t_end, rtol=1e-9, atol=1e-12):
    """The same problem through solve_ivp: first step, events and tolerances
    as ``integrate`` sets them."""
    m = law.body.mass
    escape_radius = dynamics.ESCAPE_RADII * law.packet.sigma0

    def ev_escape(t, y):
        return y[0] - escape_radius

    ev_escape.direction = 1.0
    ev_escape.terminal = True
    first_step = min(law.characteristic_time() / 1000.0, t_end / 10.0)
    return solve_ivp(lambda t, y: (y[1], law.force_at(y[0]) / m), (0.0, t_end), [r0, v0],
                     method="RK45", rtol=rtol, atol=atol, first_step=first_step,
                     events=[lambda t, y: y[0], lambda t, y: y[1], ev_escape])


def numpy_energy(law, r, v):
    """The energy column and ``energy_drift`` of states r, v, recomputed with numpy."""
    m = law.body.mass
    energy = 0.5 * m * v * v + np.array([law.potential_at(x) for x in r])
    scale = max(abs(energy[0]), float(np.max(0.5 * m * v * v)), 1e-300)
    return energy, float(np.max(np.abs(energy - energy[0])) / scale)


def scipy_drift(law, sol):
    """``Trajectory.energy_drift`` of a solve_ivp solution."""
    return numpy_energy(law, *sol.y)[1]


CASES = {
    "gravity-point, v0 != 0": (GRAVITY_POINT, 1.0, 0.3, 50.0),
    "mixed-point": (ForceLaw.mixed_point(PACKET, Body.point(5.0), CTX), 0.5, 0.1, 20.0),
    "mixed-point, printed variant": (
        ForceLaw.mixed_point(PACKET, Body.point(5.0), CTX, printed_variant=True), 0.5, 0.1, 20.0),
    "gravity-object": (ForceLaw.gravity_object(PACKET, Body.sphere(1.0, 1.0), CTX), 1.0, 0.2, 30.0),
    "start at r0 = 0": (GRAVITY_POINT, 0.0, 0.5, 30.0),
    "escape": (GRAVITY_POINT, 1.0, 3.0, 50.0),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_steps_and_events_match_scipy_rk45(case):
    law, r0, v0, t_end = CASES[case]
    traj = dynamics.integrate(law, r0, v0, t_end)
    sol = scipy_rk45(law, r0, v0, t_end)

    # Same accepted and rejected steps: nfev = 1 + 6 per attempted step.
    assert traj.n_steps == len(sol.t) - 1
    assert traj.nfev == sol.nfev == 1 + 6 * (traj.n_steps + traj.n_rejected)

    # The step-size controller amplifies last-bit differences in the stage
    # sums (numpy's dot may fuse multiply-adds, the port does not): the error
    # estimate is a sum that cancels to 1e-8 or less of its terms, so step
    # sizes differ by 1e-9 (median) to 3e-6 (steps whose error is at rounding
    # level) relative, and sample times by up to 1.3e-8 of the run; a
    # different step sequence would move them by a whole step.  The states
    # are compared along the curve: scipy's state moved to the port's sample
    # time to first order, which is exact to about 1e-18 here.
    dt = traj.t - sol.t
    assert np.max(np.abs(dt)) <= 1e-7 * t_end
    r, v = sol.y
    a = np.array([law.force_at(x) for x in r]) / law.body.mass
    np.testing.assert_allclose(traj.r, r + v * dt, rtol=0, atol=1e-12 * np.max(np.abs(r)))
    np.testing.assert_allclose(traj.v, v + a * dt, rtol=0, atol=1e-12 * np.max(np.abs(v)))

    expected = sorted((float(te), kind) for kind, times in zip(EventKind, sol.t_events)
                      for te in times)
    assert [e.kind for e in traj.events] == [kind for _, kind in expected]
    np.testing.assert_allclose([e.time for e in traj.events], [te for te, _ in expected],
                               rtol=0, atol=1e-12 * t_end)


@pytest.mark.parametrize("case", sorted(CASES) + ["equilibrium"])
def test_energy_column_is_the_numpy_recomputation_bit_for_bit(case):
    law, r0, v0, t_end = CASES.get(case, (GRAVITY_POINT, 0.0, 0.0, 5.0))
    traj = dynamics.integrate(law, r0, v0, t_end)
    r = np.asarray(traj.r)
    assert np.shares_memory(r, traj.r)
    energy, drift = numpy_energy(law, r, np.asarray(traj.v))
    assert traj.energy.tolist() == energy.tolist()
    assert traj.energy_drift == drift


def test_escape_ends_the_run_at_its_root():
    law, r0, v0, t_end = CASES["escape"]
    traj = dynamics.integrate(law, r0, v0, t_end)
    last = traj.events[-1]
    assert last.kind is EventKind.ESCAPE and traj.events_of(EventKind.ESCAPE) == [last]
    assert traj.t[-1] == last.time < t_end
    assert traj.r[-1] == pytest.approx(dynamics.ESCAPE_RADII * law.packet.sigma0, rel=1e-12)


def test_start_at_the_origin_fires_r_zero_at_t0():
    law, r0, v0, t_end = CASES["start at r0 = 0"]
    traj = dynamics.integrate(law, r0, v0, t_end)
    assert traj.events[0] == dynamics.Event(0.0, EventKind.R_ZERO)


def test_equilibrium_takes_no_step():
    traj = dynamics.integrate(GRAVITY_POINT, 0.0, 0.0, 5.0)
    assert traj.t.tolist() == [0.0, 5.0] and traj.r.tolist() == [0.0, 0.0]
    assert (traj.nfev, traj.n_steps, traj.n_rejected, traj.events) == (0, 0, 0, [])


def test_small_amplitude_period_is_the_linearized_one():
    r0 = 1e-3 * PACKET.sigma0
    traj = dynamics.integrate(GRAVITY_POINT, r0, 0.0, 12.0 * GRAVITY_POINT.characteristic_time())
    period = dynamics.detect_period(traj)
    linearized = dynamics.period_linearized(PACKET, GRAVITY_POINT.body, CTX)
    assert linearized == pytest.approx(7.034121, abs=1e-6)
    assert abs(period / linearized - 1.0) < 2e-7


def test_period_from_one_width():
    # 2.6e-10 relative measured: the run's rtol, not the constant, sets it
    traj = dynamics.integrate(GRAVITY_POINT, PACKET.sigma0, 0.0, 40.0)
    period = dynamics.detect_period(traj)
    assert abs(period / (4.0 * dynamics.QUARTER_PERIOD_POINT) - 1.0) < 1e-9


@pytest.fixture(scope="module")
def long_run():
    """The unit packet from rest at r0 = sigma0 for 1000 characteristic times."""
    t_end = 1000.0 * GRAVITY_POINT.characteristic_time()
    return dynamics.integrate(GRAVITY_POINT, PACKET.sigma0, 0.0, t_end)


def test_drift_over_1000_characteristic_times_is_scipys(long_run):
    t_end = long_run.t[-1]
    reference = scipy_drift(GRAVITY_POINT, scipy_rk45(GRAVITY_POINT, 1.0, 0.0, t_end))
    assert 0.0 < long_run.energy_drift <= 1.25 * reference


def test_origin_crossings_are_odd_multiples_of_the_quarter_period(long_run):
    # The k-th crossing is (2k + 1) C t_char; the phase error grows with the
    # run, to 2.9e-8 t_end at the end of this one.
    t_end = long_run.t[-1]
    crossings = [e.time for e in long_run.events_of(EventKind.R_ZERO)]
    assert len(crossings) == int(t_end / (2.0 * dynamics.QUARTER_PERIOD_POINT) + 0.5)
    for k, t in enumerate(crossings):
        assert abs(t - (2 * k + 1) * dynamics.QUARTER_PERIOD_POINT) <= 1e-7 * t_end, k


def test_quarter_period_constant_is_correctly_rounded():
    # The energy integral with r = sigma0 sin(theta), which has no endpoint
    # singularity: expm1(cos^2 / 2) ~ cos^2 / 2 as theta -> pi/2.
    with mpmath.workdps(40):
        c = mpmath.sqrt(2 / mpmath.pi) * mpmath.exp(-0.5)
        quarter = mpmath.quad(
            lambda th: mpmath.cos(th) / mpmath.sqrt(2 * c * mpmath.expm1(mpmath.cos(th) ** 2 / 2)),
            [0, mpmath.pi / 2])
        assert float(quarter) == dynamics.QUARTER_PERIOD_POINT


ROOT_PROBLEMS = [
    (lambda x: x * x - 2.0, 0.0, 2.0),
    (lambda x: math.cos(x) - x, 0.0, 1.0),
    (lambda x: (x - 0.3) ** 3 + 1e-3 * (x - 0.3), 0.0, 1.0),
    (lambda x: math.exp(x) - 1e-3, -10.0, 5.0),
    (lambda x: math.atan(x - 1e-9), -1e3, 1e3),
    (lambda x: math.sin(30.0 * x) - 0.1, 0.0, 0.1),
    (lambda x: x ** 9 - 1e-5, 0.0, 2.0),
    (lambda x: x - 0.5, 0.5, 1.0),             # root at an end
]


def evaluations(f, log):
    def logged(x):
        log.append(x)
        return f(x)
    return logged


@pytest.mark.parametrize("i", range(len(ROOT_PROBLEMS)))
def test_brent_port_steps_as_brentq(i):
    f, a, b = ROOT_PROBLEMS[i]
    ours, theirs = [], []
    root = dynamics._brentq(evaluations(f, ours), a, b)
    assert root == brentq(evaluations(f, theirs), a, b, xtol=4 * EPS, rtol=4 * EPS)
    assert ours == theirs


def test_unbracketed_or_unconverged_root_is_an_integration_error():
    with pytest.raises(IntegrationError, match="not bracketed"):
        dynamics._brentq(lambda x: x * x + 1.0, -1.0, 1.0)
    # a triple root: brentq stops after 100 iterations too
    with pytest.raises(RuntimeError):
        brentq(lambda x: (x - 0.3) ** 3, 0.0, 1.0, xtol=4 * EPS, rtol=4 * EPS)
    with pytest.raises(IntegrationError, match="did not converge"):
        dynamics._brentq(lambda x: (x - 0.3) ** 3, 0.0, 1.0)


class NaNForce(ForceLaw):
    """The gravity-point law with a force that is nan everywhere."""

    def force_at(self, r):
        return math.nan


def test_step_below_float_spacing_is_an_integration_error():
    # Every attempt has a nan error estimate and is rejected, so the step
    # shrinks by MIN_FACTOR until it is below the spacing of t.
    law = NaNForce(dynamics.LawKind.GRAVITY_POINT, PACKET, Body.point(1.0), CTX)
    with pytest.raises(IntegrationError, match="spacing of floating-point numbers"):
        dynamics.integrate(law, 1.0, 0.0, 10.0)


def test_stalled_steps_end_at_the_step_budget(monkeypatch):
    # The gravity-point law with a force that is nan wherever r != 1.  From
    # r = 1 with v != 0, steps shrink until all of a step's stage points
    # round to r = 1; that step is accepted, the next one rejected, and t
    # advances by about 5e-14 per step.  A smaller budget keeps the test
    # short (the default one is reached in about 10 s); counting the calls
    # makes a missing budget fail the test instead of hanging it.
    budget = 10_000
    monkeypatch.setattr(dynamics, "MAX_STEPS", budget)
    calls = itertools.count()

    class StallingForce(ForceLaw):
        def force_at(self, r):
            if next(calls) > 100 * budget:
                raise RuntimeError("integrate kept stepping past its budget")
            return 0.0 if r == 1.0 else math.nan

    law = StallingForce(dynamics.LawKind.GRAVITY_POINT, PACKET, Body.point(1.0), CTX)
    with pytest.raises(IntegrationError, match=f"took {budget} steps"):
        dynamics.integrate(law, 1.0, 1e-3, 10.0 * law.characteristic_time())


def test_small_sphere_run_fits_the_step_budget():
    # A sphere with R << sigma0 moves on the time scale t_char (R/sigma0)^1.5,
    # so one characteristic time takes about 11,000 accepted steps here: the
    # budget must not be counted per characteristic time.
    law = ForceLaw.gravity_object(PACKET, Body.sphere(1.0, 0.01 * PACKET.sigma0), CTX)
    traj = dynamics.integrate(law, PACKET.sigma0, 0.0, law.characteristic_time())
    assert traj.t[-1] == law.characteristic_time()
    assert traj.n_steps > 1000
    assert traj.energy_drift < 1e-6


log_uniform = st.floats(-150.0, 150.0).map(lambda e: 10.0 ** e)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(kind=st.sampled_from(dynamics.LawKind), m=log_uniform, s0=log_uniform)
def test_integrate_returns_finite_columns_or_a_gravreduce_error(kind, m, s0):
    # One characteristic time from rest at r0 = sigma0, the sphere as wide as
    # the packet; t_end is sqrt(sigma0^3 / G m) in a form that stays finite.
    body = Body.sphere(m, s0) if kind is dynamics.LawKind.GRAVITY_OBJECT else Body.point(m)
    try:
        law = ForceLaw(kind, WavePacket(s0), body, CTX)
        traj = dynamics.integrate(law, s0, 0.0, s0 ** 1.5 / math.sqrt(m))
    except GravreduceError:
        return
    for column in (traj.t, traj.r, traj.v, traj.energy):
        assert all(map(math.isfinite, column))
    assert math.isfinite(traj.energy_drift)


# ---------------------------------------------------------------- the law kernels

CONTEXTS = (PhysicalContext.dimensionless(), PhysicalContext.si(), PhysicalContext.cgs())


def log_uniform(rng, lo, hi):
    return lo * (hi / lo) ** rng.random()


def law_draws(seed, n):
    """n laws of each kind, the printed mixed variant included, in every unit
    system, with m, sigma0 and R log-uniform in 1e-3..1e3, and radii of each
    law drawn uniformly in [0, 5 sigma0], zero included."""
    rng = random.Random(seed)
    for ctx in CONTEXTS:
        for _ in range(n):
            m, s0, R = (log_uniform(rng, 1e-3, 1e3) for _ in range(3))
            packet = WavePacket(s0)
            radii = [0.0] + [5.0 * s0 * rng.random() for _ in range(24)]
            for law in (ForceLaw.gravity_point(packet, Body.point(m), ctx),
                        ForceLaw.mixed_point(packet, Body.point(m), ctx),
                        ForceLaw.mixed_point(packet, Body.point(m), ctx, printed_variant=True),
                        ForceLaw.gravity_object(packet, Body.sphere(m, R), ctx)):
                yield law, radii


def entry_points(law):
    """The ``potentials`` functions a law's (force, potential) stands for, at r >= 0."""
    args = (law.packet, law.body, law.ctx)
    if law.kind is dynamics.LawKind.GRAVITY_OBJECT:
        return (lambda r: potentials.qg_force_object(r, *args),
                lambda r: potentials.qg_potential_object(r, *args))
    if law.kind is dynamics.LawKind.GRAVITY_POINT:
        return (lambda r: potentials.qg_force_point(r, *args),
                lambda r: potentials.qg_well_potential_point(r, *args))
    return (lambda r: potentials.quantum_force(r, *args) + potentials.qg_force_point(r, *args),
            lambda r: (potentials.quantum_potential(r, *args)
                       + potentials.qg_well_potential_point(r, *args)))


def test_kernels_equal_the_potentials_entry_points_bit_for_bit():
    checked = 0
    for law, radii in law_draws(7, 10):
        for r in radii:
            force, potential = law.force_at(r), law.potential_at(r)
            assert law.force_at(-r) == -force and law.potential_at(-r) == potential, (law, r)
            if not law.printed_mixed_variant:
                want_force, want_potential = entry_points(law)
                assert force == want_force(r) and potential == want_potential(r), (law, r)
                checked += 1
    assert checked == 3 * 3 * 10 * 25


def test_printed_variant_force_is_the_gradient_of_its_potential():
    # The sigma0^2 quantum term has no entry point in ``potentials``: its
    # potential, -hbar^2 r^2 / (8 m sigma0^2), is checked by central differences.
    for law, radii in law_draws(11, 4):
        if not law.printed_mixed_variant:
            continue
        s0 = law.packet.sigma0
        h = 1e-5 * s0
        scale = max(abs(law.force_at(r)) for r in radii)
        for r in radii[1:6]:
            fd = -(law.potential_at(r + h) - law.potential_at(r - h)) / (2.0 * h)
            assert abs(law.force_at(r) - fd) <= 1e-7 * scale, (law, r)


@pytest.mark.parametrize("kind, body", [
    (dynamics.LawKind.GRAVITY_POINT, Body.sphere(1.0, 1.0)),
    (dynamics.LawKind.MIXED_POINT, Body.sphere(1.0, 1.0)),
    (dynamics.LawKind.GRAVITY_OBJECT, Body.point(1.0)),
])
def test_law_for_the_other_body_kind_is_refused_when_built(kind, body):
    with pytest.raises(BodyKindError):
        ForceLaw(kind, PACKET, body, CTX)


@pytest.mark.parametrize("kind, body", [
    (dynamics.LawKind.GRAVITY_POINT, Body.point(1.0)),
    (dynamics.LawKind.GRAVITY_OBJECT, Body.sphere(1.0, 1.0)),
])
def test_printed_variant_of_another_law_is_refused_when_built(kind, body):
    with pytest.raises(DomainError, match="printed mixed variant does not apply"):
        ForceLaw(kind, PACKET, body, CTX, printed_mixed_variant=True)
    assert not ForceLaw(kind, PACKET, body, CTX).printed_mixed_variant


@pytest.mark.parametrize("kind, packet, body", [
    (dynamics.LawKind.GRAVITY_POINT, PACKET, Body.point(1e200)),       # m * m
    (dynamics.LawKind.MIXED_POINT, PACKET, Body.point(1e200)),
    (dynamics.LawKind.GRAVITY_OBJECT, WavePacket(1e-2), Body.sphere(1e154, 1.0)),
])
def test_law_with_a_non_finite_constant_is_refused_when_built(kind, packet, body):
    # The products overflow to inf without raising an exception of their own.
    with pytest.raises(DomainError, match="outside the floating-point range"):
        ForceLaw(kind, packet, body, CTX)


# ---------------------------------------------------------------- reduction times

def test_numeric_tau_is_the_quarter_period_in_every_unit_system():
    # One proton at sigma0 = 1 angstrom, in SI and in CGS: an integrated
    # estimate would depend on the solver's absolute tolerance in each.
    proton_kg, sigma0_m = 1.67262192369e-27, 1e-10
    taus = []
    for ctx, m, s0 in ((PhysicalContext.si(), proton_kg, sigma0_m),
                       (PhysicalContext.cgs(), 1e3 * proton_kg, 1e2 * sigma0_m)):
        estimate = dynamics.tau_estimates(WavePacket(s0), Body.point(m), ctx)[-1]
        assert estimate.method is dynamics.TauMethod.QUARTER_PERIOD_NUMERIC
        law = ForceLaw.gravity_point(WavePacket(s0), Body.point(m), ctx)
        exact = dynamics.QUARTER_PERIOD_POINT * law.characteristic_time()
        assert abs(estimate.tau / exact - 1.0) <= 2 * EPS
        taus.append(estimate.tau)
    assert abs(taus[0] / taus[1] - 1.0) <= 4 * EPS


# ---------------------------------------------------------------- object-uncertainty tau

def spread_coefficients():
    """ALPHA_OBJECT and BETA_OBJECT in mpmath, at the working precision."""
    erf, gauss = mpmath.erf(1 / mpmath.sqrt(2)), mpmath.sqrt(2 / mpmath.pi) * mpmath.exp(-0.5)
    return 1.5 * erf - 2 * gauss, 1.5 * (erf - gauss)


def test_object_spread_coefficients_are_correctly_rounded():
    with mpmath.workdps(50):
        alpha, beta = spread_coefficients()
        assert (dynamics.ALPHA_OBJECT, dynamics.BETA_OBJECT) == (float(alpha), float(beta))


def test_object_uncertainty_tau_is_accurate_to_its_condition_number():
    # tau = hbar R / (G m^2 |alpha x^2 - beta|) with x = sigma0 / R, whose
    # condition number (alpha x^2 + beta) / |alpha x^2 - beta| is large only
    # near the zero x* = sqrt(beta / alpha) of the spread: every other draw
    # lies within 1% of it.
    rng = random.Random(5)
    with mpmath.workdps(50):
        alpha, beta = spread_coefficients()
        x_star = float(mpmath.sqrt(beta / alpha))
        for i in range(3000):
            ctx = CONTEXTS[i % 3]
            m, R = log_uniform(rng, 1e-3, 1e3), log_uniform(rng, 1e-3, 1e3)
            if i % 2:
                s0 = R * x_star * (1.0 + 0.02 * (rng.random() - 0.5))
            else:
                s0 = R * log_uniform(rng, 1e-3, 1e3)
            tau = dynamics.tau_at(dynamics.TauMethod.OBJECT_UNCERTAINTY, m, s0, ctx, R)
            x = mpmath.mpf(s0) / R
            spread = alpha * x ** 2 - beta
            want = ctx.hbar * mpmath.mpf(R) / (ctx.G * mpmath.mpf(m) ** 2 * abs(spread))
            cond = (alpha * x ** 2 + beta) / abs(spread)
            assert abs(tau / want - 1) <= 4 * EPS * cond, (m, s0, R, ctx)
