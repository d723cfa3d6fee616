"""The scalar DOP853 stepper (``dop853.solve``) against
``scipy.integrate.solve_ivp(method="DOP853")`` on the same problem in the
packet's units (the algorithm it ports), ``dynamics.integrate``'s tiled runs
against one stepped at a tighter tolerance, the units themselves, and the
trajectory facts the reduction-time estimates rest on."""

import bisect
import itertools
import math
import random
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from gravreduce import criticality, dop853, dynamics, potentials
from gravreduce.core import SQRT_2_OVER_PI, Body, LawKind, PhysicalContext, WavePacket
from gravreduce.dynamics import EventKind, ForceLaw
from gravreduce.errors import BodyKindError, DomainError, GravreduceError, IntegrationError

CTX = PhysicalContext.dimensionless()
PACKET = WavePacket(1.0)
GRAVITY_POINT = ForceLaw(LawKind.GRAVITY_POINT, PACKET, Body.point(1.0), CTX)
EPS = sys.float_info.epsilon


def packet_force(law):
    """The force ``integrate`` steps: the law's force kernel at
    sigma0 = m = G = 1, with hbar / (m sqrt(G m sigma0)) and R / sigma0."""
    s0, m, ctx = law.packet.sigma0, law.body.mass, law.ctx
    return dynamics._force_kernel(law.kind, 1.0, 1.0, 1.0,
                                  ctx.hbar / (m * math.sqrt(ctx.G * m * s0)),
                                  law.body.radius and law.body.radius / s0)


def in_packet_units(law, r0, v0, t_end):
    """``integrate``'s problem as it hands it to ``dop853.solve``: the
    acceleration, start and end in x = r / sigma0, u = v t_char / sigma0 and
    tau = t / t_char."""
    s0, t_char = law.packet.sigma0, law.characteristic_time()
    return packet_force(law), r0 / s0, v0 * t_char / s0, t_end / t_char


def solve(accel, x0, u0, tau_end, rtol=1e-9, atol=1e-12):
    """One ``dop853.solve`` run over the whole span, with ``integrate``'s
    first step, escape radius and step budget."""
    return dop853.solve(accel, x0, u0, tau_end, min(1e-3, tau_end / 10.0), rtol, atol,
                        dynamics.ESCAPE_RADII, dynamics.MAX_STEPS)


def scipy_packet_solve(accel, x0, u0, tau_end, method="DOP853", rtol=1e-9, atol=1e-12):
    """The same problem through solve_ivp, with first step, events and
    tolerances as ``solve`` sets them."""
    def ev_escape(t, y):
        return y[0] - dynamics.ESCAPE_RADII

    ev_escape.direction = 1.0
    ev_escape.terminal = True
    return solve_ivp(lambda t, y: (y[1], accel(y[0])), (0.0, tau_end), [x0, u0],
                     method=method, rtol=rtol, atol=atol,
                     first_step=min(1e-3, tau_end / 10.0),
                     events=[lambda t, y: y[0], lambda t, y: y[1], ev_escape])


def scipy_solve(law, r0, v0, t_end, method="DOP853"):
    """:func:`scipy_packet_solve` on ``integrate``'s problem, with times and
    states back in the law's units."""
    s0, t_char = law.packet.sigma0, law.characteristic_time()
    sol = scipy_packet_solve(*in_packet_units(law, r0, v0, t_end), method=method)
    sol.t = sol.t * t_char
    sol.y = sol.y * np.array([[s0], [s0 / t_char]])
    sol.t_events = [te * t_char for te in sol.t_events]
    return sol


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
    "mixed-point": (ForceLaw(LawKind.MIXED_POINT, PACKET, Body.point(5.0), CTX), 0.5, 0.1, 20.0),
    "gravity-object": (ForceLaw(LawKind.GRAVITY_OBJECT, PACKET, Body.sphere(1.0, 1.0), CTX),
                       1.0, 0.2, 30.0),
    "start at r0 = 0": (GRAVITY_POINT, 0.0, 0.5, 30.0),
    "escape": (GRAVITY_POINT, 1.0, 3.0, 50.0),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_steps_and_events_match_scipy_dop853(case):
    law, r0, v0, t_end = CASES[case]
    accel, x0, u0, tau_end = in_packet_units(law, r0, v0, t_end)
    taus, xs, us, found, nfev, n_rejected = solve(accel, x0, u0, tau_end)
    sol = scipy_packet_solve(accel, x0, u0, tau_end)

    # Same accepted and rejected steps: nfev = 1 + 12 per attempted step + 3
    # per step with an event, whose dense output takes three more stages.
    n_steps = len(taus) - 1
    assert n_steps == len(sol.t) - 1
    assert nfev == sol.nfev
    assert (nfev - 1 - 12 * (n_steps + n_rejected)) % 3 == 0

    # The step-size controller amplifies last-bit differences in the stage
    # sums (numpy's dot may fuse multiply-adds, the port does not), and
    # DOP853's error estimate, whose stage weights reach 43 in size, feels
    # them more than RK45's did: on the mixed-point case it differs from
    # scipy's by up to 1.4e-5 relative on a step near rounding level.  Step
    # sizes then differ by 1e-10 to 2.5e-7 (median of a case) and at most
    # 2.4e-6 relative, and sample times by up to 7.3e-8 of the run (1.7e-8
    # to 8.1e-8 over OpenBLAS's Prescott, Sandybridge, Haswell and SkylakeX
    # kernels); a different step sequence would move them by a whole step.
    # The states are compared along the curve: scipy's state moved to the
    # port's sample time to second order, whose remainder is below 2e-18 here.
    dt = np.asarray(taus) - sol.t
    assert np.max(np.abs(dt)) <= 1e-7 * tau_end
    x, u = sol.y

    def accels(x):
        return np.array([accel(xi) for xi in x])

    a = accels(x)
    h = 1e-6       # of sigma0
    jerk = (accels(x + h) - accels(x - h)) / (2.0 * h) * u
    np.testing.assert_allclose(xs, x + u * dt + a * dt * dt / 2.0,
                               rtol=0, atol=1e-12 * np.max(np.abs(x)))
    np.testing.assert_allclose(us, u + a * dt + jerk * dt * dt / 2.0,
                               rtol=0, atol=1e-12 * np.max(np.abs(u)))

    expected = sorted((float(te), kind) for kind, times in zip(EventKind, sol.t_events)
                      for te in times)
    ours = sorted((tau, dynamics._EVENT_KINDS[i]) for tau, i in found)
    assert [kind for _, kind in ours] == [kind for _, kind in expected]
    np.testing.assert_allclose([tau for tau, _ in ours], [te for te, _ in expected],
                               rtol=0, atol=1e-12 * tau_end)


def test_tables_are_scipys_bit_for_bit():
    from scipy.integrate._ivp import dop853_coefficients as c
    n = c.N_STAGES
    assert [list(row) for row in dop853._A] == [
        [float(a) for a in c.A[s, :s]] for s in range(1, c.N_STAGES_EXTENDED)]
    assert list(dop853._A[n - 1]) == c.B.tolist()      # row 12 is the step
    assert list(dop853._E5) == c.E5[:n].tolist()
    assert list(dop853._E3) == c.E3[:n].tolist()
    assert [list(row) for row in dop853._D] == c.D.tolist()


def _left_to_right(terms):
    total = 0.0
    for term in terms:
        total += term
    return total


# Terms on which a compensated sum (sum() of floats since Python 3.12) and a
# left-to-right one differ, 2.0 against 0.0, and terms that sum to 0.0 left to
# right from 0.0, as 3.11's sum() gives, but to -0.0 from a -0.0 start.
SUM_CASES = ([1.0, 1e100, 1.0, -1e100], [-0.0] * 4)


def test_float_sums_add_left_to_right(monkeypatch):
    # Each sum() of dop853 (stages, error estimates, dense output) and of
    # _radial_quad's panel totals runs with its own start on its own terms and
    # on SUM_CASES, against a loop: a sum that rounds otherwise would write
    # other bytes on another Python.
    sites, wrong = set(), []

    def checked_sum(terms, *start):
        frame = sys._getframe(1)
        site = (frame.f_code.co_filename, frame.f_lineno)
        sites.add(site)
        terms = list(terms)
        for case in (terms, *SUM_CASES):
            got, expected = sum(case, *start), _left_to_right(case)
            if repr(got) != repr(expected):         # the bits, the sign of 0.0 included
                wrong.append((site, case, got, expected))
        return sum(terms, *start)

    monkeypatch.setattr(dop853, "sum", checked_sum, raising=False)
    monkeypatch.setattr(potentials, "sum", checked_sum, raising=False)
    # from rest, so that the start and the r = 0 crossing fire events, whose
    # steps run the dense output
    _, _, _, events, _, _ = dop853.solve(lambda x: -x, 1.0, 0.0, 2.0, 1e-3, 1e-9, 1e-12,
                                         10.0, 1000)
    assert [i for _, i in events] == [1, 0]
    # a kink at u = 1 bisects the first panel
    assert potentials._radial_quad(lambda r: abs(r - 1.0), 1.0, 12.0)[3] > 88
    assert len(sites) == 8, sites       # dop853's 7 sums and the panel totals
    assert wrong == []


# From rest at r0 = sigma0 a gravity-point leg takes 4.239 t_char, half the
# period, so each run ends half a leg after its n-th whole one: the first
# piece, n legs (one stepped, n - 1 tiled) and the last piece.  integrate
# takes the drift over those stepped rows that the run holds.
TILED = {f"{n} whole legs": (GRAVITY_POINT, 1.0, 0.0, (n + 1.5) * 4.2386) for n in (1, 2, 3)}


@pytest.mark.parametrize("case", sorted(CASES) + sorted(TILED) + ["equilibrium"])
def test_energy_column_is_the_numpy_recomputation_bit_for_bit(case):
    law, r0, v0, t_end = {**CASES, **TILED}.get(case, (GRAVITY_POINT, 0.0, 0.0, 5.0))
    traj = dynamics.integrate(law, r0, v0, t_end)
    if case in TILED:
        assert traj.legs_tiled == int(case.split()[0]) - 1
        assert len(traj.events_of(EventKind.V_ZERO)) == traj.legs_tiled + 3
    # every run, stepped whole or tiled, rebuilds its columns from its tiling
    *blocks, n = traj.tiling
    assert max(n - 1, 0) == traj.legs_tiled
    for i, column in enumerate((traj.r, traj.v, traj.energy)):
        assert dynamics.tiled(*(block[i] for block in blocks), n) == column
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


MIRROR_LAWS = [GRAVITY_POINT, CASES["mixed-point"][0], CASES["gravity-object"][0]]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(law=st.sampled_from(MIRROR_LAWS), r0=st.floats(0.0, 3.0), v0=st.floats(-6.0, 6.0),
       t_end=st.floats(1.0, 60.0))
@example(law=GRAVITY_POINT, r0=1.0, v0=5.0, t_end=50.0)           # escapes
@example(law=GRAVITY_POINT, r0=1.0, v0=0.3, t_end=50.0)           # tiled
@example(law=MIRROR_LAWS[1], r0=0.5, v0=0.1, t_end=20.0)          # tiled
@example(law=MIRROR_LAWS[1], r0=1.0, v0=3.0, t_end=20.0)          # escapes
@example(law=MIRROR_LAWS[2], r0=1.0, v0=0.2, t_end=30.0)          # tiled, one-sided
@example(law=MIRROR_LAWS[2], r0=1.0, v0=3.0, t_end=30.0)          # escapes
@example(law=GRAVITY_POINT, r0=1.0, v0=0.0, t_end=3.0)            # bound, stepped whole
def test_mirrored_start_gives_the_mirrored_run_bit_for_bit(law, r0, v0, t_end):
    # The force is odd and the potential even, and the stepper negates
    # exactly, so (-r0, -v0) must give -r and -v with everything else equal.
    # Negative control: with the escape event fired only through +10 sigma0,
    # every escaping start's mirror runs on to t_end.
    traj = dynamics.integrate(law, r0, v0, t_end)
    mirror = dynamics.integrate(law, -r0, -v0, t_end)
    assert mirror.r.tolist() == [-r for r in traj.r]
    assert mirror.v.tolist() == [-v for v in traj.v]
    for field in ("t", "energy"):
        assert getattr(mirror, field).tolist() == getattr(traj, field).tolist(), field
    for field in ("events", "energy_drift", "nfev", "n_steps", "n_rejected", "legs_tiled"):
        assert getattr(mirror, field) == getattr(traj, field), field


def test_start_at_the_origin_fires_r_zero_at_t0():
    law, r0, v0, t_end = CASES["start at r0 = 0"]
    traj = dynamics.integrate(law, r0, v0, t_end)
    assert traj.events[0] == dynamics.Event(0.0, EventKind.R_ZERO)


@pytest.mark.parametrize("r0, v0", [(5e-324, 0.0), (0.0, 5e-324), (-1e-320, 0.0),
                                   (1.0, -2.2250738585072e-308)])
def test_subnormal_start_is_refused(r0, v0):
    # From such a start h * accel underflows: v stays exactly 0 and every
    # step ends on a turning point, or the run drifts from the normal starts'.
    with pytest.raises(DomainError, match="subnormal"):
        dynamics.integrate(GRAVITY_POINT, r0, v0, 10.0)


def test_smallest_normal_start_gives_the_period_of_a_small_start():
    # The orbit of any start near the origin has the small-oscillation
    # period; r0 = 1e-320, subnormal, gave 15.68906 where these give 15.68087.
    period = dynamics.detect_period(dynamics.integrate(GRAVITY_POINT, 1e-30, 0.0, 100.0))
    smallest = dynamics.integrate(GRAVITY_POINT, sys.float_info.min, 0.0, 100.0)
    assert math.isclose(dynamics.detect_period(smallest), period, rel_tol=1e-12)


def test_equilibrium_takes_no_step():
    traj = dynamics.integrate(GRAVITY_POINT, 0.0, 0.0, 5.0)
    assert traj.t.tolist() == [0.0, 5.0] and traj.r.tolist() == [0.0, 0.0]
    assert (traj.nfev, traj.n_steps, traj.n_rejected, traj.events) == (0, 0, 0, [])


def test_small_amplitude_period_is_the_linearized_one():
    r0 = 1e-3 * PACKET.sigma0
    traj = dynamics.integrate(GRAVITY_POINT, r0, 0.0, 12.0 * GRAVITY_POINT.characteristic_time())
    period = dynamics.detect_period(traj)
    # 2 pi over the point law's small-amplitude rate (2/pi)^(1/4) / t_char
    linearized = 2.0 * math.pi * GRAVITY_POINT.characteristic_time() / (2.0 / math.pi) ** 0.25
    assert linearized == pytest.approx(7.034121, abs=1e-6)
    assert abs(period / linearized - 1.0) < 2e-7


def test_period_from_one_width():
    # 2.6e-10 relative measured: the run's rtol, not the constant, sets it
    traj = dynamics.integrate(GRAVITY_POINT, PACKET.sigma0, 0.0, 40.0)
    period = dynamics.detect_period(traj)
    assert abs(period / (4.0 * criticality.QUARTER_PERIOD_POINT) - 1.0) < 1e-9


@pytest.fixture(scope="module")
def long_run():
    """The unit packet from rest at r0 = sigma0 for 1000 characteristic times."""
    t_end = 1000.0 * GRAVITY_POINT.characteristic_time()
    return dynamics.integrate(GRAVITY_POINT, PACKET.sigma0, 0.0, t_end)


def test_drift_over_1000_characteristic_times_is_scipys(long_run):
    t_end = long_run.t[-1]
    reference = scipy_drift(GRAVITY_POINT,
                            scipy_solve(GRAVITY_POINT, 1.0, 0.0, t_end, method="RK45"))
    assert 0.0 < long_run.energy_drift <= 1.25 * reference


def test_origin_crossings_are_odd_multiples_of_the_quarter_period(long_run):
    # The k-th crossing is (2k + 1) C t_char; the phase error grows with the
    # run, by the error of the one stepped leg on each tiled one, to 3.25e-7
    # t_char (3.25e-10 t_end) at the end of this one.
    t_end = long_run.t[-1]
    crossings = [e.time for e in long_run.events_of(EventKind.R_ZERO)]
    assert len(crossings) == int(t_end / (2.0 * criticality.QUARTER_PERIOD_POINT) + 0.5)
    for k, t in enumerate(crossings):
        assert abs(t - (2 * k + 1) * criticality.QUARTER_PERIOD_POINT) <= 4e-10 * t_end, k


LONG_RUNS = {
    "gravity-point": (GRAVITY_POINT, 1.0),
    "mixed-point": (ForceLaw(LawKind.MIXED_POINT, PACKET, Body.point(5.0), CTX), 0.5),
    "gravity-object": (ForceLaw(LawKind.GRAVITY_OBJECT, PACKET, Body.sphere(1.0, 1.0), CTX), 1.5),
}


@pytest.mark.parametrize("case", sorted(LONG_RUNS))
def test_tiled_run_follows_the_whole_run_stepped_at_rtol_1e_12(case):
    # 1000 characteristic times from rest, at the default tolerances, against
    # one dop853.solve run over the whole span at rtol 1e-12, atol 1e-15, in
    # the packet's units.  The reference state at each tiled sample time is
    # stepped on from the reference sample before it.  Measured: states within
    # 2.5e-7 (x) and 1.6e-7 (u) and events within 3.2e-7 t_char on
    # gravity-point, 2e-8 and 9e-8 on the others; the bound is 5e-7 on each.
    law, r0 = LONG_RUNS[case]
    accel, x0, u0, tau_end = in_packet_units(law, r0, 0.0, 1000.0 * law.characteristic_time())
    traj = dynamics.integrate(law, r0, 0.0, tau_end * law.characteristic_time())
    assert traj.legs_tiled > 200 and traj.n_steps < 100
    ref_t, ref_x, ref_u, ref_found = solve(accel, x0, u0, tau_end, rtol=1e-12, atol=1e-15)[:4]
    s0, t_char = law.packet.sigma0, law.characteristic_time()
    for t, r, v in zip(traj.t, traj.r, traj.v):
        tau = t / t_char
        j = bisect.bisect_right(ref_t, tau) - 1
        x, u = ref_x[j], ref_u[j]
        if ref_t[j] < tau:
            span = tau - ref_t[j]
            x, u = dop853.solve(accel, x, u, span, min(1e-3, span / 10.0), 1e-12, 1e-15,
                                math.inf, dynamics.MAX_STEPS)[1:3]
            x, u = x[-1], u[-1]
        assert abs(r / s0 - x) <= 5e-7 and abs(v * t_char / s0 - u) <= 5e-7, t
    expected = sorted((tau, dynamics._EVENT_KINDS[i]) for tau, i in ref_found)
    assert [e.kind for e in traj.events] == [kind for _, kind in expected]
    assert max(abs(e.time / t_char - tau) for e, (tau, _) in zip(traj.events, expected)) <= 5e-7


SHORT_RUNS = {
    "gravity-point, no turning point": (GRAVITY_POINT, 1.0, 0.0, 3.0),
    "gravity-point, one turning point": (GRAVITY_POINT, 1.0, 0.0, 6.0),
    "mixed-point, one turning point": (CASES["mixed-point"][0], 0.5, 0.1, 2.0 / math.sqrt(5.0)),
    "gravity-object, one turning point": (CASES["gravity-object"][0], 1.0, 0.2, 5.0),
    "escape": CASES["escape"],
}


@pytest.mark.parametrize("case", sorted(SHORT_RUNS))
def test_run_without_a_second_turning_point_is_stepped_whole(case):
    law, r0, v0, t_end = SHORT_RUNS[case]
    traj = dynamics.integrate(law, r0, v0, t_end)
    taus, xs, us, found, nfev, n_rejected = solve(*in_packet_units(law, r0, v0, t_end))
    s0, t_char = law.packet.sigma0, law.characteristic_time()
    assert len([e for e in traj.events_of(EventKind.V_ZERO) if e.time > 0.0]) <= 1
    assert traj.legs_tiled == 0
    assert (traj.nfev, traj.n_steps, traj.n_rejected) == (nfev, len(taus) - 1, n_rejected)
    assert traj.t.tolist()[:-1] == [tau * t_char for tau in taus[:-1]]
    assert traj.r.tolist() == [x * s0 for x in xs]
    assert traj.v.tolist() == [u * (s0 / t_char) for u in us]
    assert [(e.time, e.kind) for e in traj.events] == sorted(
        (tau * t_char, dynamics._EVENT_KINDS[i]) for tau, i in found)


def test_reversed_legs_repeat_the_stepped_leg_bit_for_bit(long_run):
    # Leg k >= 1 is leg 0 shifted by k L, time-reversed with its velocity
    # negated when k is odd; each leg ends at a turning point, at a v = 0
    # event.  The rows at the turning points differ in v alone, by the
    # round-off of the root of v: leg 0 starts at rest.
    turns = [e.time for e in long_run.events_of(EventKind.V_ZERO)]
    t = long_run.t.tolist()
    bounds = [t.index(turn) for turn in turns[1:]]
    legs = [slice(i, j + 1) for i, j in zip(bounds, bounds[1:])]
    assert len(legs) == long_run.legs_tiled + 1
    r, v, energy = long_run.r.tolist(), long_run.v.tolist(), long_run.energy.tolist()
    r0, v0, e0 = r[legs[0]], v[legs[0]], energy[legs[0]]
    for k, leg in enumerate(legs[1:], 1):
        if k % 2:
            assert r[leg] == r0[::-1], k
            assert v[leg][1:-1] == [-x for x in v0[-2:0:-1]], k
            assert energy[leg][1:-1] == e0[-2:0:-1], k
        else:
            assert r[leg] == r0 and v[leg][1:] == v0[1:] and energy[leg][1:] == e0[1:], k
        assert max(abs(x) for x in (v[leg][0], v[leg][-1])) < 1e-15, k


def test_quarter_period_constant_is_correctly_rounded():
    # The energy integral with r = sigma0 sin(theta), which has no endpoint
    # singularity: expm1(cos^2 / 2) ~ cos^2 / 2 as theta -> pi/2.
    with mpmath.workdps(40):
        c = mpmath.sqrt(2 / mpmath.pi) * mpmath.exp(-0.5)
        quarter = mpmath.quad(
            lambda th: mpmath.cos(th) / mpmath.sqrt(2 * c * mpmath.expm1(mpmath.cos(th) ** 2 / 2)),
            [0, mpmath.pi / 2])
        assert float(quarter) == criticality.QUARTER_PERIOD_POINT


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


def is_a_sign_change(f, x):
    """f is zero at x, or has the opposite sign or a zero at a float
    adjacent to x."""
    fx = f(x)
    return fx == 0.0 or any(min(fx, fy) <= 0.0 <= max(fx, fy)
                            for fy in (f(math.nextafter(x, -math.inf)),
                                       f(math.nextafter(x, math.inf))))


@pytest.mark.parametrize("i", range(len(ROOT_PROBLEMS)))
def test_event_root_is_a_sign_change_within_brentqs_tolerance(i):
    f, a, b = ROOT_PROBLEMS[i]
    root = dop853._root(f, a, b)
    assert a <= root <= b and is_a_sign_change(f, root)
    theirs = brentq(f, a, b, xtol=4 * EPS, rtol=4 * EPS)
    assert abs(root - theirs) <= 4 * EPS * (1.0 + abs(theirs))


def test_triple_root_is_found_to_one_float():
    # Brent's method, scipy's brentq included, does not converge on it in
    # 100 iterations; bisection needs no iteration limit.
    f = lambda x: (x - 0.3) ** 3
    root = dop853._root(f, 0.0, 1.0)
    assert abs(root - 0.3) <= math.ulp(0.3) and is_a_sign_change(f, root)


def test_unbracketed_root_is_an_integration_error():
    with pytest.raises(IntegrationError, match="not bracketed"):
        dop853._root(lambda x: x * x + 1.0, -1.0, 1.0)


def test_step_below_float_spacing_is_an_integration_error(monkeypatch):
    # The gravity-point law stepped with a force that is nan everywhere: every
    # attempt has a nan error estimate and is rejected, so the step shrinks by
    # MIN_FACTOR until it is below the spacing of t.
    monkeypatch.setattr(dynamics, "_force_kernel", lambda *constants: lambda x: math.nan)
    with pytest.raises(IntegrationError, match="spacing of floating-point numbers"):
        dynamics.integrate(GRAVITY_POINT, 1.0, 0.0, 10.0)


def test_stalled_steps_end_at_the_step_budget(monkeypatch):
    # The gravity-point law stepped with a force that is nan wherever r != 1.
    # From r = 1 with v != 0, steps shrink until all of a step's stage points
    # round to r = 1; that step is accepted, the next one rejected, and t
    # advances by about 5e-14 per step.  A smaller budget keeps the test
    # short (the default one is reached in about 10 s); counting the calls
    # makes a missing budget fail the test instead of hanging it.
    budget = 10_000
    monkeypatch.setattr(dynamics, "MAX_STEPS", budget)
    calls = itertools.count()

    def stalling_force(x):
        if next(calls) > 100 * budget:
            raise RuntimeError("integrate kept stepping past its budget")
        return 0.0 if x == 1.0 else math.nan

    monkeypatch.setattr(dynamics, "_force_kernel", lambda *constants: stalling_force)
    with pytest.raises(IntegrationError, match=f"took {budget} steps"):
        dynamics.integrate(GRAVITY_POINT, 1.0, 1e-3, 10.0 * GRAVITY_POINT.characteristic_time())


def test_small_sphere_run_fits_the_step_budget():
    # A sphere with R << sigma0 moves on the time scale t_char (R/sigma0)^1.5,
    # so one characteristic time holds 2,217 samples here, from 40 stepped
    # ones and 128 tiled legs: the budget must not be counted per
    # characteristic time.
    law = ForceLaw(LawKind.GRAVITY_OBJECT, PACKET, Body.sphere(1.0, 0.01 * PACKET.sigma0), CTX)
    traj = dynamics.integrate(law, PACKET.sigma0, 0.0, law.characteristic_time())
    assert traj.t[-1] == law.characteristic_time()
    assert len(traj.t) > 1000 and traj.legs_tiled > 100
    assert traj.energy_drift < 1e-6


def test_tiled_samples_end_at_the_step_budget(monkeypatch):
    # A few stepped legs stand for any number of tiled ones, so the samples
    # are counted before they are built, against the budget of MAX_STEPS
    # steps, MAX_STEPS + 1 samples.  100 characteristic times from rest hold
    # a few hundred samples from fewer than 100 stepped ones.
    n = len(dynamics.integrate(GRAVITY_POINT, 1.0, 0.0, 100.0).t)
    monkeypatch.setattr(dynamics, "MAX_STEPS", n - 1)
    traj = dynamics.integrate(GRAVITY_POINT, 1.0, 0.0, 100.0)
    assert len(traj.t) == n and traj.n_steps < 100 < n

    def build(*args):
        raise AssertionError("the run was tiled past its budget")

    monkeypatch.setattr(dynamics, "MAX_STEPS", n - 2)
    monkeypatch.setattr(dynamics, "_tile", build)
    with pytest.raises(IntegrationError, match=f"would take {n - 1} steps"):
        dynamics.integrate(GRAVITY_POINT, 1.0, 0.0, 100.0)


log_uniform = st.floats(-150.0, 150.0).map(lambda e: 10.0 ** e)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(kind=st.sampled_from(LawKind), m=log_uniform, s0=log_uniform)
@example(kind=LawKind.GRAVITY_POINT, m=1e-111, s0=1e66)     # t_char overflows to inf
def test_integrate_returns_finite_columns_or_a_gravreduce_error(kind, m, s0):
    # One characteristic time from rest at r0 = sigma0, the sphere as wide as
    # the packet; t_end is sqrt(sigma0^3 / G m) in a form that stays finite.
    body = Body.sphere(m, s0) if kind is LawKind.GRAVITY_OBJECT else Body.point(m)
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
    """n laws of each kind, in every unit system, with m, sigma0 and R
    log-uniform in 1e-3..1e3, and radii of each law drawn uniformly in
    [0, 5 sigma0], zero included."""
    rng = random.Random(seed)
    for ctx in CONTEXTS:
        for _ in range(n):
            m, s0, R = (log_uniform(rng, 1e-3, 1e3) for _ in range(3))
            packet = WavePacket(s0)
            radii = [0.0] + [5.0 * s0 * rng.random() for _ in range(24)]
            for law in (ForceLaw(LawKind.GRAVITY_POINT, packet, Body.point(m), ctx),
                        ForceLaw(LawKind.MIXED_POINT, packet, Body.point(m), ctx),
                        ForceLaw(LawKind.GRAVITY_OBJECT, packet, Body.sphere(m, R), ctx)):
                yield law, radii


def entry_points(law):
    """The ``potentials`` functions a law's (force, potential) stands for, at r >= 0:
    a point law's potential is the binding well, the negated self-energy, and
    negation is exact."""
    args = (law.packet, law.body, law.ctx)
    if law.kind is LawKind.GRAVITY_OBJECT:
        return (lambda r: potentials.qg_force_object(r, *args),
                lambda r: potentials.qg_potential_object(r, *args))
    if law.kind is LawKind.GRAVITY_POINT:
        return (lambda r: potentials.qg_force_point(r, *args),
                lambda r: -potentials.qg_potential_point(r, *args))
    return (lambda r: potentials.quantum_force(r, *args) + potentials.qg_force_point(r, *args),
            lambda r: (potentials.quantum_potential(r, *args)
                       - potentials.qg_potential_point(r, *args)))


def test_kernels_equal_the_potentials_entry_points_bit_for_bit():
    checked = 0
    for law, radii in law_draws(7, 10):
        for r in radii:
            force, potential = law.force_at(r), law.potential_at(r)
            assert law.force_at(-r) == -force and law.potential_at(-r) == potential, (law, r)
            want_force, want_potential = entry_points(law)
            assert force == want_force(r) and potential == want_potential(r), (law, r)
            checked += 1
    assert checked == 3 * 3 * 10 * 25


def test_law_from_numpy_scalars_is_the_law_from_floats():
    # The packet and the body store Python floats, so the kernels run on
    # Python arithmetic whatever number type the parameters came as.
    for law, radii in law_draws(17, 3):
        body = law.body
        radius = None if body.radius is None else np.float64(body.radius)
        numpy_body = Body(np.float64(body.mass), body.kind, radius)
        as_numpy = ForceLaw(law.kind, WavePacket(np.float64(law.packet.sigma0)), numpy_body,
                            law.ctx)
        for r in radii:
            for got, want in ((as_numpy.force_at(r), law.force_at(r)),
                              (as_numpy.potential_at(r), law.potential_at(r))):
                assert type(got) is float and got == want, (law, r)


@pytest.mark.parametrize("kind, body", [
    (LawKind.GRAVITY_POINT, Body.sphere(1.0, 1.0)),
    (LawKind.MIXED_POINT, Body.sphere(1.0, 1.0)),
    (LawKind.GRAVITY_OBJECT, Body.point(1.0)),
])
def test_law_for_the_other_body_kind_is_refused_when_built(kind, body):
    with pytest.raises(BodyKindError):
        ForceLaw(kind, PACKET, body, CTX)


@pytest.mark.parametrize("kind, packet, body", [
    (LawKind.GRAVITY_POINT, PACKET, Body.point(1e200)),       # m * m
    (LawKind.MIXED_POINT, PACKET, Body.point(1e200)),
    (LawKind.GRAVITY_OBJECT, WavePacket(1e-2), Body.sphere(1e154, 1.0)),
])
def test_law_with_a_non_finite_constant_is_refused_when_built(kind, packet, body):
    # The products overflow to inf without raising an exception of their own.
    with pytest.raises(DomainError, match="outside the floating-point range"):
        ForceLaw(kind, packet, body, CTX)


# ---------------------------------------------------------------- the packet's units

def test_packet_units_law_is_the_scaled_law():
    # x'' = (t_char^2 / sigma0) F(sigma0 x) / m in every unit system: the
    # two differ only by rounding, at most 4.3 eps of the largest force here.
    for law, radii in law_draws(13, 6):
        s0, t_char = law.packet.sigma0, law.characteristic_time()
        scaled = packet_force(law)
        c = t_char * t_char / (s0 * law.body.mass)
        for r in radii:
            want = c * law.force_at(r)
            assert abs(scaled(r / s0) - want) <= 16 * EPS * c * max(
                abs(law.force_at(x)) for x in radii), (law, r)


def test_integrate_builds_no_law_or_record(monkeypatch):
    # The packet's units are the force kernel's constants: a run builds no
    # second law, nor the body, packet and context such a law would take.
    built = []

    def counted(init):
        def __init__(self, *args, **kwargs):
            built.append(type(self).__name__)
            init(self, *args, **kwargs)
        return __init__

    for record in (ForceLaw, Body, WavePacket, PhysicalContext):
        monkeypatch.setattr(record, "__init__", counted(record.__init__))
    for case in ("gravity-point, v0 != 0", "mixed-point", "gravity-object"):
        traj = dynamics.integrate(*CASES[case])
        assert traj.legs_tiled > 0, case
    assert built == []
    Body.point(1.0)
    assert built == ["Body"]


@pytest.mark.parametrize("law, what", [
    # m sqrt(G m sigma0) underflows to 0
    (ForceLaw(LawKind.MIXED_POINT, PACKET, Body.point(1e-250), CTX),
     "hbar in units of the packet"),
    # R / sigma0 underflows to 0: the radius given is positive, and was once
    # refused as "sphere radius must be positive"
    (ForceLaw(LawKind.GRAVITY_OBJECT, WavePacket(1e100), Body.sphere(1.0, 1e-300), CTX),
     "the radius in units of sigma0"),
])
def test_packet_unit_constant_out_of_range_is_refused(law, what):
    with pytest.raises(DomainError, match=f"^{what} is outside the floating-point range"):
        dynamics.integrate(law, law.packet.sigma0, 0.0, law.characteristic_time())


PROTON_KG, ANGSTROM_M = 1.67262192369e-27, 1e-10


def test_proton_period_is_exact_in_si_and_cgs():
    # A proton at sigma0 = 1 angstrom for 869 characteristic times.  With the
    # absolute tolerance in the user's units, SI took 93 steps to a drift of
    # 0.71 and a period of 25522.03 s; the exact one is 25371.80 s.
    periods = []
    for ctx, m, s0 in ((PhysicalContext.si(), PROTON_KG, ANGSTROM_M),
                       (PhysicalContext.cgs(), 1e3 * PROTON_KG, 1e2 * ANGSTROM_M)):
        law = ForceLaw(LawKind.GRAVITY_POINT, WavePacket(s0), Body.point(m), ctx)
        t_char = law.characteristic_time()
        traj = dynamics.integrate(law, s0, 0.0, 869.0 * t_char)
        exact = 4.0 * criticality.QUARTER_PERIOD_POINT * t_char
        assert exact == pytest.approx(25371.80, abs=0.005)
        period = dynamics.detect_period(traj)
        assert abs(period / exact - 1.0) <= 1e-8
        assert traj.energy_drift < 1e-7
        periods.append(period)
    assert abs(periods[0] / periods[1] - 1.0) <= 1e-9


def test_period_of_a_fast_packet_is_found():
    # 1 kg at sigma0 = 1 fm in SI: every turning point lies within 1e-9 s, so
    # a duplicate window with an absolute floor of 1e-9 merged them all.
    law = ForceLaw(LawKind.GRAVITY_POINT, WavePacket(1e-15), Body.point(1.0), PhysicalContext.si())
    traj = dynamics.integrate(law, 1e-15, 0.0, 1e-16)
    exact = 4.0 * criticality.QUARTER_PERIOD_POINT * law.characteristic_time()
    assert exact == pytest.approx(3.28e-17, rel=1e-3)
    assert abs(dynamics.detect_period(traj) / exact - 1.0) <= 1e-8


def rescaled(law, lam_l, lam_m, lam_t):
    """``law`` with lengths, masses and times in units lam_l, lam_m and lam_t
    times smaller: hbar and G take their dimensions."""
    ctx = PhysicalContext.si(hbar=law.ctx.hbar * lam_m * lam_l * lam_l / lam_t,
                             G=law.ctx.G * lam_l ** 3 / (lam_m * lam_t * lam_t))
    m = law.body.mass * lam_m
    body = (Body.sphere(m, law.body.radius * lam_l) if law.body.is_sphere
            else Body.point(m))
    return ForceLaw(law.kind, WavePacket(law.packet.sigma0 * lam_l), body, ctx)


def si_laws():
    """One law of each kind in SI, with r0 in its bound well: the proton at
    1 angstrom, a sphere as wide as 0.9 of its packet, and a mixed-point mass
    whose gravitational slope at the origin is 200 times the quantum one."""
    ctx, packet = PhysicalContext.si(), WavePacket(ANGSTROM_M)
    s0 = packet.sigma0
    k = 200.0
    mixed_mass = (k * ctx.hbar ** 2 / (4.0 * SQRT_2_OVER_PI * ctx.G * s0)) ** (1 / 3)
    return [(ForceLaw(LawKind.GRAVITY_POINT, packet, Body.point(PROTON_KG), ctx), s0),
            (ForceLaw(LawKind.GRAVITY_OBJECT, packet, Body.sphere(PROTON_KG, 0.9 * s0), ctx),
             1.3 * s0),
            (ForceLaw(LawKind.MIXED_POINT, packet, Body.point(mixed_mass), ctx),
             0.4 * s0 * math.sqrt(2.0 * math.log(k)))]


unit_scale = st.floats(-12.0, 12.0).map(lambda e: 10.0 ** e)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(case=st.sampled_from(range(3)), lam=st.tuples(unit_scale, unit_scale, unit_scale))
def test_integrate_is_invariant_under_a_change_of_units(case, lam):
    # Negative control: with the solver's absolute tolerance in the user's
    # units this fails for every draw of the proton.  Measured here over 45
    # draws: event times agree to 1.7e-11 of the run, periods to 2.2e-10
    # t_char and drifts to 7.8e-11.
    law, r0 = si_laws()[case]
    other = rescaled(law, *lam)
    runs = []
    for lw, x0 in ((law, r0), (other, r0 * lam[0])):
        t_char = lw.characteristic_time()
        t_end = 100.0 * t_char
        traj = dynamics.integrate(lw, x0, 0.0, t_end)
        runs.append(([e.kind for e in traj.events], [e.time / t_end for e in traj.events],
                     dynamics.detect_period(traj) / t_char, traj.energy_drift))
    (kinds, times, period, drift), (kinds2, times2, period2, drift2) = runs
    assert kinds == kinds2
    assert max(abs(a - b) for a, b in zip(times, times2)) <= 1e-9
    assert abs(period - period2) <= 1e-9
    assert drift < 1e-7 and abs(drift - drift2) <= 1e-9


# ---------------------------------------------------------------- reduction times

def test_numeric_tau_is_the_quarter_period_in_every_unit_system():
    # One proton at sigma0 = 1 angstrom, in SI and in CGS: an integrated
    # estimate would depend on the solver's absolute tolerance in each.
    proton_kg, sigma0_m = 1.67262192369e-27, 1e-10
    taus = []
    for ctx, m, s0 in ((PhysicalContext.si(), proton_kg, sigma0_m),
                       (PhysicalContext.cgs(), 1e3 * proton_kg, 1e2 * sigma0_m)):
        method, tau = list(criticality.taus_at(m, s0, ctx).items())[-1]
        assert method is criticality.TauMethod.QUARTER_PERIOD_NUMERIC
        law = ForceLaw(LawKind.GRAVITY_POINT, WavePacket(s0), Body.point(m), ctx)
        exact = criticality.QUARTER_PERIOD_POINT * law.characteristic_time()
        assert abs(tau / exact - 1.0) <= 2 * EPS
        taus.append(tau)
    assert abs(taus[0] / taus[1] - 1.0) <= 4 * EPS


# ---------------------------------------------------------------- object-uncertainty tau

def spread_coefficients():
    """ALPHA_OBJECT and BETA_OBJECT in mpmath, at the working precision."""
    erf, gauss = mpmath.erf(1 / mpmath.sqrt(2)), mpmath.sqrt(2 / mpmath.pi) * mpmath.exp(-0.5)
    return 1.5 * erf - 2 * gauss, 1.5 * (erf - gauss)


def test_object_spread_coefficients_are_correctly_rounded():
    with mpmath.workdps(50):
        alpha, beta = spread_coefficients()
        assert (criticality.ALPHA_OBJECT, criticality.BETA_OBJECT) == (float(alpha), float(beta))


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
            tau = criticality.tau_at(criticality.TauMethod.OBJECT_UNCERTAINTY, m, s0, ctx, R)
            x = mpmath.mpf(s0) / R
            spread = alpha * x ** 2 - beta
            want = ctx.hbar * mpmath.mpf(R) / (ctx.G * mpmath.mpf(m) ** 2 * abs(spread))
            cond = (alpha * x ** 2 + beta) / abs(spread)
            assert abs(tau / want - 1) <= 4 * EPS * cond, (m, s0, R, ctx)
