"""The radial Gauss-Legendre rule behind ``averages.expect`` and
``potentials.qg_potential_numeric``, against ``scipy.integrate.quad`` as an
independent reference (scipy is a test dependency only), on a kinked
integrand that needs bisection, and on parameters and node values that leave
the floating-point range; and its nodes and weights against numpy's
``leggauss`` and 40-digit mpmath."""

import math
import sys
import warnings

import mpmath
import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from scipy.integrate import IntegrationWarning, quad

from gravreduce import averages, potentials
from gravreduce.core import Body, PhysicalContext, WavePacket, density
from gravreduce.errors import DomainError

CTX = PhysicalContext.dimensionless()
NODES_PER_PANEL = potentials.GAUSS_NODES + potentials.COMPARISON_NODES
# Agreement with quad, relative to max(|value|, L1 scale).
QUAD_AGREEMENT = 1e-12


def observables(packet, point, sphere):
    """The seven observables verify averages, by its check names."""
    p = potentials
    return {
        "avg-quantum-force": lambda r: p.quantum_force(r, packet, point, CTX),
        "avg-self-gravity-force-point": lambda r: p.qg_force_point(r, packet, point, CTX),
        "avg-quantum-potential": lambda r: p.quantum_potential(r, packet, point, CTX),
        "avg-self-gravity-potential-point":
            lambda r: p.qg_potential_point(r, packet, point, CTX),
        "avg-energy-point": lambda r: (p.quantum_potential(r, packet, point, CTX)
                                       + p.qg_potential_point(r, packet, point, CTX)),
        "avg-self-gravity-potential-object":
            lambda r: p.qg_potential_object(r, packet, sphere, CTX),
        "avg-self-gravity-force-object": lambda r: p.qg_force_object(r, packet, sphere, CTX),
    }


def quad_reference(fn, packet, upper):
    """quad of density * fn * 4 pi r^2 over [0, upper], and of its absolute value."""
    def integrand(r):
        return density(r, packet) * fn(r) * 4.0 * math.pi * r * r

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        value, _ = quad(integrand, 0.0, upper, epsabs=0.0, epsrel=1e-13, limit=200)
        l1, _ = quad(lambda r: abs(integrand(r)), 0.0, upper, epsabs=0.0, epsrel=1e-6,
                     limit=200)
    return value, l1


def log_uniform(rng, low, high):
    return 10.0 ** rng.uniform(math.log10(low), math.log10(high))


@pytest.mark.parametrize("seed", [101, 202])
def test_expect_matches_quad_on_the_verify_observables(seed):
    # verify draws m, sigma0 and R log-uniform over 1e-3..1e3 for its averages
    rng = np.random.default_rng(seed)
    for _ in range(12):
        m, s0, R = (log_uniform(rng, 1e-3, 1e3) for _ in range(3))
        packet = WavePacket(s0)
        for name, fn in observables(packet, Body.point(m), Body.sphere(m, R)).items():
            got = averages.expect(fn, packet, CTX)
            want, l1 = quad_reference(fn, packet, potentials.TRUNCATION_SIGMAS * s0)
            assert abs(got.value - want) <= QUAD_AGREEMENT * max(abs(want), l1), (name, m, s0, R)
            assert got.neval == NODES_PER_PANEL
            assert got.abs_error_estimate <= 1e-12 * max(abs(want), l1)


@pytest.mark.parametrize("seed", [303, 404])
def test_self_energy_matches_quad_on_both_kernels(seed):
    # verify draws m, sigma0 and R over 1e-2..1e2 and r over 0.05..4 sigma0
    rng = np.random.default_rng(seed)
    for _ in range(25):
        m, s0, R = (log_uniform(rng, 1e-2, 1e2) for _ in range(3))
        r = log_uniform(rng, 0.05, 4.0) * s0
        packet = WavePacket(s0)
        for body in (Body.point(m), Body.sphere(m, R)):
            kernel = lambda rp, body=body: potentials.classical_kernel(rp, body, CTX)
            got = potentials.qg_potential_numeric(r, kernel, packet, CTX)
            want, l1 = quad_reference(kernel, packet, r)
            assert abs(got - want) <= QUAD_AGREEMENT * max(abs(want), l1), (body, s0, r)


# <|r - sigma0|> = sigma0 (2 erf(1/sqrt2) + 4 sqrt(2/pi) e^(-1/2) - 2 sqrt(2/pi) - 1),
# checked against a 40-digit mpmath quadrature split at the kink.
MEAN_ABS_DEVIATION = 0.70537565882158788


@pytest.mark.parametrize("s0", [1e-3, 0.3, 1.0, 25.0])
def test_kinked_observable_takes_the_bisection_path(s0):
    packet = WavePacket(s0)
    got = averages.expect(lambda r: abs(r - s0), packet, CTX)
    # the kink at r = sigma0 is never a panel end: bisection points are
    # dyadic fractions of 12 sigma0
    assert got.neval > NODES_PER_PANEL
    assert got.neval % NODES_PER_PANEL == 0
    assert got.neval <= (2 * potentials.MAX_PANELS - 1) * NODES_PER_PANEL
    assert got.value == pytest.approx(MEAN_ABS_DEVIATION * s0, rel=1e-10)
    assert got.abs_error_estimate <= 1e-12 * got.value


def test_the_node_rule_is_built_once_and_read_only():
    t, w, (u, weights) = potentials._gauss_pair()
    assert potentials._gauss_pair()[0] is t
    assert len(t) == len(w) == len(u) == len(weights) == NODES_PER_PANEL
    assert all(type(a) is tuple for a in (t, w, u, weights))
    # each rule integrates the radial weight of the fixed panel to one
    n = potentials.GAUSS_NODES
    assert [math.fsum(weights[:n]), math.fsum(weights[n:])] == pytest.approx(
        [1.0, 1.0], abs=1e-15)


def mpmath_rule(n):
    """The n-point Gauss-Legendre rule at 40 digits: each root of mpmath's P_n
    from the package's node, and 2 / ((1 - t^2) P_n'(t)^2) at it."""
    nodes, _ = potentials._legendre_rule(n)
    with mpmath.workdps(40):
        roots = [mpmath.findroot(lambda x: mpmath.legendre(n, x), mpmath.mpf(x)) for x in nodes]
        dp = [n * (mpmath.legendre(n - 1, t) - t * mpmath.legendre(n, t)) / (1 - t * t)
              for t in roots]
        weights = [2 / ((1 - t * t) * d * d) for t, d in zip(roots, dp)]
    return roots, weights


@pytest.mark.parametrize("n", [potentials.GAUSS_NODES, potentials.COMPARISON_NODES])
def test_the_node_rule_against_leggauss_and_mpmath(n):
    nodes, weights = potentials._legendre_rule(n)
    roots, exact = mpmath_rule(n)
    # nodes to the last bit or two; numpy's leggauss lies as far from mpmath
    assert max(abs(float(x - t)) for x, t in zip(nodes, roots)) <= 1.2e-16
    assert np.max(np.abs(np.array(nodes) - leggauss(n)[0])) <= 1.2e-16
    # 6.4e-14 bounds 2 / ((1 - t^2) P_n'(t)^2) evaluated at leggauss's nodes;
    # the rule's weights, corrected for the rounding of the node, reach 8e-15
    assert max(abs(float((w - e) / e)) for w, e in zip(weights, exact)) <= 6.4e-14
    assert nodes == tuple(-x for x in reversed(nodes))
    assert weights == tuple(reversed(weights))


def no_warning_call(fn):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return fn()


class TestOutsideTheFloatingPointRange:
    """Parameters where ``quad`` returned -inf or nan."""

    def test_expect_of_an_overflowing_force(self):
        packet, body = WavePacket(1.0), Body.point(1e200)
        with pytest.raises(DomainError, match="outside the floating-point range"):
            no_warning_call(lambda: averages.expect(
                lambda r: potentials.qg_force_point(r, packet, body, CTX), packet, CTX))

    def test_self_energy_of_an_overflowing_kernel(self):
        packet, body = WavePacket(1.0), Body.point(1e200)
        with pytest.raises(DomainError, match="outside the floating-point range"):
            no_warning_call(lambda: potentials.qg_potential_numeric(
                1.0, lambda rp: potentials.classical_kernel(rp, body, CTX), packet, CTX))

    def test_self_energy_of_an_underflowing_kernel_is_zero(self):
        # G m^2 underflows to 0, so the kernel is -0.0 at every node; the
        # true value, about -1e-600, rounds to zero
        packet, body = WavePacket(1e200), Body.point(1e-200)
        got = no_warning_call(lambda: potentials.qg_potential_numeric(
            1e200, lambda rp: potentials.classical_kernel(rp, body, CTX), packet, CTX))
        assert got == 0.0

    def test_overflow_error_in_the_observable(self):
        packet, body = WavePacket(1.0), Body.sphere(1e200, 1.0)
        with pytest.raises(DomainError):
            no_warning_call(lambda: averages.expect(
                lambda r: potentials.qg_force_object(r, packet, body, CTX), packet, CTX))


# Node values that leave the floating-point range, by node index on the
# panel [0, 12 sigma0] where every call below starts; 1.0 at the others.
NODE_VALUES = {
    "nan at one node": {5: math.nan},
    "+inf at one node": {5: math.inf},
    # both in the 48-node rule, whose sum is then inf - inf
    "+inf and -inf at two nodes": {5: math.inf, 40: -math.inf},
}


def observable_with(values):
    nodes = potentials._gauss_pair()[2][0]
    at = {nodes[i]: value for i, value in values.items()}
    return lambda r: at.get(r, 1.0)


@pytest.mark.parametrize("values", NODE_VALUES.values(), ids=NODE_VALUES.keys())
def test_a_node_value_outside_the_range_raises(values):
    # sigma0 = 1 and r = 20 sigma0: the radii are the fixed panel's nodes
    packet = WavePacket(1.0)
    fn = observable_with(values)
    with pytest.raises(DomainError, match="outside the floating-point range"):
        no_warning_call(lambda: averages.expect(fn, packet, CTX))
    with pytest.raises(DomainError, match="outside the floating-point range"):
        no_warning_call(lambda: potentials.qg_potential_numeric(20.0, fn, packet, CTX))


def test_a_sum_that_overflows_raises():
    # The fixed panel's weights sum to 1 + 5.5e-16, so the largest float at
    # every node sums past the range; 1e308 at every node averages to 1e308.
    packet = WavePacket(1.0)
    for call in (lambda fn: averages.expect(fn, packet, CTX).value,
                 lambda fn: potentials.qg_potential_numeric(20.0, fn, packet, CTX)):
        with pytest.raises(DomainError, match="outside the floating-point range"):
            no_warning_call(lambda: call(lambda r: sys.float_info.max))
        assert no_warning_call(lambda: call(lambda r: 1e308)) == pytest.approx(1e308, rel=1e-15)
