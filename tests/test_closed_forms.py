"""Property tests of the closed forms, one body for floats and grids.

Every closed form runs on Python float arithmetic: a Python float as it is,
a number that float() converts (an int, a numpy scalar) as that float, and a
``grid.Grid`` element by element; anything else, a numpy array included, is
refused with a ``ParameterTypeError``.  Masses, widths and radii are drawn
log-uniform over 1e-300..1e300.  Every closed form, called with floats, with
np.float64 scalars and with grids, must return finite positive values or
raise a GravreduceError (without a warning), and the numpy-scalar and grid
results must equal the float ones exactly.  Under a change of units each
closed form scales with its dimension, to within a few eps times its
condition number, and so do the numeric routes that the closed forms are the
oracles of: ``expect``, ``qg_potential_numeric`` and the energy
minimization.
"""

import math
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gravreduce import criticality as c
from gravreduce.averages import expect
from gravreduce.core import Body, PhysicalContext, WavePacket
from gravreduce.grid import Grid
from gravreduce.potentials import (classical_kernel, qg_force_object, qg_force_point,
                                   qg_potential_numeric, qg_potential_object,
                                   qg_potential_point, quantum_force, quantum_potential)
from gravreduce.errors import DomainError, GravreduceError, ParameterTypeError

CONTEXTS = [PhysicalContext.dimensionless(), PhysicalContext.si(), PhysicalContext.cgs()]

CLOSED_FORMS = {
    "critical_mass": lambda m, s0, R, ctx: c.critical_mass_at(s0, ctx),
    "force_ratio": lambda m, s0, R, ctx: c.force_ratio_at(m, s0, ctx),
    "regime_index": lambda m, s0, R, ctx: c.regime_index(m, c.critical_mass_at(s0, ctx)),
    "critical_width_point": lambda m, s0, R, ctx: c.critical_width_force_balance_at(m, ctx),
    "force_balance_width_sphere": lambda m, s0, R, ctx: c.critical_width_force_balance_at(m, ctx, R),
    "energy_min_width_point": lambda m, s0, R, ctx: c.critical_width_energy_min_at(m, ctx),
    "energy_min_width_sphere": lambda m, s0, R, ctx: c.critical_width_energy_min_at(m, ctx, R),
    "micro_transition_width": lambda m, s0, R, ctx: c.micro_transition_width_at(m, R, ctx),
}
for _method in c.POINT_CLOSED_FORMS:
    CLOSED_FORMS[f"tau_{_method.value}"] = (
        lambda m, s0, R, ctx, method=_method: c.tau_at(method, m, s0, ctx))
for _method in c.OBJECT_CLOSED_FORMS:
    CLOSED_FORMS[f"tau_{_method.value}"] = (
        lambda m, s0, R, ctx, method=_method: c.tau_at(method, m, s0, ctx, R))
# The reference values, absent (None) where they leave the float range: the
# point ones read the mass alone, the sphere ones the radius too.
for _name in ("karolyhazy_width", "karolyhazy_time"):
    CLOSED_FORMS[f"reference_{_name}"] = (
        lambda m, s0, R, ctx, name=_name: c.reference_formulas(m, ctx)[name])
for _name in ("karolyhazy_object_width", "diosi_macro_width", "diosi_micro_width"):
    CLOSED_FORMS[f"reference_{_name}"] = (
        lambda m, s0, R, ctx, name=_name: c.reference_formulas(m, ctx, R)[name])

log_uniform = st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e)
parameter_sets = st.lists(st.tuples(log_uniform, log_uniform, log_uniform),
                          min_size=1, max_size=6)


def evaluate(fn, *args):
    try:
        return fn(*args)
    except GravreduceError:
        return None


@pytest.mark.parametrize("name", sorted(CLOSED_FORMS))
@settings(max_examples=60, deadline=None, derandomize=True)
@given(sets=parameter_sets, ctx=st.sampled_from(CONTEXTS))
def test_finite_or_gravreduce_error_and_arrays_match_scalars(name, sets, ctx):
    fn = CLOSED_FORMS[name]
    scalars = [evaluate(fn, m, s0, R, ctx) for m, s0, R in sets]
    for value in scalars:
        assert value is None or (type(value) is (int if name == "regime_index" else float)
                                 and math.isfinite(value) and value >= 0)
    m, s0, R = (Grid(list(column), (len(sets),)) for column in zip(*sets))
    grid = evaluate(fn, m, s0, R, ctx)
    if any(value is None for value in scalars):
        assert grid is None
        return
    assert grid is not None and grid.shape == (len(sets),)
    assert grid.values == scalars


@pytest.mark.parametrize("name", sorted(CLOSED_FORMS))
@settings(max_examples=40, deadline=None, derandomize=True)
@given(params=st.tuples(log_uniform, log_uniform, log_uniform), ctx=st.sampled_from(CONTEXTS))
def test_numpy_scalars_take_the_float_path_without_warnings(name, params, ctx):
    # np.float64 subclasses float, but its arithmetic warns where Python's
    # raises: it must run as the Python float it converts to.
    fn = CLOSED_FORMS[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = evaluate(fn, *map(np.float64, params), ctx)
        want = evaluate(fn, *params, ctx)
    assert (value is None) == (want is None)
    assert type(value) is type(want) and value == want


@pytest.mark.parametrize("name", sorted(CLOSED_FORMS))
def test_grids_broadcast_like_the_scalar_loop(name):
    # mass along the first axis and sigma0 along the second of a 3 x 4 grid,
    # the radius a float: row-major over the grid, as itertools.product.
    ctx, R = CONTEXTS[0], 0.7
    masses, widths = [0.3, 1.0, 4.0], [0.2, 0.9, 2.5, 8.0]
    want = [CLOSED_FORMS[name](m, s0, R, ctx) for m in masses for s0 in widths]
    got = CLOSED_FORMS[name](Grid(masses, (3, 1)), Grid(widths, (1, 4)), R, ctx)
    values = list(got.broadcast((3, 4))) if type(got) is Grid else [got] * 12
    assert values == want


NOT_NUMBERS = {"numpy array": np.array([1.0, 2.0]), "one-element numpy array": np.array([1.0]),
               "list": [1.0], "str": "1.0", "complex": 1j,
               "numpy complex": np.complex128(1.0)}


@pytest.mark.parametrize("name", sorted(CLOSED_FORMS))
@pytest.mark.parametrize("bad", NOT_NUMBERS, ids=list(NOT_NUMBERS))
def test_closed_forms_refuse_what_is_not_a_number_or_a_grid(name, bad):
    # Each parameter in turn: refused, or not read by this closed form.
    fn, ctx, message = CLOSED_FORMS[name], CONTEXTS[0], (
        "takes Python floats, numbers that float() converts or gravreduce.grid.Grid values, "
        f"not {type(NOT_NUMBERS[bad]).__name__}")
    refused = 0
    for position in range(3):
        params = [1.0, 1.0, 1.0]
        params[position] = NOT_NUMBERS[bad]
        try:
            got = fn(*params, ctx)
        except ParameterTypeError as exc:
            assert isinstance(exc, GravreduceError) and message in str(exc)
            refused += 1
        else:
            assert got == fn(1.0, 1.0, 1.0, ctx)
    assert refused >= 1


SCALARS = {"int": 2, "np.float32": np.float32(2.0), "np.int64": np.int64(2),
           "Fraction": Fraction(2), "0-d numpy array": np.array(2.0)}


@pytest.mark.parametrize("name", sorted(CLOSED_FORMS))
@pytest.mark.parametrize("number", SCALARS, ids=list(SCALARS))
def test_closed_forms_take_numbers_that_float_converts(name, number):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = CLOSED_FORMS[name](*[SCALARS[number]] * 3, CONTEXTS[0])
    want = CLOSED_FORMS[name](2.0, 2.0, 2.0, CONTEXTS[0])
    assert type(got) is type(want) and got == want


def test_an_int_beyond_the_double_range_is_a_domain_error():
    with pytest.raises(DomainError, match="critical mass is outside the floating-point"):
        c.critical_mass_at(10 ** 400, CONTEXTS[0])


@pytest.mark.parametrize("mass", [1e200, 1e-200])
@pytest.mark.parametrize("ctx", [CONTEXTS[0], PhysicalContext.si(np.float64(1.0), np.float64(1.0))],
                         ids=["float-constants", "numpy-constants"])
def test_numpy_scalar_overflow_is_a_domain_error_without_a_warning(mass, ctx):
    for args in [(mass, 1.0), (np.float64(mass), 1.0), (mass, np.float64(1.0))]:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="force ratio is outside the floating-point"):
                c.force_ratio_at(*args, ctx)


@pytest.mark.parametrize("sigma0", [-1.0, Grid([2.0, -1.0], (2,))], ids=["float", "grid"])
def test_fractional_power_of_a_negative_parameter_is_a_domain_error(sigma0):
    # Python's ** gives a complex there, for a float and in a grid alike.
    with pytest.raises(DomainError, match="critical mass is outside the floating-point"):
        c.critical_mass_at(sigma0, CONTEXTS[0])


def test_scalar_entry_points_return_python_floats():
    # The records store numpy scalars as Python floats.
    for ctx, s0, m, R in [(CONTEXTS[0], 0.5, 2.0, 0.3),
                          (PhysicalContext.si(np.float64(1e-34), np.float64(6e-11)),
                           np.float64(0.5), np.float32(2.0), np.float64(0.3))]:
        packet, point, sphere = WavePacket(s0), Body.point(m), Body.sphere(m, R)
        reports = [c.report_at(body.mass, packet.sigma0, ctx, body.radius)
                   for body in (point, sphere)]
        values = [c.critical_width_energy_min_exact(point, ctx),
                  c.critical_width_energy_min_exact(sphere, ctx),
                  c.micro_transition_width_at(sphere.mass, sphere.radius, ctx),
                  *(v for r in reports for name, v in r.items() if name != "regime"),
                  *c.reference_formulas(sphere.mass, ctx, sphere.radius).values(),
                  *c.taus_at(point.mass, packet.sigma0, ctx, numeric=False).values(),
                  *c.taus_at(sphere.mass, packet.sigma0, ctx, sphere.radius).values()]
        assert all(type(v) is float for v in values)
        assert all(type(r["regime"]) is int for r in reports)


# ---------------------------------------------------------------- change of units

EPS = sys.float_info.epsilon
# Bound on the relative change of an output under a change of units, in eps
# times its condition number.  Measured worst over 2e5 random draws: 1.3.
UNIT_RTOL = 3.0
unit_scale = st.floats(-12.0, 12.0).map(lambda e: 10.0 ** e)
parameter = st.floats(-6.0, 6.0).map(lambda e: 10.0 ** e)
POWER_SUMS = {c.TauMethod.PERIOD_FORMULA: 2.5, c.TauMethod.QUARTER_PERIOD_NUMERIC: 2.5,
              c.TauMethod.SHORT_TIME: 10.0, c.TauMethod.UNCERTAINTY: 5.0,
              c.TauMethod.OBJECT_UNCERTAINTY: 5.0, c.TauMethod.OBJECT_MICRO: 5.0}


def dimensional_outputs(m, s0, R, ctx):
    """name -> (value, dimension, condition number) of each closed form.

    The condition number bounds the output's relative error per unit of
    relative error in its inputs: the sum of the magnitudes of the powers of
    hbar, G, m, sigma0 and R in it.  The critical mass adds its sensitivity
    to its rounded exponent 1/3, |ln(hbar^2 / (G sigma0))| / 3.  The
    object-uncertainty time adds 5 (alpha x^2 + beta) / |alpha x^2 - beta|,
    x = sigma0 / R, for the powers of sigma0 and R in its spread and the
    spread's cancellation.
    """
    x2 = (s0 / R) ** 2
    spread = 5.0 * (c.ALPHA_OBJECT * x2 + c.BETA_OBJECT) / abs(c.ALPHA_OBJECT * x2 - c.BETA_OBJECT)
    out = {}
    for method in c.POINT_METHODS + c.OBJECT_CLOSED_FORMS:
        radius = R if method in c.OBJECT_CLOSED_FORMS else None
        cond = POWER_SUMS[method] + (spread if method is c.TauMethod.OBJECT_UNCERTAINTY else 0.0)
        out[method.value] = (c.tau_at(method, m, s0, ctx, radius), "time", cond)
    out["critical_mass"] = (c.critical_mass_at(s0, ctx), "mass",
                            4.0 / 3.0 + abs(math.log(ctx.hbar ** 2 / (ctx.G * s0))) / 3.0)
    for radius, cond in ((None, 6.0), (R, 2.25)):
        kind = "point" if radius is None else "sphere"
        out[f"force_balance_width_{kind}"] = (
            c.critical_width_force_balance_at(m, ctx, radius), "length", cond)
        out[f"energy_min_width_{kind}"] = (
            c.critical_width_energy_min_at(m, ctx, radius), "length", cond)
    out["micro_transition_width"] = (c.micro_transition_width_at(m, R, ctx), "length", 3.5)
    out["force_ratio"] = (c.force_ratio_at(m, s0, ctx), "none", 7.0)
    return out


@settings(max_examples=300, deadline=None, derandomize=True)
@given(params=st.tuples(parameter, parameter, parameter),
       lam=st.tuples(unit_scale, unit_scale, unit_scale), ctx=st.sampled_from(CONTEXTS))
def test_closed_forms_scale_with_their_dimensions(params, lam, ctx):
    # Lengths, masses and times in units lam_l, lam_m and lam_t times
    # smaller: hbar and G take their dimensions, and no regime moves.
    # Negative controls: sigma0^1.000001 in place of sigma0 in the
    # uncertainty time fails, and so does a bound of 0.5 eps per unit of
    # condition number.
    (m, s0, R), (lam_l, lam_m, lam_t) = params, lam
    rescaled = PhysicalContext.si(hbar=ctx.hbar * lam_m * lam_l * lam_l / lam_t,
                                  G=ctx.G * lam_l ** 3 / (lam_m * lam_t * lam_t))
    m2, s02, R2 = m * lam_m, s0 * lam_l, R * lam_l
    before = dimensional_outputs(m, s0, R, ctx)
    after = dimensional_outputs(m2, s02, R2, rescaled)
    scale = {"time": lam_t, "mass": lam_m, "length": lam_l, "none": 1.0}
    for name, (value, dimension, cond) in before.items():
        got, _, cond2 = after[name]
        want = scale[dimension] * value
        assert abs(got - want) <= UNIT_RTOL * EPS * max(cond, cond2) * want, name
    assert (c.regime_index(m, c.critical_mass_at(s0, ctx))
            == c.regime_index(m2, c.critical_mass_at(s02, rescaled)))


# ---------------------------------------------------------------- numeric routes

# Bound on the change of a numeric route under a change of units, in eps
# times the L1 norm of its integrand (of the width itself, for the
# minimizer).  Measured worst over 8,000 random draws of the test below:
# 13.4 for the mean sphere self-energy, 7.6 for the energy-minimum widths.
NUMERIC_UNIT_RTOL = 32.0
# powers of (lam_m, lam_l, lam_t) in each dimension
DIMENSIONS = {"force": (1, 1, -2), "energy": (1, 2, -2), "length": (0, 1, 0)}


def average(f, packet, ctx, dimension):
    """(value, dimension, L1 norm) of the ``expect`` of ``f``."""
    return (expect(f, packet, ctx).value, dimension,
            expect(lambda r: abs(f(r)), packet, ctx).value)


def numeric_routes(m, s0, R, u, ctx):
    """name -> (value, dimension, scale of its rounding) of the seven means
    ``verify`` checks, the self-energy of both kernels at r = u sigma0 and
    the numeric energy-minimum width of both body kinds."""
    packet, point, sphere = WavePacket(s0), Body.point(m), Body.sphere(m, R)
    observables = {
        "quantum-force": ("force", lambda r: quantum_force(r, packet, point, ctx)),
        "self-gravity-force-point": ("force", lambda r: qg_force_point(r, packet, point, ctx)),
        "quantum-potential": ("energy", lambda r: quantum_potential(r, packet, point, ctx)),
        "self-gravity-potential-point":
            ("energy", lambda r: qg_potential_point(r, packet, point, ctx)),
        "energy-point": ("energy", lambda r: (quantum_potential(r, packet, point, ctx)
                                              + qg_potential_point(r, packet, point, ctx))),
        "self-gravity-potential-object":
            ("energy", lambda r: qg_potential_object(r, packet, sphere, ctx)),
        "self-gravity-force-object": ("force", lambda r: qg_force_object(r, packet, sphere, ctx)),
    }
    out = {f"expect {name}": average(f, packet, ctx, dimension)
           for name, (dimension, f) in observables.items()}
    for body in (point, sphere):
        def kernel(rp, body=body):
            return classical_kernel(rp, body, ctx)
        out[f"self-energy {body.kind.value}"] = (
            qg_potential_numeric(u * s0, kernel, packet, ctx), "energy",
            qg_potential_numeric(u * s0, lambda rp: abs(kernel(rp)), packet, ctx))
        width = c.critical_width_energy_min(body, ctx)
        out[f"energy-min width {body.kind.value}"] = (width, "length", width)
    return out


def unit_violations(routes, params, lam, ctx):
    """Names of the outputs of ``routes`` that do not scale by their
    dimension when lengths, masses and times are measured in units lam_l,
    lam_m and lam_t times smaller, with hbar and G rescaled as in
    :func:`test_closed_forms_scale_with_their_dimensions`."""
    (m, s0, R, u), (lam_l, lam_m, lam_t) = params, lam
    rescaled = PhysicalContext.si(hbar=ctx.hbar * lam_m * lam_l * lam_l / lam_t,
                                  G=ctx.G * lam_l ** 3 / (lam_m * lam_t * lam_t))
    before = routes(m, s0, R, u, ctx)
    after = routes(m * lam_m, s0 * lam_l, R * lam_l, u, rescaled)
    violations = []
    for name, (value, dimension, scale) in before.items():
        p_m, p_l, p_t = DIMENSIONS[dimension]
        factor = lam_m ** p_m * lam_l ** p_l * lam_t ** p_t
        if not abs(after[name][0] - factor * value) <= NUMERIC_UNIT_RTOL * EPS * factor * scale:
            violations.append(name)
    return violations


@settings(max_examples=100, deadline=None, derandomize=True)
@given(params=st.tuples(parameter, parameter, parameter, st.floats(0.05, 4.0)),
       lam=st.tuples(unit_scale, unit_scale, unit_scale), ctx=st.sampled_from(CONTEXTS))
def test_numeric_routes_scale_with_their_dimensions(params, lam, ctx):
    assert unit_violations(numeric_routes, params, lam, ctx) == []


def test_a_dimensionally_inconsistent_mean_breaks_the_scaling():
    # Negative control: the mixed force with sigma0^2 in place of sigma0^4
    # in its quantum term, averaged as a force.
    def sigma0_squared_mixed(m, s0, R, u, ctx):
        packet, point = WavePacket(s0), Body.point(m)

        def force(r):
            return ctx.hbar ** 2 * r / (4.0 * m * s0 ** 2) + qg_force_point(r, packet, point, ctx)
        return {"sigma0^2 mixed force": average(force, packet, ctx, "force")}

    params, ctx = (1.0, 1.0, 1.0, 1.0), CONTEXTS[0]
    assert unit_violations(sigma0_squared_mixed, params, (1e3, 1.0, 1.0), ctx) == [
        "sigma0^2 mixed force"]
    # the same route passes where the change of units leaves lengths alone
    assert unit_violations(sigma0_squared_mixed, params, (1.0, 1e3, 1e-2), ctx) == []
