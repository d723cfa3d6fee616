"""Command-line front end.

Subcommands:
    critical   regime report (critical mass/width, force ratio, references)
    simulate   integrate a force law, write a t,r,v,energy CSV plus an events sidecar
    tau        all applicable reduction-time estimates
    sweep      grid sweep over mass / sigma0 / radius to CSV or JSON
    verify     run the oracle verification battery

Exit codes: 0 success, 1 verification failure, 2 configuration error,
3 numerical failure.  An output that cannot be written (an empty path or
one in a missing directory, stdout closed early) is a configuration error: one
``error: cannot write ...`` line on stderr, and ``simulate`` then leaves
none of its outputs behind (see ``simulate.run``).  A stderr closed early
leaves the exit code as it is: the error line that cannot be written is
dropped, and the process still exits 2 (or 3 for a numerical failure).
Each option's default, type and choices live in the parser alone.  An
optional ``--config`` file of ``key = value`` lines, which
makes figure-reproduction runs self-documenting, supplies new defaults: its
values become the subcommand's defaults and the command line is parsed again,
so a flag wins over the file.  Keys are option names with ``-`` or ``_``.  A
flag such as ``no_numeric`` or ``quick`` takes ``true``/``yes``/``on`` or
``false``/``no``/``off``.  ``grid`` may be given on several lines, one spec
per line, as ``--grid`` may be repeated; any ``--grid`` on the command line
replaces all of them.  For any other key the last line wins.  Values pass
through the same type and choice checks as the flags they stand for.  A key
the subcommand has no option for is refused, and so is ``config``: the
command line names the one file read.

``critical``, ``simulate``, ``tau`` and ``sweep`` take the unit options
(``--units``, ``--dimensionless``, ``--hbar``, ``--G``), ``--format`` and
the model options (``--mass``, ``--sigma0``, ``--kind``, ``--radius``).
``verify`` takes only ``--perturb``, ``--quick``, ``--out`` and
``--config``.  ``_model`` checks the model options of all four, from the
command line or the config file alike, after ``sweep``'s ``--grid`` specs
and before any other option, in this order.  An option of one body kind
alone is refused with the other (``--X only applies to --kind Y``):
``--radius`` is a sphere's, and ``tau``'s ``--no-numeric``, which leaves
out a point estimate, a point's.  Each of mass, sigma0 and, for a sphere,
radius is fixed by its option or gridded by a ``sweep`` ``--grid`` spec,
never both, and a ``missing required option`` if neither.  Then the ``Body`` or ``WavePacket`` built from each value
checks it: every mass, then every radius, then every sigma0.

``sweep`` writes one row per point of the cartesian product of its grids,
in ``itertools.product`` order: the first ``--grid`` varies slowest.  Input
that no row would use is a configuration error, as is a one-point grid
whose bounds differ.  CSV output starts with a units comment and a header
line; ``--format json`` writes ``{"units", "columns", "rows"}`` exactly as
``json.dumps(..., indent=2)`` would.  Numbers are written with ``repr``,
so they round-trip.  Each column is evaluated once, over just the grid axes
it depends on.  ``critical``, ``tau`` and ``sweep`` all take their values
from ``criticality.report_at`` and ``taus_at``, which run the same Python
float arithmetic on floats and on grids, so a sweep row equals what
``critical`` and ``tau`` print for its parameters, bit for bit, and where
``critical`` refuses a parameter set for one of ``report_at``'s columns, a
one-point sweep refuses it with the same error line.  The last point of a
grid is its upper bound itself, so the last row is that of the bound's own
value.  Two processes write the rows, with the bytes one would write: see
``sweep._write_grid``.  The literature reference values that ``critical``
and ``tau`` print besides (``criticality.reference_formulas``) never refuse
a report: one outside the floating-point range is absent, JSON ``null`` or
an empty CSV value, under its usual key.

No command imports scipy.  ``verify``'s quadrature oracles use the
package's own Gauss-Legendre rule, in Python floats, whose nodes are built on
first use, and
``simulate`` and ``verify``'s energy checks integrate with its own DOP853
stepper, in the packet's units (``--atol`` is in units of sigma0 for r and of
sigma0/t_char for v, and ``simulate`` reports t_char in its ``solver``
block, with the steps and force calls taken, the samples written and the
legs built by time reversal instead of stepped); ``critical``, ``sweep`` and
``tau`` run on the closed forms alone, the quarter period of ``tau``
included: it is an exact constant times the characteristic time.

Each process compiles, builds and imports only what its own command runs.
This module holds the parser, ``main``, the shared helpers and
``critical``, ``tau`` and ``verify``; the ``sweep`` and ``simulate``
modules hold those commands, and ``config`` the ``--config`` reader.  No
module imports this one (under ``python -m`` it is ``__main__``, and an
import would run it twice).  Importing this module loads ``gravreduce``,
``core`` and ``errors``, and a run with ``--config`` adds ``config``,
whatever the command; no other run compiles it.
``critical`` and ``tau`` add ``criticality`` alone, where their closed forms
live, and ``sweep`` adds ``criticality``, ``grid`` and ``sweep``.
``simulate`` adds ``simulate``, ``dynamics``, its stepper ``dop853`` and
``minimize``, whose bisection finds the event roots, and ``potentials`` for
the gravity-object law alone, whose potential it evaluates.  ``verify``
loads every module but ``sweep``, ``grid`` and ``simulate``.  ``json`` is
imported only
where JSON is written, so a CSV run of ``critical``, ``tau`` or ``sweep``
loads none, and ``simulate``, which writes its JSON and its events sidecar
from a template of its own, loads none in either format.  Every subcommand
is registered by name and help, but only the one named on the command line
gets its options.  No
command loads ``dataclasses``, since the package's records are built without
it (see ``core``), so no command loads ``inspect`` either.  Importing
this module and ``criticality`` takes about 19 ms (median ``-X importtime``,
Python 3.11 on a 2-CPU Xeon, no bytecode cache).

No command loads numpy.  The closed forms take Python floats for
``critical`` and ``tau`` and ``grid.Grid`` values, lists of Python floats
over the grid's axes, for ``sweep``; either way they run on Python
arithmetic.  ``simulate``'s stepper and energy column run on Python floats,
and its samples are stdlib ``array('d')``; ``verify``'s quadrature rule, its
parameter draws and its erf grid are Python floats and lists.

``python -m gravreduce.cli`` and the ``gravreduce`` script share one process
entry, ``entry``: it runs ``main``, and once ``main`` returns or raises
(argparse's ``SystemExit`` included) it calls ``gc.freeze()`` and exits with
``main``'s code.  The interpreter's shutdown would otherwise run full
collections over every object the collector tracks, about 12k, most of them
made before the package is imported, and no output depends on that work:
it took 4-6 ms of each 58-145 ms process (medians of fresh processes,
Python 3.11 on a 2-CPU Xeon).  Frozen objects that sit in
reference cycles are not finalized at exit, which loses nothing here: the
package defines no ``__del__``, every file it opens is closed by ``with``,
and ``atexit`` handlers and the flush of stdout still run.  ``main`` itself
leaves the caller's collector alone, enabled or not, frozen or not, so
tests and other in-process callers see the GC state they had.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import os
import sys

from .core import (DEFAULT_ATOL, DEFAULT_RTOL, Body, LawKind, PhysicalContext, UnitSystem,
                   WavePacket)
from .errors import AccuracyError, ConfigError, GravreduceError, IntegrationError

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

def _fmt(x) -> str:
    # repr round-trips doubles, uses lowercase e, and is locale independent.
    # An absent value (None, JSON's null) is an empty CSV value.
    if isinstance(x, float):
        return repr(x)
    return "" if x is None else str(x)


def _context(args) -> PhysicalContext:
    ctx = getattr(PhysicalContext, args.units)()
    return PhysicalContext(ctx.hbar if args.hbar is None else args.hbar,
                           ctx.G if args.G is None else args.G, ctx.unit_system)


def _require(args, *names):
    for name in names:
        if getattr(args, name) is None:
            raise ConfigError(f"missing required option --{name.replace('_', '-')}")


# Each option that applies to one body kind alone, and that kind.
KIND_ONLY = {"radius": "sphere", "no_numeric": "point"}


def _model(args, grids: dict[str, list[float]] | None = None):
    """Each model parameter's values, a grid's or the one its option gives,
    checked as the module docstring says, and the ``Body`` and ``WavePacket``
    of the last values: a single run's own."""
    grids = grids or {}
    for name, kind in KIND_ONLY.items():
        given = getattr(args, name, None)
        # By identity: a radius of 0.0 equals False.
        if args.kind != kind and (name in grids or not (given is None or given is False)):
            raise ConfigError(f"--{name.replace('_', '-')} only applies to --kind {kind}")
    for name in grids:
        if getattr(args, name) is not None:
            raise ConfigError(f"{name} is both fixed (--{name}) and gridded (--grid {name}=...)")
    names = ("mass", "sigma0", "radius") if args.kind == "sphere" else ("mass", "sigma0")
    _require(args, *(name for name in names if name not in grids))
    values = {name: grids.get(name, [getattr(args, name)]) for name in names}
    for m in values["mass"]:
        body = Body.point(m)
    for R in values.get("radius", ()):
        body = Body.sphere(values["mass"][0], R)
    for s0 in values["sigma0"]:
        packet = WavePacket(s0)
    return values, body, packet


@contextlib.contextmanager
def _output(out: str | None):
    """The file ``out``, or stdout where ``out`` is None, to write to.  An
    output that cannot be written, stdout closed early or an empty path
    included, is a ConfigError."""
    try:
        if out is not None:
            with open(out, "w") as fh:
                yield fh
        else:
            yield sys.stdout
            sys.stdout.flush()
    except OSError as exc:
        if out is None and isinstance(exc, BrokenPipeError):
            # What is left in stdout's buffer is flushed at exit: point it at
            # os.devnull, so that the exit prints no second message.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise ConfigError(f"cannot write {'stdout' if out is None else out}: "
                          f"{exc.strerror}") from None


def _fail(line: str, code: int) -> int:
    """Print the error ``line`` on stderr and return ``code``, the exit code,
    also where stderr is closed early."""
    try:
        print(line, file=sys.stderr, flush=True)
    except OSError:
        # As _output does for stdout: what is left in stderr's buffer is
        # flushed at exit, which would fail again and exit 120.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stderr.fileno())
    return code


def _emit(text: str, out: str | None):
    with _output(out) as fh:
        fh.write(text)


def _units_comment(ctx: PhysicalContext) -> str:
    return (f"# units: {ctx.unit_system.value} (hbar={_fmt(ctx.hbar)}, "
            f"G={_fmt(ctx.G)})\n")


def _flatten(payload, prefix=""):
    rows = []
    if isinstance(payload, dict):
        for key, value in payload.items():
            rows.extend(_flatten(value, f"{prefix}{key}." if prefix else f"{key}."))
    elif isinstance(payload, list):
        for i, value in enumerate(payload):
            rows.extend(_flatten(value, f"{prefix}{i}."))
    else:
        rows.append((prefix[:-1], payload))
    return rows


def _emit_mapping(payload: dict, args, ctx: PhysicalContext):
    """JSON, or with --format csv key,value lines of the flattened keys."""
    if args.format == "json":
        import json

        _emit(json.dumps(payload, indent=2) + "\n", args.out)
    else:
        lines = [_units_comment(ctx), "key,value\n"]
        lines += [f"{key},{_fmt(value)}\n" for key, value in _flatten(payload)]
        _emit("".join(lines), args.out)


# ---------------------------------------------------------------- critical

def cmd_critical(args) -> int:
    from . import criticality

    _, body, packet = _model(args)
    ctx = _context(args)
    report = criticality.report_at(body.mass, packet.sigma0, ctx, body.radius)
    method = (criticality.CriticalMethod.FORCE_BALANCE if body.is_point
              else criticality.CriticalMethod.ENERGY_MINIMIZATION)
    payload = {
        "units": ctx.unit_system.value,
        "mass": body.mass,
        "sigma0": packet.sigma0,
        "kind": body.kind.value,
        **report,
        "regime": criticality.REGIMES[report["regime"]].value,
        "method": method.value,
        "reference_values": criticality.reference_formulas(body.mass, ctx, body.radius),
    }
    _emit_mapping(payload, args, ctx)
    return EXIT_OK


# ---------------------------------------------------------------- simulate

def cmd_simulate(args) -> int:
    from . import dynamics, simulate

    if args.kind is None:
        args.kind = "sphere" if args.law == "gravity-object" else "point"
    _, body, packet = _model(args)
    _require(args, "r0", "t_end")
    ctx = _context(args)
    law = dynamics.ForceLaw(LawKind(args.law), packet, body, ctx)
    simulate.run(args, law, _units_comment(ctx), _output)
    return EXIT_OK


# ---------------------------------------------------------------- tau

def cmd_tau(args) -> int:
    from . import criticality

    _, body, packet = _model(args)
    ctx = _context(args)
    taus = criticality.taus_at(body.mass, packet.sigma0, ctx, body.radius,
                               numeric=not args.no_numeric)
    payload = {
        "units": ctx.unit_system.value,
        "estimates": [{"method": method.value, "tau": tau,
                       "assumptions": criticality.ASSUMPTIONS[method]}
                      for method, tau in taus.items()],
        "reference_values": criticality.reference_formulas(body.mass, ctx, body.radius),
    }
    _emit_mapping(payload, args, ctx)
    return EXIT_OK


# ---------------------------------------------------------------- sweep

def cmd_sweep(args) -> int:
    from . import sweep

    if not args.grid:
        raise ConfigError("sweep requires at least one --grid spec")
    grids = sweep.parse_grids(args.grid)
    values, _, _ = _model(args, grids)
    ctx = _context(args)
    sweep.run(args, grids, values, ctx, _units_comment(ctx), _output)
    return EXIT_OK


# ---------------------------------------------------------------- verify

def cmd_verify(args) -> int:
    import json

    from . import verify

    report = verify.run_all(perturb=args.perturb, quick=args.quick)
    _emit(json.dumps(report, indent=2) + "\n", args.out)
    return EXIT_OK if report["passed"] else EXIT_VERIFY_FAILED


# ---------------------------------------------------------------- parser

def _add_model(p, fmt: str, kind: str | None = "point"):
    """The unit, --format and body options of every subcommand but verify."""
    p.add_argument("--units", choices=[u.value for u in UnitSystem], default="dimensionless",
                   help="unit system (default: %(default)s)")
    p.add_argument("--dimensionless", dest="units", action="store_const",
                   const="dimensionless", help="shorthand for --units dimensionless")
    p.add_argument("--hbar", type=float,
                   help="override hbar (default: the unit system's value)")
    p.add_argument("--G", type=float, help="override G (default: the unit system's value)")
    p.add_argument("--format", choices=["csv", "json"], default=fmt,
                   help="output format (default: %(default)s)")
    p.add_argument("--mass", type=float, help="body mass (no default)")
    p.add_argument("--sigma0", type=float, help="initial packet width (no default)")
    p.add_argument("--kind", choices=["point", "sphere"], default=kind, help=(
        f"body kind (default: {kind or 'sphere for --law gravity-object, else point'})"))
    p.add_argument("--radius", type=float,
                   help="sphere radius, --kind sphere only (no default)")


def _critical_options(p):
    _add_model(p, "json")


def _simulate_options(p):
    _add_model(p, "csv", kind=None)
    p.add_argument("--law", choices=[law.value for law in LawKind],
                   default="gravity-point", help="force law (default: %(default)s)")
    p.add_argument("--r0", type=float, help="initial position (no default)")
    p.add_argument("--v0", type=float, default=0.0, help="initial velocity (default: 0)")
    p.add_argument("--t-end", dest="t_end", type=float, help="end time (no default)")
    p.add_argument("--rtol", type=float, default=DEFAULT_RTOL,
                   help="solver relative tolerance (default: %(default)s)")
    p.add_argument("--atol", type=float, default=DEFAULT_ATOL,
                   help="solver absolute tolerance, in units of sigma0 for r and of "
                        "sigma0/t_char for v, t_char = sqrt(sigma0^3/(G m)) "
                        "(default: %(default)s)")
    p.add_argument("--gnuplot-script",
                   help="also write a gnuplot script plotting the CSV written to --out "
                        "(default: none)")


def _tau_options(p):
    _add_model(p, "json")
    p.add_argument("--no-numeric", action="store_true",
                   help="leave out the quarter-period-numeric estimate, "
                        "--kind point only (default: off)")


def _sweep_options(p):
    _add_model(p, "csv")
    p.add_argument("--grid", action="append", metavar="VAR=LO:HI:N[:log|lin]",
                   help="sweep variable (repeatable; cartesian product; no default)")


def _verify_options(p):
    p.add_argument("--perturb", type=float, default=0.0,
                   help="inject a relative perturbation into closed forms "
                        "(negative control; default: 0)")
    p.add_argument("--quick", action="store_true",
                   help="smaller sample counts (default: off)")


# Each subcommand: what it runs, what adds its own options, and its help.
SUBCOMMANDS = {
    "critical": (cmd_critical, _critical_options,
                 {"help": "critical mass/width and regime report"}),
    "simulate": (cmd_simulate, _simulate_options, {"help": "integrate a force law to CSV"}),
    "tau": (cmd_tau, _tau_options, {"help": "reduction-time estimates"}),
    "sweep": (cmd_sweep, _sweep_options, {
        "help": "grid sweep to CSV or JSON",
        "description": "One row per point of the cartesian product of the --grid specs, "
                       "the first --grid varying slowest.  CSV by default, or "
                       "{units, columns, rows} with --format json.  Each value is "
                       "the one critical or tau gives for its row."}),
    "verify": (cmd_verify, _verify_options, {"help": "run the oracle verification battery"}),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser with the options of every subcommand, or of ``command`` alone.

    Every subcommand is registered by name and help either way, so the
    top-level help and the errors for a missing or unknown subcommand are the
    same; a subcommand without its options is never the one that is parsed.
    """
    parser = argparse.ArgumentParser(
        prog="gravreduce",
        description="Self-gravitating Gaussian packets: critical scales, "
                    "trajectories, and reduction times.")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (fn, add_options, kwargs) in SUBCOMMANDS.items():
        p = subs.add_parser(name, **kwargs)
        if command is None or command == name:
            # --out and --config, which every subcommand takes, come first.
            p.set_defaults(fn=fn, parser=p)
            p.add_argument("--out", help="output path (default: stdout)")
            p.add_argument("--config", help="key = value file of option defaults; "
                                            "flags take precedence (default: none)")
            add_options(p)
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # The top-level parser takes no option with a value, so the subcommand
    # argparse runs is the first argument that is not an option.
    parser = build_parser(next((arg for arg in argv if not arg.startswith("-")), None))
    args = parser.parse_args(argv)
    try:
        if args.config is not None:
            from . import config

            args.parser.set_defaults(**config.defaults(args))
            args = parser.parse_args(argv)
        return args.fn(args)
    except (IntegrationError, AccuracyError) as exc:
        return _fail(f"numerical failure: {exc}", EXIT_NUMERIC)
    except GravreduceError as exc:
        return _fail(f"error: {exc}", EXIT_CONFIG)


def entry():
    """The process entry of ``python -m gravreduce.cli`` and of the
    ``gravreduce`` script: ``main`` on ``sys.argv``, the heap frozen once it
    returns or raises (argparse's ``SystemExit`` included), then the exit with
    its code.  See the module docstring."""
    try:
        code = main()
    finally:
        gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entry()
