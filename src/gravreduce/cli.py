"""Command-line front end.

Subcommands:
    critical   regime report (critical mass/width, force ratio, references)
    simulate   integrate a force law, write a t,r,v,energy CSV plus an events sidecar
    tau        all applicable reduction-time estimates
    sweep      grid sweep over mass / sigma0 / radius to CSV or JSON
    verify     run the oracle verification battery

Exit codes: 0 success, 1 verification failure, 2 configuration error,
3 numerical failure.  Each option's default, type and choices live in the
parser alone.  An optional ``--config`` file of ``key = value`` lines, which
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
the body options (``--mass``, ``--sigma0``, ``--kind``, ``--radius``).
``verify`` takes only ``--perturb``, ``--quick``, ``--out`` and
``--config``.

``sweep`` writes one row per point of the cartesian product of its grids,
in ``itertools.product`` order: the first ``--grid`` varies slowest.  CSV
output starts with a units comment and a header line; ``--format json``
writes ``{"units", "columns", "rows"}`` exactly as ``json.dumps(..., indent=2)``
would.  Numbers are written with ``repr``, so they round-trip.  The columns
are evaluated as numpy arrays, one broadcast over the grid, so a value may
differ from the scalar closed form (``critical``, ``tau``) in its last
digits, by at most 1e-12 relative; the regime labels are the same.

No command imports scipy.  ``verify``'s quadrature oracles use the
package's own Gauss-Legendre rule, whose nodes are built on first use, and
``simulate`` and ``verify``'s energy checks integrate with its own DOP853
stepper, in the packet's units (``--atol`` is in units of sigma0 for r and of
sigma0/t_char for v, and ``simulate`` reports t_char in its ``solver``
block, with the steps and force calls taken, the samples written and the
legs built by time reversal instead of stepped); ``critical``, ``sweep`` and
``tau`` run on the closed forms alone, the quarter period of ``tau``
included: it is an exact constant times the characteristic time.

Each command imports the package modules it runs and no others, so that a
short command does not compile code it never calls.  Importing this module
loads ``gravreduce``, ``core`` and ``errors``.  ``critical``, ``tau`` and
``sweep`` add ``criticality`` alone, where the closed forms of all three
live.  ``simulate`` adds ``dynamics`` and its stepper ``dop853``, and
``potentials`` for the gravity-object law alone, whose potential it
evaluates.  ``verify`` loads every module.  No command loads
``dataclasses``, since the package's records are built without it (see
``core``), so ``critical``, ``tau`` and ``simulate`` load no ``inspect``
either; ``sweep`` and ``verify`` load it with numpy.  Importing this module
and ``criticality`` takes about 27 ms instead of 45 (median ``-X importtime``,
Python 3.11 on a 2-CPU Xeon, no bytecode cache).

Only the commands that build arrays load numpy: ``sweep``, whose closed forms
broadcast over its grid, and ``verify``, with its battery.  ``critical``,
``tau`` and ``simulate`` load no numpy.  The closed forms of ``critical`` and
``tau`` take Python floats and run on Python arithmetic, the same code that
runs on numpy for ``sweep``'s arrays; ``simulate``'s stepper and energy column
run on Python floats, and its samples are stdlib ``array('d')``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
from pathlib import Path

from .core import DEFAULT_ATOL, DEFAULT_RTOL, Body, LawKind, PhysicalContext, WavePacket
from .errors import AccuracyError, GravreduceError, InsufficientDataError, IntegrationError

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

# Config keys of action="append" options: each line adds one value.  argparse
# appends command-line values onto a list default, so the file's lines become
# the default only when the command line has none.
REPEATABLE = frozenset({"grid"})
TRUE_WORDS = ("true", "yes", "on")
FALSE_WORDS = ("false", "no", "off")
# Rows joined per write when a sweep is streamed to its output.
SWEEP_ROWS_PER_WRITE = 4096


class ConfigError(GravreduceError, ValueError):
    """Invalid command-line / config-file input."""


def _fmt(x) -> str:
    # repr round-trips doubles, uses lowercase e, and is locale independent.
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _parse_config_file(path: str) -> dict[str, list[str]]:
    """Every value of each key, in file order."""
    values: dict[str, list[str]] = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        values.setdefault(key.strip().replace("-", "_"), []).append(value.strip())
    return values


def _typed(action: argparse.Action, key: str, raw: str):
    """A config value converted and checked as its command-line flag would be."""
    if action.nargs == 0:      # store_true flag
        word = raw.lower()
        if word in TRUE_WORDS or word in FALSE_WORDS:
            return word in TRUE_WORDS
        raise ConfigError(f"config key {key} takes true or false, not {raw!r}")
    value = raw
    if action.type is not None:
        try:
            value = action.type(raw)
        except (TypeError, ValueError):
            raise ConfigError(f"config key {key} takes a {action.type.__name__}, "
                              f"not {raw!r}") from None
    if action.choices is not None and value not in action.choices:
        raise ConfigError(f"config key {key} takes one of {', '.join(action.choices)}, "
                          f"not {raw!r}")
    return value


def _config_defaults(args: argparse.Namespace) -> dict:
    """The --config file's values, typed, as defaults for the subcommand's parser."""
    actions: dict[str, argparse.Action] = {}
    for action in args.parser._actions:
        actions.setdefault(action.dest, action)
    defaults = {}
    for key, raws in _parse_config_file(args.config).items():
        if key not in actions or not hasattr(args, key):
            raise ConfigError(f"unknown config key: {key}")
        if key == "config":
            raise ConfigError("config key config is refused: a config file cannot name another")
        action = actions[key]
        if key not in REPEATABLE:
            defaults[key] = _typed(action, key, raws[-1])
        elif getattr(args, key) is None:
            defaults[key] = [_typed(action, key, raw) for raw in raws]
    return defaults


def _context(args) -> PhysicalContext:
    ctx = getattr(PhysicalContext, args.units)()
    return PhysicalContext(ctx.hbar if args.hbar is None else args.hbar,
                           ctx.G if args.G is None else args.G, ctx.unit_system)


def _require(args, *names):
    for name in names:
        if getattr(args, name) is None:
            raise ConfigError(f"missing required option --{name.replace('_', '-')}")


def _body(args) -> Body:
    if args.kind == "point":
        if args.radius is not None:
            raise ConfigError("--radius only applies to --kind sphere")
        return Body.point(args.mass)
    if args.radius is None:
        raise ConfigError("--kind sphere requires --radius")
    return Body.sphere(args.mass, args.radius)


def _emit(text: str, out: str | None):
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


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
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
    else:
        lines = [_units_comment(ctx), "key,value\n"]
        lines += [f"{key},{_fmt(value)}\n" for key, value in _flatten(payload)]
        _emit("".join(lines), args.out)


# ---------------------------------------------------------------- critical

def cmd_critical(args) -> int:
    from . import criticality

    _require(args, "mass", "sigma0")
    ctx = _context(args)
    body = _body(args)
    packet = WavePacket(args.sigma0)
    report = criticality.classify_regime(packet, body, ctx)
    payload = {
        "units": ctx.unit_system.value,
        "mass": body.mass,
        "sigma0": packet.sigma0,
        "kind": body.kind.value,
        "critical_mass": report.critical_mass,
        "critical_width_force_balance": criticality.critical_width_force_balance(body, ctx),
        "critical_width_energy_min": criticality.critical_width_energy_min_exact(body, ctx),
        "force_ratio": report.force_ratio,
        "regime": report.regime.value,
        "method": report.method.value,
        "reference_values": report.reference_values,
    }
    _emit_mapping(payload, args, ctx)
    return EXIT_OK


# ---------------------------------------------------------------- simulate

def _gnuplot_script(csv_path: str) -> str:
    return (
        "set datafile separator ','\n"
        "set xlabel 't'\n"
        "set ylabel 'r(t)'\n"
        f"plot '{csv_path}' every ::1 using 1:2 with lines title 'r(t)'\n"
    )


class _Reprs(dict):
    """repr of each float looked up; a missing value, such as a zero left out
    of the table, is formatted on each lookup."""

    def __missing__(self, x):
        return repr(x)


def _sample_columns(traj) -> list[list[str]]:
    """The repr of every t, r, v and energy sample of the ``dynamics.Trajectory``
    ``traj``, one list per column.  Tiled legs repeat r, |v| and the energy bit
    for bit, so each of their distinct values is formatted once; every t is
    distinct.  0.0 and -0.0 are one dict key, and a reversed leg ends on
    v = -0.0, so zeros are formatted apart."""
    columns = [list(map(repr, traj.t.tolist()))]
    for values in (traj.r, traj.v, traj.energy):
        values = values.tolist()
        table = _Reprs({x: repr(x) for x in set(values) if x})
        columns.append(list(map(table.__getitem__, values)))
    return columns


def _trajectory_csv(columns: list[list[str]], ctx: PhysicalContext) -> str:
    """Units comment, header and one t,r,v,energy row per sample."""
    return (_units_comment(ctx) + "t,r,v,energy\n"
            + "\n".join(map(",".join, zip(*columns))) + "\n")


def _trajectory_json(payload: dict, columns: list[list[str]]) -> str:
    """``payload`` with a last key ``samples`` of the t, r, v and energy
    columns, exactly as ``json.dumps(..., indent=2)`` writes it, with the
    samples spliced in from their reprs."""
    head = json.dumps({**payload, "samples": {}}, indent=2)
    lists = [f'    "{name}": [\n      ' + ",\n      ".join(column) + "\n    ]"
             for name, column in zip(("t", "r", "v", "energy"), columns)]
    return head.removesuffix("{}\n}") + "{\n" + ",\n".join(lists) + "\n  }\n}\n"


def cmd_simulate(args) -> int:
    from . import dynamics

    _require(args, "mass", "sigma0", "r0", "t_end")
    if args.gnuplot_script and not (args.out and args.format == "csv"):
        raise ConfigError("--gnuplot-script plots the CSV written to --out: "
                          "it needs --out and --format csv")
    ctx = _context(args)
    if args.kind is None:
        args.kind = "sphere" if args.law == "gravity-object" else "point"
    body = _body(args)
    packet = WavePacket(args.sigma0)
    law = dynamics.ForceLaw(LawKind(args.law), packet, body, ctx)
    traj = dynamics.integrate(law, r0=args.r0, v0=args.v0, t_end=args.t_end,
                              rtol=args.rtol, atol=args.atol)
    try:
        period = dynamics.detect_period(traj)
    except InsufficientDataError:
        period = None

    sidecar = {
        "law": law.kind.value,
        "events": [{"time": e.time, "kind": e.kind.value} for e in traj.events],
        "period": period,
        "energy_drift": traj.energy_drift,
        "solver": {"method": dynamics.SOLVER_METHOD, "rtol": args.rtol, "atol": args.atol,
                   "t_char": law.characteristic_time(), "nfev": traj.nfev,
                   "steps": traj.n_steps, "rejected": traj.n_rejected,
                   "samples": len(traj.t), "legs_tiled": traj.legs_tiled},
    }
    columns = _sample_columns(traj)
    if args.format == "json":
        _emit(_trajectory_json({**sidecar, "units": ctx.unit_system.value}, columns), args.out)
    else:
        _emit(_trajectory_csv(columns, ctx), args.out)
        if args.out:
            Path(str(args.out) + ".events.json").write_text(
                json.dumps(sidecar, indent=2) + "\n")
    if args.gnuplot_script:
        Path(args.gnuplot_script).write_text(_gnuplot_script(args.out))
    return EXIT_OK


# ---------------------------------------------------------------- tau

def cmd_tau(args) -> int:
    from . import criticality

    _require(args, "mass", "sigma0")
    ctx = _context(args)
    body = _body(args)
    packet = WavePacket(args.sigma0)
    estimates = criticality.tau_estimates(packet, body, ctx,
                                          include_numeric=not args.no_numeric)
    payload = {
        "units": ctx.unit_system.value,
        "estimates": [{"method": e.method.value, "tau": e.tau,
                       "assumptions": e.assumptions} for e in estimates],
        "reference_values": criticality.reference_formulas(body, packet, ctx),
    }
    _emit_mapping(payload, args, ctx)
    return EXIT_OK


# ---------------------------------------------------------------- sweep

def _parse_grid(spec: str):
    name, _, rest = spec.partition("=")
    name = name.strip().replace("-", "_")
    if name not in ("mass", "sigma0", "radius"):
        raise ConfigError(f"grid variable must be mass, sigma0 or radius: {name!r}")
    parts = rest.split(":")
    if len(parts) not in (3, 4):
        raise ConfigError(f"grid spec must be lo:hi:n[:log|lin]: {spec!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
        n = int(parts[2])
    except ValueError as exc:
        raise ConfigError(f"bad grid spec {spec!r}: {exc}") from None
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ConfigError(f"grid bounds must be finite: {spec!r}")
    spacing = parts[3].lower() if len(parts) == 4 else "log"
    if n < 1:
        raise ConfigError("grid must contain at least one point")
    if n > 1 and not lo < hi:
        raise ConfigError("grid requires lo < hi")
    if spacing not in ("log", "lin"):
        raise ConfigError(f"grid spacing must be log or lin: {spacing!r}")
    if spacing == "log" and lo <= 0:
        raise ConfigError("log spacing requires positive bounds")
    if n == 1:
        values = [lo]
    elif spacing == "log":
        ratio = math.log(hi / lo) / (n - 1)
        values = [lo * math.exp(ratio * i) for i in range(n)]
    else:
        step = (hi - lo) / (n - 1)
        values = [lo + step * i for i in range(n)]
    return name, values


def _sweep_axes(args, grids: dict[str, list[float]], sphere: bool) -> dict:
    """mass, sigma0 and (for spheres) radius: a fixed float, or a grid's values
    as an array along that grid's own broadcast dimension."""
    import numpy as np

    fixed = {"mass": args.mass, "sigma0": args.sigma0, "radius": args.radius}
    for name in ("mass", "sigma0"):
        if name not in grids and fixed[name] is None:
            raise ConfigError(f"sweep needs {name} fixed or gridded")
    if sphere and "radius" not in grids and fixed["radius"] is None:
        raise ConfigError("sphere sweep needs radius fixed or gridded")
    # Body and WavePacket hold the validation; every row's parameters are
    # drawn from these values.
    values = {name: grids.get(name, [fixed[name]]) for name in fixed}
    for m in values["mass"]:
        Body.point(m)
    if sphere:
        for R in values["radius"]:
            Body.sphere(values["mass"][0], R)
    for s0 in values["sigma0"]:
        WavePacket(s0)

    names = list(grids)
    axes = {}
    for name in ("mass", "sigma0", "radius") if sphere else ("mass", "sigma0"):
        if name in grids:
            i = names.index(name)
            axes[name] = np.reshape(grids[name], [-1 if j == i else 1 for j in range(len(names))])
        else:
            axes[name] = fixed[name]
    return axes


def _sweep_columns(axes: dict, ctx: PhysicalContext, sphere: bool) -> dict:
    """Every sweep column, each evaluated once at the shape of the axes it depends on."""
    from . import criticality

    m, s0, R = axes["mass"], axes["sigma0"], axes.get("radius")
    m_c = criticality.critical_mass_at(s0, ctx)
    columns = dict(axes)
    columns.update({
        "critical_mass": m_c,
        "critical_width_force_balance": criticality.critical_width_force_balance_at(m, ctx, R),
        "critical_width_energy_min": criticality.critical_width_energy_min_at(m, ctx, R),
        "force_ratio": criticality.force_ratio_at(m, s0, ctx),
        "regime": criticality.regime_index(m, m_c),
    })
    methods = criticality.OBJECT_CLOSED_FORMS if sphere else criticality.POINT_CLOSED_FORMS
    for method in methods:
        name = f"tau_{method.value.replace('-', '_')}"
        columns[name] = criticality.tau_at(method, m, s0, ctx, R)
    return columns


def _write_rows(fh, cells: list, first: str, sep: str, last: str, between: str):
    """Stream rows first + sep.join(row) + last, separated by ``between``.

    ``cells`` holds one grid-shaped (broadcast) string array per column; only
    one block of rows is materialized at a time.
    """
    for start in range(0, cells[0].size, SWEEP_ROWS_PER_WRITE):
        stop = start + SWEEP_ROWS_PER_WRITE
        block = zip(*(col.flat[start:stop].tolist() for col in cells))
        text = between.join(first + sep.join(row) + last for row in block)
        fh.write(text if start == 0 else between + text)


@contextlib.contextmanager
def _output(out: str | None):
    if out:
        with open(out, "w") as fh:
            yield fh
    else:
        yield sys.stdout


def cmd_sweep(args) -> int:
    import numpy as np

    from . import criticality

    if not args.grid:
        raise ConfigError("sweep requires at least one --grid spec")
    grids = dict(_parse_grid(spec) for spec in args.grid)
    sphere = args.kind == "sphere"
    ctx = _context(args)
    axes = _sweep_axes(args, grids, sphere)
    shape = tuple(len(values) for values in grids.values())

    as_json = args.format == "json"
    labels = [r.value for r in criticality.REGIMES]
    if as_json:
        labels = [json.dumps(label) for label in labels]
    cells = []       # per column, its strings broadcast (a view) to the grid shape
    try:
        columns = _sweep_columns(axes, ctx, sphere)
        for name, values in columns.items():
            if name == "regime":
                text = np.array(labels, dtype=object)[values]
            else:
                # Each distinct value is formatted once, then broadcast.  tolist()
                # gives Python floats, whose repr numpy 2 does not decorate.
                values = np.asarray(values)
                text = np.array([repr(x) for x in values.ravel().tolist()],
                                dtype=object).reshape(values.shape)
            cells.append(np.broadcast_to(text, shape))
    except MemoryError:
        raise ConfigError(f"the sweep grid has {math.prod(shape)} rows, and its columns "
                          "do not fit in memory") from None

    with _output(args.out) as fh:
        if as_json:
            head = json.dumps({"units": ctx.unit_system.value, "columns": list(columns),
                               "rows": []}, indent=2)
            fh.write(head.removesuffix("[]\n}") + "[\n")
            _write_rows(fh, cells, "    [\n      ", ",\n      ", "\n    ]", ",\n")
            fh.write("\n  ]\n}\n")
        else:
            fh.write(_units_comment(ctx) + ",".join(columns) + "\n")
            _write_rows(fh, cells, "", ",", "\n", "")
    return EXIT_OK


# ---------------------------------------------------------------- verify

def cmd_verify(args) -> int:
    from . import verify

    report = verify.run_all(perturb=args.perturb, quick=args.quick)
    _emit(json.dumps(report, indent=2) + "\n", args.out)
    return EXIT_OK if report["passed"] else EXIT_VERIFY_FAILED


# ---------------------------------------------------------------- parser

def _subcommand(subs, name, fn, **kwargs):
    """A subparser that runs fn, with the --out and --config every subcommand takes."""
    p = subs.add_parser(name, **kwargs)
    p.set_defaults(fn=fn, parser=p)
    p.add_argument("--out", help="output path (default: stdout)")
    p.add_argument("--config", help="key = value file of option defaults; "
                                    "flags take precedence (default: none)")
    return p


def _add_model(p, fmt: str, kind: str | None = "point"):
    """The unit, --format and body options of every subcommand but verify."""
    p.add_argument("--units", choices=["si", "cgs", "dimensionless"], default="dimensionless",
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gravreduce",
        description="Self-gravitating Gaussian packets: critical scales, "
                    "trajectories, and reduction times.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = _subcommand(subs, "critical", cmd_critical,
                    help="critical mass/width and regime report")
    _add_model(p, "json")

    p = _subcommand(subs, "simulate", cmd_simulate, help="integrate a force law to CSV")
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

    p = _subcommand(subs, "tau", cmd_tau, help="reduction-time estimates")
    _add_model(p, "json")
    p.add_argument("--no-numeric", action="store_true",
                   help="leave out the quarter-period-numeric estimate (default: off)")

    p = _subcommand(
        subs, "sweep", cmd_sweep, help="grid sweep to CSV or JSON",
        description="One row per point of the cartesian product of the --grid specs, "
                    "the first --grid varying slowest.  CSV by default, or "
                    "{units, columns, rows} with --format json.  Values are "
                    "evaluated as arrays and agree with the scalar closed forms "
                    "to 1e-12 relative.")
    _add_model(p, "csv")
    p.add_argument("--grid", action="append", metavar="VAR=LO:HI:N[:log|lin]",
                   help="sweep variable (repeatable; cartesian product; no default)")

    p = _subcommand(subs, "verify", cmd_verify, help="run the oracle verification battery")
    p.add_argument("--perturb", type=float, default=0.0,
                   help="inject a relative perturbation into closed forms "
                        "(negative control; default: 0)")
    p.add_argument("--quick", action="store_true",
                   help="smaller sample counts (default: off)")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            args.parser.set_defaults(**_config_defaults(args))
            args = parser.parse_args(argv)
        return args.fn(args)
    except (IntegrationError, AccuracyError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except GravreduceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
