"""Command-line front end.

Subcommands:
    critical   regime report (critical mass/width, force ratio, references)
    simulate   integrate a force law, write a t,r,v,energy CSV plus an events sidecar
    tau        all applicable reduction-time estimates
    sweep      grid sweep over mass / sigma0 / radius to CSV or JSON
    verify     run the oracle verification battery

Exit codes: 0 success, 1 verification failure, 2 configuration error,
3 numerical failure.  Flags override values from an optional ``--config``
file of ``key = value`` lines, which makes figure-reproduction runs
self-documenting.  Keys are option names with ``-`` or ``_``.  A flag such as
``no_numeric`` or ``quick`` takes ``true``/``yes``/``on`` or
``false``/``no``/``off``.  ``grid`` may be given on several lines, one spec
per line, as ``--grid`` may be repeated; any ``--grid`` on the command line
replaces all of them.  For any other key the last line wins.  Values pass
through the same type and choice checks as the flags they stand for.

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
``simulate`` and the numeric quarter-period ``tau`` integrate with its own
Dormand-Prince stepper; ``critical``, ``sweep`` and the closed-form ``tau``
run on the closed forms alone.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import criticality, dynamics, verify
from .core import Body, PhysicalContext, UnitSystem, WavePacket
from .errors import (AccuracyError, DomainError, GravreduceError,
                     InsufficientDataError, IntegrationError)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

# Config keys of action="append" options: each line adds one value.
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


def _apply_config(args: argparse.Namespace):
    if not getattr(args, "config", None):
        return
    actions: dict[str, argparse.Action] = {}
    for action in args.parser._actions:
        actions.setdefault(action.dest, action)
    for key, raws in _parse_config_file(args.config).items():
        if key not in actions or not hasattr(args, key):
            raise ConfigError(f"unknown config key: {key}")
        if getattr(args, key) is not None:
            continue
        action = actions[key]
        if key in REPEATABLE:
            setattr(args, key, [_typed(action, key, raw) for raw in raws])
        else:
            setattr(args, key, _typed(action, key, raws[-1]))


def _context(args) -> PhysicalContext:
    units = (args.units or "dimensionless").lower()
    try:
        system = UnitSystem(units)
    except ValueError:
        raise ConfigError(f"unknown unit system: {units}") from None
    if system is UnitSystem.SI:
        ctx = PhysicalContext.si()
    elif system is UnitSystem.CGS:
        ctx = PhysicalContext.cgs()
    else:
        ctx = PhysicalContext.dimensionless()
    if args.hbar is not None or args.G is not None:
        ctx = PhysicalContext(hbar=args.hbar if args.hbar is not None else ctx.hbar,
                              G=args.G if args.G is not None else ctx.G,
                              unit_system=system)
    return ctx


def _require(args, *names):
    for name in names:
        if getattr(args, name) is None:
            raise ConfigError(f"missing required option --{name.replace('_', '-')}")


def _body(args) -> Body:
    kind = (args.kind or "point").lower()
    if kind == "point":
        if getattr(args, "radius", None) is not None:
            raise ConfigError("--radius only applies to --kind sphere")
        return Body.point(args.mass)
    if kind == "sphere":
        if getattr(args, "radius", None) is None:
            raise ConfigError("--kind sphere requires --radius")
        return Body.sphere(args.mass, args.radius)
    raise ConfigError(f"unknown body kind: {kind}")


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
    """JSON by default; --format csv flattens to key,value lines."""
    if (args.format or "json") == "json":
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
    else:
        lines = [_units_comment(ctx), "key,value\n"]
        lines += [f"{key},{_fmt(value)}\n" for key, value in _flatten(payload)]
        _emit("".join(lines), args.out)


# ---------------------------------------------------------------- critical

def cmd_critical(args) -> int:
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

def _make_law(args, packet, body, ctx) -> dynamics.ForceLaw:
    law = (args.law or "").lower()
    if law == "gravity-point":
        return dynamics.ForceLaw.gravity_point(packet, body, ctx)
    if law == "mixed-point":
        return dynamics.ForceLaw.mixed_point(
            packet, body, ctx, printed_variant=bool(args.printed_mixed_variant))
    if law == "gravity-object":
        return dynamics.ForceLaw.gravity_object(packet, body, ctx)
    raise ConfigError(f"unknown law: {args.law!r}")


def _gnuplot_script(csv_path: str) -> str:
    return (
        "set datafile separator ','\n"
        "set xlabel 't'\n"
        "set ylabel 'r(t)'\n"
        f"plot '{csv_path}' every ::1 using 1:2 with lines title 'r(t)'\n"
    )


def _trajectory_csv(traj: dynamics.Trajectory, ctx: PhysicalContext) -> str:
    """Units comment, header and one t,r,v,energy row per sample, each value its repr."""
    rows = zip(traj.t.tolist(), traj.r.tolist(), traj.v.tolist(), traj.energy.tolist())
    return "".join([_units_comment(ctx), "t,r,v,energy\n"]
                   + [f"{t!r},{r!r},{v!r},{e!r}\n" for t, r, v, e in rows])


def cmd_simulate(args) -> int:
    _require(args, "mass", "sigma0", "r0", "t_end")
    if args.t_end is not None and args.t_end <= 0:
        raise ConfigError("--t-end must be positive")
    ctx = _context(args)
    if (args.law or "") == "gravity-object" and args.kind is None:
        args.kind = "sphere"
    body = _body(args)
    packet = WavePacket(args.sigma0)
    law = _make_law(args, packet, body, ctx)
    rtol = 1e-9 if args.rtol is None else args.rtol
    atol = 1e-12 if args.atol is None else args.atol
    traj = dynamics.integrate(law, r0=args.r0, v0=args.v0 or 0.0, t_end=args.t_end,
                              rtol=rtol, atol=atol)
    try:
        period = dynamics.detect_period(traj)
    except InsufficientDataError:
        period = None

    sidecar = {
        "law": law.kind.value,
        "events": [{"time": e.time, "kind": e.kind.value} for e in traj.events],
        "period": period,
        "energy_drift": traj.energy_drift,
        "solver": {"method": dynamics.SOLVER_METHOD, "rtol": rtol, "atol": atol,
                   "nfev": traj.nfev, "steps": traj.n_steps, "rejected": traj.n_rejected},
    }
    if (args.format or "csv") == "json":
        payload = dict(sidecar)
        payload["units"] = ctx.unit_system.value
        payload["samples"] = {"t": traj.t.tolist(), "r": traj.r.tolist(),
                              "v": traj.v.tolist(), "energy": traj.energy.tolist()}
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
    else:
        _emit(_trajectory_csv(traj, ctx), args.out)
        if args.out:
            Path(str(args.out) + ".events.json").write_text(
                json.dumps(sidecar, indent=2) + "\n")
    if args.gnuplot_script:
        Path(args.gnuplot_script).write_text(_gnuplot_script(args.out or "trajectory.csv"))
    return EXIT_OK


# ---------------------------------------------------------------- tau

def cmd_tau(args) -> int:
    _require(args, "mass", "sigma0")
    ctx = _context(args)
    body = _body(args)
    packet = WavePacket(args.sigma0)
    estimates = dynamics.tau_estimates(packet, body, ctx,
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
    methods = dynamics.OBJECT_CLOSED_FORMS if sphere else dynamics.POINT_CLOSED_FORMS
    for method in methods:
        columns[f"tau_{method.value.replace('-', '_')}"] = dynamics.tau_at(method, m, s0, ctx, R)
    return columns


def _write_rows(fh, cells: list[np.ndarray], first: str, sep: str, last: str, between: str):
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
    if not args.grid:
        raise ConfigError("sweep requires at least one --grid spec")
    grids = dict(_parse_grid(spec) for spec in args.grid)
    sphere = (args.kind or "point").lower() == "sphere"
    ctx = _context(args)
    axes = _sweep_axes(args, grids, sphere)
    columns = _sweep_columns(axes, ctx, sphere)
    shape = tuple(len(values) for values in grids.values())

    as_json = (args.format or "csv") == "json"
    labels = [r.value for r in criticality.REGIMES]
    if as_json:
        labels = [json.dumps(label) for label in labels]
    cells = []       # per column, its strings broadcast (a view) to the grid shape
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
    report = verify.run_all(perturb=args.perturb or 0.0, quick=bool(args.quick))
    _emit(json.dumps(report, indent=2) + "\n", args.out)
    return EXIT_OK if report["passed"] else EXIT_VERIFY_FAILED


# ---------------------------------------------------------------- parser

def _add_common(sub):
    sub.add_argument("--units", choices=["si", "cgs", "dimensionless"], default=None)
    sub.add_argument("--dimensionless", dest="units", action="store_const",
                     const="dimensionless", help="shorthand for --units dimensionless")
    sub.add_argument("--hbar", type=float, default=None,
                     help="override hbar in the chosen unit system")
    sub.add_argument("--G", type=float, default=None,
                     help="override G in the chosen unit system")
    sub.add_argument("--out", default=None, help="output path (default stdout)")
    sub.add_argument("--format", choices=["csv", "json"], default=None,
                     help="serialization format where a choice exists")
    sub.add_argument("--config", default=None,
                     help="key = value file; flags take precedence")


def _add_body(sub):
    sub.add_argument("--mass", type=float, default=None)
    sub.add_argument("--sigma0", type=float, default=None)
    sub.add_argument("--kind", choices=["point", "sphere"], default=None)
    sub.add_argument("--radius", type=float, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gravreduce",
        description="Self-gravitating Gaussian packets: critical scales, "
                    "trajectories, and reduction times.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("critical", help="critical mass/width and regime report")
    _add_common(p)
    _add_body(p)
    p.set_defaults(fn=cmd_critical, parser=p)

    p = subs.add_parser("simulate", help="integrate a force law to CSV")
    _add_common(p)
    _add_body(p)
    p.add_argument("--law", choices=["gravity-point", "mixed-point", "gravity-object"],
                   default="gravity-point")
    p.add_argument("--r0", type=float, default=None)
    p.add_argument("--v0", type=float, default=None)
    p.add_argument("--t-end", dest="t_end", type=float, default=None)
    p.add_argument("--rtol", type=float, default=None)
    p.add_argument("--atol", type=float, default=None)
    p.add_argument("--printed-mixed-variant", action="store_true", default=None,
                   help="use the uncorrected quantum-term denominator")
    p.add_argument("--gnuplot-script", default=None,
                   help="also write a gnuplot script to this path")
    p.set_defaults(fn=cmd_simulate, parser=p)

    p = subs.add_parser("tau", help="reduction-time estimates")
    _add_common(p)
    _add_body(p)
    p.add_argument("--no-numeric", action="store_true", default=None,
                   help="skip the quarter-period integration estimate")
    p.set_defaults(fn=cmd_tau, parser=p)

    p = subs.add_parser(
        "sweep", help="grid sweep to CSV or JSON",
        description="One row per point of the cartesian product of the --grid specs, "
                    "the first --grid varying slowest.  CSV by default, or "
                    "{units, columns, rows} with --format json.  Values are "
                    "evaluated as arrays and agree with the scalar closed forms "
                    "to 1e-12 relative.")
    _add_common(p)
    _add_body(p)
    p.add_argument("--grid", action="append", default=None,
                   metavar="VAR=LO:HI:N[:log|lin]",
                   help="sweep variable (repeatable; cartesian product)")
    p.set_defaults(fn=cmd_sweep, parser=p)

    p = subs.add_parser("verify", help="run the oracle verification battery")
    _add_common(p)
    p.add_argument("--perturb", type=float, default=None,
                   help="inject a relative perturbation into closed forms "
                        "(negative control)")
    p.add_argument("--quick", action="store_true", default=None,
                   help="smaller sample counts")
    p.set_defaults(fn=cmd_verify, parser=p)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_config(args)
        return args.fn(args)
    except (ConfigError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (IntegrationError, AccuracyError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except GravreduceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
