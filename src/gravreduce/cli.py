"""Command-line front end.

Subcommands:
    critical   regime report (critical mass/width, force ratio, references)
    simulate   integrate a force law, write a t,r,v,energy CSV plus an events sidecar
    tau        all applicable reduction-time estimates
    sweep      grid sweep over mass / sigma0 / radius to CSV
    verify     run the oracle verification battery

Exit codes: 0 success, 1 verification failure, 2 configuration error,
3 numerical failure.  Flags override values from an optional ``--config``
file of ``key = value`` lines, which makes figure-reproduction runs
self-documenting.  Keys are option names with ``-`` or ``_``.  A flag such as
``no_numeric`` or ``quick`` takes ``true``/``yes``/``on`` or
``false``/``no``/``off``.  ``grid`` may be given on several lines, one spec
per line, as ``--grid`` may be repeated; any ``--grid`` on the command line
replaces all of them.  For any other key the last line wins.

Only the solver paths load ``scipy.integrate``: ``simulate``, ``tau`` with
the numeric quarter-period estimate (point bodies without ``--no-numeric``)
and ``verify``.  ``critical``, ``sweep`` and the closed-form ``tau`` run on
numpy alone, which keeps their start-up short.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
from pathlib import Path

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
# Config keys of store_true flags: their value must be a boolean word.
FLAGS = frozenset({"no_numeric", "quick", "printed_mixed_variant"})


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


def _coerce(text: str):
    low = text.lower()
    if low in ("true", "yes", "on"):
        return True
    if low in ("false", "no", "off"):
        return False
    try:
        return float(text)
    except ValueError:
        return text


def _apply_config(args: argparse.Namespace):
    if not getattr(args, "config", None):
        return
    for key, raws in _parse_config_file(args.config).items():
        if not hasattr(args, key):
            raise ConfigError(f"unknown config key: {key}")
        if getattr(args, key) is not None:
            continue
        value = raws if key in REPEATABLE else _coerce(raws[-1])
        if key in FLAGS and not isinstance(value, bool):
            raise ConfigError(f"config key {key} takes true or false, not {raws[-1]!r}")
        setattr(args, key, value)


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
    _apply_config(args)
    _require(args, "mass", "sigma0")
    ctx = _context(args)
    body = _body(args)
    packet = WavePacket(args.sigma0)
    report = criticality.classify_regime(packet, body, ctx)
    if body.is_point:
        fb = criticality.critical_width_point(body, ctx)
    else:
        fb = criticality.transition_width_object(
            body, ctx, criticality.ObjectRegime.MACRO).value
    payload = {
        "units": ctx.unit_system.value,
        "mass": body.mass,
        "sigma0": packet.sigma0,
        "kind": body.kind.value,
        "critical_mass": report.critical_mass,
        "critical_width_force_balance": fb,
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


def cmd_simulate(args) -> int:
    _apply_config(args)
    _require(args, "mass", "sigma0", "r0", "t_end")
    if args.t_end is not None and args.t_end <= 0:
        raise ConfigError("--t-end must be positive")
    ctx = _context(args)
    if (args.law or "") == "gravity-object" and args.kind is None:
        args.kind = "sphere"
    body = _body(args)
    packet = WavePacket(args.sigma0)
    law = _make_law(args, packet, body, ctx)
    traj = dynamics.integrate(law, r0=args.r0, v0=args.v0 or 0.0, t_end=args.t_end,
                              rtol=args.rtol or 1e-9, atol=args.atol or 1e-12)
    try:
        period = dynamics.detect_period(traj)
    except InsufficientDataError:
        period = None

    sidecar = {
        "law": law.kind.value,
        "events": [{"time": e.time, "kind": e.kind.value} for e in traj.events],
        "period": period,
        "energy_drift": traj.energy_drift,
    }
    if (args.format or "csv") == "json":
        payload = dict(sidecar)
        payload["units"] = ctx.unit_system.value
        payload["samples"] = {
            "t": [float(x) for x in traj.t],
            "r": [float(x) for x in traj.r],
            "v": [float(x) for x in traj.v],
            "energy": [float(x) for x in traj.energy],
        }
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
    else:
        lines = [_units_comment(ctx), "t,r,v,energy\n"]
        for i in range(len(traj.t)):
            lines.append(f"{_fmt(float(traj.t[i]))},{_fmt(float(traj.r[i]))},"
                         f"{_fmt(float(traj.v[i]))},{_fmt(float(traj.energy[i]))}\n")
        _emit("".join(lines), args.out)
        if args.out:
            Path(str(args.out) + ".events.json").write_text(
                json.dumps(sidecar, indent=2) + "\n")
    if args.gnuplot_script:
        Path(args.gnuplot_script).write_text(_gnuplot_script(args.out or "trajectory.csv"))
    return EXIT_OK


# ---------------------------------------------------------------- tau

def cmd_tau(args) -> int:
    _apply_config(args)
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


def cmd_sweep(args) -> int:
    _apply_config(args)
    if not args.grid:
        raise ConfigError("sweep requires at least one --grid spec")
    grids = dict(_parse_grid(spec) for spec in args.grid)
    kind = (args.kind or "point").lower()

    fixed = {"mass": args.mass, "sigma0": args.sigma0, "radius": args.radius}
    names = list(grids.keys())
    ctx = _context(args)

    point_taus = (dynamics.TauMethod.PERIOD_FORMULA, dynamics.TauMethod.SHORT_TIME,
                  dynamics.TauMethod.UNCERTAINTY)
    object_taus = (dynamics.TauMethod.OBJECT_UNCERTAINTY, dynamics.TauMethod.OBJECT_MICRO)
    tau_methods = point_taus if kind == "point" else object_taus

    columns = ["mass", "sigma0"] + (["radius"] if kind == "sphere" else [])
    columns += ["critical_mass", "critical_width_force_balance",
                "critical_width_energy_min", "force_ratio", "regime"]
    columns += [f"tau_{m.value.replace('-', '_')}" for m in tau_methods]

    rows_out = []
    for combo in itertools.product(*(grids[name] for name in names)):
        values = dict(fixed)
        values.update(dict(zip(names, combo)))
        for field in ("mass", "sigma0"):
            if values[field] is None:
                raise ConfigError(f"sweep needs {field} fixed or gridded")
        if kind == "sphere" and values["radius"] is None:
            raise ConfigError("sphere sweep needs radius fixed or gridded")
        body = (Body.point(values["mass"]) if kind == "point"
                else Body.sphere(values["mass"], values["radius"]))
        packet = WavePacket(values["sigma0"])
        report = criticality.classify_regime(packet, body, ctx)
        if body.is_point:
            fb = criticality.critical_width_point(body, ctx)
            taus = [dynamics.tau_point(m, packet, body, ctx).tau for m in tau_methods]
        else:
            fb = criticality.transition_width_object(
                body, ctx, criticality.ObjectRegime.MACRO).value
            taus = [dynamics.tau_object(m, packet, body, ctx).tau for m in tau_methods]
        row = [values["mass"], values["sigma0"]]
        if kind == "sphere":
            row.append(values["radius"])
        row += [report.critical_mass, fb,
                criticality.critical_width_energy_min_exact(body, ctx),
                report.force_ratio, report.regime.value]
        row += taus
        rows_out.append(row)

    if (args.format or "csv") == "json":
        payload = {"units": ctx.unit_system.value, "columns": columns,
                   "rows": rows_out}
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
    else:
        lines = [_units_comment(ctx), ",".join(columns) + "\n"]
        lines += [",".join(_fmt(x) for x in row) + "\n" for row in rows_out]
        _emit("".join(lines), args.out)
    return EXIT_OK


# ---------------------------------------------------------------- verify

def cmd_verify(args) -> int:
    _apply_config(args)
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
    p.set_defaults(fn=cmd_critical)

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
    p.set_defaults(fn=cmd_simulate)

    p = subs.add_parser("tau", help="reduction-time estimates")
    _add_common(p)
    _add_body(p)
    p.add_argument("--no-numeric", action="store_true", default=None,
                   help="skip the quarter-period integration estimate")
    p.set_defaults(fn=cmd_tau)

    p = subs.add_parser("sweep", help="grid sweep to CSV")
    _add_common(p)
    _add_body(p)
    p.add_argument("--grid", action="append", default=None,
                   metavar="VAR=LO:HI:N[:log|lin]",
                   help="sweep variable (repeatable; cartesian product)")
    p.set_defaults(fn=cmd_sweep)

    p = subs.add_parser("verify", help="run the oracle verification battery")
    _add_common(p)
    p.add_argument("--perturb", type=float, default=None,
                   help="inject a relative perturbation into closed forms "
                        "(negative control)")
    p.add_argument("--quick", action="store_true", default=None,
                   help="smaller sample counts")
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
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
