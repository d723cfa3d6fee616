"""The ``simulate`` command: integrate a force law and write its samples.

``cli`` imports this module for ``simulate`` alone, after validating the
command line and building the law, and hands it the law and its output
opener.  The samples are written as a units comment, a ``t,r,v,energy``
header and one row per sample (CSV, with an ``.events.json`` sidecar when
written to ``--out``), or as the sidecar's keys plus ``units`` and
``samples`` (JSON).  Every number is its ``repr``, so it round-trips.
"""

from __future__ import annotations

from . import dynamics
from .errors import InsufficientDataError


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


def sample_columns(traj) -> list[list[str]]:
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


def trajectory_csv(columns: list[list[str]], units_comment: str) -> str:
    """Units comment, header and one t,r,v,energy row per sample."""
    return (units_comment + "t,r,v,energy\n"
            + "\n".join(map(",".join, zip(*columns))) + "\n")


def trajectory_json(payload: dict, columns: list[list[str]]) -> str:
    """``payload`` with a last key ``samples`` of the t, r, v and energy
    columns, exactly as ``json.dumps(..., indent=2)`` writes it, with the
    samples spliced in from their reprs."""
    import json

    head = json.dumps({**payload, "samples": {}}, indent=2)
    lists = [f'    "{name}": [\n      ' + ",\n      ".join(column) + "\n    ]"
             for name, column in zip(("t", "r", "v", "energy"), columns)]
    return head.removesuffix("{}\n}") + "{\n" + ",\n".join(lists) + "\n  }\n}\n"


def run(args, law: dynamics.ForceLaw, units_comment: str, output):
    """Integrate ``law`` from the command line's start and write the samples,
    the events sidecar and the gnuplot script, each through ``output``."""
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
    columns = sample_columns(traj)
    if args.format == "json":
        text = trajectory_json({**sidecar, "units": law.ctx.unit_system.value}, columns)
    else:
        text = trajectory_csv(columns, units_comment)
    with output(args.out) as fh:
        fh.write(text)
    if args.format == "csv" and args.out:
        import json

        with output(args.out + ".events.json") as fh:
            fh.write(json.dumps(sidecar, indent=2) + "\n")
    if args.gnuplot_script:
        with output(args.gnuplot_script) as fh:
            fh.write(_gnuplot_script(args.out))
