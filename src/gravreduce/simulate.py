"""The ``simulate`` command: integrate a force law and write its samples.

``cli`` imports this module for ``simulate`` alone, after validating the
command line and building the law, and hands it the law and its output
opener.  The samples are written as a units comment, a ``t,r,v,energy``
header and one row per sample (CSV, with an ``.events.json`` sidecar when
written to ``--out``), or as the sidecar's keys plus ``units`` and
``samples`` (JSON).  Every number is its ``repr``, so it round-trips.  The
sidecar and the JSON output are written from one template (see
:func:`trajectory_mapping`) with the bytes ``json.dumps(..., indent=2)``
gives, so ``simulate`` imports no ``json`` in either format.
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


# One entry of the events list, by kind; the repr of its time goes in.
_EVENT = {kind: '    {\n      "time": %r,\n      "kind": "' + kind.value + '"\n    }'
          for kind in dynamics.EventKind}

# The run's mapping, indented as json.dumps(..., indent=2) indents it; the last
# field is empty, or the units and samples of the JSON output.
_MAPPING = """{
  "law": "%s",
  "events": %s,
  "period": %s,
  "energy_drift": %r,
  "solver": {
    "method": "%s",
    "rtol": %r,
    "atol": %r,
    "t_char": %r,
    "nfev": %d,
    "steps": %d,
    "rejected": %d,
    "samples": %d,
    "legs_tiled": %d
  }%s
}
"""


def trajectory_mapping(traj, period: float | None, rtol: float, atol: float,
                       columns: list[list[str]] | None = None) -> str:
    """The law, events, period, energy drift and solver of the
    ``dynamics.Trajectory`` ``traj``, run at ``rtol`` and ``atol``, exactly as
    ``json.dumps(..., indent=2)`` writes them, newline included: the events
    sidecar, or with the sample ``columns`` (see :func:`sample_columns`) the
    JSON output, whose last keys are ``units`` and ``samples``.  Every name is
    plain ASCII and every number finite, so repr is json's own text."""
    law = traj.law
    events = "[]"
    if traj.events:
        # one % over every time, not one per event
        events = ("[\n" + ",\n".join([_EVENT[kind] for _, kind in traj.events]) + "\n  ]"
                  ) % tuple([time for time, _ in traj.events])
    samples = ""
    if columns is not None:
        lists = [f'    "{name}": [\n      ' + ",\n      ".join(column) + "\n    ]"
                 for name, column in zip(("t", "r", "v", "energy"), columns)]
        samples = (f',\n  "units": "{law.ctx.unit_system.value}",\n  "samples": {{\n'
                   + ",\n".join(lists) + "\n  }")
    return _MAPPING % (law.kind.value, events, "null" if period is None else repr(period),
                       traj.energy_drift, dynamics.SOLVER_METHOD, rtol, atol,
                       law.characteristic_time(), traj.nfev, traj.n_steps, traj.n_rejected,
                       len(traj.t), traj.legs_tiled, samples)


def run(args, law: dynamics.ForceLaw, units_comment: str, output):
    """Integrate ``law`` from the command line's start and write the samples,
    the events sidecar and the gnuplot script, each through ``output``."""
    traj = dynamics.integrate(law, r0=args.r0, v0=args.v0, t_end=args.t_end,
                              rtol=args.rtol, atol=args.atol)
    try:
        period = dynamics.detect_period(traj)
    except InsufficientDataError:
        period = None

    columns = sample_columns(traj)
    if args.format == "json":
        text = trajectory_mapping(traj, period, args.rtol, args.atol, columns)
    else:
        text = trajectory_csv(columns, units_comment)
    with output(args.out) as fh:
        fh.write(text)
    if args.format == "csv" and args.out:
        with output(args.out + ".events.json") as fh:
            fh.write(trajectory_mapping(traj, period, args.rtol, args.atol))
    if args.gnuplot_script:
        with output(args.gnuplot_script) as fh:
            fh.write(_gnuplot_script(args.out))
