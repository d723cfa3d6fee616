"""The ``simulate`` command: integrate a force law and write its samples.

``cli`` imports this module for ``simulate`` alone, after validating the
command line and building the law, and hands it the law and its output
opener.  The samples are written as a units comment, a ``t,r,v,energy``
header and one row per sample (CSV, with an ``.events.json`` sidecar when
written to ``--out``), or as the sidecar's keys plus ``units`` and
``samples`` (JSON).  Every number is its ``repr``, so it round-trips.  A
tiled run's legs repeat the r, v and energy of its stepped rows bit for
bit, so each stepped row is formatted once and its text repeated as the
legs repeat the row (``dynamics.Trajectory.tiling``), a run stepped whole
being one piece with no legs.  Only t is formatted per sample.  The sidecar
and the JSON output are written from one template (see
:func:`trajectory_mapping`) with the bytes ``json.dumps(..., indent=2)``
gives, so ``simulate`` imports no ``json`` in either format.
"""

from __future__ import annotations

import contextlib
import operator
import os

from . import dynamics
from .errors import ConfigError, InsufficientDataError


def _gnuplot_script(csv_path: str) -> str:
    quoted = csv_path.replace("'", "''")   # gnuplot's escape inside single quotes
    return (
        "set datafile separator ','\n"
        "set xlabel 't'\n"
        "set ylabel 'r(t)'\n"
        f"plot '{quoted}' every ::1 using 1:2 with lines title 'r(t)'\n"
    )


def trajectory_csv(traj, units_comment: str) -> str:
    """Units comment, header and one t,r,v,energy row per sample of the
    ``dynamics.Trajectory`` ``traj``.  Each stepped row's ``,r,v,energy``
    is formatted once and repeated as the samples repeat the row (see
    ``Trajectory.tiling``); each sample adds the repr of its t."""
    *blocks, n = traj.tiling
    rows = [list(map(",%r,%r,%r\n".__mod__, zip(*block))) for block in blocks]
    return (units_comment + "t,r,v,energy\n"
            + "".join(map(operator.add, map(repr, traj.t), dynamics.tiled(*rows, n))))


_SEP = ",\n      "   # between two samples of a JSON column

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
                       samples: bool = False) -> str:
    """The law, events, period, energy drift and solver of the
    ``dynamics.Trajectory`` ``traj``, run at ``rtol`` and ``atol``, exactly as
    ``json.dumps(..., indent=2)`` writes them, newline included: the events
    sidecar, or with ``samples`` the JSON output, whose last keys are
    ``units`` and ``samples``.  Every name is plain ASCII and every number
    finite, so repr is json's own text."""
    law = traj.law
    events = "[]"
    if traj.events:
        # one % over every time, not one per event
        events = ("[\n" + ",\n".join([_EVENT[kind] for _, kind in traj.events]) + "\n  ]"
                  ) % tuple([time for time, _ in traj.events])
    tail = ""
    if samples:
        *blocks, n = traj.tiling
        columns = [_SEP.join(map(repr, traj.t))]
        for i in range(3):
            # r, v or energy: each block's values joined once, and the texts
            # repeated as the samples repeat the rows (see trajectory_csv)
            texts = [[_SEP.join(map(repr, block[i]))] if block[i] else [] for block in blocks]
            columns.append(_SEP.join(dynamics.tiled(*texts, n)))
        lists = [f'    "{name}": [\n      {column}\n    ]'
                 for name, column in zip(("t", "r", "v", "energy"), columns)]
        tail = (f',\n  "units": "{law.ctx.unit_system.value}",\n  "samples": {{\n'
                + ",\n".join(lists) + "\n  }")
    return _MAPPING % (law.kind.value, events, "null" if period is None else repr(period),
                       traj.energy_drift, dynamics.SOLVER_METHOD, rtol, atol,
                       law.characteristic_time(), traj.nfev, traj.n_steps, traj.n_rejected,
                       len(traj.t), traj.legs_tiled, tail)


def _write(outputs, output):
    """Write each (path, text) of ``outputs`` through ``output``, every path
    opened before any is written.  Each write runs in its own path's context,
    which names that path in its ConfigError and passes a later path's on."""
    (path, text), rest = outputs[0], outputs[1:]
    with output(path) as fh:
        if rest:
            _write(rest, output)
        fh.write(text)


def run(args, law: dynamics.ForceLaw, units_comment: str, output):
    """Integrate ``law`` from the command line's start and write the samples,
    with a CSV ``--out`` its events sidecar, and any gnuplot script, through
    ``output``: all of them or, if one cannot be opened or written, none, for
    the files the run created are removed.  A script without a CSV ``--out``
    to plot, or naming it or its sidecar, is refused before the run."""
    csv_out = args.format == "csv" and args.out is not None
    if args.gnuplot_script is not None and not csv_out:
        raise ConfigError("--gnuplot-script plots the CSV written to --out: "
                          "it needs --out and --format csv")
    if args.gnuplot_script is not None and os.path.realpath(args.gnuplot_script) in (
            os.path.realpath(args.out), os.path.realpath(args.out + ".events.json")):
        raise ConfigError("--gnuplot-script names the --out file or its .events.json "
                          "sidecar, which it would overwrite")
    traj = dynamics.integrate(law, r0=args.r0, v0=args.v0, t_end=args.t_end,
                              rtol=args.rtol, atol=args.atol)
    try:
        period = dynamics.detect_period(traj)
    except InsufficientDataError:
        period = None

    outputs = [(args.out, trajectory_csv(traj, units_comment) if args.format == "csv" else
                trajectory_mapping(traj, period, args.rtol, args.atol, samples=True))]
    if csv_out:
        outputs.append((args.out + ".events.json",
                        trajectory_mapping(traj, period, args.rtol, args.atol)))
    if args.gnuplot_script is not None:
        outputs.append((args.gnuplot_script, _gnuplot_script(args.out)))
    created = [path for path, _ in outputs if path is not None and not os.path.lexists(path)]
    try:
        _write(outputs, output)
    except BaseException:
        for path in created:
            with contextlib.suppress(OSError):      # none if its open failed
                os.remove(path)
        raise
