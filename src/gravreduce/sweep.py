"""The ``sweep`` command: grid specs, the columns over the grid and the row writer.

``cli`` imports this module for ``sweep`` alone, after checking the model
parameters (``cli._model``), and hands it the parsed grids, each
parameter's values, the context and its output opener.  One row is written
per point of the cartesian product of the grids, in ``itertools.product``
order: the first ``--grid`` varies slowest.  Each gridded variable is a
``grid.Grid`` along its own axis, and every column is evaluated once, as a
grid over just the axes it depends on, by ``criticality.report_at`` and
``taus_at``: the calls from which ``critical`` and ``tau`` take their values
too.  They run the scalar closed forms' Python float arithmetic, so every
cell holds the bits ``critical`` and ``tau`` print, a one-point sweep refuses
a parameter set for a ``report_at`` column with the error line ``critical``
prints for it, and the package loads no numpy.  Each distinct value of a
column is formatted (``repr``) once, and the rows are read off the columns
block by block, a value repeated along an axis without being listed once
per row.  Formatting the values and joining the rows take most of a
sweep's time, so two processes write the rows: see ``_write_grid``.
"""

from __future__ import annotations

import errno
import gc
import math
import os
from array import array
from itertools import islice

from . import criticality
from .core import PhysicalContext
from .grid import Grid
from .errors import ConfigError

# Rows joined per write when a sweep is streamed to its output.
ROWS_PER_WRITE = 4096
# Exit statuses of the forked writer, besides 0 and the errno of a failed write.
_CHILD_NO_MEMORY = 254
_CHILD_FAILED = 255


def _grid_spec(spec: str):
    """The variable, bounds, point count and spacing of one ``--grid`` spec."""
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
    if n == 1 and lo != hi:
        raise ConfigError(f"a one-point grid requires lo = hi: {spec!r}")
    if spacing not in ("log", "lin"):
        raise ConfigError(f"grid spacing must be log or lin: {spacing!r}")
    if spacing == "log" and lo <= 0:
        raise ConfigError("log spacing requires positive bounds")
    return name, lo, hi, n, spacing


def _grid_values(lo: float, hi: float, n: int, spacing: str) -> list[float]:
    """The ``n`` points of a grid spec, ``lo`` and ``hi`` themselves at its ends."""
    if n == 1:
        return [lo]
    if spacing == "log":
        if hi / lo < math.inf:
            ratio = math.log(hi / lo) / (n - 1)
            return [lo * math.exp(ratio * i) for i in range(n - 1)] + [hi]
        # hi / lo overflows: the points in logs, between the bounds themselves.
        log_lo = math.log(lo)
        ratio = (math.log(hi) - log_lo) / (n - 1)
        return [lo] + [math.exp(log_lo + ratio * i) for i in range(1, n - 1)] + [hi]
    step = (hi - lo) / (n - 1)
    return [lo + step * i for i in range(n - 1)] + [hi]


def _too_large(rows: int) -> ConfigError:
    return ConfigError(f"the sweep grid has {rows} rows, and its columns do not fit in memory")


def parse_grids(specs: list[str]) -> dict[str, list[float]]:
    """Each ``--grid`` spec's variable and values, in spec order.  Every spec is
    validated before any values are listed, so a grid too large to list is a
    ConfigError that names the row count.  A variable may be gridded once."""
    parsed = [_grid_spec(spec) for spec in specs]
    names = [name for name, *_ in parsed]
    for name in names:
        if names.count(name) > 1:
            raise ConfigError(f"grid variable {name} is given more than once")
    try:
        return {name: _grid_values(lo, hi, n, spacing) for name, lo, hi, n, spacing in parsed}
    except MemoryError:
        points = {name: n for name, _, _, n, _ in parsed}
        raise _too_large(math.prod(points.values())) from None


def _axes(grids: dict[str, list[float]], values: dict[str, list[float]]) -> dict:
    """Each model parameter of ``values``, as ``cli._model`` checked it: a
    gridded one's values as a ``Grid`` along that grid's own axis, a fixed
    one's value as a float."""
    axes = {}
    for name, given in values.items():
        if name in grids:
            axes[name] = Grid(given, tuple(len(v) if axis == name else 1
                                           for axis, v in grids.items()))
        else:
            axes[name] = given[0]
    return axes


def _doubles(value):
    """A column of floats, a grid's held as C doubles: a quarter of the memory
    of a list of Python floats, which are made again as they are read."""
    return Grid(array("d", value.values), value.shape) if type(value) is Grid else value


def _columns(axes: dict, ctx: PhysicalContext) -> dict:
    """Every sweep column, each evaluated once at the shape of the axes it
    depends on, by the calls that ``critical`` and ``tau`` make."""
    m, s0, R = axes["mass"], axes["sigma0"], axes.get("radius")
    columns = dict(axes)
    for name, value in criticality.report_at(m, s0, ctx, R).items():
        columns[name] = value if name == "regime" else _doubles(value)
    for method, tau in criticality.taus_at(m, s0, ctx, R, numeric=False).items():
        columns[f"tau_{method.value.replace('-', '_')}"] = _doubles(tau)
    return columns


class _Cells:
    """The text of one column over rows of grid shape ``rows``.  Its values,
    row-major over ``shape``, are formatted once each and read out broadcast
    to ``rows`` without being listed per row; a column with a value per row
    is formatted as it is read."""

    __slots__ = ("values", "shape", "rows", "fmt")

    def __init__(self, values: list, shape: tuple, rows: tuple, fmt):
        self.values, self.shape, self.rows, self.fmt = values, shape, rows, fmt

    def __len__(self):
        return math.prod(self.rows)

    def __iter__(self):
        if self.shape == self.rows:
            return map(self.fmt, self.values)
        return Grid(list(map(self.fmt, self.values)), self.shape).broadcast(self.rows)


def _cells(columns: dict, labels: list, shape: tuple, axis: int, part: slice) -> list:
    """Per column, the text of the rows in ``part`` of grid axis ``axis``, which
    no axis with more than one point precedes."""
    points = range(shape[axis])[part]
    rows = shape[:axis] + (len(points),) + shape[axis + 1:]
    cells = []
    for name, value in columns.items():
        if type(value) is Grid:
            values, value_shape = value.values, value.shape
            if value_shape[axis] > 1:   # the values of the rows in part are contiguous
                size = len(values) // value_shape[axis]
                values = values[points.start * size:points.stop * size]
                value_shape = rows[:axis + 1] + value_shape[axis + 1:]
        else:
            values, value_shape = [value], (1,) * len(shape)
        cells.append(_Cells(values, value_shape, rows,
                            labels.__getitem__ if name == "regime" else repr))
    return cells


def _write_rows(fh, cells: list, first: str, sep: str, last: str, between: str,
                continued: bool = False):
    """Stream rows first + sep.join(row) + last, separated by ``between``, and
    preceded by it when ``continued`` (other rows come before them).

    ``cells`` holds one ``_Cells`` per column; only one block of rows is
    materialized at a time.
    """
    joiner = last + between + first
    lead = between + first if continued else first
    rows = zip(*cells)
    for _ in range(0, len(cells[0]), ROWS_PER_WRITE):
        fh.write(lead + joiner.join(map(sep.join, islice(rows, ROWS_PER_WRITE))) + last)
        lead = between + first


class _Held(list):
    """Blocks of rows written to memory, to be written out in order later."""

    write = list.append


def _raise_for(status: int):
    """What the serial path would have raised, for the forked writer's wait status."""
    code = os.waitstatus_to_exitcode(status)
    if code == _CHILD_NO_MEMORY:
        raise MemoryError
    if 0 < code < _CHILD_FAILED:
        raise OSError(code, os.strerror(code))
    if code:
        raise OSError(errno.EIO, f"the process writing the first half of the rows "
                                 f"ended with status {code}")


def _write_grid(fh, columns: dict, labels: list, shape: tuple, layout: tuple):
    """Write every row of the grid to ``fh``, split between two processes.

    The grid is split at its slowest-varying axis with two or more points.
    ``fh`` is flushed, once the header is written, and the process forks: a
    child formats and writes the first half of the rows through the
    inherited file descriptor and exits, while this process formats and
    joins the second half into blocks held in memory, reaps the child and
    writes its blocks after the child's rows (the two share one file
    offset).  A failed child is what the serial writer would have raised:
    its write error (a closed stdout is still one ``cannot write stdout``
    line) or ``MemoryError``.  The grid is written whole, here, when the
    platform has no ``os.fork`` or the fork fails, when ``fh`` has no file
    descriptor (a ``StringIO``) or when the grid has one row.  The output is
    byte-identical either way.
    """
    axis = next((i for i, n in enumerate(shape) if n > 1), None)
    try:
        fh.fileno()
    except OSError:                     # io.UnsupportedOperation
        axis = None
    pid = None
    if axis is not None and hasattr(os, "fork"):
        fh.flush()
        # Frozen, the objects that exist at the fork are left out of both
        # processes' collections, so the child's do not copy the pages they
        # sit on.
        gc.freeze()
        try:
            pid = os.fork()
        except OSError:                 # no process to spare: written whole
            gc.unfreeze()
    if pid is None:
        _write_rows(fh, _cells(columns, labels, shape, 0, slice(None)), *layout)
        return
    half = shape[axis] // 2
    if pid == 0:
        # The child writes nothing but its rows, and leaves by os._exit, so
        # that no exception, exit handler or inherited buffer runs here.
        status = _CHILD_FAILED
        try:
            _write_rows(fh, _cells(columns, labels, shape, axis, slice(half)), *layout)
            fh.flush()
            status = 0
        except OSError as exc:
            status = exc.errno or _CHILD_FAILED
        except MemoryError:
            status = _CHILD_NO_MEMORY
        finally:
            os._exit(status)
    held = _Held()
    try:
        try:
            _write_rows(held, _cells(columns, labels, shape, axis, slice(half, None)), *layout,
                        continued=True)
        finally:
            _, status = os.waitpid(pid, 0)
        _raise_for(status)
        for block in held:
            fh.write(block)
    finally:
        gc.unfreeze()


def run(args, grids: dict[str, list[float]], values: dict[str, list[float]],
        ctx: PhysicalContext, units_comment: str, output):
    """Evaluate the sweep over ``grids`` of the model parameters ``values``
    and write it to ``output(args.out)``, which is opened only once every
    column is built."""
    axes = _axes(grids, values)
    shape = tuple(len(v) for v in grids.values())
    labels = [r.value for r in criticality.REGIMES]
    try:
        columns = _columns(axes, ctx)
        with output(args.out) as fh:
            if args.format == "json":
                import json

                labels = [json.dumps(label) for label in labels]
                head = json.dumps({"units": ctx.unit_system.value, "columns": list(columns),
                                   "rows": []}, indent=2)
                fh.write(head.removesuffix("[]\n}") + "[\n")
                layout, tail = ("    [\n      ", ",\n      ", "\n    ]", ",\n"), "\n  ]\n}\n"
            else:
                fh.write(units_comment + ",".join(columns) + "\n")
                layout, tail = ("", ",", "\n", ""), ""
            _write_grid(fh, columns, labels, shape, layout)
            fh.write(tail)
    except MemoryError:
        raise _too_large(math.prod(shape)) from None
