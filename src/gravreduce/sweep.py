"""The ``sweep`` command: grid specs, the broadcast columns and the row writer.

``cli`` imports this module for ``sweep`` alone, after validating the command
line, and hands it the parsed grids, the context and its output opener.  One
row is written per point of the cartesian product of the grids, in
``itertools.product`` order: the first ``--grid`` varies slowest.  Every
column is evaluated once, as a numpy array at the shape of the grids it
depends on, and its text is broadcast to the full grid.
"""

from __future__ import annotations

import math

import numpy as np

from . import criticality
from .core import Body, PhysicalContext, WavePacket
from .errors import ConfigError

# Rows joined per write when a sweep is streamed to its output.
ROWS_PER_WRITE = 4096


def parse_grid(spec: str):
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


def _axes(args, grids: dict[str, list[float]], sphere: bool) -> dict:
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


def _columns(axes: dict, ctx: PhysicalContext, sphere: bool) -> dict:
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
    for start in range(0, cells[0].size, ROWS_PER_WRITE):
        stop = start + ROWS_PER_WRITE
        block = zip(*(col.flat[start:stop].tolist() for col in cells))
        text = between.join(first + sep.join(row) + last for row in block)
        fh.write(text if start == 0 else between + text)


def run(args, grids: dict[str, list[float]], ctx: PhysicalContext, units_comment: str,
        output):
    """Evaluate the sweep over ``grids`` and write it to ``output(args.out)``,
    which is opened only once every column is built."""
    sphere = args.kind == "sphere"
    axes = _axes(args, grids, sphere)
    shape = tuple(len(values) for values in grids.values())

    as_json = args.format == "json"
    labels = [r.value for r in criticality.REGIMES]
    if as_json:
        import json

        labels = [json.dumps(label) for label in labels]
    cells = []       # per column, its strings broadcast (a view) to the grid shape
    try:
        columns = _columns(axes, ctx, sphere)
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

    with output(args.out) as fh:
        if as_json:
            head = json.dumps({"units": ctx.unit_system.value, "columns": list(columns),
                               "rows": []}, indent=2)
            fh.write(head.removesuffix("[]\n}") + "[\n")
            _write_rows(fh, cells, "    [\n      ", ",\n      ", "\n    ]", ",\n")
            fh.write("\n  ]\n}\n")
        else:
            fh.write(units_comment + ",".join(columns) + "\n")
            _write_rows(fh, cells, "", ",", "\n", "")
