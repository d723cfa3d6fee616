"""``simulate``'s writers against a naive formatter.

The writers format each stepped row once and repeat its text as the tiled
legs repeat the row (``dynamics.Trajectory.tiling``).  The oracle here
formats every sample of ``traj.t``, ``r``, ``v`` and ``energy`` with
``repr``, and builds the sidecar and the JSON output with ``json.dumps``.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from gravreduce import cli, dynamics
from gravreduce.core import Body, LawKind, PhysicalContext, WavePacket

CTX = PhysicalContext.dimensionless()
BODIES = {LawKind.GRAVITY_POINT: Body.point(1.0), LawKind.MIXED_POINT: Body.point(1.0),
          LawKind.GRAVITY_OBJECT: Body.sphere(1.0, 0.5)}
RTOL, ATOL = 1e-9, 1e-12


def sample_columns(traj) -> list[list[str]]:
    """The repr of every t, r, v and energy sample, one list per column."""
    return [list(map(repr, column)) for column in (traj.t, traj.r, traj.v, traj.energy)]


def reference_csv(traj) -> str:
    return (cli._units_comment(CTX) + "t,r,v,energy\n"
            + "\n".join(map(",".join, zip(*sample_columns(traj)))) + "\n")


def reference_mapping(traj, samples=False) -> str:
    try:
        period = dynamics.detect_period(traj)
    except dynamics.InsufficientDataError:
        period = None
    mapping = {"law": traj.law.kind.value,
               "events": [{"time": e.time, "kind": e.kind.value} for e in traj.events],
               "period": period, "energy_drift": traj.energy_drift,
               "solver": {"method": "DOP853", "rtol": RTOL, "atol": ATOL,
                          "t_char": traj.law.characteristic_time(), "nfev": traj.nfev,
                          "steps": traj.n_steps, "rejected": traj.n_rejected,
                          "samples": len(traj.t), "legs_tiled": traj.legs_tiled}}
    if samples:
        mapping["units"] = CTX.unit_system.value
        mapping["samples"] = dict(zip(("t", "r", "v", "energy"),
                                      (column.tolist() for column in
                                       (traj.t, traj.r, traj.v, traj.energy))))
    return json.dumps(mapping, indent=2) + "\n"


def simulate(kind, r0, v0, t_end, *extra):
    """(exit code, stdout, stderr) of the ``simulate`` command line."""
    body = BODIES[kind]
    argv = ["simulate", "--law", kind.value, "--mass", "1", "--sigma0", "1",
            f"--r0={r0!r}", f"--v0={v0!r}", f"--t-end={t_end!r}", *extra]
    if body.is_sphere:
        argv.append(f"--radius={body.radius!r}")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(kind=st.sampled_from(LawKind), r0=st.floats(-3.0, 3.0, allow_subnormal=False),
       v0=st.floats(-3.0, 3.0, allow_subnormal=False), t_end=st.floats(0.5, 60.0))
@example(kind=LawKind.GRAVITY_POINT, r0=1.0, v0=0.0, t_end=40.0)     # tiled, 8 legs
@example(kind=LawKind.GRAVITY_POINT, r0=1.0, v0=0.0, t_end=45.0)     # tiled, 9 legs
@example(kind=LawKind.GRAVITY_POINT, r0=1.0, v0=0.3, t_end=8.0)      # tiled, 1 leg
@example(kind=LawKind.MIXED_POINT, r0=0.5, v0=0.1, t_end=20.0)       # tiled, 4 legs
@example(kind=LawKind.GRAVITY_OBJECT, r0=1.0, v0=3.0, t_end=20.0)    # tiled, 9 legs
@example(kind=LawKind.GRAVITY_OBJECT, r0=-0.5, v0=0.2, t_end=17.0)   # tiled, 6 legs
@example(kind=LawKind.GRAVITY_POINT, r0=1.0, v0=0.0, t_end=3.0)      # bound, stepped whole
@example(kind=LawKind.GRAVITY_POINT, r0=1.0, v0=3.0, t_end=20.0)     # escapes through +10
@example(kind=LawKind.MIXED_POINT, r0=-1.0, v0=-3.0, t_end=20.0)     # escapes through -10
@example(kind=LawKind.GRAVITY_OBJECT, r0=0.0, v0=0.0, t_end=5.0)     # equilibrium
def test_simulate_writes_what_a_naive_formatter_writes(kind, r0, v0, t_end):
    traj = dynamics.integrate(dynamics.ForceLaw(kind, WavePacket(1.0), BODIES[kind], CTX),
                              r0, v0, t_end, RTOL, ATOL)
    with tempfile.TemporaryDirectory() as workdir:
        out = Path(workdir, "traj.csv")
        assert simulate(kind, r0, v0, t_end, "--out", str(out)) == (cli.EXIT_OK, "", "")
        csv = out.read_text()
        assert csv == reference_csv(traj)
        assert Path(f"{out}.events.json").read_text() == reference_mapping(traj)
    assert simulate(kind, r0, v0, t_end, "--format", "json") == (
        cli.EXIT_OK, reference_mapping(traj, samples=True), "")
    if traj.legs_tiled:
        # a reversed leg ends where leg 0 starts from rest: on v = -0.0
        assert ",-0.0," in csv
