"""Record the golden CLI outputs that tests/test_sweep.py compares against.

Each case runs ``gravreduce.cli.main(argv)`` in this process and stores its
stdout.  The committed ``cli.json`` was recorded from the scalar closed forms
and the row-by-row sweep (commit 84e25a0, the last before the broadcast
sweep); re-recording it from a newer tree would make the test compare the
code with itself.

    PYTHONPATH=<src of the reference tree> python tests/golden/record.py
"""

import contextlib
import io
import json
import sys
from pathlib import Path

from gravreduce import cli

MASS_C = 1.0781685172131612       # (pi/2)^(1/6): critical mass at hbar = G = sigma0 = 1

SWEEPS = {
    "point-mass-1d": ["sweep", "--sigma0", "1", "--grid", "mass=1e-3:1e3:7"],
    "point-2d-log-si-json": ["sweep", "--units", "si", "--kind", "point",
                             "--grid", "mass=1e-27:1e-20:4",
                             "--grid", "sigma0=1e-15:1e-9:3", "--format", "json"],
    "point-2d-lin-cgs-sigma0-first": ["sweep", "--units", "cgs",
                                      "--grid", "sigma0=0.1:2:3:lin",
                                      "--grid", "mass=1e-24:1e-20:4"],
    "point-transition-band": ["sweep", "--sigma0", "1", "--grid",
                              f"mass={MASS_C * (1 - 2e-6)!r}:{MASS_C * (1 + 2e-6)!r}:5:lin"],
    "point-sigma0-1d-hbar-G-json": ["sweep", "--units", "si", "--hbar", "2e-34",
                                    "--G", "7e-11", "--mass", "1e-25",
                                    "--grid", "sigma0=1e-12:1e-6:4", "--format", "json"],
    "point-single-row": ["sweep", "--sigma0", "2", "--grid", "mass=3:3:1"],
    "sphere-2d-radius-fixed": ["sweep", "--kind", "sphere", "--radius", "0.5",
                               "--grid", "mass=0.1:10:4", "--grid", "sigma0=0.1:10:3"],
    "sphere-3d-dimensionless-json": ["sweep", "--kind", "sphere",
                                     "--grid", "mass=0.1:10:3", "--grid", "sigma0=0.2:5:3",
                                     "--grid", "radius=0.1:3:3:lin", "--format", "json"],
    "sphere-3d-si-radius-first": ["sweep", "--units", "si", "--kind", "sphere",
                                  "--grid", "radius=1e-6:1e-2:3", "--grid", "mass=1e-3:10:3",
                                  "--grid", "sigma0=1e-9:1e-3:3"],
    "sphere-sigma0-1d-lin-cgs-json": ["sweep", "--units", "cgs", "--kind", "sphere",
                                      "--mass", "2.5", "--radius", "0.8",
                                      "--grid", "sigma0=0.01:100:5:lin", "--format", "json"],
}

# critical and closed-form tau: the scalar entry points of the same closed forms
MAPPINGS = {
    "critical-point-json": ["critical", "--mass", "0.7", "--sigma0", "1.3"],
    "critical-point-si-csv": ["critical", "--units", "si", "--mass", "1.67262192369e-27",
                              "--sigma0", "1e-9", "--format", "csv"],
    "critical-sphere-cgs-json": ["critical", "--units", "cgs", "--kind", "sphere",
                                 "--mass", "3.2", "--radius", "0.6", "--sigma0", "1e-5"],
    "critical-sphere-csv": ["critical", "--kind", "sphere", "--mass", "12", "--radius", "2",
                            "--sigma0", "0.05", "--format", "csv"],
    "tau-point-json": ["tau", "--mass", "2.5", "--sigma0", "0.4", "--no-numeric"],
    "tau-point-si-csv": ["tau", "--units", "si", "--mass", "1e-3", "--sigma0", "1e-6",
                         "--no-numeric", "--format", "csv"],
    "tau-sphere-json": ["tau", "--kind", "sphere", "--mass", "3", "--radius", "0.7",
                        "--sigma0", "0.2"],
    "tau-sphere-cgs-csv": ["tau", "--units", "cgs", "--kind", "sphere", "--mass", "0.1",
                           "--radius", "0.05", "--sigma0", "1e-4", "--format", "csv"],
}
CASES = {**SWEEPS, **MAPPINGS}


def record() -> list[dict]:
    out = []
    for name, argv in CASES.items():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        if code != cli.EXIT_OK:
            raise SystemExit(f"{name}: exit {code}")
        out.append({"name": name, "argv": argv, "stdout": buf.getvalue()})
    return out


if __name__ == "__main__":
    path = Path(__file__).with_name("cli.json")
    path.write_text(json.dumps(record(), indent=1) + "\n")
    print(f"wrote {len(CASES)} cases to {path}", file=sys.stderr)
