"""A fixed reference computation that measures how fast the host runs now.

The shared VM the benchmark runs on changes speed by tens of percent within
minutes, and every op slows with it.  So the benchmark times this computation
alongside its ops and scales its end-to-end times to the host speed at which
the computation takes its reference time (the median on the VM described in
README.md): a scaled time reads as seconds on that host.  The computation does
not use gravreduce, so a change to the package moves the scaled times exactly
as it moves the raw ones.

Two forms, each matched to the ops it scales:

- run as a script, it is a fresh interpreter that imports numpy and computes
  once.  Timed from spawn to exit like a CLI op, it scales the CLI ops and the
  set-up runs, whose time is mostly interpreter start, imports and Python;
- ``work(SESSION_N)`` is timed inside the oracle session, between its calls.
"""

from __future__ import annotations

import math

import numpy as np

PROCESS_N = 10
SESSION_N = 5
PROCESS_REF_S = 0.25
SESSION_REF_S = 0.010


def work(n: int) -> float:
    """n units of scalar Python and small-array numpy work."""
    total = 0.0
    for i in range(n * 15000):
        total += math.sqrt(i)
    a = np.arange(1.0, 50001.0)
    for _ in range(n * 4):
        total += float(np.sum(np.sqrt(a)))
    return total


if __name__ == "__main__":
    work(PROCESS_N)
