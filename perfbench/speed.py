"""Host-speed calibration for the benchmark's timings.

The benchmark runs on a few cores of a shared host whose speed swings by a
third or more in spells of a few seconds.  Process CPU time swings with
wall time, so the slowdown is contention for the core, not preemption, and
neither clock reads the program alone.  Fixed work that does not touch the
program slows by a similar factor, when it is work of the same kind.  So
every time the benchmark reports is taken between two probes of such work
and scaled:

    scaled = wall / mean(slowness before, slowness after)

where a probe's slowness is its time over its time on the reference
machine at rest (2 cores, Python 3.11.7).  The scaled time is the time the
work would take on that machine at rest.  There, scaled and wall time
agree; under contention the wall time grows and the scaled one does not.
The probes do not run the program, so a change to the program moves the
scaled time as it moves the wall time.

Two probes, because in-process work and interpreter start-up slow by
different factors under the same contention (in one busy spell the first
probe read 2x its rest time while fresh interpreters read 1.3x):

- ``probe``: in process, Fraction arithmetic, tuple keys and dict updates,
  like the package's exact layers.  It brackets in-process ops.
- ``startup_probe``: a fresh interpreter that imports scipy.integrate and
  a few standard modules, like the package's own start-up, which is mostly
  that import.  It brackets the CLI commands.  A set-up or start-up
  timing has one start-up probe, just before it, and is divided by that
  probe's slowness alone.
"""

from __future__ import annotations

import gc
import statistics
import subprocess
import sys
from fractions import Fraction
from time import perf_counter

REF_S = 0.0019  # probe's median time on the reference machine at rest
PROBE_REPEATS = 3
STARTUP_REF_S = 0.6  # startup_probe's time on the reference machine at rest
STARTUP_CODE = "import scipy.integrate, fractions, json, argparse"
STARTUP_TIMEOUT_S = 60


def _work() -> Fraction:
    acc = Fraction(0)
    table = {}
    for k in range(1, 500):
        acc += Fraction(k % 7 + 1, k % 11 + 1) * Fraction(3, k % 5 + 1)
        key = (k % 13, k % 17)
        table[key] = table.get(key, 0) + k
    return acc


def probe() -> float:
    """Slowness of in-process work: the median of PROBE_REPEATS runs of the
    fixed work over REF_S, with the garbage collector held off so that no
    collection of the caller's objects lands in it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(PROBE_REPEATS):
            t0 = perf_counter()
            _work()
            times.append(perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times) / REF_S


def startup_probe() -> float:
    """Slowness of interpreter start-up: the time of one fresh interpreter
    running STARTUP_CODE over STARTUP_REF_S.  subprocess.run waits for it,
    and kills it first if it outlasts STARTUP_TIMEOUT_S."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", STARTUP_CODE], check=True, timeout=STARTUP_TIMEOUT_S,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return (perf_counter() - t0) / STARTUP_REF_S


def scale(wall: float, before: float, after: float) -> float:
    """``wall`` seconds at reference speed, from the slowness of the probes
    on either side."""
    return wall * 2 / (before + after)


if __name__ == "__main__":
    slow = sorted(probe() for _ in range(200))
    print(f"probe: median {statistics.median(slow) * REF_S:.6f} s (REF_S {REF_S} s)")
    slow = sorted(startup_probe() for _ in range(10))
    print(f"startup_probe: median {statistics.median(slow) * STARTUP_REF_S:.4f} s (STARTUP_REF_S {STARTUP_REF_S} s)")
