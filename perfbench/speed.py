"""Machine-speed reference for the end-to-end times.

The machine the benchmark was tuned on, a 2-vCPU VM shared with other
tenants, changed speed by up to 1.8x over minutes, and in bursts of
seconds within a run: runs timed the same bulk-ingest job anywhere from
0.26 to 0.47 s. A fixed pure-Python task slowed and sped up with it. So
every job time is scaled by that task's time, measured beside it:

    reported = wall * REFERENCE_S / reference wall

REFERENCE_S is about what the task took on the tuning machine, so reported
times read as seconds there. The raw wall times stay in the run metadata.
Set-up time is not scaled: it is process start-up, which the task did not
track (scaling widened its run-to-run spread).
"""

import time

REFERENCE_OPS = 20_000
REFERENCE_S = 0.004


def reference() -> float:
    """Wall seconds of a fixed pure-Python task: the machine's speed now."""
    t0 = time.perf_counter()
    counts: dict[int, int] = {}
    for i in range(REFERENCE_OPS):
        counts[i & 1023] = counts.get(i & 1023, 0) + 1
    return time.perf_counter() - t0


def scaled(wall: float, reference_wall: float) -> float:
    """A wall time at the reference speed."""
    return wall * REFERENCE_S / reference_wall
