"""The machine's speed, measured by a fixed pure-Python loop.

On a shared host the speed of one CPU drifts with what the neighbours do:
on the 2-CPU host this benchmark was tuned on (Intel Xeon, Python 3.11.7)
the same calls ran up to twice as slow, for seconds or for minutes at a
time, in CPU time as in wall time.  The mean of many timings of `loop`,
taken between the timed calls, measures how fast the machine ran during
that run.  Dividing it into REFERENCE_S gives the factor that converts the
run's timings to a machine as fast as the reference.  The loop shares no
code with qadic, so a change to qadic cannot move it.
"""

from __future__ import annotations

import gc
import time

# The mean timing of `loop` on the host named above while it was quiet.
REFERENCE_S = 0.010


def loop() -> int:
    """Fixed interpreter work of the kinds qadic does: integer arithmetic
    modulo a 64-bit prime power, small tuples, dict reads and writes, and
    int-to-str conversion."""
    acc, table, x, m = 0, {}, 12345, 3**40
    for i in range(20000):
        x = (x * x + i) % m
        table[i & 255] = (x, i)
        acc += len(str(x & 0xFFFF))
        acc ^= table.get((i * 7) & 255, (0, 0))[0] & 1023
    return acc


def measure() -> float:
    """Seconds `loop` takes now.  The collector is off meanwhile, so the
    heap the program under test left behind does not count."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        loop()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
