"""Host-speed probe: scale measured times to one reference host speed.

On a host shared with other tenants the same code can run 1.4-1.8x
slower for seconds to minutes at a time, which no amount of repetition
inside one run averages out.  So the benchmark times a fixed piece of
work that does not touch ``cptk`` (a pure-Python loop over small ints, a
dict and tuples, and a small numpy gather, roughly the mix of
interpreter and array work that ``cptk`` does) right before and right
after each timed interval, and scales the interval by how long the probe
took against :data:`REFERENCE_PROBE_S`:

    scaled = measured * REFERENCE_PROBE_S / mean(probe before, probe after)

A faster or slower ``cptk`` leaves the probe unchanged, so a change to
the program moves scaled times exactly as it moves measured ones; only
the host's speed is divided out.  Both the scaled and the measured times
go into the run record.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# the probe's median time on a 2-CPU x86 host in its faster state; scaled
# times are "seconds on a host where the probe takes this long"
REFERENCE_PROBE_S = 0.0005
CHUNKS = 5

_table = np.arange(8192, dtype=np.int64)
_index = (np.arange(8192, dtype=np.int64) * 2654435761) % 8192


def _chunk() -> float:
    start = time.perf_counter()
    acc = 0
    seen = {}
    for i in range(2500):
        acc += i * i % 7
        seen[i & 63] = (acc, i)
    for _ in range(8):
        acc += int((_table[_index] * 3 + acc).sum() & 7)
    return time.perf_counter() - start


def probe() -> float:
    """Median time of a few repeats of the fixed work, in seconds."""
    return statistics.median(_chunk() for _ in range(CHUNKS))


def scale(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between probes ``before`` and ``after``,
    expressed at the reference host speed."""
    return seconds * REFERENCE_PROBE_S / ((before + after) / 2)
