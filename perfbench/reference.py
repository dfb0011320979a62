"""Host-speed reference: a fixed kernel timed between the measured
operations, to correct the stage times for how fast the host ran.

On a host whose cores other tenants share, the same work runs up to about
1.5 times slower for stretches of seconds to minutes. A fixed kernel of
pure Python and numpy work, timed right after a read or a CLI invocation,
slows down with it: in one process alternating `read_trial` with this
kernel for two minutes, 8-second medians of the read time varied by 45%
while their ratio to the kernel's varied by 11%. The kernel is benchmark
code; a change to the program does not change its speed.
"""

from __future__ import annotations

import statistics
import time
import zlib

import numpy as np

# Median kernel time on an Intel Xeon with 2 shared vCPUs when the host
# was quiet. Corrected times are in seconds of a host that runs the kernel
# this fast; the constant only sets the scale of every corrected metric.
REFERENCE_S = 0.012

_x = np.random.default_rng(0).standard_normal(50_000)
_bytes = _x.tobytes()

samples: list[float] = []


def _kernel() -> int:
    s = 0
    for i in range(60_000):
        s += i * i % 7
    for _ in range(8):
        zlib.crc32(_bytes)
        np.fft.rfft(_x)
        np.sort(_x)
    return s


def sample() -> None:
    """Time the kernel once and keep the sample."""
    t0 = time.perf_counter()
    _kernel()
    samples.append(time.perf_counter() - t0)


def correction(since: int) -> float:
    """REFERENCE_S over the median kernel time of the samples taken since
    len(samples) was `since`: host seconds times this are reference
    seconds. 1.0 when there is no sample."""
    taken = samples[since:]
    return REFERENCE_S / statistics.median(taken) if taken else 1.0
