"""Host-speed probe and the adjustment of wall times to a reference host speed.

On a shared 2-core host the same CPU-bound loop runs up to 2x slower for
stretches of seconds to minutes, and CPU time tracks wall time, so the
slowdown is not scheduling. Sums of raw wall times then spread 25-36%
(interquartile range over median) across runs. A short probe of fixed
work runs before the first op and after every op, and each op's wall time
is scaled by REFERENCE_PROBE_S over the mean of the probes around it.
That cancels the host's speed at the time of the op: the same spread fell
to about 5%. Raw wall times are reported beside the adjusted ones.
"""

from __future__ import annotations

import time

import numpy as np

PROBE_ITERS = 10000
# median probe time on the shared 2-core Linux VM (Python 3.11, numpy 2.4) it was tuned on
REFERENCE_PROBE_S = 0.045


def probe() -> float:
    """Wall time of a fixed small-array numpy loop, like perivir's own inner loops."""
    a = np.linspace(0.0, 1.0, 16).reshape(4, 4)
    v = np.ones(4)
    start = time.perf_counter()
    for _ in range(PROBE_ITERS):
        v = np.tanh(a @ v) + 0.5
    return time.perf_counter() - start


def adjusted(walls, probes) -> list[float]:
    """Wall times at reference host speed; probes[i] and probes[i+1] bracket walls[i]."""
    return [w * 2.0 * REFERENCE_PROBE_S / (probes[i] + probes[i + 1])
            for i, w in enumerate(walls)]


def calib_us(probes) -> float:
    """Median probe as microseconds per loop iteration (the host.calib_us diagnostic)."""
    return float(np.median(probes)) / PROBE_ITERS * 1e6
