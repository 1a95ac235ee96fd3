"""A fixed yardstick for how fast this machine runs css-lab-like work right now.

On a shared machine the same interpreter can run 1.5 times slower for tens
of seconds at a time, which swamps the differences the benchmark must
resolve.  Every measured interpreter therefore times this kernel right
after its run.  The kernel does the two
kinds of work css-lab's time goes to: noncentral chi-square draws over
arrays too large for the caches, and scalar ``scipy.stats.ncx2.sf`` calls.
It never imports css-lab, so no change to css-lab can move it.

A kernel of cache-resident draws tracked compare's run times worse: the
spread of calibrated medians over windows of 4-5 runs was 13% with it and
6% with this one.

``REFERENCE_S`` is the kernel's median time on the machine the benchmark
was defined on (2-core x86-64 VM, Python 3.11, numpy 2.4, scipy 1.17).  A
time ``t`` measured while the kernel took ``k`` seconds is reported as
``t * REFERENCE_S / k``: seconds on that machine at its usual speed.
"""

from __future__ import annotations

import statistics
import time

REFERENCE_S = 0.082
REPEATS = 5  # per call of ``kernel_times``; the median drops slow repeats


def kernel_times() -> list[float]:
    # imported here: run.py uses scale() without loading numpy
    import numpy as np
    from scipy import stats

    times = []
    for _ in range(REPEATS):
        rng = np.random.default_rng(12345)
        start = time.perf_counter()
        gains = rng.exponential(0.03, 1_000_000)
        rng.noncentral_chisquare(1000, 1000 * gains).sum()
        for i in range(200):
            stats.ncx2.sf(1100.0 + i, 1000, 5.0)
        times.append(time.perf_counter() - start)
    return times


def scale(times: list[float]) -> float:
    """Factor turning seconds measured next to ``times`` into reference seconds."""
    return REFERENCE_S / statistics.median(times)
