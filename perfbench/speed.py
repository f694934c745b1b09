"""Machine-speed reference that the benchmark's timings are scaled by.

The shared 2-vCPU machine this benchmark was written on (Intel Xeon VM,
2.1 GHz) changes speed by up to 1.8x within seconds: the same scenario
request took 3.3 ms and 6.0 ms in neighbouring one-second windows, and
the median of one 20 s run moved by 33% (quartile spread, 10 seeds).
No run length averages that out.  So a fixed kernel of the benchmark's
own code (Python bytecode, one small LAPACK call, one 64x64 complex
matmul, a JSON dump) is timed next to every request, and each time is
scaled by ``NOMINAL_S / kernel time around it``: the result reads as the
time at the machine's nominal speed.  No qmix code runs in the kernel,
so no change to qmix can move the reference.
"""

from __future__ import annotations

import json
import statistics
import time

import numpy as np

#: Kernel time at the machine's nominal speed: its fast steady time on
#: the machine named above (p1 to p10 of 20000 back-to-back runs: 148 to
#: 154 us; the slow mode's median is 257 us).
NOMINAL_S = 1.5e-4

_rng = np.random.default_rng(20091)
_small = _rng.standard_normal((12, 12)) + 1j * _rng.standard_normal((12, 12))
_small = _small + _small.conj().T
_large = _rng.standard_normal((64, 64)) + 1j * _rng.standard_normal((64, 64))
_payload = {"alpha": [[[0.125 * i, -0.5 * j] for j in range(8)] for i in range(8)]}


def kernel_seconds() -> float:
    """Wall time of one run of the reference kernel."""
    start = time.perf_counter()
    total = 0
    for i in range(1000):
        total += i ^ (i >> 3)
    np.linalg.eigvalsh(_small)
    _large @ _large
    json.dumps(_payload)
    return time.perf_counter() - start


def probe(repeat: int = 1) -> float:
    """Median kernel time over ``repeat`` runs after one unmeasured run.

    The first run after a request or a child process is up to twice as
    slow as the next, from cold caches rather than machine speed.
    """
    kernel_seconds()
    return statistics.median(kernel_seconds() for _ in range(repeat))


def normalize(times: list[float], kernel: list[float]) -> list[float]:
    """Scale ``times[i]`` by the machine speed around it.

    ``kernel[i]`` was timed just before ``times[i]`` and ``kernel[-1]``
    after the last one; the speed around request i is the median kernel
    time over the two probes before and the two after it.
    """
    out = []
    for i, elapsed in enumerate(times):
        around = kernel[max(i - 1, 0): i + 3]
        out.append(elapsed * NOMINAL_S / statistics.median(around))
    return out
