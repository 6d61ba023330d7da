"""Host-speed yardstick: a fixed loop that never touches ``repro``.

Every benchmark run times this loop before and after its workload and
stores both readings beside the run's metrics.  The loop is the same on
every commit, so when two sets of runs disagree, a matching shift in the
yardstick points at the host (frequency scaling, a noisy neighbour)
rather than at the program.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Chunks timed per reading; the reading is their median.
CHUNKS = 9


def _chunk(matrix: np.ndarray) -> float:
    """One fixed unit of pure-Python plus small-NumPy work (~20 ms)."""
    acc = 0
    table: dict[int, int] = {}
    for i in range(60_000):
        acc = (acc * 31 + i) % 1_000_003
        table[i & 1023] = acc
    values = sorted(table.values())
    vec = matrix[:, 0].copy()
    for _ in range(200):
        vec = matrix @ vec
        vec /= np.abs(vec).max()
    return float(values[len(values) // 2]) + float(vec.sum())


def yardstick_ms(chunks: int = CHUNKS) -> float:
    """Median milliseconds of one chunk over ``chunks`` timed chunks."""
    matrix = np.random.default_rng(12345).random((48, 48))
    times = []
    for _ in range(chunks):
        start = time.perf_counter()
        _chunk(matrix)
        times.append((time.perf_counter() - start) * 1e3)
    return statistics.median(times)


if __name__ == "__main__":
    print(f"{yardstick_ms():.3f} ms per chunk")
