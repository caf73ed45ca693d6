"""Machine-speed calibration interleaved with a run.

The benchmark runs on shared machines whose speed drifts by tens of percent
over seconds and minutes (on a 2-core Xeon VM, one 8x build took 0.65 s for
a minute and 1.4 s for the next two). No statistic inside one run removes a
drift that outlasts it. So a run also times a fixed pure-Python kernel at
least every ``INTERVAL_S`` seconds between ops, and scales each measured
interval (an op, a set-up) by ``REFERENCE_S`` over the mean kernel time of
the samples just before and just after it. Scaled times read as times on a
machine where the kernel takes ``REFERENCE_S``; the unscaled ones go to the
run record.

Measured on that VM over eight 30 s windows: read-8x deck rates spread 22%
unscaled and 1.1% scaled; cli-4x ops per second 10.5% and 4.5%, p50 latency
11.4% and 2.4%. Scaling by the run's median kernel time instead left 8.5% on
read-8x.

The kernel uses no sekg code, so a change to the program does not move it,
and it runs with the garbage collector off, so the size of the heap the
program holds does not move it either.
"""

import bisect
import gc
import time

INTERVAL_S = 0.25
REFERENCE_S = 0.025


def kernel() -> int:
    """Dict inserts, string formatting, tuple allocation and a sort."""
    total = 0
    for _ in range(10):
        table = {}
        for i in range(3000):
            table[f"k{i % 977}_{i}"] = (i, str(i))
        total += len({key[:4] for key, _ in sorted(table.items())})
    return total


class Calibration:
    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.times: list[float] = []

    def sample(self) -> None:
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            kernel()
            end = time.perf_counter()
        finally:
            if enabled:
                gc.enable()
        self.starts.append(start)
        self.ends.append(end)
        self.times.append(end - start)

    def maybe_sample(self) -> None:
        if not self.ends or time.perf_counter() - self.ends[-1] >= INTERVAL_S:
            self.sample()

    def scaled(self, intervals: list[tuple[float, float]]) -> list[float]:
        """Scale (start, duration) intervals by the samples around each.

        Take a sample after the last interval first; an interval with no
        sample after it uses the one before it alone.
        """
        out = []
        for start, duration in intervals:
            i = bisect.bisect_right(self.ends, start) - 1
            j = bisect.bisect_left(self.starts, start + duration)
            around = [self.times[k] for k in (i, j) if 0 <= k < len(self.times)]
            out.append(duration * REFERENCE_S * len(around) / sum(around))
        return out
