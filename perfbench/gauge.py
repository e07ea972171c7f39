"""Host-speed gauge: scales measured seconds to a fixed host speed.

The benchmark's host is shared with other tenants, and its speed drifts by a
third and more over minutes, for every process alike.  A fixed pure-Python
loop, timed in a helper process between tasks, reads that speed.  A round's
seconds are scaled by `GAUGE_S` over the median of the gauge reads taken
during the round, which gives the seconds the round would take on a host
where the loop takes `GAUGE_S`.  Single reads follow the host too loosely to
scale single tasks by; their median over a round follows its drift.

The loop runs in its own process, so nothing the program does to its own
interpreter (threads left running, trace hooks) can slow the gauge and so
hide a slowdown of the program.  The helper waits on its pipe between reads
and uses no CPU then.
"""
from __future__ import annotations

import statistics
import subprocess
import sys
import time

# A little below the fastest read seen on the machine of perfbench/README.md
# ("Machine").  It only sets the scale: a change is judged against its parent
# under the same constant.
GAUGE_S = 0.006

_LOOP = """\
import sys, time

def loop():
    start = time.perf_counter()
    total = 0
    for i in range(100_000):
        total += i * i
    return time.perf_counter() - start

while sys.stdin.readline():
    print(repr(min(loop(), loop())), flush=True)
"""


def scale(readings: list[float]) -> float:
    """Factor that takes seconds measured among these gauge reads to GAUGE_S speed."""
    return GAUGE_S / statistics.median(readings)


class Gauge:
    """The helper process; `read()` returns the loop's seconds, the faster of two."""

    def __init__(self) -> None:
        self._proc = subprocess.Popen(
            [sys.executable, "-c", _LOOP],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def read(self) -> float:
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError(f"gauge process ended with code {self._proc.poll()}")
        return float(line)

    def close(self) -> None:
        """End the helper and wait for it."""
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()


class TaskClock:
    """Times each call of a wrapped function and reads the gauge after it."""

    def __init__(self, gauge: Gauge) -> None:
        self._gauge = gauge
        self.readings = [gauge.read()]
        self.times: list[tuple[float, float]] = []  # (wall, cpu) seconds per call

    def wrap(self, fn):
        def timed(*args, **kwargs):
            wall0, cpu0 = time.perf_counter(), time.process_time()
            try:
                return fn(*args, **kwargs)
            finally:
                self.times.append((time.perf_counter() - wall0, time.process_time() - cpu0))
                self.readings.append(self._gauge.read())

        return timed

    def scaled(self) -> tuple[float, float]:
        """Summed (wall, cpu) seconds of the calls, at GAUGE_S host speed."""
        k = scale(self.readings)
        return sum(w for w, _ in self.times) * k, sum(c for _, c in self.times) * k
