"""Tests of the benchmark's host-speed gauge.

    python3 -m pytest -q perfbench/tests

They cover the scaling arithmetic, that gauge reads stay outside the timed
calls, and that the helper process ends when the gauge is closed.
"""
from __future__ import annotations

import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import gauge  # noqa: E402


class FakeGauge:
    """Returns fixed reads, each after a pause that must not be timed."""

    def __init__(self, reads, pause=0.0):
        self._reads = iter(reads)
        self._pause = pause

    def read(self):
        time.sleep(self._pause)
        return next(self._reads)


def test_scale_uses_the_median_read():
    assert gauge.scale([0.012, 0.003, 0.012, 0.024]) == pytest.approx(gauge.GAUGE_S / 0.012)


def test_task_clock_scales_the_summed_calls_by_the_median_read():
    clock = gauge.TaskClock(FakeGauge([0.012, 0.024, 0.012]))
    clock.times = [(2.0, 1.0), (4.0, 3.0)]
    clock.readings = [0.012, 0.024, 0.012]
    wall, cpu = clock.scaled()
    assert wall == pytest.approx(6.0 * gauge.GAUGE_S / 0.012)
    assert cpu == pytest.approx(4.0 * gauge.GAUGE_S / 0.012)


def test_gauge_reads_are_not_timed():
    clock = gauge.TaskClock(FakeGauge([0.01, 0.01, 0.01], pause=0.2))
    timed = clock.wrap(lambda x: x + 1)
    assert timed(1) == 2 and timed(2) == 3
    assert len(clock.times) == 2 and len(clock.readings) == 3
    assert all(wall < 0.1 for wall, _ in clock.times)


def test_a_failing_call_is_still_timed():
    clock = gauge.TaskClock(FakeGauge([0.01, 0.01]))

    def fail():
        raise ValueError("task failed")

    with pytest.raises(ValueError):
        clock.wrap(fail)()
    assert len(clock.times) == 1 and len(clock.readings) == 2


def test_helper_reads_and_ends():
    meter = gauge.Gauge()
    try:
        reads = [meter.read() for _ in range(3)]
    finally:
        meter.close()
    assert all(0.0 < r < 10.0 for r in reads)
    assert meter._proc.returncode == 0
