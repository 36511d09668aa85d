import signal
import statistics
import subprocess
import sys
import time

import pytest

import calibrate
import worker


def test_calibration_kernel_does_not_use_darcat():
    code = (
        "import sys, calibrate; calibrate.kernel(); "
        "assert not [m for m in sys.modules if m.split('.')[0] == 'darcat'], 'darcat imported'"
    )
    subprocess.run([sys.executable, "-c", code], cwd=calibrate.__file__.rsplit("/", 1)[0], check=True)


class SleepWorkload:
    """Two operations that each sleep; the first is interrupted by a kernel sample."""

    units_per_pass = 2

    def __init__(self, sampler):
        self.sampler = sampler

    def _op(self, tick):
        if tick:
            self.sampler.sample()  # as if the timer fired during the operation
        time.sleep(0.02)

    def ops(self):
        return [("a", lambda: self._op(True)), ("b", lambda: self._op(False))]

    def check(self, label, output):
        return None


def test_kernel_time_is_taken_out_and_passes_are_scaled(monkeypatch):
    monkeypatch.setattr(calibrate, "kernel", lambda: time.sleep(0.3))
    sampler = calibrate.Sampler()
    sampler.samples.append(1.0)  # a sample before the pass must not count
    (p,) = worker.run_passes(SleepWorkload(sampler), 0.0, sampler=sampler)
    assert p["errors"] == []
    assert all(0.02 <= x < 0.15 for x in p["latencies"])
    assert p["slowdown"] == calibrate.slowdown(sampler.samples[1])
    assert p["scaled_s"] == p["wall_s"] / p["slowdown"]
    assert worker.end_to_end(SleepWorkload(sampler), [p])["wall_s"] == p["scaled_s"]


def test_sampler_fires_on_a_timer_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with calibrate.Sampler(interval_s=0.05) as sampler:
        end = time.perf_counter() + 0.5
        while time.perf_counter() < end:
            pass
    assert len(sampler.samples) >= 3
    assert sampler.busy_s == pytest.approx(sum(sampler.samples))
    assert sampler.slowdown_since(0) == calibrate.slowdown(statistics.fmean(sampler.samples))
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
