"""The benchmark clock and the reference slices that read host speed."""

import time

import pytest

import hostspeed
from hostspeed import Calibration, clock


def _busy(cpu_s: float) -> None:
    end = time.thread_time() + cpu_s
    while time.thread_time() < end:
        pass


def test_slices_run_while_entered_and_stop_after():
    with Calibration() as cal:
        _busy(5 * hostspeed.SLICE_EVERY_S)
        probe_s, slices = cal.reading()
    assert slices >= 3 and probe_s > 0
    _busy(2 * hostspeed.SLICE_EVERY_S)
    assert cal.reading() == (probe_s, slices)


def test_clock_excludes_the_slices_inside_an_interval():
    with Calibration() as cal:
        t0, c0 = time.thread_time(), clock()
        _busy(4 * hostspeed.SLICE_EVERY_S)
        spent, counted = time.thread_time() - t0, clock() - c0
        probe_s, slices = cal.reading()
    assert slices >= 2
    assert counted == pytest.approx(spent - probe_s, abs=1e-4)


def test_factor_scales_to_the_reference_slice_time():
    with Calibration() as cal:
        _busy(4 * hostspeed.SLICE_EVERY_S)
        probe_s, slices = cal.reading()
        factor = cal.factor()
        cal.mark()
        assert cal.factor() == 1.0  # no slice since the mark
    assert factor == pytest.approx(hostspeed.REF_SLICE_S * slices / probe_s)
