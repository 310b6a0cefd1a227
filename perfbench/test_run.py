"""Tests of the speed probe and of the end-to-end aggregation; run with

    python3 -m pytest -q perfbench/test_run.py
"""

from __future__ import annotations

import os
import sys
import time

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from run import END_TO_END_UNITS, REF_PASS_S, end_to_end  # noqa: E402
from speed_probe import SpeedProbe  # noqa: E402


def sample(wall, cpu, setup, passes, rss=100.0):
    return {"wall_s": wall, "cpu_s": cpu, "setup_s": setup, "peak_rss_mb": rss,
            "probe_wall_s": [w for w, _ in passes],
            "probe_cpu_s": [c for _, c in passes]}


def test_times_are_scaled_to_the_reference_speed():
    passes = [(2 * REF_PASS_S, 2.5 * REF_PASS_S)] * 5
    metrics, report = end_to_end([sample(8.0, 7.5, 1.0, passes)], [])
    assert set(metrics) == set(END_TO_END_UNITS)
    assert metrics["wall_s"] == pytest.approx(4.0)
    assert metrics["cpu_s"] == pytest.approx(3.0)
    assert metrics["setup_s"] == pytest.approx(0.5)
    assert metrics["peak_rss_mb"] == 100.0
    assert report["wall_s"]["median"] == 8.0


def test_each_sample_is_scaled_by_its_own_passes():
    # The second sample ran on a machine 30% slower throughout.
    fast = sample(8.0, 7.9, 1.0, [(0.02, 0.02)] * 4)
    slow = sample(10.4, 10.27, 1.3, [(0.026, 0.026)] * 4)
    metrics, _ = end_to_end([fast, slow, fast], [])
    assert metrics["wall_s"] == pytest.approx(8.0 * REF_PASS_S / 0.02)
    metrics_slow, _ = end_to_end([slow, slow, slow], [])
    metrics_fast, _ = end_to_end([fast, fast, fast], [])
    for key in ("wall_s", "cpu_s", "setup_s"):
        assert metrics_slow[key] == pytest.approx(metrics_fast[key])


def test_set_up_probes_join_the_set_up_median():
    probes = [{"setup_s": 3.0}, {"setup_s": 3.0}, {"error": "worker exit 1"}]
    _, report = end_to_end([sample(8.0, 8.0, 1.0, [(0.02, 0.02)])], probes)
    assert report["setup_s"]["n"] == 3
    assert report["setup_s"]["median"] == 3.0


def busy(seconds):
    end = time.perf_counter() + seconds
    n = 0
    while time.perf_counter() < end:
        n += 1
    return n


def test_probe_times_passes_and_accounts_for_them():
    probe = SpeedProbe(interval_s=0.05)
    t0 = time.perf_counter()
    with probe:
        busy(0.4)
    elapsed = time.perf_counter() - t0
    assert probe.error is None
    assert len(probe.passes) >= 2
    assert all(w > 0 and c > 0 for w, c in probe.passes)
    assert sum(w for w, _ in probe.passes) <= probe.spent_wall < elapsed


def test_probe_disarms_and_restores_the_handler():
    import signal

    before = signal.getsignal(signal.SIGALRM)
    probe = SpeedProbe(interval_s=0.05)
    with probe:
        busy(0.12)
    n = len(probe.passes)
    busy(0.15)
    assert len(probe.passes) == n
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is before


def test_probe_keeps_a_failing_pass_out_of_the_interrupted_code():
    probe = SpeedProbe(interval_s=0.05)

    def fail():
        raise RuntimeError("boom")

    probe.work = fail
    with probe:
        busy(0.15)  # an exception escaping the handler would surface here
    assert probe.error == "RuntimeError('boom')"
    assert probe.passes == []


def test_samples_without_passes_are_left_out():
    scaled = sample(8.0, 8.0, 1.0, [(REF_PASS_S, REF_PASS_S)])
    metrics, _ = end_to_end([scaled, sample(99.0, 99.0, 9.0, [])], [])
    assert metrics["wall_s"] == pytest.approx(8.0)
    assert end_to_end([sample(99.0, 99.0, 9.0, [])], []) == ({}, {})
