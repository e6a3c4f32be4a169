"""Tests of the benchmark itself: `python -m pytest -q perfbench`."""

import json
import os
import signal
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import child  # noqa: E402
import layers  # noqa: E402
import refclock  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402
from mpsim import config, simkernel  # noqa: E402
from mpsim.coupling import CouplingMode  # noqa: E402
from mpsim.spurious import DetectorChoice  # noqa: E402


def small_reorder_cfgs():
    cfgs = []
    for detector in DetectorChoice:
        cfg = config.load_scenario("paper-reorder")
        cfg.transfer_size = 300_000
        cfg.coupling = CouplingMode.LINKED_INCREASES
        cfg.detector = detector
        cfg.trace_interval = 0.05
        cfgs.append(cfg)
    return cfgs


def test_self_time_subtracts_child_spans():
    now = [0]
    tr = tracer_mod.Tracer(clock=lambda: now[0])

    def inner():
        now[0] += 30

    def failing():
        now[0] += 4
        raise RuntimeError("boom")

    inner_t = tr.wrap("inner", inner)
    failing_t = tr.wrap("inner", failing)

    def outer():
        now[0] += 5
        inner_t()
        now[0] += 7
        inner_t()
        with pytest.raises(RuntimeError):
            failing_t()
        now[0] += 1

    tr.wrap("outer", outer)()
    assert tr.spans["inner"] == [3, 64, 0]
    assert tr.spans["outer"] == [1, 77, 64]
    assert tr.self_us("outer") == pytest.approx(0.013)
    assert tr.self_us("inner") == pytest.approx(0.064)
    assert tr._stack == []


def test_tracing_leaves_outputs_unchanged():
    plain = workloads.run_pass(small_reorder_cfgs())
    tr = tracer_mod.Tracer()
    original = simkernel.SimKernel.schedule
    tr.install()
    try:
        observer = layers.ScenarioObserver(tr)
        traced = workloads.run_pass(small_reorder_cfgs(), observer)
    finally:
        tr.uninstall()
    assert simkernel.SimKernel.schedule is original
    assert plain["failures"] == traced["failures"] == {}
    assert plain["records"] == traced["records"]
    assert tr.absent == []
    _, counts = workloads.summarize(plain["records"])
    metrics = layers.metrics(tr, observer, counts, 1.0, 2.0)
    assert metrics["harness.run_scenario.calls"] == (3, "count")
    assert metrics["simkernel.schedule.calls"][0] \
        == counts["events_scheduled"]
    assert metrics["spurious.detections"][0] == counts["detections"] > 0
    assert metrics["coupling.compute_alpha.calls"][0] > 0
    assert metrics["trace_overhead_frac"] == (1.0, "ratio")


def test_missing_target_is_absent_not_a_crash(monkeypatch):
    monkeypatch.setattr(tracer_mod, "TARGETS", tracer_mod.TARGETS + (
        ("gone", "mpsim.simkernel", "SimKernel.no_such_method"),
        ("gone", "mpsim.no_such_module", "f"),
    ))
    tr = tracer_mod.Tracer()
    tr.install()
    tr.uninstall()
    assert tr.absent == ["mpsim.simkernel:SimKernel.no_such_method",
                         "mpsim.no_such_module:f"]
    assert tr.calls("gone") == 0 and tr.self_us("gone") == 0.0


def test_count_missing_from_a_scenario_is_absent_not_zero():
    rec = {"digest": "0" * 64, **dict.fromkeys(workloads.COUNTS, 1)}
    _, counts = workloads.summarize([rec, dict(rec, events_scheduled=None)])
    assert counts["events_scheduled"] is None
    assert counts["segments"] == 2


def test_incomplete_scenario_counts_as_failed():
    cfgs = small_reorder_cfgs()[:2]
    cfgs[1].stop_time = 0.5  # far too short for 300 kB at 0.5 Mbps
    result = workloads.run_pass(cfgs)
    assert list(result["failures"]) == [1]
    assert "not completed" in result["failures"][1]
    failed, notes = child._check(workloads, "small", 1, [result, result])
    assert failed == [1, 1]
    assert len(notes) == 2


def test_pass_that_differs_from_the_first_counts_as_failed():
    first = workloads.run_pass(small_reorder_cfgs())
    other = workloads.run_pass(small_reorder_cfgs())
    other["records"][2] = dict(other["records"][2], segments=-1)
    failed, notes = child._check(workloads, "small", 1, [first, other])
    assert failed == [0, 1]
    assert notes == ["scenario 2: differs from the first pass"]


def test_layer_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
    tr = tracer_mod.Tracer()
    got = layers.metrics(tr, layers.ScenarioObserver(tr),
                         {"retransmissions": 0}, 1.0, 1.0)
    assert {name: unit for name, (_, unit) in got.items()} == declared


def test_workload_inputs_follow_the_seed():
    for name in workloads.NAMES:
        a, b = workloads.build(name, 7), workloads.build(name, 7)
        assert a == b
    assert len(workloads.build("grid", 1)) == 324
    assert workloads.build("bulk", 1) != workloads.build("bulk", 2)
    assert workloads.build("reorder", 1) != workloads.build("reorder", 2)


def test_reference_scaling_leaves_out_calibrations_inside_a_span():
    cal = refclock.Calibrator()
    cal.starts, cal.ends = [0.0, 1.0, 3.0], [0.1, 1.2, 3.1]
    cal.refs = [0.01, 0.02, 0.04]
    nominal = refclock.NOMINAL_S
    host, ref = cal.times(0.5, 2.0)   # calibration 1 ran inside
    assert host == pytest.approx(1.3)
    assert ref == pytest.approx(1.3 * nominal / 0.02)
    host, ref = cal.times(1.5, 2.5)   # none inside: use 1 and 2
    assert host == pytest.approx(1.0)
    assert ref == pytest.approx(1.0 * nominal / 0.03)


def test_calibrator_interrupts_and_restores_the_alarm_handler():
    before = signal.getsignal(signal.SIGALRM)
    with refclock.Calibrator() as cal:
        end = time.perf_counter() + 3 * refclock.INTERVAL_S
        while time.perf_counter() < end:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(cal.refs) >= 4
    assert cal.starts == sorted(cal.starts)
