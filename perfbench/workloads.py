"""The benchmark's three workloads and the output check of one pass.

Each workload is a closed loop: one process runs one scenario after
another. The workload seed is the only input; it fixes every scenario.

Importing this module imports `mpsim`, so the caller puts the repository's
`src/` directory on `sys.path` first and times the import as set-up.
"""

from __future__ import annotations

import gc
import hashlib
import random
import time

from mpsim import config, harness
from mpsim.coupling import CouplingMode
from mpsim.netmodel import LinkConfig
from mpsim.spurious import DetectorChoice

MB = 1_000_000
NAMES = ("grid", "bulk", "reorder")

GRID_CAPACITIES = (0.5, 4.0, 16.0)     # Mbps on link 2
GRID_LATENCIES = (10.0, 160.0, 320.0)  # ms on link 2
GRID_LOSSES = (0.0, 0.01, 0.05)        # on link 2
# Data segments the acceptance grid sends with seed 1.
GRID_SEED1_SEGMENTS = 487_317


def _grid(seed):
    """The 324-point acceptance grid; the seed is every scenario's seed."""
    cfgs = []
    for capacity in GRID_CAPACITIES:
        for latency in GRID_LATENCIES:
            for loss in GRID_LOSSES:
                for coupling in CouplingMode:
                    for detector in DetectorChoice:
                        cfg = config.load_scenario("paper-base")
                        link = cfg.links[1]
                        link.capacity_bps = capacity * 1e6
                        link.one_way_delay_s = latency / 1e3
                        link.loss_rate = loss
                        cfg.transfer_size = 2 * MB
                        cfg.coupling = coupling
                        cfg.detector = detector
                        cfg.seed = seed
                        cfg.trace_interval = 1.0
                        cfgs.append(cfg)
    return cfgs


def _bulk(seed):
    """Four 200 MB transfers, each over 4 lossless 4 Mbps paths whose
    delays are drawn from 10-40 ms. Four geometries per pass keep the work
    of a pass from hanging on one draw."""
    draw = random.Random(seed)
    cfgs = []
    for _ in range(4):
        cfg = config.load_scenario("paper-base")
        cfg.links = [LinkConfig(4e6, round(draw.uniform(10.0, 40.0), 3) / 1e3)
                     for _ in range(4)]
        cfg.transfer_size = 200 * MB
        cfg.coupling = CouplingMode.LINKED_INCREASES
        cfg.detector = DetectorChoice.NONE
        cfg.seed = seed
        cfg.trace_interval = 1.0
        # delay asymmetry with no detector can stretch 200 MB past 2,000
        # simulated seconds (RTO chains); the preset's 600 s would cut it
        cfg.stop_time = 36_000.0
        cfgs.append(cfg)
    return cfgs


def _reorder(seed):
    """paper-reorder scaled up: 16 Mbps paths, link 2 at 240-320 ms, one
    40 MB transfer per detector, traced every 10 ms. Each transfer draws
    its own delay, so a pass does not hang on one draw."""
    draw = random.Random(seed)
    cfgs = []
    for detector in DetectorChoice:
        cfg = config.load_scenario("paper-reorder")
        for link in cfg.links:
            link.capacity_bps = 16e6
        cfg.links[1].one_way_delay_s = round(draw.uniform(240.0, 320.0),
                                             3) / 1e3
        cfg.transfer_size = 40 * MB
        cfg.coupling = CouplingMode.UNCOUPLED
        cfg.detector = detector
        cfg.seed = seed
        cfg.trace_interval = 0.01
        cfgs.append(cfg)
    return cfgs


def build(name, seed):
    """The workload's scenario configs for this seed."""
    return {"grid": _grid, "bulk": _bulk, "reorder": _reorder}[name](seed)


class _Capture:
    """Stands in for `harness.Simulation` to keep the last instance, whose
    counters the output check reads."""

    def __init__(self, cls):
        self.cls = cls
        self.sim = None

    def __call__(self, cfg):
        self.sim = self.cls(cfg)
        return self.sim


def scenario_problems(cfg, result, lines):
    """What is wrong with one scenario's output, as a list of strings."""
    stats = result.stats
    problems = []
    if not stats.completed:
        problems.append("not completed")
    if not stats.checksum_ok:
        problems.append("checksum failed")
    if stats.delivered_bytes != cfg.transfer_size:
        problems.append("delivered %d of %d bytes"
                        % (stats.delivered_bytes, cfg.transfer_size))
    if stats.protocol_violations:
        problems.append("%d protocol violations" % stats.protocol_violations)
    if sum(stats.bytes_sf) < cfg.transfer_size:
        problems.append("fewer payload bytes arrived than were delivered")
    if lines[0] != ",".join(harness.TRACE_CSV_COLUMNS) \
            or len(lines) != len(result.traces) + 1:
        problems.append("trace CSV does not match the trace records")
    return problems


def _record(sim, result, lines):
    """A scenario's output fingerprint and exact counts."""
    digest = hashlib.sha256("\n".join(lines).encode())
    digest.update(repr(result.stats).encode())
    links = sim.links_fwd + sim.links_rev
    return {
        "digest": digest.hexdigest(),
        "segments": sum(sf.segments_sent for sf in sim.subflows),
        # the kernel's private ordinal counts every schedule() call; if a
        # refactor removes it, the count is absent (None), not 0
        "events_scheduled": getattr(sim.kernel, "_ordinal", None),
        "drop_overflow": sum(link.dropped_overflow for link in links),
        "drop_loss": sum(link.dropped_loss for link in links),
        "detections": result.stats.spurious_detections,
        "retransmissions": sum(result.stats.retx_sf),
    }


COUNTS = ("segments", "events_scheduled", "drop_overflow", "drop_loss",
          "detections", "retransmissions")


def run_pass(cfgs, on_scenario=None):
    """Run every scenario once, in order.

    Returns the `perf_counter()` span of each scenario (`run_scenario` plus
    rendering its trace with `trace_csv_lines`; hashing and checking are
    not timed), a record per scenario, both None where it raised, and the
    reason of each failed scenario by index. `on_scenario(sim, result)` is
    called after each scenario, untimed.
    """
    capture = _Capture(harness.Simulation)
    harness.Simulation = capture
    spans, records, failures = [], [], {}
    try:
        for i, cfg in enumerate(cfgs):
            try:
                t0 = time.perf_counter()
                result = harness.run_scenario(cfg)
                lines = harness.trace_csv_lines(result.traces)
                spans.append((t0, time.perf_counter()))
            except Exception as exc:  # a raising scenario is a failure
                spans.append(None)
                records.append(None)
                failures[i] = "raised %r" % (exc,)
                continue
            records.append(_record(capture.sim, result, lines))
            problems = scenario_problems(cfg, result, lines)
            if problems:
                failures[i] = "; ".join(problems)
            if on_scenario is not None:
                on_scenario(capture.sim, result)
            # drop this scenario's logs before the next one runs, so peak
            # memory is one scenario's, as in a sweep. The simulation holds
            # reference cycles, so collect them too (untimed); left to the
            # collector's own schedule they overlap the next scenario by a
            # varying amount.
            result = lines = capture.sim = None
            gc.collect()
    finally:
        harness.Simulation = capture.cls
    return {"spans": spans, "records": records, "failures": failures}


def summarize(records):
    """Workload digest (over the scenario digests) and summed counts; a
    count that is absent from any scenario is absent (None) in the sum."""
    digest = hashlib.sha256()
    totals = dict.fromkeys(COUNTS, 0)
    for rec in records:
        if rec is None:
            digest.update(b"raised")
            continue
        digest.update(rec["digest"].encode())
        for key in COUNTS:
            total, value = totals[key], rec[key]
            totals[key] = (None if total is None or value is None
                           else total + value)
    return digest.hexdigest(), totals
