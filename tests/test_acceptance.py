"""Acceptance gate: nine end-to-end criteria, one printed verdict line each.

Run with `pytest -sv tests/test_acceptance.py` to see the verdict lines as
they pass; under default capture they appear only for failures, or for
passes too with `-rP`.
"""

import time
from types import SimpleNamespace

import pytest

from mpsim.config import load_scenario
from mpsim.coupling import (CouplingMode, compute_alpha, on_ack_increase,
                            on_loss_decrease)
from mpsim.harness import run_scenario, trace_csv_lines
from mpsim.netmodel import Link, LinkConfig
from mpsim.simkernel import NS_PER_S, RandomStream
from mpsim.spurious import DetectorChoice
from recording import Recorder

MB = 1_000_000
GRID_CAPACITIES = (0.5, 4.0, 16.0)     # Mbps on link 2
GRID_LATENCIES = (10.0, 160.0, 320.0)  # ms on link 2
GRID_LOSSES = (0.0, 0.01, 0.05)        # on link 2
ALL_COUPLINGS = tuple(CouplingMode)
ALL_DETECTORS = tuple(DetectorChoice)


def verdict(criterion: int, ok: bool, detail: str) -> None:
    print("criterion %d: %s  (%s)" % (criterion, "PASS" if ok else "FAIL",
                                      detail))
    assert ok, "criterion %d: %s" % (criterion, detail)


def grid_point(capacity_mbps, latency_ms, loss, coupling, detector,
               transfer=2 * MB, seed=1):
    cfg = load_scenario("paper-base")
    cfg.links[1].capacity_bps = capacity_mbps * 1e6
    cfg.links[1].one_way_delay_s = latency_ms / 1e3
    cfg.links[1].loss_rate = loss
    cfg.transfer_size = transfer
    cfg.coupling = coupling
    cfg.detector = detector
    cfg.seed = seed
    cfg.trace_interval = 1.0
    return cfg


def reorder_cfg(detector):
    cfg = load_scenario("paper-reorder")
    cfg.transfer_size = 2 * MB
    cfg.detector = detector
    cfg.trace_interval = 0.01
    return cfg


@pytest.fixture(scope="module")
def reorder_runs():
    """detector -> (result, recorder): criteria 4, 6 and 7 read the logs."""
    runs = {}
    for det in ALL_DETECTORS:
        rec = Recorder(reorder_cfg(det))
        runs[det] = rec.run(), rec
    return runs


# --------------------------------------------------------------- criteria

def test_criterion_1_integrity_grid():
    start = time.perf_counter()
    failures = []
    for capacity in GRID_CAPACITIES:
        for latency in GRID_LATENCIES:
            for loss in GRID_LOSSES:
                for coupling in ALL_COUPLINGS:
                    for detector in ALL_DETECTORS:
                        cfg = grid_point(capacity, latency, loss,
                                         coupling, detector)
                        stats = run_scenario(cfg).stats
                        if not (stats.completed and stats.checksum_ok):
                            failures.append((capacity, latency, loss,
                                             coupling.value, detector.value))
    elapsed = time.perf_counter() - start
    detail = "324 runs, %d integrity failures, %.1f s wall" \
        % (len(failures), elapsed)
    verdict(1, not failures and elapsed <= 60.0, detail)


def test_criterion_2_determinism():
    cfg = grid_point(4.0, 160.0, 0.01, CouplingMode.LINKED_INCREASES,
                     DetectorChoice.DSACK, seed=7)
    a = "\n".join(trace_csv_lines(run_scenario(cfg).traces))
    b = "\n".join(trace_csv_lines(run_scenario(cfg).traces))
    verdict(2, a.encode() == b.encode(),
            "two runs, %d trace bytes each, byte-identical=%s"
            % (len(a), a == b))


def paths(w, rtt):
    """Stand-in subflows: the window and coupling RTT the rules read."""
    return [SimpleNamespace(cwnd=wi, estimator=SimpleNamespace(rtt=ri))
            for wi, ri in zip(w, rtt)]


def test_criterion_3_coupling_math():
    problems = []
    if compute_alpha(paths([17.0], [0.3])) != 1.0:
        problems.append("single-subflow alpha != 1")
    for n in (2, 3, 4):
        alpha = compute_alpha(paths([10.0] * n, [0.1] * n))
        if abs(alpha - 1.0 / n) > 1e-12:
            problems.append("equal-path alpha(n=%d) off by %g"
                            % (n, abs(alpha - 1.0 / n)))
    rng = RandomStream(20260823)
    for _ in range(10_000):
        n = 2 + rng.next_u64() % 4
        w = [0.1 + 99.9 * rng.next_uniform() for _ in range(n)]
        rtt = [1e-3 + 10.0 * rng.next_uniform() for _ in range(n)]
        i = rng.next_u64() % n
        inc = on_ack_increase(CouplingMode.RTT_COMPENSATOR, i,
                              paths(w, rtt))
        if inc > 1.0 / w[i]:
            problems.append("compensator exceeded 1/w on %r" % ((w, rtt, i),))
            break
    fc = on_loss_decrease(CouplingMode.FULLY_COUPLED, 0,
                          paths([10.0, 10.0], [0.1, 0.1]))
    if fc != 1.0:
        problems.append("fully-coupled (10,10) gave %r, wanted 1.0" % (fc,))
    verdict(3, not problems, "; ".join(problems) or
            "alpha identities, 10^4 compensator caps, coupled halving all exact")


def test_criterion_4_reorder_dominance(reorder_runs):
    result, rec = reorder_runs[DetectorChoice.NONE]
    s = result.stats
    half_ns = int(s.completion_time_s / 2 * NS_PER_S)
    new_bytes = {}
    arrived = [0] * len(s.bytes_sf)
    for ns, sf, size, fresh in rec.arrivals:
        arrived[sf - 1] += size
        if ns >= half_ns:
            new_bytes[sf] = new_bytes.get(sf, 0) + fresh
    # the arrival log is complete: it accounts for every payload byte
    assert tuple(arrived) == s.bytes_sf
    total = sum(new_bytes.values())
    share = max(new_bytes.values()) / total if total else 0.0
    ok = s.completed and s.checksum_ok and s.fast_retx > 0 and share >= 0.80
    verdict(4, ok, "%d spurious fast retransmits, second-half share %.3f"
            % (s.fast_retx, share))


def test_criterion_5_eifel_restores_window(reorder_runs):
    result = reorder_runs[DetectorChoice.EIFEL][0]
    baseline = reorder_runs[DetectorChoice.NONE][0]
    events = [r for r in result.traces if r.event != "Sample"]
    det_iter = iter(result.detections)
    restore_ok = True
    for i, rec in enumerate(events):
        if rec.event != "SpuriousDetected":
            continue
        det = next(det_iter)
        nxt = events[i + 1] if i + 1 < len(events) else None
        if (nxt is None or nxt.event != "Restore"
                or nxt.subflow != rec.subflow
                or nxt.time_s != rec.time_s
                or nxt.cwnd != det.cwnd_before):
            restore_ok = False
    n = len(result.detections)
    ok = (restore_ok and n >= 1
          and result.stats.goodput_bps >= baseline.stats.goodput_bps)
    verdict(5, ok, "%d detections, exact restores=%s, goodput %.0f >= %.0f"
            % (n, restore_ok, result.stats.goodput_bps,
               baseline.stats.goodput_bps))


def _cwnd_at(samples, t):
    """Window from the last trace sample at or before time t."""
    value = samples[0][1]
    for ts, cwnd in samples:
        if ts > t:
            break
        value = cwnd
    return value


def _srtt_at(srtts, t):
    value = srtts[0][1]
    for ts, srtt in srtts:
        if ts > t:
            break
        value = srtt
    return value


def test_criterion_6_dsack_regrows_exponentially(reorder_runs):
    result, rec = reorder_runs[DetectorChoice.DSACK]
    # one smoothed-RTT entry per subflow per trace sample
    assert len(rec.srtts) == sum(1 for r in result.traces
                                 if r.event == "Sample") > 0
    detections = result.detections
    problems = []
    full_episodes = 0
    for k, det in enumerate(detections):
        sf = det.subflow
        samples = [(r.time_s, r.cwnd) for r in result.traces
                   if r.subflow == sf and r.event == "Sample"]
        srtts = [(t, v) for t, s, v in rec.srtts if s == sf]
        target = det.ssthresh_before  # the threshold DSACK restores
        end = next((r.time_s for r in result.traces
                    if r.subflow == sf and r.time_s > det.time_s
                    and r.event in ("FastRetransmit", "Rto")),
                   samples[-1][0])
        reached = any(det.time_s < t <= end and c >= target - 1e-9
                      for t, c in samples)
        if not reached:
            # episode cut short by the next recovery: the doubling shows up
            # as the window the next detection finds being ~2x this one
            later = [d for d in detections[k + 1:] if d.subflow == sf]
            if not later:
                problems.append("episode %d truncated with no successor" % k)
            elif later[0].cwnd_at_detection / det.cwnd_at_detection < 1.8:
                problems.append("episode %d ratio %.2f < 1.8 at next detection"
                                % (k, later[0].cwnd_at_detection
                                   / det.cwnd_at_detection))
            continue
        full_episodes += 1
        t = det.time_s
        while True:
            c1 = _cwnd_at(samples, t)
            if c1 >= target - 1e-9:
                break
            t2 = t + _srtt_at(srtts, t)
            c2 = _cwnd_at(samples, t2)
            if c2 >= target - 1e-9:
                break  # final partial interval is capped at ssthresh
            if c2 / c1 < 1.8:
                problems.append("episode %d interval [%.2f,%.2f] ratio %.2f"
                                % (k, t, t2, c2 / c1))
                break
            t = t2
    ok = not problems and len(detections) >= 1 and full_episodes >= 1
    verdict(6, ok, "; ".join(problems) or
            "%d detections, %d episodes doubled per RTT up to restored "
            "ssthresh" % (len(detections), full_episodes))


def _max_burst(result, rec):
    """Largest send count in any 100 ms bin within 1 s after a detection."""
    best = 0
    # the send log is complete: each MSS chunk once, plus the resends
    cfg = result.cfg
    assert len(rec.sends) == (-(-cfg.transfer_size // cfg.mss)
                              + sum(result.stats.retx_sf))
    sends = [ns for ns, _ in rec.sends]
    for det in result.detections:
        t0 = int(det.time_s * NS_PER_S)
        for b in range(10):
            lo = t0 + b * NS_PER_S // 10
            hi = lo + NS_PER_S // 10
            best = max(best, sum(1 for ns in sends if lo <= ns < hi))
    return best


def test_criterion_7_eifel_bursts_harder_than_dsack(reorder_runs):
    eifel = _max_burst(*reorder_runs[DetectorChoice.EIFEL])
    dsack = _max_burst(*reorder_runs[DetectorChoice.DSACK])
    verdict(7, eifel > dsack,
            "max 100 ms burst after detection: eifel=%d, dsack=%d"
            % (eifel, dsack))


def test_criterion_8_link_unit_checks():
    link = Link(LinkConfig(capacity_bps=0.5e6, one_way_delay_s=0.010))
    delivery = link.transmit(1000, now=0, rng=RandomStream(1))
    timing_ok = delivery == 26_000_000  # 16 ms serialization + 10 ms delay

    lossy = Link(LinkConfig(capacity_bps=1e9, one_way_delay_s=0.0,
                            loss_rate=0.05, queue_limit=10**6))
    rng = RandomStream(20260823)
    now = 0
    for _ in range(10_000):
        lossy.transmit(1000, now=now, rng=rng)
        now += 10_000
    drops = lossy.dropped_loss
    sigma = (10_000 * 0.05 * 0.95) ** 0.5
    loss_ok = abs(drops - 500.0) <= 3.0 * sigma
    verdict(8, timing_ok and loss_ok,
            "delivery at %d ns (want 26000000), %d drops of 10^4 at p=0.05 "
            "(3 sigma = %.1f)" % (delivery, drops, 3.0 * sigma))


def test_criterion_9_compensator_fairness():
    multi = load_scenario("paper-base")
    multi.transfer_size = 2 * MB
    multi.coupling = CouplingMode.RTT_COMPENSATOR
    multi_result = run_scenario(multi)

    single = load_scenario("paper-base")
    single.links = single.links[:1]
    single.transfer_size = 2 * MB
    single.coupling = CouplingMode.UNCOUPLED
    single_result = run_scenario(single)

    single_bps = single_result.stats.goodput_bps
    t = multi_result.stats.completion_time_s
    per_sf = [b * 8 / t for b in multi_result.stats.bytes_sf]
    worst = max(per_sf) / single_bps
    ok = (multi_result.stats.completed and single_result.stats.completed
          and all(bps <= 1.05 * single_bps for bps in per_sf))
    verdict(9, ok, "per-subflow/single-path goodput ratio max %.3f <= 1.05"
            % worst)
