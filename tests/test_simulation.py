"""End-to-end protocol behavior on small transfers."""

import heapq
import tracemalloc
from functools import partial

import pytest
from hypothesis import example, given, settings, strategies as st

from mpsim import spurious as sp
from mpsim.config import ScenarioConfig, load_scenario
from mpsim.connection import ReassemblyState
from mpsim.coupling import CouplingMode
from mpsim.harness import trace_csv_lines
from mpsim.netmodel import LinkConfig
from mpsim.simkernel import NS_PER_S, SimKernel, seconds_to_ns
from mpsim.simulation import Simulation
from mpsim.spurious import DetectorChoice
from mpsim.subflow import Mapping
from recording import Recorder


def two_path_cfg(delay2_ms=10.0, loss2=0.0, transfer=200_000, **kw):
    cfg = ScenarioConfig(
        links=[LinkConfig(0.5e6, 0.010),
               LinkConfig(0.5e6, delay2_ms / 1e3, loss_rate=loss2)],
        transfer_size=transfer)
    for key, value in kw.items():
        setattr(cfg, key, value)
    cfg.validate()
    return cfg


def run(cfg):
    return Simulation(cfg).run()


def test_rtts_fall_back_to_initial_rtt():
    # the coupling reads a subflow's initial_rtt until its first RTT sample
    sim = Simulation(two_path_cfg(initial_rtt=0.25))
    assert [sf.estimator.rtt for sf in sim.subflows] == [0.25, 0.25]
    sim.subflows[1].estimator.update(0.5)
    assert [sf.estimator.rtt for sf in sim.subflows] == [0.25, 0.5]


def test_lossless_symmetric_run_is_clean():
    result = run(two_path_cfg())
    s = result.stats
    assert s.completed and s.checksum_ok
    assert s.fast_retx == 0 and s.rtos == 0
    assert s.retx_sf == (0, 0)
    assert s.duplicate_bytes == 0
    assert s.protocol_violations == 0
    # symmetric paths should carry a similar share of the payload
    assert min(s.bytes_sf) / max(s.bytes_sf) > 0.8


def test_single_path_reduces_to_plain_tcp():
    cfg = ScenarioConfig(links=[LinkConfig(0.5e6, 0.010)],
                         transfer_size=200_000)
    result = run(cfg)
    assert result.stats.completed and result.stats.checksum_ok
    assert result.stats.bytes_sf == (200_000,)


def test_lossy_path_recovers_and_checksum_survives():
    result = run(two_path_cfg(loss2=0.05, seed=3))
    s = result.stats
    assert s.completed and s.checksum_ok
    assert s.retx_sf[1] > 0
    assert s.fast_retx + s.rtos > 0
    assert s.protocol_violations == 0


def test_a_resending_rto_arms_its_timer_once(monkeypatch):
    # the resend arms the subflow's timer; arming it a second time would
    # take a second ordinal for the same deadline. A firing that only
    # queues the due entry of a re-armed timer is no RTO and takes none.
    arm, on_rto = Simulation._arm_rto, Simulation._on_rto
    state = {"sf": None, "taken": 0}  # the subflow whose timer fires
    firings = []  # per firing: (an RTO was counted, ordinals taken)

    def spy_arm(self, sf):
        before = self.kernel._ordinal
        arm(self, sf)
        if sf is state["sf"]:
            state["taken"] += self.kernel._ordinal - before

    def spy_on_rto(self, sf):
        rtos = sf.rtos
        state.update(sf=sf, taken=0)
        on_rto(self, sf)
        state["sf"] = None
        firings.append((sf.rtos > rtos, state["taken"]))

    monkeypatch.setattr(Simulation, "_arm_rto", spy_arm)
    monkeypatch.setattr(Simulation, "_on_rto", spy_on_rto)
    result = run(two_path_cfg(loss2=0.05, seed=3))
    assert result.stats.completed and result.stats.rtos > 0
    assert [n for is_rto, n in firings if is_rto] == [1] * result.stats.rtos
    # stale entries came due too, and queueing the due one takes nothing
    assert len(firings) > result.stats.rtos
    assert all(n == 0 for is_rto, n in firings if not is_rto)


def test_rto_rearming_leaves_few_dead_heap_entries(monkeypatch):
    # every advancing ACK re-arms the timer; re-arming must not leave a
    # cancelled entry in the heap each time
    sim = Simulation(two_path_cfg(transfer=1_000_000))
    heappop = heapq.heappop
    pops = {"all": 0, "dead": 0}

    def counting_pop(queue):
        entry = heappop(queue)
        if queue is sim.kernel._queue:
            pops["all"] += 1
            pops["dead"] += entry[2] is None
        return entry

    # run_until_idle looks heapq.heappop up on each call
    monkeypatch.setattr(heapq, "heappop", counting_pop)
    result = sim.run()
    assert result.stats.completed and result.stats.checksum_ok
    assert result.stats.rtos == 0
    assert pops["all"] > 1000
    assert pops["dead"] < 0.02 * pops["all"]


class EagerTimers:
    """Reference RTO timers: each re-arm cancels the entry and schedules a
    fresh one."""

    def __init__(self, n):
        self.kernel = SimKernel()
        self.handles = [None] * n
        self.fired = []  # (time, ordinal) of each RTO

    def arm(self, i, rto_s):
        kernel = self.kernel
        if self.handles[i] is not None:
            kernel.cancel(self.handles[i])
        self.handles[i] = kernel.schedule(kernel.now + seconds_to_ns(rto_s),
                                          partial(self._fire, i))

    def disarm(self, i):
        if self.handles[i] is not None:
            self.kernel.cancel(self.handles[i])
            self.handles[i] = None

    def _fire(self, i):
        self.fired.append((self.kernel.now, self.handles[i][1]))
        self.handles[i] = None


class LazyTimers:
    """The simulator's own timer methods. Each subflow holds one mapping
    that an RTO counts but does not resend, so an RTO only stops the
    timer."""

    def __init__(self, n):
        sim = self.sim = Simulation(ScenarioConfig(
            links=[LinkConfig(1e6, 0.01) for _ in range(n)]))
        sim._send_mapping = lambda sf, m: None
        sim._pump = lambda: None
        for sf in sim.subflows:
            sf.mappings.append(Mapping(0, 1400))
        sim._rto_fn = self._fire  # each timer entry's args are (sf,)
        self.kernel = sim.kernel
        self.fired = []

    def arm(self, i, rto_s):
        sf = self.sim.subflows[i]
        sf.estimator.rto = rto_s
        self.sim._arm_rto(sf)

    def disarm(self, i):
        self.sim._disarm_rto(self.sim.subflows[i])

    def _fire(self, sf):
        rtos, due = sf.rtos, sf.rto_due
        self.sim._on_rto(sf)
        if sf.rtos > rtos:
            self.fired.append((self.kernel.now, due[1]))


TICK_NS = 10
TIMER_OP = st.one_of(
    st.tuples(st.just("arm"), st.integers(0, 1), st.integers(1, 6)),
    st.tuples(st.just("disarm"), st.integers(0, 1), st.just(0)),
    st.tuples(st.just("event"), st.just(0), st.integers(0, 6)),
    st.tuples(st.just("advance"), st.just(0), st.integers(0, 6)))


def drive_timers(timers, ops, n):
    """Apply `ops` from kernel events, as the simulator arms its timers:
    "advance" continues with the next op `ticks` later, "event" schedules
    an unrelated event. Returns the RTOs and the events scheduled."""
    kernel = timers.kernel
    ops = iter(ops)

    def step():
        for kind, i, ticks in ops:
            if kind == "arm":
                timers.arm(i % n, ticks * TICK_NS / NS_PER_S)
            elif kind == "disarm":
                timers.disarm(i % n)
            elif kind == "event":
                kernel.schedule(kernel.now + ticks * TICK_NS, lambda: None)
            else:
                kernel.schedule(kernel.now + ticks * TICK_NS, step)
                return

    kernel.schedule(0, step)
    kernel.run_until_idle(NS_PER_S)
    return timers.fired, kernel._ordinal


@settings(derandomize=True, max_examples=250, deadline=None)
@given(st.integers(1, 2), st.lists(TIMER_OP, max_size=40))
def test_lazy_rto_timer_fires_as_the_eager_one(n, ops):
    lazy = drive_timers(LazyTimers(n), ops, n)
    assert lazy == drive_timers(EagerTimers(n), ops, n)


# ----------------------------------------------------------- trace samples

def event_sampled_run(sim):
    """Reference driver: each trace sample is a kernel event that schedules
    the next, as the simulator once sampled."""
    kernel = sim.kernel

    def sample():
        sim._on_trace_sample(kernel.now)
        nxt = kernel.now + sim._trace_ns
        if nxt <= sim._stop_ns:
            kernel.schedule(nxt, sample)

    kernel.schedule(0, sample)
    kernel.schedule(sim._stop_ns, kernel.stop)
    sim._pump()
    kernel.run_until_idle(sim._stop_ns)


SAMPLE_OP = st.one_of(
    st.tuples(st.just("event"), st.integers(0, 8)),
    st.tuples(st.just("advance"), st.integers(0, 4)),
    st.tuples(st.just("complete"), st.just(0)))


def sample_order(driver, ops, interval, stop):
    """Run `ops` from kernel events, with a sample every `interval` ticks
    until `stop`: "event" schedules an event `ticks` later, "advance"
    continues with the next op `ticks` later, and "complete" ends the run
    as a completed transfer does. Returns the (time, what) of each sample
    and event in the order they happened, and the kernel's end time."""
    sim = Simulation(ScenarioConfig(links=[LinkConfig(1e6, 0.01)]))
    kernel = sim.kernel
    sim._trace_ns, sim._stop_ns = interval * TICK_NS, stop * TICK_NS
    log = []
    ops = iter(enumerate(ops))

    def step(pump=False):
        for n, (kind, ticks) in ops:
            if kind == "event":
                kernel.schedule(kernel.now + ticks * TICK_NS,
                                lambda n=n: log.append((kernel.now, n)))
            elif kind == "advance":
                kernel.schedule(kernel.now + ticks * TICK_NS, step)
                return
            elif not pump:  # the first sends complete no transfer
                sim.completed_ns = kernel.now
                kernel.stop()
                return

    sim._pump = partial(step, pump=True)
    sim._on_trace_sample = lambda now: log.append((now, "sample"))
    sim._result = lambda: None
    driver(sim)
    return log, kernel.now


# samples at 0, 3 and 6 and the stop at 8: events at 3 and 6 scheduled
# before and after the sample before them, events in the last interval, at
# the stop and past it
@settings(derandomize=True, max_examples=250, deadline=None)
@given(st.lists(SAMPLE_OP, max_size=40), st.integers(1, 5),
       st.integers(1, 30))
@example([("event", 3), ("event", 8), ("advance", 4), ("event", 2),
          ("event", 4), ("event", 8), ("advance", 3), ("event", 0),
          ("event", 1), ("advance", 0), ("event", 0)], 3, 8)
def test_sliced_sampler_keeps_the_event_sampler_order(ops, interval, stop):
    sliced = sample_order(Simulation.run, ops, interval, stop)
    assert sliced == sample_order(event_sampled_run, ops, interval, stop)


def test_sample_follows_only_the_events_queued_before_the_last_one():
    # the first ACKs land exactly on the 10 ms sample: those scheduled
    # before the 0 s sample come first, and the window they grow is not
    # yet in the sample's row
    cfg = ScenarioConfig(
        links=[LinkConfig(1e6, 0.00084), LinkConfig(1e6, 0.00084)],
        mss=1000, trace_interval=0.01, transfer_size=100_000,
        ack_loss=False)
    lines = trace_csv_lines(run(cfg).traces)
    assert lines[3:5] == ["0.01,1,2,64,slow_start,Sample",
                          "0.01,2,2,64,slow_start,Sample"]


def test_delay_asymmetry_triggers_spurious_fast_retransmit():
    # a lossless run, so every fast retransmit is caused by reordering
    result = run(two_path_cfg(delay2_ms=320.0))
    s = result.stats
    assert s.completed and s.checksum_ok
    assert s.fast_retx > 0
    assert s.duplicate_bytes > 0


def test_eifel_restores_exact_window_right_after_detection():
    result = run(two_path_cfg(delay2_ms=320.0, transfer=400_000,
                              detector=DetectorChoice.EIFEL))
    assert result.stats.spurious_detections > 0
    assert len(result.detections) == result.stats.spurious_detections
    events = [r for r in result.traces if r.event != "Sample"]
    det_iter = iter(result.detections)
    for i, rec in enumerate(events):
        if rec.event != "SpuriousDetected":
            continue
        det = next(det_iter)
        nxt = events[i + 1]
        assert nxt.event == "Restore"
        assert nxt.subflow == rec.subflow == det.subflow
        assert nxt.time_s == rec.time_s
        assert nxt.cwnd == det.cwnd_before
        assert nxt.ssthresh == det.ssthresh_before


def test_eifel_judges_only_snapshots_the_ack_covers(monkeypatch):
    # eifel_check compares timestamps only: the caller hands it a snapshot
    # only once the cumulative ACK covers the resent range
    sim = Simulation(two_path_cfg(delay2_ms=320.0,
                                  detector=DetectorChoice.EIFEL))
    check = sp.eifel_check
    covered = []

    def spy(snap, ts_echo):
        covered.append(sim.conn.data_una >= snap.mapping.data_end)
        return check(snap, ts_echo)

    monkeypatch.setattr(sp, "eifel_check", spy)
    assert sim.run().stats.completed
    assert covered and all(covered)


def test_dsack_restores_threshold_but_not_window():
    result = run(two_path_cfg(delay2_ms=320.0, transfer=400_000,
                              detector=DetectorChoice.DSACK))
    assert result.stats.spurious_detections > 0
    events = [r for r in result.traces if r.event != "Sample"]
    for i, rec in enumerate(events):
        if rec.event != "SpuriousDetected":
            continue
        nxt = events[i + 1]
        assert nxt.event == "Restore"
        assert nxt.ssthresh >= rec.ssthresh  # threshold is given back
        assert nxt.cwnd == rec.cwnd          # window is not jumped up


def test_dsack_never_fires_on_genuine_data_loss():
    # ack_loss off: every retransmission recovers data that really vanished
    # and never produces a duplicate arrival, so the duplicate-report
    # detector has nothing to fire on (the timestamp detector can still
    # misclassify here, because striping lets an in-flight segment from the
    # other path carry an old timestamp to the data-level left edge)
    result = run(two_path_cfg(loss2=0.05, seed=3, ack_loss=False,
                              detector=DetectorChoice.DSACK))
    assert result.stats.completed and result.stats.checksum_ok
    assert result.stats.spurious_detections == 0
    assert result.stats.duplicate_bytes == 0


def test_lost_ack_makes_the_retransmission_spurious():
    # a dropped ACK forces a retransmission of data the receiver already
    # holds; the detectors are expected to recognize exactly that case
    result = run(two_path_cfg(loss2=0.05, seed=3,
                              detector=DetectorChoice.DSACK))
    assert result.stats.completed and result.stats.checksum_ok
    assert result.stats.duplicate_bytes > 0
    assert result.stats.spurious_detections > 0


@pytest.mark.parametrize("detector", [DetectorChoice.EIFEL,
                                      DetectorChoice.DSACK],
                         ids=lambda d: d.value)
def test_each_detection_is_the_snapshot_its_trace_row_shows(detector):
    sim = Simulation(two_path_cfg(delay2_ms=320.0, transfer=400_000,
                                  detector=detector))
    result = sim.run()
    rows = [r for r in result.traces if r.event == "SpuriousDetected"]
    dets = result.detections
    assert result.stats.spurious_detections == len(dets) == len(rows) > 0
    assert ([(d.subflow, d.time_s, d.cwnd_at_detection) for d in dets]
            == [(r.subflow, r.time_s, r.cwnd) for r in rows])
    # a verdict consumes its snapshot: none is kept twice, and one still
    # waiting for a verdict has no verdict time
    assert len({id(d) for d in dets}) == len(dets)
    assert all(sf.saved is None or sf.saved.time_s is None
               for sf in sim.subflows)


def test_an_ack_beyond_the_data_sent_is_a_protocol_violation():
    # no receiver acks bytes never sent: such an ACK, injected into a
    # running transfer, is counted and otherwise ignored
    sim = Simulation(two_path_cfg())

    def rogue_ack():
        sim._on_ack(0, 0, sim.conn.data_snd_nxt + 1, None)

    sim.kernel.schedule(seconds_to_ns(0.5), rogue_ack)
    stats = sim.run().stats
    assert stats.protocol_violations == 1
    assert stats.completed and stats.checksum_ok


def test_send_log_is_deterministic():
    cfg = two_path_cfg(delay2_ms=320.0, loss2=0.01, seed=11)
    a, b = Recorder(cfg), Recorder(cfg)
    stats = a.run().stats
    b.run()
    assert len(a.sends) == 143 + sum(stats.retx_sf)  # 200 kB in 1400 B
    assert sum(size for _, _, size, _ in a.arrivals) == sum(stats.bytes_sf)
    assert a.sends == b.sends
    assert a.arrivals == b.arrivals


@pytest.mark.parametrize("mode", list(CouplingMode))
def test_every_coupling_mode_completes_cleanly(mode):
    result = run(two_path_cfg(coupling=mode))
    assert result.stats.completed and result.stats.checksum_ok


def test_sub_nanosecond_serialization_completes():
    # 1 byte at 16 Tbps over 0 ms serializes in 0.0005 ns; unfloored, the
    # RTT sample came out as 0 and the estimator raised
    cfg = ScenarioConfig(links=[LinkConfig(16e12, 0.0)], transfer_size=1)
    result = run(cfg)
    assert result.stats.completed and result.stats.checksum_ok


def _fault_on_fifth_delivery(fault):
    """ReassemblyState.on_data that repeats or withholds one delivery."""
    original = ReassemblyState.on_data
    state = {"deliveries": 0, "previous": None}

    def on_data(self, start, end):
        ack, delivered, dup = original(self, start, end)
        if delivered:
            state["deliveries"] += 1
            if state["deliveries"] == 5:
                delivered = state["previous"] if fault == "repeat" else None
            state["previous"] = delivered
        return ack, delivered, dup

    return on_data


@pytest.mark.parametrize("fault", ["repeat", "skip", "stray_mapping"])
def test_integrity_check_fails_on_injected_fault(fault, monkeypatch):
    sim = Simulation(two_path_cfg(loss2=0.01, seed=3))
    if fault == "stray_mapping":
        loop = sim.kernel.run_until_idle
        left = []

        def loop_then_leave_a_mapping(stop_time):
            end = loop(stop_time)
            # the run's final call: every slice ends before stop_time
            if stop_time == sim._stop_ns:
                sim.subflows[0].mappings.append(Mapping(0, 1400))
                left.append(stop_time)
            return end

        monkeypatch.setattr(sim.kernel, "run_until_idle",
                            loop_then_leave_a_mapping)
    else:
        monkeypatch.setattr(ReassemblyState, "on_data",
                            _fault_on_fifth_delivery(fault))
    stats = sim.run().stats
    assert stats.completed
    assert not stats.checksum_ok
    if fault == "stray_mapping":
        # left once, after the slices, by the call that ends at stop_time
        assert left == [seconds_to_ns(sim.cfg.stop_time)]


# ------------------------------------------------------------ flight ledger

class FlightLedger(Simulation):
    """Checks after every ACK that each subflow's flight is the bytes of the
    mappings it holds, and that the flights add up to the connection's
    unacked data."""

    def __init__(self, cfg):
        super().__init__(cfg)
        self.acks = 0

    def _on_ack(self, *args):
        super()._on_ack(*args)
        conn = self.conn
        for sf in self.subflows:
            assert sf.flight == sum(m.data_end - m.data_start
                                    for m in sf.mappings), sf.index
        assert sum(sf.flight for sf in self.subflows) \
            == conn.data_snd_nxt - conn.data_una
        self.acks += 1


def _three_link_cfg():
    cfg = two_path_cfg(delay2_ms=160.0, loss2=0.01, seed=5)
    cfg.links.append(LinkConfig(1e6, 0.080, loss_rate=0.02))
    return cfg


# case: (config, what the run must have gone through)
LEDGER_CASES = {
    # fast retransmits, RTOs, and NewReno resends on a partial ACK, which
    # neither of those two counters counts
    "lossy": (lambda: two_path_cfg(loss2=0.05, seed=1),
              lambda s: s.fast_retx and s.rtos
              and sum(s.retx_sf) > s.fast_retx + s.rtos),
    "three-links": (_three_link_cfg,
                    lambda s: s.completed and min(s.retx_sf) > 0),
    "stop-time": (lambda: two_path_cfg(delay2_ms=320.0, transfer=2_000_000,
                                       stop_time=3.0),
                  lambda s: not s.completed and s.delivered_bytes > 0),
}


@pytest.mark.parametrize("case", list(LEDGER_CASES))
def test_flight_ledger_holds_after_every_ack(case):
    make_cfg, went_through = LEDGER_CASES[case]
    sim = FlightLedger(make_cfg())
    s = sim.run().stats
    assert sim.acks > 0
    assert went_through(s), s
    assert s.checksum_ok or not s.completed


# --------------------------------------------------------- per-segment logs

# (link-2 Mbps, link-2 ms, link-2 loss, coupling, detector, third link?)
RECORD_POINTS = [
    (0.5, 10.0, 0.0, CouplingMode.UNCOUPLED, DetectorChoice.NONE, False),
    (4.0, 160.0, 0.01, CouplingMode.LINKED_INCREASES, DetectorChoice.EIFEL,
     False),
    (16.0, 320.0, 0.05, CouplingMode.FULLY_COUPLED, DetectorChoice.DSACK,
     False),
    (4.0, 320.0, 0.05, CouplingMode.RTT_COMPENSATOR, DetectorChoice.EIFEL,
     False),
    (16.0, 160.0, 0.01, CouplingMode.LINKED_INCREASES, DetectorChoice.DSACK,
     True),
    (0.5, 320.0, 0.0, CouplingMode.RTT_COMPENSATOR, DetectorChoice.NONE,
     True),
]


def record_point_cfg(capacity_mbps, delay_ms, loss, coupling, detector,
                     third_link):
    cfg = load_scenario("paper-base")
    link = cfg.links[1]
    link.capacity_bps = capacity_mbps * 1e6
    link.one_way_delay_s = delay_ms / 1e3
    link.loss_rate = loss
    if third_link:
        cfg.links.append(LinkConfig(4e6, 0.080, loss_rate=0.01))
    cfg.transfer_size = 1_000_000
    cfg.coupling = coupling
    cfg.detector = detector
    cfg.trace_interval = 1.0
    return cfg


@pytest.mark.parametrize(
    "point", RECORD_POINTS,
    ids=lambda p: "%s-%s-%gMbps-%gms-%gloss-%dlinks"
    % (p[3].value, p[4].value, p[0], p[1], p[2], 3 if p[5] else 2))
def test_recording_segments_changes_no_output(point):
    # a Recorder run in place of a Simulation changes none of its output
    cfg = record_point_cfg(*point)
    sim, rec = Simulation(cfg), Recorder(cfg)
    off, on = sim.run(), rec.run()
    assert off.stats.completed
    assert trace_csv_lines(on.traces) == trace_csv_lines(off.traces)
    assert repr(on.stats) == repr(off.stats)
    assert on.detections == off.detections
    # nor does it schedule another event or send another segment
    assert rec.kernel._ordinal == sim.kernel._ordinal
    assert ([sf.segments_sent for sf in rec.subflows]
            == [sf.segments_sent for sf in sim.subflows])
    # the logs are complete and agree with the counters
    n = len(cfg.links)
    assert len(rec.sends) == (-(-cfg.transfer_size // cfg.mss)
                              + sum(on.stats.retx_sf))
    arrived = [0] * n
    for _, sf, size, _ in rec.arrivals:
        arrived[sf - 1] += size
    assert tuple(arrived) == on.stats.bytes_sf
    samples = sum(1 for r in on.traces if r.event == "Sample")
    assert len(rec.srtts) == samples == n * len({r.time_s for r in on.traces
                                                 if r.event == "Sample"})


def test_default_run_memory_does_not_grow_with_transfer():
    # symmetric paths with a short drop-tail queue keep the window, and so
    # the in-flight state, in a steady sawtooth; one trace sample per run.
    # What could still grow with the transfer is per-segment state.
    def peak_bytes(transfer):
        cfg = ScenarioConfig(
            links=[LinkConfig(0.5e6, 0.010, queue_limit=10),
                   LinkConfig(0.5e6, 0.010, queue_limit=10)],
            transfer_size=transfer, trace_interval=1000.0, stop_time=1000.0)
        tracemalloc.start()
        try:
            result = run(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.stats.completed
        return peak

    small, large = peak_bytes(1_000_000), peak_bytes(10_000_000)
    assert large < 1.5 * small, (small, large)
