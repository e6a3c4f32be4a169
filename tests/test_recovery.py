"""Loss recovery held to a reference model: RFC 6582 NewReno per subflow,
plus the Eifel and DSACK undo responses, driven through the simulator's
real ACK and RTO handlers."""

from hypothesis import example, given, settings, strategies as st

from mpsim.config import ScenarioConfig
from mpsim.coupling import CouplingMode
from mpsim.netmodel import LinkConfig
from mpsim.simulation import Simulation
from mpsim.spurious import DetectorChoice
from mpsim.subflow import (CONGESTION_AVOIDANCE, FAST_RECOVERY, SLOW_START,
                           Mapping)

MSS = 100
EIFEL, DSACK = DetectorChoice.EIFEL, DetectorChoice.DSACK


class Path:
    """One subflow's sender state in the model."""

    def __init__(self, cwnd, ssthresh):
        self.cwnd = cwnd
        self.ssthresh = ssthresh
        self.phase = SLOW_START
        self.recover = 0   # RFC 6582's `recover`, as the next byte to send
        self.dupacks = 0
        # [cwnd, ssthresh, phase, retransmit time, segment] before the
        # episode's reduction, until a verdict consumes it
        self.saved = None
        self.segments = []  # unacked [start, end, times resent], in order


class NewRenoModel:
    """RFC 6582 NewReno (with RFC 5681's growth and RTO response) for each
    subflow of a multipath sender with data-level cumulative ACKs, and the
    spurious-retransmission undo of Eifel (RFC 3522) and DSACK (RFC 3708).

    Multipath reading. ACKs are data-level and return on the subflow the
    data came in on. A duplicate ACK counts on that subflow only. An
    advancing ACK acks bytes of every subflow; a subflow's duplicate count
    restarts only when some of its own bytes are acked. A partial ACK
    resends a subflow's first unacked segment only if that subflow had
    bytes acked and owns the next hole (the segment starts at or below the
    ACK). Eifel judges every subflow's saved episode on each advancing ACK;
    DSACK judges the arrival subflow's.

    Where the simulator departs from the RFCs, or takes one of the ways
    they leave open, the model does the same, each on one line marked
    (D1) to (D8):
    D1. fast retransmit sets cwnd = ssthresh, without RFC 6582's +3 MSS;
    D2. a partial ACK neither deflates cwnd nor adds back 1 MSS;
    D3. the partial-ACK resend is gated on `recover`, not on the phase, so
        it also runs in slow start and congestion avoidance;
    D4. a full ACK takes RFC 6582's option (2), cwnd = ssthresh, floored
        at 1 MSS;
    D5. a DSACK undo restores ssthresh only and keeps the fast-recovery
        inflation; an Eifel undo restores cwnd, ssthresh and phase;
    D6. fast retransmit halves cwnd, not RFC 5681's FlightSize;
    D7. slow start adds every acked MSS (RFC 3465 byte counting with no
        limit L), capped at ssthresh; congestion avoidance adds
        acked / cwnd MSS per ACK;
    D8. one snapshot per episode: an RTO that resends the segment fast
        retransmit resent keeps the pre-episode values and moves the
        retransmit time Eifel compares with to the latest resend.
    """

    def __init__(self, n, cwnd, ssthresh, detector):
        self.paths = [Path(cwnd, ssthresh) for _ in range(n)]
        self.detector = detector
        self.una = 0
        self.snd_nxt = 0
        self.resent = []      # (subflow, start, end), in order
        self.detections = 0
        # the most bytes of its own subflow a partial ACK in fast recovery
        # acked: D2's line can tell the rules apart only from 2 MSS on
        self.partial_acked = 0

    def send(self, i, size):
        self.paths[i].segments.append([self.snd_nxt, self.snd_nxt + size, 0])
        self.snd_nxt += size

    def _retransmit(self, i, seg, now):
        p = self.paths[i]
        seg[2] += 1
        if p.saved is not None and p.saved[4] is seg:
            p.saved[3] = now                                       # (D8)
        else:
            p.saved = [p.cwnd, p.ssthresh, p.phase, now, seg]
        self.resent.append((i, seg[0], seg[1]))

    def _undo(self, p):
        cwnd, ssthresh, phase = p.saved[:3]
        p.ssthresh = ssthresh
        if self.detector is EIFEL:
            p.cwnd, p.phase = cwnd, phase
        else:
            # (D5) cwnd stays as it is
            p.phase = SLOW_START if p.cwnd < p.ssthresh else \
                CONGESTION_AVOIDANCE
        p.dupacks = 0
        p.saved = None
        self.detections += 1

    def _dsack(self, p, block):
        if p.saved is not None:
            seg = p.saved[4]
            if block == (seg[0], seg[1]) and seg[2] == 1:
                self._undo(p)

    def ack(self, i, ack, echo, dsack, now):
        if ack > self.una:
            self._advance(i, ack, echo, dsack, now)
        elif ack == self.una and self.snd_nxt > self.una:
            self._duplicate(i, dsack, now)

    def _advance(self, i, ack, echo, dsack, now):
        self.una = ack
        for k, p in enumerate(self.paths):
            acked = 0
            while p.segments and p.segments[0][1] <= ack:
                start, end, _ = p.segments.pop(0)
                acked += end - start
            if acked:
                p.dupacks = 0
            if p.phase == FAST_RECOVERY:
                if ack >= p.recover:                     # full ACK
                    p.cwnd = max(p.ssthresh, 1.0)                  # (D4)
                    p.phase = CONGESTION_AVOIDANCE
                else:  # a partial ACK: cwnd unchanged              (D2)
                    self.partial_acked = max(self.partial_acked, acked)
            elif acked and p.phase == SLOW_START:
                if p.cwnd < p.ssthresh:
                    p.cwnd = min(p.cwnd + acked / MSS, p.ssthresh)  # (D7)
                if p.cwnd >= p.ssthresh:
                    p.phase = CONGESTION_AVOIDANCE
            elif acked:
                p.cwnd += 1 / p.cwnd * (acked / MSS)               # (D7)
            if (acked and ack < p.recover                          # (D3)
                    and p.segments and p.segments[0][0] <= ack):
                self._retransmit(k, p.segments[0], now)
        if dsack:
            self._dsack(self.paths[i], dsack)
        if self.detector is EIFEL:
            for p in self.paths:
                if p.saved is not None and ack >= p.saved[4][1] \
                        and echo < p.saved[3]:
                    self._undo(p)

    def _duplicate(self, i, dsack, now):
        p = self.paths[i]
        p.dupacks += 1
        if dsack:
            self._dsack(p, dsack)
        if p.phase == FAST_RECOVERY:
            p.cwnd += 1.0
        elif p.dupacks >= 3 and p.segments and self.una >= p.recover:
            self._retransmit(i, p.segments[0], now)
            p.ssthresh = max(p.cwnd / 2, 2.0)                      # (D6)
            p.cwnd = p.ssthresh                                    # (D1)
            p.phase = FAST_RECOVERY
            p.recover = self.snd_nxt

    def rto(self, i, now):
        p = self.paths[i]
        flight = sum(end - start for start, end, _ in p.segments)
        self._retransmit(i, p.segments[0], now)
        p.ssthresh = max(flight / MSS / 2, 2.0)
        p.cwnd = 1.0
        p.phase = SLOW_START
        p.dupacks = 0
        p.recover = self.snd_nxt


def recording_sim(n, cwnd, ssthresh, detector):
    """A Simulation on `n` uncoupled links whose handlers are driven by
    hand: nothing is sent unless the test maps it, and every send the
    simulator makes itself, a resend, is recorded."""
    sim = Simulation(ScenarioConfig(
        links=[LinkConfig(1e6, 0.01) for _ in range(n)], mss=MSS,
        transfer_size=10**9, coupling=CouplingMode.UNCOUPLED,
        detector=detector, initial_cwnd=cwnd, initial_ssthresh=ssthresh))
    sim.resent = []
    sim._send_mapping = lambda sf, m: sim.resent.append(
        (sf.index, m.data_start, m.data_end))
    sim._pump = lambda: None
    return sim


def state(sim):
    rows = []
    for sf in sim.subflows:
        snap = sf.saved
        if snap is not None:
            m = snap.mapping
            snap = [snap.cwnd_before, snap.ssthresh_before, snap.phase_before,
                    snap.retransmit_ts, (m.data_start, m.data_end)]
        rows.append((sf.cwnd, sf.ssthresh, sf.phase, sf.recover_point,
                     sf.dup_ack_count, snap))
    return rows, sim.conn.data_una, sim.resent, len(sim.detections)


def model_state(model):
    rows = []
    for p in model.paths:
        snap = p.saved
        if snap is not None:
            snap = snap[:4] + [(snap[4][0], snap[4][1])]
        rows.append((p.cwnd, p.ssthresh, p.phase, p.recover, p.dupacks, snap))
    return rows, model.una, model.resent, model.detections


# (kind, subflow, a, b, c): "send" maps a segment of a bytes; "ack"
# acknowledges up to the a-th unacked segment end, echoing the time of the
# b-th latest event; "dup" sends a duplicate ACKs in a row; both carry
# DSACK block c; "rto" fires the subflow's timer
EVENT = st.one_of(
    st.tuples(st.just("send"), st.integers(0, 1), st.sampled_from([MSS, 40]),
              st.just(0), st.just(0)),
    st.tuples(st.just("ack"), st.integers(0, 1), st.integers(0, 3),
              st.integers(0, 4), st.integers(0, 2)),
    st.tuples(st.just("dup"), st.integers(0, 1), st.integers(1, 3),
              st.just(0), st.integers(0, 2)),
    st.tuples(st.just("rto"), st.integers(0, 1), st.just(0), st.just(0),
              st.just(0)))


def dsack_block(model, i, kind):
    """No block (0), the arrival subflow's saved range (1), or a range
    that is not it (2)."""
    if kind == 0 or model.detector is not DSACK:
        return None
    saved = model.paths[i].saved
    if saved is None:
        return (0, MSS)
    start, end = saved[4][0], saved[4][1]
    return (start, end) if kind == 1 else (start, end + 1)


def drive(n, cwnd, ssthresh, detector, events):
    """Apply `events` to the simulator's handlers and to the model, and
    compare the two after every ACK, send and RTO; returns the model."""
    sim = recording_sim(n, cwnd, ssthresh, detector)
    model = NewRenoModel(n, float(cwnd), float(ssthresh), detector)
    conn = sim.conn
    times = []  # of every ACK, send and RTO so far
    for kind, i, a, b, c in events:
        i %= n
        sf = sim.subflows[i]
        for _ in range(a if kind == "dup" else 1):
            sim.kernel.now += 1  # an RTT sample must be positive
            now = sim.kernel.now
            times.append(now)
            echo = times[max(len(times) - 1 - b, 0)]
            if kind == "send":
                m = Mapping(conn.data_snd_nxt, conn.data_snd_nxt + a)
                m.sent_ns = now
                sf.mappings.append(m)
                sf.flight += a
                conn.data_snd_nxt += a
                model.send(i, a)
            elif kind == "ack":
                ends = sorted(s[1] for p in model.paths for s in p.segments)
                ack = ends[a % len(ends)] if ends else model.una
                block = dsack_block(model, i, c)
                sim._on_ack(i, echo, ack, block)
                model.ack(i, ack, echo, block, now)
            elif kind == "dup":
                block = dsack_block(model, i, c)
                sim._on_ack(i, echo, conn.data_una, block)
                model.ack(i, model.una, echo, block, now)
            elif sf.mappings:
                sf.rto_handle = sf.rto_due
                sim._on_rto(sf)
                model.rto(i, now)
            assert state(sim) == model_state(model), (kind, i, a, b, c)
    return model


# one segment, [0, MSS), and three duplicate ACKs: it is resent by fast
# retransmit at the fourth event, and `recover` is MSS
FAST_RECOVERY_AT_MSS = [("send", 0, MSS, 0, 0), ("dup", 0, 3, 0, 0)]
# three segments, three duplicate ACKs, then a partial ACK to the second
# segment's end: 2 MSS acked in fast recovery, where D2 keeps cwnd and RFC
# 6582 deflates it by 2 MSS and adds 1 back (a 1-MSS partial ACK would
# deflate 1 and add 1: no difference)
PARTIAL_ACK_OF_2_MSS = [("send", 0, MSS, 0, 0)] * 3 + [
    ("dup", 0, 3, 0, 0), ("ack", 0, 1, 0, 0)]


@settings(max_examples=300)
@given(st.integers(1, 2), st.sampled_from([1.0, 2.0, 4.0, 10.0]),
       st.sampled_from([2.0, 4.0, 64.0]),
       st.sampled_from(list(DetectorChoice)), st.lists(EVENT, max_size=40))
# a full ACK that ends exactly at `recover`
@example(1, 2.0, 64.0, DetectorChoice.NONE,
         FAST_RECOVERY_AT_MSS + [("ack", 0, 0, 0, 0)])
# an ACK that covers the resent segment, the last one below `recover`,
# exactly: it echoes the first duplicate ACK's time, before the resend
@example(1, 2.0, 64.0, EIFEL,
         FAST_RECOVERY_AT_MSS + [("send", 0, MSS, 0, 0), ("ack", 0, 0, 4, 0)])
# an ACK that echoes the resend's own time: not spurious
@example(1, 2.0, 64.0, EIFEL, FAST_RECOVERY_AT_MSS + [("ack", 0, 0, 1, 0)])
@example(1, 10.0, 64.0, DetectorChoice.NONE, PARTIAL_ACK_OF_2_MSS)
def test_recovery_matches_newreno_model(n, cwnd, ssthresh, detector, events):
    model = drive(n, cwnd, ssthresh, detector, events)
    if events == PARTIAL_ACK_OF_2_MSS:
        assert model.partial_acked >= 2 * MSS
