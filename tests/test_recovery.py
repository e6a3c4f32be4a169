"""Loss recovery held to a reference model: RFC 6582 NewReno per subflow,
plus the Eifel and DSACK undo responses, driven through the simulator's
real ACK and RTO handlers."""

from collections import Counter

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

    def flight(self):
        """Unacked bytes, in MSS."""
        return sum(end - start for start, end, _ in self.segments) / MSS


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

    `reached` counts the runs of each of `BRANCHES` on an input that tells
    its two sides apart: where the rule the model takes and the other rule
    named beside it give different results.
    """

    def __init__(self, n, cwnd, ssthresh, detector):
        self.paths = [Path(cwnd, ssthresh) for _ in range(n)]
        self.detector = detector
        self.una = 0
        self.snd_nxt = 0
        self.resent = []      # (subflow, start, end), in order
        self.detections = 0
        self.reached = Counter()

    def _reach(self, branch, apart=True):
        if apart:
            self.reached[branch] += 1

    def send(self, i, size):
        self.paths[i].segments.append([self.snd_nxt, self.snd_nxt + size, 0])
        self.snd_nxt += size

    def _retransmit(self, i, seg, now):
        p = self.paths[i]
        seg[2] += 1
        if p.saved is not None and p.saved[4] is seg:
            # a new snapshot would hold the reduced values
            self._reach("D8", p.saved[:3] != [p.cwnd, p.ssthresh, p.phase])
            p.saved[3] = now                                       # (D8)
        else:
            p.saved = [p.cwnd, p.ssthresh, p.phase, now, seg]
        self.resent.append((i, seg[0], seg[1]))

    def _undo(self, p):
        cwnd, ssthresh, phase = p.saved[:3]
        p.ssthresh = ssthresh
        if self.detector is EIFEL:
            # the DSACK response would keep cwnd
            self._reach("Eifel verdict", p.cwnd != cwnd)
            p.cwnd, p.phase = cwnd, phase
        else:
            self._reach("DSACK verdict in fast recovery"
                        if p.phase == FAST_RECOVERY else
                        "DSACK verdict outside fast recovery")
            # restoring cwnd, or capping it at the saved value, lowers it
            self._reach("D5", p.cwnd > cwnd)
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
                    self._reach("full ACK")
                    # RFC 6582's option (1): min(ssthresh, FlightSize + MSS)
                    self._reach("D4", min(p.ssthresh, p.flight() + 1)
                                != max(p.ssthresh, 1.0))
                    p.cwnd = max(p.ssthresh, 1.0)                  # (D4)
                    p.phase = CONGESTION_AVOIDANCE
                elif acked:  # a partial ACK: cwnd unchanged        (D2)
                    self._reach("partial ACK")
                    # RFC 6582 deflates by the bytes acked and, for a full
                    # MSS or more, adds 1 MSS back
                    deflated = (p.cwnd - acked / MSS
                                + (1.0 if acked >= MSS else 0.0))
                    self._reach("D2", max(deflated, 1.0) != p.cwnd)
            elif acked and p.phase == SLOW_START:
                if p.cwnd < p.ssthresh:
                    grown = min(p.cwnd + acked / MSS, p.ssthresh)
                    # RFC 3465 adds at most L = 2 MSS per ACK
                    self._reach("D7 slow start", grown != min(
                        p.cwnd + min(acked / MSS, 2.0), p.ssthresh))
                    p.cwnd = grown                                 # (D7)
                if p.cwnd >= p.ssthresh:
                    p.phase = CONGESTION_AVOIDANCE
            elif acked:
                # RFC 5681 adds 1/cwnd MSS per ACK, whatever it acks
                self._reach("D7 congestion avoidance", acked != MSS)
                p.cwnd += 1 / p.cwnd * (acked / MSS)               # (D7)
            if (acked and ack < p.recover                          # (D3)
                    and p.segments and p.segments[0][0] <= ack):
                # gated on the phase, it would not resend here
                self._reach("D3", p.phase != FAST_RECOVERY)
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
            # RFC 5681 halves FlightSize
            self._reach("D6", max(p.flight() / 2, 2.0) != max(p.cwnd / 2, 2.0))
            p.ssthresh = max(p.cwnd / 2, 2.0)                      # (D6)
            self._reach("D1")  # RFC 6582 adds 3 MSS
            p.cwnd = p.ssthresh                                    # (D1)
            p.phase = FAST_RECOVERY
            p.recover = self.snd_nxt

    def rto(self, i, now):
        p = self.paths[i]
        self._reach("RTO in fast recovery", p.phase == FAST_RECOVERY)
        flight = p.flight()
        self._retransmit(i, p.segments[0], now)
        p.ssthresh = max(flight / 2, 2.0)
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


# the model's marked branches, and cases of them, that the test reaches
BRANCHES = ("D1", "D2", "D3", "D4", "D5", "D6", "D7 slow start",
            "D7 congestion avoidance", "D8", "full ACK", "partial ACK",
            "DSACK verdict in fast recovery",
            "DSACK verdict outside fast recovery", "Eifel verdict",
            "RTO in fast recovery")


# (kind, subflow, a, b, c): "send" maps b + 1 segments of a bytes; "ack"
# acknowledges up to the a-th unacked segment end, echoing the time of the
# b-th latest event; "dup" sends a duplicate ACKs in a row; both carry
# DSACK block c; "rto" fires the subflow's timer
EVENT = st.one_of(
    st.tuples(st.just("send"), st.integers(0, 1), st.sampled_from([MSS, 40]),
              st.integers(0, 3), st.just(0)),
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
        for _ in range({"dup": a, "send": b + 1}.get(kind, 1)):
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
# two segments, four duplicate ACKs, then one that reports the resent
# segment [0, MSS): a DSACK verdict in fast recovery, where the fourth
# duplicate ACK has inflated cwnd above its pre-episode value
DSACK_IN_FAST_RECOVERY = [("send", 0, MSS, 1, 0), ("dup", 0, 4, 0, 0),
                          ("dup", 0, 1, 0, 1)]
# three segments, an RTO that resends the first, a DSACK verdict on it in
# slow start, then an ACK to the first segment's end: the next segment
# starts there and lies below `recover`, so it is resent in slow start
RESEND_AFTER_UNDO = [("send", 0, MSS, 2, 0), ("rto", 0, 0, 0, 0),
                     ("dup", 0, 1, 0, 1), ("ack", 0, 0, 0, 0)]
# four segments, then an ACK of the first three: slow start adds 3 MSS,
# one more than RFC 3465's limit
SLOW_START_ACK_OF_3_MSS = [("send", 0, MSS, 3, 0), ("ack", 0, 2, 0, 0)]


def test_recovery_matches_newreno_model():
    # each marked branch runs, on an input that tells its two sides apart,
    # in one example at least
    reached = Counter()

    @settings(max_examples=300)
    @given(st.integers(1, 2), st.sampled_from([1.0, 2.0, 4.0, 10.0]),
           st.sampled_from([2.0, 4.0, 64.0]),
           st.sampled_from(list(DetectorChoice)),
           st.lists(EVENT, max_size=40))
    # a full ACK that ends exactly at `recover`
    @example(1, 2.0, 64.0, DetectorChoice.NONE,
             FAST_RECOVERY_AT_MSS + [("ack", 0, 0, 0, 0)])
    # an ACK that covers the resent segment, the last one below `recover`,
    # exactly: it echoes the first duplicate ACK's time, before the resend
    @example(1, 2.0, 64.0, EIFEL, FAST_RECOVERY_AT_MSS
             + [("send", 0, MSS, 0, 0), ("ack", 0, 0, 4, 0)])
    # an ACK that echoes the resend's own time: not spurious
    @example(1, 2.0, 64.0, EIFEL, FAST_RECOVERY_AT_MSS + [("ack", 0, 0, 1, 0)])
    @example(1, 10.0, 64.0, DetectorChoice.NONE, PARTIAL_ACK_OF_2_MSS)
    @example(1, 2.0, 64.0, DSACK, DSACK_IN_FAST_RECOVERY)
    @example(1, 2.0, 64.0, DSACK, RESEND_AFTER_UNDO)
    @example(1, 10.0, 64.0, DetectorChoice.NONE, SLOW_START_ACK_OF_3_MSS)
    def matches_model(n, cwnd, ssthresh, detector, events):
        reached.update(drive(n, cwnd, ssthresh, detector, events).reached)

    matches_model()
    assert [branch for branch in BRANCHES if not reached[branch]] == []
