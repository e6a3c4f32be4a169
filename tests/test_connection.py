"""Connection-level scheduling and reassembly."""

import bisect
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from mpsim.config import ScenarioConfig, load_scenario
from mpsim.connection import (ConnectionState, ReassemblyState, schedule_next,
                              transfer_complete)
from mpsim.netmodel import LinkConfig
from mpsim.simulation import Simulation
from mpsim.spurious import DetectorChoice
from mpsim.subflow import Subflow


# --------------------------------------------------------------- scheduler

def make_pair(transfer=100_000, n=2):
    conn = ConnectionState(transfer, 1400, n)
    return conn, [Subflow(i, ScenarioConfig()) for i in range(n)]


def test_round_robin_alternates_between_open_subflows():
    conn, sfs = make_pair()  # initial cwnd 2 MSS on each
    picks = schedule_next(conn, sfs)
    assert [sf.index for sf, _ in picks] == [0, 1, 0, 1]
    assert [m.data_start for _, m in picks] == [0, 1400, 2800, 4200]
    assert conn.data_snd_nxt == 4 * 1400
    assert conn.scheduler_cursor == 1
    # the next batch resumes after the cursor once a window opens
    sfs[1].cwnd = 3.0
    sfs[0].cwnd = 3.0
    assert [sf.index for sf, _ in schedule_next(conn, sfs)] == [0, 1]


def test_scheduler_skips_window_blocked_subflow():
    conn, sfs = make_pair()
    sfs[0].cwnd = 0.0
    picks = [sf.index for sf, _ in schedule_next(conn, sfs)]
    assert picks == [1, 1]


def test_scheduler_blocked_when_no_window_anywhere():
    conn, sfs = make_pair()
    for sf in sfs:
        sf.cwnd = 0.0
    assert schedule_next(conn, sfs) == []
    assert conn.data_snd_nxt == 0
    assert conn.scheduler_cursor == 1


def test_last_chunk_is_truncated_to_transfer_size():
    conn, sfs = make_pair(transfer=2000)
    (_, m1), (_, m2) = schedule_next(conn, sfs)
    assert (m1.data_end - m1.data_start, m2.data_end - m2.data_start) \
        == (1400, 600)
    assert conn.data_snd_nxt == 2000
    assert schedule_next(conn, sfs) == []


def test_mapping_assigns_data_ranges_and_counts_flight():
    conn, sfs = make_pair()
    picks = schedule_next(conn, sfs)
    sf, m = picks[0]
    assert (m.data_start, m.data_end) == (0, 1400)
    # the subflow's second chunk is the connection's third
    sf2, m2 = picks[2]
    assert sf2 is sf
    assert (m2.data_start, m2.data_end) == (2800, 4200)
    assert list(sf.mappings) == [m, m2]
    assert sf.flight == 2800


def reference_schedule(cwnds, flights, cursor, mss, snd_nxt, end):
    """What `schedule_next` must do, one chunk at a time: the chunk at
    `snd_nxt`, at most `mss` bytes, goes to the first subflow after the
    cursor with room for one more MSS in cwnd * mss; that subflow becomes
    the cursor. Stops when nothing is left or no subflow has room."""
    n = len(cwnds)
    flights = list(flights)
    picks = []
    while snd_nxt < end:
        room = [i for i in ((cursor + k) % n for k in range(1, n + 1))
                if flights[i] + mss <= cwnds[i] * mss]
        if not room:
            break
        cursor = room[0]
        size = min(mss, end - snd_nxt)
        picks.append((cursor, snd_nxt, snd_nxt + size))
        flights[cursor] += size
        snd_nxt += size
    return picks, flights, cursor, snd_nxt


@st.composite
def scheduler_state(draw):
    mss = draw(st.integers(1, 1500))
    n = draw(st.integers(1, 4))
    # fractional windows, and flights both arbitrary and in whole MSS, so
    # that one more MSS lands exactly on a window as often as not
    cwnds = draw(st.lists(st.integers(4, 48).map(lambda q: q / 4),
                          min_size=n, max_size=n))
    flights = draw(st.lists(
        st.one_of(st.integers(0, 12 * mss),
                  st.integers(0, 12).map(lambda k: k * mss)),
        min_size=n, max_size=n))
    cursor = draw(st.integers(0, n - 1))
    snd_nxt = draw(st.integers(0, 10 ** 6))
    left = draw(st.integers(0, 40 * mss))
    return mss, cwnds, flights, cursor, snd_nxt, left


@settings(derandomize=True, max_examples=300, deadline=None)
@given(scheduler_state())
def test_schedule_next_matches_reference(state):
    mss, cwnds, flights, cursor, snd_nxt, left = state
    conn = ConnectionState(snd_nxt + left, mss, len(cwnds))
    conn.scheduler_cursor = cursor
    conn.data_snd_nxt = snd_nxt
    sfs = []
    for i, (cwnd, flight) in enumerate(zip(cwnds, flights)):
        sf = Subflow(i, ScenarioConfig())
        sf.cwnd, sf.flight = cwnd, flight
        sfs.append(sf)
    picks = schedule_next(conn, sfs)
    expected = reference_schedule(cwnds, flights, cursor, mss, snd_nxt,
                                  snd_nxt + left)
    got = [(sf.index, m.data_start, m.data_end) for sf, m in picks]
    assert (got, [sf.flight for sf in sfs], conn.scheduler_cursor,
            conn.data_snd_nxt) == expected
    for sf in sfs:
        assert list(sf.mappings) == [m for p, m in picks if p is sf]


class SendRecorder(Simulation):
    """Records, for every send, the range, the subflow and whether the range
    was still mapped and unacknowledged on that subflow at the time."""

    def __init__(self, cfg):
        super().__init__(cfg)
        self.log = []

    def _send_mapping(self, sf, m):
        mapped = any(q.data_start == m.data_start and q.data_end == m.data_end
                     for q in sf.mappings)
        unacked = m.data_end > self.conn.data_una
        # a resend is counted on its mapping before it is sent
        self.log.append((m.data_start, m.data_end, sf.index, m.retransmits > 0,
                         mapped and unacked))
        super()._send_mapping(sf, m)


def lossy_sends():
    cfg = ScenarioConfig(
        links=[LinkConfig(0.5e6, 0.010, loss_rate=0.02),
               LinkConfig(0.5e6, 0.040, loss_rate=0.05)],
        transfer_size=200_000, seed=3, record_segments=True)
    sim = SendRecorder(cfg)
    result = sim.run()
    assert result.stats.completed and sum(result.stats.retx_sf) > 0
    # the recorder saw every send the simulation logged, on its subflow
    assert [e[2] + 1 for e in sim.log] == [sf for _, sf in result.sends]
    return sim.log


def test_retransmit_policy_returns_owner_subflow():
    # retransmissions stay on the subflow that first carried the range
    owner = {}
    retransmitted = 0
    for start, end, sf, retx, _ in lossy_sends():
        if retx:
            assert owner[(start, end)] == sf
            retransmitted += 1
        else:
            assert (start, end) not in owner
            owner[(start, end)] = sf
    assert retransmitted > 0


def test_retransmit_policy_rejects_unmapped_range():
    # a retransmission only ever re-sends a range that is still mapped on
    # its subflow and not yet cumulatively acknowledged
    retransmissions = [entry for entry in lossy_sends() if entry[3]]
    assert retransmissions
    assert all(mapped for *_, mapped in retransmissions)


def test_transfer_complete_at_cumulative_point():
    conn, _ = make_pair(transfer=2800)
    assert not transfer_complete(conn)
    conn.data_una = 2800
    assert transfer_complete(conn)


# -------------------------------------------------------------- reassembly

def test_in_order_delivery_advances_ack():
    recv = ReassemblyState()
    ack, delivered, dup = recv.on_data(0, 1400)
    assert (ack, delivered, dup) == (1400, (0, 1400), None)


def test_gap_is_held_until_filled():
    recv = ReassemblyState()
    ack, delivered, dup = recv.on_data(1400, 2800)
    assert (ack, delivered, dup) == (0, None, None)
    assert recv.stored_ranges == [(1400, 2800)]
    ack, delivered, dup = recv.on_data(0, 1400)
    assert (ack, delivered, dup) == (2800, (0, 2800), None)
    assert recv.stored_ranges == []


def test_exact_duplicate_is_reported():
    recv = ReassemblyState()
    recv.on_data(0, 1400)
    ack, delivered, dup = recv.on_data(0, 1400)
    assert ack == 1400
    assert delivered is None
    assert dup == (0, 1400)


def test_partial_overlap_reports_only_the_duplicate_part():
    recv = ReassemblyState()
    recv.on_data(0, 1400)
    ack, delivered, dup = recv.on_data(700, 2100)
    assert dup == (700, 1400)
    assert delivered == (1400, 2100)
    assert ack == 2100


def test_duplicate_of_stored_out_of_order_range():
    recv = ReassemblyState()
    recv.on_data(2800, 4200)
    _, _, dup = recv.on_data(2800, 4200)
    assert dup == (2800, 4200)


def test_coalescing_across_multiple_stored_ranges():
    recv = ReassemblyState()
    recv.on_data(1400, 2800)
    recv.on_data(4200, 5600)
    ack, delivered, _ = recv.on_data(2800, 4200)
    assert ack == 0  # still a hole at [0, 1400)
    assert recv.stored_ranges == [(1400, 5600)]
    ack, delivered, _ = recv.on_data(0, 1400)
    assert (ack, delivered) == (5600, (0, 5600))


@given(st.lists(st.tuples(st.integers(min_value=0, max_value=20),
                          st.integers(min_value=1, max_value=8)),
                min_size=1, max_size=40))
def test_reassembly_equivalent_to_byte_set(segments):
    """Whatever the arrival order/overlap, the cumulative point must equal
    the longest received prefix and duplicates never corrupt it."""
    recv = ReassemblyState()
    seen = set()
    ack = 0
    for start, length in segments:
        end = start + length
        ack, delivered, _ = recv.on_data(start, end)
        seen.update(range(start, end))
        expected = 0
        while expected in seen:
            expected += 1
        assert ack == expected
        if delivered:
            assert delivered[1] == ack
    for s, e in recv.stored_ranges:
        assert all(b in seen for b in range(s, e))


class ReferenceReassembly:
    """The general merge `ReassemblyState.on_data` replaced, kept as the
    reference: find the first duplicate stretch, insert the new bytes with
    their overlapping or touching neighbours, then deliver the first range
    if it reaches `rcv_data_next`."""

    def __init__(self):
        self.rcv_data_next = 0
        self._starts = []
        self._ends = []

    @property
    def stored_ranges(self):
        return list(zip(self._starts, self._ends))

    def duplicate_overlap(self, start, end):
        if start < self.rcv_data_next:
            return (start, min(end, self.rcv_data_next))
        idx = bisect.bisect_right(self._starts, start) - 1
        if idx >= 0 and start < self._ends[idx]:
            return (start, min(end, self._ends[idx]))
        idx += 1
        if idx < len(self._starts) and self._starts[idx] < end:
            return (self._starts[idx], min(end, self._ends[idx]))
        return None

    def on_data(self, start, end):
        dup = self.duplicate_overlap(start, end)
        s = max(start, self.rcv_data_next)
        if s < end:
            self._insert(s, end)
        old = self.rcv_data_next
        if self._starts and self._starts[0] <= self.rcv_data_next:
            self.rcv_data_next = max(self.rcv_data_next, self._ends[0])
            del self._starts[0]
            del self._ends[0]
        new = self.rcv_data_next
        delivered = (old, new) if new > old else None
        return self.rcv_data_next, delivered, dup

    def _insert(self, start, end):
        starts, ends = self._starts, self._ends
        lo = bisect.bisect_left(starts, start)
        if lo > 0 and ends[lo - 1] >= start:
            lo -= 1
            start = starts[lo]
            end = max(end, ends[lo])
        hi = lo
        while hi < len(starts) and starts[hi] <= end:
            end = max(end, ends[hi])
            hi += 1
        starts[lo:hi] = [start]
        ends[lo:hi] = [end]


MSS = 100
# an MSS chunk by index (drawn from few indices, so in-order, out-of-order
# and exact repeats all occur), or any byte range: partial overlaps, ranges
# spanning several stored ranges, ranges below rcv_data_next
ARRIVAL = st.one_of(
    st.integers(0, 15).map(lambda k: (k * MSS, (k + 1) * MSS)),
    st.tuples(st.integers(0, 16 * MSS), st.integers(1, 4 * MSS)).map(
        lambda r: (r[0], r[0] + r[1])))


@settings(derandomize=True, max_examples=500, deadline=None)
@given(st.lists(ARRIVAL, max_size=40))
def test_reassembly_matches_reference(arrivals):
    recv, ref = ReassemblyState(), ReferenceReassembly()
    for start, end in arrivals:
        assert recv.on_data(start, end) == ref.on_data(start, end)
        assert recv.stored_ranges == ref.stored_ranges
        assert recv.rcv_data_next == ref.rcv_data_next


# Every arrival case, against rcv_data_next 100 and stored ranges
# [200, 300) and [400, 500): (arrival, expected (data_ack, delivered, dup)).
ARRIVAL_CASES = {
    "in order, touching nothing": ((100, 150), (150, (100, 150), None)),
    "in order, filling the hole exactly": ((100, 200),
                                           (300, (100, 300), None)),
    "in order, overlapping": ((100, 250), (300, (100, 300), (200, 250))),
    "out of order, inside a held range": ((220, 280),
                                          (100, None, (220, 280))),
    "out of order, overlapping held bytes": ((350, 450),
                                             (100, None, (400, 450))),
    "out of order, joining two ranges": ((300, 400), (100, None, None)),
    "out of order, extending the range below": ((300, 350),
                                                (100, None, None)),
    "out of order, extending the range above downward": ((350, 400),
                                                         (100, None, None)),
    "out of order, a new range": ((320, 380), (100, None, None)),
    "wholly below rcv_data_next": ((50, 100), (100, None, (50, 100))),
    "straddling, touching nothing": ((50, 150),
                                     (150, (100, 150), (50, 100))),
    "straddling, filling the hole exactly": ((50, 200),
                                             (300, (100, 300), (50, 100))),
    "straddling, overlapping": ((50, 250), (300, (100, 300), (50, 100))),
}


@pytest.mark.parametrize("case", ARRIVAL_CASES)
def test_each_arrival_case_matches_reference(case, monkeypatch):
    # tools/reassembly_arrivals.py counts these cases in recorded traffic
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "tools"))
    from reassembly_arrivals import classify
    (start, end), expected = ARRIVAL_CASES[case]
    assert classify([200, 400], [300, 500], 100, start, end) == case
    recv, ref = ReassemblyState(), ReferenceReassembly()
    for buf in (recv, ref):
        buf.rcv_data_next = 100
        buf._starts, buf._ends = [200, 400], [300, 500]
    assert recv.on_data(start, end) == ref.on_data(start, end) == expected
    assert recv.stored_ranges == ref.stored_ranges
    assert recv.rcv_data_next == ref.rcv_data_next


def test_recorded_arrivals_match_reference(monkeypatch):
    # Real runs build buffers of more ranges than the sequences above; each
    # short path of on_data must meet them.
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "tools"))
    from reassembly_arrivals import (SHORT_PATHS, arrivals, case_counts,
                                     first_difference)
    cfgs = []
    for detector in DetectorChoice:
        cfg = load_scenario("paper-reorder")
        cfg.transfer_size = 1_000_000
        cfg.detector = detector
        cfgs.append(cfg)
    lossy = load_scenario("paper-base")
    lossy.transfer_size = 1_000_000
    lossy.links[1].loss_rate = 0.05
    cfgs.append(lossy)
    runs = arrivals(cfgs)
    assert first_difference(ReassemblyState, ReferenceReassembly,
                            runs) is None
    counts = case_counts(runs)
    assert all(counts[case] for case in SHORT_PATHS), counts


def test_out_of_order_arrivals_merge_with_both_neighbours():
    recv = ReassemblyState()
    assert recv.on_data(200, 300) == (0, None, None)
    assert recv.on_data(400, 500) == (0, None, None)
    assert recv.on_data(300, 400) == (0, None, None)  # joins both
    assert recv.stored_ranges == [(200, 500)]
    assert recv.on_data(600, 700) == (0, None, None)
    assert recv.on_data(500, 550) == (0, None, None)  # extends the left
    assert recv.on_data(580, 600) == (0, None, None)  # extends the right
    assert recv.stored_ranges == [(200, 550), (580, 700)]
    assert recv.on_data(0, 200) == (550, (0, 550), None)  # fills the hole
    assert recv.stored_ranges == [(580, 700)]


@pytest.mark.parametrize("start, end", [(100, 100), (100, 50)])
def test_empty_or_reversed_range_is_refused(start, end):
    recv = ReassemblyState()
    recv.on_data(200, 300)
    with pytest.raises(ValueError, match="empty segment range"):
        recv.on_data(start, end)
    assert (recv.rcv_data_next, recv.stored_ranges) == (0, [(200, 300)])
