"""Subflow sender state: RTT estimation, window gating, ack bookkeeping."""

import pytest
from hypothesis import given, settings, strategies as st

from mpsim.config import ScenarioConfig
from mpsim.connection import ConnectionState, schedule_next
from mpsim.simkernel import NS_PER_S
from mpsim.subflow import SLOW_START, Mapping, RttEstimator, Subflow


# ------------------------------------------------------------ RttEstimator

def test_first_sample_initializes_estimator():
    est = RttEstimator(0.2, 60.0, 1.0, 0.1)
    assert est.srtt is None
    assert est.rto == 1.0  # initial RTO before any sample
    assert est.rtt == 0.1  # the coupling's RTT: initial_rtt until a sample
    est.update(0.100)
    assert est.srtt is not None
    assert est.rtt == est.srtt
    assert est.srtt == pytest.approx(0.100)
    assert est.rttvar == pytest.approx(0.050)
    assert est.rto == pytest.approx(0.300)


def test_second_identical_sample_shrinks_variance():
    est = RttEstimator(0.2, 60.0, 1.0, 0.1)
    est.update(0.100)
    est.update(0.100)
    assert est.srtt == pytest.approx(0.100)
    assert est.rttvar == pytest.approx(0.0375)
    assert est.rto == pytest.approx(0.250)


def test_rto_floor_clamps_small_rtts():
    est = RttEstimator(0.2, 60.0, 1.0, 0.1)
    for _ in range(30):
        est.update(0.001)
    assert est.rto == 0.2


def test_rto_ceiling_clamps_large_rtts():
    est = RttEstimator(0.2, 60.0, 1.0, 0.1)
    est.update(100.0)
    assert est.rto == 60.0


def test_backoff_doubles_up_to_ceiling():
    est = RttEstimator(0.2, 60.0, 1.0, 0.1)
    est.update(0.100)
    assert est.rto == pytest.approx(0.300)
    est.backoff()
    assert est.rto == pytest.approx(0.600)
    for _ in range(10):
        est.backoff()
    assert est.rto == 60.0


def test_nonpositive_sample_rejected():
    est = RttEstimator(0.2, 60.0, 1.0, 0.1)
    with pytest.raises(ValueError):
        est.update(0.0)


def reference_rto_estimates(floor, ceiling, initial_rto, samples):
    """RFC 6298 section 2 with alpha = 1/8, beta = 1/4, K = 4, no clock
    granularity term, and the RTO clamped to [floor, ceiling]: the
    (srtt, rttvar, rto) after each sample, preceded by the initial RTO."""
    def clamp(rto):
        return min(max(rto, floor), ceiling)

    srtt = rttvar = None
    out = [(None, None, clamp(initial_rto))]
    for r in samples:
        if srtt is None:
            srtt, rttvar = r, r / 2
        else:
            # RTTVAR first: it reads the SRTT of before this sample
            rttvar = (1 - 1 / 4) * rttvar + 1 / 4 * abs(srtt - r)
            srtt = (1 - 1 / 8) * srtt + 1 / 8 * r
        out.append((srtt, rttvar, clamp(srtt + 4 * rttvar)))
    return out


SECONDS = st.floats(min_value=1e-6, max_value=200.0)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.floats(min_value=1e-3, max_value=1.0), st.floats(0.0, 100.0),
       SECONDS, st.lists(SECONDS, max_size=20))
def test_rtt_estimator_matches_rfc6298_reference(floor, extra, initial_rto,
                                                 samples):
    est = RttEstimator(floor, floor + extra, initial_rto, 0.1)
    seen = [(est.srtt, est.rttvar, est.rto)]
    for sample in samples:
        est.update(sample)
        seen.append((est.srtt, est.rttvar, est.rto))
    assert seen == reference_rto_estimates(floor, floor + extra, initial_rto,
                                           samples)
    assert est.rtt == (est.srtt if samples else 0.1)


# ----------------------------------------------------------------- Subflow

def make_subflow(**kw):
    return Subflow(0, ScenarioConfig(**kw))


def test_can_send_respects_window():
    # the scheduler maps a chunk onto a subflow only while one more MSS
    # keeps its flight within cwnd * mss
    def sendable(flight):
        sf = make_subflow(initial_cwnd=2.0)
        sf.flight = flight
        return len(schedule_next(ConnectionState(100_000, 1400, 1), [sf]))
    assert sendable(0) == 2
    assert sendable(1400) == 1
    assert sendable(2800) == 0  # flight == cwnd * mss


def test_flight_is_unacked_bytes():
    sf = make_subflow()
    assert sf.flight == 0
    for data_start in range(0, 7000, 1400):
        add_mapping(sf, data_start)
    assert sf.flight == 7000
    sf.ack_update(2800, now_ns=10)
    assert sf.flight == 4200
    sf.ack_update(3500, now_ns=20)  # covers no whole mapping
    assert sf.flight == 4200
    sf.ack_update(7000, now_ns=30)
    assert sf.flight == 0


def add_mapping(sf, data_start, size=1400, sent_s=0.0):
    m = Mapping(data_start, data_start + size)
    m.sent_ns = int(sent_s * NS_PER_S)
    sf.mappings.append(m)
    sf.flight += size
    return m


class RecordingEstimator:
    """Stands in for `Subflow.estimator`: keeps the samples fed to it, in
    order."""

    def __init__(self):
        self.samples = []

    def update(self, sample):
        self.samples.append(sample)


def test_ack_update_pops_covered_mappings_and_samples():
    sf = make_subflow()
    sf.estimator = est = RecordingEstimator()
    add_mapping(sf, 0, sent_s=1.0)
    add_mapping(sf, 1400, sent_s=1.5)
    add_mapping(sf, 2800, sent_s=2.0)
    acked, taken = sf.ack_update(2800, now_ns=int(2.1 * NS_PER_S))
    assert acked == 2800
    assert sf.flight == 1400
    assert len(sf.mappings) == 1
    assert est.samples == pytest.approx([1.1, 0.6])
    assert taken == 2


def test_ack_update_karn_skips_retransmitted_mappings():
    sf = make_subflow()
    sf.estimator = est = RecordingEstimator()
    m = add_mapping(sf, 0, sent_s=1.0)
    m.retransmits = 1
    acked, taken = sf.ack_update(1400, now_ns=3 * NS_PER_S)
    assert acked == 1400
    assert est.samples == []
    assert taken == 0


def test_ack_update_resets_dup_count_only_on_progress():
    sf = make_subflow()
    add_mapping(sf, 0)
    sf.dup_ack_count = 2
    acked, _ = sf.ack_update(0, now_ns=0)
    assert acked == 0
    assert sf.dup_ack_count == 2
    acked, _ = sf.ack_update(1400, now_ns=10)
    assert acked == 1400
    assert sf.dup_ack_count == 0


def test_ack_update_ignores_partial_coverage():
    sf = make_subflow()
    add_mapping(sf, 0)
    acked, _ = sf.ack_update(700, now_ns=10)
    assert acked == 0
    assert len(sf.mappings) == 1


def reference_ack_update(mappings, flight, dup_ack_count, data_una, now_ns):
    """What `ack_update` must do, stated directly: the leading mappings
    whose data range ends at or below `data_una` are acked; each one never
    resent and sent at all gives a sample (Karn's rule); their bytes leave
    `flight`; any progress resets the duplicate count."""
    covered = []
    for m in mappings:
        if m.data_end > data_una:
            break
        covered.append(m)
    acked = sum(m.data_end - m.data_start for m in covered)
    samples = [(now_ns - m.sent_ns) / NS_PER_S for m in covered
               if m.retransmits == 0 and m.sent_ns >= 0]
    return (acked, samples, mappings[len(covered):], flight - acked,
            0 if acked else dup_ack_count)


# (size, data-seq gap before it: bytes mapped on other subflows, send time
# or -1 for never sent, times resent)
MAPPING = st.tuples(st.integers(1, 3000), st.integers(0, 3000),
                    st.one_of(st.just(-1), st.integers(0, 10 * NS_PER_S)),
                    st.integers(0, 3))
# (data_una, reaching past the last of 40 mappings; ns after the latest
# send; duplicate count before the call)
ACK = st.tuples(st.integers(0, 40 * 6000), st.integers(1, NS_PER_S),
                st.integers(0, 5))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.lists(MAPPING, max_size=40), st.lists(ACK, max_size=8))
def test_ack_update_matches_reference(drawn, acks):
    sf = make_subflow()
    data_seq = 0
    for size, gap, sent_ns, retransmits in drawn:
        data_seq += gap
        m = add_mapping(sf, data_seq, size)
        m.sent_ns, m.retransmits = sent_ns, retransmits
        data_seq += size
    latest = max((m.sent_ns for m in sf.mappings), default=0)
    for data_una, after, dup in acks:
        now_ns = latest + after
        sf.dup_ack_count = dup
        expected = reference_ack_update(list(sf.mappings), sf.flight, dup,
                                        data_una, now_ns)
        sf.estimator = est = RecordingEstimator()
        acked, taken = sf.ack_update(data_una, now_ns)
        assert (acked, est.samples, list(sf.mappings), sf.flight,
                sf.dup_ack_count) == expected
        assert taken == len(est.samples)


def test_initial_phase_and_defaults():
    sf = make_subflow()
    assert sf.phase == SLOW_START
    assert sf.cwnd == 2.0
    assert sf.ssthresh == 64.0
