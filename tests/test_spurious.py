"""Spurious-retransmission detection: snapshots, Eifel and DSACK verdicts."""

from mpsim.config import ScenarioConfig
from mpsim.connection import ReassemblyState
from mpsim.netmodel import LinkConfig
from mpsim.simulation import Simulation
from mpsim.spurious import (DetectorChoice, dsack_sender_check, eifel_check,
                            on_retransmit_record)
from mpsim.subflow import (CONGESTION_AVOIDANCE, FAST_RECOVERY, SLOW_START,
                           Mapping, Subflow)


def make_subflow(cwnd=10.0, ssthresh=64.0, phase=SLOW_START, sf=None):
    sf = sf or Subflow(0, ScenarioConfig())
    sf.cwnd = cwnd
    sf.ssthresh = ssthresh
    sf.phase = phase
    return sf


def make_sim(detector, cwnd=10.0, ssthresh=64.0, phase=SLOW_START):
    """A bare one-link Simulation running `detector`, and its subflow set
    to the given window, threshold and phase."""
    sim = Simulation(ScenarioConfig(links=[LinkConfig(1e6, 0.01)],
                                    detector=detector))
    return sim, make_subflow(cwnd, ssthresh, phase, sim.subflows[0])


def undo(sim, sf, snap):
    """Give `snap` a spurious verdict and check that the run keeps it as
    the detection, traced by a SpuriousDetected row and then a Restore
    row."""
    sim._undo(sf, snap)
    assert len(sim.detections) == 1 and sim.detections[0] is snap
    detected, restored = sim.traces
    assert (detected.event, restored.event) == ("SpuriousDetected", "Restore")
    assert snap.cwnd_at_detection == detected.cwnd


# ---------------------------------------------------------------- snapshot

def test_snapshot_captures_pre_reduction_state():
    sf = make_subflow(cwnd=12.0, ssthresh=30.0, phase=CONGESTION_AVOIDANCE)
    m = Mapping(1400, 2800)
    snap = on_retransmit_record(sf, m, now=5_000)
    assert (snap.cwnd_before, snap.ssthresh_before) == (12.0, 30.0)
    assert snap.phase_before == CONGESTION_AVOIDANCE
    assert snap.mapping is m
    assert snap.subflow == 1
    # stamped only by a spurious verdict
    assert snap.time_s is None and snap.cwnd_at_detection is None
    assert m.retransmits == 1
    assert sf.retransmissions == 1
    assert sf.saved is snap


def test_rerecording_same_range_keeps_pre_episode_values():
    # an RTO re-sending the fast-retransmit range must not overwrite the
    # snapshot with the already-reduced window
    sf = make_subflow(cwnd=12.0)
    m = Mapping(0, 1400)
    snap = on_retransmit_record(sf, m, now=100)
    sf.cwnd, sf.ssthresh = 1.0, 2.0
    again = on_retransmit_record(sf, m, now=200)
    assert again is snap
    assert snap.cwnd_before == 12.0
    assert snap.retransmit_ts == 200
    assert m.retransmits == 2


def test_new_range_replaces_snapshot_and_counts_per_range():
    sf = make_subflow()
    m1, m2 = Mapping(0, 1400), Mapping(1400, 2800)
    on_retransmit_record(sf, m1, now=100)
    snap2 = on_retransmit_record(sf, m2, now=200)
    assert sf.saved is snap2
    assert snap2.mapping is m2
    assert (m1.retransmits, m2.retransmits) == (1, 1)
    assert sf.retransmissions == 2


# ------------------------------------------------------------------- Eifel

def test_eifel_detects_echo_older_than_retransmission():
    sf = make_subflow()
    snap = on_retransmit_record(sf, Mapping(0, 1400), now=1_000)
    assert eifel_check(snap, ts_echo=500)
    assert not eifel_check(snap, ts_echo=1_000)
    assert not eifel_check(snap, ts_echo=1_500)


def test_eifel_respond_restores_exact_state():
    sim, sf = make_sim(DetectorChoice.EIFEL, cwnd=24.0, ssthresh=48.0,
                       phase=CONGESTION_AVOIDANCE)
    snap = on_retransmit_record(sf, Mapping(0, 1400), now=1_000)
    sf.cwnd, sf.ssthresh, sf.phase = 2.0, 12.0, FAST_RECOVERY
    sf.dup_ack_count = 5
    undo(sim, sf, snap)
    assert (sf.cwnd, sf.ssthresh) == (24.0, 48.0)
    assert sf.phase == CONGESTION_AVOIDANCE
    assert sf.dup_ack_count == 0
    assert sf.saved is None


def test_consumed_snapshot_never_fires_again():
    # a verdict clears the snapshot: a later resend of the same mapping is a
    # new episode, recorded against the window the subflow has by then
    sim, sf = make_sim(DetectorChoice.EIFEL, cwnd=24.0, ssthresh=48.0)
    m = Mapping(0, 1400)
    snap = on_retransmit_record(sf, m, now=1_000)
    sf.cwnd, sf.ssthresh = 1.0, 2.0
    undo(sim, sf, snap)
    assert sf.saved is None
    sf.cwnd, sf.ssthresh = 30.0, 40.0
    fresh = on_retransmit_record(sf, m, now=2_000)
    assert fresh is not snap
    assert sf.saved is fresh
    assert (fresh.cwnd_before, fresh.ssthresh_before) == (30.0, 40.0)
    assert fresh.retransmit_ts == 2_000
    assert m.retransmits == 2


# ------------------------------------------------------------------- DSACK

def test_receiver_reports_duplicate_overlap():
    # the duplicate range the receiver puts in its next ACK is the one
    # on_data returns: the whole arrival when all of it was held already,
    # only the overlapping part when it reaches into new data, else none
    recv = ReassemblyState()
    recv.on_data(0, 1400)
    assert recv.on_data(0, 1400)[2] == (0, 1400)
    assert recv.on_data(700, 2100)[2] == (700, 1400)
    assert recv.on_data(2100, 3500)[2] is None


def test_dsack_verdict_needs_exact_range_and_single_retransmit():
    sf = make_subflow()
    snap = on_retransmit_record(sf, Mapping(1400, 2800), now=1_000)
    assert dsack_sender_check(snap, (1400, 2800))
    assert not dsack_sender_check(snap, (1400, 2100))
    assert not dsack_sender_check(None, (1400, 2800))


def test_dsack_ambiguous_after_second_retransmission():
    sf = make_subflow()
    m = Mapping(1400, 2800)
    on_retransmit_record(sf, m, now=1_000)
    snap = on_retransmit_record(sf, m, now=2_000)
    assert m.retransmits == 2
    assert not dsack_sender_check(snap, (1400, 2800))


def test_dsack_respond_restores_threshold_only():
    sim, sf = make_sim(DetectorChoice.DSACK, cwnd=14.0, ssthresh=28.0)
    snap = on_retransmit_record(sf, Mapping(0, 1400), now=1_000)
    sf.cwnd, sf.ssthresh, sf.phase = 7.0, 7.0, FAST_RECOVERY
    undo(sim, sf, snap)
    assert sf.cwnd == 7.0                 # window is not jumped back
    assert sf.ssthresh == 28.0            # threshold is restored
    assert sf.phase == SLOW_START   # regrow exponentially from 7
    assert sf.saved is None


def test_dsack_respond_keeps_avoidance_above_threshold():
    sim, sf = make_sim(DetectorChoice.DSACK, cwnd=30.0, ssthresh=20.0)
    snap = on_retransmit_record(sf, Mapping(0, 1400), now=1_000)
    sf.cwnd, sf.phase = 25.0, FAST_RECOVERY
    undo(sim, sf, snap)
    assert sf.phase == CONGESTION_AVOIDANCE
