"""Spurious-retransmission detection and state reconciliation.

Eifel compares the echoed timestamp of the ACK covering a retransmitted
range against the retransmission time: an older echo means the original
segment was acknowledged, so the window reduction is undone in one jump.

DSACK relies on the receiver reporting duplicate data; on a duplicate
report for a range retransmitted exactly once the sender restores the
slow-start threshold only and regrows the window from its current value
through slow start.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Tuple

from .subflow import Phase, Subflow


class DetectorChoice(Enum):
    NONE = "none"
    EIFEL = "eifel"
    DSACK = "dsack"


@dataclass
class SpuriousSnapshot:
    """Sender state captured when a retransmission is decided, before the
    associated window reduction."""

    cwnd_before: float
    ssthresh_before: float
    phase_before: Phase
    retransmit_ts: int  # virtual ns
    range_start: int    # data-seq span of the retransmitted segment
    range_end: int
    retransmit_count: int
    consumed: bool = False


def on_retransmit_record(sf: Subflow, data_start: int, data_end: int,
                         now: int) -> SpuriousSnapshot:
    """Record a retransmission decision; call before reducing the window.

    Keeps one snapshot per subflow (the most recent recovery episode) and
    a per-range retransmit count used by the DSACK ambiguity rule.
    """
    key = (data_start, data_end)
    count = sf.retransmit_counts.get(key, 0) + 1
    sf.retransmit_counts[key] = count
    snap = sf.saved
    if (snap is not None and not snap.consumed
            and (snap.range_start, snap.range_end) == key):
        # same recovery episode (e.g. an RTO re-sending the fast-retransmit
        # range): keep the pre-episode window values, refresh the stamp
        snap.retransmit_ts = now
        snap.retransmit_count = count
        return snap
    snap = SpuriousSnapshot(sf.cwnd, sf.ssthresh, sf.phase, now,
                            data_start, data_end, count)
    sf.saved = snap
    return snap


def eifel_check(snap: SpuriousSnapshot, ts_echo: Optional[int],
                data_ack: int) -> bool:
    """True iff the ACK (echoed timestamp `ts_echo`, None without one; data
    ACK `data_ack`) covering the retransmitted range was elicited by the
    original transmission (echoed timestamp predates the retransmission)."""
    if snap.consumed or ts_echo is None or data_ack < snap.range_end:
        return False
    return ts_echo < snap.retransmit_ts


def eifel_respond(sf: Subflow, snap: SpuriousSnapshot) -> None:
    """Restore the exact pre-retransmit window, threshold and phase."""
    if snap.consumed:
        return
    sf.cwnd = snap.cwnd_before
    sf.ssthresh = snap.ssthresh_before
    sf.phase = snap.phase_before
    sf.dup_ack_count = 0
    sf.spurious_detections += 1
    snap.consumed = True


def dsack_sender_check(snap: Optional[SpuriousSnapshot],
                       dsack_block: Optional[Tuple[int, int]]) -> bool:
    """True iff the DSACK block, a (start, end) tuple, names the snapshot's
    range and that range was retransmitted exactly once (more than once is
    ambiguous: no verdict)."""
    if snap is None or snap.consumed or dsack_block is None:
        return False
    if dsack_block != (snap.range_start, snap.range_end):
        return False
    return snap.retransmit_count == 1


def dsack_respond(sf: Subflow, snap: SpuriousSnapshot) -> None:
    """Restore ssthresh only; the window regrows from its current value
    through slow start, giving the characteristic exponential recovery."""
    if snap.consumed:
        return
    sf.ssthresh = snap.ssthresh_before
    if sf.cwnd < sf.ssthresh:
        sf.phase = Phase.SLOW_START
    else:
        sf.phase = Phase.CONGESTION_AVOIDANCE
    sf.dup_ack_count = 0
    sf.spurious_detections += 1
    snap.consumed = True
