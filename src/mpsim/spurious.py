"""Spurious-retransmission detection and state reconciliation.

Eifel compares the echoed timestamp of the ACK covering a resent
range against the retransmission time: an older echo means the original
segment was acknowledged, so the window reduction is undone in one jump.

DSACK relies on the receiver reporting duplicate data; on a duplicate
report for a range resent exactly once the sender restores the
slow-start threshold only and regrows the window from its current value
through slow start.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Tuple

from .subflow import CONGESTION_AVOIDANCE, SLOW_START, Mapping, Subflow


class DetectorChoice(Enum):
    NONE = "none"
    EIFEL = "eifel"
    DSACK = "dsack"


@dataclass
class SpuriousSnapshot:
    """Sender state captured when a retransmission is decided, before the
    associated window reduction. A spurious verdict stamps it with its time
    and the window then, and the run keeps it as that verdict's record."""

    cwnd_before: float
    ssthresh_before: float
    phase_before: str
    retransmit_ts: int                       # virtual ns
    mapping: Mapping = field(compare=False)  # the resent segment
    subflow: int                             # 1-based
    time_s: Optional[float] = None             # of the spurious verdict
    cwnd_at_detection: Optional[float] = None  # the window it found


def on_retransmit_record(sf: Subflow, m: Mapping,
                         now: int) -> SpuriousSnapshot:
    """Record a retransmission decision for mapping `m` of `sf`; call before
    reducing the window and resending `m`.

    Counts the resend on the mapping, where Karn's rule and the DSACK
    ambiguity rule read it, and on the subflow. Keeps one snapshot per
    subflow (the most recent recovery episode), until a verdict clears it.
    """
    m.retransmits += 1
    sf.retransmissions += 1
    snap = sf.saved
    if snap is not None and snap.mapping is m:
        # same recovery episode (e.g. an RTO re-sending the fast-retransmit
        # range): keep the pre-episode window values, refresh the stamp
        snap.retransmit_ts = now
        return snap
    snap = SpuriousSnapshot(sf.cwnd, sf.ssthresh, sf.phase, now, m,
                            sf.index + 1)
    sf.saved = snap
    return snap


def eifel_check(snap: SpuriousSnapshot, ts_echo: int) -> bool:
    """True iff an ACK covering the resent range, echoing timestamp
    `ts_echo`, was elicited by the original transmission (the echoed
    timestamp predates the retransmission). The caller checks coverage."""
    return ts_echo < snap.retransmit_ts


def eifel_respond(sf: Subflow, snap: SpuriousSnapshot) -> None:
    """Restore the exact pre-retransmit window, threshold and phase."""
    sf.cwnd = snap.cwnd_before
    sf.ssthresh = snap.ssthresh_before
    sf.phase = snap.phase_before
    sf.dup_ack_count = 0
    sf.saved = None


def dsack_sender_check(snap: Optional[SpuriousSnapshot],
                       dsack_block: Tuple[int, int]) -> bool:
    """True iff the DSACK block, a (start, end) tuple, names the snapshot's
    mapping and that mapping was resent exactly once (more than once is
    ambiguous: no verdict). No snapshot, as after a verdict, gives none."""
    if snap is None:
        return False
    m = snap.mapping
    if dsack_block != (m.data_start, m.data_end):
        return False
    return m.retransmits == 1


def dsack_respond(sf: Subflow, snap: SpuriousSnapshot) -> None:
    """Restore ssthresh only; the window regrows from its current value
    through slow start, giving the characteristic exponential recovery."""
    sf.ssthresh = snap.ssthresh_before
    if sf.cwnd < sf.ssthresh:
        sf.phase = SLOW_START
    else:
        sf.phase = CONGESTION_AVOIDANCE
    sf.dup_ack_count = 0
    sf.saved = None
