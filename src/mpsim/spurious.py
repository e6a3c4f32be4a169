"""Spurious-retransmission detection; `Simulation._undo` responds.

A snapshot of the sender's state is kept when a resend is decided, before
the window is cut. Eifel (RFC 3522) judges the resend spurious when the
ACK covering it echoes a timestamp older than the resend: the original
segment was acknowledged. DSACK (RFC 3708) judges it so when the receiver
reports the range, resent exactly once, as duplicate data.
"""

from __future__ import annotations

from enum import Enum
from typing import Optional, Tuple

from .record import Record
from .subflow import Mapping, Subflow


class DetectorChoice(Enum):
    NONE = "none"
    EIFEL = "eifel"
    DSACK = "dsack"


class SpuriousSnapshot(Record, no_compare=("mapping",)):
    """Sender state captured when a retransmission is decided, before the
    associated window reduction. A spurious verdict stamps it with its time
    and the window then, and the run keeps it as that verdict's record."""

    cwnd_before: float
    ssthresh_before: float
    phase_before: str
    retransmit_ts: int                 # virtual ns
    mapping: Mapping                   # the resent segment; not compared
    subflow: int                       # 1-based
    time_s: Optional[float] = None     # of the spurious verdict
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
