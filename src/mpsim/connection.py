"""Connection-level machinery: data sequence space, round-robin segment
scheduling, receiver reassembly and data-level cumulative ACK generation.
"""

from __future__ import annotations

import bisect
from typing import List, Optional, Tuple

from .subflow import Mapping, Subflow


class ConnectionState:
    """Sender-side data sequence space and scheduler cursor."""

    def __init__(self, transfer_size: int, mss: int, n_subflows: int):
        self.transfer_size = transfer_size
        self.mss = mss
        self.data_snd_nxt = 0
        self.data_una = 0
        self.n_subflows = n_subflows
        self.scheduler_cursor = n_subflows - 1


def schedule_next(conn: ConnectionState,
                  subflows: List[Subflow]) -> List[Tuple[Subflow, Mapping]]:
    """Map unsent data chunks onto window-eligible subflows.

    Round-robin from the scheduler cursor, one chunk per pick, until every
    subflow is window-blocked or nothing is left to send; returns the picks
    in order (empty when blocked). A subflow is blocked when one more MSS
    would take its flight past cwnd * mss.
    """
    picks = []
    snd_nxt = conn.data_snd_nxt
    end = conn.transfer_size
    if snd_nxt >= end:
        return picks
    mss = conn.mss
    n = conn.n_subflows
    idx = conn.scheduler_cursor
    blocked = 0
    while blocked < n:
        idx += 1
        if idx == n:
            idx = 0
        sf = subflows[idx]
        sf_nxt = sf.snd_nxt
        if sf_nxt - sf.snd_una + mss > sf.cwnd * mss:
            blocked += 1
            continue
        blocked = 0
        remaining = end - snd_nxt
        size = mss if mss < remaining else remaining
        m = Mapping(snd_nxt, snd_nxt + size, sf_nxt, sf_nxt + size)
        sf.mappings.append(m)
        sf.snd_nxt = sf_nxt + size
        snd_nxt += size
        conn.scheduler_cursor = idx
        picks.append((sf, m))
        if snd_nxt >= end:
            break
    conn.data_snd_nxt = snd_nxt
    return picks


def transfer_complete(conn: ConnectionState) -> bool:
    return conn.data_una >= conn.transfer_size


class ReassemblyState:
    """Receiver-side reassembly: cumulative point plus out-of-order ranges."""

    def __init__(self):
        self.rcv_data_next = 0
        # disjoint, sorted, non-adjacent [start, end) ranges above rcv_data_next
        self._starts = []
        self._ends = []

    @property
    def stored_ranges(self) -> List[Tuple[int, int]]:
        return list(zip(self._starts, self._ends))

    def duplicate_overlap(self, start: int, end: int) -> Optional[Tuple[int, int]]:
        """First contiguous sub-range of [start, end) already received."""
        if start < self.rcv_data_next:
            return (start, min(end, self.rcv_data_next))
        idx = bisect.bisect_right(self._starts, start) - 1
        if idx >= 0 and start < self._ends[idx]:
            return (start, min(end, self._ends[idx]))
        idx += 1
        if idx < len(self._starts) and self._starts[idx] < end:
            return (self._starts[idx], min(end, self._ends[idx]))
        return None

    def on_data(self, start: int, end: int):
        """Absorb [start, end); returns (data_ack, delivered_range_or_None,
        duplicate_subrange_or_None).

        delivered_range is the stretch of newly in-order bytes handed to the
        application (rcv_data_next advance), after coalescing across any
        stored ranges the arrival connects to.
        """
        if end <= start:
            raise ValueError("empty segment range")
        starts = self._starts
        if start == self.rcv_data_next and (not starts or end < starts[0]):
            # in order and not touching a stored range: nothing to search
            self.rcv_data_next = end
            return end, (start, end), None
        dup = self.duplicate_overlap(start, end)
        s = max(start, self.rcv_data_next)
        if s < end:
            self._insert(s, end)
        old = self.rcv_data_next
        if self._starts and self._starts[0] <= self.rcv_data_next:
            self.rcv_data_next = max(self.rcv_data_next, self._ends[0])
            del self._starts[0]
            del self._ends[0]
        delivered = (old, self.rcv_data_next) if self.rcv_data_next > old else None
        return self.rcv_data_next, delivered, dup

    def _insert(self, start: int, end: int) -> None:
        starts, ends = self._starts, self._ends
        lo = bisect.bisect_left(starts, start)
        # merge with a predecessor that overlaps or touches [start, end)
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
