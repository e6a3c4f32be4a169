"""Connection-level machinery: data sequence space, round-robin segment
scheduling, receiver reassembly and data-level cumulative ACK generation.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import List, Tuple

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
        if sf.flight + mss > sf.cwnd * mss:
            blocked += 1
            continue
        blocked = 0
        remaining = end - snd_nxt
        size = mss if mss < remaining else remaining
        m = Mapping(snd_nxt, snd_nxt + size)
        sf.mappings.append(m)
        sf.flight += size
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

    def on_data(self, start: int, end: int):
        """Absorb [start, end); returns (data_ack, delivered_range_or_None,
        duplicate_subrange_or_None).

        delivered_range is the stretch of newly in-order bytes handed to the
        application (rcv_data_next advance), after coalescing across any
        stored ranges the arrival connects to. duplicate_subrange is the
        first contiguous stretch of the arrival that was already received.

        Four short paths take the arrivals the workloads mostly send: in
        order touching no stored range, in order exactly filling the hole
        below the first range, out of order extending the range below, and
        out of order as a new range. Each gives what the general rule
        after them would. That rule covers every other arrival: find the
        stored ranges it overlaps or touches, take its first held stretch
        as the duplicate, merge them, then deliver the merged range if it
        reaches rcv_data_next or store it in their place.
        """
        if end <= start:
            raise ValueError("empty segment range")
        starts = self._starts
        ends = self._ends
        nxt = self.rcv_data_next
        if start == nxt:
            if not starts or end < starts[0]:
                # in order, touching no stored range
                self.rcv_data_next = end
                return end, (nxt, end), None
            if end == starts[0]:
                # in order, exactly filling the hole below the first range
                end = ends[0]
                del starts[0]
                del ends[0]
                self.rcv_data_next = end
                return end, (nxt, end), None
        # the first stored range that overlaps or touches the arrival
        lo = bisect_left(ends, start)
        if start > nxt:
            if lo == len(ends) or end < starts[lo]:
                # out of order, a new range
                starts.insert(lo, start)
                ends.insert(lo, end)
                return nxt, None, None
            if ends[lo] == start and (lo + 1 == len(ends)
                                      or end < starts[lo + 1]):
                # out of order, extending the range below
                ends[lo] = end
                return nxt, None, None
        # The general rule: the arrival overlaps or touches stored ranges
        # lo .. hi-1. Its first held stretch is the part below
        # rcv_data_next, or else its part in the first range it overlaps.
        hi = bisect_right(starts, end, lo)
        dup = None
        if start < nxt:
            dup = (start, nxt if nxt < end else end)
        elif lo < hi:
            k = lo + 1 if ends[lo] == start else lo
            if k < hi and starts[k] < end:
                s, e = starts[k], ends[k]
                dup = (s if s > start else start, e if e < end else end)
        # Merge them into one range, and deliver it if it reaches
        # rcv_data_next (then lo is 0: every stored range ends above it).
        if lo < hi:
            if starts[lo] < start:
                start = starts[lo]
            if ends[hi - 1] > end:
                end = ends[hi - 1]
        if start > nxt:
            starts[lo:hi] = [start]
            ends[lo:hi] = [end]
            return nxt, None, dup
        del starts[:hi]
        del ends[:hi]
        if end <= nxt:
            return nxt, None, dup
        self.rcv_data_next = end
        return end, (nxt, end), dup
