"""Connection-level machinery: data sequence space, round-robin segment
scheduling, receiver reassembly and data-level cumulative ACK generation.
"""

from __future__ import annotations

import bisect
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
        """
        if end <= start:
            raise ValueError("empty segment range")
        starts = self._starts
        nxt = self.rcv_data_next
        if start == nxt:
            dup = None
        elif start > nxt:
            # out of order: one search finds starts[i-1] <= start < starts[i]
            ends = self._ends
            i = bisect.bisect_right(starts, start)
            if i and start < ends[i - 1]:
                dup = (start, min(end, ends[i - 1]))
            elif i < len(starts) and starts[i] < end:
                dup = (starts[i], min(end, ends[i]))
            else:
                # no held byte inside: merge with the neighbours it touches
                if i and ends[i - 1] == start:
                    if i < len(starts) and starts[i] == end:
                        ends[i - 1] = ends[i]
                        del starts[i]
                        del ends[i]
                    else:
                        ends[i - 1] = end
                elif i < len(starts) and starts[i] == end:
                    starts[i] = start
                else:
                    starts.insert(i, start)
                    ends.insert(i, end)
                return nxt, None, None
            # overlaps held bytes: one range replaces every range it
            # overlaps or touches
            lo = i - 1 if i and ends[i - 1] >= start else i
            hi = bisect.bisect_right(starts, end, i)
            if lo < i:
                start = starts[lo]
            if ends[hi - 1] > end:
                end = ends[hi - 1]
            starts[lo:hi] = [start]
            ends[lo:hi] = [end]
            return nxt, None, dup
        else:
            # starts below rcv_data_next: that part was delivered already
            dup = (start, min(end, nxt))
            if end <= nxt:
                return nxt, None, dup
        if not starts or end < starts[0]:
            # in order and not touching a stored range: nothing to search
            self.rcv_data_next = end
            return end, (nxt, end), dup
        ends = self._ends
        if end == starts[0]:
            # fills the hole below the first stored range exactly
            end = ends[0]
            del starts[0]
            del ends[0]
        else:
            # reaches into the stored ranges: deliver every range it
            # overlaps or touches
            if dup is None:
                dup = (starts[0], min(end, ends[0]))
            hi = bisect.bisect_right(starts, end)
            if ends[hi - 1] > end:
                end = ends[hi - 1]
            del starts[:hi]
            del ends[:hi]
        self.rcv_data_next = end
        return end, (nxt, end), dup
