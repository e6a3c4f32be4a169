"""Event-driven MPTCP transfer engine.

One Simulation owns a kernel, per-path forward/reverse links, the sender's
subflows and connection state, and the receiver's reassembly state. ACKs
are data-level cumulative and return on the subflow the data arrived on,
which is what makes duplicate ACKs attributable to a path: segments taking
the longer path make the other path's arrivals look like losses, and the
sender reacts with (spurious) fast retransmits unless a detector undoes it.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from . import spurious as sp
from .config import LinkConfig, ScenarioConfig
from .connection import ConnectionState, ReassemblyState, schedule_next
from .coupling import on_ack_increase, on_loss_decrease
from .netmodel import Link
from .record import Record
from .simkernel import NS_PER_S, RandomStream, SimKernel, seconds_to_ns
from .spurious import DetectorChoice
from .subflow import (ACK_SIZE_BYTES, CONGESTION_AVOIDANCE, FAST_RECOVERY,
                      SLOW_START, Subflow)


# a trace row's event, as the trace writes it
SAMPLE = "Sample"
FAST_RETRANSMIT = "FastRetransmit"
RTO = "Rto"
SPURIOUS_DETECTED = "SpuriousDetected"
RESTORE = "Restore"
EVENTS = (SAMPLE, FAST_RETRANSMIT, RTO, SPURIOUS_DETECTED, RESTORE)


class TraceRecord(Record):
    __slots__ = ("time_s", "subflow", "cwnd", "ssthresh", "phase", "event")
    time_s: float
    subflow: int   # 1-based
    cwnd: float
    ssthresh: float
    phase: str     # one of subflow.PHASES
    event: str     # one of EVENTS


class SummaryStats(Record):
    completed: bool
    completion_time_s: Optional[float]
    goodput_bps: float
    delivered_bytes: int
    bytes_sf: Tuple[int, ...]        # payload bytes arrived per subflow,
                                     # duplicates included
    retx_sf: Tuple[int, ...]
    fast_retx: int
    rtos: int
    spurious_detections: int
    # stream integrity: the application got [0, transfer_size) once, in
    # order, the sender's data_una agrees, and no mapping is left unacked
    checksum_ok: bool
    duplicate_bytes: int
    protocol_violations: int


class RunResult(Record):
    """One run's output. The engine keeps no per-segment log, so a run's
    memory does not grow with its segments."""
    cfg: ScenarioConfig
    stats: SummaryStats
    traces: List[TraceRecord]
    # the recovery snapshots judged spurious, in verdict order
    detections: List[sp.SpuriousSnapshot]


class Simulation:
    """One run of a scenario. It checks `cfg`, then runs on a copy of it, so
    the caller's config and links are never edited."""

    def __init__(self, cfg: ScenarioConfig):
        cfg.validate()  # before copy() reads the links
        cfg = self.cfg = cfg.copy()
        self.kernel = SimKernel()
        self.rng = RandomStream(cfg.seed)
        self.mss = cfg.mss
        self.coupling_mode = cfg.coupling
        self.links_fwd = [Link(lc) for lc in cfg.links]
        rev_cfgs = cfg.links if cfg.ack_loss else [
            LinkConfig(lc.capacity_bps, lc.one_way_delay_s, 0.0,
                       lc.queue_limit) for lc in cfg.links]
        self.links_rev = [Link(lc) for lc in rev_cfgs]
        self.subflows = [Subflow(i, cfg) for i in range(len(cfg.links))]
        self.conn = ConnectionState(cfg.transfer_size, cfg.mss,
                                    len(cfg.links))
        self.recv = ReassemblyState()
        self._ts_recent = 0
        # per-run switches, read once here instead of per ACK
        self._dsack = cfg.detector is DetectorChoice.DSACK
        self._eifel = cfg.detector is DetectorChoice.EIFEL
        # the data, ACK and RTO callbacks of every event, bound once: each
        # read of `self._on_data` would build a new bound method
        self._data_fn = self._on_data
        self._ack_fn = self._on_ack
        self._rto_fn = self._on_rto
        # end of the bytes handed to the application, and the deliveries
        # that did not start there (a byte repeated or skipped)
        self.app_next = 0
        self.delivery_faults = 0
        self.completed_ns: Optional[int] = None
        self.duplicate_bytes = 0
        self.protocol_violations = 0
        self.bytes_sf = [0] * len(cfg.links)
        self.traces: List[TraceRecord] = []
        self.detections: List[sp.SpuriousSnapshot] = []
        self._stop_ns = seconds_to_ns(cfg.stop_time)
        self._trace_ns = seconds_to_ns(cfg.trace_interval)

    # ------------------------------------------------------------ helpers

    def _trace(self, sf: Subflow, event: str) -> None:
        self.traces.append(TraceRecord(
            self.kernel.now / NS_PER_S, sf.index + 1, sf.cwnd, sf.ssthresh,
            sf.phase, event))

    def _arm_rto(self, sf: Subflow) -> None:
        """(Re)start the timer lazily. Each re-arm makes the entry a
        cancel-and-schedule would queue, `sf.rto_due`, but queues it only
        if the queued entry would fire later; one that fires no earlier is
        kept, and `_on_rto` queues the due entry when it comes due."""
        kernel = self.kernel
        due = kernel.schedule(kernel.now + seconds_to_ns(sf.estimator.rto),
                              self._rto_fn, queue=False, args=(sf,))
        sf.rto_due = due
        queued = sf.rto_handle
        if queued is not None:
            if queued[0] <= due[0]:
                return
            kernel.cancel(queued)
        sf.rto_handle = kernel.push(due)

    def _disarm_rto(self, sf: Subflow) -> None:
        if sf.rto_handle is not None:
            self.kernel.cancel(sf.rto_handle)
            sf.rto_handle = sf.rto_due = None

    # --------------------------------------------------------- send side

    def _pump(self) -> None:
        """Send new data while any subflow has window space."""
        # sending changes no window, so mapping the whole batch first sends
        # the same chunks in the same order as mapping one at a time
        for sf, m in schedule_next(self.conn, self.subflows):
            self._send_mapping(sf, m)

    def _send_mapping(self, sf: Subflow, m) -> None:
        now = self.kernel.now
        m.sent_ns = now
        sf.segments_sent += 1
        size = m.data_end - m.data_start
        out = self.links_fwd[sf.index].transmit(size, now, self.rng)
        if isinstance(out, int):
            self.kernel.schedule(out, self._data_fn,
                                 args=(sf.index, m.data_start, size, now))
        if sf.rto_due is None:
            self._arm_rto(sf)

    # ------------------------------------------------------ receiver side

    def _on_data(self, sf_id: int, data_seq: int, size: int,
                 ts_val: int) -> None:
        """A data segment of `size` bytes at `data_seq` arrives over subflow
        `sf_id`; `ts_val` is its send time, the timestamp it carries."""
        now = self.kernel.now
        # Timestamp echo follows the left-edge rule: remember the timestamp
        # of the segment that covers the next expected byte, so ACKs sent
        # after a reordering hole fills echo the filler's send time rather
        # than whichever segment happened to elicit them.
        if data_seq <= self.recv.rcv_data_next:
            self._ts_recent = ts_val
        data_ack, delivered, dup = self.recv.on_data(data_seq,
                                                     data_seq + size)
        if delivered:
            if delivered[0] != self.app_next:
                self.delivery_faults += 1
            self.app_next = delivered[1]
        self.bytes_sf[sf_id] += size
        if dup:
            self.duplicate_bytes += dup[1] - dup[0]
        out = self.links_rev[sf_id].transmit(ACK_SIZE_BYTES, now, self.rng)
        if isinstance(out, int):
            self.kernel.schedule(out, self._ack_fn, args=(
                sf_id, self._ts_recent, data_ack,
                dup if self._dsack else None))

    # --------------------------------------------------------- ACK intake

    def _on_ack(self, sf_id: int, ts_echo: int, data_ack: int,
                dsack_block: Optional[Tuple[int, int]]) -> None:
        """An ACK arrives over subflow `sf_id`: the data-level cumulative
        `data_ack`, the echoed timestamp and, with DSACK, the duplicate
        range the receiver reports."""
        conn = self.conn
        if data_ack > conn.data_snd_nxt:
            self.protocol_violations += 1
            return
        if data_ack > conn.data_una:
            self._on_advancing_ack(sf_id, ts_echo, data_ack, dsack_block)
        elif data_ack == conn.data_una and conn.data_snd_nxt > conn.data_una:
            self._on_duplicate_ack(sf_id, dsack_block)
        # acks below the cumulative point are stale reordered acks: ignored

    def _on_advancing_ack(self, sf_id, ts_echo, data_ack, dsack_block) -> None:
        now = self.kernel.now
        conn = self.conn
        data_una = conn.data_una = data_ack
        for sf in self.subflows:
            mappings = sf.mappings
            if mappings and mappings[0].data_end <= data_una:
                acked = sf.ack_update(data_una, now)[0]
            else:
                acked = 0
            if sf.phase == FAST_RECOVERY:
                if data_una >= sf.recover_point:
                    # max(ssthresh, 1.0) as the builtin compares
                    ssthresh = sf.ssthresh
                    sf.cwnd = 1.0 if 1.0 > ssthresh else ssthresh
                    sf.phase = CONGESTION_AVOIDANCE
            elif acked:
                self._grow(sf, acked)
            if not acked:
                continue
            if (mappings and data_una < sf.recover_point
                    and mappings[0].data_start <= data_una):
                # NewReno partial ack: this subflow owns the next hole, so
                # resend it now instead of waiting out another timeout
                m = mappings[0]
                sp.on_retransmit_record(sf, m, now)
                self._send_mapping(sf, m)
            if sf.flight:
                self._arm_rto(sf)
            else:
                self._disarm_rto(sf)
        if dsack_block:
            self._dsack_check(self.subflows[sf_id], dsack_block)
        if self._eifel:
            for sf in self.subflows:
                snap = sf.saved
                if snap is not None and data_una >= snap.mapping.data_end \
                        and sp.eifel_check(snap, ts_echo):
                    self._undo(sf, snap)
        if data_una >= conn.transfer_size:
            self.completed_ns = now
            self.kernel.stop()
            return
        self._pump()

    def _on_duplicate_ack(self, sf_id, dsack_block) -> None:
        sf = self.subflows[sf_id]
        sf.dup_ack_count += 1
        if dsack_block:
            self._dsack_check(sf, dsack_block)
        if sf.phase == FAST_RECOVERY:
            sf.cwnd += 1.0  # classic window inflation per extra duplicate
        elif (sf.dup_ack_count >= 3 and sf.mappings
                and self.conn.data_una >= sf.recover_point):
            self._fast_retransmit(sf)
        else:
            # no window grew: every event ends with a pump, and a DSACK
            # verdict leaves cwnd alone, so a pump here would send nothing
            return
        self._pump()

    # ------------------------------------------------------ loss recovery

    def _fast_retransmit(self, sf: Subflow) -> None:
        now = self.kernel.now
        m = sf.mappings[0]
        sp.on_retransmit_record(sf, m, now)
        sf.fast_retransmits += 1
        self._trace(sf, FAST_RETRANSMIT)
        sf.ssthresh = sf.cwnd = on_loss_decrease(self.coupling_mode,
                                                 sf.index, self.subflows)
        sf.phase = FAST_RECOVERY
        sf.recover_point = self.conn.data_snd_nxt
        self._send_mapping(sf, m)
        self._arm_rto(sf)

    def _on_rto(self, sf: Subflow) -> None:
        due = sf.rto_due
        if sf.rto_handle is not due:
            # re-armed since the firing entry was queued: wait for the due one
            sf.rto_handle = self.kernel.push(due)
            return
        sf.rto_handle = sf.rto_due = None
        now = self.kernel.now
        m = sf.mappings[0]
        sp.on_retransmit_record(sf, m, now)
        sf.rtos += 1
        self._trace(sf, RTO)
        sf.ssthresh = max(sf.flight / self.mss / 2.0, 2.0)
        sf.cwnd = 1.0
        sf.phase = SLOW_START
        sf.dup_ack_count = 0
        sf.recover_point = self.conn.data_snd_nxt
        sf.estimator.backoff()
        self._send_mapping(sf, m)  # arms the timer: rto_due is None
        self._pump()

    def _dsack_check(self, sf: Subflow, dsack_block) -> None:
        snap = sf.saved
        if sp.dsack_sender_check(snap, dsack_block):
            self._undo(sf, snap)

    def _undo(self, sf: Subflow, snap) -> None:
        """Act on a spurious verdict: restart the timer, keep the stamped
        snapshot as the detection and end the episode. Eifel restores the
        pre-retransmit window, threshold and phase in one jump; DSACK
        restores the threshold only, so the window regrows from where it
        is, through slow start while below it."""
        # the timer that caused (or would repeat) the spurious retransmission
        # is too tight for the actual ACK latency: restart it conservatively
        est = sf.estimator
        est.rto = min(max(est.rto * 2.0, self.cfg.initial_rto), est.ceiling)
        if sf.flight:
            self._arm_rto(sf)
        self._trace(sf, SPURIOUS_DETECTED)
        snap.time_s = self.kernel.now / NS_PER_S
        snap.cwnd_at_detection = sf.cwnd
        self.detections.append(snap)
        sf.ssthresh = snap.ssthresh_before
        if self._eifel:
            sf.cwnd = snap.cwnd_before
            sf.phase = snap.phase_before
        elif sf.cwnd < sf.ssthresh:
            sf.phase = SLOW_START
        else:
            sf.phase = CONGESTION_AVOIDANCE
        sf.dup_ack_count = 0
        sf.saved = None
        self._trace(sf, RESTORE)

    # ------------------------------------------------------ window growth

    def _grow(self, sf: Subflow, acked_bytes: int) -> None:
        acked_mss = acked_bytes / self.mss
        if sf.phase == SLOW_START:
            ssthresh = sf.ssthresh
            if sf.cwnd < ssthresh:
                # min(cwnd, ssthresh) as the builtin compares, without a call
                cwnd = sf.cwnd + acked_mss
                sf.cwnd = ssthresh if ssthresh < cwnd else cwnd
            if sf.cwnd >= ssthresh:
                sf.phase = CONGESTION_AVOIDANCE
            return
        inc = on_ack_increase(self.coupling_mode, sf.index, self.subflows)
        sf.cwnd += inc * acked_mss

    # -------------------------------------------------------------- driver

    def _on_trace_sample(self, now: int) -> None:
        now_s = now / NS_PER_S  # one float shared by all of the sample's rows
        append = self.traces.append
        for sf in self.subflows:
            append(TraceRecord(now_s, sf.index + 1, sf.cwnd, sf.ssthresh,
                               sf.phase, SAMPLE))

    def run(self) -> RunResult:
        if self.cfg.transfer_size == 0:
            self.completed_ns = 0
            return self._result()
        kernel = self.kernel
        stop_ns, step = self._stop_ns, self._trace_ns
        kernel.schedule(stop_ns, kernel.stop)
        self._pump()
        # Samples are taken between slices of the kernel loop, not as kernel
        # events. A slice ends at the next sample time and fires there only
        # the events scheduled before it began, so each sample keeps the
        # place an event queued at the previous sample would have had.
        self._on_trace_sample(0)  # sending changed no sampled value
        t = step
        while t < stop_ns:
            kernel.run_until_idle(t)
            if self.completed_ns is not None:
                break
            self._on_trace_sample(t)
            t += step
        # the stop event, the run's first, fires first at stop_ns
        kernel.run_until_idle(stop_ns)
        return self._result()

    def _result(self) -> RunResult:
        cfg = self.cfg
        completed = self.completed_ns is not None
        if completed and cfg.transfer_size > 0:
            t = self.completed_ns / NS_PER_S
            goodput = cfg.transfer_size * 8.0 / t
        elif completed:
            t, goodput = 0.0, 0.0
        else:
            t, goodput = None, self.conn.data_una * 8.0 / cfg.stop_time
        checksum_ok = (
            completed and self.delivery_faults == 0
            and self.app_next == self.conn.data_una == cfg.transfer_size
            and not any(sf.mappings for sf in self.subflows))
        stats = SummaryStats(
            completed=completed, completion_time_s=t, goodput_bps=goodput,
            delivered_bytes=self.conn.data_una,
            bytes_sf=tuple(self.bytes_sf),
            retx_sf=tuple(sf.retransmissions for sf in self.subflows),
            fast_retx=sum(sf.fast_retransmits for sf in self.subflows),
            rtos=sum(sf.rtos for sf in self.subflows),
            spurious_detections=len(self.detections),
            checksum_ok=checksum_ok, duplicate_bytes=self.duplicate_bytes,
            protocol_violations=self.protocol_violations)
        return RunResult(cfg=cfg, stats=stats, traces=self.traces,
                         detections=self.detections)
