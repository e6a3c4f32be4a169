"""Per-path TCP sender state: bytes in flight, congestion window,
RTT/RTO estimation and recovery bookkeeping.

Segments carry data sequence numbers and every ACK is data-level, so a
subflow keeps no sequence space of its own: only the data ranges mapped to
it and their byte count in flight. Duplicate-ACK counting and the recovery
decisions are driven by the connection engine and land here as state
updates.
"""

from __future__ import annotations

from collections import deque

from .simkernel import NS_PER_S

ACK_SIZE_BYTES = 40


# a subflow's congestion-control phase, as the trace writes it
SLOW_START = "slow_start"
CONGESTION_AVOIDANCE = "congestion_avoidance"
FAST_RECOVERY = "fast_recovery"
PHASES = (SLOW_START, CONGESTION_AVOIDANCE, FAST_RECOVERY)


class RttEstimator:
    """Jacobson/Karels smoothed RTT with RFC 6298 RTO clamping.

    `rtt` is the RTT the coupling reads: `initial_rtt` until the first
    sample, then `srtt`."""

    __slots__ = ("srtt", "rttvar", "rto", "floor", "ceiling", "rtt")

    def __init__(self, floor, ceiling, initial_rto, initial_rtt):
        self.srtt = None
        self.rttvar = None
        self.rtt = initial_rtt
        self.floor = floor
        self.ceiling = ceiling
        self.rto = min(max(initial_rto, floor), ceiling)

    def update(self, sample: float) -> None:
        if sample <= 0.0:
            raise ValueError("RTT sample must be positive")
        if self.srtt is None:
            self.srtt = sample
            self.rttvar = sample / 2.0
        else:
            self.rttvar = 0.75 * self.rttvar + 0.25 * abs(self.srtt - sample)
            self.srtt = 0.875 * self.srtt + 0.125 * sample
        # min(max(rto, floor), ceiling) as the builtins compare, so the same
        # float results, NaN and -0.0 included: on CPython 3.11 the builtins
        # cost several times as much per sample
        rto = self.srtt + 4.0 * self.rttvar
        if self.floor > rto:
            rto = self.floor
        self.rto = self.ceiling if self.ceiling < rto else rto
        self.rtt = self.srtt

    def backoff(self) -> None:
        self.rto = min(self.rto * 2.0, self.ceiling)


class Mapping:
    """One data range assigned to one subflow, until acked."""

    __slots__ = ("data_start", "data_end", "sent_ns", "retransmits")

    def __init__(self, data_start, data_end):
        self.data_start = data_start
        self.data_end = data_end
        self.sent_ns = -1
        self.retransmits = 0  # times resent; read by Karn's rule and DSACK

    # its range, so a detection's repr holds no address
    def __repr__(self):
        return "Mapping(%r, %r)" % (self.data_start, self.data_end)


class Subflow:
    """Sender-side state for one path of the connection."""

    def __init__(self, index, cfg):
        """Subflow `index` (0-based), starting from the initial window,
        threshold, RTO and RTT settings of the ScenarioConfig `cfg`."""
        self.index = index
        # floats whatever the caller gave, as every later assignment yields
        self.cwnd = float(cfg.initial_cwnd)
        self.ssthresh = float(cfg.initial_ssthresh)
        self.phase = SLOW_START
        self.flight = 0  # bytes mapped to this subflow and not yet acked
        self.dup_ack_count = 0
        self.estimator = RttEstimator(cfg.rto_floor, cfg.rto_ceiling,
                                      cfg.initial_rto, cfg.initial_rtt)
        # Data-seq guard: no new fast retransmit until data_una passes it
        # (NewReno-style protection against back-to-back recoveries).
        self.recover_point = 0
        self.mappings = deque()
        self.saved = None  # SpuriousSnapshot of the latest recovery episode
        # the RTO timer's queued kernel entry, and the entry of its latest
        # re-arm, which it is due at; they differ while an earlier queued
        # entry waits to come due
        self.rto_handle = None
        self.rto_due = None
        # counters
        self.segments_sent = 0
        self.retransmissions = 0
        self.fast_retransmits = 0
        self.rtos = 0

    def ack_update(self, data_una: int, now_ns: int):
        """Pop the mappings cumulatively acked at data level, take their
        bytes out of flight and feed the estimator one RTT sample per newly
        acked mapping, obeying Karn's rule: only mappings never resent
        produce one.

        Samples measure send-to-cumulative-ack latency per mapping, so the
        RTO tracks how long an ACK actually takes to come back when
        cumulative progress is gated by the other path, not the raw path
        round trip.

        Returns (acked_bytes, samples_taken).
        """
        acked = 0
        taken = 0
        mappings = self.mappings
        while mappings and mappings[0].data_end <= data_una:
            m = mappings.popleft()
            acked += m.data_end - m.data_start
            if not m.retransmits and m.sent_ns >= 0:
                self.estimator.update((now_ns - m.sent_ns) / NS_PER_S)
                taken += 1
        if acked:
            self.flight -= acked
            self.dup_ack_count = 0
        return acked, taken
