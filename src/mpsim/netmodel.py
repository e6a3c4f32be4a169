"""Point-to-point link model: capacity, propagation delay, Bernoulli loss,
drop-tail FIFO queue.

A link never reorders: serialization is strictly FIFO and the propagation
delay is constant, so delivery order equals acceptance order. Reordering in
the system only arises across links.
"""

from __future__ import annotations

from collections import deque
from enum import Enum

from .config import LinkConfig
from .simkernel import NS_PER_S, RandomStream, seconds_to_ns


class DropReason(Enum):
    QUEUE_OVERFLOW = "QueueOverflow"
    RANDOM_LOSS = "RandomLoss"


class Link:
    """One direction of a point-to-point link.

    Random loss is applied at the head of the link after serialization:
    a lost packet occupies the transmitter but is never delivered. A packet
    arriving while queue_limit packets are still in the system is dropped
    immediately (drop-tail). The link reads its config once, at
    construction: a later change to the config does not reach it.
    """

    __slots__ = (
        "config", "_departures", "_delay_ns", "_ser_ns", "_queue_limit",
        "_loss_cut", "accepted", "dropped_overflow", "dropped_loss",
    )

    def __init__(self, config: LinkConfig):
        config.validate()
        self.config = config
        self._departures = deque()
        self._delay_ns = seconds_to_ns(config.one_way_delay_s)
        # packet size -> serialization_ns, filled on first use; only the
        # MSS, the last segment's size and the ACK size occur
        self._ser_ns = {}
        self._queue_limit = config.queue_limit
        # a packet is lost when the draw's top 53 bits, k, fall below
        # loss_rate * 2**53: exactly `k * 2**-53 < loss_rate`, i.e.
        # `rng.next_uniform() < loss_rate`, since scaling by a power of two
        # is exact and Python compares an int with a float exactly
        self._loss_cut = config.loss_rate * 2.0 ** 53
        self.accepted = 0
        self.dropped_overflow = 0
        self.dropped_loss = 0

    @property
    def queued(self) -> int:
        return len(self._departures)

    def serialization_ns(self, size_bytes: int) -> int:
        """Transmitter busy time, at least 1 ns so that an RTT is never 0."""
        return max(1, round(size_bytes * 8 * NS_PER_S
                            / self.config.capacity_bps))

    def transmit(self, size_bytes: int, now: int, rng: RandomStream):
        """Returns the delivery time in ns, or a DropReason."""
        ser_ns = self._ser_ns.get(size_bytes)
        if ser_ns is None:
            if size_bytes <= 0:
                raise ValueError("segment size must be positive")
            ser_ns = self._ser_ns[size_bytes] = self.serialization_ns(
                size_bytes)
        departures = self._departures
        while departures and departures[0] <= now:
            departures.popleft()
        if len(departures) >= self._queue_limit:
            self.dropped_overflow += 1
            return DropReason.QUEUE_OVERFLOW
        # the transmitter is free when the last queued packet departs, and
        # now if none is queued
        finish = (departures[-1] if departures else now) + ser_ns
        departures.append(finish)
        self.accepted += 1
        loss_cut = self._loss_cut
        if loss_cut and rng.next_u64() >> 11 < loss_cut:
            self.dropped_loss += 1
            return DropReason.RANDOM_LOSS
        return finish + self._delay_ns
