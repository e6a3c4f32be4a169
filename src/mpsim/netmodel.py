"""Point-to-point link model: capacity, propagation delay, Bernoulli loss,
drop-tail FIFO queue.

A link never reorders: serialization is strictly FIFO and the propagation
delay is constant, so delivery order equals acceptance order. Reordering in
the system only arises across links.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from enum import Enum

from .simkernel import NS_PER_S, RandomStream

DEFAULT_QUEUE_LIMIT = 100  # packets; NS-3 point-to-point magnitude


class DropReason(Enum):
    QUEUE_OVERFLOW = "QueueOverflow"
    RANDOM_LOSS = "RandomLoss"


@dataclass
class LinkConfig:
    capacity_bps: float
    one_way_delay_s: float
    loss_rate: float = 0.0
    queue_limit: int = DEFAULT_QUEUE_LIMIT

    def validate(self, name: str = "link") -> None:
        for key in ("capacity_bps", "one_way_delay_s", "loss_rate"):
            if math.isnan(getattr(self, key)):
                raise ValueError("%s.%s must be a number, got nan"
                                 % (name, key))
        if self.capacity_bps <= 0:
            raise ValueError("%s.capacity_bps must be > 0" % name)
        if self.one_way_delay_s < 0:
            raise ValueError("%s.one_way_delay_s must be >= 0" % name)
        if self.one_way_delay_s == math.inf:
            raise ValueError("%s.one_way_delay_s must be finite" % name)
        if not 0.0 <= self.loss_rate <= 1.0:
            raise ValueError("%s.loss_rate must be in [0, 1]" % name)
        if self.queue_limit < 1:
            raise ValueError("%s.queue_limit must be >= 1" % name)


class Link:
    """One direction of a point-to-point link.

    Random loss is applied at the head of the link after serialization:
    a lost packet occupies the transmitter but is never delivered. A packet
    arriving while queue_limit packets are still in the system is dropped
    immediately (drop-tail). The link reads its config once, at
    construction: a later change to the config does not reach it.
    """

    __slots__ = (
        "config", "busy_until", "_departures", "_delay_ns", "_ser_ns",
        "_queue_limit", "_loss_cut", "accepted", "dropped_overflow",
        "dropped_loss",
    )

    def __init__(self, config: LinkConfig):
        config.validate()
        self.config = config
        self.busy_until = 0
        self._departures = deque()
        self._delay_ns = int(round(config.one_way_delay_s * NS_PER_S))
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
        return max(1, int(round(size_bytes * 8 * NS_PER_S
                                / self.config.capacity_bps)))

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
        start = now if now > self.busy_until else self.busy_until
        finish = start + ser_ns
        self.busy_until = finish
        departures.append(finish)
        self.accepted += 1
        loss_cut = self._loss_cut
        if loss_cut and rng.next_u64() >> 11 < loss_cut:
            self.dropped_loss += 1
            return DropReason.RANDOM_LOSS
        return finish + self._delay_ns
