"""Link model: serialization timing, FIFO queue, drop-tail, random loss."""

import math
import re
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from mpsim.netmodel import DropReason, Link, LinkConfig
from mpsim.simkernel import NS_PER_S, RandomStream

MBPS = 1e6


def paper_base_link(**kw):
    defaults = dict(capacity_bps=0.5 * MBPS, one_way_delay_s=0.010)
    defaults.update(kw)
    return Link(LinkConfig(**defaults))


def test_single_segment_delivery_time_exact():
    # 1000 bytes at 0.5 Mbps = 16 ms serialization, plus 10 ms propagation
    link = paper_base_link()
    out = link.transmit(1000, now=0, rng=RandomStream(1))
    assert out == 26_000_000


def test_serialization_is_size_over_capacity():
    link = Link(LinkConfig(capacity_bps=4 * MBPS, one_way_delay_s=0.0))
    assert link.serialization_ns(1400) == int(round(1400 * 8 * 1e9 / (4 * MBPS)))


def test_back_to_back_segments_queue_fifo():
    link = paper_base_link()
    rng = RandomStream(1)
    first = link.transmit(1000, 0, rng)
    second = link.transmit(1000, 0, rng)
    # second waits for the first to finish serializing
    assert first == 26_000_000
    assert second == 42_000_000
    assert link.queued == 2


def test_idle_gap_resets_transmitter():
    link = paper_base_link()
    rng = RandomStream(1)
    link.transmit(1000, 0, rng)
    late = link.transmit(1000, 100_000_000, rng)
    assert late == 126_000_000


def test_drop_tail_overflow():
    link = Link(LinkConfig(capacity_bps=0.5 * MBPS, one_way_delay_s=0.01,
                           queue_limit=3))
    rng = RandomStream(1)
    results = [link.transmit(1000, 0, rng) for _ in range(5)]
    assert all(isinstance(r, int) for r in results[:3])
    assert results[3] is DropReason.QUEUE_OVERFLOW
    assert results[4] is DropReason.QUEUE_OVERFLOW
    assert link.dropped_overflow == 2


def test_queue_drains_as_time_passes():
    link = Link(LinkConfig(capacity_bps=0.5 * MBPS, one_way_delay_s=0.01,
                           queue_limit=2))
    rng = RandomStream(1)
    link.transmit(1000, 0, rng)
    link.transmit(1000, 0, rng)
    assert link.transmit(1000, 0, rng) is DropReason.QUEUE_OVERFLOW
    # after the first departure at 16 ms the queue has room again
    out = link.transmit(1000, 17_000_000, rng)
    assert isinstance(out, int)


def test_random_loss_binomial_within_three_sigma():
    # n=10^4 Bernoulli trials at p=0.05: expect np +/- 3*sqrt(np(1-p))
    n, p = 10_000, 0.05
    link = Link(LinkConfig(capacity_bps=1e9, one_way_delay_s=0.0, loss_rate=p,
                           queue_limit=10 * n))
    rng = RandomStream(20260823)
    losses = 0
    for i in range(n):
        if link.transmit(1000, i * 10_000_000, rng) is DropReason.RANDOM_LOSS:
            losses += 1
    sigma = math.sqrt(n * p * (1 - p))
    assert abs(losses - n * p) <= 3 * sigma
    assert link.dropped_loss == losses


def test_lost_segment_still_occupies_the_transmitter():
    # 1000 bytes at 0.5 Mbps hold the transmitter for 16 ms; with room for
    # one packet, the lost one turns the next away until it has left
    link = Link(LinkConfig(capacity_bps=0.5 * MBPS, one_way_delay_s=0.01,
                           loss_rate=1.0, queue_limit=1))
    rng = RandomStream(1)
    assert link.transmit(1000, 0, rng) is DropReason.RANDOM_LOSS
    assert link.transmit(1000, 15_999_999, rng) is \
        DropReason.QUEUE_OVERFLOW
    assert link.queued == 1
    assert link.transmit(1000, 16_000_000, rng) is DropReason.RANDOM_LOSS
    assert link.queued == 1
    assert (link.accepted, link.dropped_overflow) == (2, 1)


def test_zero_loss_never_consumes_randomness():
    link = paper_base_link()
    rng = RandomStream(99)
    state_before = rng.state
    link.transmit(1000, 0, rng)
    assert rng.state == state_before


def test_config_validation_messages_name_the_field():
    with pytest.raises(ValueError, match="capacity_bps"):
        LinkConfig(capacity_bps=0, one_way_delay_s=0.01).validate()
    with pytest.raises(ValueError, match="loss_rate"):
        LinkConfig(capacity_bps=1e6, one_way_delay_s=0.01,
                   loss_rate=1.5).validate()
    with pytest.raises(ValueError, match="queue_limit"):
        LinkConfig(capacity_bps=1e6, one_way_delay_s=0.01,
                   queue_limit=0).validate()


@pytest.mark.parametrize("kw, message", [
    # a string capacity made validate() raise TypeError at its first compare
    (dict(capacity_bps="1e6"),
     "link.capacity_bps: expected a number, got '1e6'"),
    (dict(loss_rate=True), "link.loss_rate: expected a number, got True"),
], ids=["string", "boolean"])
def test_config_rejects_wrongly_typed_fields(kw, message):
    cfg = LinkConfig(**{"capacity_bps": 1e6, "one_way_delay_s": 0.01, **kw})
    with pytest.raises(ValueError, match=re.escape(message)):
        cfg.validate()


def test_segment_size_must_be_positive():
    link = paper_base_link()
    with pytest.raises(ValueError):
        link.transmit(0, 0, RandomStream(1))


class ReferenceLink:
    """`Link` restated plainly: the queue is the departure times not yet
    passed, pruned on every call, and a serialized packet is lost when
    `rng.next_uniform() < loss_rate`."""

    def __init__(self, config):
        self.config = config
        self.busy_until = 0
        self.departures = deque()
        self.accepted = self.dropped_overflow = self.dropped_loss = 0

    def transmit(self, size, now, rng):
        cfg = self.config
        while self.departures and self.departures[0] <= now:
            self.departures.popleft()
        if len(self.departures) >= cfg.queue_limit:
            self.dropped_overflow += 1
            return DropReason.QUEUE_OVERFLOW
        ser_ns = max(1, round(size * 8 * NS_PER_S / cfg.capacity_bps))
        self.busy_until = max(now, self.busy_until) + ser_ns
        self.departures.append(self.busy_until)
        self.accepted += 1
        if cfg.loss_rate > 0.0 and rng.next_uniform() < cfg.loss_rate:
            self.dropped_loss += 1
            return DropReason.RANDOM_LOSS
        return self.busy_until + round(cfg.one_way_delay_s * NS_PER_S)


class ScriptedStream(RandomStream):
    """Draws k * 2**-53 for each k of `ks` in turn (the low 11 bits of the
    u64 are noise that next_uniform drops); `state` counts the draws."""

    def __init__(self, ks):
        super().__init__(0)
        self.ks = ks

    def next_u64(self):
        k = self.ks[self.state % len(self.ks)]
        self.state += 1
        return k << 11 | 0x7FF


@settings(derandomize=True, max_examples=300, deadline=None)
@given(sends=st.lists(st.tuples(st.integers(0, 25_000_000),
                                st.sampled_from([40, 1000, 1400])),
                      max_size=40),
       queue_limit=st.integers(1, 5),
       loss_rate=st.one_of(
           st.sampled_from([0.0, 1.0, 5e-324, 1 - 2**-53, 0.5]),
           st.floats(0.0, 1.0)),
       draws=st.one_of(st.integers(0, 2**64 - 1),
                       st.lists(st.integers(-1, 1), min_size=1)))
def test_link_matches_reference_model(sends, queue_limit, loss_rate, draws):
    cfg = LinkConfig(capacity_bps=1e6, one_way_delay_s=0.01,
                     loss_rate=loss_rate, queue_limit=queue_limit)
    if isinstance(draws, int):
        streams = RandomStream(draws), RandomStream(draws)
    else:
        # draws one below, at and one above the loss boundary
        edge = int(loss_rate * 2**53)
        ks = [min(max(edge + d, 0), 2**53 - 1) for d in draws]
        streams = ScriptedStream(ks), ScriptedStream(ks)
    link, ref = Link(cfg), ReferenceLink(cfg)
    now = 0
    for gap, size in sends:
        now += gap
        assert link.transmit(size, now, streams[0]) == ref.transmit(
            size, now, streams[1])
    assert (link.accepted, link.dropped_overflow, link.dropped_loss) == (
        ref.accepted, ref.dropped_overflow, ref.dropped_loss)
    assert streams[0].state == streams[1].state
