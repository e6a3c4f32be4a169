"""Event kernel, random stream and seed derivation."""

import pytest

from mpsim.simkernel import (NS_PER_S, RandomStream, SimKernel, mix_seed,
                             seconds_to_ns)


def test_time_conversions_round_trip():
    assert seconds_to_ns(1.5) == 1_500_000_000
    assert 26_000_000 / NS_PER_S == 0.026  # how the simulator reads ns
    assert seconds_to_ns(123_456_789 / NS_PER_S) == 123_456_789


def test_events_fire_in_time_order():
    kernel = SimKernel()
    fired = []
    kernel.schedule(300, lambda: fired.append("c"))
    kernel.schedule(100, lambda: fired.append("a"))
    kernel.schedule(200, lambda: fired.append("b"))
    end = kernel.run_until_idle(10 * NS_PER_S)
    assert fired == ["a", "b", "c"]
    assert end == 300


def test_simultaneous_events_fire_in_insertion_order():
    kernel = SimKernel()
    fired = []
    for tag in range(5):
        kernel.schedule(42, lambda tag=tag: fired.append(tag))
    kernel.run_until_idle(100)
    assert fired == [0, 1, 2, 3, 4]


def test_cancelled_event_does_not_fire():
    kernel = SimKernel()
    fired = []
    handle = kernel.schedule(10, lambda: fired.append("rto"))
    kernel.schedule(5, lambda: fired.append("ok"))
    kernel.cancel(handle)
    kernel.run_until_idle(100)
    assert fired == ["ok"]


def test_schedule_in_the_past_raises():
    kernel = SimKernel()
    kernel.schedule(50, lambda: None)
    kernel.run_until_idle(100)
    assert kernel.now == 50
    with pytest.raises(ValueError):
        kernel.schedule(49, lambda: None)


def test_pushed_entry_fires_at_its_scheduled_ordinal():
    kernel = SimKernel()
    fired = []
    kernel.schedule(42, lambda: fired.append("before"))
    entry = kernel.schedule(42, lambda: fired.append("pushed"), queue=False)
    kernel.schedule(42, lambda: fired.append("after"))
    kernel.schedule(41, lambda: fired.append("earlier"))
    kernel.run_until_idle(41)
    assert fired == ["earlier"]  # an unqueued entry does not fire
    assert kernel.push(entry) is entry
    kernel.run_until_idle(100)
    assert fired == ["earlier", "before", "pushed", "after"]
    assert kernel._ordinal == 4  # the unqueued entry counts as one event


def test_push_in_the_past_raises():
    kernel = SimKernel()
    kernel.schedule(50, lambda: None)
    kernel.run_until_idle(100)
    with pytest.raises(ValueError):
        kernel.push([49, 2, lambda: None])
    kernel.push([50, 3, lambda: None])  # now itself is fine


def test_events_beyond_stop_time_are_left_queued():
    kernel = SimKernel()
    fired = []
    kernel.schedule(10, lambda: fired.append(10))
    kernel.schedule(200, lambda: fired.append(200))
    kernel.run_until_idle(100)
    assert fired == [10]


def test_stop_time_fires_only_what_was_queued_before_the_call():
    kernel = SimKernel()
    fired = []

    def first():
        fired.append("first")
        kernel.schedule(50, lambda: fired.append("later"))

    kernel.schedule(50, first)
    kernel.schedule(40, lambda: kernel.schedule(
        50, lambda: fired.append("during")))
    assert kernel.run_until_idle(50) == 50
    assert fired == ["first"]  # both at 50, scheduled during the call
    kernel.run_until_idle(50)
    assert fired == ["first", "during", "later"]


def test_stop_halts_processing():
    kernel = SimKernel()
    fired = []
    kernel.schedule(1, lambda: fired.append(1))
    kernel.schedule(2, kernel.stop)
    kernel.schedule(3, lambda: fired.append(3))
    kernel.run_until_idle(100)
    assert fired == [1]


def test_stop_drops_only_the_events_queued_before_it():
    kernel = SimKernel()
    fired = []

    def stop_then_schedule():
        kernel.stop()
        kernel.schedule(kernel.now, lambda: fired.append("after stop"))

    kernel.schedule(1, stop_then_schedule)
    kernel.schedule(1, lambda: fired.append("queued"))
    kernel.run_until_idle(100)
    assert fired == ["after stop"]
    kernel.schedule(5, lambda: fired.append("next run"))
    assert kernel.run_until_idle(100) == 5
    assert fired == ["after stop", "next run"]


def test_random_stream_is_reproducible():
    a = RandomStream(12345)
    b = RandomStream(12345)
    assert [a.next_u64() for _ in range(20)] == \
        [b.next_u64() for _ in range(20)]


def test_random_stream_uniform_in_unit_interval():
    rng = RandomStream(7)
    draws = [rng.next_uniform() for _ in range(10_000)]
    assert all(0.0 <= d < 1.0 for d in draws)
    # crude sanity on the mean, not a statistical test
    assert abs(sum(draws) / len(draws) - 0.5) < 0.02


def test_mix_seed_varies_with_index():
    seeds = {mix_seed(1, i) for i in range(100)}
    assert len(seeds) == 100
    assert mix_seed(1, 3) == mix_seed(1, 3)
    assert mix_seed(1, 3) != mix_seed(2, 3)


# ------------------------------------------------- the entry's argument slot

def test_events_with_args_fire_with_those_args_in_order():
    kernel = SimKernel()
    fired = []

    def record(*args):
        fired.append(args)

    kernel.schedule(20, record, args=("late", 2))
    kernel.schedule(10, record, args=("a", 1, None))
    kernel.schedule(10, lambda: fired.append("no-args"))
    kernel.schedule(10, record, args=((5, 6),))
    kernel.schedule(10, record)  # args default to ()
    kernel.run_until_idle(100)
    assert fired == [("a", 1, None), "no-args", ((5, 6),), (), ("late", 2)]


def test_cancelled_entry_with_args_does_not_fire():
    kernel = SimKernel()
    fired = []
    handle = kernel.schedule(10, fired.append, args=("rto",))
    kernel.schedule(5, fired.append, args=("ok",))
    kernel.cancel(handle)
    kernel.run_until_idle(100)
    assert fired == ["ok"]


def test_unqueued_entry_keeps_its_args_through_push():
    kernel = SimKernel()
    fired = []
    entry = kernel.schedule(42, fired.append, queue=False, args=("pushed",))
    kernel.schedule(42, fired.append, args=("after",))
    assert entry[3] == ("pushed",)
    kernel.run_until_idle(41)
    kernel.push(entry)
    kernel.run_until_idle(100)
    assert fired == ["pushed", "after"]


def test_slice_leaves_args_events_scheduled_during_it():
    kernel = SimKernel()
    fired = []

    def first(tag):
        fired.append(tag)
        kernel.schedule(50, fired.append, args=("later",))

    def during(tag):
        kernel.schedule(50, fired.append, args=(tag,))

    kernel.schedule(50, first, args=("first",))
    kernel.schedule(40, during, args=("during",))
    assert kernel.run_until_idle(50) == 50
    assert fired == ["first"]  # both at 50, scheduled during the slice
    kernel.run_until_idle(50)
    assert fired == ["first", "during", "later"]
