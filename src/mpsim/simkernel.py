"""Deterministic discrete-event kernel and seeded random stream.

Virtual time is an integer count of nanoseconds so that event ordering is
exact and identical on every platform. Simultaneous events fire in
insertion order (monotone ordinal tie-break).
"""

from __future__ import annotations

import heapq

NS_PER_S = 1_000_000_000

_MASK64 = (1 << 64) - 1
# splitmix64 constants (Steele, Lea, Flood 2014)
_SM_GAMMA = 0x9E3779B97F4A7C15
_SM_MIX1 = 0xBF58476D1CE4E5B9
_SM_MIX2 = 0x94D049BB133111EB


def seconds_to_ns(t: float) -> int:
    return round(t * NS_PER_S)


class RandomStream:
    """splitmix64 pseudo-random stream.

    Chosen for reproducibility: a fixed, trivially portable algorithm so
    that identical seeds give identical loss patterns everywhere.
    """

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + _SM_GAMMA) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * _SM_MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _SM_MIX2) & _MASK64
        return z ^ (z >> 31)

    def next_uniform(self) -> float:
        """Uniform draw in [0, 1) with 53 bits of precision."""
        return (self.next_u64() >> 11) * (2.0 ** -53)


def mix_seed(seed: int, index: int) -> int:
    """Derive an independent per-point seed for sweep point `index`.

    Applies the splitmix64 finalizer to seed XOR (index+1)*gamma, so that
    neighbouring points get uncorrelated streams.
    """
    z = (seed ^ (((index + 1) * _SM_GAMMA) & _MASK64)) & _MASK64
    z = ((z ^ (z >> 30)) * _SM_MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _SM_MIX2) & _MASK64
    return z ^ (z >> 31)


class SimKernel:
    """Single-threaded event loop over (fire_time, ordinal)-ordered events.

    A queue entry is the list [fire_time, ordinal, fn, args]; the loop
    calls fn(*args), and the unique ordinal means fn is never compared.
    `schedule` returns the entry as the event's handle, and `cancel`
    clears its fn so the loop skips it.

    `schedule(fire_time, fn, queue=False)` takes the ordinal and makes
    the entry but leaves it out of the queue; `push(entry)` queues it
    later. A timer re-armed on every ACK uses this to keep one queued
    entry: each re-arm makes an unqueued entry, which is queued only when
    the queued one would fire later than it or comes due before it. So
    every timer firing keeps the (time, ordinal) it would have had with
    one queued entry per re-arm.
    """

    def __init__(self):
        self._queue = []
        self._ordinal = 0
        self.now = 0

    def schedule(self, fire_time: int, fn, queue: bool = True,
                 args: tuple = ()) -> list:
        if fire_time < self.now:
            raise ValueError(
                "cannot schedule event at t=%d ns before current time %d ns"
                % (fire_time, self.now)
            )
        self._ordinal += 1
        entry = [fire_time, self._ordinal, fn, args]
        if queue:
            heapq.heappush(self._queue, entry)
        return entry

    def push(self, entry: list) -> list:
        """Queue an entry made by `schedule`, and return it."""
        if entry[0] < self.now:
            raise ValueError(
                "cannot schedule event at t=%d ns before current time %d ns"
                % (entry[0], self.now)
            )
        heapq.heappush(self._queue, entry)
        return entry

    def cancel(self, entry: list) -> None:
        entry[2] = None

    def stop(self) -> None:
        """Drop every queued event, so run_until_idle returns after the
        current event unless that event schedules more. A stopped kernel
        is an empty one: events scheduled after the stop still fire."""
        self._queue.clear()

    def run_until_idle(self, stop_time: int) -> None:
        """Fire every event due before stop_time, those scheduled on the
        way included, in (fire_time, ordinal) order. Events at stop_time
        stay queued."""
        queue = self._queue
        pop = heapq.heappop
        while queue and queue[0][0] < stop_time:
            fire_time, _, fn, args = pop(queue)
            if fn is not None:
                self.now = fire_time
                fn(*args)
