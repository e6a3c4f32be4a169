"""Coupled congestion-window increase/decrease rules.

Pure functions over a read-only view of all subflow windows and smoothed
RTTs. Windows are real-valued in MSS units so sub-MSS coupled increments
accumulate exactly. Slow start is uncoupled (+1 MSS per MSS acked) in all
modes and is handled by the caller; these rules cover congestion avoidance
and the loss response.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple, Sequence, Tuple


class CouplingMode(Enum):
    UNCOUPLED = "uncoupled"
    FULLY_COUPLED = "fully_coupled"
    LINKED_INCREASES = "linked_increases"
    RTT_COMPENSATOR = "rtt_compensator"


# bound once: the rules below compare the mode on every ACK, and a module
# alias is one global lookup where `CouplingMode.UNCOUPLED` is two
_UNCOUPLED = CouplingMode.UNCOUPLED
_FULLY_COUPLED = CouplingMode.FULLY_COUPLED
_LINKED_INCREASES = CouplingMode.LINKED_INCREASES


class CouplingView(NamedTuple):
    """Snapshot of every subflow's window (MSS) and smoothed RTT (s).

    A named tuple: read-only, and cheap to build once per ACK.
    """

    w: Tuple[float, ...]
    rtt: Tuple[float, ...]

    @staticmethod
    def make(w: Sequence[float], rtt: Sequence[float]) -> "CouplingView":
        if len(w) != len(rtt):
            raise ValueError("w and rtt must have equal length")
        return CouplingView(tuple(w), tuple(rtt))

    @property
    def w_total(self) -> float:
        # added left to right: from Python 3.12, sum() of floats compensates
        # rounding, so it would make the output depend on the version
        total = 0.0
        for wi in self.w:
            total += wi
        return total


def compute_alpha(view: CouplingView) -> float:
    """Aggressiveness factor of the linked-increase rule.

    alpha = w_total * max_i(w_i / rtt_i^2) / (sum_i w_i / rtt_i)^2

    Degenerates to 1 for a single subflow and to 1/n for n identical
    subflows; scale-invariant in the RTT unit.
    """
    w_total = 0.0
    best = 0.0
    denom = 0.0
    for wi, ri in zip(view.w, view.rtt):
        if ri <= 0.0:
            raise ValueError("rtt must be positive for every subflow")
        w_total += wi
        term = wi / (ri * ri)
        if term > best:
            best = term
        denom += wi / ri
    if w_total <= 0.0:
        raise ValueError("no active subflow: all windows are zero")
    if len(view.w) == 1:
        # algebraically exactly 1; avoid the rounding of rtt*rtt
        return 1.0
    return w_total * best / (denom * denom)


def on_ack_increase(mode: CouplingMode, i: int, view: CouplingView) -> float:
    """Congestion-avoidance window increment (MSS) for one ACK on subflow i."""
    w_i = view.w[i]
    if mode is _UNCOUPLED:
        return 1.0 / w_i
    w_total = view.w_total
    if mode is _FULLY_COUPLED:
        return 1.0 / w_total
    alpha = compute_alpha(view)
    if mode is _LINKED_INCREASES:
        return alpha / w_total
    # RTT Compensator: never more aggressive than single-path TCP on path i
    return min(alpha / w_total, 1.0 / w_i)


def on_loss_decrease(mode: CouplingMode, i: int,
                     view: CouplingView) -> Tuple[float, float]:
    """(new w_i, new ssthresh_i) after a loss attributed to subflow i.

    Fully Coupled charges the total-window halving to the lossy subflow,
    floored at 1 MSS; the other modes halve the subflow window.
    """
    w_i = view.w[i]
    if mode is _FULLY_COUPLED:
        ssthresh = max(w_i - view.w_total / 2.0, 1.0)
    else:
        ssthresh = max(w_i / 2.0, 2.0)
    return ssthresh, ssthresh
