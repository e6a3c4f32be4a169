"""Coupled congestion-window increase/decrease rules.

Pure functions over the subflows, read in place: each one's window `cwnd`
(MSS) and coupling RTT `estimator.rtt` (s), so no list is built per ACK.
Windows are real-valued in MSS units so sub-MSS coupled increments
accumulate exactly. Slow start is uncoupled (+1 MSS per MSS acked) in all
modes and is handled by the caller; these rules cover congestion avoidance
and the loss response."""

from __future__ import annotations

from enum import Enum
from typing import Sequence

from .subflow import Subflow


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


def window_total(subflows: Sequence[Subflow]) -> float:
    # added left to right: from Python 3.12, sum() of floats compensates
    # rounding, so it would make the output depend on the version
    total = 0.0
    for sf in subflows:
        total += sf.cwnd
    return total


def compute_alpha(subflows: Sequence[Subflow]) -> float:
    """Aggressiveness factor of the linked-increase rule.

    alpha = w_total * max_i(w_i / rtt_i^2) / (sum_i w_i / rtt_i)^2

    Degenerates to 1 for a single subflow and to 1/n for n identical
    subflows; scale-invariant in the RTT unit.
    """
    w_total = 0.0
    best = 0.0
    denom = 0.0
    for sf in subflows:
        wi = sf.cwnd
        ri = sf.estimator.rtt
        if ri <= 0.0:
            raise ValueError("rtt must be positive for every subflow")
        w_total += wi
        term = wi / (ri * ri)
        if term > best:
            best = term
        denom += wi / ri
    if w_total <= 0.0:
        raise ValueError("no active subflow: all windows are zero")
    if len(subflows) == 1:
        # algebraically exactly 1; avoid the rounding of rtt*rtt
        return 1.0
    return w_total * best / (denom * denom)


def on_ack_increase(mode: CouplingMode, i: int,
                    subflows: Sequence[Subflow]) -> float:
    """Congestion-avoidance window increment (MSS) for one ACK on subflow i."""
    w_i = subflows[i].cwnd
    if mode is _UNCOUPLED:
        return 1.0 / w_i
    w_total = window_total(subflows)
    if mode is _FULLY_COUPLED:
        return 1.0 / w_total
    alpha = compute_alpha(subflows)
    if mode is _LINKED_INCREASES:
        return alpha / w_total
    # RTT Compensator: never more aggressive than single-path TCP on path i;
    # min(coupled, uncoupled) as the builtin compares, without a call
    coupled = alpha / w_total
    uncoupled = 1.0 / w_i
    return uncoupled if uncoupled < coupled else coupled


def on_loss_decrease(mode: CouplingMode, i: int,
                     subflows: Sequence[Subflow]) -> float:
    """The new ssthresh_i, which is the new w_i too, after a loss
    attributed to subflow i.

    Fully Coupled charges the total-window halving to the lossy subflow,
    floored at 1 MSS; the other modes halve the subflow window.
    """
    w_i = subflows[i].cwnd
    if mode is _FULLY_COUPLED:
        return max(w_i - window_total(subflows) / 2.0, 1.0)
    return max(w_i / 2.0, 2.0)
