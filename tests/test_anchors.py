"""Analytic anchors: the simulated sender against TCP throughput theory.

The output fingerprint pins what the model does, and a re-commit resets it;
a loss response with the wrong factor would pass every other check once
re-committed. These tests hold the model to a formula from outside the
code. On one lossy link, the `uncoupled` sender with no detector is
single-path NewReno, whose goodput Padhye et al. ("Modeling TCP Throughput:
A Simple Model and its Empirical Validation", SIGCOMM 1998) state in closed
form.
"""

import math

import pytest

from mpsim.config import ScenarioConfig
from mpsim.coupling import CouplingMode
from mpsim.netmodel import LinkConfig
from mpsim.simulation import Simulation

# 1 Gbps, 50 ms each way: serialization adds 11 us to the 0.1 s round trip,
# and a queue of 10**6 packets never overflows, so every loss is a draw
RTT_S = 0.1
# srtt + 4 rttvar stays below the 0.2 s RTO floor on this path
T0_S = 0.2
STOP_S = 60.0
SEEDS = (1, 2, 3)

# Measured ratios, mean of seeds 1-3: 1.04, 0.97 and 1.03 at p = 0.005,
# 0.01 and 0.02. A loss response that keeps 0.7 of the window instead of
# 0.5 gives 1.35, 1.37 and 1.41.
BAND = (0.85, 1.2)


def padhye_segments_per_s(p, rtt, t0, b=1):
    """Padhye et al.'s approximate model with no receiver-window limit:
    segments per second at loss rate `p`, round trip `rtt` and first
    timeout `t0`, with `b` segments acked per ACK (1: every segment is)."""
    return 1.0 / (rtt * math.sqrt(2.0 * b * p / 3.0)
                  + t0 * min(1.0, 3.0 * math.sqrt(3.0 * b * p / 8.0))
                  * p * (1.0 + 32.0 * p * p))


def simulated_segments_per_s(p, seed):
    cfg = ScenarioConfig(
        links=[LinkConfig(1e9, RTT_S / 2, loss_rate=p, queue_limit=10 ** 6)],
        transfer_size=10 ** 9, coupling=CouplingMode.UNCOUPLED,
        ack_loss=False, stop_time=STOP_S, trace_interval=STOP_S, seed=seed)
    stats = Simulation(cfg).run().stats
    assert not stats.completed  # goodput is the bytes delivered in STOP_S
    return stats.delivered_bytes / STOP_S / cfg.mss


@pytest.mark.parametrize("p", [0.005, 0.01, 0.02])
def test_single_path_goodput_matches_padhye(p):
    mean = sum(simulated_segments_per_s(p, s) for s in SEEDS) / len(SEEDS)
    ratio = mean / padhye_segments_per_s(p, RTT_S, T0_S)
    assert BAND[0] <= ratio <= BAND[1], ratio
