"""Metamorphic relations: pairs of runs whose traces must agree, whatever
the digests pinned in test_fingerprint.py. A change that re-commits the
digests still has to keep these."""

import pytest

from mpsim.config import LinkConfig, ScenarioConfig, load_scenario
from mpsim.coupling import CouplingMode
from mpsim.harness import run_scenario, trace_csv_lines
from mpsim.spurious import DetectorChoice

MB = 1_000_000
RECOVERY = (",FastRetransmit", ",Rto")


def trace_lines(cfg):
    return trace_csv_lines(run_scenario(cfg).traces)


def preset(name, transfer=MB, loss=0.0):
    cfg = load_scenario(name)
    cfg.transfer_size = transfer
    for link in cfg.links:
        link.loss_rate = loss
    return cfg


@pytest.mark.parametrize("detector", list(DetectorChoice))
@pytest.mark.parametrize("loss", [0.0, 0.02])
def test_coupling_modes_agree_on_one_link(loss, detector):
    # with one subflow, each of these rules is plain Reno
    traces = [trace_lines(ScenarioConfig(
        links=[LinkConfig(1e6, 0.02, loss_rate=loss)],
        transfer_size=300_000, coupling=mode, detector=detector))
        for mode in (CouplingMode.UNCOUPLED, CouplingMode.LINKED_INCREASES,
                     CouplingMode.RTT_COMPENSATOR)]
    assert traces[1] == traces[0] and traces[2] == traces[0]
    # the runs reach the rules that differ: congestion avoidance, and with
    # loss the window cuts
    assert any(",congestion_avoidance," in line for line in traces[0])
    assert any(line.endswith(RECOVERY) for line in traces[0]) == (loss > 0)


@pytest.mark.parametrize("name", ["paper-base", "paper-reorder"])
def test_lossless_trace_depends_on_neither_seed_nor_ack_loss(name):
    base = preset(name)
    reference = trace_lines(base)
    for key, value in (("seed", 7), ("ack_loss", False)):
        cfg = base.copy()
        setattr(cfg, key, value)
        assert trace_lines(cfg) == reference, key


@pytest.mark.parametrize("name, loss", [("paper-reorder", 0.0),
                                        ("paper-base", 0.02)])
def test_detectors_agree_up_to_the_first_recovery(name, loss):
    traces = []
    for detector in DetectorChoice:
        cfg = preset(name, loss=loss)
        cfg.detector = detector
        traces.append(trace_lines(cfg))
    first = next(i for i, line in enumerate(traces[0])
                 if line.endswith(RECOVERY))
    assert all(t[:first + 1] == traces[0][:first + 1] for t in traces)
    # the detectors do differ later: the relation is about the prefix
    assert traces[1] != traces[0] and traces[2] != traces[0]


@pytest.mark.parametrize("name, loss", [("paper-reorder", 0.0),
                                        ("paper-base", 0.02)])
def test_longer_transfer_agrees_over_the_first_half(name, loss):
    short = run_scenario(preset(name, MB, loss))
    long = run_scenario(preset(name, 2 * MB, loss))
    half = short.stats.completion_time_s / 2
    rows = [trace_csv_lines([r for r in result.traces if r.time_s <= half])
            for result in (short, long)]
    assert rows[0] == rows[1]
    assert any(line.endswith(RECOVERY) for line in rows[0])
