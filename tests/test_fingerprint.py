"""Golden output fingerprint: pins simulator behaviour across code changes.

Each digest is the sha256 of one scenario's trace CSV, its `repr(stats)`
and its send log, as `recording.Recorder` keeps it. The constants were
computed from the simulator before its hot path was reworked; a change that
alters any of them changes behaviour and must say why.

The points cover every coupling mode x detector pair once, each loss rate
on link 2 four times, and both presets at 2 MB. Four more run 3 and 4 lossy
links at 1 MB, so the coupled rules are pinned over more than two subflows:
linked increases, the RTT compensator and the fully coupled loss decrease.

Each point also pins the events the kernel scheduled and the data segments
sent. A change can keep the trace and stats byte-identical while it adds or
removes `schedule()` calls; the counts catch that. Trace samples are taken
between kernel slices, not as events, so the events count no sample.
"""

import hashlib

import pytest

from mpsim.config import LinkConfig, load_scenario
from mpsim.coupling import CouplingMode as C
from mpsim.harness import trace_csv_lines
from mpsim.spurious import DetectorChoice as D
from recording import Recorder

MB = 1_000_000

# (link-2 Mbps, link-2 one-way ms, link-2 loss, coupling, detector) -> digest
GRID_DIGESTS = {
    (0.5, 10.0, 0.0, C.UNCOUPLED, D.NONE):
        "717a7ad9543454c5a4f01f72645ed0b335aedd8439457f1e5ab45b8e8c5456eb",
    (4.0, 160.0, 0.01, C.UNCOUPLED, D.EIFEL):
        "c126f4f52a8542f7ba2338ca881b8c27e92c2bcf68a2009d2b207f6d791ad2ff",
    (16.0, 320.0, 0.05, C.UNCOUPLED, D.DSACK):
        "ac6636863cd1fc44550ceb3d0907ef4afcbb16d433e59e409403f2a5b932f108",
    (4.0, 320.0, 0.0, C.FULLY_COUPLED, D.NONE):
        "7df272c3d207d6320986190ee9fbc8e8300fb6efb375cab28a944335fb6308b9",
    (16.0, 10.0, 0.01, C.FULLY_COUPLED, D.EIFEL):
        "530c6c19f106251117fecdbe9debd5d3e812227bae858848e66597a1e4e13726",
    (0.5, 160.0, 0.05, C.FULLY_COUPLED, D.DSACK):
        "bc4f94fe84fef327779e643e12dbcd3af64e123f1697065fdacfbab5ac1546e7",
    (16.0, 160.0, 0.0, C.LINKED_INCREASES, D.NONE):
        "ccf28503777be54c0d090726434c0b2b4aabf68ac3a65b448a9fcc59c2f69bd4",
    (0.5, 320.0, 0.01, C.LINKED_INCREASES, D.EIFEL):
        "45d02248c3988bfd42df5017420f27a3fbc8f0a0241594ed394299d7e5b77193",
    (4.0, 10.0, 0.05, C.LINKED_INCREASES, D.DSACK):
        "f5caf66ae3e4bdc3022ea846878ca7481c8ca6b2f9c6c27c040dba5e990fe201",
    (0.5, 320.0, 0.05, C.RTT_COMPENSATOR, D.NONE):
        "b3c2ff775e9fca58b820ca79db85d59471cf97f52d703cc1c0973aa50d46e8ea",
    (4.0, 160.0, 0.0, C.RTT_COMPENSATOR, D.EIFEL):
        "76d43e93857dd9d9564fe5464bb30ded0d84eaf9bfad0656ded2f504490bd284",
    (16.0, 320.0, 0.01, C.RTT_COMPENSATOR, D.DSACK):
        "f44a4a63d8c25cff77daf5adeda1d47709bb68c8affed899abaea5ffb8ec09e0",
}

# same keys -> (events scheduled, data segments sent)
GRID_COUNTS = {
    (0.5, 10.0, 0.0, C.UNCOUPLED, D.NONE): (4288, 1429),
    (4.0, 160.0, 0.01, C.UNCOUPLED, D.EIFEL): (3760, 1468),
    (16.0, 320.0, 0.05, C.UNCOUPLED, D.DSACK): (4117, 1691),
    (4.0, 320.0, 0.0, C.FULLY_COUPLED, D.NONE): (4179, 1432),
    (16.0, 10.0, 0.01, C.FULLY_COUPLED, D.EIFEL): (3988, 1459),
    (0.5, 160.0, 0.05, C.FULLY_COUPLED, D.DSACK): (4376, 1599),
    (16.0, 160.0, 0.0, C.LINKED_INCREASES, D.NONE): (4289, 1432),
    (0.5, 320.0, 0.01, C.LINKED_INCREASES, D.EIFEL): (3948, 1471),
    (4.0, 10.0, 0.05, C.LINKED_INCREASES, D.DSACK): (4283, 1501),
    (0.5, 320.0, 0.05, C.RTT_COMPENSATOR, D.NONE): (4125, 1553),
    (4.0, 160.0, 0.0, C.RTT_COMPENSATOR, D.EIFEL): (3448, 1432),
    (16.0, 320.0, 0.01, C.RTT_COMPENSATOR, D.DSACK): (3950, 1518),
}

PRESET_DIGESTS = {
    "paper-base":
        "f6c11dcedb2839a1d210fd5323bf8c1f294e7ad2c624f4e40df725e2e9b3eca7",
    "paper-reorder":
        "6bc564188a1dc6b29a2f939e799e06c960cdc5d9168787cb40f6cf99cf95ee0d",
}

PRESET_COUNTS = {
    "paper-base": (4288, 1429),
    "paper-reorder": (4025, 1431),
}

# ((Mbps, one-way ms, loss) per link, coupling, detector)
#   -> (digest, events scheduled, data segments sent)
MULTI_LINK = {
    (((2.0, 10.0, 0.01), (4.0, 40.0, 0.02), (1.0, 80.0, 0.01)),
     C.LINKED_INCREASES, D.EIFEL):
        ("7a5a2e0f9459cb76b05ba21f6c750883dc45b39f33675ee7502c9a9bf8d726ff",
         1786, 746),
    (((4.0, 20.0, 0.02), (2.0, 60.0, 0.01), (8.0, 120.0, 0.01),
      (1.0, 30.0, 0.03)), C.RTT_COMPENSATOR, D.DSACK):
        ("af0802cceb2d603f5d07cb995e4bde7b658bae47d7508e1d5f23b5a2589241db",
         1895, 818),
    (((2.0, 15.0, 0.02), (4.0, 50.0, 0.01), (2.0, 100.0, 0.02),
      (8.0, 25.0, 0.01)), C.FULLY_COUPLED, D.NONE):
        ("b9b1d265505b5e1b72b2b98a588dc2f5d27a0307218a80eeba38e6b394780191",
         2097, 776),
    (((1.0, 10.0, 0.02), (2.0, 40.0, 0.01), (4.0, 160.0, 0.02)),
     C.FULLY_COUPLED, D.EIFEL):
        ("fdb2326f815eefe1847552c6ce97a200345d45c38fee7fea3803ed35b48f2129",
         2078, 773),
}


def fingerprint(cfg):
    """(digest, events scheduled, data segments sent) of one run."""
    sim = Recorder(cfg)
    result = sim.run()
    # every data segment is in the log: each MSS chunk once, plus resends
    assert result.stats.completed
    assert len(sim.sends) == (-(-cfg.transfer_size // cfg.mss)
                              + sum(result.stats.retx_sf))
    h = hashlib.sha256()
    h.update("\n".join(trace_csv_lines(result.traces)).encode())
    h.update(b"\n")
    h.update(repr(result.stats).encode())
    h.update(b"\n")
    h.update("".join("%d,%d\n" % send for send in sim.sends).encode())
    return (h.hexdigest(), sim.kernel._ordinal,
            sum(sf.segments_sent for sf in sim.subflows))


def grid_cfg(capacity_mbps, latency_ms, loss, coupling, detector):
    cfg = load_scenario("paper-base")
    link = cfg.links[1]
    link.capacity_bps = capacity_mbps * 1e6
    link.one_way_delay_s = latency_ms / 1e3
    link.loss_rate = loss
    cfg.transfer_size = 2 * MB
    cfg.coupling = coupling
    cfg.detector = detector
    cfg.trace_interval = 1.0
    return cfg


def point_id(point):
    capacity, latency, loss, coupling, detector = point
    return "%s-%s-%gMbps-%gms-%gloss" % (coupling.value, detector.value,
                                         capacity, latency, loss)


@pytest.mark.parametrize("point", list(GRID_DIGESTS), ids=point_id)
def test_grid_point_fingerprint(point):
    assert fingerprint(grid_cfg(*point)) == (GRID_DIGESTS[point],
                                             *GRID_COUNTS[point])


@pytest.mark.parametrize("name", sorted(PRESET_DIGESTS))
def test_preset_fingerprint(name):
    cfg = load_scenario(name)
    cfg.transfer_size = 2 * MB
    assert fingerprint(cfg) == (PRESET_DIGESTS[name], *PRESET_COUNTS[name])


def multi_link_cfg(links, coupling, detector):
    cfg = load_scenario("paper-base")
    cfg.links = [LinkConfig(mbps * 1e6, ms / 1e3, loss)
                 for mbps, ms, loss in links]
    cfg.transfer_size = 1 * MB
    cfg.coupling = coupling
    cfg.detector = detector
    cfg.trace_interval = 1.0
    return cfg


def multi_link_id(point):
    links, coupling, detector = point
    return "%s-%s-%dlinks" % (coupling.value, detector.value, len(links))


@pytest.mark.parametrize("point", list(MULTI_LINK), ids=multi_link_id)
def test_multi_link_fingerprint(point):
    assert fingerprint(multi_link_cfg(*point)) == MULTI_LINK[point]
