"""Golden output fingerprint: pins simulator behaviour across code changes.

Each digest is the sha256 of one scenario's trace CSV, its `repr(stats)`
and its send log, as `recording.Recorder` keeps it. The constants were
computed from the simulator before its hot path was reworked; a change that
alters any of them changes behaviour and must say why. All 18 digests were
re-computed once since, for a change of the trace alone: a subflow's
`Sample` row is written only when its state differs from its previous row,
every subflow has a row at 0 s and at the run's end, and `time_s` is
written with `repr`. No event or segment count moved.

They were re-committed once more when a sample at t came to hold the
state after every event due before t, with every event due at t after
it. Before, an event due at exactly t came before the sample if it was
queued before the previous sample, and the run queued a stop event at
`stop_time` to apply that rule at the run's end. Event order and state
did not change. Each events count fell by 1, the stop event, and only
paper-reorder's digest moved: 9 of its Sample rows of subflow 2 fall on the
time of an ACK that now comes after them.

The points cover every coupling mode x detector pair once, each loss rate
on link 2 four times, and both presets at 2 MB. Four more run 3 and 4 lossy
links at 1 MB, so the coupled rules are pinned over more than two subflows:
linked increases, the RTT compensator and the fully coupled loss decrease.

Each point also pins the events the kernel scheduled and the data segments
sent. A change can keep the trace and stats byte-identical while it adds or
removes `schedule()` calls; the counts catch that. Trace samples are taken
between kernel slices, not as events, and the run queues no stop event, so
the events count neither.
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
        "ae67e4289720254a2ede40f21f863c990d98ea34ad8deb2a78ccb1644d007293",
    (4.0, 160.0, 0.01, C.UNCOUPLED, D.EIFEL):
        "c840710e8ec21a94dbed5d2461265b6022aef13ad5287813219022f39111fbb8",
    (16.0, 320.0, 0.05, C.UNCOUPLED, D.DSACK):
        "8c4dbae12f3cfade474c25732bed61925b4a41394374f81a184985f351018765",
    (4.0, 320.0, 0.0, C.FULLY_COUPLED, D.NONE):
        "df40e3c745fa1821fad0ae6ddc55122be9e048844c63a74627c4cf791a8259b0",
    (16.0, 10.0, 0.01, C.FULLY_COUPLED, D.EIFEL):
        "2717cbf78eabe95977ee716c3cfcc16752c95b61ec57f4c4ce12a27a510d6801",
    (0.5, 160.0, 0.05, C.FULLY_COUPLED, D.DSACK):
        "29dc699fdc3d2cdbc1a46fdde9c1f9a43b0629e8761aaf937c0fb16b33356e91",
    (16.0, 160.0, 0.0, C.LINKED_INCREASES, D.NONE):
        "580c08b2ef0c614f31b6c7daac62127fa93efb0a5c62c618aeb3a4841ab9d589",
    (0.5, 320.0, 0.01, C.LINKED_INCREASES, D.EIFEL):
        "61b07699610d876e69197fa4ce3dbd0fdb93c9625d486695f8bd4941f33a1c84",
    (4.0, 10.0, 0.05, C.LINKED_INCREASES, D.DSACK):
        "7b7ce4ce2d800978f691f8af417e94704030772de1b89530d78e8243f93308cf",
    (0.5, 320.0, 0.05, C.RTT_COMPENSATOR, D.NONE):
        "3008854726ff96ed4da23037aaaca9ca81bba828d16bdc44a2009c3b5c27e976",
    (4.0, 160.0, 0.0, C.RTT_COMPENSATOR, D.EIFEL):
        "2d04f27494188da2fa4329aa4f5dc72f170f6d367da8b07eed27bf80b05b1025",
    (16.0, 320.0, 0.01, C.RTT_COMPENSATOR, D.DSACK):
        "7c95dcee37188c90629fee04c1ae38e30578d1be3d952a38404b6042c223aeb4",
}

# same keys -> (events scheduled, data segments sent)
GRID_COUNTS = {
    (0.5, 10.0, 0.0, C.UNCOUPLED, D.NONE): (4287, 1429),
    (4.0, 160.0, 0.01, C.UNCOUPLED, D.EIFEL): (3759, 1468),
    (16.0, 320.0, 0.05, C.UNCOUPLED, D.DSACK): (4116, 1691),
    (4.0, 320.0, 0.0, C.FULLY_COUPLED, D.NONE): (4178, 1432),
    (16.0, 10.0, 0.01, C.FULLY_COUPLED, D.EIFEL): (3987, 1459),
    (0.5, 160.0, 0.05, C.FULLY_COUPLED, D.DSACK): (4375, 1599),
    (16.0, 160.0, 0.0, C.LINKED_INCREASES, D.NONE): (4288, 1432),
    (0.5, 320.0, 0.01, C.LINKED_INCREASES, D.EIFEL): (3947, 1471),
    (4.0, 10.0, 0.05, C.LINKED_INCREASES, D.DSACK): (4282, 1501),
    (0.5, 320.0, 0.05, C.RTT_COMPENSATOR, D.NONE): (4124, 1553),
    (4.0, 160.0, 0.0, C.RTT_COMPENSATOR, D.EIFEL): (3447, 1432),
    (16.0, 320.0, 0.01, C.RTT_COMPENSATOR, D.DSACK): (3949, 1518),
}

PRESET_DIGESTS = {
    "paper-base":
        "1b1ad9067e1eac1007c42d55577b17fac38c3528510edf5437d23f9a302fe69e",
    "paper-reorder":
        "c197550d4959a1ba44a822fd156041b360ce5d2a5a06b4dff2302042144e9b63",
}

PRESET_COUNTS = {
    "paper-base": (4287, 1429),
    "paper-reorder": (4024, 1431),
}

# ((Mbps, one-way ms, loss) per link, coupling, detector)
#   -> (digest, events scheduled, data segments sent)
MULTI_LINK = {
    (((2.0, 10.0, 0.01), (4.0, 40.0, 0.02), (1.0, 80.0, 0.01)),
     C.LINKED_INCREASES, D.EIFEL):
        ("b9bb25dd600e9eb774e10229f8d03068a49b5e1ecd8e88cbee525e3a053b909e",
         1785, 746),
    (((4.0, 20.0, 0.02), (2.0, 60.0, 0.01), (8.0, 120.0, 0.01),
      (1.0, 30.0, 0.03)), C.RTT_COMPENSATOR, D.DSACK):
        ("eb5f2b4208e87f7f90b9fc269e2562d88b6ae104da768641a8152861404fa95f",
         1894, 818),
    (((2.0, 15.0, 0.02), (4.0, 50.0, 0.01), (2.0, 100.0, 0.02),
      (8.0, 25.0, 0.01)), C.FULLY_COUPLED, D.NONE):
        ("4e186c1d28d757998a001e11893688ed5cc6b0627e2336bb0cfc8dfcf0ca5853",
         2096, 776),
    (((1.0, 10.0, 0.02), (2.0, 40.0, 0.01), (4.0, 160.0, 0.02)),
     C.FULLY_COUPLED, D.EIFEL):
        ("ef44d30aa35489c3cb872af7f7a986d2c8b542546c11965d9cec2c3451229741",
         2077, 773),
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
    assert fingerprint(preset_cfg(name)) == (PRESET_DIGESTS[name],
                                             *PRESET_COUNTS[name])


def preset_cfg(name):
    cfg = load_scenario(name)
    cfg.transfer_size = 2 * MB
    return cfg


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
