"""Random valid scenarios: every config that passes validate() runs to an
end that keeps the run's integrity checks. `scenarios()` is the draw, for
other property tests to import."""

import math

from hypothesis import given, settings, strategies as st

from mpsim.config import LinkConfig, ScenarioConfig
from mpsim.coupling import CouplingMode
from mpsim.harness import TRACE_CSV_COLUMNS, run_scenario, trace_csv_lines
from mpsim.simulation import SAMPLE
from mpsim.spurious import DetectorChoice


def links():
    """A link of 0.05-50 Mbps, 0-300 ms one way, 0-20 % loss and a queue of
    1-200 packets."""
    return st.builds(LinkConfig,
                     capacity_bps=st.floats(0.05e6, 50e6),
                     one_way_delay_s=st.floats(0.0, 0.3),
                     loss_rate=st.floats(0.0, 0.2),
                     queue_limit=st.integers(1, 200))


@st.composite
def scenarios(draw):
    """A ScenarioConfig that passes validate(): 1-4 links, 1 B to 150 kB in
    segments of 40-1500 bytes, every coupling and detector, ACK loss on or
    off, and times, windows and RTO settings within validate()'s bounds."""
    rto_floor = draw(st.floats(1e-3, 1.0))
    return ScenarioConfig(
        links=draw(st.lists(links(), min_size=1, max_size=4)),
        transfer_size=draw(st.integers(1, 150_000)),
        mss=draw(st.integers(40, 1500)),
        coupling=draw(st.sampled_from(CouplingMode)),
        detector=draw(st.sampled_from(DetectorChoice)),
        seed=draw(st.integers(0, 2**64 - 1)),
        trace_interval=draw(st.floats(0.01, 1.0)),
        stop_time=draw(st.floats(1.0, 120.0)),
        ack_loss=draw(st.booleans()),
        rto_floor=rto_floor,
        rto_ceiling=draw(st.floats(rto_floor, 120.0)),
        initial_rto=draw(st.floats(0.01, 10.0)),
        initial_cwnd=draw(st.floats(1.0, 50.0)),
        initial_ssthresh=draw(st.one_of(st.floats(1.0, 1e6),
                                        st.just(math.inf))),
        initial_rtt=draw(st.floats(1e-3, 1.0)))


@settings(max_examples=400)
@given(scenarios())
def test_every_valid_scenario_ends_with_its_checks_kept(cfg):
    cfg.validate()
    result = run_scenario(cfg)
    s = result.stats
    assert s.protocol_violations == 0
    assert s.delivered_bytes <= cfg.transfer_size
    if s.completed:
        assert s.checksum_ok
        assert s.delivered_bytes == cfg.transfer_size
    assert sum(s.bytes_sf) >= s.delivered_bytes
    # every run samples at 0 s, one row per subflow, before any event: a
    # run always has a trace to plot
    n = len(cfg.links)
    assert [(r.time_s, r.subflow, r.event) for r in result.traces[:n]] == [
        (0.0, i, SAMPLE) for i in range(1, n + 1)]
    lines = trace_csv_lines(result.traces)
    assert lines[0] == ",".join(TRACE_CSV_COLUMNS)
    assert len(lines) == len(result.traces) + 1
    assert not any("\n" in line for line in lines)
