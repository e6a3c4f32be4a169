"""Random valid scenarios: every config that passes validate() runs to an
end that keeps the run's integrity checks. `scenarios()` is the draw, for
other property tests to import."""

import math

from hypothesis import example, given, settings, strategies as st

from mpsim.config import LinkConfig, ScenarioConfig
from mpsim.coupling import CouplingMode
from mpsim.harness import TRACE_CSV_COLUMNS, run_scenario, trace_csv_lines
from mpsim.simkernel import NS_PER_S, seconds_to_ns
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


def check_trace_rule(result, n):
    """The trace holds each subflow state once: rows in time order; each
    subflow's first row a Sample at 0 s and its last a Sample at the run's
    end; between them, no Sample row that repeats its subflow's previous
    row in (cwnd, ssthresh, phase); and no two Sample rows of a subflow at
    one time, but for the end row after a sample at the end time, which
    holds the state the completing ACK left. A stop_time under 0.5 ns
    rounds to 0 ns: the run ends at 0 s, and its rows at 0 s are its end
    rows."""
    traces = result.traces
    assert all(a.time_s <= b.time_s for a, b in zip(traces, traces[1:]))
    if result.stats.completed:
        end = result.stats.completion_time_s
    else:
        end = seconds_to_ns(result.cfg.stop_time) / NS_PER_S
    for sf in range(1, n + 1):
        rows = [r for r in traces if r.subflow == sf]
        assert (rows[0].time_s, rows[0].event) == (0.0, SAMPLE)
        assert (rows[-1].time_s, rows[-1].event) == (end, SAMPLE)
        for prev, r in zip(rows, rows[1:-1]):
            assert r.event != SAMPLE or (r.cwnd, r.ssthresh, r.phase) != (
                prev.cwnd, prev.ssthresh, prev.phase)
        samples = [(r.time_s, r.cwnd, r.ssthresh, r.phase) for r in rows
                   if r.event == SAMPLE]
        assert len(samples) == len(set(samples))
        times = [t for t, *_ in samples[:-1]]
        assert len(times) == len(set(times))


@settings(max_examples=400)
@given(scenarios())
@example(ScenarioConfig(links=[LinkConfig(1e6, 0.01)], stop_time=1e-10))
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
    check_trace_rule(result, n)
    lines = trace_csv_lines(result.traces)
    assert lines[0] == ",".join(TRACE_CSV_COLUMNS)
    assert len(lines) == len(result.traces) + 1
    assert not any("\n" in line for line in lines)
