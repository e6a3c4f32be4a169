"""Scenario files, presets, CSV/SVG emission, sweeps and the CLI."""

import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from enum import Enum
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import mpsim
from mpsim import harness
from mpsim.cli import main
from mpsim.config import (PRESET_NAMES, ScenarioConfig, ScenarioError,
                          load_scenario, parse_scenario, preset_text)
from mpsim.coupling import CouplingMode
from mpsim.harness import (emit_csv, emit_plot, fmt, parse_trace_csv,
                           run_scenario, run_sweep, sweep_csv_lines,
                           trace_csv_lines)
from mpsim.netmodel import Link, LinkConfig
from mpsim.simkernel import mix_seed
from mpsim.simulation import EVENTS, TraceRecord
from mpsim.spurious import DetectorChoice
from mpsim.subflow import PHASES

FLAT = """
# two asymmetric paths
link1.capacity_mbps = 0.5
link1.delay_ms = 10
link2.capacity_mbps = 0.5
link2.delay_ms = 320
link2.loss_rate = 0.01
transfer_size = 200000
coupling = linked_increases
detector = eifel
seed = 7
"""


# ----------------------------------------------------------------- parsing

def test_flat_scenario_round_trip():
    cfg = parse_scenario(FLAT, "inline")
    assert len(cfg.links) == 2
    assert cfg.links[0].capacity_bps == pytest.approx(0.5e6)
    assert cfg.links[1].one_way_delay_s == pytest.approx(0.320)
    assert cfg.links[1].loss_rate == pytest.approx(0.01)
    assert cfg.coupling is CouplingMode.LINKED_INCREASES
    assert cfg.detector is DetectorChoice.EIFEL
    assert (cfg.transfer_size, cfg.seed) == (200_000, 7)


def test_json_scenario_equivalent():
    data = {
        "links": [{"capacity_mbps": 0.5, "delay_ms": 10},
                  {"capacity_mbps": 0.5, "delay_ms": 320, "loss_rate": 0.01}],
        "transfer_size": 200000,
        "coupling": "linked_increases",
        "detector": "eifel",
        "seed": 7,
    }
    cfg = parse_scenario(json.dumps(data))
    ref = parse_scenario(FLAT)
    assert cfg == ref


JSON_LINK = {"capacity_mbps": 1, "delay_ms": 10}


@pytest.mark.parametrize("extra, message", [
    ({"transfer_size": 1.5}, "transfer_size: expected an integer, got 1.5"),
    ({"seed": True}, "seed: expected an integer, got True"),
    ({"mss": float("inf")}, "mss: expected an integer"),
    ({"stop_time": False}, "stop_time: expected a number, got False"),
    ({"links": [dict(JSON_LINK, queue_limit=2.7)]},
     "link1: queue_limit: expected an integer, got 2.7"),
], ids=["fraction", "boolean", "infinity", "boolean-number", "link-fraction"])
def test_json_number_keys_reject_fractions_and_booleans(extra, message):
    # int() would truncate 1.5 and 2.7 and read true as 1
    with pytest.raises(ScenarioError, match=message):
        parse_scenario(json.dumps({"links": [JSON_LINK], **extra}))


def test_json_integral_float_is_an_integer():
    cfg = parse_scenario(json.dumps({"links": [JSON_LINK],
                                     "transfer_size": 2e6}))
    assert cfg.transfer_size == 2_000_000
    assert isinstance(cfg.transfer_size, int)


def test_json_link_entry_must_be_an_object(tmp_path, capsys):
    with pytest.raises(ScenarioError, match="link2: expected an object"):
        parse_scenario(json.dumps({"links": [JSON_LINK, 5]}))
    path = tmp_path / "bad.json"
    path.write_text('{"links": [5]}')
    assert main(["run", str(path), "--out", str(tmp_path)]) == 2
    assert "error: %s: link1: expected an object" % path \
        in capsys.readouterr().err


def test_parse_errors_name_field_and_line():
    with pytest.raises(ScenarioError, match="inline:2"):
        parse_scenario("link1.capacity_mbps = 0.5\nbogus line\n", "inline")
    with pytest.raises(ScenarioError,
                       match="transfer_size: expected an integer, got '1.5'"):
        parse_scenario("link1.capacity_mbps=1\nlink1.delay_ms=1\n"
                       "transfer_size = 1.5\n")
    with pytest.raises(ScenarioError, match="coupling"):
        parse_scenario("coupling = warp_speed\nlink1.capacity_mbps=1\n"
                       "link1.delay_ms=1\n")
    with pytest.raises(ScenarioError, match="link2"):
        parse_scenario("link1.capacity_mbps=1\nlink1.delay_ms=1\n"
                       "link2.delay_ms=5\n")
    with pytest.raises(ScenarioError, match="loss_rate"):
        parse_scenario("link1.capacity_mbps=1\nlink1.delay_ms=1\n"
                       "link1.loss_rate=2\n")


LINK_1 = "link1.capacity_mbps = 1\n"


@pytest.mark.parametrize("text, message", [
    (LINK_1 + "link1.delay_ms = ten\n",
     "my.scn:2: link1: delay_ms: expected a number, got 'ten'"),
    (LINK_1 + "link1.delay_ms = 10\nlink1.speed = 3\n",
     "my.scn:3: link1: unknown key(s) ['speed']"),
    (LINK_1, "my.scn: link1: capacity_mbps and delay_ms are required"),
    (json.dumps({"links": [{"capacity_mbps": 1, "delay_ms": "ten"}]}),
     "my.scn: link1: delay_ms: expected a number, got 'ten'"),
], ids=["bad-value", "unknown-key", "missing-key", "json-bad-value"])
def test_link_parse_errors_name_the_file(text, message):
    # as a scalar key's error does; in a flat file with the key's line
    with pytest.raises(ScenarioError) as info:
        parse_scenario(text, "my.scn")
    assert str(info.value) == message


def test_link_indices_must_be_contiguous():
    with pytest.raises(ScenarioError, match="1..n"):
        parse_scenario("link1.capacity_mbps=1\nlink1.delay_ms=1\n"
                       "link3.capacity_mbps=1\nlink3.delay_ms=1\n")


def test_scenario_requires_at_least_one_link():
    with pytest.raises(ScenarioError, match="links"):
        parse_scenario("transfer_size = 1000\n")


# a value other than the default for every scenario key, of the key's type
NON_DEFAULT = {
    "transfer_size": 123_456, "mss": 1000,
    "coupling": CouplingMode.UNCOUPLED, "detector": DetectorChoice.DSACK,
    "seed": 7, "trace_interval": 0.25, "stop_time": 30.5, "ack_loss": False,
    "rto_floor": 0.25, "rto_ceiling": 30.5, "initial_rto": 1.5,
    "initial_cwnd": 3.5, "initial_ssthresh": 16.5, "initial_rtt": 0.15,
}


def test_every_scenario_key_round_trips_in_both_formats():
    # a field no scenario file can set is a switch with one reachable side;
    # links have their own keys, and the per-segment logs are a caller's
    # choice, not part of a scenario
    names = [f.name for f in dataclasses.fields(ScenarioConfig)]
    assert sorted(NON_DEFAULT) == sorted(set(names)
                                         - {"links", "record_segments"})
    flat_link = "link1.capacity_mbps = 1\nlink1.delay_ms = 10\n"
    for name, value in NON_DEFAULT.items():
        assert value != getattr(ScenarioConfig(), name), name
        plain = value.value if isinstance(value, Enum) else value
        flat = parse_scenario(flat_link + "%s = %s\n" % (name, plain))
        parsed = parse_scenario(json.dumps({"links": [JSON_LINK],
                                            name: plain}))
        for cfg in (flat, parsed):
            got = getattr(cfg, name)
            assert (got, type(got)) == (value, type(value)), name
    for text in (flat_link + "record_segments = true\n",
                 json.dumps({"links": [JSON_LINK], "record_segments": True})):
        with pytest.raises(ScenarioError,
                           match="unknown key 'record_segments'"):
            parse_scenario(text)


@pytest.mark.parametrize("key", ["coupling", "detector"])
def test_json_null_is_no_enum_member(key):
    # str(None).lower() is "none", which read as the detector `none`
    with pytest.raises(ScenarioError, match="%s: expected one of .*, got "
                                            "None$" % key):
        parse_scenario(json.dumps({"links": [JSON_LINK], key: None}))
    cfg = parse_scenario("link1.capacity_mbps=1\nlink1.delay_ms=1\n"
                         "detector = None\n")  # the name of a value
    assert cfg.detector is DetectorChoice.NONE


@pytest.mark.parametrize("text", [
    "link1.capacity_mbps=1\nlink1.delay_ms=1\npartial_ack_retransmit=off\n",
    json.dumps({"links": [JSON_LINK], "partial_ack_retransmit": False}),
], ids=["flat", "json"])
def test_partial_ack_switch_is_an_unknown_key(text):
    # NewReno partial-ACK recovery is always on: no key turns it off
    with pytest.raises(ScenarioError,
                       match="unknown key 'partial_ack_retransmit'"):
        parse_scenario(text)


def test_presets_load_and_differ_in_latency():
    base = load_scenario("paper-base")
    reorder = load_scenario("paper-reorder")
    assert set(PRESET_NAMES) == {"paper-base", "paper-reorder"}
    assert base.links[0].one_way_delay_s == reorder.links[0].one_way_delay_s
    assert reorder.links[1].one_way_delay_s == pytest.approx(0.320)
    assert base.links[1].one_way_delay_s == pytest.approx(0.010)


def test_preset_loads_are_independent():
    first = load_scenario("paper-base")
    first.links[1].loss_rate = 0.5
    first.links.append(LinkConfig(1e6, 0.0))
    first.transfer_size = 1
    again = load_scenario("paper-base")
    assert again == parse_scenario(preset_text("paper-base"))


def test_file_named_like_a_preset_shadows_it(tmp_path, monkeypatch):
    load_scenario("paper-base")  # the bundled preset, parsed and kept
    monkeypatch.chdir(tmp_path)
    (tmp_path / "paper-base").write_text(FLAT)
    assert load_scenario("paper-base") == parse_scenario(FLAT)


def test_unknown_scenario_name_is_an_error():
    with pytest.raises(ScenarioError, match="no such file or preset"):
        load_scenario("paper-nonexistent")


def test_trace_sample_count_is_bounded():
    # 1e9 trace samples would exhaust memory long before the run ends
    cfg = small_cfg(stop_time=1.0, trace_interval=1e-9)
    with pytest.raises(ScenarioError) as info:
        cfg.validate()
    assert "stop_time" in str(info.value)
    assert "trace_interval" in str(info.value)
    small_cfg(stop_time=1.0, trace_interval=1e-6).validate()  # at the limit


def test_trace_interval_below_one_clock_tick_is_rejected():
    # 1e-10 s rounds to a 0 ns step: the run sampled t=0 without end, within
    # the sample bound, growing its trace until memory ran out
    with pytest.raises(ScenarioError,
                       match=re.escape("trace_interval: must be >= 1e-9 s")):
        small_cfg(stop_time=1e-5, trace_interval=1e-10).validate()
    result = run_scenario(small_cfg(stop_time=1e-5, trace_interval=1e-9))
    assert len(result.traces) == 2 * 10_000  # one tick, and 2 subflows


def with_values(cfg, values):
    """Set `field` or `linkN.field` entries of `values` on cfg."""
    for key, value in values.items():
        if key.startswith("link"):
            name, field = key.split(".")
            setattr(cfg.links[int(name[4:]) - 1], field, value)
        else:
            setattr(cfg, key, value)
    return cfg


def values_id(values):
    return ",".join("%s=%s" % kv for kv in values.items())


@pytest.mark.parametrize("values", [
    # each of these passed validate() and then raised inside Simulation
    {"trace_interval": math.nan},
    {"stop_time": math.nan},
    {"initial_rto": math.nan},
    {"link2.one_way_delay_s": math.nan},
    {"link2.capacity_bps": math.nan},
    {"link2.one_way_delay_s": math.inf},
    {"trace_interval": math.inf},
    {"rto_ceiling": math.inf, "initial_rto": math.inf},
    # these ran, but a NaN fails every comparison the simulator makes, and
    # an infinite ceiling lets a backed-off RTO reach infinity
    {"rto_ceiling": math.inf},
    {"rto_floor": math.nan},
    {"rto_ceiling": math.nan},
    {"initial_cwnd": math.nan},
    {"initial_ssthresh": math.nan},
    {"initial_rtt": math.nan},
    {"link1.loss_rate": math.nan},
    # an infinite initial_rtt made compute_alpha raise on lossy links, and
    # an infinite initial_cwnd wrote nan or inf windows, which the trace
    # reader rejects
    {"initial_rtt": math.inf},
    {"initial_cwnd": math.inf},
], ids=values_id)
def test_non_finite_numbers_are_rejected(values):
    # the message names the first field set
    with pytest.raises(ScenarioError, match=re.escape(next(iter(values)))):
        with_values(small_cfg(), values).validate()


def test_non_finite_numbers_are_rejected_when_parsed():
    with pytest.raises(ScenarioError, match="link2.one_way_delay_s"):
        parse_scenario(FLAT.replace("delay_ms = 320", "delay_ms = inf"))
    with pytest.raises(ScenarioError, match="trace_interval"):
        parse_scenario(FLAT + "trace_interval = nan\n")


WRONG_TYPES = [
    # the first two ran with no detector and with rtt_compensator, and a
    # fractional seed raised inside RandomStream
    ({"detector": "eifel"},
     "detector: expected one of ['none', 'eifel', 'dsack'], got 'eifel'"),
    ({"coupling": "uncoupled"}, "coupling: expected one of ["),
    ({"ack_loss": "no"}, "ack_loss: expected a boolean, got 'no'"),
    ({"record_segments": 1}, "record_segments: expected a boolean, got 1"),
    ({"mss": 1400.5}, "mss: expected an integer, got 1400.5"),
    ({"seed": 1.5}, "seed: expected an integer, got 1.5"),
    ({"seed": True}, "seed: expected an integer, got True"),
    ({"stop_time": False}, "stop_time: expected a number, got False"),
    ({"link2.queue_limit": 2.5},
     "link2.queue_limit: expected an integer, got 2.5"),
]


@pytest.mark.parametrize("values, message", WRONG_TYPES,
                         ids=[values_id(values) for values, _ in WRONG_TYPES])
def test_wrongly_typed_fields_are_rejected(values, message):
    # a config built in Python gets the type check the file parser makes
    with pytest.raises(ScenarioError, match=re.escape(message)):
        with_values(small_cfg(), values).validate()


@pytest.mark.parametrize("links, message", [
    ([{"capacity_bps": 1e6}],
     "link1: expected a LinkConfig, got {'capacity_bps': 1000000.0}"),
    ([LinkConfig(1e6, 0.01), None], "link2: expected a LinkConfig, got None"),
    ((LinkConfig(1e6, 0.01),), "links: expected a list of LinkConfig, got ("),
    ("link", "links: expected a list of LinkConfig, got 'link'"),
], ids=["dict", "none", "tuple", "str"])
def test_links_of_the_wrong_type_are_rejected(links, message):
    # a dict entry used to escape validate() as an AttributeError
    with pytest.raises(ScenarioError, match=re.escape(message)):
        ScenarioConfig(links=links).validate()


@pytest.mark.parametrize("call, message", [
    (lambda: LinkConfig(0, 0.01).validate(),
     "link.capacity_bps must be > 0"),
    (lambda: Link(LinkConfig(1e6, 0.01, loss_rate=1.5)),
     "link.loss_rate must be in [0, 1]"),
    (lambda: run_sweep(small_cfg(), "warp", 2, (1.0,)),
     "sweep parameter: expected one of ['capacity', 'latency', 'loss'], "
     "got 'warp'"),
    (lambda: run_sweep(small_cfg(), "loss", 3, (0.1,)),
     "sweep link: index 3 out of range (scenario has 2 links)"),
], ids=["link-validate", "link", "sweep-parameter", "sweep-link"])
def test_every_scenario_input_failure_is_a_scenario_error(call, message):
    with pytest.raises(ScenarioError) as info:
        call()
    assert str(info.value) == message


@pytest.mark.parametrize("values", [
    {"initial_ssthresh": math.inf}, {"link2.capacity_bps": math.inf}],
    ids=values_id)
def test_infinite_window_or_capacity_still_runs(values):
    cfg = with_values(small_cfg(), values)
    cfg.validate()
    stats = run_scenario(cfg).stats
    assert stats.completed and stats.checksum_ok


@pytest.mark.parametrize("cwnd", [0, 0.5, -math.inf])
def test_initial_cwnd_below_one_mss_is_rejected(cwnd):
    # a subflow sends only while one MSS fits in cwnd * mss: with less than
    # one MSS it would never send
    with pytest.raises(ScenarioError, match=r"initial_cwnd: must be >= 1 "):
        small_cfg(initial_cwnd=cwnd).validate()
    cfg = small_cfg(initial_cwnd=1)
    cfg.validate()
    assert run_scenario(cfg).stats.completed


@pytest.mark.parametrize("initial_rtt", [1e-9, 1e9])
def test_initial_rtt_at_its_bounds_runs(initial_rtt):
    # compute_alpha reads initial_rtt for a path with no RTT sample yet
    cfg = small_cfg(coupling=CouplingMode.LINKED_INCREASES,
                    initial_ssthresh=1, initial_rtt=initial_rtt, seed=5,
                    transfer_size=100_000,
                    links=[LinkConfig(0.5e6, 0.010),
                           LinkConfig(0.5e6, 0.010, loss_rate=0.3)])
    stats = run_scenario(cfg).stats
    assert stats.completed and stats.checksum_ok


@pytest.mark.parametrize("rtt", [0, -1, 1e-300, 1e200])
def test_initial_rtt_out_of_range_is_rejected(rtt):
    # each passed validate(): 0, -1 and 1e-300 then made compute_alpha
    # raise in the scenario above, and 1e200 did so with both links lossy,
    # where rtt*rtt or the squared sum leaves float range
    with pytest.raises(ScenarioError, match="initial_rtt: must be between"):
        small_cfg(initial_rtt=rtt).validate()


@pytest.mark.parametrize("values", [
    # each passed validate() and then raised OverflowError in the run: the
    # time, or one MSS's serialization time, came out infinite in ns
    {"link1.capacity_bps": 1e-300},
    {"link1.one_way_delay_s": 1e300},
    {"stop_time": 1e300, "trace_interval": 1e295},
    {"trace_interval": 1e300},
    {"rto_ceiling": 1e300, "initial_rto": 1e300},
], ids=values_id)
def test_times_beyond_1e9_s_are_rejected(values):
    # the message names the first field set
    with pytest.raises(ScenarioError, match=re.escape(next(iter(values)))):
        with_values(small_cfg(), values).validate()


@pytest.mark.parametrize("mss", [10**9 + 1, 10**400], ids=["1e9+1", "1e400"])
def test_mss_beyond_1e9_bytes_is_rejected(mss):
    # 10**400 passed validate() on an infinite link, where no MSS takes
    # long to send, and the run raised OverflowError in `cwnd * mss`
    cfg = small_cfg(links=[LinkConfig(math.inf, 0.01)], mss=mss)
    with pytest.raises(ScenarioError, match="mss: must be > 0 and <= 1e9"):
        cfg.validate()


def test_mss_of_1e9_bytes_runs():
    cfg = small_cfg(links=[LinkConfig(math.inf, 0.01)], mss=10**9,
                    transfer_size=2 * 10**9)
    stats = run_scenario(cfg).stats
    assert stats.completed and stats.checksum_ok


def test_times_at_1e9_s_run():
    # one MSS takes 1e9 s to send: nothing arrives, and the run ends
    cfg = small_cfg(links=[LinkConfig(1400 * 8 / 1e9, 1e9)], mss=1400,
                    stop_time=1e9, trace_interval=1e9, rto_ceiling=1e9)
    stats = run_scenario(cfg).stats
    assert not stats.completed and stats.delivered_bytes == 0


def test_readme_scenario_block_is_the_defaults():
    # README's "Scenario files" block lists every key at its default
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("## Scenario files", 1)[1]
    block = section.split("```ini\n", 1)[1].split("```", 1)[0]
    cfg = parse_scenario(block, "README.md")
    assert dataclasses.replace(cfg, links=[]) == ScenarioConfig()
    assert cfg.links == [LinkConfig(0.5e6, 0.010), LinkConfig(0.5e6, 0.320)]


# -------------------------------------------------------------- simulation

def small_cfg(**kw):
    cfg = load_scenario("paper-base")
    cfg.transfer_size = 120_000
    for key, value in kw.items():
        setattr(cfg, key, value)
    return cfg


def test_symmetric_transfer_completes_with_good_checksum():
    result = run_scenario(small_cfg())
    assert result.stats.completed
    assert result.stats.checksum_ok
    # two 0.5 Mbps paths: aggregate goodput must exceed one path alone
    assert result.stats.goodput_bps > 0.85e6


def test_zero_byte_transfer_is_trivially_complete():
    result = run_scenario(small_cfg(transfer_size=0))
    assert result.stats.completed
    assert result.stats.checksum_ok
    assert result.stats.completion_time_s == 0.0


def test_identical_configs_give_identical_results():
    a = run_scenario(small_cfg(seed=42))
    b = run_scenario(small_cfg(seed=42))
    assert trace_csv_lines(a.traces) == trace_csv_lines(b.traces)
    assert a.stats == b.stats


def test_seed_changes_lossy_run():
    lossy = small_cfg()
    lossy.links[1].loss_rate = 0.05
    a = run_scenario(lossy)
    lossy2 = small_cfg(seed=99)
    lossy2.links[1].loss_rate = 0.05
    b = run_scenario(lossy2)
    assert trace_csv_lines(a.traces) != trace_csv_lines(b.traces)


def test_run_does_not_mutate_caller_config():
    cfg = small_cfg()
    before = cfg.copy()
    run_scenario(cfg)
    assert cfg == before


# ------------------------------------------------------------------ sweeps

def test_sweep_runs_one_point_per_value_with_derived_seeds():
    cfg = small_cfg()
    rows = run_sweep(cfg, "latency", 2, (10.0, 160.0))
    assert [r.param_value for r in rows] == [10.0, 160.0]
    assert all(r.stats.completed for r in rows)
    # per-point seed must match the documented derivation
    point = cfg.copy()
    point.links[1].one_way_delay_s = 0.160
    point.seed = mix_seed(cfg.seed, 1)
    direct = run_scenario(point)
    assert rows[1].stats == direct.stats


def test_sweep_validates_link_index():
    with pytest.raises(ScenarioError, match="out of range"):
        run_sweep(small_cfg(), "capacity", 6, (1.0,))


def test_sweep_invalid_value_yields_error_row_not_abort():
    rows = run_sweep(small_cfg(), "loss", 2, (0.0, 2.0))
    assert rows[0].stats.completed and rows[0].error is None
    assert not rows[1].stats.completed
    assert "loss_rate" in rows[1].error


# --------------------------------------------------------------- CSV / SVG

def test_trace_csv_round_trip(tmp_path):
    # %.6g writes a window of 1000000 as 1e+06, which reads back as the same
    # float; inf is written only as a threshold, and read back as one
    for cfg in (small_cfg(), small_cfg(initial_ssthresh=1_000_000),
                small_cfg(initial_ssthresh=math.inf)):
        result = run_scenario(cfg)
        path = tmp_path / "trace.csv"
        emit_csv(result.traces, path)
        back = parse_trace_csv(path)
        assert trace_csv_lines(back) == trace_csv_lines(result.traces)
        assert main(["plot", str(path)]) == 0


def test_int_and_file_windows_write_the_same_trace():
    # a subflow's windows are floats from its construction, so an int window
    # given from Python is written as the same scenario from a file writes it
    text = preset_text("paper-base").replace("transfer_size = 5000000",
                                             "transfer_size = 120000")
    from_file = parse_scenario(text + "initial_ssthresh = 1000000\n")
    from_python = small_cfg(initial_ssthresh=1_000_000)
    lines = trace_csv_lines(run_scenario(from_python).traces)
    assert lines == trace_csv_lines(run_scenario(from_file).traces)
    assert lines[1] == "0,1,2,1e+06,slow_start,Sample"


def fmt_row(r):
    """A trace row rendered field by field with `fmt`: the reference the
    one-format row renderer must match byte for byte."""
    return ",".join((fmt(r.time_s), str(r.subflow), fmt(r.cwnd),
                     fmt(r.ssthresh), r.phase, r.event))


# the floats the simulator and the trace reader put in a record
_floats = st.one_of(
    st.floats(),  # nan, +-inf, -0.0 and subnormals included
    st.floats(min_value=-1e-300, max_value=1e-300),
    st.floats(min_value=9e-6, max_value=1.1e-5),
    st.floats(min_value=9.9e5, max_value=1.01e6),
    st.sampled_from([0.0, -0.0, 5e-324, 1e-5, 9.999995e-6, 999999.4,
                     999999.5, 1e6, math.inf, -math.inf, math.nan]))


@st.composite
def _records(draw):
    # besides fresh floats, a few objects that rows share, as a sample's
    # rows share a time and a subflow's rows an unchanged window; 0.0 and
    # -0.0 are equal but distinct objects, and are written differently
    pool = draw(st.lists(_floats, max_size=3)) + [0.0, -0.0]
    value = st.one_of(_floats, st.sampled_from(pool))
    return draw(st.lists(st.builds(
        TraceRecord, time_s=value,
        subflow=st.one_of(st.integers(1, 2), st.integers(min_value=1)),
        cwnd=value, ssthresh=value, phase=st.sampled_from(PHASES),
        event=st.sampled_from(EVENTS)), max_size=12))


_ZERO, _NEG_ZERO, _SHARED = 0.0, -0.0, 1.5


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_records())
@example([TraceRecord(t, 1, w, _SHARED, PHASES[0], EVENTS[0])
          for t in (_ZERO, _NEG_ZERO) for w in (_SHARED, _ZERO, _NEG_ZERO)])
def test_trace_rows_match_the_fmt_renderer(records):
    lines = trace_csv_lines(records)
    assert lines[0] == ",".join(harness.TRACE_CSV_COLUMNS)
    assert lines[1:] == [fmt_row(r) for r in records]


@pytest.mark.parametrize("row, message", [
    ("0,1,2", "expected 6 fields, got 3"),
    ("0,1,2,64,slow_start,Sample,extra", "expected 6 fields, got 7"),
    ("0,one,2,64,slow_start,Sample", "invalid literal for int()"),
    ("0,1,2,many,slow_start,Sample", "could not convert string to float"),
    ("0,1,2,64,slow-start,Sample", "unknown phase 'slow-start'"),
    ("0,1,2,64,fast_recovery,FastRetransmt",
     "unknown event 'FastRetransmt'"),
    ("nan,1,2,64,slow_start,Sample", "must be finite"),
    ("-inf,1,2,64,slow_start,Sample", "must be finite"),
    ("0,1,inf,64,slow_start,Sample", "must be finite"),
    ("0,1,nan,64,slow_start,Sample", "must be finite"),
    ("0,1,2,nan,slow_start,Sample", "ssthresh_mss not nan"),
], ids=["short", "long", "subflow", "ssthresh", "phase", "event", "nan-time",
        "inf-time", "inf-cwnd", "nan-cwnd", "nan-ssthresh"])
def test_parse_trace_csv_names_the_bad_line(tmp_path, capsys, row, message):
    path = tmp_path / "trace.csv"
    path.write_text(",".join(harness.TRACE_CSV_COLUMNS) + "\n" + row + "\n")
    with pytest.raises(ScenarioError,
                       match="^%s:2: " % re.escape(str(path))) as info:
        parse_trace_csv(path)
    assert message in str(info.value)
    assert main(["plot", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: %s:2: " % path) and message in err


def test_sweep_csv_has_expected_header_and_rows():
    rows = run_sweep(small_cfg(), "capacity", 2, (0.5, 4.0))
    lines = sweep_csv_lines(rows)
    assert lines[0].startswith("param_value,completion_time_s,goodput_bps")
    assert len(lines) == 3


def test_sweep_csv_keeps_every_subflow_and_error_messages():
    cfg = small_cfg()
    cfg.links.append(LinkConfig(4e6, 0.010))
    rows = run_sweep(cfg, "loss", 3, (0.0, 2.0))
    lines = sweep_csv_lines(rows)
    header = lines[0].split(",")
    assert header[3:9] == ["bytes_sf1", "bytes_sf2", "bytes_sf3",
                           "retx_sf1", "retx_sf2", "retx_sf3"]
    assert header[-1] == "error"
    ok = dict(zip(header, lines[1].split(",")))
    bytes_sf = [int(ok["bytes_sf%d" % i]) for i in (1, 2, 3)]
    assert bytes_sf == list(rows[0].stats.bytes_sf) and bytes_sf[2] > 0
    assert sum(bytes_sf) >= cfg.transfer_size and ok["error"] == ""
    # the error row keeps its message: quoted, since it holds a comma
    assert "loss_rate" in rows[1].error and "," in rows[1].error
    assert lines[2].endswith(',"%s"' % rows[1].error)


def test_plot_is_valid_svg_with_markers(tmp_path):
    cfg = load_scenario("paper-reorder")
    cfg.transfer_size = 400_000
    result = run_scenario(cfg)
    path = tmp_path / "trace.svg"
    emit_plot(result.traces, path)
    text = path.read_text()
    assert text.startswith("<svg")
    assert text.rstrip().endswith("</svg>")
    assert "polyline" in text
    assert result.stats.fast_retx > 0 and "#c22" in text


def test_plot_rejects_empty_trace(tmp_path):
    with pytest.raises(ValueError):
        emit_plot([], tmp_path / "x.svg")


def _cap_memory():
    import resource  # POSIX only
    resource.setrlimit(resource.RLIMIT_AS, (2 ** 30, 2 ** 30))


def test_cli_plot_of_a_time_span_below_the_float_spacing(tmp_path):
    # 1e9 s to 1e9 + 2.4e-7 s: the time axis' tick step, 5e-8 s, is below
    # half the float spacing at 1e9, so `v += step` stood still and the
    # tick list grew without end. The plot runs in a child process with
    # 1 GiB of address space and 20 s, so a return of that loop fails this
    # test instead of exhausting memory.
    path = tmp_path / "trace.csv"
    path.write_text("time_s,subflow,cwnd_mss,ssthresh_mss,phase,event\n"
                    "1000000000,1,2,64,slow_start,Sample\n"
                    "1000000000.0000002,1,3,64,slow_start,Sample\n")
    env = dict(os.environ, PYTHONPATH=str(Path(mpsim.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-m", "mpsim.cli", "plot",
                           str(path)], env=env, preexec_fn=_cap_memory,
                          capture_output=True, text=True, timeout=20)
    assert done.returncode == 0, done.stderr
    svg = (tmp_path / "trace.svg").read_text()
    assert svg.count(">1e+09</text>") == 1  # one time tick, not repeats


def test_plot_tick_labels_are_distinct(tmp_path):
    # rows at 100000 and 100000.5 s: six time ticks 0.1 s apart, which `%g`
    # (6 significant digits) printed as six times "100000"
    path = tmp_path / "trace.svg"
    emit_plot([TraceRecord(100000.0, 1, 2.0, 64.0, "slow_start", "Sample"),
               TraceRecord(100000.5, 1, 3.0, 64.0, "slow_start", "Sample")],
              path)
    labels = re.findall(r'text-anchor="middle">([^<]*)</text>',
                        path.read_text())[:-1]  # the last is the axis title
    assert labels == ["100000", "100000.1", "100000.2", "100000.3",
                      "100000.4", "100000.5"]


def capture_simulations(monkeypatch):
    """Swap harness.Simulation for a stand-in that takes only the config,
    as perfbench/workloads.py's _Capture does; returns the list of
    simulations it makes."""
    real, made = harness.Simulation, []

    def one_argument(cfg):
        made.append(real(cfg))
        return made[-1]

    monkeypatch.setattr(harness, "Simulation", one_argument)
    return made


def test_run_scenario_calls_simulation_with_the_config_alone(monkeypatch):
    # perfbench/layers.py takes len() of every list a run returns and reads
    # sim.kernel.now
    made = capture_simulations(monkeypatch)
    result = run_scenario(small_cfg())
    assert len(made) == 1
    assert result.stats.completed and result.stats.checksum_ok
    for name in ("sends", "arrivals", "srtts", "traces", "detections"):
        assert isinstance(len(getattr(result, name)), int)
    assert made[0].kernel.now > 0


@pytest.mark.parametrize("detector", list(DetectorChoice),
                         ids=lambda d: d.value)
def test_benchmark_tracer_finds_and_reads_every_layer(detector, monkeypatch):
    # perfbench/tracer.py patches named functions of mpsim and reads their
    # results (ack_update's tuple, on_data's triple, transmit's arguments);
    # a refactor that renames one or changes a result's shape fails here
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
    import tracer
    made = capture_simulations(monkeypatch)
    cfg = ScenarioConfig(
        links=[LinkConfig(1e6, 0.010, loss_rate=0.02),
               LinkConfig(1e6, 0.150, loss_rate=0.02)],
        transfer_size=300_000, detector=detector, trace_interval=0.5)
    t = tracer.Tracer()
    t.install()
    try:
        result = harness.run_scenario(cfg)
        harness.trace_csv_lines(result.traces)
    finally:
        t.uninstall()
    assert t.absent == []
    assert result.stats.completed and result.stats.checksum_ok
    assert result.stats.fast_retx > 0
    for span in ("netmodel.transmit", "connection.on_data",
                 "subflow.ack_update", "spurious", tracer.HANDLER):
        assert t.calls(span) > 0, span
    # perfbench's events_scheduled is kernel._ordinal, and its tests hold it
    # equal to the traced schedule calls: every ordinal is taken there
    assert t.calls("simkernel.schedule") == made[0].kernel._ordinal > 0
    assert harness.run_scenario is run_scenario  # the originals are back


# --------------------------------------------------------------------- CLI

def test_cli_run_writes_trace(tmp_path, capsys):
    scn = tmp_path / "tiny.scn"
    scn.write_text("link1.capacity_mbps=0.5\nlink1.delay_ms=10\n"
                   "link2.capacity_mbps=0.5\nlink2.delay_ms=10\n"
                   "transfer_size=60000\n")
    code = main(["run", str(scn), "--out", str(tmp_path / "out")])
    out = capsys.readouterr().out
    assert code == 0
    assert "completed in" in out
    assert (tmp_path / "out" / "trace.csv").exists()


def test_cli_seed_override_changes_nothing_on_lossless_run(tmp_path):
    # same scenario, different seed: a lossless run must be unaffected
    code = main(["run", "paper-base", "--out", str(tmp_path / "a")])
    assert code == 0
    code = main(["run", "paper-base", "--seed", "9",
                 "--out", str(tmp_path / "b")])
    assert code == 0
    a = (tmp_path / "a" / "trace.csv").read_bytes()
    b = (tmp_path / "b" / "trace.csv").read_bytes()
    assert a == b


def test_cli_sweep_and_plot(tmp_path, capsys):
    code = main(["sweep", "paper-base", "--param", "latency", "--link", "2",
                 "--values", "10,160", "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "sweep_latency_link2.csv").exists()
    main(["run", "paper-base", "--out", str(tmp_path)])
    code = main(["plot", str(tmp_path / "trace.csv")])
    assert code == 0
    assert (tmp_path / "trace.svg").exists()


def test_cli_sweep_with_an_infinite_value_writes_an_error_row(tmp_path):
    code = main(["sweep", "paper-base", "--param", "latency", "--link", "2",
                 "--values", "10,inf", "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "sweep_latency_link2.csv").read_text().splitlines()
    assert len(lines) == 3
    assert lines[1].startswith("10,") and lines[1].endswith(",")
    assert lines[2].startswith("inf,")
    assert lines[2].endswith("link2.one_way_delay_s must be <= 1e9 s")


def test_cli_errors_exit_2(tmp_path, capsys):
    assert main(["run", "no-such-scenario"]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["sweep", "paper-base", "--param", "loss", "--link", "2",
                 "--values", "abc"]) == 2
    assert main(["plot", str(tmp_path / "missing.csv")]) == 2


def test_cli_run_of_a_link_beyond_1e9_s_exits_2(tmp_path, capsys):
    # the delay passed validate() and the run raised OverflowError
    path = tmp_path / "far.json"
    path.write_text(json.dumps({"links": [{"capacity_mbps": 1,
                                           "delay_ms": 1e303}]}))
    assert main(["run", str(path), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (
        "error: link1.one_way_delay_s must be <= 1e9 s\n")


def test_cli_run_of_an_mss_beyond_1e9_bytes_exits_2(tmp_path, capsys):
    # JSON and the flat format take an integer of any size
    path = tmp_path / "huge.json"
    path.write_text('{"links": [{"capacity_mbps": Infinity, "delay_ms": 10}],'
                    ' "mss": 1%s}' % ("0" * 400))
    assert main(["run", str(path), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (
        "error: mss: must be > 0 and <= 1e9 bytes\n")


def test_star_import_resolves_every_public_name():
    namespace = {}
    exec("from mpsim import *", namespace)  # AttributeError on a stale name
    assert set(mpsim.__all__) <= set(namespace)
