"""Scenario files, presets, CSV/SVG emission, sweeps and the CLI."""

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
from mpsim.config import (LINK_KEYS, PRESET_NAMES, RULES, ScenarioConfig,
                          ScenarioError, load_scenario, parse_scenario,
                          preset_text)
from mpsim.coupling import CouplingMode
from mpsim.harness import run_scenario, trace_csv_lines
from mpsim.netmodel import Link, LinkConfig
from mpsim.report import (emit_csv, emit_plot, fmt, parse_trace_csv,
                          run_sweep, sweep_csv_lines)
from mpsim.simkernel import mix_seed
from mpsim.simulation import EVENTS, Simulation, TraceRecord
from mpsim.spurious import DetectorChoice
from mpsim.subflow import PHASES
from test_scenarios import scenarios

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


LINK_1 = "link1.capacity_mbps = 1\n"


@pytest.mark.parametrize("line, message", [
    ("transfer_size = 1.5", "transfer_size: expected an integer, got '1.5'"),
    ("seed = true", "seed: expected an integer, got 'true'"),
    ("mss = inf", "mss: expected an integer, got 'inf'"),
    ("stop_time = false", "stop_time: expected a number, got 'false'"),
    ("link1.queue_limit = 2.7",
     "link1.queue_limit: expected an integer, got '2.7'"),
    ("transfer_size = 2e6", "transfer_size: expected an integer, got '2e6'"),
    ("mss = 1_400", "mss: expected an integer, got '1_400'"),
    ("mss = \u0661\u0664\u0660\u0660",
     "mss: expected an integer, got '\u0661\u0664\u0660\u0660'"),
    ("stop_time = 1_0", "stop_time: expected a number, got '1_0'"),
    ("trace_interval = \u0661.\u0665",
     "trace_interval: expected a number, got '\u0661.\u0665'"),
], ids=["fraction", "boolean", "infinity", "boolean-number", "link-fraction",
        "exponent", "underscore", "arabic-indic", "number-underscore",
        "number-arabic-indic"])
def test_number_keys_reject_fractions_and_booleans(line, message):
    # int() of a float would truncate 1.5 and 2.7, and a boolean word is no
    # number; an integer key takes the digits of a whole number. A number
    # is ASCII without `_`, which int() and float() both let through
    with pytest.raises(ScenarioError) as info:
        parse_scenario(LINK_1 + "link1.delay_ms = 10\n" + line + "\n",
                       "my.scn")
    assert str(info.value) == "my.scn:3: " + message


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
    with pytest.raises(ScenarioError, match="^inline:3: ack_loss: expected "
                                            "a boolean, got 'maybe'$"):
        parse_scenario("link1.capacity_mbps=1\nlink1.delay_ms=1\n"
                       "ack_loss = maybe\n", "inline")


@pytest.mark.parametrize("text, message", [
    (LINK_1 + "link1.delay_ms = ten\n",
     "my.scn:2: link1.delay_ms: expected a number, got 'ten'"),
    (LINK_1 + "link1.delay_ms = 10\nlink1.speed = 3\n",
     "my.scn:3: unknown key 'link1.speed'"),
    (LINK_1, "my.scn: link1: capacity_mbps and delay_ms are required"),
    (LINK_1 + "linkx.delay_ms = 10\n",
     "my.scn:2: bad link key 'linkx.delay_ms'"),
    (LINK_1 + "link0.delay_ms = 10\n",
     "my.scn:2: bad link key 'link0.delay_ms'"),
    (LINK_1 + "link1.delay_ms = 10\nlink+1.loss_rate = 0\n",
     "my.scn:3: bad link key 'link+1.loss_rate'"),
    (LINK_1 + "link1.delay_ms = 10\nlink\u0661.loss_rate = 0\n",
     "my.scn:3: bad link key 'link\u0661.loss_rate'"),
    (LINK_1 + "link1.delay_ms = 10\nlink1\u0661.loss_rate = 0\n",
     "my.scn:3: bad link key 'link1\u0661.loss_rate'"),
    (LINK_1 + "link1.delay_ms = 10\nlink1_0.loss_rate = 0\n",
     "my.scn:3: bad link key 'link1_0.loss_rate'"),
], ids=["bad-value", "unknown-key", "missing-key", "bad-link-key",
        "link-index-0", "link-plus-1", "link-arabic-indic-1",
        "link-1-arabic-indic-1", "link-1_0"])
def test_link_parse_errors_name_the_file(text, message):
    # as a scalar key's error does; with the key's line where it has one. A
    # link index is ASCII digits without a leading zero: int() took `+1`,
    # `1_0` and Arabic-Indic digits, and `link1_0` was link 10, a gap
    with pytest.raises(ScenarioError) as info:
        parse_scenario(text, "my.scn")
    assert str(info.value) == message


@pytest.mark.parametrize("text, message", [
    (LINK_1 + "link1.delay_ms = 10\ntransfer_size = 1000\n"
     "transfer_size = 2000\n",
     "my.scn:4: transfer_size: repeated key, first set at my.scn:3"),
    (LINK_1 + "link1.delay_ms = 10\nlink1.delay_ms = 20\n",
     "my.scn:3: link1.delay_ms: repeated key, first set at my.scn:2"),
    (LINK_1 + "link1.delay_ms = 10\nlink01.delay_ms = 20\n",
     "my.scn:3: bad link key 'link01.delay_ms'"),
], ids=["flat", "flat-link", "flat-link-leading-zero"])
def test_repeated_keys_are_rejected(text, message):
    # else the last value would win without a word. A link key has one
    # spelling, so `link01.` is no second name of link 1 but a bad key
    with pytest.raises(ScenarioError) as info:
        parse_scenario(text, "my.scn")
    assert str(info.value) == message


def test_first_faulty_line_is_reported():
    # a link key is read at its line, as a scalar key is, not after the file
    text = ("link1.capacity_mbps=1\nlink1.speed=3\nlink1.delay_ms=1\n"
            "seed=x\n")
    with pytest.raises(ScenarioError) as info:
        parse_scenario(text, "my.scn")
    assert str(info.value) == "my.scn:2: unknown key 'link1.speed'"


def field_of(key):
    """The record field a file key sets."""
    return LINK_KEYS[key.split(".")[1]][0] if "." in key else key


# for each ranged field, a file key that sets it and a value out of range
RANGE_FAULTS = [
    ("link1.capacity_mbps", "0"), ("link1.delay_ms", "-5"),
    ("link1.loss_rate", "1.5"), ("link1.queue_limit", "0"),
    ("transfer_size", "-1"), ("mss", "0"), ("trace_interval", "1e-10"),
    ("stop_time", "0"), ("rto_floor", "0"), ("rto_ceiling", "0"),
    ("initial_cwnd", "0.5"), ("initial_ssthresh", "0.5"),
    ("initial_rtt", "1e-10"),
]


# values just outside each ranged field's range
ABOVE_1E9 = math.nextafter(1e9, math.inf)
BELOW_1_NS = math.nextafter(1e-9, 0.0)
OUTSIDE = {
    "capacity_bps": [0.0, -5e-324, math.nextafter(8.0, 0.0)],
    "one_way_delay_s": [-5e-324, ABOVE_1E9],
    "loss_rate": [-5e-324, math.nextafter(1.0, 2.0)],
    "queue_limit": [0],
    "transfer_size": [-1],
    "mss": [0, 10**9 + 1],
    "trace_interval": [BELOW_1_NS, ABOVE_1E9],
    "stop_time": [0.0, ABOVE_1E9],
    "rto_floor": [0.0, ABOVE_1E9],
    "rto_ceiling": [0.0, ABOVE_1E9],
    "initial_cwnd": [math.nextafter(1.0, 0.0), math.inf],
    "initial_ssthresh": [math.nextafter(1.0, 0.0)],
    "initial_rtt": [BELOW_1_NS, ABOVE_1E9],
}


def test_every_rule_names_a_field_and_has_a_case():
    # a misspelt key would drop its rule without a word
    assert set(RULES) <= set(ScenarioConfig._fields) | set(LinkConfig._fields)
    assert sorted(field_of(key) for key, _ in RANGE_FAULTS) == sorted(RULES)
    assert sorted(OUTSIDE) == sorted(RULES)


@pytest.mark.parametrize("key, raw", RANGE_FAULTS,
                         ids=[key for key, _ in RANGE_FAULTS])
def test_range_faults_are_reported_at_their_line(key, raw):
    # under the key as the file spells it, not after the whole file in the
    # record's field name and unit
    lines = [line for line in (LINK_1, "link1.delay_ms = 10\n", "seed = 3\n")
             if not line.startswith(key + " ")]
    with pytest.raises(ScenarioError) as info:
        parse_scenario("".join(lines[:2]) + key + " = " + raw, "my.scn")
    words = RULES[field_of(key)][1]
    assert str(info.value) == "my.scn:3: %s: %s" % (key, words)


@pytest.mark.parametrize("text, message", [
    (LINK_1 + "link1.delay_ms = 10\nstop_time = nan\n",
     "my.scn:3: stop_time: expected a number, got nan"),
    (LINK_1 + "link1.delay_ms = 5\nmss = 0\nstop_time = nan\n",
     "my.scn:3: mss: must be > 0 and <= 1e9 bytes"),
], ids=["nan", "range-fault-before-nan"])
def test_nan_and_range_faults_come_at_their_line(text, message):
    # a NaN parsed, and validate() found it and every range fault after the
    # whole file, with no line
    with pytest.raises(ScenarioError) as info:
        parse_scenario(text, "my.scn")
    assert str(info.value) == message


@pytest.mark.parametrize("text, message", [
    (LINK_1 + "link1.delay_ms = 10\nrto_floor = 2\nrto_ceiling = 1\n",
     "rto_floor/rto_ceiling: need floor <= ceiling"),
    # a rule of one value now: the least capacity sends the largest MSS in
    # 1e9 s, so it is reported at its line
    ("link1.capacity_mbps = 1e-12\nlink1.delay_ms = 10\n",
     "my.scn:1: link1.capacity_mbps: must be >= 8 bps"),
    (LINK_1 + "link1.delay_ms = 10\nstop_time = 2\ntrace_interval = 1e-6\n",
     "stop_time/trace_interval: at most 1000000 trace samples per run, got "
     "stop_time=2 with trace_interval=1e-06"),
], ids=["rto", "mss-capacity", "samples"])
def test_joined_rules_come_after_the_file(text, message):
    # each value is in its own range: only validate() sees the two together
    with pytest.raises(ScenarioError) as info:
        parse_scenario(text, "my.scn")
    assert str(info.value) == message


def test_capacity_bound_holds_one_mss_to_1e9_s():
    # a bound of each link alone: joined with the MSS, 1 bps was valid with
    # a 100-byte MSS
    cfg = ScenarioConfig(links=[LinkConfig(1.0, 0.01)], mss=100)
    with pytest.raises(ScenarioError) as info:
        cfg.validate()
    assert str(info.value) == "link1.capacity_bps: must be >= 8 bps"
    ScenarioConfig(links=[LinkConfig(8.0, 0.01)], mss=10**9).validate()


@settings(max_examples=200)
@given(scenarios(), st.sampled_from(sorted(RULES)), st.data())
def test_every_rule_can_fail(cfg, field, data):
    # one field just outside its range in an otherwise valid config
    value = data.draw(st.sampled_from(OUTSIDE[field]))
    if field in LinkConfig._fields:
        i = data.draw(st.integers(1, len(cfg.links)))
        setattr(cfg.links[i - 1], field, value)
        name = "link%d.%s" % (i, field)
    else:
        setattr(cfg, field, value)
        name = field
    with pytest.raises(ScenarioError) as info:
        cfg.validate()
    assert str(info.value) == "%s: %s" % (name, RULES[field][1])


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


def test_every_scenario_key_round_trips():
    # a field no scenario file can set is a switch with one reachable side;
    # links have their own keys
    names = ScenarioConfig._fields
    assert sorted(NON_DEFAULT) == sorted(set(names) - {"links"})
    flat_link = "link1.capacity_mbps = 1\nlink1.delay_ms = 10\n"
    for name, value in NON_DEFAULT.items():
        assert value != getattr(ScenarioConfig(), name), name
        plain = value.value if isinstance(value, Enum) else value
        got = getattr(parse_scenario(flat_link + "%s = %s\n" % (name, plain)),
                      name)
        assert (got, type(got)) == (value, type(value)), name


@pytest.mark.parametrize("key, member", [
    ("coupling", None), ("detector", DetectorChoice.NONE)],
    ids=["coupling", "detector"])
def test_enum_keys_read_none_only_as_a_value_name(key, member):
    # `None` is read, in any case, as the name of a value: the detector
    # `none`; no coupling mode has that name
    text = "link1.capacity_mbps=1\nlink1.delay_ms=1\n%s = None\n" % key
    if member is None:
        with pytest.raises(ScenarioError, match="^<scenario>:3: %s: expected "
                                                "one of .*, got 'None'$" % key):
            parse_scenario(text)
    else:
        assert getattr(parse_scenario(text), key) is member


@pytest.mark.parametrize("text", [
    "link1.capacity_mbps=1\nlink1.delay_ms=1\npartial_ack_retransmit=off\n",
], ids=["flat"])
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
    # at the value's line, under the key as the file spells it
    with pytest.raises(ScenarioError, match=re.escape(
            "<scenario>:6: link2.delay_ms: must be >= 0 and <= 1e9 s")):
        parse_scenario(FLAT.replace("delay_ms = 320", "delay_ms = inf"))
    with pytest.raises(ScenarioError, match=re.escape(
            "<scenario>:12: trace_interval: expected a number, got nan")):
        parse_scenario(FLAT + "trace_interval = nan\n")


WRONG_TYPES = [
    # the first two ran with no detector and with rtt_compensator, and a
    # fractional seed raised inside RandomStream
    ({"detector": "eifel"},
     "detector: expected one of ['none', 'eifel', 'dsack'], got 'eifel'"),
    ({"coupling": "uncoupled"}, "coupling: expected one of ["),
    ({"ack_loss": "no"}, "ack_loss: expected a boolean, got 'no'"),
    ({"ack_loss": 1}, "ack_loss: expected a boolean, got 1"),
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
     "link.capacity_bps: must be >= 8 bps"),
    (lambda: Link(LinkConfig(1e6, 0.01, loss_rate=1.5)),
     "link.loss_rate: must be in [0, 1]"),
    (lambda: run_sweep(small_cfg(), "warp", 2, (1.0,)),
     "sweep parameter: expected one of ['capacity', 'latency', 'loss'], "
     "got 'warp'"),
    (lambda: run_sweep(small_cfg(), "loss", 3, (0.1,)),
     "sweep link: index 3 out of range (scenario has 2 links)"),
    # the config was copied before anything validated it: the dict link
    # escaped as an AttributeError, and the copy made the tuple a list
    (lambda: run_scenario(small_cfg(links=[{"capacity_bps": 1e6}])),
     "link1: expected a LinkConfig, got {'capacity_bps': 1000000.0}"),
    (lambda: run_sweep(small_cfg(links=[{"capacity_bps": 1e6}]), "loss", 1,
                       (0.1,)),
     "link1: expected a LinkConfig, got {'capacity_bps': 1000000.0}"),
    (lambda: run_scenario(small_cfg(links=(LinkConfig(1e6, 0.01),))),
     "links: expected a list of LinkConfig, got (LinkConfig(capacity_bps="
     "1000000.0, one_way_delay_s=0.01, loss_rate=0.0, queue_limit=100),)"),
    # a Simulation checks its config before it copies it, as a run does
    (lambda: Simulation(small_cfg(links=[{"capacity_bps": 1e6}])),
     "link1: expected a LinkConfig, got {'capacity_bps': 1000000.0}"),
    (lambda: Simulation(small_cfg(links=(LinkConfig(1e6, 0.01),))),
     "links: expected a list of LinkConfig, got (LinkConfig(capacity_bps="
     "1000000.0, one_way_delay_s=0.01, loss_rate=0.0, queue_limit=100),)"),
    (lambda: Simulation(small_cfg(mss=0)),
     "mss: must be > 0 and <= 1e9 bytes"),
    (lambda: LinkConfig(1e6, -0.01).validate(),
     "link.one_way_delay_s: must be >= 0 and <= 1e9 s"),
    (lambda: small_cfg(transfer_size=-1).validate(),
     "transfer_size: must be >= 0"),
    (lambda: run_sweep(small_cfg(), "loss", 1, []),
     "sweep values: must be non-empty"),
    # each ran, its first rows in slow start with cwnd above the threshold
    # (`0,1,2,-5,slow_start,Sample`)
    (lambda: small_cfg(initial_ssthresh=-5).validate(),
     "initial_ssthresh: must be >= 1 (one MSS)"),
    (lambda: small_cfg(initial_ssthresh=0).validate(),
     "initial_ssthresh: must be >= 1 (one MSS)"),
    (lambda: small_cfg(initial_ssthresh=-0.0).validate(),
     "initial_ssthresh: must be >= 1 (one MSS)"),
    (lambda: Simulation(small_cfg(initial_ssthresh=0.5)),
     "initial_ssthresh: must be >= 1 (one MSS)"),
    # an integer too large for a float raised OverflowError in math.isnan()
    (lambda: small_cfg(stop_time=10**400).validate(),
     "stop_time: must be > 0 and <= 1e9 s"),
], ids=["link-validate", "link", "sweep-parameter", "sweep-link",
        "run-dict-link", "sweep-dict-link", "run-tuple-links",
        "simulation-dict-link", "simulation-tuple-links", "simulation-mss",
        "link-negative-delay", "negative-transfer-size", "sweep-no-values",
        "ssthresh--5", "ssthresh-0", "ssthresh--0.0",
        "simulation-ssthresh-0.5", "stop-time-10**400"])
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
    # the message names the first field set, in declaration order (a
    # link's field after the scenario's own)
    order = ScenarioConfig._fields
    first = min(values,
                key=lambda k: order.index(k) if k in order else len(order))
    with pytest.raises(ScenarioError, match="^" + re.escape(first) + ": "):
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
    # the largest MSS on the slowest link takes 1e9 s to send: nothing
    # arrives, and the run ends
    cfg = small_cfg(links=[LinkConfig(8.0, 1e9)], mss=10**9,
                    transfer_size=10**9, stop_time=1e9, trace_interval=1e9,
                    rto_ceiling=1e9)
    stats = run_scenario(cfg).stats
    assert not stats.completed and stats.delivered_bytes == 0


def test_readme_scenario_block_is_the_defaults():
    # README's "Scenario files" block lists every key at its default
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("## Scenario files", 1)[1]
    block = section.split("```ini\n", 1)[1].split("```", 1)[0]
    cfg = parse_scenario(block, "README.md")
    linkless = cfg.copy()
    linkless.links = []
    assert linkless == ScenarioConfig()
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


@pytest.mark.parametrize("preset, detector, detects", [
    ("paper-base", DetectorChoice.EIFEL, False),
    ("paper-reorder", DetectorChoice.DSACK, True)])
def test_results_of_one_run_compare_equal(preset, detector, detects):
    # trace rows compare by value: two results of one run were never equal
    cfg = load_scenario(preset)
    cfg.detector = detector
    cfg.transfer_size = 200_000
    a, b = run_scenario(cfg), run_scenario(cfg)
    assert bool(a.detections) == detects
    assert a == b and not a != b
    assert repr(a) == repr(b) and " at 0x" not in repr(a)
    cfg.transfer_size += 1400
    assert a != run_scenario(cfg)


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
    # a Simulation runs on a copy of its own, links included
    sim = Simulation(cfg)
    assert sim.cfg is not cfg and sim.cfg == cfg
    assert not any(a is b for a, b in zip(sim.cfg.links, cfg.links))
    sim.run()
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


def test_sweep_of_int_values_writes_the_csv_of_float_values():
    # README's run_sweep(..., [10, 160, 320]) gives ints, which `fmt` writes
    # with str(): as `%.6g` writes the same values as floats
    lines = sweep_csv_lines(run_sweep(small_cfg(), "latency", 2, [160]))
    assert lines[1].startswith("160,")
    assert lines == sweep_csv_lines(run_sweep(small_cfg(), "latency", 2,
                                              [160.0]))


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


# the bounds of what the simulator writes, which the trace reader takes
RANGES = ("expected 0 <= time_s <= 1e9, 1 <= subflow, 1 <= cwnd_mss < inf "
          "and 1 <= ssthresh_mss")


@pytest.mark.parametrize("row, message", [
    ("0,1,2", "expected 6 fields, got 3"),
    ("0,1,2,64,slow_start,Sample,extra", "expected 6 fields, got 7"),
    ("0,one,2,64,slow_start,Sample", "invalid literal for int()"),
    ("0,1,2,many,slow_start,Sample", "could not convert string to float"),
    ("0,1,2,64,slow-start,Sample", "unknown phase 'slow-start'"),
    ("0,1,2,64,fast_recovery,FastRetransmt",
     "unknown event 'FastRetransmt'"),
    ("nan,1,2,64,slow_start,Sample", RANGES),
    ("-inf,1,2,64,slow_start,Sample", RANGES),
    ("0,1,inf,64,slow_start,Sample", RANGES),
    ("0,1,nan,64,slow_start,Sample", RANGES),
    ("0,1,2,nan,slow_start,Sample", RANGES),
    # each of these was read and drawn: a negative window below the axis
    ("-0.5,1,2,64,slow_start,Sample", RANGES),
    ("1000000001,1,2,64,slow_start,Sample", RANGES),
    ("0,1,0.5,64,slow_start,Sample", RANGES),
    ("0,1,-2,64,slow_start,Sample", RANGES),
    ("0,1,2,0.5,slow_start,Sample", RANGES),
    ("0,1,2,-inf,slow_start,Sample", RANGES),
    # and each of these too, with the legend "subflow 0" or "subflow -3"
    ("0,0,2,64,slow_start,Sample", RANGES),
    ("0,-3,2,64,slow_start,Sample", RANGES),
    # and these, whose numbers float() and int() read, but no scenario file
    ("1_0,1,2,64,slow_start,Sample", "expected ASCII numbers without '_'"),
    ("\u0665,1,2,64,slow_start,Sample",
     "expected ASCII numbers without '_'"),
], ids=["short", "long", "subflow", "ssthresh", "phase", "event", "nan-time",
        "inf-time", "inf-cwnd", "nan-cwnd", "nan-ssthresh", "negative-time",
        "time-beyond-1e9", "cwnd-below-1", "negative-cwnd", "ssthresh-below-1",
        "-inf-ssthresh", "subflow-0", "negative-subflow", "underscore-time",
        "arabic-indic-time"])
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


def test_parse_trace_csv_checks_the_header_and_skips_blank_lines(tmp_path,
                                                                 capsys):
    path = tmp_path / "trace.csv"
    path.write_text(",".join(harness.TRACE_CSV_COLUMNS) + "\n"
                    "0,1,2,64,slow_start,Sample\n\n"
                    "0.1,1,3,64,slow_start,Sample\n")
    assert parse_trace_csv(path) == [
        TraceRecord(0.0, 1, 2.0, 64.0, "slow_start", "Sample"),
        TraceRecord(0.1, 1, 3.0, 64.0, "slow_start", "Sample")]
    path.write_text("param_value,completion_time_s\n10,1.5\n")  # a sweep's
    with pytest.raises(ScenarioError) as info:
        parse_trace_csv(path)
    assert str(info.value) == ("%s: not a trace CSV (header "
                               "'param_value,completion_time_s')" % path)
    assert main(["plot", str(path)]) == 2
    assert capsys.readouterr().err == "error: %s\n" % info.value


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


@pytest.mark.parametrize("write, kind", [(emit_csv, "CSV"),
                                         (emit_plot, "plot")])
def test_a_failed_write_names_the_file(tmp_path, write, kind):
    path = tmp_path / "no-such-dir" / "out"
    with pytest.raises(OSError, match="^cannot write %s %s: "
                                      % (kind, re.escape(str(path)))):
        write([TraceRecord(0.0, 1, 2.0, 64.0, "slow_start", "Sample")], path)


def test_plot_of_one_row_widens_both_empty_spans_by_one(tmp_path):
    # one row: its time span and its cwnd span (0 to 0) are empty, so each
    # axis ends 1.0 above its start; a subflow of one row is a dot, and the
    # SpuriousDetected marker a ring around it
    path = tmp_path / "one.svg"
    emit_plot([TraceRecord(5.0, 1, 0.0, 64.0, "slow_start",
                           "SpuriousDetected")], path)
    svg = path.read_text()
    times = re.findall(r'text-anchor="middle">([^<]*)</text>', svg)[:-1]
    assert times == ["5", "5.2", "5.4", "5.6", "5.8", "6"]
    windows = re.findall(r'text-anchor="end">([^<]*)</text>', svg)
    assert windows == ["0", "0.2", "0.4", "0.6", "0.8", "1"]
    assert '<circle cx="70" cy="470" r="3" fill="#1f6fb4"/>' in svg
    assert ('<circle cx="70" cy="470" r="4" fill="none" stroke="#7a2aa0" '
            'stroke-width="1.5"/>') in svg


def plot_exits_2(tmp_path, capsys, rows):
    """Plot a trace CSV of `rows` (time, cwnd) through the CLI, and assert
    that it exits 2 naming the first row, and writes no SVG."""
    path = tmp_path / "trace.csv"
    path.write_text(",".join(harness.TRACE_CSV_COLUMNS) + "\n" + "".join(
        "%s,1,%s,64,slow_start,Sample\n" % row for row in rows))
    assert main(["plot", str(path)]) == 2
    assert capsys.readouterr().err == "error: %s:2: %s\n" % (path, RANGES)
    assert not (tmp_path / "trace.svg").exists()


@pytest.mark.parametrize("time_s", ["1e17", "-1e17", "9007199254740992"],
                         ids=["1e17", "-1e17", "2**53"])
def test_cli_plot_of_rows_at_one_time_from_2_53_on(tmp_path, capsys, time_s):
    # from 2**53 on, time + 1.0 is the time itself, so the empty span took
    # its own rule; the simulator writes no time beyond 1e9 s or below 0
    plot_exits_2(tmp_path, capsys, [(time_s, "2"), (time_s, "3")])


MAX = "1.7976931348623157e308"  # the largest float


@pytest.mark.parametrize("rows", [
    [("-1e308", "2"), ("1e308", "3")],
    [("-" + MAX, "2"), (MAX, MAX)],
    [("0", "5e-324"), ("1", "5e-324")],
    [("0", "3e-323"), ("1", "3e-323")],
], ids=["time -1e308 to 1e308", "time and window at the largest float",
        "window 5e-324", "window 3e-323"])
def test_cli_plot_of_spans_at_the_ends_of_the_float_range(tmp_path, capsys,
                                                          rows):
    # each was drawn, with axes whose span or tick step left the float
    # range; the simulator writes no time beyond 1e9 s and no window below
    # one MSS
    plot_exits_2(tmp_path, capsys, rows)


def test_cli_plot_of_a_window_at_the_largest_float(tmp_path, capsys):
    # the simulator writes it for an initial_cwnd of the largest float: the
    # step past the last cwnd tick is inf, which is drawn as no tick
    path = tmp_path / "trace.csv"
    path.write_text(",".join(harness.TRACE_CSV_COLUMNS) + "\n"
                    "0,1,2,64,slow_start,Sample\n"
                    "1,1,%s,inf,slow_start,Sample\n" % MAX)
    assert main(["plot", str(path)]) == 0, capsys.readouterr().err
    svg = (tmp_path / "trace.svg").read_text()
    assert "nan" not in svg and "inf" not in svg
    assert re.findall(r'text-anchor="end">([^<]*)</text>', svg) == [
        "0", "5e+307", "1e+308", "1.5e+308"]


def _cap_memory():
    import resource  # POSIX only
    resource.setrlimit(resource.RLIMIT_AS, (2 ** 30, 2 ** 30))


def test_cli_plot_of_a_time_span_below_the_float_spacing(tmp_path):
    # 1e9 - 2.4e-7 s to 1e9 s: the time axis' tick step, 5e-8 s, is below
    # half the float spacing at 1e9, so `v += step` stood still and the
    # tick list grew without end. The plot runs in a child process with
    # 1 GiB of address space and 20 s, so a return of that loop fails this
    # test instead of exhausting memory.
    path = tmp_path / "trace.csv"
    path.write_text("time_s,subflow,cwnd_mss,ssthresh_mss,phase,event\n"
                    "999999999.9999998,1,2,64,slow_start,Sample\n"
                    "1000000000,1,3,64,slow_start,Sample\n")
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


def test_plot_time_ticks_below_one_nanosecond(tmp_path):
    # rows at 0 and 1e-11 s: each tick was rounded to 10 decimals, so all
    # six were drawn at x=70 and labelled "0"
    path = tmp_path / "trace.svg"
    emit_plot([TraceRecord(0.0, 1, 2.0, 64.0, "slow_start", "Sample"),
               TraceRecord(1e-11, 1, 3.0, 64.0, "slow_start", "Sample")],
              path)
    ticks = re.findall(r'<text x="([^"]*)" y="[^"]*" font-size="11" '
                       r'text-anchor="middle">([^<]*)</text>',
                       path.read_text())
    assert ticks == [("70", "0"), ("224", "2e-12"), ("378", "4e-12"),
                     ("532", "6e-12"), ("686", "8e-12"), ("840", "1e-11")]


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
    # perfbench/layers.py takes len() of each of its RECORD_LISTS a run
    # returns, with a default of (), and reads sim.kernel.now
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
    import layers
    made = capture_simulations(monkeypatch)
    result = run_scenario(small_cfg())
    assert len(made) == 1
    assert result.stats.completed and result.stats.checksum_ok
    for name in layers.RECORD_LISTS:
        assert isinstance(len(getattr(result, name, ())), int)
    assert isinstance(result.traces, list) and result.traces
    assert isinstance(result.detections, list)
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


def test_cli_run_reports_an_unfinished_transfer(tmp_path, capsys):
    scn = tmp_path / "short.scn"
    scn.write_text("link1.capacity_mbps=0.5\nlink1.delay_ms=10\n"
                   "transfer_size=60000\nstop_time=0.5\n")
    assert main(["run", str(scn), "--out", str(tmp_path)]) == 0
    delivered = run_scenario(load_scenario(str(scn))).stats.delivered_bytes
    assert 0 < delivered < 60_000
    assert ("did not complete by stop_time; delivered %d of 60000 bytes\n"
            % delivered) in capsys.readouterr().out


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
                 "--values", "10,inf,nan", "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "sweep_latency_link2.csv").read_text().splitlines()
    assert len(lines) == 4
    assert lines[1].startswith("10,") and lines[1].endswith(",")
    assert lines[2].startswith("inf,")
    assert lines[2].endswith("link2.one_way_delay_s: must be >= 0 and "
                             "<= 1e9 s")
    assert lines[3].startswith("nan,")
    assert lines[3].endswith(',"link2.one_way_delay_s: expected a number, '
                             'got nan"')


@pytest.mark.parametrize("value", ["1_0", "\u0661\u0660"],
                         ids=["underscore", "arabic-indic"])
def test_cli_sweep_values_are_numbers_as_a_scenario_file_writes_them(
        tmp_path, capsys, value):
    # float() read each as 10
    assert main(["sweep", "paper-base", "--param", "latency", "--link", "2",
                 "--values", "10," + value, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (
        "error: --values: expected a number, got %r\n" % value)
    assert not (tmp_path / "sweep_latency_link2.csv").exists()


@pytest.mark.parametrize("value", ["1_0", "\u0661"],
                         ids=["underscore", "arabic-indic"])
@pytest.mark.parametrize("command", [
    ["run", "paper-base", "--seed"],
    ["sweep", "paper-base", "--param", "latency", "--values", "10", "--link"],
], ids=["seed", "link"])
def test_cli_integer_flags_are_integers_as_a_scenario_file_writes_them(
        tmp_path, capsys, command, value):
    # int() read the first as 10 and the second as 1
    assert main(command + [value, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (
        "error: %s: expected an integer, got %r\n" % (command[-1], value))
    assert not any(tmp_path.iterdir())


def test_cli_errors_exit_2(tmp_path, capsys):
    assert main(["run", "no-such-scenario"]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["sweep", "paper-base", "--param", "loss", "--link", "2",
                 "--values", "abc"]) == 2
    assert main(["plot", str(tmp_path / "missing.csv")]) == 2


def test_cli_run_of_a_link_beyond_1e9_s_exits_2(tmp_path, capsys):
    # the delay passed validate() and the run raised OverflowError
    path = tmp_path / "far.scn"
    path.write_text(LINK_1 + "link1.delay_ms = 1e303\n")
    assert main(["run", str(path), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (
        "error: %s:2: link1.delay_ms: must be >= 0 and <= 1e9 s\n" % path)


def test_cli_run_of_an_mss_beyond_1e9_bytes_exits_2(tmp_path, capsys):
    # an integer key takes a whole number of any size
    path = tmp_path / "huge.scn"
    path.write_text("link1.capacity_mbps = inf\nlink1.delay_ms = 10\n"
                    "mss = 1%s\n" % ("0" * 400))
    assert main(["run", str(path), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (
        "error: %s:3: mss: must be > 0 and <= 1e9 bytes\n" % path)


def test_cli_run_of_a_json_scenario_exits_2(tmp_path, capsys):
    # JSON is not a scenario format: its first line is no `key = value`
    path = tmp_path / "old.json"
    path.write_text('{"links": [{"capacity_mbps": 1, "delay_ms": 10}],\n'
                    ' "detector": "eifel"}\n')
    assert main(["run", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: %s:1: expected 'key = value', got '{" % path)
    assert "Traceback" not in err and err.count("\n") == 1


def test_star_import_resolves_every_public_name():
    namespace = {}
    exec("from mpsim import *", namespace)  # AttributeError on a stale name
    assert set(mpsim.__all__) <= set(namespace)
