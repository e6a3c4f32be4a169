"""The record types are plain classes that print and compare as the
dataclasses they replaced, and `import mpsim` loads neither `dataclasses`
nor the other modules it no longer needs.

Each reference below is its record declared as a dataclass, with the same
fields and defaults, and slotted where the record is; its annotations name
the package's own types, so the two agree on `get_type_hints` too."""

import dataclasses
import inspect
import os
import subprocess
import sys
from typing import List, Optional, Tuple, get_type_hints

import pytest
from hypothesis import example, given, settings, strategies as st

import mpsim
from mpsim import config, report, simulation, spurious
from mpsim.config import DEFAULT_QUEUE_LIMIT
from mpsim.coupling import CouplingMode
from mpsim.record import Record
from mpsim.spurious import DetectorChoice
from mpsim.subflow import Mapping


@dataclasses.dataclass
class LinkConfig:
    capacity_bps: float
    one_way_delay_s: float
    loss_rate: float = 0.0
    queue_limit: int = DEFAULT_QUEUE_LIMIT


@dataclasses.dataclass
class ScenarioConfig:
    links: List[config.LinkConfig] = dataclasses.field(default_factory=list)
    transfer_size: int = 5_000_000
    mss: int = 1400
    coupling: CouplingMode = CouplingMode.RTT_COMPENSATOR
    detector: DetectorChoice = DetectorChoice.NONE
    seed: int = 1
    trace_interval: float = 0.1
    stop_time: float = 600.0
    ack_loss: bool = True
    rto_floor: float = 0.2
    rto_ceiling: float = 60.0
    initial_rto: float = 1.0
    initial_cwnd: float = 2.0
    initial_ssthresh: float = 64.0
    initial_rtt: float = 0.1


@dataclasses.dataclass(slots=True)
class TraceRecord:
    time_s: float
    subflow: int
    cwnd: float
    ssthresh: float
    phase: str
    event: str


@dataclasses.dataclass
class SummaryStats:
    completed: bool
    completion_time_s: Optional[float]
    goodput_bps: float
    delivered_bytes: int
    bytes_sf: Tuple[int, ...]
    retx_sf: Tuple[int, ...]
    fast_retx: int
    rtos: int
    spurious_detections: int
    checksum_ok: bool
    duplicate_bytes: int
    protocol_violations: int


@dataclasses.dataclass
class RunResult:
    cfg: config.ScenarioConfig
    stats: simulation.SummaryStats
    traces: List[simulation.TraceRecord]
    detections: List[spurious.SpuriousSnapshot]


@dataclasses.dataclass
class SweepRow:
    param_value: float
    stats: simulation.SummaryStats
    error: Optional[str] = None


@dataclasses.dataclass
class SpuriousSnapshot:
    cwnd_before: float
    ssthresh_before: float
    phase_before: str
    retransmit_ts: int
    mapping: Mapping = dataclasses.field(compare=False)
    subflow: int
    time_s: Optional[float] = None
    cwnd_at_detection: Optional[float] = None


# each record type and its reference
RECORDS = [(config.LinkConfig, LinkConfig),
           (config.ScenarioConfig, ScenarioConfig),
           (simulation.TraceRecord, TraceRecord),
           (simulation.SummaryStats, SummaryStats),
           (simulation.RunResult, RunResult),
           (report.SweepRow, SweepRow),
           (spurious.SpuriousSnapshot, SpuriousSnapshot)]

NAN = float("nan")
# field values in groups of distinct objects that are equal but print
# apart, print alike but are unequal, or are equal only if identical
GROUPS = [
    (0.0, -0.0),
    (NAN, float("nan")),
    (1, 1.0, True),
    ((1, 2), tuple([1, 2])),
    ([0.5], [0.5]),
    (None,),
    ("fast_recovery",),
    (Mapping(0, 100), Mapping(0, 100)),
]
VALUES = [value for group in GROUPS for value in group]
# `links` takes lists: ScenarioConfig(links=None) is a config with no links
LINK_GROUPS = [
    ([], []),
    ([config.LinkConfig(1e6, 0.01)], [config.LinkConfig(1e6, 0.01)]),
    ([config.LinkConfig(NAN, -0.0)], [config.LinkConfig(NAN, 0.0)]),
]
LINK_VALUES = [value for group in LINK_GROUPS for value in group]


@st.composite
def record_pairs(draw):
    """A record type, its reference, and two sets of field values: the
    second keeps each of the first's objects, takes another of its group,
    or takes any value."""
    plain, ref = draw(st.sampled_from(RECORDS))
    a, b = {}, {}
    for f in dataclasses.fields(ref):
        groups, values = ((LINK_GROUPS, LINK_VALUES) if f.name == "links"
                          else (GROUPS, VALUES))
        group = draw(st.sampled_from(groups))
        a[f.name] = draw(st.sampled_from(group))
        b[f.name] = draw(st.one_of(st.just(a[f.name]), st.sampled_from(group),
                                   st.sampled_from(values)))
    return plain, ref, a, b


def nested(cls):
    """A subclass of `cls` that adds no field and whose qualified name is
    not its name."""
    return type(cls.__name__, (cls,),
                {"__qualname__": "Outer." + cls.__name__})


def snapshot_values(mapping):
    return {"cwnd_before": 10.0, "ssthresh_before": 64.0,
            "phase_before": "slow_start", "retransmit_ts": 7,
            "mapping": mapping, "subflow": 1, "time_s": None,
            "cwnd_at_detection": None}


LINK_NAN = {"capacity_bps": NAN, "one_way_delay_s": 0.01, "loss_rate": 0.0,
            "queue_limit": 100}
ROW_NAN = {"time_s": 0.5, "subflow": 1, "cwnd": NAN, "ssthresh": 64.0,
           "phase": "slow_start", "event": "Sample"}


@settings(max_examples=200)
@given(record_pairs(), st.booleans())
# two snapshots that differ only in the mapping they resent: equal
@example((spurious.SpuriousSnapshot, SpuriousSnapshot,
          snapshot_values(Mapping(0, 100)), snapshot_values(Mapping(0, 100))),
         False)
@example((spurious.SpuriousSnapshot, SpuriousSnapshot,
          snapshot_values(Mapping(0, 100)), snapshot_values(Mapping(0, 100))),
         True)
# one NaN object in two records: equal before 3.13, unequal from 3.13 on
@example((config.LinkConfig, LinkConfig, LINK_NAN, dict(LINK_NAN)), False)
@example((config.LinkConfig, LinkConfig, LINK_NAN,
          dict(LINK_NAN, capacity_bps=float("nan"))), True)
@example((simulation.TraceRecord, TraceRecord, ROW_NAN, dict(ROW_NAN)), False)
def test_records_print_and_compare_as_dataclasses(pair, subclassed):
    plain, ref, a, b = pair
    if subclassed:
        plain, ref = nested(plain), nested(ref)
    # positional arguments, in field order, make the plain records
    pa, pb = plain(*a.values()), plain(*b.values())
    ra, rb = ref(**a), ref(**b)
    assert repr(pa) == repr(ra)
    assert repr(pb) == repr(rb)
    for x, y, rx, ry in ((pa, pb, ra, rb), (pb, pa, rb, ra), (pa, pa, ra, ra),
                         (pa, plain(**a), ra, ref(**a))):
        assert (x == y, x != y) == (rx == ry, rx != ry)
    # a record never equals its reference, nor a tuple of its fields
    assert (pa == ra, pa != ra) == (False, True)
    assert pa != tuple(a.values())


@pytest.mark.parametrize("plain, ref", RECORDS,
                         ids=[ref.__name__ for _, ref in RECORDS])
def test_records_take_the_dataclass_arguments(plain, ref):
    fields = dataclasses.fields(ref)
    params = inspect.signature(plain).parameters
    assert list(params) == [f.name for f in fields]
    for f in fields:
        if f.default_factory is not dataclasses.MISSING:
            assert params[f.name].default is None, f.name
        elif f.default is dataclasses.MISSING:
            assert params[f.name].default is inspect.Parameter.empty, f.name
        else:
            assert params[f.name].default == f.default, f.name
    # the annotations, in field order, are what validate() checks
    assert list(get_type_hints(plain).items()) == \
        list(get_type_hints(ref).items())
    assert plain._fields == tuple(f.name for f in fields)
    assert plain.__hash__ is None


def test_trace_rows_are_slotted():
    # a run keeps a row per subflow per trace sample: a row with no
    # __dict__ keeps a traced run's memory down
    row = simulation.TraceRecord(0.5, 1, 2.0, 64.0, "slow_start", "Sample")
    assert not hasattr(row, "__dict__")
    assert simulation.TraceRecord.__slots__ == simulation.TraceRecord._fields


def test_scenario_config_links_and_copy():
    # each config gets a list of its own
    a, b = config.ScenarioConfig(), config.ScenarioConfig(links=None)
    assert a.links == b.links == [] and a.links is not b.links
    cfg = config.load_scenario("paper-base")
    cfg.seed = 99
    copy = cfg.copy()
    assert copy == cfg and copy is not cfg
    assert repr(copy) == repr(cfg)
    for link, original in zip(copy.links, cfg.links):
        assert link == original and link is not original
    copy.links[0].loss_rate = 0.5
    assert cfg.links[0].loss_rate == 0.0


def test_a_field_without_a_default_after_one_with_a_default_is_refused():
    # the defaults go to the last parameters: were the class made, R(5)
    # would be R(a=5, b=1), and R() a missing `a`
    with pytest.raises(TypeError, match=r"\.R: field b has no default"):
        class R(Record):
            a: int = 1
            b: int


def test_no_compare_names_only_fields():
    # a misspelt name would leave the field it meant compared
    with pytest.raises(TypeError, match=r"\.S: no_compare"):
        class S(Record, no_compare=("mapings",)):
            mapping: Mapping
            subflow: int


HEAVY = ("dataclasses", "inspect", "json", "importlib.resources")


# names of `mpsim.report`, of which `mpsim.harness` holds none
REPORT_NAMES = ("run_sweep", "emit_csv", "emit_plot")


def test_import_loads_no_heavy_module():
    # without `site` (-S), whose start-up files may import any of these
    src = os.path.dirname(os.path.dirname(os.path.abspath(mpsim.__file__)))
    # then one run and its trace, which load neither mpsim.report nor the CLI
    code = ("import sys; sys.path.insert(0, %r); import mpsim; "
            "print(mpsim.__file__); print(sorted(set(%r) & set(sys.modules)))"
            "\ncfg = mpsim.ScenarioConfig(links=[mpsim.LinkConfig(1e6, 0.01)],"
            " transfer_size=30000)"
            "\nmpsim.harness.trace_csv_lines(mpsim.run_scenario(cfg).traces)"
            "\nprint(sorted({'mpsim.report', 'mpsim.cli'} & set(sys.modules)))"
            "\nprint(sorted(set(%r) & set(vars(mpsim.harness))))"
            % (src, HEAVY, REPORT_NAMES))
    out = subprocess.run([sys.executable, "-S", "-c", code],
                         capture_output=True, text=True, check=True)
    imported_from, loaded, run_loaded, in_harness = out.stdout.splitlines()
    assert imported_from == mpsim.__file__
    assert loaded == "[]"
    assert run_loaded == "[]"
    assert in_harness == "[]"


def test_report_names_resolve_on_first_use():
    assert mpsim.run_sweep is mpsim.report.run_sweep
    assert mpsim.emit_csv is mpsim.report.emit_csv
    assert mpsim.emit_plot is mpsim.report.emit_plot
    assert mpsim.SWEEP_PARAMETERS is mpsim.report.SWEEP_PARAMETERS
    with pytest.raises(AttributeError, match="no attribute 'parse_trace_csv'"):
        mpsim.parse_trace_csv
