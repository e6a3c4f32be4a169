"""Scenario configuration: the scenario and link records, their checks,
file loading (flat `key = value` files) and bundled presets. `_check`
checks a field value's type (NaN is no number) and its range in `RULES`,
field by field in `validate()` and, in a file, at the value's own line, in
the field's unit once `LINK_KEYS` (link key units, for files and sweeps
alike) has converted it. A file spells a link key one way (`link1.`) and
a number in ASCII without `_`. Every fault is a ScenarioError
`<name>: <rule>`; a file's faults name the key as the file spells it, at
its first faulty line. Only the two joined rules wait for the whole file.

`importlib.resources` is imported only where a preset is read, so
`import mpsim` does not load it."""

from __future__ import annotations

import math
import os
import re
from functools import cache
from typing import List, get_type_hints

from .coupling import CouplingMode
from .record import Record
from .spurious import DetectorChoice

DEFAULT_QUEUE_LIMIT = 100  # packets; NS-3 point-to-point magnitude

MAX_SECONDS = 1e9  # longest time in a scenario: its ns count stays finite
MAX_MSS = 10**9  # largest segment in bytes: `cwnd * mss` stays a float

# Trace samples a run may take (stop_time / trace_interval): each one holds
# a row per subflow for the whole run, so an interval far below the run
# length would exhaust memory before the transfer ends.
MAX_TRACE_SAMPLES = 1_000_000


class ScenarioError(ValueError):
    """Malformed or invalid scenario input; message names the field."""


_EXPECTED = {int: "an integer", float: "a number", bool: "a boolean"}

_TIME = (lambda v: 0 < v <= MAX_SECONDS, "must be > 0 and <= 1e9 s")

# each ranged field of LinkConfig and ScenarioConfig: the test its value
# passes, and the words a fault is reported in
RULES = {
    "capacity_bps": (lambda v: v >= 8 * MAX_MSS / MAX_SECONDS,
                     "must be >= 8 bps"),  # any MSS sends in <= 1e9 s
    "one_way_delay_s": (lambda v: 0 <= v <= MAX_SECONDS,
                        "must be >= 0 and <= 1e9 s"),
    "loss_rate": (lambda v: 0 <= v <= 1, "must be in [0, 1]"),
    "queue_limit": (lambda v: v >= 1, "must be >= 1"),
    "transfer_size": (lambda v: v >= 0, "must be >= 0"),
    # bounded apart from the links: an infinite capacity bounds no MSS
    "mss": (lambda v: 0 < v <= MAX_MSS, "must be > 0 and <= 1e9 bytes"),
    # a shorter interval rounds to 0 ns: samples without end at t=0
    "trace_interval": (lambda v: 1e-9 <= v <= MAX_SECONDS,
                       "must be >= 1e-9 s (1 ns) and <= 1e9 s"),
    "stop_time": _TIME, "rto_floor": _TIME, "rto_ceiling": _TIME,
    # an infinite window would write nan or inf windows to the trace
    "initial_cwnd": (lambda v: 1 <= v < math.inf,
                     "must be >= 1 (one MSS) and finite"),
    "initial_ssthresh": (lambda v: v >= 1, "must be >= 1 (one MSS)"),
    # one clock tick up to where the coupling's rtt**2 terms stay floats
    "initial_rtt": (lambda v: 1e-9 <= v <= MAX_SECONDS,
                    "must be between 1e-9 and 1e9 s"),
}


def _check(name: str, value, tp: type, rule) -> None:
    """Raise ScenarioError unless `value` is of type `tp` (an int is a float,
    a bool no number), not NaN, and passes `rule`, a RULES entry or None."""
    if (isinstance(value, bool) and tp is not bool
            or not isinstance(value, (int, float) if tp is float else tp)
            or tp is float and value != value):  # NaN: unequal to itself
        wanted = _EXPECTED.get(tp) or "one of %s" % [m.value for m in tp]
        raise ScenarioError("%s: expected %s, got %r" % (name, wanted, value))
    if rule and not rule[0](value):
        raise ScenarioError("%s: %s" % (name, rule[1]))


class LinkConfig(Record):
    capacity_bps: float
    one_way_delay_s: float
    loss_rate: float = 0.0
    queue_limit: int = DEFAULT_QUEUE_LIMIT

    def validate(self, name: str = "link") -> None:
        for key, tp in _LINK_TYPES.items():
            _check(name + "." + key, getattr(self, key), tp, RULES.get(key))


_LINK_TYPES = get_type_hints(LinkConfig)


class ScenarioConfig(Record):
    # links=None is no links: each config gets a list of its own
    links: List[LinkConfig] = []
    transfer_size: int = 5_000_000  # bytes
    mss: int = 1400                 # bytes
    coupling: CouplingMode = CouplingMode.RTT_COMPENSATOR
    detector: DetectorChoice = DetectorChoice.NONE
    seed: int = 1
    trace_interval: float = 0.1     # seconds, as are the times below
    stop_time: float = 600.0
    ack_loss: bool = True
    rto_floor: float = 0.2
    rto_ceiling: float = 60.0
    initial_rto: float = 1.0
    initial_cwnd: float = 2.0       # MSS
    initial_ssthresh: float = 64.0  # MSS
    initial_rtt: float = 0.1

    def validate(self) -> None:
        if not isinstance(self.links, list):
            raise ScenarioError("links: expected a list of LinkConfig, got %r"
                                % (self.links,))
        if not self.links:
            raise ScenarioError("links: at least one link is required")
        for key, tp in _TYPES.items():
            _check(key, getattr(self, key), tp, RULES.get(key))
        for i, link in enumerate(self.links, start=1):
            if not isinstance(link, LinkConfig):
                raise ScenarioError("link%d: expected a LinkConfig, got %r"
                                    % (i, link))
            link.validate("link%d" % i)
        if self.stop_time / self.trace_interval > MAX_TRACE_SAMPLES:
            raise ScenarioError(
                "stop_time/trace_interval: at most %d trace samples per "
                "run, got stop_time=%g with trace_interval=%g"
                % (MAX_TRACE_SAMPLES, self.stop_time, self.trace_interval))
        if self.rto_floor > self.rto_ceiling:
            raise ScenarioError("rto_floor/rto_ceiling: need floor <= ceiling")

    def copy(self) -> ScenarioConfig:
        """A copy whose links are copies too: editing it changes neither
        this config nor its links."""
        cfg = object.__new__(ScenarioConfig)
        cfg.__dict__.update(self.__dict__)
        cfg.links = [LinkConfig(l.capacity_bps, l.one_way_delay_s,
                                l.loss_rate, l.queue_limit)
                     for l in self.links]
        return cfg


# every scalar field and its type, in field order, so validate() names the
# first bad field; these are the scenario file keys
_TYPES = get_type_hints(ScenarioConfig)
del _TYPES["links"]

_BOOL_WORDS = {"true": True, "on": True, "yes": True, "1": True,
               "false": False, "off": False, "no": False, "0": False}

# each link file key: its LinkConfig field, its type in the file, and the
# map of a file value to the field's unit (None: the unit is the same)
LINK_KEYS = {
    "capacity_mbps": ("capacity_bps", float, lambda mbps: mbps * 1e6),
    "delay_ms": ("one_way_delay_s", float, lambda ms: ms / 1e3),
    "loss_rate": ("loss_rate", float, None),
    "queue_limit": ("queue_limit", int, None),
}

PRESET_NAMES = ("paper-base", "paper-reorder")


def _parse_value(name: str, raw: str, tp: type):
    """A value of type `tp` from text: a boolean word, a number (ASCII, no
    `_`) or an Enum member named by its value, in any case. An integer takes
    the digits of a whole number, so `1.5`, `2e6` and `inf` are errors."""
    try:
        if tp is bool:
            return _BOOL_WORDS[raw.lower()]
        if tp not in (int, float) or raw.isascii() and "_" not in raw:
            return tp(raw.lower())
    except (KeyError, ValueError):
        pass
    _check(name, raw, tp, None)  # raises: `raw` is a str, of no field's type


def parse_scenario(text: str, where: str = "<scenario>") -> ScenarioConfig:
    """The validated config of a flat `key = value` file; `where` names the
    file in error messages. Each value is converted and checked at its own
    line, so a faulty file is reported at its first faulty line."""
    cfg = ScenarioConfig()
    seen = {}   # each key set so far: its path:line
    links = {}  # index: its link, capacity and delay None until set
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        loc = "%s:%d" % (where, lineno)
        if "=" not in stripped:
            raise ScenarioError("%s: expected 'key = value', got %r"
                                % (loc, line.strip()))
        key, raw = (part.strip() for part in stripped.split("=", 1))
        at = "%s: %s" % (loc, key)
        if key.startswith("link") and "." in key:
            prefix, sub = key.split(".", 1)
            if not re.fullmatch("link[1-9][0-9]*", prefix):
                raise ScenarioError("%s: bad link key %r" % (loc, key))
            target = links.setdefault(int(prefix[4:]), LinkConfig(None, None))
            field, tp, convert = LINK_KEYS.get(sub, (None, None, None))
        else:
            target, field, convert, tp = cfg, key, None, _TYPES.get(key)
        if tp is None:
            raise ScenarioError("%s: unknown key %r" % (loc, key))
        if key in seen:
            raise ScenarioError("%s: repeated key, first set at %s"
                                % (at, seen[key]))
        seen[key] = loc
        value = _parse_value(at, raw, tp)
        value = convert(value) if convert else value
        _check(at, value, tp, RULES.get(field))  # in the field's unit
        setattr(target, field, value)
    if sorted(links) != list(range(1, len(links) + 1)):
        raise ScenarioError("%s: link indices must be 1..n without gaps"
                            % where)
    cfg.links = [links[i] for i in sorted(links)]
    for i, link in enumerate(cfg.links, start=1):
        if link.capacity_bps is None or link.one_way_delay_s is None:
            raise ScenarioError("%s: link%d: capacity_mbps and delay_ms are "
                                "required" % (where, i))
    cfg.validate()
    return cfg


def preset_text(name: str) -> str:
    from importlib import resources
    ref = resources.files("mpsim.presets").joinpath(name + ".scn")
    return ref.read_text(encoding="utf-8")


@cache
def _preset(name: str) -> ScenarioConfig:
    # parsed once per process; callers get a copy, never this object
    return parse_scenario(preset_text(name), "preset:" + name)


def load_scenario(path) -> ScenarioConfig:
    """Load a scenario from a file path or a bundled preset name. A file
    wins over a preset of the same name."""
    name = str(path)
    if os.path.isfile(name):
        with open(name, encoding="utf-8") as f:
            return parse_scenario(f.read(), name)
    if name in PRESET_NAMES:
        return _preset(name).copy()
    raise ScenarioError("scenario %r: no such file or preset (presets: %s)"
                        % (name, ", ".join(PRESET_NAMES)))
