"""Scenario configuration: dataclass, file loading (flat key=value or JSON)
and bundled presets."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from functools import cache
from importlib import resources
from pathlib import Path
from typing import List

from .coupling import CouplingMode
from .netmodel import DEFAULT_QUEUE_LIMIT, LinkConfig
from .spurious import DetectorChoice
from . import subflow as _sf


# Trace samples a run may take (stop_time / trace_interval): each one holds
# a row per subflow for the whole run, so an interval far below the run
# length would exhaust memory before the transfer ends.
MAX_TRACE_SAMPLES = 1_000_000


class ScenarioError(ValueError):
    """Malformed or invalid scenario input; message names the field."""


@dataclass
class ScenarioConfig:
    links: List[LinkConfig] = field(default_factory=list)
    transfer_size: int = 5_000_000
    mss: int = _sf.DEFAULT_MSS
    coupling: CouplingMode = CouplingMode.RTT_COMPENSATOR
    detector: DetectorChoice = DetectorChoice.NONE
    seed: int = 1
    trace_interval: float = 0.1
    stop_time: float = 600.0
    ack_loss: bool = True
    rto_floor: float = _sf.DEFAULT_RTO_FLOOR_S
    rto_ceiling: float = _sf.DEFAULT_RTO_CEILING_S
    initial_rto: float = _sf.DEFAULT_INITIAL_RTO_S
    initial_cwnd: float = _sf.DEFAULT_INITIAL_CWND_MSS
    initial_ssthresh: float = _sf.DEFAULT_INITIAL_SSTHRESH_MSS
    initial_rtt: float = _sf.DEFAULT_INITIAL_RTT_S
    partial_ack_retransmit: bool = True
    # keep the per-segment logs RunResult.sends/arrivals/srtts; they grow
    # with the segments sent, so they are off unless a caller reads them
    record_segments: bool = False

    def validate(self) -> None:
        if not self.links:
            raise ScenarioError("links: at least one link is required")
        for i, link in enumerate(self.links, start=1):
            try:
                link.validate("link%d" % i)
            except ValueError as exc:
                raise ScenarioError(str(exc)) from None
        for key in _FLOAT_KEYS:
            if math.isnan(getattr(self, key)):
                raise ScenarioError("%s: must be a number, got nan" % key)
        if self.transfer_size < 0:
            raise ScenarioError("transfer_size: must be >= 0")
        if self.mss <= 0:
            raise ScenarioError("mss: must be > 0")
        if self.trace_interval <= 0:
            raise ScenarioError("trace_interval: must be > 0")
        if self.trace_interval == math.inf:
            raise ScenarioError("trace_interval: must be finite")
        if self.stop_time <= 0:
            raise ScenarioError("stop_time: must be > 0")
        if self.stop_time / self.trace_interval > MAX_TRACE_SAMPLES:
            raise ScenarioError(
                "stop_time/trace_interval: at most %d trace samples per "
                "run, got stop_time=%g with trace_interval=%g"
                % (MAX_TRACE_SAMPLES, self.stop_time, self.trace_interval))
        if self.rto_floor <= 0 or self.rto_ceiling < self.rto_floor:
            raise ScenarioError("rto_floor/rto_ceiling: need 0 < floor <= ceiling")
        if self.rto_ceiling == math.inf:
            raise ScenarioError("rto_ceiling: must be finite")
        if self.initial_cwnd < 1:
            raise ScenarioError("initial_cwnd: must be >= 1 (one MSS)")

    def copy(self) -> "ScenarioConfig":
        return replace(self, links=[replace(l) for l in self.links])


_BOOL_WORDS = {"true": True, "on": True, "yes": True, "1": True,
               "false": False, "off": False, "no": False, "0": False}

_INT_KEYS = {"transfer_size", "mss", "seed"}
# in field order, so validate() names the first NaN field
_FLOAT_KEYS = ("trace_interval", "stop_time", "rto_floor", "rto_ceiling",
               "initial_rto", "initial_cwnd", "initial_ssthresh", "initial_rtt")
_BOOL_KEYS = {"ack_loss", "partial_ack_retransmit"}
_LINK_KEYS = {"capacity_mbps", "delay_ms", "loss_rate", "queue_limit"}

PRESET_NAMES = ("paper-base", "paper-reorder")


def _parse_bool(key: str, raw: str, where: str) -> bool:
    try:
        return _BOOL_WORDS[raw.strip().lower()]
    except KeyError:
        raise ScenarioError("%s: %s: expected a boolean, got %r"
                            % (where, key, raw)) from None


def _parse_num(key: str, raw, where: str, want_int: bool):
    """A number from flat-file text or a JSON value. JSON true/false are not
    numbers, and an integer key takes no fraction: int() would truncate."""
    try:
        if isinstance(raw, bool):
            raise TypeError(raw)
        if not want_int:
            return float(raw)
        if isinstance(raw, float) and not raw.is_integer():
            raise ValueError(raw)
        return int(raw)
    except (TypeError, ValueError):
        raise ScenarioError("%s: %s: expected %s, got %r"
                            % (where, key,
                               "an integer" if want_int else "a number",
                               raw)) from None


def _link_from_parts(parts: dict, name: str) -> LinkConfig:
    unknown = set(parts) - _LINK_KEYS
    if unknown:
        raise ScenarioError("%s: unknown key(s) %s" % (name, sorted(unknown)))
    if "capacity_mbps" not in parts or "delay_ms" not in parts:
        raise ScenarioError("%s: capacity_mbps and delay_ms are required" % name)
    return LinkConfig(
        capacity_bps=_parse_num("capacity_mbps", parts["capacity_mbps"],
                                name, False) * 1e6,
        one_way_delay_s=_parse_num("delay_ms", parts["delay_ms"], name,
                                   False) / 1e3,
        loss_rate=_parse_num("loss_rate", parts.get("loss_rate", 0.0),
                             name, False),
        queue_limit=_parse_num("queue_limit",
                               parts.get("queue_limit", DEFAULT_QUEUE_LIMIT),
                               name, True),
    )


def _apply_scalar(cfg: ScenarioConfig, key: str, raw, where: str) -> None:
    if key in _INT_KEYS:
        setattr(cfg, key, _parse_num(key, raw, where, True))
    elif key in _FLOAT_KEYS:
        setattr(cfg, key, _parse_num(key, raw, where, False))
    elif key in _BOOL_KEYS:
        value = raw if isinstance(raw, bool) else _parse_bool(key, str(raw), where)
        setattr(cfg, key, value)
    elif key == "coupling":
        try:
            cfg.coupling = CouplingMode(str(raw).strip().lower())
        except ValueError:
            raise ScenarioError("%s: coupling: unknown mode %r (expected one "
                                "of %s)" % (where, raw,
                                            [m.value for m in CouplingMode])
                                ) from None
    elif key == "detector":
        try:
            cfg.detector = DetectorChoice(str(raw).strip().lower())
        except ValueError:
            raise ScenarioError("%s: detector: unknown detector %r (expected "
                                "one of %s)" % (where, raw,
                                                [d.value for d in DetectorChoice])
                                ) from None
    else:
        raise ScenarioError("%s: unknown key %r" % (where, key))


def _parse_flat(text: str, where: str) -> ScenarioConfig:
    cfg = ScenarioConfig()
    link_parts = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ScenarioError("%s:%d: expected 'key = value', got %r"
                                % (where, lineno, line.strip()))
        key, raw = (part.strip() for part in stripped.split("=", 1))
        loc = "%s:%d" % (where, lineno)
        if key.startswith("link") and "." in key:
            prefix, sub = key.split(".", 1)
            try:
                idx = int(prefix[4:])
            except ValueError:
                raise ScenarioError("%s: bad link key %r" % (loc, key)) from None
            if idx < 1:
                raise ScenarioError("%s: link index must be >= 1" % loc)
            link_parts.setdefault(idx, {})[sub] = raw
        else:
            _apply_scalar(cfg, key, raw, loc)
    if link_parts:
        indices = sorted(link_parts)
        if indices != list(range(1, len(indices) + 1)):
            raise ScenarioError("%s: link indices must be 1..n without gaps"
                                % where)
        cfg.links = [_link_from_parts(link_parts[i], "link%d" % i)
                     for i in indices]
    return cfg


def _parse_json(data: dict, where: str) -> ScenarioConfig:
    cfg = ScenarioConfig()
    for key, raw in data.items():
        if key == "links":
            if not isinstance(raw, list):
                raise ScenarioError("%s: links: expected a list" % where)
            cfg.links = []
            for i, entry in enumerate(raw, start=1):
                if not isinstance(entry, dict):
                    raise ScenarioError("%s: link%d: expected an object, got "
                                        "%r" % (where, i, entry))
                cfg.links.append(_link_from_parts(entry, "link%d" % i))
        else:
            _apply_scalar(cfg, key, raw, where)
    return cfg


def parse_scenario(text: str, where: str = "<scenario>") -> ScenarioConfig:
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ScenarioError("%s: invalid JSON: %s" % (where, exc)) from None
        cfg = _parse_json(data, where)
    else:
        cfg = _parse_flat(text, where)
    cfg.validate()
    return cfg


def preset_text(name: str) -> str:
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
    p = Path(name)
    if p.is_file():
        return parse_scenario(p.read_text(encoding="utf-8"), name)
    if name in PRESET_NAMES:
        return _preset(name).copy()
    raise ScenarioError("scenario %r: no such file or preset (presets: %s)"
                        % (name, ", ".join(PRESET_NAMES)))
