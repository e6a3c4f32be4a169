"""Parameter sweeps, and CSV and SVG files. The package loads this module
on first use of one of its names."""

from __future__ import annotations

import math
from typing import List, Sequence

from .config import LINK_KEYS, RULES, ScenarioConfig, ScenarioError, _check
from .harness import run_scenario, trace_csv_lines
from .record import Record
from .simkernel import mix_seed
from .simulation import (FAST_RETRANSMIT, SPURIOUS_DETECTED, SummaryStats,
                         TraceRecord)

SWEEP_PARAMETERS = ("capacity", "latency", "loss")
# the link file key each parameter sets, in that key's unit
_SWEEP_KEYS = dict(zip(SWEEP_PARAMETERS,
                       ("capacity_mbps", "delay_ms", "loss_rate")))


class SweepRow(Record):
    param_value: float
    stats: SummaryStats


def run_sweep(base: ScenarioConfig, parameter: str, link: int,
              values: Sequence[float]) -> List[SweepRow]:
    """One run per value of `parameter` on link `link` (1-based), in the
    unit of its link file key; point i uses seed mix_seed(base.seed, i).
    Every value is checked, by the rule a scenario file's line gets, before
    any point runs."""
    if parameter not in SWEEP_PARAMETERS:
        raise ScenarioError("sweep parameter: expected one of %s, got %r"
                            % (list(SWEEP_PARAMETERS), parameter))
    if not values:
        raise ScenarioError("sweep values: must be non-empty")
    base.validate()  # before the index check and copy() read the links
    if not 1 <= link <= len(base.links):
        raise ScenarioError("sweep link: index %d out of range (scenario "
                            "has %d links)" % (link, len(base.links)))
    key = _SWEEP_KEYS[parameter]
    field, tp, convert = LINK_KEYS[key]
    points = []
    for i, value in enumerate(values):
        v = convert(value) if convert else value
        _check("sweep value %r: link%d.%s" % (value, link, key), v, tp,
               RULES[field])
        point = base.copy()
        setattr(point.links[link - 1], field, v)
        point.seed = mix_seed(base.seed, i)
        points.append(point)
    return [SweepRow(param_value=value, stats=run_scenario(point).stats)
            for value, point in zip(values, points)]


def fmt(value) -> str:
    """Fixed-precision rendering (6 significant digits) for stable diffs."""
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".6g")
    return str(value)


def sweep_csv_lines(rows: Sequence[SweepRow]) -> List[str]:
    # one bytes_sfN and one retx_sfN column per subflow; every point of a
    # sweep has the base scenario's links
    n = len(rows[0].stats.bytes_sf) if rows else 0
    sfs = range(1, n + 1)
    lines = [",".join(["param_value", "completion_time_s", "goodput_bps"]
                      + ["bytes_sf%d" % i for i in sfs]
                      + ["retx_sf%d" % i for i in sfs]
                      + ["fast_retx", "rtos", "spurious_detections"])]
    for row in rows:
        s = row.stats
        lines.append(",".join(
            [fmt(row.param_value), fmt(s.completion_time_s),
             fmt(s.goodput_bps)]
            + [str(b) for b in s.bytes_sf]
            + [str(r) for r in s.retx_sf]
            + [str(s.fast_retx), str(s.rtos), str(s.spurious_detections)]))
    return lines


def emit_csv(data, path) -> None:
    """Write trace records or sweep rows as CSV (dispatch on content)."""
    data = list(data)
    sweep = data and isinstance(data[0], SweepRow)
    lines = sweep_csv_lines(data) if sweep else trace_csv_lines(data)
    _write_lines(path, lines, "CSV")


def _write_lines(path, lines: List[str], kind: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise OSError("cannot write %s %s: %s" % (kind, path, exc)) from exc


# ------------------------------------------------------------------ plotting

_SF_COLORS = ("#1f6fb4", "#e07b00", "#2a9d5c", "#a34fb0")
_W, _H = 860, 520
_ML, _MR, _MT, _MB = 70, 20, 30, 50


def _axis_top(lo: float, hi: float) -> float:
    """hi, or over an empty span lo + 1.0."""
    return hi if hi > lo else lo + 1.0


def _scale(lo: float, hi: float, start: float, length: float):
    """The map of [lo, hi] onto [start, start + length]."""
    span = hi - lo
    return lambda v: start + (v - lo) / span * length


def _ticks(lo: float, hi: float, n: int = 6) -> List[float]:
    raw = (hi - lo) / n
    exp = math.floor(math.log10(raw))
    mag = 10.0 ** exp
    for mult in (1, 2, 5, 10):
        step = mult * mag
        if raw <= step:
            break
    out = []
    v = math.ceil(lo / step) * step
    # [lo, hi] spans at most n steps: n + 1 ticks, and one more for the
    # rounding of the first. Near the largest float (a window the simulator
    # can write), the step past the last tick is inf, and so is
    # `hi + step * 1e-9`. Each tick is a multiple of 10**exp, and is rounded
    # to one at any magnitude.
    for _ in range(n + 2):
        if v > hi + step * 1e-9 or v == math.inf:
            break
        out.append(round(v, -exp))
        v += step
    return out


def emit_plot(records: Sequence[TraceRecord], path) -> None:
    """Self-contained SVG: cwnd vs time, one polyline per subflow, with
    markers at FastRetransmit and SpuriousDetected events. It draws the
    records a run writes: times in [0, 1e9] s, on a 1 ns clock, from a
    first sample at 0 s, and finite windows of at least one MSS, so both
    axes start at 0."""
    records = list(records)
    t_lo = c_lo = 0.0
    t_hi = _axis_top(t_lo, max(r.time_s for r in records))
    c_hi = _axis_top(c_lo, max(r.cwnd for r in records))

    x = _scale(t_lo, t_hi, _ML, _W - _ML - _MR)
    y = _scale(c_lo, c_hi, _H - _MB, _MT + _MB - _H)
    subflows = sorted({r.subflow for r in records})
    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
        'viewBox="0 0 %d %d">' % (_W, _H, _W, _H),
        '<rect width="%d" height="%d" fill="white"/>' % (_W, _H),
    ]
    # axes
    parts.append('<line x1="%g" y1="%g" x2="%g" y2="%g" stroke="black"/>'
                 % (_ML, _H - _MB, _W - _MR, _H - _MB))
    parts.append('<line x1="%g" y1="%g" x2="%g" y2="%g" stroke="black"/>'
                 % (_ML, _MT, _ML, _H - _MB))
    for tv in _ticks(t_lo, t_hi):
        parts.append('<line x1="%g" y1="%g" x2="%g" y2="%g" stroke="black"/>'
                     % (x(tv), _H - _MB, x(tv), _H - _MB + 5))
        parts.append('<text x="%g" y="%g" font-size="11" '
                     'text-anchor="middle">%s</text>'
                     % (x(tv), _H - _MB + 18, "%g" % tv))
    for cv in _ticks(c_lo, c_hi):
        parts.append('<line x1="%g" y1="%g" x2="%g" y2="%g" stroke="black"/>'
                     % (_ML - 5, y(cv), _ML, y(cv)))
        parts.append('<text x="%g" y="%g" font-size="11" '
                     'text-anchor="end">%s</text>'
                     % (_ML - 8, y(cv) + 4, "%g" % cv))
    parts.append('<text x="%g" y="%g" font-size="12" text-anchor="middle">'
                 'time [s]</text>' % ((_ML + _W - _MR) / 2, _H - 12))
    parts.append('<text x="16" y="%g" font-size="12" text-anchor="middle" '
                 'transform="rotate(-90 16 %g)">cwnd [MSS]</text>'
                 % ((_MT + _H - _MB) / 2, (_MT + _H - _MB) / 2))
    # one polyline per subflow
    for k, sf in enumerate(subflows):
        color = _SF_COLORS[k % len(_SF_COLORS)]
        pts = ["%g,%g" % (x(r.time_s), y(r.cwnd))
               for r in records if r.subflow == sf]
        if len(pts) == 1:
            cx, cy = pts[0].split(",")
            parts.append('<circle cx="%s" cy="%s" r="3" fill="%s"/>'
                         % (cx, cy, color))
        else:
            parts.append('<polyline points="%s" fill="none" stroke="%s" '
                         'stroke-width="1.3"/>' % (" ".join(pts), color))
        parts.append('<text x="%g" y="%g" font-size="12" fill="%s">'
                     'subflow %d</text>'
                     % (_W - _MR - 90, _MT + 16 * (k + 1), color, sf))
    # event markers
    for r in records:
        if r.event == FAST_RETRANSMIT:
            px, py = x(r.time_s), y(r.cwnd)
            parts.append('<path d="M %g %g l 4 8 l -8 0 z" fill="#c22"/>'
                         % (px, py - 5))
        elif r.event == SPURIOUS_DETECTED:
            parts.append('<circle cx="%g" cy="%g" r="4" fill="none" '
                         'stroke="#7a2aa0" stroke-width="1.5"/>'
                         % (x(r.time_s), y(r.cwnd)))
    parts.append("</svg>")
    _write_lines(path, parts, "plot")
