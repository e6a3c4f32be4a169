"""Scenario execution, parameter sweeps and CSV/SVG emission."""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

from .config import LINK_KEYS, MAX_SECONDS, ScenarioConfig, ScenarioError
from .record import Record
from .simkernel import mix_seed
from .simulation import (EVENTS, FAST_RETRANSMIT, SPURIOUS_DETECTED,
                         RunResult, Simulation, SummaryStats, TraceRecord)
from .subflow import PHASES

TRACE_CSV_COLUMNS = ("time_s", "subflow", "cwnd_mss", "ssthresh_mss",
                     "phase", "event")


SWEEP_PARAMETERS = ("capacity", "latency", "loss")
# the link file key each parameter sets, in that key's unit
_SWEEP_KEYS = dict(zip(SWEEP_PARAMETERS,
                       ("capacity_mbps", "delay_ms", "loss_rate")))


class SweepRow(Record):
    param_value: float
    stats: SummaryStats
    error: Optional[str] = None  # why the point did not run, if it did not


def run_scenario(cfg: ScenarioConfig) -> RunResult:
    """Run one simulation to transfer completion or stop_time."""
    return Simulation(cfg).run()


def run_sweep(base: ScenarioConfig, parameter: str, link: int,
              values: Sequence[float]) -> List[SweepRow]:
    """One run per value of `parameter` on link `link` (1-based), in the
    unit of its link file key; point i uses seed mix_seed(base.seed, i)."""
    if parameter not in SWEEP_PARAMETERS:
        raise ScenarioError("sweep parameter: expected one of %s, got %r"
                            % (list(SWEEP_PARAMETERS), parameter))
    if not values:
        raise ScenarioError("sweep values: must be non-empty")
    base.validate()  # before the index check and copy() read the links
    if not 1 <= link <= len(base.links):
        raise ScenarioError("sweep link: index %d out of range (scenario "
                            "has %d links)" % (link, len(base.links)))
    field, _, convert = LINK_KEYS[_SWEEP_KEYS[parameter]]
    rows = []
    for i, value in enumerate(values):
        point = base.copy()
        setattr(point.links[link - 1], field,
                convert(value) if convert else value)
        point.seed = mix_seed(base.seed, i)
        try:
            stats, error = run_scenario(point).stats, None
        except ScenarioError as exc:
            stats, error = _empty_stats(len(point.links)), str(exc)
        rows.append(SweepRow(param_value=value, stats=stats, error=error))
    return rows


def _empty_stats(n_subflows: int) -> SummaryStats:
    """Stats of a sweep point that did not run: nothing sent or arrived."""
    zeros = (0,) * n_subflows
    return SummaryStats(completed=False, completion_time_s=None,
                        goodput_bps=0.0, delivered_bytes=0, bytes_sf=zeros,
                        retx_sf=zeros, fast_retx=0, rtos=0,
                        spurious_detections=0, checksum_ok=False,
                        duplicate_bytes=0, protocol_violations=0)


def fmt(value) -> str:
    """Fixed-precision rendering (6 significant digits) for stable diffs."""
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".6g")
    return str(value)


# one trace row as `fmt` renders it, in two parts: the time, and the rest
# (the tail). A record's time and windows are floats (a subflow's windows
# from its construction on) and its subflow an int.
_TRACE_TIME = "%.6g"
_TRACE_TAIL = ",%d,%.6g,%.6g,%s,%s"


def trace_csv_lines(records: Sequence[TraceRecord]) -> List[str]:
    """The header and one row per record. A sample's rows share one time
    object, and a subflow's rows often repeat its windows, phase and event
    as the same objects, so the text of the time, and of a subflow's tail,
    is kept while the record holds the objects it was rendered from.
    Objects are compared with `is`, never by value: 0.0 == -0.0, but the
    two are written differently."""
    lines = [",".join(TRACE_CSV_COLUMNS)]
    append = lines.append
    time_s = time_text = None
    tails = {}  # subflow -> (cwnd, ssthresh, phase, event, tail) last written
    for r in records:
        if r.time_s is not time_s:
            time_s = r.time_s
            time_text = _TRACE_TIME % time_s
        tail = tails.get(r.subflow)
        if (tail is None or tail[0] is not r.cwnd
                or tail[1] is not r.ssthresh or tail[2] is not r.phase
                or tail[3] is not r.event):
            tail = tails[r.subflow] = (
                r.cwnd, r.ssthresh, r.phase, r.event,
                _TRACE_TAIL % (r.subflow, r.cwnd, r.ssthresh, r.phase,
                               r.event))
        append(time_text + tail[4])
    return lines


def sweep_csv_lines(rows: Sequence[SweepRow]) -> List[str]:
    # one bytes_sfN and one retx_sfN column per subflow; every point of a
    # sweep, error rows included, has the base scenario's links
    n = len(rows[0].stats.bytes_sf) if rows else 0
    sfs = range(1, n + 1)
    lines = [",".join(["param_value", "completion_time_s", "goodput_bps"]
                      + ["bytes_sf%d" % i for i in sfs]
                      + ["retx_sf%d" % i for i in sfs]
                      + ["fast_retx", "rtos", "spurious_detections",
                         "error"])]
    for row in rows:
        s = row.stats
        lines.append(",".join(
            [fmt(row.param_value), fmt(s.completion_time_s),
             fmt(s.goodput_bps)]
            + [str(b) for b in s.bytes_sf]
            + [str(r) for r in s.retx_sf]
            + [str(s.fast_retx), str(s.rtos), str(s.spurious_detections),
               _csv_text(row.error)]))
    return lines


def _csv_text(text: Optional[str]) -> str:
    """A free-text CSV cell: quoted when it holds a comma, quote or newline."""
    if text is None:
        return ""
    if any(c in text for c in ',"\n\r'):
        return '"%s"' % text.replace('"', '""')
    return text


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


def parse_trace_csv(path) -> List[TraceRecord]:
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != ",".join(TRACE_CSV_COLUMNS):
            raise ScenarioError("%s: not a trace CSV (header %r)"
                                % (path, header))
        for lineno, line in enumerate(fh, 2):
            line = line.strip()
            if not line:
                continue
            fields = line.split(",")
            if len(fields) != len(TRACE_CSV_COLUMNS):
                raise ScenarioError("%s:%d: expected %d fields, got %d"
                                    % (path, lineno, len(TRACE_CSV_COLUMNS),
                                       len(fields)))
            t, sf, cwnd, ssthresh, phase, event = fields
            if phase not in PHASES:
                raise ScenarioError("%s:%d: unknown phase %r"
                                    % (path, lineno, phase))
            if event not in EVENTS:
                raise ScenarioError("%s:%d: unknown event %r"
                                    % (path, lineno, event))
            numbers = t + sf + cwnd + ssthresh  # in the scenario grammar
            try:
                if not numbers.isascii() or "_" in numbers:
                    raise ValueError("expected ASCII numbers without '_'")
                t, cwnd, ssthresh = float(t), float(cwnd), float(ssthresh)
                sf = int(sf)
                # only what the simulator writes; nan fails every comparison
                if not (0 <= t <= MAX_SECONDS and 1 <= sf
                        and 1 <= cwnd < math.inf and ssthresh >= 1):
                    raise ValueError("expected 0 <= time_s <= 1e9, 1 <= "
                                     "subflow, 1 <= cwnd_mss < inf and 1 <= "
                                     "ssthresh_mss")
                records.append(TraceRecord(t, sf, cwnd, ssthresh, phase,
                                           event))
            except ValueError as exc:
                raise ScenarioError("%s:%d: %s" % (path, lineno, exc)) \
                    from None
    return records


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
    # 10**-323 is the least power of 10 above 0: a span of a few subnormals
    # has a 0 nth, or an nth whose power of 10 is 0
    exp = math.floor(math.log10(raw)) if raw > 1e-323 else -323
    mag = 10.0 ** exp
    for mult in (1, 2, 5, 10):
        step = mult * mag
        if raw <= step:
            break
    out = []
    v = math.ceil(lo / step) * step
    # [lo, hi] spans at most n steps: n + 1 ticks, and one more for the
    # rounding of the first. Where step is below half the float spacing at v,
    # `v += step` stands still: the tick is drawn once and the loop stops.
    # Near the largest float (a window the simulator can write), the step
    # past the last tick is inf, and so is `hi + step * 1e-9`. Each tick is
    # a multiple of 10**exp, and is rounded to one at any magnitude.
    for _ in range(n + 2):
        if v > hi + step * 1e-9 or v == math.inf:
            break
        out.append(round(v, -exp))
        if v + step == v:
            break
        v += step
    return out


def _labelled_ticks(lo: float, hi: float):
    """(tick, label) pairs: `%g` labels, or with more significant digits
    until no two read alike (17 tell every two floats apart)."""
    ticks = _ticks(lo, hi)
    for digits in range(6, 18):
        labels = ["%.*g" % (digits, v) for v in ticks]
        if len(set(labels)) == len(labels):
            break
    return zip(ticks, labels)


def emit_plot(records: Sequence[TraceRecord], path) -> None:
    """Self-contained SVG: cwnd vs time, one polyline per subflow, with
    markers at FastRetransmit and SpuriousDetected events. It draws times
    in [0, 1e9] s and finite windows >= 0, as every trace does that the
    simulator writes or `parse_trace_csv` accepts."""
    records = list(records)
    if not records:
        raise ValueError("emit_plot requires at least one trace record")
    t_lo = min(r.time_s for r in records)
    t_hi = _axis_top(t_lo, max(r.time_s for r in records))
    c_lo = 0.0
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
    for tv, label in _labelled_ticks(t_lo, t_hi):
        parts.append('<line x1="%g" y1="%g" x2="%g" y2="%g" stroke="black"/>'
                     % (x(tv), _H - _MB, x(tv), _H - _MB + 5))
        parts.append('<text x="%g" y="%g" font-size="11" '
                     'text-anchor="middle">%s</text>'
                     % (x(tv), _H - _MB + 18, label))
    for cv, label in _labelled_ticks(c_lo, c_hi):
        parts.append('<line x1="%g" y1="%g" x2="%g" y2="%g" stroke="black"/>'
                     % (_ML - 5, y(cv), _ML, y(cv)))
        parts.append('<text x="%g" y="%g" font-size="11" '
                     'text-anchor="end">%s</text>'
                     % (_ML - 8, y(cv) + 4, label))
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
