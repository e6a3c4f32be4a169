"""Running one scenario, and its trace as CSV lines. Sweeps, and CSV and
SVG files, are in `mpsim.report`, which `import mpsim` loads on first
use."""

from __future__ import annotations

from typing import List, Sequence

from .config import ScenarioConfig
from .simulation import RunResult, Simulation, TraceRecord

TRACE_CSV_COLUMNS = ("time_s", "subflow", "cwnd_mss", "ssthresh_mss",
                     "phase", "event")


def run_scenario(cfg: ScenarioConfig) -> RunResult:
    """Run one simulation to transfer completion or stop_time."""
    return Simulation(cfg).run()


# one trace row as `report.fmt` renders it, in two parts: the time, and
# the rest (the tail). A record's time and windows are floats (a subflow's
# windows from its construction on) and its subflow an int.
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
