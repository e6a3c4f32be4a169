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


# one trace row: the time as `repr` writes it, which tells any two floats
# apart, and the windows with 6 significant digits, as `report.fmt` does
_TRACE_ROW = "%r,%d,%.6g,%.6g,%s,%s"


def trace_csv_lines(records: Sequence[TraceRecord]) -> List[str]:
    """The header and one row per record."""
    lines = [",".join(TRACE_CSV_COLUMNS)]
    lines += [_TRACE_ROW % (r.time_s, r.subflow, r.cwnd, r.ssthresh, r.phase,
                            r.event) for r in records]
    return lines
