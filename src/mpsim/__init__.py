"""mpsim: deterministic discrete-event simulator of multipath TCP with
coupled congestion control and spurious-retransmission detection.

`import mpsim` loads the engine and `run_scenario`. Sweeps and the CSV and
SVG writers live in `mpsim.report`, loaded on first use of one of their
names here, so a process that only runs scenarios does not compile them."""

from .config import LinkConfig, ScenarioConfig, ScenarioError, load_scenario
from .coupling import (CouplingMode, compute_alpha, on_ack_increase,
                       on_loss_decrease)
from .harness import run_scenario
from .netmodel import DropReason, Link
from .simkernel import RandomStream, SimKernel, mix_seed
from .simulation import RunResult, Simulation, SummaryStats, TraceRecord
from .spurious import DetectorChoice

__version__ = "0.1.0"

__all__ = [
    "SWEEP_PARAMETERS", "CouplingMode", "DetectorChoice", "DropReason",
    "Link", "LinkConfig", "RandomStream", "RunResult", "ScenarioConfig",
    "ScenarioError", "SimKernel", "Simulation", "SummaryStats", "TraceRecord",
    "compute_alpha", "emit_csv", "emit_plot", "load_scenario", "mix_seed",
    "on_ack_increase", "on_loss_decrease", "run_scenario", "run_sweep",
]


def __getattr__(name):
    if name in ("SWEEP_PARAMETERS", "emit_csv", "emit_plot", "run_sweep"):
        from . import report
        return getattr(report, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))
