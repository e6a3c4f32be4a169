"""mpsim: deterministic discrete-event simulator of multipath TCP with
coupled congestion control and spurious-retransmission detection."""

from .config import LinkConfig, ScenarioConfig, ScenarioError, load_scenario
from .coupling import (CouplingMode, compute_alpha, on_ack_increase,
                       on_loss_decrease)
from .harness import (SWEEP_PARAMETERS, emit_csv, emit_plot, run_scenario,
                      run_sweep)
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
