"""tools/opcount.py counts bytecodes per data segment: its table must come
out the same on every run, and it must see every segment sent."""

import subprocess
import sys
from pathlib import Path

from mpsim.config import load_scenario

ROOT = Path(__file__).parents[1]
TOOLS = ROOT / "tools"


def test_opcount_table_is_exact(monkeypatch):
    # no count is pinned: bytecode differs across Python versions
    argv = [sys.executable, str(TOOLS / "opcount.py"), "grid", "1",
            "--scenarios", "1", "--bytes", "60000"]
    runs = [subprocess.run(argv, capture_output=True, text=True, timeout=60)
            for _ in range(2)]
    assert [run.returncode for run in runs] == [0, 0], runs[0].stderr
    assert runs[0].stdout == runs[1].stdout
    lines = runs[0].stdout.splitlines()
    assert lines[0].startswith("grid seed 1: 1 scenarios, ")
    assert lines[-1].endswith("  all functions")
    monkeypatch.syspath_prepend(str(TOOLS))
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    from opcount import count
    cfg = load_scenario("paper-base")
    cfg.transfer_size = 60_000
    opcodes, calls, segments = count([cfg])
    assert calls["simulation.Simulation._send_mapping"] == segments > 0
    assert opcodes["connection.schedule_next"] > 0
