"""tools/opcount.py counts bytecodes per data segment: its table must come
out the same on every run, it must see every segment sent and every record
built, and `--check` must fail on any change to the table, naming the
counts that moved."""

import subprocess
import sys
from pathlib import Path

from mpsim.config import load_scenario
from mpsim.harness import run_scenario

ROOT = Path(__file__).parents[1]
TOOLS = ROOT / "tools"
ARGV = [sys.executable, str(TOOLS / "opcount.py"), "grid", "1",
        "--scenarios", "1", "--bytes", "60000"]


def opcount(*extra):
    return subprocess.run(ARGV + list(extra), capture_output=True, text=True,
                          timeout=60)


def test_opcount_table_is_exact(tmp_path):
    # no count is pinned: bytecode differs across Python versions
    runs = [opcount(), opcount()]
    assert [r.returncode for r in runs] == [0, 0], runs[0].stderr
    assert runs[0].stdout == runs[1].stdout
    lines = runs[0].stdout.splitlines()
    assert lines[0].startswith("grid seed 1: 1 scenarios, ")
    assert lines[-1].endswith("  all functions")
    table = tmp_path / "table.txt"
    table.write_text(runs[0].stdout)
    again = opcount("--check", str(table))
    assert (again.returncode, again.stdout) == (
        0, "no count moved from %s\n" % table)
    # one edited count, of opcodes or of calls, is named, old -> new, and
    # fails the check
    row = next(i for i, line in enumerate(lines)
               if line.endswith("  connection.schedule_next"))
    ops, calls, _ = lines[row].split(None, 2)
    was = "%s opcodes/seg, %s calls/seg" % (ops, calls)
    for edited in ("%12.1f %10s" % (float(ops) + 1, calls),
                   "%12s %10.3f" % (ops, float(calls) + 0.001)):
        new_ops, new_calls = edited.split()
        table.write_text("\n".join(lines[:row] + [
            edited + lines[row][23:]] + lines[row + 1:]) + "\n")
        check = opcount("--check", str(table))
        assert (check.returncode, check.stdout) == (1, (
            "connection.schedule_next: %s opcodes/seg, %s calls/seg -> %s\n"
            % (new_ops, new_calls, was)))
    # so does a table whose rows come in another order
    table.write_text("\n".join(lines[:2] + [lines[3], lines[2]] + lines[4:])
                     + "\n")
    check = opcount("--check", str(table))
    assert (check.returncode, check.stdout) == (
        1, "the same rows in another order\n")


def test_opcount_counts_every_segment_and_trace_row(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    from opcount import count
    cfg = load_scenario("paper-reorder")
    cfg.transfer_size = 60_000
    opcodes, calls, segments = count([cfg])
    assert calls["simulation.Simulation._send_mapping"] == segments > 0
    assert opcodes["connection.schedule_next"] > 0
    # a record's __init__ is compiled from a string, and counted by name
    assert calls["simulation.TraceRecord.__init__"] == len(
        run_scenario(cfg).traces) > 0
    assert calls["simulation.SummaryStats.__init__"] == 1
