"""Count the bytecodes each mpsim function runs per data segment on a
benchmark workload.

    python tools/opcount.py WORKLOAD [SEED] [--scenarios K] [--bytes B]

It runs K scenarios of a perfbench workload (grid, bulk or reorder; SEED
defaults to 1): every ceil(n/K)-th of its n scenarios, from the first, so
K = 36 takes every 9th of the grid's 324 (K defaults to all of them). Each
transfer is capped at B bytes (default: uncapped). Each scenario's
`run_scenario` and `trace_csv_lines`, the span perfbench times, run under
`sys.settrace` with opcode events on. It prints, for each function of
`src/mpsim` that ran, its opcodes and calls per data segment sent, and
their total. Unlike a timed profile the counts are exact: two runs on one
Python give the same table. Bytecode differs across Python versions, and
the tracer makes a run about 120 times slower (grid, CPython 3.11).
"""

import argparse
import math
import os
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def count(cfgs):
    """Run each config; return ({function: opcodes}, {function: calls},
    data segments sent) over all of them. A function is named
    `module.qualname`, for each function of the mpsim package. perfbench/
    must be on sys.path."""
    import workloads
    from mpsim import harness
    package = str(Path(harness.__file__).parent) + os.sep
    opcodes, calls, names = Counter(), Counter(), {}

    def name(code):
        if code not in names:
            names[code] = "%s.%s" % (Path(code.co_filename).stem,
                                     getattr(code, "co_qualname",
                                             code.co_name))
        return names[code]

    def local(frame, event, arg):
        if event == "opcode":
            opcodes[name(frame.f_code)] += 1
        return local

    def on_call(frame, event, arg):
        if not frame.f_code.co_filename.startswith(package):
            return None
        calls[name(frame.f_code)] += 1
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        return local

    capture = workloads._Capture(harness.Simulation)
    harness.Simulation = capture
    previous = sys.gettrace()
    segments = 0
    try:
        for cfg in cfgs:
            sys.settrace(on_call)
            try:
                harness.trace_csv_lines(harness.run_scenario(cfg).traces)
            finally:
                sys.settrace(previous)
            segments += sum(sf.segments_sent for sf in capture.sim.subflows)
    finally:
        harness.Simulation = capture.cls
    return opcodes, calls, segments


def pick(workload, seed, scenarios=None, cap=None):
    """The workload's configs: every ceil(n/scenarios)-th, each transfer
    capped at `cap` bytes. perfbench/ must be on sys.path."""
    import workloads
    cfgs = workloads.build(workload, seed)
    cfgs = cfgs[::math.ceil(len(cfgs) / (scenarios or len(cfgs)))]
    if cap is not None:
        for cfg in cfgs:
            cfg.transfer_size = min(cfg.transfer_size, cap)
    return cfgs


def table(opcodes, calls, segments):
    """Lines of opcodes and calls per segment, most opcodes first."""
    lines = ["%12s %10s  function" % ("opcodes/seg", "calls/seg")]
    for fn in sorted(opcodes, key=lambda fn: (-opcodes[fn], fn)):
        lines.append("%12.1f %10.3f  %s" % (opcodes[fn] / segments,
                                            calls[fn] / segments, fn))
    lines.append("%12.1f %10.3f  all functions"
                 % (sum(opcodes.values()) / segments,
                    sum(calls.values()) / segments))
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="bytecodes per data segment of each mpsim function")
    parser.add_argument("workload", choices=("grid", "bulk", "reorder"))
    parser.add_argument("seed", nargs="?", type=int, default=1)
    parser.add_argument("--scenarios", type=int, metavar="K")
    parser.add_argument("--bytes", type=int, metavar="B")
    args = parser.parse_args(argv)
    if args.scenarios is not None and args.scenarios < 1:
        parser.error("--scenarios: must be >= 1")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    cfgs = pick(args.workload, args.seed, args.scenarios, args.bytes)
    opcodes, calls, segments = count(cfgs)
    print("%s seed %d: %d scenarios, %d data segments"
          % (args.workload, args.seed, len(cfgs), segments))
    print("\n".join(table(opcodes, calls, segments)))


if __name__ == "__main__":
    main()
