"""Count the bytecodes each mpsim function runs per data segment on a
benchmark workload.

    python tools/opcount.py WORKLOAD [SEED] [--scenarios K] [--bytes B]
                            [--check FILE]

It runs K scenarios of a perfbench workload (grid, bulk or reorder; SEED
defaults to 1): every ceil(n/K)-th of its n scenarios, from the first, so
K = 36 takes every 9th of the grid's 324 (K defaults to all of them). Each
transfer is capped at B bytes (default: uncapped). Each scenario's
`run_scenario` and `trace_csv_lines`, the span perfbench times, run under
`sys.settrace` with opcode events on. It prints, for each function of
`src/mpsim` that ran, the `__init__` of each record type included, its
opcodes and calls per data segment sent, and their total. Unlike a timed
profile the counts are exact: two runs on one Python give the same table.
Bytecode differs across Python versions, and the tracer makes a run about
120 times slower (grid, CPython 3.11).

With `--check FILE` it prints, in place of the table, each function whose
opcodes or calls per segment differ from those of the table in FILE, as
old -> new, and exits 1 if any do.
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
    from mpsim.record import Record
    package = str(Path(harness.__file__).parent) + os.sep
    opcodes, calls, names = Counter(), Counter(), {}
    # `Record` compiles each record's `__init__` from a string, so its
    # code's file is "<string>": name it after its class instead
    classes = Record.__subclasses__()
    for cls in classes:
        classes.extend(cls.__subclasses__())
        if "__init__" in cls.__dict__ and cls.__module__.startswith("mpsim."):
            names[cls.__init__.__code__] = "%s.%s.__init__" % (
                cls.__module__[len("mpsim."):], cls.__qualname__)

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
        if (frame.f_code not in names
                and not frame.f_code.co_filename.startswith(package)):
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


def moved(old, new):
    """What moved from table `old` to table `new` (lists of lines), or []
    if they are equal: each of the two heading lines that differs, and each
    function whose opcodes or calls per segment differ, as
    `function: old -> new`."""
    if old == new:
        return []

    def per_function(lines):
        return {name: "%s opcodes/seg, %s calls/seg" % (ops, calls)
                for ops, calls, name in (line.split(None, 2)
                                         for line in lines[2:])}
    out = ["%s -> %s" % (a, b) for a, b in zip(old[:2], new[:2]) if a != b]
    before, after = per_function(old), per_function(new)
    for fn in sorted(before.keys() | after.keys()):
        if before.get(fn) != after.get(fn):
            out.append("%s: %s -> %s" % (fn, before.get(fn, "none"),
                                         after.get(fn, "none")))
    return out or ["the same rows in another order"]


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="bytecodes per data segment of each mpsim function")
    parser.add_argument("workload", choices=("grid", "bulk", "reorder"))
    parser.add_argument("seed", nargs="?", type=int, default=1)
    parser.add_argument("--scenarios", type=int, metavar="K")
    parser.add_argument("--bytes", type=int, metavar="B")
    parser.add_argument("--check", metavar="FILE",
                        help="compare with the table in FILE: name each "
                        "function whose counts moved, and exit 1 if the "
                        "tables differ")
    args = parser.parse_args(argv)
    if args.scenarios is not None and args.scenarios < 1:
        parser.error("--scenarios: must be >= 1")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    cfgs = pick(args.workload, args.seed, args.scenarios, args.bytes)
    opcodes, calls, segments = count(cfgs)
    lines = ["%s seed %d: %d scenarios, %d data segments"
             % (args.workload, args.seed, len(cfgs), segments)]
    lines += table(opcodes, calls, segments)
    if args.check is None:
        print("\n".join(lines))
        return
    with open(args.check, encoding="utf-8") as fh:
        changes = moved(fh.read().splitlines(), lines)
    print("\n".join(changes) or "no count moved from %s" % args.check)
    sys.exit(1 if changes else 0)


if __name__ == "__main__":
    main()
