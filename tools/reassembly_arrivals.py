"""Record the arrivals the benchmark's workloads hand the receiver's reorder
buffer, sort them into arrival cases, check ReassemblyState.on_data against
the tests' reference on them, and time it.

    python tools/reassembly_arrivals.py record WORKLOAD SEED OUT.pkl
    python tools/reassembly_arrivals.py mix OUT.pkl [OUT.pkl ...]
    python tools/reassembly_arrivals.py check TREE OUT.pkl [OUT.pkl ...]
    python tools/reassembly_arrivals.py time TREE_A TREE_B OUT.pkl [PASSES]

`record` runs every scenario of a perfbench workload (grid, bulk or
reorder) with the repository's own `src/` and stores each scenario's
(start, end) arrivals in order. `mix` replays them, counts each case of
ARRIVAL_CASES and gives the share of arrivals each of on_data's SHORT_PATHS
takes and the share left to its general rule. `check` replays them through
the ReassemblyState of a source tree (a checkout's root) and through
tests/test_connection.py's ReferenceReassembly, compares their results,
stored ranges and rcv_data_next after every arrival, and exits 1 at the
first difference, naming the file, the scenario and the arrival. `time`
replays them through the ReassemblyState of two source trees, alternating A
and B, and prints the minimum over PASSES (default 15) of host ns per
on_data call, with the garbage collector off.
"""

import ast
import gc
import json
import pickle
import sys
import time
from bisect import bisect_right
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# The thirteen arrival cases, by where [start, end) falls relative to
# rcv_data_next and to the stored ranges.
ARRIVAL_CASES = (
    "in order, touching nothing",
    "in order, filling the hole exactly",
    "in order, overlapping",
    "out of order, inside a held range",
    "out of order, overlapping held bytes",
    "out of order, joining two ranges",
    "out of order, extending the range below",
    "out of order, extending the range above downward",
    "out of order, a new range",
    "wholly below rcv_data_next",
    "straddling, touching nothing",
    "straddling, filling the hole exactly",
    "straddling, overlapping",
)
# the cases ReassemblyState.on_data takes by a short path, in its order;
# its general rule takes the rest
SHORT_PATHS = (
    "in order, touching nothing",
    "in order, filling the hole exactly",
    "out of order, a new range",
    "out of order, extending the range below",
)


def classify(starts, ends, nxt, start, end):
    """The case of ARRIVAL_CASES that [start, end) is, for a buffer with
    cumulative point nxt and stored ranges zip(starts, ends)."""
    if end <= nxt:
        return "wholly below rcv_data_next"
    if start <= nxt:
        kind = "in order" if start == nxt else "straddling"
        if not starts or end < starts[0]:
            return kind + ", touching nothing"
        if end == starts[0]:
            return kind + ", filling the hole exactly"
        return kind + ", overlapping"
    i = bisect_right(starts, start)  # starts[i - 1] <= start
    if i and end <= ends[i - 1]:
        return "out of order, inside a held range"
    if (i and start < ends[i - 1]) or (i < len(starts) and starts[i] < end):
        return "out of order, overlapping held bytes"
    below = i and ends[i - 1] == start
    above = i < len(starts) and starts[i] == end
    if below and above:
        return "out of order, joining two ranges"
    if below:
        return "out of order, extending the range below"
    if above:
        return "out of order, extending the range above downward"
    return "out of order, a new range"


def arrivals(cfgs):
    """Run each ScenarioConfig and return its (start, end) arrivals at the
    receiver's reorder buffer, one list per scenario, in order."""
    from mpsim import connection, harness
    real = connection.ReassemblyState.on_data
    runs = []

    def on_data(self, start, end):
        runs[-1].append((start, end))
        return real(self, start, end)

    connection.ReassemblyState.on_data = on_data
    try:
        for cfg in cfgs:
            runs.append([])
            result = harness.run_scenario(cfg)
            assert result.stats.completed and result.stats.checksum_ok
    finally:
        connection.ReassemblyState.on_data = real
    return runs


def record(workload, seed, out):
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads
    runs = arrivals(workloads.build(workload, int(seed)))
    with open(out, "wb") as f:
        pickle.dump(runs, f)
    print(json.dumps({"workload": workload, "seed": int(seed),
                      "scenarios": len(runs),
                      "arrivals": sum(map(len, runs))}))


def load_reassembly(tree):
    """ReassemblyState as defined in TREE/src/mpsim/connection.py."""
    path = Path(tree) / "src" / "mpsim" / "connection.py"
    module = ast.parse(path.read_text())
    # the class and the module's absolute imports, so trees that import
    # differently load alike
    body = [node for node in module.body
            if isinstance(node, ast.Import)
            or isinstance(node, ast.ImportFrom) and node.level == 0
            or isinstance(node, ast.ClassDef)
            and node.name == "ReassemblyState"]
    ns = {}
    exec(compile(ast.Module(body, []), str(path), "exec"), ns)
    return ns["ReassemblyState"]


def load(path):
    with open(path, "rb") as f:
        return pickle.load(f)


def case_counts(runs):
    """How many arrivals of runs fall in each case of ARRIVAL_CASES."""
    from mpsim.connection import ReassemblyState
    counts = dict.fromkeys(ARRIVAL_CASES, 0)
    for run in runs:
        buf = ReassemblyState()
        for start, end in run:
            counts[classify(buf._starts, buf._ends, buf.rcv_data_next,
                            start, end)] += 1
            buf.on_data(start, end)
    return counts


def mix(paths):
    for path in paths:
        counts = case_counts(load(path))
        n = sum(counts.values())
        general = n - sum(counts[case] for case in SHORT_PATHS)
        print(json.dumps({
            "file": Path(path).name, "arrivals": n, "cases": counts,
            "short_paths_pct": {case: round(100 * counts[case] / n, 2)
                                for case in SHORT_PATHS},
            "general_rule_pct": round(100 * general / n, 2)}))


def first_difference(cls, reference, runs):
    """(scenario, arrival, cls's state, reference's state) at the first
    arrival after which a cls and a reference buffer differ in the result
    of on_data, the stored ranges or rcv_data_next; None if they never
    do. Each scenario starts from fresh buffers."""
    for i, run in enumerate(runs):
        buf, ref = cls(), reference()
        for j, (start, end) in enumerate(run):
            got = (buf.on_data(start, end), buf.stored_ranges,
                   buf.rcv_data_next)
            want = (ref.on_data(start, end), ref.stored_ranges,
                    ref.rcv_data_next)
            if got != want:
                return i, j, got, want
    return None


def check(tree, paths):
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    from test_connection import ReferenceReassembly
    cls = load_reassembly(tree)
    for path in paths:
        runs = load(path)
        diff = first_difference(cls, ReferenceReassembly, runs)
        if diff is not None:
            i, j, got, want = diff
            sys.exit(f"{path}: scenario {i}, arrival {j} {runs[i][j]}: "
                     f"{tree} gives {got}, the reference {want}")
        print(json.dumps({"file": Path(path).name, "scenarios": len(runs),
                          "arrivals": sum(map(len, runs)), "agree": True}))


def replay(cls, runs):
    t0 = time.perf_counter()
    for run in runs:
        on_data = cls().on_data
        for start, end in run:
            on_data(start, end)
    return time.perf_counter() - t0


def timing(tree_a, tree_b, path, passes=15):
    a, b = load_reassembly(tree_a), load_reassembly(tree_b)
    runs = load(path)
    n = sum(map(len, runs))
    ta, tb = [], []
    gc.disable()
    for _ in range(int(passes)):
        ta.append(replay(a, runs))
        tb.append(replay(b, runs))
    gc.enable()
    print(json.dumps({"file": Path(path).name, "arrivals": n,
                      "a_ns": round(1e9 * min(ta) / n, 1),
                      "b_ns": round(1e9 * min(tb) / n, 1),
                      "b_vs_a_pct": round(100 * (min(tb) / min(ta) - 1), 1)}))


if __name__ == "__main__":
    if (len(sys.argv) < 3
            or sys.argv[1] not in ("record", "mix", "check", "time")):
        sys.exit(__doc__)
    if sys.argv[1] == "record":
        record(*sys.argv[2:5])
    elif sys.argv[1] == "mix":
        sys.path.insert(0, str(ROOT / "src"))
        mix(sys.argv[2:])
    elif sys.argv[1] == "check":
        check(sys.argv[2], sys.argv[3:])
    else:
        timing(*sys.argv[2:])
