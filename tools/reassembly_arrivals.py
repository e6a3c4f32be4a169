"""Sort the arrivals a benchmark workload hands the receiver's reorder
buffer into arrival cases, and give the share each of
ReassemblyState.on_data's short paths takes.

    python tools/reassembly_arrivals.py WORKLOAD [SEED]

It runs every scenario of a perfbench workload (grid, bulk or reorder; SEED
defaults to 1) with the repository's own `src/`, keeps each scenario's
(start, end) arrivals in order, replays them into a fresh buffer per
scenario and counts each case of ARRIVAL_CASES. It prints one JSON line:
the counts, the share of arrivals each of on_data's SHORT_PATHS takes and
the share left to its general rule, the figures of README's path-share
table. tests/test_connection.py takes the case names, `classify` and
`arrivals` from here, and compares on_data with its reference on every
arrival of the reorder workload at seed 1.
"""

import argparse
import json
import sys
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
            stats = harness.run_scenario(cfg).stats
            assert stats.completed and stats.checksum_ok, \
                "scenario %d: %r" % (len(runs) - 1, stats)
    finally:
        connection.ReassemblyState.on_data = real
    return runs


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


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="arrival cases of a workload's reorder buffers")
    parser.add_argument("workload", choices=("grid", "bulk", "reorder"))
    parser.add_argument("seed", nargs="?", type=int, default=1)
    args = parser.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads
    counts = case_counts(arrivals(workloads.build(args.workload, args.seed)))
    n = sum(counts.values())
    general = n - sum(counts[case] for case in SHORT_PATHS)
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "arrivals": n,
        "cases": counts,
        "short_paths_pct": {case: round(100 * counts[case] / n, 2)
                            for case in SHORT_PATHS},
        "general_rule_pct": round(100 * general / n, 2)}))


if __name__ == "__main__":
    main()
