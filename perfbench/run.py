"""mpsim host-cost benchmark: end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload grid --seed 1 --seconds 30 --trace 0

Runs from the root of a checkout and imports `mpsim` from its `src/`.
Every workload runs in its own fresh child process (`child.py`), one at a
time, with no threads. `--trace 0` times untraced passes over the
workload for about `--seconds` and prints the end-to-end metrics;
`--trace 1` runs one untraced and one traced pass and prints the
per-layer metrics. Both check every scenario's output. The last line of standard output is one JSON
object with the keys `correct`, `attempted`, `failed` and `metrics`.
Without `--workload`, all three workloads run one after another.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
WORKLOADS = ("grid", "bulk", "reorder")
SETUP_PROBES = 20      # extra processes that only time set-up
DEADLINE_S = 170.0     # a run must end within 180 s
NOTE = ("note: host timings are taken on a shared %d-core box, one workload "
        "process at a time; per-layer self_us values include wrapper "
        "overhead, so they compare between commits only, never with "
        "untraced wall_s.")


class ChildFailed(Exception):
    pass


def _child(mode, workload, seed, seconds, deadline):
    """Run child.py in a fresh process; returns its JSON output."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    timeout = max(deadline - time.monotonic(), 1.0)
    try:
        proc = subprocess.run(
            [sys.executable, CHILD, mode, workload, str(seed), str(seconds)],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=timeout)
    except subprocess.TimeoutExpired:
        raise ChildFailed("%s %s: no result within %.0f s"
                          % (mode, workload, timeout)) from None
    if proc.returncode != 0:
        raise ChildFailed("%s %s exited with %d:\n%s"
                          % (mode, workload, proc.returncode,
                             proc.stderr.strip()))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _p96(samples):
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[95]


def end_to_end(workload, seed, seconds, deadline):
    out = _child("time", workload, seed, seconds, deadline)
    setups = [out["setup"]] + [
        _child("setup", workload, seed, 0, deadline)["setup"]
        for _ in range(SETUP_PROBES)]
    walls = [sum(times) for times in out["scaled_times"]]
    # each scenario's median over the passes; percentiles over scenarios
    scenario_s = [statistics.median(samples)
                  for samples in zip(*out["scaled_times"])]
    wall_s = statistics.median(walls)
    segments = out["counts"]["segments"]
    metrics = {
        "wall_s": (wall_s, "s"),
        "us_per_segment": (wall_s / segments * 1e6, "us"),
        "scenario_ms_p50": (statistics.median(scenario_s) * 1e3, "ms"),
        "scenario_ms_p96": (_p96(scenario_s) * 1e3, "ms"),
        "peak_rss_mb": (out["peak_rss_kb"] / 1024.0, "MiB"),
        "setup_s": (statistics.median(s["s"] for s in setups), "s"),
    }
    raw_wall_s = statistics.median(sum(t) for t in out["raw_times"])
    lines = ["%d pass(es) of %d scenarios" % (len(walls), out["scenarios"]),
             "times are host times at reference speed (refclock.py); "
             "raw host wall_s %.4g s, %.3g x reference" % (
                 raw_wall_s, raw_wall_s / wall_s),
             "setup_s is the median of %d fresh processes; raw host "
             "median %.4g s" % (len(setups), statistics.median(
                 s["host_s"] for s in setups))]
    return out, len(walls) * out["scenarios"], metrics, lines


def per_layer(workload, seed, deadline):
    out = _child("trace", workload, seed, 0, deadline)
    metrics = {name: tuple(pair) for name, pair in out["metrics"].items()}
    lines = ["traced digest  %s" % out["traced_digest"],
             "traced counts  %s" % _fmt_counts(out["traced_counts"])]
    lines += ["absent target  %s" % target for target in out["absent"]]
    idle = sorted(name for name, (value, unit) in metrics.items()
                  if unit != "ratio" and value == 0)
    if idle:
        lines.append("zero (function absent or not run): " + ", ".join(idle))
    return out, 2 * out["scenarios"], metrics, lines


def _fmt_counts(counts):
    return " ".join("%s=%s" % (key, "absent" if value is None else value)
                    for key, value in counts.items())


def run_one(workload, seed, seconds, trace):
    deadline = time.monotonic() + DEADLINE_S
    if trace:
        out, attempted, metrics, lines = per_layer(workload, seed, deadline)
    else:
        out, attempted, metrics, lines = end_to_end(workload, seed, seconds,
                                                    deadline)
    failed = out["failed"]
    correct = failed == 0 and not out["notes"]
    print("perfbench %s seed=%d trace=%d" % (workload, seed, trace))
    for line in lines:
        print("  " + line)
    for name, (value, unit) in metrics.items():
        print("  %-40s %14.6g %s" % (name, value, unit))
    print("  %-40s %14.6g ratio (%d of %d scenario runs)"
          % ("failed_frac", failed / attempted, failed, attempted))
    print("  digest         %s" % out["digest"])
    print("  counts         %s" % _fmt_counts(out["counts"]))
    for note in out["notes"][:20]:
        print("  FAILED " + note)
    print(NOTE % os.cpu_count())
    print(json.dumps({
        "correct": correct, "attempted": attempted,
        "failed": max(failed, 0 if correct else 1),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "mpsim")):
        print("no src/mpsim under %s: run from a checkout of mpsim" % ROOT,
              file=sys.stderr)
        return 2
    for workload in [args.workload] if args.workload else WORKLOADS:
        try:
            run_one(workload, args.seed, args.seconds, args.trace)
        except ChildFailed as exc:
            print("perfbench: %s" % exc, file=sys.stderr)
            return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
