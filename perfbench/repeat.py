"""Run the benchmark once per seed and summarize each metric's spread.

    python3 perfbench/repeat.py --seeds 10 [--workload grid ...] [--trace 1]
        [--out perfbench/baseline.json --label "seed commit"]

Each run is the command of BENCHMARK.json with `--seed 1..N`. For every
metric it prints the median, the quartiles (`statistics.quantiles(n=4)`)
and their distance as a share of the median, next to the metric's bound.
`--out` also writes every run's metrics and output digest, with the
machine they ran on.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", nargs="+", choices=names, default=names)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    parser.add_argument("--label", default="")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {"label": args.label, "trace": args.trace,
              "seconds": bench["run_seconds"],
              "machine": {"nproc": os.cpu_count(),
                          "python": platform.python_version(),
                          "platform": platform.platform()},
              "workloads": {}}
    for workload in args.workload:
        runs = []
        for seed in range(1, args.seeds + 1):
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]),
                "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result["seed"] = seed
            digest = re.search(r"^  digest +([0-9a-f]{64})$", proc.stdout,
                               re.M)
            result["digest"] = digest.group(1) if digest else None
            runs.append(result)
            print("%s seed %d: correct=%s %s" % (
                workload, seed, result["correct"], " ".join(
                    "%s=%.6g" % (k, v["value"])
                    for k, v in result["metrics"].items()
                    if k in bounds)), flush=True)
        summary = {name: summarize([r["metrics"][name]["value"]
                                    for r in runs])
                   for name in runs[0]["metrics"]}
        report["workloads"][workload] = {"runs": runs, "summary": summary}
        for name, s in summary.items():
            bound = bounds.get(name)
            verdict = ""
            if bound is not None:
                verdict = "bound %.2f %s" % (
                    bound, "ok" if s["spread"] < bound / 3 else "WIDE")
            print("%-8s %-40s median %14.6g  q1 %14.6g  q3 %14.6g  "
                  "spread %.4f %s" % (workload, name, s["median"], s["q1"],
                                      s["q3"], s["spread"], verdict))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
