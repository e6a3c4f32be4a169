"""One workload in a fresh process; prints one JSON line for `run.py`.

    python3 perfbench/child.py MODE WORKLOAD SEED SECONDS

MODE is `setup` (import `mpsim` and build the workload's configs, timed),
`time` (untraced passes over the workload until the next one would end
after SECONDS, at least one) or `trace` (one untraced and one traced pass,
compared).
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _setup(name, seed):
    """Import `mpsim` from this checkout and build the workload's configs.

    Returns the set-up time twice: as host seconds, and at reference speed,
    scaled by the reference loops timed right before and right after it
    (the first loop of a fresh process only warms it up).
    """
    import refclock
    refclock.measure()
    before = refclock.measure()
    t0 = time.perf_counter()
    sys.path.insert(0, SRC)
    import workloads  # imports mpsim
    cfgs = workloads.build(name, seed)
    host_s = time.perf_counter() - t0
    setup = {"host_s": host_s, "s": refclock.at_reference_speed(
        host_s, [before, refclock.measure()])}
    mpsim_file = os.path.abspath(sys.modules["mpsim"].__file__)
    if not mpsim_file.startswith(SRC + os.sep):
        raise SystemExit("mpsim was imported from %s, not from %s"
                         % (mpsim_file, SRC))
    return workloads, cfgs, setup


def _check(workloads, name, seed, passes):
    """Failed scenario indices per pass, plus pass-level problems.

    A scenario fails in a pass if it raised, failed its output check or
    differs from the first pass.
    """
    ref = passes[0]["records"]
    failed, notes = [], []
    for p in passes:
        bad = set(p["failures"]) | {
            i for i, (a, b) in enumerate(zip(ref, p["records"])) if a != b}
        failed.append(len(bad))
        notes.extend("scenario %d: %s" % (i, p["failures"].get(
            i, "differs from the first pass")) for i in sorted(bad))
    _, counts = workloads.summarize(ref)
    if (name == "grid" and seed == 1
            and counts["segments"] != workloads.GRID_SEED1_SEGMENTS):
        notes.append("grid seed 1 sent %d segments, expected %d"
                     % (counts["segments"], workloads.GRID_SEED1_SEGMENTS))
    return failed, notes


def _host_s(p):
    return sum(t1 - t0 for t0, t1 in filter(None, p["spans"]))


def time_mode(name, seed, seconds):
    """Passes until the next one would end after SECONDS (at least one)."""
    workloads, cfgs, setup = _setup(name, seed)
    import refclock

    passes = []
    start = time.perf_counter()
    with refclock.Calibrator() as calibrator:
        while not passes or (time.perf_counter() - start
                             + _host_s(passes[-1]) <= seconds):
            passes.append(workloads.run_pass(cfgs))
            if len(passes) == 1:
                peak_rss_kb = resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss
    raw, scaled = [], []
    for p in passes:
        pairs = [calibrator.times(*span) for span in filter(None,
                                                            p["spans"])]
        raw.append([host for host, _ in pairs])
        scaled.append([ref for _, ref in pairs])
    failed, notes = _check(workloads, name, seed, passes)
    digest, counts = workloads.summarize(passes[0]["records"])
    return {
        "setup": setup,
        "scenarios": len(cfgs),
        "raw_times": raw, "scaled_times": scaled,
        "failed": sum(failed), "notes": notes,
        "digest": digest, "counts": counts,
        "peak_rss_kb": peak_rss_kb,
    }


def trace_mode(name, seed):
    workloads, cfgs, _ = _setup(name, seed)
    from tracer import Tracer
    import layers

    plain = workloads.run_pass(cfgs)
    tracer = Tracer()
    tracer.install()
    try:
        observer = layers.ScenarioObserver(tracer)
        traced_cfgs = workloads.build(name, seed)
        traced = workloads.run_pass(traced_cfgs, observer)
    finally:
        tracer.uninstall()
    failed, notes = _check(workloads, name, seed, [plain, traced])
    digest, counts = workloads.summarize(plain["records"])
    traced_digest, traced_counts = workloads.summarize(traced["records"])
    wall = _host_s(plain)
    return {
        "scenarios": len(cfgs),
        "failed": sum(failed), "notes": notes,
        "digest": digest, "counts": counts,
        "traced_digest": traced_digest, "traced_counts": traced_counts,
        "metrics": layers.metrics(tracer, observer, counts, wall,
                                  _host_s(traced)),
        "absent": tracer.absent,
    }


def main(argv):
    mode, name, seed, seconds = argv[0], argv[1], int(argv[2]), float(argv[3])
    if mode == "setup":
        out = {"setup": _setup(name, seed)[2]}
    elif mode == "time":
        out = time_mode(name, seed, seconds)
    elif mode == "trace":
        out = trace_mode(name, seed)
    else:
        raise SystemExit("unknown mode %r" % mode)
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])
