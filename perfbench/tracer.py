"""Per-layer tracing of `mpsim` from outside the package.

`Tracer.install()` replaces public functions and methods of `mpsim` with
timing wrappers, each patched where the simulator looks it up, and
`Tracer.uninstall()` puts the originals back. Spans are aggregated per
name (calls, total time, time of child spans) over a stack of open spans,
so a run with millions of calls keeps a few dozen numbers. A span's self
time is its total time minus the time its child spans cover.

A target that no longer exists is recorded in `Tracer.absent` and skipped,
so a refactor of `mpsim` turns its metrics absent instead of crashing the
benchmark. Self times include the wrappers' own cost: compare them between
commits, never with an untraced wall time.
"""

from __future__ import annotations

import importlib
import time

# (span name, module, attribute path) of every patched target.
TARGETS = (
    ("simkernel.schedule", "mpsim.simkernel", "SimKernel.schedule"),
    ("simkernel.cancel", "mpsim.simkernel", "SimKernel.cancel"),
    ("simkernel.loop", "mpsim.simkernel", "SimKernel.run_until_idle"),
    ("netmodel.transmit", "mpsim.netmodel", "Link.transmit"),
    ("connection.schedule_next", "mpsim.simulation", "schedule_next"),
    ("connection.on_data", "mpsim.connection", "ReassemblyState.on_data"),
    ("subflow.ack_update", "mpsim.subflow", "Subflow.ack_update"),
    ("subflow.rtt_update", "mpsim.subflow", "RttEstimator.update"),
    ("coupling.on_ack_increase", "mpsim.simulation", "on_ack_increase"),
    ("coupling.on_loss_decrease", "mpsim.simulation", "on_loss_decrease"),
    ("coupling.compute_alpha", "mpsim.coupling", "compute_alpha"),
    ("spurious", "mpsim.spurious", "on_retransmit_record"),
    ("spurious", "mpsim.spurious", "eifel_check"),
    ("spurious", "mpsim.spurious", "dsack_sender_check"),
    ("simulation.init", "mpsim.simulation", "Simulation.__init__"),
    ("harness.run_scenario", "mpsim.harness", "run_scenario"),
    ("harness.trace_csv_lines", "mpsim.harness", "trace_csv_lines"),
    ("config.load_scenario", "mpsim.config", "load_scenario"),
    ("config.copy", "mpsim.config", "ScenarioConfig.copy"),
)
# The span every scheduled callback runs in; it has no patch target.
HANDLER = "simulation.handler"


def _resolve(module, path):
    """(owner, attribute name), or None when any step is missing."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *owners, attr = path.split(".")
    for name in owners:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    return (owner, attr) if hasattr(owner, attr) else None


class Tracer:
    """Aggregated spans plus the counters the wrappers observe."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.spans = {}   # name -> [calls, total ns, child ns]
        self.counts = {}  # counter name -> int
        self.peaks = {}   # counter name -> highest value seen
        self.absent = []  # "module:path" of targets that do not exist
        self.busy_ns = {}  # id(link) -> transmitter busy time this scenario
        self._stack = []  # child-time accumulators of the open spans
        self._patched = []

    # ---------------------------------------------------------- spans

    def wrap(self, name, fn, before=None, after=None):
        """`fn` timed as span `name`. `before(args)` may replace the
        arguments and `after(args, result)` observes the result; both run
        outside the span but inside its parent."""
        agg = self.spans.setdefault(name, [0, 0, 0])
        stack = self._stack
        clock = self.clock

        def traced(*args, **kwargs):
            if before is not None:
                args = before(args)
            child = [0]
            stack.append(child)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                agg[0] += 1
                agg[1] += dt
                agg[2] += child[0]
                if stack:
                    stack[-1][0] += dt
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def calls(self, name):
        agg = self.spans.get(name)
        return agg[0] if agg else 0

    def self_us(self, name):
        agg = self.spans.get(name)
        return (agg[1] - agg[2]) / 1000.0 if agg else 0.0

    def count(self, name, n=1):
        self.counts[name] = self.counts.get(name, 0) + n

    def peak(self, name, value):
        if value > self.peaks.get(name, 0):
            self.peaks[name] = value

    # -------------------------------------------------------- patching

    def install(self):
        """Patch every target of TARGETS that exists."""
        hooks = self._hooks()
        for name, module, path in TARGETS:
            found = _resolve(module, path)
            if found is None:
                self.absent.append("%s:%s" % (module, path))
                continue
            owner, attr = found
            original = getattr(owner, attr)
            before, after = hooks.get(path, (None, None))
            setattr(owner, attr, self.wrap(name, original, before, after))
            self._patched.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _hooks(self):
        """path -> (before, after) for targets whose results are counted."""
        from mpsim.netmodel import DropReason

        def handler_span(args):
            # the callback is the last argument, whatever comes before it
            return args[:-1] + (self.wrap(HANDLER, args[-1]),)

        def blocked(args, pick):
            if pick is None:
                self.count("schedule_next.blocked")

        def transmit(args, out):
            link, size = args[0], args[1]
            self.peak("queue", link.queued)
            if out is DropReason.QUEUE_OVERFLOW:
                self.count("drop_overflow")
                return
            if out is DropReason.RANDOM_LOSS:
                self.count("drop_loss")
            key = id(link)
            self.busy_ns[key] = self.busy_ns.get(key, 0) \
                + size * 8e9 / link.config.capacity_bps

        def on_data(args, out):
            if out[1] is None:
                self.count("on_data.ooo")
            self.peak("reorder_ranges", len(args[0].stored_ranges))

        def ack_update(args, out):
            if not out[0]:
                self.count("ack_update.idle")

        def detection(args, verdict):
            if verdict:
                self.count("detections")

        def trace_rows(args, lines):
            self.count("trace_rows", len(lines) - 1)

        return {
            "SimKernel.schedule": (handler_span, None),
            "schedule_next": (None, blocked),
            "Link.transmit": (None, transmit),
            "ReassemblyState.on_data": (None, on_data),
            "Subflow.ack_update": (None, ack_update),
            "eifel_check": (None, detection),
            "dsack_sender_check": (None, detection),
            "trace_csv_lines": (None, trace_rows),
        }
