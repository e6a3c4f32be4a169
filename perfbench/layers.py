"""Per-layer metrics of one traced pass, named as in BENCHMARK.json.

Layers are the modules of `src/mpsim/`. `.calls` values are exact counts;
`.self_us` values are span time minus child span time, in microseconds,
and include the wrappers' own cost.
"""

from __future__ import annotations

# RunResult lists that grow with the number of segments or events.
RECORD_LISTS = ("sends", "arrivals", "traces", "srtts", "detections")


class ScenarioObserver:
    """Collects what the spans cannot see, after each traced scenario."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.records_held = 0
        self.fwd_busy_ns = 0.0
        self.fwd_span_ns = 0

    def __call__(self, sim, result):
        self.records_held += sum(len(getattr(result, name, ()))
                                 for name in RECORD_LISTS)
        busy = self.tracer.busy_ns
        self.fwd_busy_ns += sum(busy.get(id(link), 0.0)
                                for link in sim.links_fwd)
        self.fwd_span_ns += len(sim.links_fwd) * sim.kernel.now
        busy.clear()


def _frac(num, den):
    return num / den if den else 0.0


def metrics(tracer, observer, counts, wall_s, traced_wall_s):
    """name -> (value, unit) for every per-layer metric.

    `counts` are the untraced pass's exact counts, `wall_s` its host time;
    `traced_wall_s` is the traced pass's host time.
    """
    calls, self_us = tracer.calls, tracer.self_us
    count = tracer.counts.get
    events = calls("simulation.handler")
    out = {
        "simkernel.schedule.calls": calls("simkernel.schedule"),
        "simkernel.schedule.self_us": self_us("simkernel.schedule"),
        "simkernel.cancel.calls": calls("simkernel.cancel"),
        "simkernel.cancel_frac": _frac(calls("simkernel.cancel"),
                                       calls("simkernel.schedule")),
        "simkernel.events": events,
        "simkernel.loop.self_us": self_us("simkernel.loop"),
        "simkernel.events_per_s": _frac(events, wall_s),
        "netmodel.transmit.calls": calls("netmodel.transmit"),
        "netmodel.transmit.self_us": self_us("netmodel.transmit"),
        "netmodel.drop_overflow": count("drop_overflow", 0),
        "netmodel.drop_loss": count("drop_loss", 0),
        "netmodel.peak_queue": tracer.peaks.get("queue", 0),
        "netmodel.fwd_utilisation": _frac(observer.fwd_busy_ns,
                                          observer.fwd_span_ns),
        "connection.schedule_next.calls": calls("connection.schedule_next"),
        "connection.schedule_next.self_us":
            self_us("connection.schedule_next"),
        "connection.schedule_next.blocked_frac": _frac(
            count("schedule_next.blocked", 0),
            calls("connection.schedule_next")),
        "connection.on_data.calls": calls("connection.on_data"),
        "connection.on_data.self_us": self_us("connection.on_data"),
        "connection.reorder_peak_ranges": tracer.peaks.get("reorder_ranges",
                                                           0),
        "connection.ooo_frac": _frac(count("on_data.ooo", 0),
                                     calls("connection.on_data")),
        "subflow.ack_update.calls": calls("subflow.ack_update"),
        "subflow.ack_update.self_us": self_us("subflow.ack_update"),
        "subflow.ack_update.idle_frac": _frac(count("ack_update.idle", 0),
                                              calls("subflow.ack_update")),
        "subflow.rtt_update.calls": calls("subflow.rtt_update"),
        "coupling.on_ack_increase.calls": calls("coupling.on_ack_increase"),
        "coupling.on_ack_increase.self_us":
            self_us("coupling.on_ack_increase"),
        "coupling.compute_alpha.calls": calls("coupling.compute_alpha"),
        "coupling.compute_alpha.self_us": self_us("coupling.compute_alpha"),
        "coupling.on_loss_decrease.calls": calls("coupling.on_loss_decrease"),
        "spurious.calls": calls("spurious"),
        "spurious.self_us": self_us("spurious"),
        "spurious.detections": count("detections", 0),
        "spurious.spurious_frac": _frac(count("detections", 0),
                                        counts["retransmissions"]),
        "simulation.handler.calls": events,
        "simulation.handler.self_us": self_us("simulation.handler"),
        "simulation.init.self_us": self_us("simulation.init"),
        "simulation.records_held": observer.records_held,
        "harness.run_scenario.calls": calls("harness.run_scenario"),
        "harness.trace_csv_lines.self_us": self_us("harness.trace_csv_lines"),
        "harness.trace_rows": count("trace_rows", 0),
        "config.load_scenario.self_us": self_us("config.load_scenario"),
        "config.copy.calls": calls("config.copy"),
        "trace_overhead_frac": _frac(traced_wall_s, wall_s) - 1.0,
    }
    return {name: (value, _unit(name)) for name, value in out.items()}


def _unit(name):
    if name.endswith("self_us"):
        return "us"
    if name.endswith("frac") or name.endswith("utilisation"):
        return "ratio"
    if name.endswith("per_s"):
        return "1/s"
    return "count"
