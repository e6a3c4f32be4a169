"""Per-segment logs of a run. The engine keeps none, so a default run's
memory does not grow with its segments; a test that reads them runs a
`Recorder` in place of a `Simulation`."""

from mpsim.simkernel import NS_PER_S
from mpsim.simulation import Simulation


class Recorder(Simulation):
    """A Simulation that also logs, with 1-based subflows:

    - `sends`: `(ns, subflow)` for every data segment sent, resends too;
    - `arrivals`: `(ns, subflow, bytes, new_bytes)` for every data segment
      that arrives, `new_bytes` being how far it moved `rcv_data_next`;
    - `srtts`: `(time_s, subflow, smoothed rtt)` for every subflow at every
      trace sample, the one at the run's end included;
    - `states`: `(rows, subflow, cwnd, ssthresh, phase)` for every subflow
      at every trace sample, `rows` being the trace's length right after
      the sample, whether or not it wrote the subflow's row."""

    def __init__(self, cfg):
        super().__init__(cfg)
        self.sends = []
        self.arrivals = []
        self.srtts = []
        self.states = []

    def _send_mapping(self, sf, m):
        self.sends.append((self.kernel.now, sf.index + 1))
        super()._send_mapping(sf, m)

    def _on_data(self, sf_id, data_seq, size, ts_val):
        before = self.recv.rcv_data_next
        super()._on_data(sf_id, data_seq, size, ts_val)
        self.arrivals.append((self.kernel.now, sf_id + 1, size,
                              self.recv.rcv_data_next - before))

    def _on_trace_sample(self, now, every=False):
        super()._on_trace_sample(now, every)
        now_s, rows = now / NS_PER_S, len(self.traces)
        for sf in self.subflows:
            self.srtts.append((now_s, sf.index + 1, sf.estimator.rtt))
            self.states.append((rows, sf.index + 1, sf.cwnd, sf.ssthresh,
                                sf.phase))


def assert_trace_holds_every_state(rec, traces):
    """A reader who holds each subflow's last row, in trace order, has the
    subflow's (cwnd, ssthresh, phase) of every sample `rec` logged, whether
    or not the sample wrote a row."""
    held, seen = {}, 0
    for rows, sf, *state in rec.states:
        for r in traces[seen:rows]:
            held[r.subflow] = (r.cwnd, r.ssthresh, r.phase)
        seen = rows
        assert held[sf] == tuple(state), (rows, sf)
