"""Command-line interface: run one scenario, sweep a link parameter, or
plot a trace CSV."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import ScenarioError, _parse_value, load_scenario
from .harness import run_scenario
from .report import (SWEEP_PARAMETERS, emit_csv, emit_plot, parse_trace_csv,
                     run_sweep)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mpsim",
        description="Deterministic multipath-TCP transfer simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one scenario")
    run_p.add_argument("scenario", help="scenario file or preset name")
    run_p.add_argument("--out", default=".", metavar="DIR",
                       help="output directory (default: current)")
    run_p.add_argument("--seed", default=None,
                       help="override the scenario seed")

    sweep_p = sub.add_parser("sweep", help="sweep one link parameter")
    sweep_p.add_argument("scenario", help="base scenario file or preset name")
    sweep_p.add_argument("--param", required=True,
                         choices=SWEEP_PARAMETERS,
                         help="capacity [Mbps], latency [ms] or loss [0..1]")
    sweep_p.add_argument("--link", required=True,
                         help="1-based link index to vary")
    sweep_p.add_argument("--values", required=True,
                         help="comma-separated values")
    sweep_p.add_argument("--out", default=".", metavar="DIR")

    plot_p = sub.add_parser("plot", help="plot a trace CSV as SVG")
    plot_p.add_argument("trace", help="trace CSV produced by `run`")
    plot_p.add_argument("--out", default=None, metavar="FILE",
                        help="output SVG path (default: <trace>.svg)")
    return parser


def _cmd_run(args) -> int:
    cfg = load_scenario(args.scenario)
    if args.seed is not None:
        cfg.seed = _parse_value("--seed", args.seed, int)
    result = run_scenario(cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    trace_path = out / "trace.csv"
    emit_csv(result.traces, trace_path)
    s = result.stats
    if s.completed:
        print("completed in %.6g s, goodput %.6g bps"
              % (s.completion_time_s, s.goodput_bps))
    else:
        print("did not complete by stop_time; delivered %d of %d bytes"
              % (s.delivered_bytes, cfg.transfer_size))
    print("per-subflow bytes: %s  retransmissions: %s"
          % (list(s.bytes_sf), list(s.retx_sf)))
    print("fast_retx=%d rtos=%d spurious_detections=%d checksum_ok=%s"
          % (s.fast_retx, s.rtos, s.spurious_detections, s.checksum_ok))
    print("trace written to %s" % trace_path)
    return 0


def _cmd_sweep(args) -> int:
    link = _parse_value("--link", args.link, int)
    cfg = load_scenario(args.scenario)
    values = [_parse_value("--values", v.strip(), float)
              for v in args.values.split(",") if v.strip()]
    rows = run_sweep(cfg, args.param, link, values)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    sweep_path = out / ("sweep_%s_link%d.csv" % (args.param, link))
    emit_csv(rows, sweep_path)
    print("sweep of %d points written to %s" % (len(rows), sweep_path))
    return 0


def _cmd_plot(args) -> int:
    records = parse_trace_csv(args.trace)
    out = args.out or (str(Path(args.trace).with_suffix("")) + ".svg")
    emit_plot(records, out)
    print("plot written to %s" % out)
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        return _cmd_plot(args)
    except (ScenarioError, OSError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
