"""Command-line entry point: regenerate paper experiments.

Usage::

    python -m repro list [--json]
    python -m repro fig02 [--scale small|default|full] [--seed N]
    python -m repro fig02 --metrics m.jsonl --trace t.jsonl --progress
    python -m repro fig02 --spans spans.json
    python -m repro table1
    python -m repro all --scale small
    python -m repro run fig06 --jobs 4
    python -m repro run fig06 --checkpoint ckpt/ --checkpoint-every 4
    python -m repro run fig06 --resume ckpt/
    python -m repro run chaos --faults examples/faults/chaos_demo.json
    python -m repro fig06 --progress-jsonl progress.jsonl
    python -m repro status progress.jsonl
    python -m repro top progress.jsonl --interval 2
    python -m repro fig06 --flows flows.jsonl
    python -m repro flows summary flows.jsonl
    python -m repro flows matrix flows.jsonl --by-kind
    python -m repro flows windows flows.jsonl
    python -m repro flows top flows.jsonl --limit 10
    python -m repro report --scale small --out scorecard.md

``all`` runs every single-session figure and Table 1 (the four canonical
sessions are simulated once and shared); ``fig06`` runs the campaign and
is therefore much slower.  A leading ``run`` token is accepted and
ignored (``repro run fig06`` == ``repro fig06``); ``--jobs N`` fans
parallelisable experiments — currently the fig06 campaign — out to N
worker processes with byte-identical output (see ``docs/PARALLEL.md``).

``--checkpoint DIR`` persists each completed campaign (program, day)
unit to DIR as an atomic, digest-stamped artifact; ``--resume DIR``
restarts a killed campaign from those artifacts, simulating only the
missing days, with output byte-identical to an uninterrupted run
(fig06 and resilience — see ``docs/CHECKPOINT.md``).

``chaos`` runs the fault-injection study (see ``docs/ROBUSTNESS.md``):
a clean and a faulted session from the same seed, with recovery
measured per fault.  ``resilience`` sweeps misbehaving-peer models
over attachment fractions and scores each cell against a clean
baseline.  ``--faults script.json`` loads a declarative
:class:`repro.faults.FaultSchedule`; with any other experiment it arms
the schedule onto the simulated sessions, showing that figure *under*
faults.

``report`` builds the run-fidelity scorecard: every paper-target
statistic of Figures 2-5/11-18 and Table 1 measured against its target
range, plus engine perf numbers, written as markdown (or HTML with
``--format html``) and appended as one JSON record to
``benchmarks/results/trend.jsonl``.

``status`` and ``top`` read a ``--progress-jsonl`` artifact — live
mid-run (a torn final line is tolerated) or finished — and print a
one-shot summary with ETA, or a refresh-loop live view, respectively
(see ``docs/OBSERVABILITY.md``, "Watching a live run").

``flows`` reads a ``--flows`` artifact (live or finished, torn-tail
tolerant like ``status``) and prints the merged traffic view:
``summary`` (totals, intra/transit shares), ``matrix`` (ISP×ISP bytes
and datagrams, ``--by-kind`` for the per-message-kind split),
``windows`` (the tumbling-window locality time-series) or ``top`` (the
heaviest peer-pair flows) — see ``docs/OBSERVABILITY.md``,
"Traffic flows".

Observability flags (see ``docs/OBSERVABILITY.md``):

* ``--metrics PATH``  — dump the metrics registry after the run
  (JSONL, or CSV when PATH ends in ``.csv``),
* ``--trace PATH``    — stream structured trace records to a JSONL file,
* ``--spans PATH``    — record causal transaction spans: Chrome
  trace-event JSON when PATH ends in ``.json`` (opens in Perfetto /
  ``chrome://tracing``), streaming JSONL otherwise,
* ``--log-level L``   — bridge trace records into stdlib logging on
  stderr at level ``L`` (debug|info|warning|error),
* ``--progress``      — print heartbeat progress lines to stderr,
* ``--progress-jsonl PATH`` — stream the run's progress bus (run
  start, heartbeats, per-day/per-job completions, terminal summary)
  to PATH as append-only JSONL; readable mid-run by ``repro status``
  / ``repro top``.  The ``run_summary`` footer is written even when
  the run crashes or is interrupted,
* ``--flows PATH``    — account every delivered datagram into the
  streaming traffic-flow ledger (ISP×ISP matrix, windowed locality,
  top-k peer-pair flows) and write the versioned JSONL artifact to
  PATH; ``--flows-window`` / ``--flows-top`` tune the ledger.  Read
  it with ``repro flows``.

Without any of these flags the simulator runs completely
uninstrumented and its output is byte-identical to earlier releases.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import logging
import io
import os
import sys
import time
from pathlib import Path
from typing import List, Optional

from . import __version__
from .checkpoint import CheckpointError
from .experiments import (ALL_EXPERIMENT_IDS, EXPERIMENT_DESCRIPTIONS,
                          Scale, WorkloadBank, run_experiment)
from .obs import (ChromeTraceSink, EngineProfiler, FlowSpec, FlowsWriter,
                  Instrumentation, JsonlSink, JsonlSpanSink, LoggingSink,
                  ProgressBus, TeeSink, flows_summary_payload,
                  level_from_name, read_flows, read_progress,
                  render_flow_matrix, render_flow_summary,
                  render_flow_top, render_flow_windows, render_status,
                  summarize_flows, summarize_progress, write_metrics_csv,
                  write_metrics_jsonl)

_LOG_LEVELS = ("debug", "info", "warning", "error")

#: Default trend file the ``report`` subcommand appends to.
DEFAULT_TREND_PATH = "benchmarks/results/trend.jsonl"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce tables/figures from 'A Case Study of "
                    "Traffic Locality in Internet P2P Live Streaming "
                    "Systems' (ICDCS 2009).")
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    parser.add_argument(
        "experiment",
        # Generated from the registry so this help can never list an
        # experiment the registry doesn't have (or miss one it does).
        help=f"experiment id ({', '.join(ALL_EXPERIMENT_IDS)}), 'all' "
             f"for every single-session experiment, 'list', or 'report'")
    parser.add_argument(
        "--scale", choices=[s.value for s in Scale], default="small",
        help="workload scale (default: small; 'full' is the paper's "
             "2-hour sessions)")
    parser.add_argument("--seed", type=int, default=7,
                        help="master seed (default: 7)")
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for parallelisable experiments (the "
             "fig06 campaign, the chaos session pair, the resilience "
             "sweep); results are "
             "byte-identical for every N (default: 1 = serial "
             "in-process)")
    parser.add_argument(
        "--faults", metavar="PATH", default=None,
        help="JSON fault schedule (repro.faults.FaultSchedule) armed "
             "onto the simulated sessions; 'chaos' uses it as the "
             "injected storm (default: a built-in demo storm)")
    parser.add_argument(
        "--json", action="store_true",
        help="with 'list': emit the experiment registry as JSON")
    ckpt_group = parser.add_argument_group(
        "checkpointing (fig06 campaign and resilience sweep; see "
        "docs/CHECKPOINT.md)")
    ckpt_group.add_argument(
        "--checkpoint", metavar="DIR", default=None,
        help="persist completed campaign (program, day) units to DIR "
             "as atomic, digest-stamped artifacts; a killed run "
             "restarts from them with --resume")
    ckpt_group.add_argument(
        "--resume", metavar="DIR", default=None,
        help="resume a campaign from the checkpoint in DIR (and keep "
             "checkpointing new units there); the result is "
             "byte-identical to an uninterrupted run")
    ckpt_group.add_argument(
        "--checkpoint-every", type=int, default=1, metavar="N",
        help="flush completed units to the checkpoint in batches of N "
             "(default: 1 = after every unit; larger N trades re-work "
             "after a kill for fewer fsyncs)")
    obs_group = parser.add_argument_group("observability")
    obs_group.add_argument(
        "--metrics", metavar="PATH", default=None,
        help="write the metrics registry to PATH after the run "
             "(JSONL; CSV when PATH ends in .csv)")
    obs_group.add_argument(
        "--trace", metavar="PATH", default=None,
        help="stream structured trace records to PATH as JSONL")
    obs_group.add_argument(
        "--spans", metavar="PATH", default=None,
        help="record causal transaction spans to PATH: Chrome "
             "trace-event JSON when PATH ends in .json (Perfetto / "
             "chrome://tracing), streaming JSONL otherwise")
    obs_group.add_argument(
        "--log-level", choices=_LOG_LEVELS, default=None,
        help="also log trace records to stderr via stdlib logging at "
             "this severity")
    obs_group.add_argument(
        "--progress", action="store_true",
        help="print periodic heartbeat progress lines to stderr")
    obs_group.add_argument(
        "--progress-jsonl", metavar="PATH", default=None,
        help="stream the live progress bus to PATH as append-only "
             "JSONL (tail it, or point 'repro status' / 'repro top' "
             "at it while the run executes)")
    obs_group.add_argument(
        "--flows", metavar="PATH", default=None,
        help="account delivered traffic in the streaming flow ledger "
             "(ISP×ISP matrix, windowed locality, top-k peer pairs) "
             "and write the JSONL artifact to PATH; read it with "
             "'repro flows'")
    obs_group.add_argument(
        "--flows-window", type=float, default=60.0, metavar="SECONDS",
        help="flow-ledger tumbling-window length in simulated seconds "
             "(default: 60)")
    obs_group.add_argument(
        "--flows-top", type=int, default=32, metavar="K",
        help="capacity of the flow ledger's top-k peer-pair sketch "
             "(default: 32)")
    return parser


def build_status_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro status",
        description="One-shot summary of a run's --progress-jsonl "
                    "artifact: state, sim/campaign progress, engine "
                    "throughput, swarm composition, ETA.  Works on "
                    "finished runs and mid-flight ones (a torn final "
                    "line is tolerated).")
    parser.add_argument("path",
                        help="progress.jsonl artifact (live or finished)")
    parser.add_argument("--json", action="store_true",
                        help="emit the status summary as JSON")
    return parser


def _read_summary(path: str):
    """Progress records -> status summary, or (None, exit_code)."""
    try:
        records, tail = read_progress(path, with_tail=True)
    except OSError as exc:
        print(f"cannot read {path}: {exc}", file=sys.stderr)
        return None, 2
    except ValueError as exc:
        print(f"corrupt progress stream {path}: {exc}", file=sys.stderr)
        return None, 2
    if not records and tail:
        # Nothing but a torn fragment of the first record: the run is
        # alive but there is no status to report yet.  Distinct from an
        # empty file (exit 0, "no records yet").
        print(f"{path}: no complete records yet (the first line is "
              f"still being written); try again shortly",
              file=sys.stderr)
        return None, 1
    return summarize_progress(records), 0


def _status(argv: List[str]) -> int:
    args = build_status_parser().parse_args(argv)
    summary, code = _read_summary(args.path)
    if summary is None:
        return code
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        print(render_status(summary, source=args.path))
    return 0


def build_top_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro top",
        description="Refresh-loop live view of a run's --progress-jsonl "
                    "artifact; exits when the run finishes (or on "
                    "Ctrl-C).")
    parser.add_argument("path",
                        help="progress.jsonl artifact (live or finished)")
    parser.add_argument("--interval", type=float, default=2.0,
                        metavar="SECONDS",
                        help="refresh interval (default: 2.0)")
    parser.add_argument(
        "--iterations", type=int, default=0, metavar="N",
        help="stop after N refreshes (default: 0 = until the run "
             "finishes)")
    return parser


def _top(argv: List[str]) -> int:
    args = build_top_parser().parse_args(argv)
    refreshes = 0
    try:
        while True:
            summary, code = _read_summary(args.path)
            if summary is None:
                return code
            if sys.stdout.isatty():  # pragma: no cover - interactive only
                print("\x1b[2J\x1b[H", end="")
            print(render_status(summary, source=args.path))
            sys.stdout.flush()
            refreshes += 1
            if args.iterations and refreshes >= args.iterations:
                return 0
            if summary.get("state") not in ("empty", "running"):
                return 0  # the footer landed: nothing more will arrive
            time.sleep(args.interval)
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        return 0


def build_flows_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro flows",
        description="Inspect a run's --flows artifact: merged traffic "
                    "totals, the ISP×ISP matrix, the windowed locality "
                    "time-series, or the heaviest peer-pair flows.  "
                    "Works on finished runs and mid-flight ones (a "
                    "torn final line is tolerated).")
    parser.add_argument("view",
                        choices=("summary", "matrix", "windows", "top"),
                        help="which traffic view to print")
    parser.add_argument("path",
                        help="flows.jsonl artifact (live or finished)")
    parser.add_argument("--json", action="store_true",
                        help="emit the view as JSON")
    parser.add_argument("--by-kind", action="store_true",
                        help="with 'matrix': keep the per-message-kind "
                             "split instead of folding kinds together")
    parser.add_argument("--limit", type=int, default=0, metavar="N",
                        help="with 'top': print only the N heaviest "
                             "flows (default: 0 = all tracked)")
    return parser


def _flows(argv: List[str]) -> int:
    args = build_flows_parser().parse_args(argv)
    try:
        records, tail = read_flows(args.path, with_tail=True)
    except OSError as exc:
        print(f"cannot read {args.path}: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"corrupt flows artifact {args.path}: {exc}",
              file=sys.stderr)
        return 2
    if not records and tail:
        print(f"{args.path}: no complete records yet (the first line "
              f"is still being written); try again shortly",
              file=sys.stderr)
        return 1
    if args.view == "summary":
        summary = summarize_flows(records)
        if args.json:
            print(json.dumps(summary, indent=2, sort_keys=True))
        else:
            print(render_flow_summary(summary, source=args.path))
        return 0
    payload = flows_summary_payload(records)
    if payload is None:
        print(f"{args.path}: no unit flow records yet — the ledger "
              f"reports each session/campaign unit as it finishes",
              file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    elif args.view == "matrix":
        print(render_flow_matrix(payload, by_kind=args.by_kind))
    elif args.view == "windows":
        print(render_flow_windows(payload))
    else:
        print(render_flow_top(payload, limit=args.limit or None))
    return 0


def build_report_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro report",
        description="Build the run-fidelity scorecard: reproduced "
                    "paper statistics vs target ranges, plus engine "
                    "perf, appended to the benchmark trend file.")
    parser.add_argument(
        "--scale", choices=[s.value for s in Scale], default="small",
        help="workload scale for the scored runs (default: small)")
    parser.add_argument("--seed", type=int, default=7,
                        help="master seed (default: 7)")
    parser.add_argument(
        "--out", metavar="PATH", default=None,
        help="write the scorecard to PATH (default: stdout)")
    parser.add_argument(
        "--format", choices=("markdown", "html"), default=None,
        help="output format (default: by --out extension, else "
             "markdown)")
    parser.add_argument(
        "--label", default="", help="free-form label recorded in the "
                                    "scorecard and the trend record")
    parser.add_argument(
        "--metrics-in", metavar="PATH", default=None,
        help="fold a finished run's --metrics JSONL artifact into the "
             "perf block instead of this run's own numbers")
    parser.add_argument(
        "--spans-in", metavar="PATH", default=None,
        help="fold a finished run's --spans artifact (JSONL or Chrome "
             "trace) into the perf block's span count")
    parser.add_argument(
        "--trend", metavar="PATH", default=DEFAULT_TREND_PATH,
        help=f"trend file to append the JSON record to (default: "
             f"{DEFAULT_TREND_PATH})")
    parser.add_argument(
        "--no-trend", action="store_true",
        help="skip the trend.jsonl append")
    return parser


def build_instrumentation(args) -> Optional[Instrumentation]:
    """An enabled bundle when any obs flag was given, else ``None``."""
    if not (args.metrics or args.trace or args.spans or args.log_level
            or args.progress or args.progress_jsonl
            or getattr(args, "flows", None)):
        return None
    trace_level = level_from_name(args.log_level or "info")
    sinks = []
    if args.trace:
        sinks.append(JsonlSink(args.trace, level=trace_level))
    if args.log_level:
        logging.basicConfig(stream=sys.stderr, level=trace_level,
                            format="%(levelname)s %(name)s %(message)s")
        sinks.append(LoggingSink(logging.getLogger("repro"),
                                 level=trace_level))
    if len(sinks) > 1:
        sink = TeeSink(sinks)
    elif sinks:
        sink = sinks[0]
    else:
        sink = None
    spans = None
    if args.spans:
        spans = ChromeTraceSink(args.spans) if args.spans.endswith(".json") \
            else JsonlSpanSink(args.spans)
    progress_bus = ProgressBus(args.progress_jsonl) \
        if args.progress_jsonl else None
    flows = None
    if getattr(args, "flows", None):
        spec = FlowSpec(window=args.flows_window, top_k=args.flows_top)
        try:
            spec.validate()
        except ValueError as exc:
            raise SystemExit(f"bad --flows configuration: {exc}")
        flows = FlowsWriter(args.flows, spec)
    return Instrumentation(trace=sink, spans=spans,
                           profiler=EngineProfiler(),
                           progress=args.progress,
                           progress_bus=progress_bus,
                           flows=flows)


def _write_metrics(obs: Instrumentation, path: str) -> int:
    if path.endswith(".csv"):
        return write_metrics_csv(obs.metrics, path)
    return write_metrics_jsonl(obs.metrics, path)


def _run_one(experiment_id: str, bank: WorkloadBank, scale: Scale,
             seed: int,
             instrumentation: Optional[Instrumentation] = None,
             jobs: int = 1, faults=None, checkpoint=None) -> None:
    started = time.time()
    result = run_experiment(experiment_id, bank=bank, scale=scale,
                            seed=seed, instrumentation=instrumentation,
                            jobs=jobs, faults=faults,
                            checkpoint=checkpoint)
    elapsed = time.time() - started
    print(result.render())
    print(f"[{experiment_id} regenerated in {elapsed:.1f}s]")
    print()


def _list_experiments(as_json: bool) -> int:
    # Strict registry lookups: an experiment id without a description
    # is a registration bug and must fail loudly here (and in the
    # registry/CLI sync test), not silently print an empty column.
    if as_json:
        from .experiments.collect import PAPER_TARGETS
        records = [{"id": experiment_id,
                    "description": EXPERIMENT_DESCRIPTIONS[experiment_id],
                    "paper": PAPER_TARGETS.get(experiment_id, "")}
                   for experiment_id in ALL_EXPERIMENT_IDS]
        print(json.dumps(records, indent=2))
        return 0
    width = max(len(eid) for eid in ALL_EXPERIMENT_IDS) + 2
    for experiment_id in ALL_EXPERIMENT_IDS:
        description = EXPERIMENT_DESCRIPTIONS[experiment_id]
        print(f"{experiment_id:<{width}}{description}".rstrip())
    return 0


def _report(argv: List[str]) -> int:
    from .experiments.scorecard import (append_trend, build_scorecard,
                                        perf_from_artifacts)
    args = build_report_parser().parse_args(argv)
    card = build_scorecard(scale=Scale(args.scale), seed=args.seed,
                           label=args.label)
    if args.metrics_in or args.spans_in:
        card.perf = perf_from_artifacts(args.metrics_in, args.spans_in)

    fmt = args.format
    if fmt is None:
        fmt = "html" if (args.out or "").endswith((".html", ".htm")) \
            else "markdown"
    rendered = card.render_html() if fmt == "html" \
        else card.render_markdown()
    if args.out:
        Path(args.out).write_text(rendered, encoding="utf-8")
        print(f"[scorecard: {card.passed}/{card.scored} in range "
              f"-> {args.out}]", file=sys.stderr)
    else:
        print(rendered)
    if not args.no_trend:
        append_trend(card, Path(args.trend))
        print(f"[trend record appended -> {args.trend}]",
              file=sys.stderr)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    try:
        return _main(argv)
    except BrokenPipeError:  # e.g. `repro list | head`
        # The reader went away; reopen stdout on devnull so the
        # interpreter's shutdown flush does not raise again (skipped
        # when stdout has no real file descriptor, e.g. under pytest).
        try:
            devnull = open(os.devnull, "w")
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        except (OSError, ValueError, io.UnsupportedOperation):
            pass
        return 0


def _main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] == "run":
        argv = argv[1:]  # "repro run fig06" == "repro fig06"
    if argv and argv[0] == "report":
        return _report(argv[1:])
    if argv and argv[0] in ("status", "top"):
        handler = _status if argv[0] == "status" else _top
        return handler(argv[1:])
    if argv and argv[0] == "flows":
        return _flows(argv[1:])
    args = build_parser().parse_args(argv)
    if args.experiment == "list":
        return _list_experiments(args.json)
    if args.experiment == "report":
        # "repro report" with main-parser flags only; re-route the
        # shared ones so both spellings work.
        forwarded = ["--scale", args.scale, "--seed", str(args.seed)]
        return _report(forwarded)

    checkpoint = None
    if args.checkpoint and args.resume:
        print("--checkpoint starts a fresh checkpoint and --resume "
              "continues an existing one; pass exactly one of them",
              file=sys.stderr)
        return 2
    if args.checkpoint or args.resume:
        if args.experiment not in ("fig06", "resilience"):
            print(f"--checkpoint/--resume only apply to the fig06 "
                  f"campaign and the resilience sweep, not "
                  f"{args.experiment!r}", file=sys.stderr)
            return 2
        if args.checkpoint_every < 1:
            print(f"--checkpoint-every must be >= 1, got "
                  f"{args.checkpoint_every}", file=sys.stderr)
            return 2
        from .checkpoint import CheckpointPolicy
        checkpoint = CheckpointPolicy(
            path=args.resume or args.checkpoint,
            every=args.checkpoint_every, resume=bool(args.resume))
    elif args.checkpoint_every != 1:
        print("--checkpoint-every needs --checkpoint or --resume",
              file=sys.stderr)
        return 2

    obs = build_instrumentation(args)
    scale = Scale(args.scale)
    faults = None
    if args.faults:
        from .faults import FaultSchedule
        try:
            faults = FaultSchedule.load(args.faults)
        except (OSError, ValueError) as exc:
            print(f"bad fault schedule {args.faults}: {exc}",
                  file=sys.stderr)
            return 2
    bank = WorkloadBank(instrumentation=obs, faults=faults)
    # Shared with the run_summary footer: the except handlers below
    # rewrite the status before cleanup unwinds.
    run_state = {"status": "ok"}
    # LIFO cleanup with *independent* steps: closing the sinks must
    # happen even when finalize or the metrics write raises, so a
    # crashed run still flushes its partial JSONL artifacts.
    with contextlib.ExitStack() as cleanup:
        if obs is not None:
            cleanup.callback(obs.close)
            if obs.progress_bus is not None:
                # Registered right after close -> runs just before it:
                # the footer lands even on crash/Ctrl-C, after the
                # metrics flush (so the event total is final).
                def _footer() -> None:
                    events = obs.metrics.get("sim.events_executed")
                    obs.progress_bus.run_summary(
                        run_state["status"],
                        experiment=args.experiment,
                        events_executed=int(events.value)
                        if events is not None else 0)
                    print(f"[progress ({run_state['status']}) -> "
                          f"{args.progress_jsonl}]", file=sys.stderr)
                cleanup.callback(_footer)
            if args.flows:
                # The flows_summary footer itself lands in obs.close
                # (registered first, so run last even on crash).
                cleanup.callback(
                    lambda: print(f"[flows -> {args.flows}]",
                                  file=sys.stderr))
            if args.trace:
                cleanup.callback(
                    lambda: print(f"[trace -> {args.trace}]",
                                  file=sys.stderr))
            if args.spans:
                cleanup.callback(
                    lambda: print(f"[spans -> {args.spans}]",
                                  file=sys.stderr))
            if args.metrics:
                def _flush_metrics() -> None:
                    count = _write_metrics(obs, args.metrics)
                    print(f"[metrics: {count} series -> {args.metrics}]",
                          file=sys.stderr)
                cleanup.callback(_flush_metrics)
            cleanup.callback(obs.finalize)
            if obs.progress_bus is not None:
                obs.progress_bus.run_start(
                    experiment=args.experiment, scale=args.scale,
                    seed=args.seed, jobs=args.jobs)

        try:
            if args.experiment == "all":
                for experiment_id in ALL_EXPERIMENT_IDS:
                    if experiment_id in ("fig06", "chaos",
                                         "resilience"):
                        continue  # slower standalone runs: invoke explicitly
                    _run_one(experiment_id, bank, scale, args.seed,
                             instrumentation=obs, jobs=args.jobs,
                             faults=faults)
                print("(fig06, chaos and resilience skipped by 'all'; "
                      "run them explicitly, e.g. 'python -m repro "
                      "chaos')")
                return 0

            if args.experiment not in ALL_EXPERIMENT_IDS:
                print(f"unknown experiment {args.experiment!r}; "
                      f"try 'list'", file=sys.stderr)
                return 2
            _run_one(args.experiment, bank, scale, args.seed,
                     instrumentation=obs, jobs=args.jobs, faults=faults,
                     checkpoint=checkpoint)
            return 0
        except KeyboardInterrupt:
            run_state["status"] = "interrupted"
            raise
        except CheckpointError as exc:
            run_state["status"] = "error:checkpoint"
            print(f"checkpoint error: {exc}", file=sys.stderr)
            return 2
        except BaseException as exc:
            run_state["status"] = f"crashed:{type(exc).__name__}"
            raise


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
