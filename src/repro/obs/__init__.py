"""Observability (S-obs): metrics, structured tracing, engine profiling.

The paper is a measurement study; this package is the simulator's own
measurement substrate.  Three facets, bundled by
:class:`Instrumentation` and disabled (no-op, zero-overhead) by default:

* :mod:`repro.obs.metrics` — counters/gauges/histograms, taggable,
  deterministic export (:mod:`repro.obs.export` does JSONL/CSV),
* :mod:`repro.obs.trace` — structured, levelled trace records streamed
  to JSONL / ring buffer / stdlib logging,
* :mod:`repro.obs.profiler` — per-event-label wall-clock accounting in
  the engine plus the periodic heartbeat sampler for long campaigns,
* :mod:`repro.obs.spans` — causal transaction spans (trace/parent IDs,
  status, flat attributes) with JSONL and Chrome-trace (Perfetto)
  exporters; the simulator-side analogue of the paper's
  transaction-matching methodology,
* :mod:`repro.obs.live` — the streaming progress bus: constant-memory
  ``progress.jsonl`` heartbeats plus the status/ETA readers behind
  ``repro status`` / ``repro top``,
* :mod:`repro.obs.flows` — the streaming traffic-flow ledger: ISP×ISP
  traffic matrices, tumbling-window locality time-series and a top-k
  peer-pair sketch behind ``--flows`` / ``repro flows``,
* :mod:`repro.obs.attribution` — per-subsystem wall-time buckets
  (transport / protocol / playback / faults / engine dispatch / ...)
  derived from the profiler; ``benchmarks/perf`` reports them per
  workload with ``--trace 1``.

See ``docs/OBSERVABILITY.md`` for the metric catalog, trace schema and
span model.
"""

from .attribution import (LABEL_SUBSYSTEMS, SUBSYSTEMS, build_attribution,
                          subsystem_of)
from .export import (metrics_to_records, read_metrics_csv,
                     read_metrics_jsonl, strip_wall_metrics,
                     write_metrics_csv, write_metrics_jsonl)
from .flows import (FLOWS_VERSION, FlowLedger, FlowSpec, FlowsWriter,
                    SpaceSavingSketch, flows_summary_payload, intra_share,
                    merge_flow_payloads, read_flows, render_flow_matrix,
                    render_flow_summary, render_flow_top,
                    render_flow_windows, summarize_flows, transit_share,
                    validate_flow_payload)
from .instrument import NULL_INSTRUMENTATION, Instrumentation, resolve
from .live import (WALL_FIELDS, ProgressBus, deterministic_records,
                   peak_rss_bytes, read_progress, render_status,
                   strip_wall_fields, summarize_progress)
from .metrics import (DEFAULT_BUCKETS, NULL_COUNTER_FAMILY,
                      NULL_GAUGE_FAMILY, NULL_REGISTRY, Counter,
                      CounterFamily, Gauge, GaugeFamily, Histogram,
                      MetricsRegistry, NullRegistry)
from .profiler import EngineProfiler, EngineSample, HeartbeatSampler
from .spans import (NULL_SPAN, NULL_SPAN_SINK, ChromeTraceSink,
                    JsonlSpanSink, MemorySpanSink, NullSpanSink, Span,
                    SpanSink, TeeSpanSink, read_chrome_trace,
                    read_spans_jsonl, span_categories,
                    validate_chrome_trace)
from .trace import (DEBUG, ERROR, INFO, NULL_SINK, WARNING, JsonlSink,
                    LoggingSink, NullSink, RingSink, TeeSink, TraceSink,
                    level_from_name, read_trace_jsonl)

__all__ = [
    "Instrumentation", "NULL_INSTRUMENTATION", "resolve",
    "MetricsRegistry", "NullRegistry", "NULL_REGISTRY",
    "Counter", "Gauge", "Histogram", "DEFAULT_BUCKETS",
    "CounterFamily", "GaugeFamily",
    "NULL_COUNTER_FAMILY", "NULL_GAUGE_FAMILY",
    "TraceSink", "NullSink", "NULL_SINK", "JsonlSink", "RingSink",
    "LoggingSink", "TeeSink", "level_from_name", "read_trace_jsonl",
    "DEBUG", "INFO", "WARNING", "ERROR",
    "Span", "SpanSink", "NullSpanSink", "NULL_SPAN_SINK", "NULL_SPAN",
    "MemorySpanSink", "JsonlSpanSink", "ChromeTraceSink", "TeeSpanSink",
    "read_spans_jsonl", "read_chrome_trace", "validate_chrome_trace",
    "span_categories",
    "EngineProfiler", "EngineSample", "HeartbeatSampler",
    "ProgressBus", "WALL_FIELDS", "read_progress", "strip_wall_fields",
    "deterministic_records", "summarize_progress", "render_status",
    "peak_rss_bytes",
    "FlowLedger", "FlowSpec", "FlowsWriter", "FLOWS_VERSION",
    "SpaceSavingSketch", "merge_flow_payloads", "validate_flow_payload",
    "read_flows", "summarize_flows", "flows_summary_payload",
    "intra_share", "transit_share",
    "render_flow_summary", "render_flow_matrix", "render_flow_windows",
    "render_flow_top",
    "SUBSYSTEMS", "LABEL_SUBSYSTEMS", "subsystem_of",
    "build_attribution",
    "metrics_to_records", "strip_wall_metrics",
    "write_metrics_jsonl", "read_metrics_jsonl",
    "write_metrics_csv", "read_metrics_csv",
]
