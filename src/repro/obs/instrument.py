"""The :class:`Instrumentation` bundle threaded through the stack.

One object carries the observability facets — metrics registry, trace
sink, span sink, engine profiler, progress bus, flows writer — plus the
heartbeat switch, so components take a single optional ``obs``
argument instead of one per facet.

:func:`resolve` maps ``None`` to the shared :data:`NULL_INSTRUMENTATION`
whose registry hands out no-op instruments and whose sink drops
everything; with it, the instrumented hot paths cost one no-op method
call and the simulator's behaviour (event stream, RNG draws, rendered
output) is bit-for-bit what it was before instrumentation existed —
heartbeat timers and trace emission only happen on enabled bundles.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from .live import ProgressBus
from .metrics import NULL_REGISTRY, MetricsRegistry
from .profiler import EngineProfiler
from .spans import NULL_SPAN_SINK, SpanSink
from .trace import NULL_SINK, TraceSink

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .flows import FlowSpec, FlowsWriter


class Instrumentation:
    """Metrics + tracing + profiling for one run (or campaign)."""

    def __init__(self, metrics: Optional[MetricsRegistry] = None,
                 trace: Optional[TraceSink] = None,
                 profiler: Optional[EngineProfiler] = None,
                 spans: Optional[SpanSink] = None,
                 progress_bus: Optional[ProgressBus] = None,
                 heartbeat: bool = True,
                 flows: Optional["FlowsWriter"] = None) -> None:
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.trace = trace if trace is not None else NULL_SINK
        self.spans = spans if spans is not None else NULL_SPAN_SINK
        self.profiler = profiler
        #: Streaming progress.jsonl writer (``--progress-jsonl``);
        #: parent-side only, never shipped to worker processes.
        self.progress_bus = progress_bus
        #: Master switch for heartbeat-sampler installation; benches
        #: turn it off so the profiler can run without the sampler's
        #: timer events changing ``events_executed``.
        self.heartbeat = heartbeat
        #: Flows artifact writer (``--flows``); parent-side only, like
        #: the progress bus.  Workers account flows from the spec alone.
        self.flows = flows
        self.enabled = True

    @property
    def flows_spec(self) -> Optional["FlowSpec"]:
        """The ledger knobs of the flows writer, or ``None`` without one."""
        return self.flows.spec if self.flows is not None else None

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def null(cls) -> "Instrumentation":
        """The shared disabled bundle (no-op everything)."""
        return NULL_INSTRUMENTATION

    # ------------------------------------------------------------------
    # Heartbeat wiring
    # ------------------------------------------------------------------
    @property
    def wants_heartbeat(self) -> bool:
        """Whether a scenario should install a heartbeat sampler."""
        return (self.enabled and self.heartbeat
                and (self.profiler is not None
                     or self.trace is not NULL_SINK
                     or self.progress_bus is not None))

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def finalize(self) -> None:
        """Fold profiler results into the metrics registry."""
        if self.profiler is not None:
            self.profiler.export_into(self.metrics)

    def close(self) -> None:
        self.trace.close()
        self.spans.close()
        if self.progress_bus is not None:
            self.progress_bus.close()
        if self.flows is not None:
            self.flows.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "enabled" if self.enabled else "disabled"
        return (f"<Instrumentation {state} series={len(self.metrics)} "
                f"profiler={'on' if self.profiler else 'off'}>")


class _NullInstrumentation(Instrumentation):
    """The disabled bundle; everything it hands out is a no-op."""

    def __init__(self) -> None:
        super().__init__(metrics=NULL_REGISTRY, trace=NULL_SINK,
                         spans=NULL_SPAN_SINK, profiler=None)
        self.enabled = False

    def finalize(self) -> None:
        pass

    def close(self) -> None:
        pass


NULL_INSTRUMENTATION = _NullInstrumentation()


def resolve(obs: Optional[Instrumentation]) -> Instrumentation:
    """Normalise an optional ``obs`` argument to a usable bundle."""
    return obs if obs is not None else NULL_INSTRUMENTATION
