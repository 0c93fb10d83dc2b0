"""Outside-in layer tracing for the traced rep.

:class:`LayerTracer` swaps a timing wrapper onto the public entry point
of each simulator layer (engine scheduling, transport, latency model,
data scheduler, protocol handlers, wire sizing, deployment build,
capture matching, Figure 6 rendering, flow ledger).  The wrappers keep
an in-memory span stack, so each call's self time is its inclusive time
minus the time of the wrapped calls beneath it; only per-name totals
are kept, and they are read once the rep ends.  Nothing in ``src/``
changes: the wrappers live in this file and are installed before the
workload builds any object, so every caller that looks the name up at
call time goes through them.

:func:`per_layer` folds the totals, the engine profiler's attribution
buckets and the run's exact counters into the per-layer metrics.  The
cost of the wrapper itself is calibrated on an empty function and
subtracted from every per-call figure.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

#: (span name, module, class, method, index of the batch argument whose
#: length is recorded, or None).
METHODS: Tuple[Tuple[str, str, str, str, Optional[int]], ...] = (
    ("sim.post", "repro.sim.engine", "Simulator", "post", None),
    ("sim.call_at", "repro.sim.engine", "Simulator", "call_at", None),
    ("transport.send", "repro.network.transport", "UdpNetwork", "send",
     None),
    ("transport.send_many", "repro.network.transport", "UdpNetwork",
     "send_many", 2),
    ("latency.one_way_delay", "repro.network.latency", "LatencyModel",
     "one_way_delay", None),
    ("latency.one_way_delays", "repro.network.latency", "LatencyModel",
     "one_way_delays", 1),
    ("latency.is_lost", "repro.network.latency", "LatencyModel", "is_lost",
     None),
    ("latency.are_lost", "repro.network.latency", "LatencyModel",
     "are_lost", 1),
    ("scheduler.tick", "repro.protocol.scheduler", "DataScheduler", "tick",
     None),
    ("peer.handle_datagram", "repro.protocol.peer", "PPLivePeer",
     "handle_datagram", None),
    ("source.handle_datagram", "repro.protocol.source", "SourceServer",
     "handle_datagram", None),
    ("tracker.handle_datagram", "repro.protocol.tracker", "TrackerServer",
     "handle_datagram", None),
    ("bootstrap.handle_datagram", "repro.protocol.bootstrap",
     "BootstrapServer", "handle_datagram", None),
    ("workload.build_deployment", "repro.workload.scenario",
     "SessionScenario", "build_deployment", None),
    ("analysis.render", "repro.experiments.fig06", "Figure6", "render",
     None),
    ("obs.flow_sink", "repro.obs.flows", "FlowLedger", "sink", None),
)

#: (span name, defining module, function).  Callers import these by
#: name, so the wrapper replaces the function in *every* ``repro``
#: module namespace that holds it, not only where it is defined.
FUNCTIONS: Tuple[Tuple[str, str, str], ...] = (
    ("wire.size", "repro.protocol.wire", "wire_size"),
    ("wire.encode", "repro.protocol.wire", "encode"),
    ("wire.decode", "repro.protocol.wire", "decode"),
    ("analysis.match", "repro.capture.matching", "match_all"),
)

#: Wrapped names the simulation is not expected to call (the wire codec
#: is for real sockets; sizes come from ``wire_size``).  Reported as
#: ``wire.offpath_calls`` and excluded from the must-fire check.
OFF_PATH = frozenset({"wire.encode", "wire.decode"})

HANDLERS = ("peer.handle_datagram", "source.handle_datagram",
            "tracker.handle_datagram", "bootstrap.handle_datagram")

#: The numpy branch of LatencyModel's batch helpers engages at this many
#: items; a cohort below it always takes the scalar loop.
NUMPY_MIN_BATCH = 48


class SpanTotals:
    """Per-name totals of every wrapped call."""

    __slots__ = ("calls", "elapsed", "child_elapsed", "child_calls",
                 "descendants", "items", "max_items", "big_batches")

    def __init__(self) -> None:
        self.calls = 0
        #: Measured inclusive seconds, wrapper cost included.
        self.elapsed = 0.0
        #: Inclusive seconds of the wrapped calls made directly beneath.
        self.child_elapsed = 0.0
        self.child_calls = 0
        #: Wrapped calls made anywhere beneath (any depth).
        self.descendants = 0
        self.items = 0
        self.max_items = 0
        self.big_batches = 0


class LayerTracer:
    """Installs, counts and removes the layer wrappers."""

    def __init__(self) -> None:
        self.totals: Dict[str, SpanTotals] = {}
        self._stack: List[list] = []
        self._patches: List[Tuple[object, str, object]] = []

    def wrap(self, name: str, fn: Callable,
             batch_arg: Optional[int] = None) -> Callable:
        """``fn`` wrapped to account its calls under ``name``."""
        totals = self.totals.setdefault(name, SpanTotals())
        stack = self._stack
        clock = perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if batch_arg is not None:
                size = len(args[batch_arg])
                totals.items += size
                if size > totals.max_items:
                    totals.max_items = size
                if size >= NUMPY_MIN_BATCH:
                    totals.big_batches += 1
            # [child inclusive s, direct child calls, descendant calls]
            frame = [0.0, 0, 0]
            stack.append(frame)
            started = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - started
                stack.pop()
                totals.calls += 1
                totals.elapsed += elapsed
                totals.child_elapsed += frame[0]
                totals.child_calls += frame[1]
                totals.descendants += frame[2]
                if stack:
                    parent = stack[-1]
                    parent[0] += elapsed
                    parent[1] += 1
                    parent[2] += frame[2] + 1

        return traced

    def install(self) -> None:
        """Patch every target; call before the workload builds objects."""
        for name, module, owner, attr, batch_arg in METHODS:
            cls = getattr(importlib.import_module(module), owner)
            self._patch(cls, attr, self.wrap(name, vars(cls)[attr],
                                             batch_arg))
        for name, module, attr in FUNCTIONS:
            original = getattr(importlib.import_module(module), attr)
            wrapped = self.wrap(name, original)
            for mod_name, mod in list(sys.modules.items()):
                if (mod_name == "repro" or mod_name.startswith("repro.")) \
                        and getattr(mod, attr, None) is original:
                    self._patch(mod, attr, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr: str, wrapped: Callable) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapped)


def calibrate(calls: int = 200_000, rounds: int = 5) -> Tuple[float, float]:
    """Wrapper cost per call as ``(total_s, inner_s)``.

    ``total_s`` is what one wrapped call adds to its caller's time;
    ``inner_s`` is the part of it that lands inside the wrapper's own
    clock readings.  Best of ``rounds``, so a host hiccup cannot
    inflate the correction.
    """
    def empty() -> None:
        return None

    best_total = best_inner = float("inf")
    for _ in range(rounds):
        tracer = LayerTracer()
        wrapped = tracer.wrap("calibration", empty)
        started = perf_counter()
        for _ in range(calls):
            empty()
        bare = perf_counter() - started
        started = perf_counter()
        for _ in range(calls):
            wrapped()
        traced = perf_counter() - started
        best_total = min(best_total, max(0.0, (traced - bare) / calls))
        best_inner = min(best_inner,
                         tracer.totals["calibration"].elapsed / calls)
    return best_total, min(best_inner, best_total)


def _corrected(totals: SpanTotals, wrapper: float,
               inner: float) -> Tuple[float, float]:
    """(inclusive s, self s) with the wrapper cost taken out.

    Every wrapped call beneath adds ``wrapper`` to the inclusive time;
    a call's own clock readings add ``inner``.  Of a direct child's
    cost, ``inner`` is inside the child's inclusive time and the rest
    lands in this call's self time.
    """
    inclusive = (totals.elapsed - totals.calls * inner
                 - totals.descendants * wrapper)
    self_time = (totals.elapsed - totals.child_elapsed
                 - totals.calls * inner
                 - totals.child_calls * (wrapper - inner))
    return max(0.0, inclusive), max(0.0, self_time)


#: Every per-layer metric the traced rep can report, with its unit.
UNITS: Dict[str, str] = {
    "sim.events": "count",
    "sim.ns_per_event": "ns",
    "sim.engine_share": "share",
    "sim.post_calls": "count",
    "sim.call_at_calls": "count",
    "sim.ns_per_schedule": "ns",
    "transport.datagrams_sent": "count",
    "transport.delivered_ratio": "share",
    "transport.uplink_drop_ratio": "share",
    "transport.loss_ratio": "share",
    "transport.send_calls": "count",
    "transport.send_many_calls": "count",
    "transport.us_per_datagram": "us",
    "transport.bucket_s": "s",
    "transport.deliver_self_s": "s",
    "transport.cohort_mean": "datagrams",
    "transport.cohort_max": "datagrams",
    "transport.cohort_ge48_share": "share",
    "latency.draws": "count",
    "latency.ns_per_draw": "ns",
    "scheduler.ticks": "count",
    "scheduler.us_per_tick": "us",
    "protocol.timer_share": "share",
    "peer.handled": "count",
    "peer.us_per_handled": "us",
    "source.us_per_handled": "us",
    "tracker.us_per_handled": "us",
    "wire.size_calls": "count",
    "wire.ns_per_size": "ns",
    "wire.offpath_calls": "count",
    "playback.share": "share",
    "workload.units": "count",
    "workload.build_s": "s",
    "workload.viewers_mean": "viewers",
    "workload.full_share": "share",
    "analysis.match_s": "s",
    "analysis.render_s": "s",
    "obs.flow_sink_ns_per_datagram": "ns",
    "obs.artifact_bytes": "bytes",
    "obs.overhead_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
    "trace.coverage": "share",
    "trace.wrapper_ns": "ns",
    "host.calib_s": "s",
}


def per_layer(tracer: LayerTracer, wrapper: float, inner: float,
              attribution: dict, counters: Dict[str, int],
              unreached=frozenset()) -> Dict[str, float]:
    """Per-layer metrics of one traced rep.

    ``attribution`` is :func:`repro.obs.build_attribution`'s block for
    the rep, ``counters`` its exact transport/engine counters.  Metrics
    that only a wrapper in ``unreached`` could feed are left out rather
    than reported as zero.  The child adds the ``workload.viewers_mean``
    and ``workload.full_share`` audience samples, the parent
    ``obs.overhead_ratio``, ``trace.overhead_ratio`` and ``host.calib_s``.
    """
    totals = tracer.totals
    empty = SpanTotals()

    def span(name: str) -> SpanTotals:
        return totals.get(name, empty)

    def self_s(*names: str) -> float:
        return sum(_corrected(span(name), wrapper, inner)[1]
                   for name in names)

    def inclusive_s(name: str) -> float:
        return _corrected(span(name), wrapper, inner)[0]

    def per_call(seconds: float, calls: int, scale: float) -> float:
        return seconds / calls * scale if calls else 0.0

    buckets = attribution["buckets"]

    def bucket(name: str) -> Tuple[float, float]:
        entry = buckets.get(name, {})
        return entry.get("wall_seconds", 0.0), entry.get("share", 0.0)

    events = counters["events"]
    sent = counters["datagrams_sent"]
    engine_s, engine_share = bucket("engine")
    transport_s, _ = bucket("transport")
    # The transport bucket is keyed by the delivery event's label, so it
    # also holds the receivers' handlers; what is left is delivery.
    handlers = [span(name) for name in HANDLERS]
    deliver_self = max(0.0, transport_s
                       - sum(h.elapsed for h in handlers)
                       - sum(h.calls for h in handlers) * (wrapper - inner))
    cohorts = span("transport.send_many")
    batches = [span("latency.one_way_delays"), span("latency.are_lost")]
    draws = (span("latency.one_way_delay").calls
             + span("latency.is_lost").calls
             + sum(batch.items for batch in batches))
    schedules = span("sim.post").calls + span("sim.call_at").calls
    metrics = {
        "sim.events": events,
        "sim.ns_per_event": per_call(engine_s, events, 1e9),
        "sim.engine_share": engine_share,
        "sim.post_calls": span("sim.post").calls,
        "sim.call_at_calls": span("sim.call_at").calls,
        "sim.ns_per_schedule": per_call(
            self_s("sim.post", "sim.call_at"), schedules, 1e9),
        "transport.datagrams_sent": sent,
        "transport.delivered_ratio": counters["datagrams_delivered"] / sent,
        "transport.uplink_drop_ratio":
            counters["datagrams_dropped_uplink"] / sent,
        "transport.loss_ratio": counters["datagrams_lost"] / sent,
        "transport.send_calls": span("transport.send").calls,
        "transport.send_many_calls": cohorts.calls,
        "transport.us_per_datagram": per_call(
            self_s("transport.send", "transport.send_many") + deliver_self,
            sent, 1e6),
        "transport.bucket_s": transport_s,
        "transport.deliver_self_s": deliver_self,
        "transport.cohort_mean": per_call(cohorts.items, cohorts.calls, 1.0),
        "transport.cohort_max": cohorts.max_items,
        "transport.cohort_ge48_share": per_call(
            cohorts.big_batches, cohorts.calls, 1.0),
        "latency.draws": draws,
        "latency.ns_per_draw": per_call(
            self_s("latency.one_way_delay", "latency.one_way_delays",
                   "latency.is_lost", "latency.are_lost"), draws, 1e9),
        "scheduler.ticks": span("scheduler.tick").calls,
        "scheduler.us_per_tick": per_call(
            self_s("scheduler.tick"), span("scheduler.tick").calls, 1e6),
        "protocol.timer_share": bucket("protocol")[1],
        "peer.handled": span("peer.handle_datagram").calls,
        "wire.size_calls": span("wire.size").calls,
        "wire.ns_per_size": per_call(self_s("wire.size"),
                                     span("wire.size").calls, 1e9),
        "wire.offpath_calls": sum(span(name).calls for name in OFF_PATH),
        "playback.share": bucket("playback")[1],
        "workload.units": counters["units"],
        "workload.build_s": inclusive_s("workload.build_deployment"),
        "analysis.match_s": inclusive_s("analysis.match"),
        "trace.coverage": attribution["coverage"],
        "trace.wrapper_ns": wrapper * 1e9,
    }
    for role in ("peer", "source", "tracker"):
        name = f"{role}.handle_datagram"
        metrics[f"{role}.us_per_handled"] = per_call(
            self_s(name), span(name).calls, 1e6)
    if "analysis.render" not in unreached:
        metrics["analysis.render_s"] = inclusive_s("analysis.render")
    if "obs.flow_sink" not in unreached:
        metrics["obs.flow_sink_ns_per_datagram"] = per_call(
            self_s("obs.flow_sink"), span("obs.flow_sink").calls, 1e9)
    return metrics


def silent_wrappers(tracer: LayerTracer, unreached=frozenset()) -> List[str]:
    """Wrapped names that never fired although the workload reaches them
    — a patch on a name no caller looks up."""
    expected = ({name for name, *_ in METHODS}
                | {name for name, *_ in FUNCTIONS}) - OFF_PATH - unreached
    return sorted(name for name in expected
                  if tracer.totals.get(name, SpanTotals()).calls == 0)
