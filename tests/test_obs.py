"""Tests for the observability subsystem (repro.obs)."""

import inspect
import io
import json
import logging

import pytest

from repro.experiments import Scale, WorkloadBank
from repro.faults import FaultSchedule, PeerBlackout, ServerOutage
from repro.obs import (DEBUG, ERROR, INFO, NULL_INSTRUMENTATION,
                       NULL_REGISTRY, NULL_SINK, WARNING, Counter,
                       EngineProfiler, Gauge, Histogram, Instrumentation,
                       JsonlSink, LoggingSink, MemorySpanSink,
                       MetricsRegistry, NullSink, ProgressBus, RingSink,
                       TeeSink, level_from_name, metrics_to_records,
                       read_metrics_csv, read_metrics_jsonl, read_progress,
                       read_trace_jsonl, resolve, strip_wall_metrics,
                       write_metrics_csv, write_metrics_jsonl)
from repro.obs.profiler import HEARTBEAT_INTERVAL
from repro.sim import Simulator
from repro.workload.scenario import ScenarioConfig, SessionScenario

#: The trace events no span or metric carries: the whole trace schema.
TRACE_KINDS = frozenset({
    "peer_depart", "playback_resync", "tracker_rebootstrap",
    "neighbor_banned", "adversary_attached", "path_loss", "fault_drop",
    "resilience_report"})

#: Trace events whose fact a span or metric carries; none is emitted.
RETIRED_TRACE_KINDS = frozenset({
    "session_start", "session_end", "peer_join", "peer_active",
    "playback_stall", "playback_resume", "fault_begin", "fault_end",
    "uplink_tail_drop", "data_request_timeout", "poisoned_reply",
    "chaos_report"})

#: The transport's plain counters, published as ``net.<name>``.
TRANSPORT_COUNTERS = (
    "datagrams_sent", "datagrams_delivered", "datagrams_lost",
    "datagrams_dropped_uplink", "datagrams_dropped_offline",
    "datagrams_dropped_fault", "bytes_delivered")


# ----------------------------------------------------------------------
# Metrics registry semantics
# ----------------------------------------------------------------------
class TestCounter:
    def test_counts(self):
        c = Counter("x")
        c.inc()
        c.inc(3)
        assert c.value == 4

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter("x").inc(-1)


class TestGauge:
    def test_set_and_adjust(self):
        g = Gauge("x")
        g.set(5.0)
        g.adjust(-2.0)
        assert g.value == 3.0


class TestHistogram:
    def test_bucketing(self):
        h = Histogram("x", bounds=(1.0, 2.0))
        for v in (0.5, 1.0, 1.5, 99.0):
            h.observe(v)
        # <=1.0 -> bucket 0, <=2.0 -> bucket 1, overflow -> bucket 2.
        assert h.bucket_counts == [2, 1, 1]
        assert h.count == 4
        assert h.sum == pytest.approx(102.0)

    def test_rejects_unsorted_bounds(self):
        with pytest.raises(ValueError):
            Histogram("x", bounds=(2.0, 1.0))

    def test_rejects_empty_bounds(self):
        with pytest.raises(ValueError):
            Histogram("x", bounds=())


class TestMetricsRegistry:
    def test_memoises_series(self):
        reg = MetricsRegistry()
        a = reg.counter("net.sent", tags={"isp": "TELE"})
        b = reg.counter("net.sent", tags={"isp": "TELE"})
        c = reg.counter("net.sent", tags={"isp": "CNC"})
        assert a is b
        assert a is not c
        a.inc()
        b.inc()
        assert a.value == 2

    def test_tag_order_does_not_matter(self):
        reg = MetricsRegistry()
        a = reg.counter("x", tags={"a": "1", "b": "2"})
        b = reg.counter("x", tags={"b": "2", "a": "1"})
        assert a is b

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")

    def test_deterministic_iteration(self):
        reg = MetricsRegistry()
        reg.counter("b")
        reg.counter("a", tags={"k": "2"})
        reg.counter("a", tags={"k": "1"})
        keys = [(m.name, tuple(sorted(m.tags.items()))) for m in reg]
        assert keys == sorted(keys)

    def test_snapshot_shape(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(2)
        reg.gauge("g").set(1.5)
        reg.histogram("h", bounds=(1.0,)).observe(0.5)
        records = reg.snapshot()
        assert [r["type"] for r in records] == \
            ["counter", "gauge", "histogram"]
        assert records[0]["value"] == 2
        assert records[2]["count"] == 1

    def test_cardinality_guard_folds_into_overflow(self):
        reg = MetricsRegistry(max_series_per_name=2)
        reg.counter("x", tags={"peer": "1"}).inc()
        reg.counter("x", tags={"peer": "2"}).inc()
        # Third distinct tag set trips the guard.
        over = reg.counter("x", tags={"peer": "3"})
        assert over.tags == {"overflow": "true"}
        # Further overflowing series share the same fold-in counter.
        assert reg.counter("x", tags={"peer": "4"}) is over
        # Existing series are still handed back directly.
        assert reg.counter("x", tags={"peer": "1"}).tags == {"peer": "1"}

    def test_get_and_names(self):
        reg = MetricsRegistry()
        c = reg.counter("x", tags={"a": "1"})
        assert reg.get("x", {"a": "1"}) is c
        assert reg.get("x") is None
        assert reg.names() == ["x"]


class TestNullRegistry:
    def test_hands_out_shared_noops(self):
        a = NULL_REGISTRY.counter("anything", tags={"x": "1"})
        b = NULL_REGISTRY.counter("else")
        assert a is b
        a.inc(100)
        assert a.value == 0
        NULL_REGISTRY.gauge("g").set(9)
        NULL_REGISTRY.histogram("h").observe(9)
        assert len(NULL_REGISTRY) == 0


class TestMetricFamilies:
    """Pre-resolved handle families for tagged hot-path metrics."""

    def test_counter_family_memoises_handles(self):
        reg = MetricsRegistry()
        family = reg.counter_family("net.messages_sent", "type")
        a = family.labeled("ChunkData")
        b = family.labeled("ChunkData")
        assert a is b
        # A family handle IS the registry's series for those tags.
        assert a is reg.counter("net.messages_sent",
                                tags={"type": "ChunkData"})
        a.inc(2)
        family.labeled("ChunkData").inc()
        assert reg.get("net.messages_sent", {"type": "ChunkData"}).value == 3

    def test_counter_family_distinct_labels_distinct_series(self):
        reg = MetricsRegistry()
        family = reg.counter_family("x", "kind")
        family.labeled("a").inc()
        family.labeled("b").inc(5)
        assert reg.get("x", {"kind": "a"}).value == 1
        assert reg.get("x", {"kind": "b"}).value == 5

    def test_gauge_family_memoises_handles(self):
        reg = MetricsRegistry()
        family = reg.gauge_family("probe.fill", "probe")
        family.labeled("tele").set(0.5)
        assert family.labeled("tele") is reg.gauge(
            "probe.fill", tags={"probe": "tele"})
        assert reg.get("probe.fill", {"probe": "tele"}).value == 0.5

    def test_null_registry_families_are_noops(self):
        from repro.obs import NULL_COUNTER_FAMILY, NULL_GAUGE_FAMILY
        counters = NULL_REGISTRY.counter_family("x", "k")
        gauges = NULL_REGISTRY.gauge_family("y", "k")
        a = counters.labeled("anything")
        b = counters.labeled("else")
        assert a is b
        a.inc(100)
        assert a.value == 0
        gauges.labeled("z").set(9)
        assert len(NULL_REGISTRY) == 0
        # Null families are shared singletons, allocation-free per call.
        assert NULL_REGISTRY.counter_family("q", "k") is NULL_COUNTER_FAMILY
        assert NULL_REGISTRY.gauge_family("q", "k") is NULL_GAUGE_FAMILY


# ----------------------------------------------------------------------
# Trace sinks
# ----------------------------------------------------------------------
class TestLevels:
    def test_level_from_name(self):
        assert level_from_name("debug") == DEBUG
        assert level_from_name("WARNING") == WARNING
        with pytest.raises(ValueError):
            level_from_name("loud")


class TestNullSink:
    def test_disabled_for_everything(self):
        assert not NULL_SINK.enabled_for(ERROR)
        NULL_SINK.emit(0.0, ERROR, "x", a=1)  # swallowed


class TestRingSink:
    def test_keeps_recent_records(self):
        sink = RingSink(capacity=2)
        for i in range(3):
            sink.emit(float(i), INFO, "tick", i=i)
        assert [r["i"] for r in sink.records] == [1, 2]

    def test_level_filter(self):
        sink = RingSink(level=WARNING)
        sink.emit(0.0, INFO, "quiet")
        sink.emit(1.0, ERROR, "loud")
        assert [r["event"] for r in sink.records] == ["loud"]
        assert sink.enabled_for(WARNING)
        assert not sink.enabled_for(INFO)

    def test_events_by_name(self):
        sink = RingSink()
        sink.emit(0.0, INFO, "a")
        sink.emit(1.0, INFO, "b")
        assert [r["t"] for r in sink.events("b")] == [1.0]


class TestJsonlSink:
    def test_streams_records(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        with JsonlSink(path, level=DEBUG) as sink:
            sink.emit(1.5, INFO, "hello", peer="1.0.0.1")
            sink.emit(2.0, DEBUG, "loss", n=3)
        records = read_trace_jsonl(path)
        assert records == [
            {"t": 1.5, "level": "info", "event": "hello",
             "peer": "1.0.0.1"},
            {"t": 2.0, "level": "debug", "event": "loss", "n": 3},
        ]
        assert sink.records_written == 2

    def test_level_filter(self):
        buf = io.StringIO()
        sink = JsonlSink(buf, level=WARNING)
        sink.emit(0.0, INFO, "quiet")
        sink.emit(1.0, WARNING, "loud")
        assert sink.records_written == 1
        assert "loud" in buf.getvalue()


class TestLoggingSink:
    def test_bridges_to_stdlib(self, caplog):
        sink = LoggingSink(logging.getLogger("repro.test"), level=INFO)
        with caplog.at_level(logging.INFO, logger="repro.test"):
            sink.emit(3.25, WARNING, "uplink_drop", bytes=1420)
        assert len(caplog.records) == 1
        message = caplog.records[0].getMessage()
        assert "t=3.250" in message
        assert "uplink_drop" in message
        assert "bytes=1420" in message


class TestTeeSink:
    def test_fans_out(self):
        a, b = RingSink(), RingSink(level=ERROR)
        tee = TeeSink([a, b])
        tee.emit(0.0, INFO, "x")
        assert len(a.records) == 1 and len(b.records) == 0
        assert tee.enabled_for(INFO)

    def test_needs_children(self):
        with pytest.raises(ValueError):
            TeeSink([])


# ----------------------------------------------------------------------
# Export round-trips
# ----------------------------------------------------------------------
def _sample_registry() -> MetricsRegistry:
    reg = MetricsRegistry()
    reg.counter("net.sent", tags={"isp": "TELE"}).inc(7)
    reg.gauge("sim.queue_depth_last").set(42)
    h = reg.histogram("net.backlog", bounds=(0.1, 1.0))
    h.observe(0.05)
    h.observe(5.0)
    return reg


class TestExport:
    def test_jsonl_round_trip(self, tmp_path):
        reg = _sample_registry()
        path = str(tmp_path / "m.jsonl")
        assert write_metrics_jsonl(reg, path) == 3
        assert read_metrics_jsonl(path) == metrics_to_records(reg)

    def test_csv_round_trip(self, tmp_path):
        reg = _sample_registry()
        path = str(tmp_path / "m.csv")
        assert write_metrics_csv(reg, path) == 3
        assert read_metrics_csv(path) == metrics_to_records(reg)

    def test_strip_wall_metrics(self):
        records = [{"name": "sim.wall_seconds_total"},
                   {"name": "sim.events_by_label"},
                   {"name": "sim.events_per_sec_wall_mean"}]
        assert [r["name"] for r in strip_wall_metrics(records)] == \
            ["sim.events_by_label"]

    def test_jsonl_dump_is_deterministic_text(self, tmp_path):
        paths = []
        for i in range(2):
            path = str(tmp_path / f"m{i}.jsonl")
            write_metrics_jsonl(_sample_registry(), path)
            paths.append(path)
        with open(paths[0]) as a, open(paths[1]) as b:
            assert a.read() == b.read()


# ----------------------------------------------------------------------
# Profiler
# ----------------------------------------------------------------------
class TestEngineProfiler:
    def test_records_by_label(self):
        prof = EngineProfiler()
        prof.record("gossip", 0.001)
        prof.record("gossip", 0.002)
        prof.record("", 0.005)
        assert prof.total_events == 3
        assert prof.total_wall_seconds == pytest.approx(0.008)
        stats = prof.label_stats()
        assert stats["gossip"].count == 2
        # Sorted by descending wall time: unlabelled first.
        assert list(stats) == ["", "gossip"]

    def test_simulator_integration(self):
        prof = EngineProfiler()
        sim = Simulator(profiler=prof)
        sim.call_at(1.0, lambda: None, label="tick")
        sim.call_at(2.0, lambda: None, label="tick")
        sim.call_at(3.0, lambda: None)
        sim.run()
        stats = prof.label_stats()
        assert stats["tick"].count == 2
        assert stats[""].count == 1
        assert prof.total_events == 3

    def test_sample_tracks_queue_and_rate(self):
        prof = EngineProfiler()
        sim = Simulator(profiler=prof)
        sim.call_at(5.0, lambda: None)
        first = prof.sample(sim)
        assert first.queue_depth == 1
        assert first.events_per_sec == 0.0
        sim.run()
        second = prof.sample(sim)
        assert second.events_executed == 1
        assert second.queue_depth == 0

    def test_rate_restarts_with_each_simulator(self):
        prof = EngineProfiler()
        busy = Simulator(profiler=prof)
        for step in range(50):
            busy.call_at(float(step), lambda: None)
        prof.sample(busy)
        busy.run()
        assert prof.sample(busy).events_per_sec > 0
        fresh = Simulator(profiler=prof)
        fresh.call_at(1.0, lambda: None)
        fresh.run()
        # Fewer events than the previous simulator's last sample: no
        # rate, rather than a negative one.
        assert prof.sample(fresh).events_per_sec == 0.0
        registry = MetricsRegistry()
        prof.export_into(registry)
        assert registry.get("sim.events_per_sec_wall_mean").value > 0

    def test_export_into_registry(self):
        prof = EngineProfiler()
        prof.record("tick", 0.25)
        sim = Simulator(profiler=prof)
        prof.sample(sim)
        reg = MetricsRegistry()
        prof.export_into(reg)
        by_label = reg.get("sim.events_by_label", {"label": "tick"})
        assert by_label is not None and by_label.value == 1
        assert reg.get("sim.wall_seconds_total").value == \
            pytest.approx(0.25)
        # Idempotent: exporting again does not double anything.
        prof.export_into(reg)
        assert by_label.value == 1
        # Count series survive the wall filter, wall series do not.
        names = {r["name"] for r in strip_wall_metrics(reg.snapshot())}
        assert "sim.events_by_label" in names
        assert "sim.wall_seconds_by_label" not in names

    def test_render_is_textual(self):
        prof = EngineProfiler()
        prof.record("tick", 0.001)
        text = prof.render()
        assert "engine profile" in text
        assert "tick" in text


# ----------------------------------------------------------------------
# Instrumentation bundle
# ----------------------------------------------------------------------
class TestInstrumentation:
    def test_null_is_shared_and_disabled(self):
        assert Instrumentation.null() is NULL_INSTRUMENTATION
        assert resolve(None) is NULL_INSTRUMENTATION
        assert not NULL_INSTRUMENTATION.enabled
        assert not NULL_INSTRUMENTATION.wants_heartbeat
        assert NULL_INSTRUMENTATION.metrics is NULL_REGISTRY
        assert NULL_INSTRUMENTATION.trace is NULL_SINK

    def test_resolve_passthrough(self):
        obs = Instrumentation()
        assert resolve(obs) is obs

    def test_default_bundle_has_registry_no_profiler(self):
        obs = Instrumentation()
        assert obs.enabled
        assert isinstance(obs.metrics, MetricsRegistry)
        assert obs.profiler is None
        assert not obs.wants_heartbeat  # nothing asked for beats

    def test_bundle_fields(self):
        # One carrier per telemetry fact: no stderr printer, and the
        # flows spec is the writer's, not a field of its own.
        assert list(inspect.signature(Instrumentation).parameters) == [
            "metrics", "trace", "profiler", "spans", "progress_bus",
            "heartbeat", "flows"]

    def test_wants_heartbeat_triggers(self):
        assert Instrumentation(
            progress_bus=ProgressBus(io.StringIO())).wants_heartbeat
        assert Instrumentation(profiler=EngineProfiler()).wants_heartbeat
        assert Instrumentation(trace=RingSink()).wants_heartbeat
        assert not Instrumentation(profiler=EngineProfiler(),
                                   heartbeat=False).wants_heartbeat

    def test_finalize_exports_profiler(self):
        prof = EngineProfiler()
        prof.record("tick", 0.001)
        obs = Instrumentation(profiler=prof)
        obs.finalize()
        assert obs.metrics.get("sim.events_by_label",
                               {"label": "tick"}).value == 1


# ----------------------------------------------------------------------
# End-to-end: instrumented sessions
# ----------------------------------------------------------------------
def _tiny_session(obs):
    from repro.streaming import Popularity
    bank = WorkloadBank(instrumentation=obs)
    return bank.session("tele", Popularity.POPULAR, Scale.SMALL, seed=11)


def _observed_session():
    """A tiny session under a RingSink trace, the profiler and a
    progress bus; returns the bundle and the bus's records."""
    progress = io.StringIO()
    obs = Instrumentation(trace=RingSink(capacity=100_000),
                          profiler=EngineProfiler(),
                          progress_bus=ProgressBus(progress))
    _tiny_session(obs)
    obs.finalize()
    progress.seek(0)
    return obs, read_progress(progress)


def _stripped_dump(obs):
    return json.dumps(strip_wall_metrics(metrics_to_records(obs.metrics)),
                      sort_keys=True)


class TestInstrumentedSession:
    @pytest.fixture(scope="class")
    def observed(self):
        return _observed_session()

    def test_session_populates_all_layers(self, observed):
        obs, progress = observed
        layers = {name.split(".")[0] for name in obs.metrics.names()}
        assert {"sim", "net", "proto", "streaming"} <= layers
        assert len(obs.metrics.names()) >= 10
        events = {r["event"] for r in obs.trace.records}
        assert events and events <= TRACE_KINDS
        assert not events & RETIRED_TRACE_KINDS
        assert "heartbeat" in {r["kind"] for r in progress}

    def test_heartbeats_go_to_the_progress_bus_only(self, observed):
        obs, progress = observed
        assert [r for r in obs.trace.records
                if r["event"] == "heartbeat"] == []
        # One beat per interval through the session's end (150 s of
        # warm-up plus 420 s of viewing).
        beats = [r["t"] for r in progress if r["kind"] == "heartbeat"]
        assert beats == [HEARTBEAT_INTERVAL * k for k in range(1, 20)]

    def test_same_seed_gives_identical_dumps(self, observed):
        assert _stripped_dump(observed[0]) == \
            _stripped_dump(_observed_session()[0])


class TestOneCarrierPerFact:
    """A fact a span or metric carries is not traced again, and the
    transport publishes each datagram count once, at session end."""

    @pytest.fixture(scope="class")
    def faulted(self):
        obs = Instrumentation(metrics=MetricsRegistry(),
                              trace=RingSink(capacity=100_000),
                              spans=MemorySpanSink())
        bound = []
        schedule = FaultSchedule(events=(
            ServerOutage(target="source", start=130.0, duration=30.0),
            PeerBlackout(isp_name="ChinaTelecom", start=200.0,
                         fraction=0.5)))
        config = ScenarioConfig(
            seed=13, population=18, warmup=120.0, duration=200.0,
            faults=schedule, instrumentation=obs,
            run_hook=lambda *_: bound.extend(obs.metrics.names()))
        result = SessionScenario(config).run()
        return obs, result, bound

    def test_spans_not_the_trace_carry_transactions(self, faulted):
        obs, _, _ = faulted
        events = {r["event"] for r in obs.trace.records}
        assert events and events <= TRACE_KINDS
        assert not events & RETIRED_TRACE_KINDS
        names = {span.name for span in obs.spans.spans}
        assert {"session", "channel_join", "stall", "deadline_miss",
                "fault:server_outage", "fault:peer_blackout",
                "uplink_tail_drop"} <= names
        assert any(span.name == "data_request"
                   and span.status == "timeout"
                   for span in obs.spans.spans)

    def test_transport_counters_fold_once_at_session_end(self, faulted):
        obs, result, bound = faulted
        # The hook ran once the transport was built: it bound none of
        # the per-datagram series.
        assert bound
        assert [name for name in bound
                if name.startswith("net.datagrams_")
                or name == "net.bytes_delivered"] == []
        # The probe's leave sends a Goodbye to every tracker after the
        # simulation stops; the fold comes after it.
        assert result.probe().peer.trackers
        udp = result.deployment.internet.udp
        for name in TRANSPORT_COUNTERS:
            assert obs.metrics.get(f"net.{name}").value \
                == getattr(udp, name), name
        assert udp.datagrams_dropped_uplink > 0
        assert udp.datagrams_dropped_fault > 0
