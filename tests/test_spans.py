"""Tests for the causal span layer (repro.obs.spans).

Covers the sink/span unit contract, the zero-overhead null default,
the Chrome trace-event exporter (schema-checked, as Perfetto expects),
and the end-to-end instrumentation of the three transaction chains:
peer-list request -> reply -> connect, data request -> sub-piece
replies -> chunk completion -> playback deadline, and bootstrap ->
channel join.
"""

import io
import json

import pytest

from repro.cli import main
from repro.obs import (NULL_SPAN, NULL_SPAN_SINK, ChromeTraceSink,
                       Instrumentation, JsonlSpanSink, MemorySpanSink,
                       read_chrome_trace, read_spans_jsonl, resolve,
                       span_categories, validate_chrome_trace)
from repro.streaming import Popularity
from repro.workload.popularity import popular_channel_mix
from repro.workload.scenario import (TELE_PROBE, ScenarioConfig,
                                     SessionScenario)


class TestSpanContract:
    def test_root_span_starts_its_own_trace(self):
        sink = MemorySpanSink()
        span = sink.start_span("join", "bootstrap", 1.0, actor="p1")
        assert span.trace_id == span.span_id
        assert span.parent_id is None
        assert span.actor == "p1"
        assert not span.finished

    def test_child_joins_parent_trace_and_inherits_actor(self):
        sink = MemorySpanSink()
        root = sink.start_span("join", "bootstrap", 1.0, actor="p1")
        child = sink.start_span("connect", "peerlist", 2.0, parent=root)
        assert child.trace_id == root.trace_id
        assert child.parent_id == root.span_id
        assert child.actor == "p1"  # inherited
        other = sink.start_span("x", "y", 2.0, parent=root, actor="p2")
        assert other.actor == "p2"  # explicit actor wins

    def test_ids_are_sequential_in_call_order(self):
        sink = MemorySpanSink()
        ids = [sink.start_span("s", "c", 0.0).span_id for _ in range(3)]
        assert ids == [1, 2, 3]

    def test_finish_is_idempotent_and_records_once(self):
        sink = MemorySpanSink()
        span = sink.start_span("s", "c", 1.0)
        span.finish(2.0, "ok", rtt=0.1)
        span.finish(9.0, "timeout")  # ignored
        assert span.end == 2.0 and span.status == "ok"
        assert span.attrs["rtt"] == 0.1
        assert len(sink.spans) == 1
        assert sink.spans_recorded == 1

    def test_instant_is_a_finished_zero_duration_span(self):
        sink = MemorySpanSink()
        span = sink.instant("marker", "c", 3.0, chunk=7)
        assert span.finished and span.start == span.end == 3.0
        assert sink.spans == [span]

    def test_record_shape(self):
        sink = MemorySpanSink()
        root = sink.start_span("join", "bootstrap", 1.0, actor="p1",
                               isp="TELE")
        root.finish(4.0, trackers=2)
        record = root.to_record()
        assert record == {"trace": 1, "span": 1, "parent": None,
                          "name": "join", "cat": "bootstrap",
                          "start": 1.0, "end": 4.0, "status": "ok",
                          "actor": "p1", "isp": "TELE", "trackers": 2}

    def test_unfinished_spans_are_not_recorded(self):
        sink = MemorySpanSink()
        sink.start_span("s", "c", 0.0)
        assert sink.spans == [] and sink.spans_recorded == 0


class TestNullSink:
    def test_disabled_and_shared(self):
        assert NULL_SPAN_SINK.enabled is False
        a = NULL_SPAN_SINK.start_span("s", "c", 0.0)
        b = NULL_SPAN_SINK.instant("i", "c", 1.0)
        assert a is NULL_SPAN and b is NULL_SPAN

    def test_null_span_is_inert(self):
        before = NULL_SPAN_SINK.spans_recorded
        NULL_SPAN.finish(99.0, "timeout", junk=1)
        NULL_SPAN.annotate(more=2)
        assert NULL_SPAN.end == 0.0 and NULL_SPAN.status == "ok"
        assert NULL_SPAN_SINK.spans_recorded == before

    def test_default_instrumentation_has_null_spans(self):
        assert resolve(None).spans is NULL_SPAN_SINK
        assert Instrumentation().spans is NULL_SPAN_SINK


class TestJsonlSink:
    def test_streams_one_line_per_span(self, tmp_path):
        path = str(tmp_path / "spans.jsonl")
        with JsonlSpanSink(path) as sink:
            sink.start_span("a", "c", 0.0).finish(1.0)
            sink.instant("b", "c", 2.0)
        records = read_spans_jsonl(path)
        assert [r["name"] for r in records] == ["a", "b"]
        assert all({"trace", "span", "cat", "start", "end",
                    "status"} <= set(r) for r in records)


class TestChromeTraceSink:
    def _trace(self):
        buffer = io.StringIO()
        sink = ChromeTraceSink(buffer)
        root = sink.start_span("join", "bootstrap", 1.0, actor="p1")
        sink.start_span("connect", "peerlist", 1.5,
                        parent=root).finish(1.8, rtt=0.3)
        sink.instant("deadline_miss", "playback", 2.0, actor="p1")
        root.finish(3.0)
        sink.close()
        return json.loads(buffer.getvalue())

    def test_document_shape_and_schema(self):
        document = self._trace()
        assert set(document) == {"traceEvents", "displayTimeUnit"}
        assert validate_chrome_trace(document["traceEvents"]) == []

    def test_event_mapping(self):
        events = self._trace()["traceEvents"]
        by_name = {e["name"]: e for e in events if e.get("ph") != "M"}
        connect = by_name["connect"]
        assert connect["ph"] == "X"
        assert connect["ts"] == pytest.approx(1.5e6)
        assert connect["dur"] == pytest.approx(0.3e6)
        assert connect["args"]["status"] == "ok"
        assert connect["args"]["parent"] == by_name["join"]["args"]["span"]
        instant = by_name["deadline_miss"]
        assert instant["ph"] == "i" and instant["s"] == "t"
        # One thread per actor, labelled via metadata.
        metadata = [e for e in events if e.get("ph") == "M"]
        assert [m["args"]["name"] for m in metadata] == ["p1"]
        assert {e["tid"] for e in (connect, instant)} == \
            {metadata[0]["tid"]}

    def test_streams_each_event_as_its_span_finishes(self):
        buffer = io.StringIO()
        sink = ChromeTraceSink(buffer)
        assert buffer.getvalue() == '{"traceEvents":['
        sink.instant("deadline_miss", "playback", 2.0, actor="p1")
        # The actor's track label lands just before its first event.
        written = json.loads(buffer.getvalue() + "]}")["traceEvents"]
        assert [e["ph"] for e in written] == ["M", "i"]
        assert written[0]["args"]["name"] == "p1"
        assert written[0]["tid"] == written[1]["tid"]
        sink.instant("deadline_miss", "playback", 3.0, actor="p1")
        sink.close()
        document = json.loads(buffer.getvalue())
        assert [e["ph"] for e in document["traceEvents"]] == ["M", "i", "i"]
        assert document["displayTimeUnit"] == "ms"

    def test_validator_flags_bad_events(self):
        assert validate_chrome_trace([{"ph": "X"}])
        assert validate_chrome_trace(
            [{"name": "a", "ph": "X", "pid": 1, "tid": 1,
              "ts": "late"}])
        assert validate_chrome_trace(
            [{"name": "a", "ph": "X", "pid": 1, "tid": 1, "ts": 0.0,
              "dur": -1}])
        assert validate_chrome_trace(
            [{"name": "a", "ph": "?", "pid": 1, "tid": 1, "ts": 0.0}])
        assert validate_chrome_trace(["nope"])

    def test_reader_accepts_bare_array_form(self, tmp_path):
        path = tmp_path / "bare.json"
        path.write_text('[{"name":"a","ph":"i","s":"t","pid":1,'
                        '"tid":1,"ts":0}]')
        events = read_chrome_trace(str(path))
        assert validate_chrome_trace(events) == []
        assert span_categories(events) == []


# ----------------------------------------------------------------------
# End-to-end: the three instrumented transaction chains
# ----------------------------------------------------------------------
def _run_session(seed=5):
    sink = MemorySpanSink()
    obs = Instrumentation(spans=sink)
    config = ScenarioConfig(
        seed=seed, population=20, mix=popular_channel_mix(),
        popularity=Popularity.POPULAR, probes=(TELE_PROBE,),
        warmup=60.0, duration=120.0, instrumentation=obs)
    SessionScenario(config).run()
    return sink


@pytest.fixture(scope="module")
def session_sink():
    return _run_session()


class TestSessionChains:
    def test_all_three_chains_present(self, session_sink):
        categories = set(session_sink.categories())
        # Acceptance: at least the peerlist, data and playback chains.
        assert {"peerlist", "data", "playback", "bootstrap"} <= categories
        names = {s.name for s in session_sink.spans}
        assert {"channel_join", "tracker_query", "connect",
                "data_request", "chunk_complete", "startup"} <= names

    def test_bootstrap_chain_roots_each_peer_trace(self, session_sink):
        joins = session_sink.by_name("channel_join")
        assert joins and all(j.parent_id is None for j in joins)
        assert all(j.trace_id == j.span_id for j in joins)
        assert len({j.actor for j in joins}) == len(joins)

    def test_peerlist_chain_is_causally_linked(self, session_sink):
        spans = {s.span_id: s for s in session_sink.spans}
        queries = session_sink.by_name("tracker_query")
        assert queries
        for query in queries:
            assert spans[query.parent_id].name == "channel_join"
            assert query.trace_id == spans[query.parent_id].trace_id
        # Connect attempts descend from the peer-list transaction that
        # supplied the address (or the join span for enclosed lists).
        connects = session_sink.by_name("connect")
        assert connects
        parent_names = {spans[c.parent_id].name for c in connects
                        if c.parent_id in spans}
        assert parent_names <= {"tracker_query", "peerlist_request",
                                "channel_join"}
        assert "tracker_query" in parent_names
        succeeded = [c for c in connects if c.status == "ok"]
        assert succeeded and all("rtt" in c.attrs for c in succeeded)

    def test_data_chain_reaches_chunk_completion(self, session_sink):
        spans = {s.span_id: s for s in session_sink.spans}
        requests = session_sink.by_name("data_request")
        assert requests
        for request in requests[:50]:
            assert spans[request.parent_id].name == "channel_join"
            assert {"seq", "neighbor", "chunk"} <= set(request.attrs)
        statuses = {r.status for r in requests}
        assert "ok" in statuses
        completions = session_sink.by_name("chunk_complete")
        assert completions
        for complete in completions[:50]:
            parent = spans[complete.parent_id]
            assert parent.name == "data_request"
            assert parent.attrs["chunk"] == complete.attrs["chunk"]

    def test_playback_chain_spans(self, session_sink):
        startups = session_sink.by_name("startup")
        assert startups
        done = [s for s in startups if s.status == "ok"]
        assert done and all("startup_delay" in s.attrs for s in done)
        # Stalls (if any) pair a deadline_miss instant with a stall span.
        misses = session_sink.by_name("deadline_miss")
        stalls = session_sink.by_name("stall")
        assert len(misses) >= len([s for s in stalls
                                   if s.status == "ok"])

    def test_span_stream_is_deterministic(self, session_sink):
        repeat = _run_session()
        assert [s.to_record() for s in repeat.spans] == \
            [s.to_record() for s in session_sink.spans]

    def test_session_workload_span_wraps_run(self, session_sink):
        sessions = session_sink.by_name("session")
        assert len(sessions) == 1
        (span,) = sessions
        assert span.category == "workload"
        assert span.attrs["events_executed"] > 0


class TestCliChromeExport:
    def test_fig02_spans_export_is_valid_chrome_trace(self, tmp_path,
                                                      capsys):
        """Acceptance criterion: ``repro run fig02 --spans out.json``
        produces valid trace-event JSON with >= 3 span categories."""
        out = tmp_path / "out.json"
        assert main(["run", "fig02", "--scale", "small", "--seed", "3",
                     "--spans", str(out)]) == 0
        capsys.readouterr()
        events = read_chrome_trace(str(out))
        assert validate_chrome_trace(events) == []
        categories = span_categories(events)
        assert len(categories) >= 3
        assert {"peerlist", "data", "playback"} <= set(categories)
