"""Traffic-flow telemetry: ledger, sketch, artifact, and the contracts.

The load-bearing guarantees, each pinned here:

* the ledger's totals equal the transport's delivered counters exactly,
* flow accounting never changes simulation results (tap neutrality),
* the ledger's transit-byte share equals the post-hoc analysis number
  *exactly* (same integers, same expression) on the seed-11 golden
  campaign,
* the ``--flows`` artifact is byte-identical across ``--jobs {1,2}``
  and across checkpoint/resume,
* payloads are JSON fixed points, so checkpoint units replay them
  losslessly.
"""

import dataclasses
import io
import json

import pytest

from repro.analysis import transit_byte_share
from repro.checkpoint import CheckpointError, CheckpointPolicy
from repro.cli import main
from repro.network.datagram import HEADER_BYTES, Datagram
from repro.obs import (FLOWS_VERSION, FlowLedger, FlowSpec, FlowsWriter,
                       Instrumentation, SpaceSavingSketch,
                       flows_summary_payload, intra_share,
                       merge_flow_payloads, read_flows,
                       render_flow_matrix, render_flow_summary,
                       render_flow_top, render_flow_windows,
                       summarize_flows, transit_share,
                       validate_flow_payload)
from repro.workload.campaign import CampaignConfig, run_campaign
from repro.workload.scenario import ScenarioConfig, SessionScenario

SPEC = FlowSpec(window=30.0, top_k=16)

TINY = CampaignConfig(seed=11, days=2, popular_population=10,
                      unpopular_population=6, session_duration=120.0,
                      warmup=60.0, flows=SPEC)

#: The golden campaign shape used by tests/test_campaign_goldens.py.
GOLDEN = CampaignConfig(seed=11, days=3, popular_population=10,
                        unpopular_population=6, session_duration=120.0,
                        warmup=60.0, flows=SPEC)


class Chunk:
    """Stand-in payload: the ledger keys its matrix by payload class."""


class Ping:
    """A second stand-in payload kind."""


def _deliver(ledger, src, dst, payload_class, wire_bytes, now):
    """Hand the ledger one delivered datagram, as the transport does;
    the ledger takes the wire size from the sink's third argument."""
    ledger.sink(Datagram(src=src, dst=dst, payload=payload_class(),
                         payload_bytes=0, sent_at=now), now, wire_bytes)


def _tiny_session(**overrides) -> ScenarioConfig:
    config = ScenarioConfig(seed=3, population=12, warmup=30.0,
                            duration=60.0, flows=SPEC)
    return dataclasses.replace(config, **overrides)


# ----------------------------------------------------------------------
# Space-saving sketch
# ----------------------------------------------------------------------
class TestSpaceSavingSketch:
    def test_exact_below_capacity(self):
        sketch = SpaceSavingSketch(4)
        sketch.add("a", 10)
        sketch.add("b", 5)
        sketch.add("a", 1)
        assert sketch.items() == [["a", 11, 0], ["b", 5, 0]]

    def test_eviction_inherits_the_victim_count(self):
        sketch = SpaceSavingSketch(2)
        sketch.add("a", 10)
        sketch.add("b", 3)
        sketch.add("c", 1)  # evicts b (min count) -> count 4, error 3
        assert sketch.items() == [["a", 10, 0], ["c", 4, 3]]

    def test_eviction_ties_break_by_key_not_insertion_order(self):
        first = SpaceSavingSketch(2)
        for key in ("b", "a"):
            first.add(key, 5)
        second = SpaceSavingSketch(2)
        for key in ("a", "b"):
            second.add(key, 5)
        first.add("z", 1)
        second.add("z", 1)
        # Both evict "a" (the tie's smallest key), whatever arrived first.
        assert first.items() == second.items()

    def test_below_capacity_insertion_order_is_irrelevant(self):
        additions = [("a", 7), ("b", 3), ("c", 9), ("d", 2), ("e", 5)]
        forward = SpaceSavingSketch(8)
        for key, amount in additions:
            forward.add(key, amount)
        backward = SpaceSavingSketch(8)
        for key, amount in reversed(additions):
            backward.add(key, amount)
        # Under capacity the sketch is exact, so order cannot show.
        assert forward.items() == backward.items()

    def test_eviction_conserves_total_count_mass(self):
        # The space-saving invariant: an eviction transfers the victim's
        # count to the newcomer, so the summed counts always equal the
        # summed additions — whatever order they arrived in.
        additions = [("a", 7), ("b", 3), ("c", 9), ("d", 2), ("e", 5)]
        for ordering in (additions, list(reversed(additions))):
            sketch = SpaceSavingSketch(3)
            for key, amount in ordering:
                sketch.add(key, amount)
            assert sum(row[1] for row in sketch.items()) == \
                sum(amount for _key, amount in additions)

    def test_merged_items_truncates_to_capacity(self):
        rows_a = [["a", 10, 0], ["b", 2, 0]]
        rows_b = [["b", 4, 1], ["c", 3, 0]]
        merged = SpaceSavingSketch.merged_items(2, [rows_a, rows_b])
        assert merged == [["a", 10, 0], ["b", 6, 1]]


# ----------------------------------------------------------------------
# Ledger accounting (direct record() calls; no simulation)
# ----------------------------------------------------------------------
class TestFlowLedgerDirect:
    @pytest.fixture()
    def deployment(self):
        from repro.network.builder import build_internet
        from repro.sim import Simulator
        sim = Simulator(seed=1)
        internet = build_internet(sim)
        tele = internet.catalog.by_name("ChinaTelecom")
        cnc = internet.catalog.by_name("ChinaNetcom")
        comcast = internet.catalog.by_name("Comcast")
        addresses = {
            "tele1": internet.allocator.allocate(tele),
            "tele2": internet.allocator.allocate(tele),
            "cnc": internet.allocator.allocate(cnc),
            "us": internet.allocator.allocate(comcast),
        }
        return internet, addresses

    def test_scope_classification(self, deployment):
        internet, addr = deployment
        ledger = FlowLedger(internet.directory, internet.catalog, SPEC)
        _deliver(ledger, addr["tele1"], addr["tele2"], Chunk, 100, 1.0)
        _deliver(ledger, addr["tele1"], addr["cnc"], Chunk, 50, 2.0)
        _deliver(ledger, addr["tele1"], addr["us"], Chunk, 25, 3.0)
        ledger.finish(4.0)
        assert ledger.totals == {"bytes": 175, "datagrams": 3,
                                 "intra_bytes": 100, "transit_bytes": 50,
                                 "transoceanic_bytes": 25}
        assert intra_share(ledger.totals) == 100 / 175
        assert transit_share(ledger.totals) == 75 / 175

    def test_matrix_cells_by_isp_and_kind(self, deployment):
        internet, addr = deployment
        ledger = FlowLedger(internet.directory, internet.catalog, SPEC)
        _deliver(ledger, addr["tele1"], addr["cnc"], Chunk, 10, 0.0)
        _deliver(ledger, addr["tele2"], addr["cnc"], Chunk, 20, 0.0)
        _deliver(ledger, addr["tele1"], addr["cnc"], Ping, 5, 0.0)
        state = ledger.snapshot_state()
        assert state["matrix"] == [
            ["ChinaTelecom", "ChinaNetcom", "Chunk", "transit", 30, 2],
            ["ChinaTelecom", "ChinaNetcom", "Ping", "transit", 5, 1],
        ]

    def test_windows_key_to_sim_time(self, deployment):
        internet, addr = deployment
        ledger = FlowLedger(internet.directory, internet.catalog,
                            FlowSpec(window=10.0, top_k=4))
        _deliver(ledger, addr["tele1"], addr["tele2"], Chunk, 7, 3.0)
        _deliver(ledger, addr["tele1"], addr["tele2"], Chunk, 9, 12.0)
        # Sparse: nothing lands in [20, 30), so no empty row appears.
        _deliver(ledger, addr["tele1"], addr["cnc"], Chunk, 4, 31.0)
        ledger.finish(40.0)
        state = ledger.snapshot_state()
        assert [row[0] for row in state["windows"]] == [0, 1, 3]
        index0 = state["windows"][0]
        assert index0[1] == 7 and index0[3] == 7  # bytes, intra
        tele_in_out = index0[6]["ChinaTelecom"]
        assert tele_in_out == [7, 7]  # same-ISP: in and out both count
        assert state["open_window"] is None

    def test_heartbeat_fields_sorted_and_rounded(self, deployment):
        internet, addr = deployment
        ledger = FlowLedger(internet.directory, internet.catalog,
                            FlowSpec(window=10.0, top_k=4))
        _deliver(ledger, addr["tele1"], addr["cnc"], Chunk, 300, 5.0)
        _deliver(ledger, addr["tele1"], addr["tele2"], Chunk, 100, 15.0)
        fields = ledger.heartbeat_fields()
        assert list(fields) == sorted(fields)
        assert fields["bytes"] == 400
        assert fields["transit_bytes"] == 300
        # Last *closed* window is index 0 (all transit): 300B over 10s.
        assert fields["transit_bps"] == pytest.approx(240.0)

    def test_unresolvable_endpoint_is_counted_not_skewed(self, deployment):
        internet, addr = deployment
        ledger = FlowLedger(internet.directory, internet.catalog, SPEC)
        _deliver(ledger, addr["tele1"], "203.0.113.99", Chunk, 10, 0.0)
        ledger.finish(1.0)
        assert ledger.totals["bytes"] == 0
        assert ledger.datagrams_ignored == 1


# ----------------------------------------------------------------------
# Payload snapshot / validation / merge
# ----------------------------------------------------------------------
class TestSnapshotRestore:
    def _ledger_with_traffic(self):
        config = _tiny_session()
        result = SessionScenario(config).run()
        return result

    def test_snapshot_is_a_json_fixed_point(self):
        result = self._ledger_with_traffic()
        state = result.flows.snapshot_state()
        assert state == json.loads(json.dumps(state))

    def test_restore_rejects_wrong_version(self):
        # A payload replayed from a checkpoint unit reaches the artifact
        # through FlowsWriter.write_unit; both it and the merge run the
        # version guard.
        result = self._ledger_with_traffic()
        state = result.flows.snapshot_state()
        state["version"] = FLOWS_VERSION + 1
        with pytest.raises(ValueError, match="version"):
            validate_flow_payload(state, SPEC)
        with pytest.raises(ValueError, match="version"):
            FlowsWriter(io.StringIO(), SPEC).write_unit({"day": 0}, state)
        with pytest.raises(ValueError, match="version"):
            merge_flow_payloads([state])

    def test_mid_run_snapshot_carries_the_open_window(self):
        from repro.network.builder import build_internet
        from repro.sim import Simulator
        sim = Simulator(seed=1)
        internet = build_internet(sim)
        tele = internet.catalog.by_name("ChinaTelecom")
        a = internet.allocator.allocate(tele)
        b = internet.allocator.allocate(tele)
        ledger = FlowLedger(internet.directory, internet.catalog,
                            FlowSpec(window=10.0, top_k=4))
        _deliver(ledger, a, b, Chunk, 5, 3.0)  # window 0 still open
        state = ledger.snapshot_state()
        assert state["open_window"] is not None
        assert state["windows"] == []
        assert state["totals"]["bytes"] == 5
        # The snapshot is a fold point: the session goes on unchanged.
        _deliver(ledger, a, b, Chunk, 7, 12.0)  # rolls window 0 closed
        ledger.finish(20.0)
        final = ledger.snapshot_state()
        assert [row[0] for row in final["windows"]] == [0, 1]
        assert final["totals"]["bytes"] == 12

    def test_merge_is_order_insensitive_and_sums(self):
        result = self._ledger_with_traffic()
        state = result.flows.snapshot_state()
        other = SessionScenario(_tiny_session(seed=4)).run() \
            .flows.snapshot_state()
        ab = merge_flow_payloads([state, other])
        ba = merge_flow_payloads([other, state])
        assert ab == ba
        assert ab["totals"]["bytes"] == (state["totals"]["bytes"]
                                         + other["totals"]["bytes"])
        assert ab == json.loads(json.dumps(ab))

    def test_merge_rejects_mixed_specs(self):
        result = self._ledger_with_traffic()
        state = result.flows.snapshot_state()
        mismatched = json.loads(json.dumps(state))
        mismatched["window"] = state["window"] * 2
        with pytest.raises(ValueError, match="window"):
            merge_flow_payloads([state, mismatched])

    def test_validate_flow_payload_reports_missing_fields(self):
        with pytest.raises(ValueError, match="missing"):
            validate_flow_payload({"version": FLOWS_VERSION,
                                   "window": 30.0, "top_k": 16})


# ----------------------------------------------------------------------
# Session integration
# ----------------------------------------------------------------------
class TestSessionIntegration:
    def test_totals_match_the_transport_counters_exactly(self):
        result = SessionScenario(_tiny_session()).run()
        udp = result.deployment.internet.udp
        ledger = result.flows
        assert ledger.totals["bytes"] == udp.bytes_delivered
        assert ledger.totals["datagrams"] == udp.datagrams_delivered
        assert ledger.datagrams_ignored == 0
        # And the sink was detached at session end: fast path restored,
        # and the general tap seam was never occupied at all.
        assert udp._flow_sink is None
        assert udp._taps == []

    def test_flow_accounting_never_changes_the_simulation(self):
        with_flows = SessionScenario(_tiny_session()).run()
        without = SessionScenario(_tiny_session(flows=None)).run()
        assert without.flows is None
        assert (with_flows.deployment.sim.events_executed
                == without.deployment.sim.events_executed)
        assert (with_flows.deployment.internet.udp.bytes_delivered
                == without.deployment.internet.udp.bytes_delivered)

    def test_spec_resolves_from_the_instrumentation_bundle(self):
        obs = Instrumentation(flows=FlowsWriter(io.StringIO(), SPEC))
        assert obs.flows_spec == SPEC
        result = SessionScenario(
            _tiny_session(flows=None, instrumentation=obs)).run()
        assert result.flows is not None
        assert result.flows.spec == SPEC

    def test_heartbeats_carry_the_flow_snapshot(self, tmp_path):
        from repro.obs import ProgressBus, read_progress
        path = tmp_path / "p.jsonl"
        obs = Instrumentation(progress_bus=ProgressBus(str(path)))
        SessionScenario(_tiny_session(instrumentation=obs)).run()
        obs.close()
        beats = [r for r in read_progress(str(path))
                 if r["kind"] == "heartbeat"]
        assert beats
        for beat in beats:
            flows = beat["flows"]
            assert list(flows) == sorted(flows)
            assert {"bytes", "intra_share", "transit_bytes"} <= set(flows)


# ----------------------------------------------------------------------
# The golden cross-check: live ledger == post-hoc analysis, exactly
# ----------------------------------------------------------------------
class TestGoldenCrossCheck:
    def test_ledger_transit_share_equals_analysis_exactly(self):
        """Seed-11 golden campaign: per-unit and aggregate equality.

        A session hook attaches an independent full-delivery tap next to
        the ledger; the post-hoc pipeline then recomputes the transit
        byte share from that raw trace.  The two must agree to the last
        bit — same integers in, same expression — unit by unit and on
        the merged campaign totals.
        """
        traces = []

        def capture_hook(sim, deployment, manager, probe_peers):
            deliveries = []
            directory = deployment.internet.directory

            def tap(event, datagram, time):
                if event == "recv":
                    deliveries.append(
                        (datagram.src, datagram.dst,
                         datagram.payload_bytes + HEADER_BYTES))
            deployment.internet.udp.add_tap(tap)
            traces.append((deliveries, directory))

        config = dataclasses.replace(GOLDEN, session_hook=capture_hook)
        result = run_campaign(config)
        units = result.popular + result.unpopular
        assert len(traces) == len(units) == 2 * GOLDEN.days

        total_bytes = 0
        total_intra = 0
        for daily, (deliveries, directory) in zip(units, traces):
            payload = daily.flows
            assert payload is not None
            ledger_share = transit_share(payload["totals"])
            analysis_share = transit_byte_share(deliveries, directory)
            assert ledger_share == analysis_share  # exact, no approx
            assert payload["totals"]["bytes"] == \
                sum(wire for _s, _d, wire in deliveries)
            total_bytes += payload["totals"]["bytes"]
            total_intra += payload["totals"]["intra_bytes"]

        merged = merge_flow_payloads([daily.flows for daily in units])
        assert merged["totals"]["bytes"] == total_bytes
        assert merged["totals"]["intra_bytes"] == total_intra
        all_deliveries = [item for deliveries, _dir in traces
                          for item in deliveries]
        assert transit_share(merged["totals"]) == \
            transit_byte_share(all_deliveries, traces[0][1])


# ----------------------------------------------------------------------
# Campaign artifact determinism
# ----------------------------------------------------------------------
def _run_campaign_artifact(tmp_path, name, jobs=1, checkpoint=None,
                           config=TINY):
    path = tmp_path / f"{name}.jsonl"
    writer = FlowsWriter(str(path), SPEC)
    obs = Instrumentation(flows=writer)
    run_campaign(dataclasses.replace(config, instrumentation=obs),
                 jobs=jobs, checkpoint=checkpoint)
    obs.close()
    return path


class TestCampaignArtifact:
    def test_byte_identical_across_jobs(self, tmp_path):
        serial = _run_campaign_artifact(tmp_path, "serial", jobs=1)
        parallel = _run_campaign_artifact(tmp_path, "parallel", jobs=2)
        assert serial.read_bytes() == parallel.read_bytes()
        records = read_flows(str(serial))
        kinds = [r["kind"] for r in records]
        assert kinds[0] == "flows_header"
        assert kinds[-1] == "flows_summary"
        assert kinds.count("unit_flows") == 2 * TINY.days
        # Units land in canonical campaign order, not completion order.
        units = [r["unit"] for r in records if r["kind"] == "unit_flows"]
        assert units == [{"day": 0, "popularity": "popular"},
                         {"day": 1, "popularity": "popular"},
                         {"day": 0, "popularity": "unpopular"},
                         {"day": 1, "popularity": "unpopular"}]

    def test_byte_identical_across_checkpoint_resume(self, tmp_path):
        plain = _run_campaign_artifact(tmp_path, "plain")
        ckpt = _run_campaign_artifact(
            tmp_path, "ckpt",
            checkpoint=CheckpointPolicy(path=str(tmp_path / "store"),
                                        every=1, resume=False))
        assert plain.read_bytes() == ckpt.read_bytes()
        # Kill one unit and resume: the replayed campaign must emit the
        # same artifact byte for byte.
        (tmp_path / "store" / "units" / "popular-0001.json").unlink()
        resumed = _run_campaign_artifact(
            tmp_path, "resumed",
            checkpoint=CheckpointPolicy(path=str(tmp_path / "store"),
                                        every=1, resume=True))
        assert plain.read_bytes() == resumed.read_bytes()

    def test_resume_without_flow_snapshots_fails_loudly(self, tmp_path):
        bare = dataclasses.replace(TINY, flows=None)
        run_campaign(bare, checkpoint=CheckpointPolicy(
            path=str(tmp_path / "store"), every=1, resume=False))
        with pytest.raises(CheckpointError, match="without "
                                                  "flow accounting"):
            run_campaign(TINY, checkpoint=CheckpointPolicy(
                path=str(tmp_path / "store"), every=1, resume=True))

    def test_summary_footer_matches_recomputed_merge(self, tmp_path):
        path = _run_campaign_artifact(tmp_path, "footer")
        records = read_flows(str(path))
        footer = records[-1]
        assert footer["kind"] == "flows_summary"
        assert footer["units"] == 2 * TINY.days
        assert footer["flows"] == flows_summary_payload(records)


# ----------------------------------------------------------------------
# Writer / reader / renderer / CLI
# ----------------------------------------------------------------------
class TestWriterAndReaders:
    def _payload(self):
        return SessionScenario(_tiny_session()).run() \
            .flows.snapshot_state()

    def test_writer_emits_header_units_footer(self):
        buffer = io.StringIO()
        writer = FlowsWriter(buffer, SPEC)
        payload = self._payload()
        writer.write_unit({"session": "s1"}, payload)
        writer.close()
        records = [json.loads(line) for line
                   in buffer.getvalue().splitlines()]
        assert [r["kind"] for r in records] == [
            "flows_header", "unit_flows", "flows_summary"]
        assert records[0]["version"] == FLOWS_VERSION
        assert records[0]["window"] == SPEC.window
        assert records[1]["unit"] == {"session": "s1"}
        # Single unit: the footer merge is the unit itself (closed).
        assert records[2]["flows"]["totals"] == payload["totals"]

    def test_writer_rejects_spec_mismatched_payloads(self):
        writer = FlowsWriter(io.StringIO(), SPEC)
        payload = self._payload()
        payload["top_k"] = SPEC.top_k + 1
        with pytest.raises(ValueError, match="top_k"):
            writer.write_unit({"session": "bad"}, payload)

    def test_reader_tolerates_a_torn_tail(self, tmp_path):
        path = tmp_path / "f.jsonl"
        writer = FlowsWriter(str(path), SPEC)
        writer.write_unit({"session": "s1"}, self._payload())
        text = path.read_text()
        path.write_text(text[:len(text) - 40])  # tear the last record
        records, tail = read_flows(str(path), with_tail=True)
        assert tail
        assert [r["kind"] for r in records] == ["flows_header"]

    def test_summarize_and_render(self):
        buffer = io.StringIO()
        writer = FlowsWriter(buffer, SPEC)
        payload = self._payload()
        writer.write_unit({"session": "s1"}, payload)
        writer.close()
        buffer.seek(0)
        records = read_flows(buffer)
        summary = summarize_flows(records)
        assert summary["state"] == "finished"
        assert summary["units"] == 1
        assert summary["totals"]["bytes"] == payload["totals"]["bytes"]
        assert 0.0 <= summary["intra_share"] <= 1.0
        assert summary["intra_share"] + summary["transit_share"] \
            == pytest.approx(1.0)
        text = render_flow_summary(summary, source="f.jsonl")
        assert "intra-ISP" in text and "transit" in text
        merged = flows_summary_payload(records)
        matrix = render_flow_matrix(merged)
        assert "ChinaTelecom" in matrix
        by_kind = render_flow_matrix(merged, by_kind=True)
        assert "kind" in by_kind.splitlines()[0]
        windows = render_flow_windows(merged)
        assert "intra%" in windows.splitlines()[0]
        top = render_flow_top(merged, limit=3)
        assert "->" in top

    def test_cli_views(self, tmp_path, capsys):
        path = tmp_path / "f.jsonl"
        writer = FlowsWriter(str(path), SPEC)
        writer.write_unit({"session": "s1"}, self._payload())
        writer.close()
        assert main(["flows", "summary", str(path)]) == 0
        assert "delivered" in capsys.readouterr().out
        assert main(["flows", "matrix", str(path)]) == 0
        assert "scope" in capsys.readouterr().out
        assert main(["flows", "windows", str(path)]) == 0
        capsys.readouterr()
        assert main(["flows", "top", str(path), "--limit", "3"]) == 0
        capsys.readouterr()
        assert main(["flows", "summary", str(path), "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["version"] == FLOWS_VERSION

    def test_cli_on_torn_only_artifact(self, tmp_path, capsys):
        path = tmp_path / "f.jsonl"
        path.write_text('{"kind":"flows_header","versi')
        assert main(["flows", "summary", str(path)]) == 1
        assert "no complete records" in capsys.readouterr().err

    def test_cli_matrix_without_units(self, tmp_path, capsys):
        path = tmp_path / "f.jsonl"
        FlowsWriter(str(path), SPEC).close()
        assert main(["flows", "matrix", str(path)]) == 1
        assert "no unit flow records" in capsys.readouterr().err

    def test_cli_missing_file(self, tmp_path, capsys):
        assert main(["flows", "summary",
                     str(tmp_path / "nope.jsonl")]) == 2
        assert "cannot read" in capsys.readouterr().err
