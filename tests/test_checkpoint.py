"""Checkpoint artifact format, store and corruption handling.

The resume contract is only as strong as its failure modes: every way a
checkpoint directory can be wrong — truncated file, flipped byte, schema
skew, mislabeled unit, foreign file, stale configuration — must raise a
clear :class:`CheckpointError` instead of resuming silently divergent.
This suite is the corruption matrix; the byte-identity of *successful*
resumes is proven in ``test_resume_determinism.py``.
"""

import dataclasses
import json
import os

import pytest

from repro.checkpoint import (SCHEMA_VERSION, CheckpointError,
                              CheckpointPolicy, UnitCheckpointStore,
                              canonical_json, payload_digest,
                              read_artifact, write_artifact)
from repro.checkpoint.format import TMP_SUFFIX
from repro.faults import FaultSchedule, ServerOutage
from repro.workload.campaign import (CampaignConfig,
                                     campaign_config_digest)


# ----------------------------------------------------------------------
# Envelope format
# ----------------------------------------------------------------------
class TestArtifactFormat:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "a.json"
        payload = {"day": 3, "locality": {"TELE": 78.50002925045902},
                   "nested": [1, 2.5, None, "x"]}
        write_artifact(path, "unit-test", payload)
        assert read_artifact(path, "unit-test") == payload

    def test_floats_round_trip_exactly(self, tmp_path):
        path = tmp_path / "f.json"
        values = [0.1 + 0.2, 1e-308, 74.97386921027905, 3.0]
        write_artifact(path, "unit-test", {"values": values})
        restored = read_artifact(path, "unit-test")["values"]
        assert all(a == b for a, b in zip(restored, values))

    def test_canonical_json_is_key_order_independent(self):
        assert canonical_json({"b": 1, "a": 2}) \
            == canonical_json({"a": 2, "b": 1})
        assert payload_digest({"b": 1, "a": 2}) \
            == payload_digest({"a": 2, "b": 1})

    def test_atomic_overwrite(self, tmp_path):
        path = tmp_path / "a.json"
        write_artifact(path, "unit-test", {"generation": 1})
        write_artifact(path, "unit-test", {"generation": 2})
        assert read_artifact(path, "unit-test") == {"generation": 2}
        leftovers = [p for p in tmp_path.iterdir()
                     if p.name.endswith(TMP_SUFFIX)]
        assert leftovers == []

    def test_unserialisable_payload_leaves_no_file(self, tmp_path):
        path = tmp_path / "bad.json"
        with pytest.raises(CheckpointError, match="unserialisable"):
            write_artifact(path, "unit-test", {"rng": object()})
        assert not path.exists()

    def test_nan_payload_rejected(self, tmp_path):
        with pytest.raises(CheckpointError, match="unserialisable"):
            write_artifact(tmp_path / "nan.json", "unit-test",
                           {"value": float("nan")})


class TestArtifactCorruption:
    @pytest.fixture
    def artifact(self, tmp_path):
        path = tmp_path / "a.json"
        write_artifact(path, "unit-test", {"day": 1, "value": 2.5})
        return path

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read"):
            read_artifact(tmp_path / "absent.json", "unit-test")

    def test_truncated_file(self, artifact):
        text = artifact.read_text()
        artifact.write_text(text[:len(text) // 2])
        with pytest.raises(CheckpointError,
                           match="truncated or malformed"):
            read_artifact(artifact, "unit-test")

    def test_empty_file(self, artifact):
        artifact.write_text("")
        with pytest.raises(CheckpointError,
                           match="truncated or malformed"):
            read_artifact(artifact, "unit-test")

    def test_non_object_envelope(self, artifact):
        artifact.write_text("[1,2,3]\n")
        with pytest.raises(CheckpointError, match="JSON object"):
            read_artifact(artifact, "unit-test")

    @pytest.mark.parametrize("field",
                             ["schema", "kind", "payload", "digest"])
    def test_missing_envelope_field(self, artifact, field):
        envelope = json.loads(artifact.read_text())
        del envelope[field]
        artifact.write_text(json.dumps(envelope))
        with pytest.raises(CheckpointError, match=f"missing '{field}'"):
            read_artifact(artifact, "unit-test")

    def test_schema_skew(self, artifact):
        envelope = json.loads(artifact.read_text())
        envelope["schema"] = SCHEMA_VERSION + 1
        artifact.write_text(json.dumps(envelope))
        with pytest.raises(CheckpointError, match="schema skew"):
            read_artifact(artifact, "unit-test")

    def test_kind_mismatch(self, artifact):
        with pytest.raises(CheckpointError, match="kind mismatch"):
            read_artifact(artifact, "some-other-kind")

    def test_digest_mismatch_on_payload_edit(self, artifact):
        envelope = json.loads(artifact.read_text())
        envelope["payload"]["value"] = 99.0  # hand-edited, digest stale
        artifact.write_text(json.dumps(envelope))
        with pytest.raises(CheckpointError, match="digest mismatch"):
            read_artifact(artifact, "unit-test")

    def test_non_object_payload(self, artifact):
        envelope = json.loads(artifact.read_text())
        envelope["payload"] = [1, 2]
        artifact.write_text(json.dumps(envelope))
        with pytest.raises(CheckpointError, match="payload is not"):
            read_artifact(artifact, "unit-test")


# ----------------------------------------------------------------------
# Unit store
# ----------------------------------------------------------------------
DIGEST = "d" * 64


def _store(tmp_path, digest=DIGEST, units=()):
    store = UnitCheckpointStore(tmp_path / "ckpt")
    store.initialize(digest, seed=11, days=2, total_units=4)
    for key in units:
        store.write_unit(key, digest,
                         {"population": 10,
                          "locality_by_isp": {"TELE": 75.0},
                          "events_executed": 1000})
    return store


class TestCampaignStore:
    def test_manifest_round_trip(self, tmp_path):
        store = _store(tmp_path)
        manifest = store.load_manifest(DIGEST)
        assert manifest["seed"] == 11
        assert manifest["days"] == 2
        assert manifest["total_units"] == 4

    def test_missing_manifest(self, tmp_path):
        store = UnitCheckpointStore(tmp_path / "nowhere")
        with pytest.raises(CheckpointError,
                           match="start one with --checkpoint"):
            store.load_manifest(DIGEST)

    def test_stale_config_manifest(self, tmp_path):
        store = _store(tmp_path)
        with pytest.raises(CheckpointError,
                           match="different campaign configuration"):
            store.load_manifest("e" * 64)

    def test_units_iterate_sorted(self, tmp_path):
        store = _store(tmp_path, units=[("unpopular", 1), ("popular", 0),
                                        ("popular", 1)])
        keys = [key for key, _ in store.iter_units(DIGEST)]
        assert keys == [("popular", 0), ("popular", 1),
                        ("unpopular", 1)]

    def test_unit_payload_round_trip(self, tmp_path):
        store = _store(tmp_path, units=[("popular", 0)])
        units = dict(store.iter_units(DIGEST))
        payload = units[("popular", 0)]
        assert payload["locality_by_isp"] == {"TELE": 75.0}
        assert payload["events_executed"] == 1000

    def test_mislabeled_unit_file(self, tmp_path):
        store = _store(tmp_path, units=[("popular", 0)])
        os.rename(store.unit_path(("popular", 0)),
                  store.unit_path(("popular", 1)))
        with pytest.raises(CheckpointError, match="mislabeled"):
            dict(store.iter_units(DIGEST))

    def test_foreign_file_in_units_dir(self, tmp_path):
        store = _store(tmp_path, units=[("popular", 0)])
        (store.units_dir / "notes.json").write_text("{}")
        with pytest.raises(CheckpointError, match="unexpected file"):
            dict(store.iter_units(DIGEST))

    def test_stale_config_unit(self, tmp_path):
        store = _store(tmp_path, units=[("popular", 0)])
        store.write_unit(("popular", 1), "e" * 64,
                         {"population": 9,
                          "locality_by_isp": {}, "events_executed": 1})
        with pytest.raises(CheckpointError, match="stale checkpoint"):
            dict(store.iter_units(DIGEST))

    def test_truncated_unit(self, tmp_path):
        store = _store(tmp_path, units=[("popular", 0)])
        path = store.unit_path(("popular", 0))
        path.write_text(path.read_text()[:40])
        with pytest.raises(CheckpointError,
                           match="truncated or malformed"):
            dict(store.iter_units(DIGEST))

    def test_initialize_clears_stale_units(self, tmp_path):
        store = _store(tmp_path, units=[("popular", 0), ("unpopular", 0)])
        store.initialize("e" * 64, seed=12, days=2, total_units=4)
        assert dict(store.iter_units("e" * 64)) == {}

    def test_tmp_files_are_ignored_by_scans(self, tmp_path):
        store = _store(tmp_path, units=[("popular", 0)])
        (store.units_dir / f"popular-0001.json{TMP_SUFFIX}") \
            .write_text("torn")
        keys = [key for key, _ in store.iter_units(DIGEST)]
        assert keys == [("popular", 0)]


# ----------------------------------------------------------------------
# Policy and config digests
# ----------------------------------------------------------------------
class TestCheckpointPolicy:
    def test_defaults(self):
        policy = CheckpointPolicy(path="x")
        assert policy.every == 1 and not policy.resume

    @pytest.mark.parametrize("every", [0, -1])
    def test_rejects_non_positive_every(self, every):
        with pytest.raises(ValueError, match="checkpoint-every"):
            CheckpointPolicy(path="x", every=every)


class TestCampaignConfigDigest:
    def test_stable_across_equal_configs(self):
        assert campaign_config_digest(CampaignConfig()) \
            == campaign_config_digest(CampaignConfig())

    @pytest.mark.parametrize("change", [
        {"seed": 12}, {"days": 27}, {"popular_population": 91},
        {"session_duration": 901.0}, {"warmup": 100.0},
        {"audience_noise_sigma": 0.21},
        {"probe_isps": ("ChinaNetcom",)},
    ])
    def test_sensitive_to_result_affecting_knobs(self, change):
        base = campaign_config_digest(CampaignConfig())
        changed = campaign_config_digest(CampaignConfig(**change))
        assert changed != base

    def test_sensitive_to_fault_schedule(self):
        base = campaign_config_digest(CampaignConfig())
        schedule = FaultSchedule(events=(
            ServerOutage(target="bootstrap", start=10.0, duration=10.0),))
        faulted = campaign_config_digest(CampaignConfig(faults=schedule))
        assert faulted != base

    def test_instrumentation_is_excluded(self):
        from repro.obs import Instrumentation
        plain = campaign_config_digest(CampaignConfig())
        instrumented = campaign_config_digest(
            CampaignConfig(instrumentation=Instrumentation()))
        assert instrumented == plain
