"""Tests for per-subsystem wall-time attribution (obs.attribution)."""

from repro.obs.attribution import (LABEL_SUBSYSTEMS, SUBSYSTEMS,
                                   build_attribution, subsystem_of)
from repro.obs.profiler import EngineProfiler


class TestSubsystemOf:
    def test_exact_labels(self):
        assert subsystem_of("udp-deliver") == "transport"
        assert subsystem_of("tracker-round") == "protocol"
        assert subsystem_of("playback-maintenance") == "playback"
        assert subsystem_of("viewer-arrive") == "workload"
        assert subsystem_of("obs-heartbeat") == "obs"
        assert subsystem_of("chaos-bin") == "analysis"

    def test_prefixes(self):
        assert subsystem_of("fault-server-outage") == "faults"
        assert subsystem_of("spawn:viewer") == "workload"

    def test_unlabelled_and_unknown(self):
        assert subsystem_of("") == "workload"
        assert subsystem_of("timer") == "workload"
        assert subsystem_of("brand-new-label") == "other"

    def test_every_mapped_bucket_is_a_known_subsystem(self):
        for bucket in LABEL_SUBSYSTEMS.values():
            assert bucket in SUBSYSTEMS


def _profiler(labels, phases):
    profiler = EngineProfiler()
    for label, (count, wall) in labels.items():
        for _ in range(count):
            profiler.record(label, wall / count)
    profiler.phases.update(phases)
    return profiler


class TestBuildAttribution:
    def test_buckets_sum_and_coverage(self):
        profiler = _profiler(
            {"udp-deliver": (100, 0.4), "tracker-round": (10, 0.3),
             "gossip-round": (5, 0.1)},
            {"setup": 0.05, "sim": 1.0, "analysis": 0.1})
        attribution = build_attribution(profiler, total_wall_seconds=1.2)
        buckets = attribution["buckets"]
        assert buckets["transport"]["wall_seconds"] == 0.4
        assert buckets["transport"]["events"] == 100
        assert buckets["protocol"]["wall_seconds"] == 0.4
        # Dispatch = sim phase minus callback wall: 1.0 - 0.8 = 0.2.
        assert buckets["engine"]["wall_seconds"] == 0.2
        assert buckets["setup"]["wall_seconds"] == 0.05
        assert buckets["analysis"]["wall_seconds"] == 0.1
        covered = sum(b["wall_seconds"] for b in buckets.values())
        assert attribution["coverage"] == round(
            min(1.0, covered / 1.2), 4)
        assert attribution["coverage"] >= 0.9

    def test_engine_bucket_never_negative(self):
        # Callback wall exceeding the sim phase (measurement jitter)
        # must clamp, not go negative.
        profiler = _profiler({"udp-deliver": (10, 0.5)}, {"sim": 0.4})
        attribution = build_attribution(profiler, 0.5)
        assert attribution["buckets"]["engine"]["wall_seconds"] == 0.0

    def test_buckets_follow_display_order(self):
        profiler = _profiler(
            {"udp-deliver": (1, 0.1), "tracker-round": (1, 0.1),
             "strange": (1, 0.1)},
            {"sim": 0.3, "setup": 0.1})
        names = list(build_attribution(profiler, 0.4)["buckets"])
        assert names == [name for name in SUBSYSTEMS if name in names] \
            or names[-1] == "strange"
        assert "other" in names  # the unmapped label landed somewhere

    def test_shares_against_caller_total(self):
        profiler = _profiler({"udp-deliver": (1, 0.5)}, {"sim": 0.5})
        attribution = build_attribution(profiler, 1.0)
        assert attribution["buckets"]["transport"]["share"] == 0.5
        assert attribution["total_wall_seconds"] == 1.0
