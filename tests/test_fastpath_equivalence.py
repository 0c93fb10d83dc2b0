"""Determinism equivalence for the hot-path fast paths.

The engine/transport/scheduler overhaul is pure mechanics: pooled
events, single-event delivery scheduling, cached pair classification,
and bitmask sub-piece sets must not move a single RNG draw or reorder a
single event.  These tests run the same seed-11 session under every
configuration the fast paths special-case — taps installed or not,
faults armed or not, observability on or off, campaign ``jobs`` 1 or
2 — and assert the deterministic outputs are identical (or, for the
tap/obs axes, identical *to the baseline*, proving observers are pure
readers).

Two engine goldens pin the counter digest of the small-scale
``tele-popular`` session (seed 7) against values recorded without
instrumentation; the quick one runs with the engine profiler attached,
so a match also proves profiling does not perturb the simulation.
"""

import hashlib
import time
from dataclasses import replace

import pytest

from repro.experiments.base import Scale, WorkloadKey, build_config
from repro.experiments.fig06 import Figure6
from repro.faults import FaultSchedule, LinkDegradation, ServerOutage
from repro.obs import (EngineProfiler, Instrumentation, MetricsRegistry,
                       build_attribution)
from repro.streaming.video import Popularity
from repro.workload.campaign import CampaignConfig, run_campaign
from repro.workload.scenario import ScenarioConfig, SessionScenario

from .test_campaign_goldens import _series_digest

#: sha256 of the ``_counters`` tuple of the small-scale tele-popular
#: session at seed 7, trimmed to 24 viewers, 90 + 180 s (85,881 events).
ENGINE_QUICK_DIGEST = \
    "efcee22a2e6509864e525a3abd58377fcf2d4e815bf3f48fcabc81721311499f"
#: The same session untrimmed: 40 viewers, 150 + 420 s (350,523 events).
ENGINE_DEFAULT_DIGEST = \
    "470c7804aad6770cf3b78dd70a795c87c40b1e74c5bbee5dbd084f9389d04341"


def _config(**overrides) -> ScenarioConfig:
    base = dict(seed=11, population=16, warmup=60.0, duration=120.0)
    base.update(overrides)
    return ScenarioConfig(**base)


def _counters(result):
    """Every deterministic counter the fast paths touch."""
    sim = result.deployment.sim
    udp = result.deployment.internet.udp
    return (sim.events_executed, udp.datagrams_sent,
            udp.datagrams_delivered, udp.datagrams_lost,
            udp.datagrams_dropped_uplink, udp.datagrams_dropped_offline,
            udp.datagrams_dropped_fault, udp.bytes_delivered)


def _counters_digest(result) -> str:
    return hashlib.sha256("|".join(
        str(value) for value in _counters(result)).encode()).hexdigest()


def _run(**overrides):
    return SessionScenario(_config(**overrides)).run()


def _engine_config(**overrides) -> ScenarioConfig:
    key = WorkloadKey("tele", Popularity.POPULAR, Scale.SMALL, 7)
    return replace(build_config(key), **overrides)


def _fault_schedule() -> FaultSchedule:
    return FaultSchedule(events=(
        ServerOutage(target="trackers", start=80.0, duration=30.0),
        LinkDegradation(pair_class="intra_isp", start=100.0, duration=40.0,
                        latency_multiplier=2.0, extra_loss=0.3),
    ))


class TestSessionEquivalence:
    def test_run_twice_byte_identical(self):
        assert _counters(_run()) == _counters(_run())

    def test_tap_installed_is_pure_observer(self):
        # The transport skips every tap dispatch when no tap is
        # installed; installing one must change nothing but the
        # observations themselves.
        baseline = _counters(_run())
        events = []

        def hook(sim, deployment, manager, probe_peers):
            deployment.internet.udp.add_tap(
                lambda kind, datagram, time: events.append(kind))

        tapped = _run(run_hook=hook)
        assert _counters(tapped) == baseline
        # ... and the tap really fired, so the gated path still works.
        assert "send" in events or "recv" in events

    def test_observability_on_is_pure_observer(self):
        baseline = _counters(_run())
        obs = Instrumentation(metrics=MetricsRegistry())
        assert _counters(_run(instrumentation=obs)) == baseline

    def test_faulted_run_twice_byte_identical(self):
        first = _run(faults=_fault_schedule())
        second = _run(faults=_fault_schedule())
        assert _counters(first) == _counters(second)
        # The fault fast paths are still live: the outage filter dropped
        # datagrams and the injector completed both fault windows.
        assert first.deployment.internet.udp.datagrams_dropped_fault > 0
        assert first.injector.faults_begun == 2
        assert first.injector.faults_ended == 2

    def test_link_degradation_still_bites_through_pair_cache(self):
        # The latency model caches per-ASN-pair classification/params;
        # a PathOverride must still take effect (extra loss visibly
        # changes the loss counter vs the baseline run).
        baseline = _run()
        degraded = _run(faults=_fault_schedule())
        assert (degraded.deployment.internet.udp.datagrams_lost
                > baseline.deployment.internet.udp.datagrams_lost)

    def test_taps_and_faults_together_match_faults_alone(self):
        plain = _counters(_run(faults=_fault_schedule()))

        def hook(sim, deployment, manager, probe_peers):
            deployment.internet.udp.add_tap(lambda *args: None)

        tapped = _counters(_run(faults=_fault_schedule(), run_hook=hook))
        assert tapped == plain


class TestCampaignEquivalence:
    CONFIG = dict(seed=11, days=2, popular_population=8,
                  unpopular_population=5, session_duration=90.0,
                  warmup=45.0)

    @staticmethod
    def _digests(result):
        table = Figure6(result=result).render()
        return (hashlib.sha256(table.encode()).hexdigest(),
                _series_digest(result))

    def test_jobs_1_and_2_identical(self):
        serial = run_campaign(CampaignConfig(**self.CONFIG), jobs=1)
        parallel = run_campaign(CampaignConfig(**self.CONFIG), jobs=2)
        assert self._digests(serial) == self._digests(parallel)


class TestEngineGoldens:
    @pytest.fixture(scope="class")
    def profiled_quick(self):
        """The quick session run once with the engine profiler attached:
        its result and the attribution block for its wall time."""
        profiler = EngineProfiler()
        config = _engine_config(
            population=24, warmup=90.0, duration=180.0,
            instrumentation=Instrumentation(profiler=profiler,
                                            heartbeat=False))
        started = time.perf_counter()
        result = SessionScenario(config).run()
        wall = time.perf_counter() - started
        return result, build_attribution(profiler, wall)

    def test_quick_session_profiled(self, profiled_quick):
        result, _ = profiled_quick
        # Recorded without instrumentation; the heartbeat sampler is off
        # because it schedules events of its own.
        assert _counters_digest(result) == ENGINE_QUICK_DIGEST

    def test_quick_session_attribution_coverage(self, profiled_quick):
        _, attribution = profiled_quick
        # At least 90% of the wall time lands in a named bucket: a hot
        # path running outside every bucket fails here.
        assert attribution["coverage"] >= 0.9
        buckets = attribution["buckets"]
        assert {"engine", "transport", "protocol"} <= set(buckets)
        for entry in buckets.values():
            assert entry["wall_seconds"] >= 0.0
            assert 0.0 <= entry["share"] <= 1.0

    def test_quick_session_buckets_explain_90pct_of_wall(self,
                                                         profiled_quick):
        _, attribution = profiled_quick
        covered = sum(entry["wall_seconds"]
                      for entry in attribution["buckets"].values())
        assert covered >= 0.9 * attribution["total_wall_seconds"]

    def test_default_session(self):
        result = SessionScenario(_engine_config()).run()
        assert _counters_digest(result) == ENGINE_DEFAULT_DIGEST
