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
"""

import hashlib

from repro.experiments.fig06 import Figure6
from repro.faults import FaultSchedule, LinkDegradation, ServerOutage
from repro.obs import Instrumentation, MetricsRegistry
from repro.streaming.video import Popularity
from repro.workload.campaign import CampaignConfig, run_campaign
from repro.workload.scenario import ScenarioConfig, SessionScenario


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


def _run(**overrides):
    return SessionScenario(_config(**overrides)).run()


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
        # The transport skips every _notify call when no tap is
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
        parts = []
        for popularity in (Popularity.POPULAR, Popularity.UNPOPULAR):
            for curve in ("CNC", "TELE", "Mason"):
                parts.append(",".join(f"{value:.9e}" for value
                                      in result.series(popularity, curve)))
        return (hashlib.sha256(table.encode()).hexdigest(),
                hashlib.sha256("|".join(parts).encode()).hexdigest())

    def test_jobs_1_and_2_identical(self):
        serial = run_campaign(CampaignConfig(**self.CONFIG), jobs=1)
        parallel = run_campaign(CampaignConfig(**self.CONFIG), jobs=2)
        assert self._digests(serial) == self._digests(parallel)
