"""End-to-end measurement scenarios.

A :class:`SessionScenario` reproduces one of the paper's experiment
set-ups: a PPLive-style deployment (bootstrap server, five tracker
groups in TELE/TELE/CNC/CNC/CER, a channel source in TELE), a churned
viewer population drawn from a :class:`PopulationMix`, and one or more
instrumented *probe* clients whose traffic is captured with a
:class:`ProbeSniffer` — the analogue of the authors' Wireshark hosts.

``run()`` executes: population ramp-up and warm-up, probe join, the
measured viewing window, teardown — and returns a
:class:`SessionResult` holding the traces and matched transactions per
probe, plus the directory and infrastructure addresses the analysis
layer needs.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..capture.matching import MatchReport, match_all
from ..capture.sniffer import ProbeSniffer
from ..capture.store import TraceStore
from ..faults import FaultInjector, FaultSchedule
from ..network.bandwidth import ADSL, CAMPUS, AccessProfile
from ..network.builder import Internet, build_internet
from ..obs import FlowLedger, FlowSpec, HeartbeatSampler, Instrumentation
from ..obs import resolve as resolve_obs
from ..protocol.bootstrap import BootstrapServer
from ..protocol.config import ProtocolConfig
from ..protocol.peer import PPLivePeer
from ..protocol.policy import PeerSelectionPolicy, PPLiveReferralPolicy
from ..protocol.source import SourceServer
from ..protocol.tracker import TrackerServer
from ..sim.engine import Simulator
from ..streaming.chunks import ChunkGeometry
from ..streaming.video import LiveChannel, Popularity
from .churn import ChurnModel, PopulationManager
from .popularity import PopulationMix, popular_channel_mix

#: Tracker-group deployment, as reverse-engineered: all in the big
#: Chinese carriers ("PPLive does not deploy tracker servers in other
#: ISPs").
TRACKER_GROUP_ISPS = ("ChinaTelecom", "ChinaTelecom", "ChinaNetcom",
                      "ChinaNetcom", "CERNET")

#: Policy factory: given the live deployment, build a policy instance.
PolicyFactory = Callable[["Deployment"], PeerSelectionPolicy]


def _default_policy_factory(deployment: "Deployment") -> PeerSelectionPolicy:
    return PPLiveReferralPolicy()


@dataclass(frozen=True)
class ProbeSpec:
    """One instrumented client, like the paper's 8 deployed hosts."""

    name: str
    isp_name: str = "ChinaTelecom"
    profile: AccessProfile = ADSL


#: The paper's featured probes.
TELE_PROBE = ProbeSpec("tele-probe", "ChinaTelecom", ADSL)
CNC_PROBE = ProbeSpec("cnc-probe", "ChinaNetcom", ADSL)
CER_PROBE = ProbeSpec("cer-probe", "CERNET", CAMPUS)
MASON_PROBE = ProbeSpec("mason-probe", "GMU-Campus", CAMPUS)


@dataclass
class ScenarioConfig:
    """Everything needed to run one measured viewing session."""

    seed: int = 7
    #: Target concurrent audience (excluding probes).
    population: int = 120
    mix: PopulationMix = field(default_factory=popular_channel_mix)
    popularity: Popularity = Popularity.POPULAR
    probes: Tuple[ProbeSpec, ...] = (TELE_PROBE,)
    #: Seconds of swarm formation before the probes join.
    warmup: float = 240.0
    #: Probe viewing window (the paper's sessions are 2 h = 7200 s).
    duration: float = 1800.0
    churn: ChurnModel = field(default_factory=ChurnModel)
    protocol: ProtocolConfig = field(default_factory=ProtocolConfig)
    geometry: ChunkGeometry = field(default_factory=ChunkGeometry)
    policy_factory: PolicyFactory = _default_policy_factory
    #: Probe-side policy; defaults to the population policy.
    probe_policy_factory: Optional[PolicyFactory] = None
    replace_departures: bool = True
    #: Origin uplink provisioned as this share of aggregate stream demand
    #: (population x bitrate) — real origins serve a small fraction of a
    #: swarm, and this keeps that fraction stable across scenario sizes.
    source_uplink_share: float = 0.35
    #: Deploy ISP-aware trackers (the paper's reference [28] design)
    #: instead of PPLive's plain random-sample trackers.
    isp_aware_trackers: bool = False
    #: Observability bundle (metrics/trace/profiler); ``None`` keeps the
    #: zero-overhead no-op default and byte-identical behaviour.
    instrumentation: Optional[Instrumentation] = None
    #: Deterministic fault schedule armed onto the session (chaos runs);
    #: ``None`` injects nothing and changes nothing.
    faults: Optional[FaultSchedule] = None
    #: Traffic-flow ledger knobs; a non-``None`` spec attaches a
    #: :class:`FlowLedger` tap for the whole session.  Picklable, so
    #: ``--jobs N`` workers (which carry no instrumentation) still
    #: account flows.  ``None`` falls back to the instrumentation
    #: bundle's ``flows_spec``, and attaches nothing if that is unset —
    #: preserving the no-tap fast path.
    flows: Optional[FlowSpec] = None
    #: Experiment hook called once, right before the simulation runs:
    #: ``run_hook(sim, deployment, manager, probe_peers)``.  Used by the
    #: chaos experiment to install windowed samplers; ``probe_peers``
    #: fills in as probes join.
    run_hook: Optional[Callable] = None


@dataclass
class Deployment:
    """The wired-up infrastructure of one scenario run."""

    sim: Simulator
    internet: Internet
    channel: LiveChannel
    bootstrap: BootstrapServer
    trackers: List[TrackerServer]
    source: SourceServer

    @property
    def infrastructure_addresses(self) -> frozenset:
        addresses = {self.bootstrap.address, self.source.address}
        addresses.update(t.address for t in self.trackers)
        return frozenset(addresses)


@dataclass
class ProbeResult:
    """Capture and matching output for one probe."""

    spec: ProbeSpec
    peer: PPLivePeer
    trace: TraceStore
    report: MatchReport

    @property
    def address(self) -> str:
        return self.peer.address


@dataclass
class SessionResult:
    """Everything a session produced, ready for analysis."""

    config: ScenarioConfig
    deployment: Deployment
    probes: Dict[str, ProbeResult]
    population: PopulationManager
    #: The armed fault injector, when the config carried a schedule.
    injector: Optional[FaultInjector] = None
    #: The finished traffic-flow ledger, when a flow spec was active.
    flows: Optional[FlowLedger] = None

    @property
    def directory(self):
        return self.deployment.internet.directory

    @property
    def infrastructure(self) -> frozenset:
        return self.deployment.infrastructure_addresses

    def probe(self, name: Optional[str] = None) -> ProbeResult:
        """The named probe's results (or the only probe's)."""
        if name is None:
            if len(self.probes) != 1:
                raise ValueError(
                    f"session has {len(self.probes)} probes; name one of "
                    f"{sorted(self.probes)}")
            return next(iter(self.probes.values()))
        return self.probes[name]


class SessionScenario:
    """Builds and runs one measured viewing session."""

    def __init__(self, config: Optional[ScenarioConfig] = None) -> None:
        self.config = config if config is not None else ScenarioConfig()

    # ------------------------------------------------------------------
    # Deployment
    # ------------------------------------------------------------------
    def build_deployment(self, sim: Simulator) -> Deployment:
        cfg = self.config
        internet = build_internet(sim, obs=cfg.instrumentation)
        catalog = internet.catalog
        allocator = internet.allocator

        channel = LiveChannel(channel_id=1,
                              name=f"{cfg.mix.name}-program",
                              popularity=cfg.popularity,
                              geometry=cfg.geometry,
                              start_time=0.0)

        tele = catalog.by_name("ChinaTelecom")
        bootstrap = BootstrapServer(sim, internet.udp,
                                    allocator.allocate(tele), tele)
        bootstrap.go_online()

        trackers: List[TrackerServer] = []
        for group_id, isp_name in enumerate(TRACKER_GROUP_ISPS):
            isp = catalog.by_name(isp_name)
            if cfg.isp_aware_trackers:
                from ..baselines.isp_tracker import IspAwareTrackerServer
                tracker = IspAwareTrackerServer(
                    sim, internet.udp, allocator.allocate(isp), isp,
                    cfg.protocol, internet.directory, group_id=group_id)
            else:
                tracker = TrackerServer(sim, internet.udp,
                                        allocator.allocate(isp), isp,
                                        cfg.protocol, group_id=group_id)
            tracker.go_online()
            trackers.append(tracker)

        demand_bps = cfg.population * cfg.geometry.bitrate_bps
        source_bps = max(2.0 * cfg.geometry.bitrate_bps,
                         cfg.source_uplink_share * demand_bps)
        source_profile = AccessProfile("source", down_bps=source_bps,
                                       up_bps=source_bps, max_backlog=2.0)
        source = SourceServer(sim, internet.udp, allocator.allocate(tele),
                              tele, channel, cfg.protocol,
                              profile=source_profile)
        source.go_online()
        for tracker in trackers:
            tracker.seed_peer(channel.channel_id, source.address)

        bootstrap.publish_channel(channel, [[t.address] for t in trackers])
        return Deployment(sim=sim, internet=internet, channel=channel,
                          bootstrap=bootstrap, trackers=trackers,
                          source=source)

    # ------------------------------------------------------------------
    # Viewers
    # ------------------------------------------------------------------
    def _make_viewer(self, deployment: Deployment,
                     policy: PeerSelectionPolicy) -> PPLivePeer:
        cfg = self.config
        internet = deployment.internet
        rng = deployment.sim.random.stream("viewer-sampling")
        isp, profile = cfg.mix.sample_viewer(internet.catalog, rng)
        address = internet.allocator.allocate(isp)
        peer = PPLivePeer(
            deployment.sim, internet.udp, address, isp, profile,
            cfg.protocol, deployment.channel,
            bootstrap_address=deployment.bootstrap.address,
            policy=policy, source_address=deployment.source.address,
            obs=cfg.instrumentation)
        peer.join()
        return peer

    def _make_probe(self, deployment: Deployment,
                    spec: ProbeSpec) -> PPLivePeer:
        cfg = self.config
        internet = deployment.internet
        isp = internet.catalog.by_name(spec.isp_name)
        address = internet.allocator.allocate(isp)
        factory = cfg.probe_policy_factory or cfg.policy_factory
        return PPLivePeer(
            deployment.sim, internet.udp, address, isp, spec.profile,
            cfg.protocol, deployment.channel,
            bootstrap_address=deployment.bootstrap.address,
            policy=factory(deployment),
            source_address=deployment.source.address,
            obs=cfg.instrumentation)

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def _install_heartbeat(self, obs: Instrumentation, sim: Simulator,
                           deployment: Deployment,
                           manager: "PopulationManager",
                           probe_peers: Dict[str, PPLivePeer],
                           injector: Optional[FaultInjector] = None,
                           sim_end: Optional[float] = None,
                           ledger: Optional[FlowLedger] = None
                           ) -> HeartbeatSampler:
        """Periodic progress beacon: swarm size, neighbor fill, uplink
        backlog and playback health, as gauges and progress-bus
        heartbeats.  ``sim_end`` and the per-ISP peer census ride along
        so the progress bus can extrapolate an ETA and ``repro top`` can
        show swarm composition."""
        cfg = self.config
        udp = deployment.internet.udp
        metrics = obs.metrics
        g_viewers = metrics.gauge("workload.active_viewers")
        g_online = metrics.gauge("net.online_hosts")
        # Pre-resolved per-probe handles: no per-sample name lookups.
        g_fill = metrics.gauge_family("proto.neighbor_fill", "probe")
        g_backlog = metrics.gauge_family("net.uplink_backlog_seconds_last",
                                         "probe")
        g_continuity = metrics.gauge_family("streaming.continuity_index",
                                            "probe")
        g_lead = metrics.gauge_family("streaming.buffer_lead_chunks",
                                      "probe")

        def sample(now: float) -> dict:
            fields = {"viewers": manager.active_count,
                      "online_hosts": udp.online_count}
            if sim_end is not None:
                fields["sim_end"] = sim_end
            fields["peers_by_isp"] = udp.online_by_isp()
            if injector is not None:
                fields["faults_active"] = len(injector.active)
            if ledger is not None:
                fields["flows"] = ledger.heartbeat_fields()
            g_viewers.set(manager.active_count)
            g_online.set(udp.online_count)
            neighbor_fill = []
            for name, peer in sorted(probe_peers.items()):
                neighbors = len(peer.neighbors)
                neighbor_fill.append(
                    f"{neighbors}/{cfg.protocol.max_neighbors}")
                g_fill.labeled(name).set(neighbors)
                backlog = peer.uplink.backlog(now)
                g_backlog.labeled(name).set(round(backlog, 6))
                if peer.player is not None:
                    continuity = peer.player.continuity_index
                    g_continuity.labeled(name).set(round(continuity, 6))
                    g_lead.labeled(name).set(
                        peer.have_until - peer.player.playout_chunk)
                    fields[f"{name}.continuity"] = round(continuity, 3)
            if neighbor_fill:
                fields["probe_neighbors"] = ",".join(neighbor_fill)
            return fields

        return HeartbeatSampler(sim, obs, sample)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self) -> SessionResult:
        cfg = self.config
        obs = resolve_obs(cfg.instrumentation)
        profiler = obs.profiler

        def phase(name: str):
            # Phase clocks feed the attribution report; without a
            # profiler they cost nothing.
            return (profiler.phase(name) if profiler is not None
                    else nullcontext())

        sim = Simulator(seed=cfg.seed, profiler=profiler)
        end_time = cfg.warmup + cfg.duration
        flow_spec = cfg.flows if cfg.flows is not None else obs.flows_spec
        with phase("setup"):
            deployment = self.build_deployment(sim)
            ledger = None
            if flow_spec is not None:
                ledger = FlowLedger(deployment.internet.directory,
                                    deployment.internet.catalog, flow_spec)
                deployment.internet.udp.set_flow_sink(ledger.sink)
            session_span = None
            if obs.spans.enabled:
                session_span = obs.spans.start_span(
                    "session", "workload", sim.now, actor="session",
                    seed=cfg.seed, population=cfg.population,
                    popularity=cfg.popularity.value)

            population_policy = cfg.policy_factory(deployment)
            manager = PopulationManager(
                sim, cfg.population,
                spawn_viewer=lambda: self._make_viewer(deployment,
                                                       population_policy),
                churn=cfg.churn,
                replace_departures=cfg.replace_departures)
            manager.start()

            injector = None
            if cfg.faults is not None and len(cfg.faults):
                injector = FaultInjector(
                    sim, cfg.faults,
                    network=deployment.internet.udp,
                    latency=deployment.internet.latency,
                    bootstrap=deployment.bootstrap,
                    trackers=deployment.trackers,
                    source=deployment.source,
                    population=manager,
                    master_seed=cfg.seed,
                    obs=cfg.instrumentation,
                    flow_ledger=ledger)
                injector.arm()

            # Probes join after the warm-up, with sniffers already
            # attached so the very first bootstrap packets are captured,
            # as with Wireshark.
            probe_peers: Dict[str, PPLivePeer] = {}
            sniffers: Dict[str, ProbeSniffer] = {}

            def launch_probe(spec: ProbeSpec) -> None:
                peer = self._make_probe(deployment, spec)
                sniffer = ProbeSniffer(deployment.internet.udp,
                                       peer.address)
                sniffer.start()
                probe_peers[spec.name] = peer
                sniffers[spec.name] = sniffer
                peer.join()

            for spec in cfg.probes:
                sim.call_after(cfg.warmup,
                               lambda s=spec: launch_probe(s),
                               label="probe-join")

            heartbeat = None
            if obs.wants_heartbeat:
                heartbeat = self._install_heartbeat(
                    obs, sim, deployment, manager, probe_peers,
                    injector=injector, sim_end=end_time, ledger=ledger)

            if cfg.run_hook is not None:
                cfg.run_hook(sim, deployment, manager, probe_peers)

        with phase("sim"):
            sim.run_until(end_time)

        if heartbeat is not None:
            heartbeat.stop()
        if ledger is not None:
            deployment.internet.udp.clear_flow_sink()
            ledger.finish(sim.now)
        with phase("analysis"):
            if obs.enabled:
                obs.metrics.counter("sim.events_executed").inc(
                    sim.events_executed)
                obs.metrics.counter("sim.sessions_run").inc()
                obs.finalize()
            manager.stop()
            probes: Dict[str, ProbeResult] = {}
            for spec in cfg.probes:
                peer = probe_peers[spec.name]
                peer.leave()
                trace = sniffers[spec.name].stop()
                probes[spec.name] = ProbeResult(
                    spec=spec, peer=peer, trace=trace,
                    report=match_all(trace))
            if obs.enabled:
                # After the probes' Goodbyes: the last datagrams sent.
                deployment.internet.udp.fold_counters(obs.metrics)
        if session_span is not None:
            session_span.finish(sim.now,
                                events_executed=sim.events_executed,
                                viewers_spawned=manager.total_spawned)
        return SessionResult(config=cfg, deployment=deployment,
                             probes=probes, population=manager,
                             injector=injector, flows=ledger)


def run_session(config: Optional[ScenarioConfig] = None) -> SessionResult:
    """Convenience one-call session runner."""
    return SessionScenario(config).run()
