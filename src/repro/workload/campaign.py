"""The four-week measurement campaign (Figure 6).

The paper collected traces from 2008-10-11 to 2008-11-07 — 28 days —
with two probes in each of CNC, TELE and Mason, and plotted the daily
traffic locality (percentage of bytes served from the probe's own ISP),
averaged over the two concurrent probes per ISP.

:func:`run_campaign` reproduces that protocol: one session per day per
program, with day-to-day audience variation.  Two effects drive the
paper's observed variance:

* audience size follows the diurnal/weekly pattern plus noise, and
* the *foreign* share of the Chinese popular program's audience swings
  wildly from day to day ("the popular program in China is not
  necessarily popular outside China") — which is why the Mason curve
  whips around while the Chinese probes stay stable.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..analysis.locality import traffic_locality
from ..checkpoint import (CheckpointError, CheckpointPolicy,
                          config_digest_of, unit_stem)
from ..faults import FaultSchedule
from ..network.isp import ISPCategory
from ..obs import FlowSpec, Instrumentation
from ..obs import resolve as resolve_obs
from ..obs.live import KIND_CAMPAIGN_START, KIND_DAY_COMPLETE
from ..parallel.jobs import Job
from ..parallel.units import kill_switch_hook, open_checkpoint, run_units
from ..sim.random import RandomRouter
from ..streaming.chunks import ChunkGeometry
from ..streaming.video import Popularity
from .churn import ChurnModel
from .diurnal import DiurnalPattern, session_start_seconds
from .popularity import (PopulationMix, popular_channel_mix,
                         unpopular_channel_mix)
from .scenario import (CNC_PROBE, MASON_PROBE, TELE_PROBE, ProbeSpec,
                       ScenarioConfig, SessionScenario)


@dataclass
class CampaignConfig:
    """Knobs of the 28-day campaign."""

    seed: int = 11
    days: int = 28
    #: Baseline concurrent audience at peak for each program.
    popular_population: int = 90
    unpopular_population: int = 30
    #: Per-day session length (scaled down from the paper's 2 h for
    #: tractability; locality percentages stabilise within minutes).
    session_duration: float = 900.0
    warmup: float = 200.0
    #: Two probes per ISP, as deployed by the authors.
    probe_isps: Tuple[str, ...] = ("ChinaNetcom", "ChinaTelecom",
                                   "GMU-Campus")
    #: Day-to-day multiplicative audience noise (log-normal sigma).
    audience_noise_sigma: float = 0.20
    #: Day-to-day swing of the popular program's foreign share.
    foreign_swing_sigma: float = 0.8
    diurnal: DiurnalPattern = field(default_factory=DiurnalPattern)
    geometry: ChunkGeometry = field(default_factory=ChunkGeometry)
    #: Observability bundle threaded into every daily session; the
    #: campaign also reports per-day progress through it.
    instrumentation: Optional[Instrumentation] = None
    #: Fault schedule armed onto *every* daily session (times are
    #: session-relative seconds, like any scenario schedule).
    faults: Optional[FaultSchedule] = None
    #: Traffic-flow ledger knobs for every daily session; ``None`` falls
    #: back to the instrumentation bundle's ``flows_spec``.  Excluded
    #: from the config digest like instrumentation — flow accounting
    #: never changes simulation results.
    flows: Optional[FlowSpec] = None
    #: Extra per-session run hook (`hook(sim, deployment, manager,
    #: probe_peers)`), composed with the kill-switch hook.  Test seam
    #: for attaching extra taps/samplers to every campaign unit.
    session_hook: Optional[Callable] = None


@dataclass
class DailyLocality:
    """One day's locality results for one program."""

    day: int
    popularity: Popularity
    population: int
    #: ISP label -> average traffic locality across that ISP's probes.
    locality_by_isp: Dict[str, float]
    #: Simulator events executed by this day's session; carried in
    #: checkpoint artifacts so a resumed run's ``run_summary`` footer
    #: matches the uninterrupted run.
    events_executed: int = 0
    #: The day's flow-ledger snapshot (``FlowLedger.snapshot_state``)
    #: when the campaign ran with a flow spec; carried through
    #: checkpoints so resumed runs emit byte-identical flow artifacts.
    flows: Optional[dict] = None


@dataclass
class CampaignResult:
    """Figure 6's two panels as day-indexed series."""

    config: CampaignConfig
    popular: List[DailyLocality]
    unpopular: List[DailyLocality]

    def series(self, popularity: Popularity,
               isp_label: str) -> List[float]:
        """Day-ordered locality percentages for one curve of Figure 6."""
        days = self.popular if popularity is Popularity.POPULAR \
            else self.unpopular
        return [day.locality_by_isp.get(isp_label, 0.0) for day in days]


_PROBE_LABELS = {"ChinaNetcom": "CNC", "ChinaTelecom": "TELE",
                 "GMU-Campus": "Mason"}


def _swing_foreign_share(mix: PopulationMix, factor: float) -> PopulationMix:
    """Scale the FOREIGN weight of ``mix`` by ``factor`` (re-normalised
    implicitly, since weights are relative)."""
    categories = dict(mix.categories)
    foreign = categories[ISPCategory.FOREIGN]
    categories[ISPCategory.FOREIGN] = dataclasses.replace(
        foreign, weight=foreign.weight * factor)
    return PopulationMix(name=mix.name, categories=categories)


def _probe_specs(probe_isps: Sequence[str]) -> Tuple[ProbeSpec, ...]:
    base = {"ChinaNetcom": CNC_PROBE, "ChinaTelecom": TELE_PROBE,
            "GMU-Campus": MASON_PROBE}
    specs: List[ProbeSpec] = []
    for isp_name in probe_isps:
        template = base.get(isp_name, ProbeSpec(isp_name.lower(), isp_name))
        for replica in ("a", "b"):
            specs.append(dataclasses.replace(
                template, name=f"{template.name}-{replica}"))
    return tuple(specs)


def campaign_config_digest(config: CampaignConfig) -> str:
    """Digest of every result-affecting campaign knob.

    Instrumentation is deliberately excluded: telemetry on/off never
    changes simulation results (the determinism contract), so a campaign
    checkpointed with ``--live`` resumes cleanly without it and vice
    versa.  Everything else — seed, shape, populations, noise models,
    chunk geometry, fault schedule — is in, so resuming under a
    different configuration fails loudly instead of splicing
    incompatible days together.
    """
    return config_digest_of({
        "seed": config.seed,
        "days": config.days,
        "popular_population": config.popular_population,
        "unpopular_population": config.unpopular_population,
        "session_duration": config.session_duration,
        "warmup": config.warmup,
        "probe_isps": list(config.probe_isps),
        "audience_noise_sigma": config.audience_noise_sigma,
        "foreign_swing_sigma": config.foreign_swing_sigma,
        "diurnal": dataclasses.asdict(config.diurnal),
        "geometry": dataclasses.asdict(config.geometry),
        "faults": (config.faults.to_dict()
                   if config.faults is not None else None),
    })


def _unit_payload(daily: DailyLocality) -> dict:
    """The JSON body persisted for one completed (program, day) unit.

    Locality values are stored at full float precision — JSON floats
    round-trip exactly in CPython, which is what makes a resumed
    campaign byte-identical to an uninterrupted one at the golden-digest
    level."""
    payload = {"population": daily.population,
               "locality_by_isp": dict(daily.locality_by_isp),
               "events_executed": daily.events_executed}
    if daily.flows is not None:
        payload["flows"] = daily.flows
    return payload


def _daily_from_payload(flows: Optional[FlowSpec], key: Tuple[str, int],
                        payload: dict) -> DailyLocality:
    """Rebuild a :class:`DailyLocality` from a checkpoint unit artifact.

    A resumed flows-enabled run (``flows`` is its spec) replays flow
    snapshots instead of re-simulating; a unit written without one, or
    with a different ledger shape, cannot produce the byte-identical
    artifact the contract promises, so it fails loudly."""
    snapshot = payload.get("flows")
    if flows is not None:
        if snapshot is None:
            raise CheckpointError(
                f"checkpoint unit {unit_stem(key)} was written without "
                f"flow accounting but this run enables it; re-run "
                f"without --flows or restart the campaign")
        if (snapshot.get("window") != flows.window
                or snapshot.get("top_k") != flows.top_k):
            raise CheckpointError(
                f"checkpoint unit {unit_stem(key)} recorded flows with "
                f"window={snapshot.get('window')} top_k="
                f"{snapshot.get('top_k')}, but this run uses window="
                f"{flows.window} top_k={flows.top_k}")
    popularity, day = key
    return DailyLocality(
        day=day, popularity=Popularity(popularity),
        population=payload["population"],
        locality_by_isp=dict(payload["locality_by_isp"]),
        events_executed=payload.get("events_executed", 0),
        flows=snapshot)


def _run_day(config: CampaignConfig, day: int,
             popularity: Popularity) -> DailyLocality:
    """Job entry point: one (program, day) session.

    The day's RNG streams derive from ``(config.seed, day, popularity)``
    alone — the router fork consumes no shared state — so the unit
    draws the same sequence in-process or in a worker process.
    """
    router = RandomRouter(config.seed)
    rng = router.fork(f"day:{day}:{popularity.value}").stream("campaign")
    if popularity is Popularity.POPULAR:
        mix = popular_channel_mix()
        base_population = config.popular_population
        swing = math.exp(rng.gauss(0.0, config.foreign_swing_sigma))
        mix = _swing_foreign_share(mix, swing)
    else:
        mix = unpopular_channel_mix()
        base_population = config.unpopular_population
        swing = math.exp(rng.gauss(0.0, config.foreign_swing_sigma / 2))
        mix = _swing_foreign_share(mix, swing)

    start = session_start_seconds(day)
    factor = config.diurnal.factor(start)
    noise = math.exp(rng.gauss(0.0, config.audience_noise_sigma))
    population = max(10, int(round(base_population * factor * noise)))

    kill_hook = kill_switch_hook((popularity.value, day))
    extra_hook = config.session_hook
    if kill_hook is not None and extra_hook is not None:
        def run_hook(sim, deployment, manager, probe_peers,
                     _kill=kill_hook, _extra=extra_hook) -> None:
            _kill(sim, deployment, manager, probe_peers)
            _extra(sim, deployment, manager, probe_peers)
    else:
        run_hook = kill_hook if kill_hook is not None else extra_hook

    specs = _probe_specs(config.probe_isps)
    scenario_config = ScenarioConfig(
        seed=router.master_seed + day * 101 + (0 if popularity is
                                               Popularity.POPULAR else 1),
        population=population,
        mix=mix,
        popularity=popularity,
        probes=specs,
        warmup=config.warmup,
        duration=config.session_duration,
        geometry=config.geometry,
        churn=ChurnModel(),
        instrumentation=config.instrumentation,
        faults=config.faults,
        flows=config.flows,
        run_hook=run_hook,
    )
    result = SessionScenario(scenario_config).run()

    per_isp: Dict[str, List[float]] = {}
    for probe_result in result.probes.values():
        category = result.directory.category_of(probe_result.address)
        locality = traffic_locality(
            probe_result.report.data, result.directory, category,
            result.infrastructure)
        label = _PROBE_LABELS.get(probe_result.spec.isp_name,
                                  probe_result.spec.isp_name)
        per_isp.setdefault(label, []).append(locality)

    averaged = {label: 100.0 * sum(vals) / len(vals)
                for label, vals in per_isp.items()}
    return DailyLocality(
        day=day, popularity=popularity, population=population,
        locality_by_isp=averaged,
        events_executed=result.deployment.sim.events_executed,
        flows=(result.flows.snapshot_state()
               if result.flows is not None else None))


def _emit_day(config: CampaignConfig, obs: Instrumentation, jobs: int,
              _key: Tuple[str, int], daily: DailyLocality,
              restored: bool) -> None:
    """Campaign-level progress record and span instant for one
    finished day.

    :func:`run_units` calls it in canonical unit order for every
    ``jobs`` value, so serial and parallel runs produce the same
    campaign-level event stream.  ``restored`` marks a day replayed
    from a checkpoint rather than simulated in this process; the flag
    is added to the progress record only when set, so non-resumed
    streams stay byte-identical.
    """
    if not obs.enabled:
        return
    if restored or jobs > 1:
        # The day's session did not count into this bundle (it was
        # replayed, or ran in a worker), so its recorded count is
        # folded here: the run_summary footer is the sum of the units'
        # event counts in every mode and across resume.
        obs.metrics.counter("sim.events_executed").inc(
            daily.events_executed)
    popularity = daily.popularity
    bus = obs.progress_bus
    if bus is not None:
        bus.emit(KIND_DAY_COMPLETE,
                 day=daily.day + 1, days=config.days,
                 popularity=popularity.value,
                 population=daily.population,
                 locality_by_isp={label: round(value, 3)
                                  for label, value
                                  in sorted(daily.locality_by_isp.items())},
                 **({"restored": True} if restored else {}))
    if obs.spans.enabled:
        obs.spans.instant("campaign_day", "workload", float(daily.day),
                          actor="campaign", day=daily.day + 1,
                          popularity=popularity.value,
                          population=daily.population)


def campaign_jobs(config: CampaignConfig) -> List[Job]:
    """The campaign's independent job list, one job per (program, day),
    in canonical unit order: popular days 0..N-1, then unpopular.

    This is the order units run, report and replay in, for every
    ``jobs`` value and across resume — one ordering everywhere keeps
    every campaign-level event stream deterministic."""
    return [Job(key=(popularity.value, day), fn=_run_day,
                args=(config, day, popularity))
            for popularity in (Popularity.POPULAR, Popularity.UNPOPULAR)
            for day in range(config.days)]


def assemble_campaign(config: CampaignConfig,
                      merged: Dict[Tuple[str, int], DailyLocality]
                      ) -> CampaignResult:
    """Build the result from merged ``{(program, day): DailyLocality}``.

    Pure and order-insensitive: only the day index, never the insertion
    (= completion) order of ``merged``, decides where a day lands.
    """
    popular = [merged[(Popularity.POPULAR.value, day)]
               for day in range(config.days)]
    unpopular = [merged[(Popularity.UNPOPULAR.value, day)]
                 for day in range(config.days)]
    return CampaignResult(config=config, popular=popular,
                          unpopular=unpopular)


def _emit_flows(config: CampaignConfig, obs: Instrumentation,
                merged: Dict[Tuple[str, int], DailyLocality]) -> None:
    """Write per-unit flow records to the artifact, in canonical order
    (``merged`` is in job order).

    Parent-side only, after the deterministic merge — exactly like the
    campaign-level progress records — so the flows artifact is
    byte-identical for every ``jobs`` value and across resume.
    """
    writer = getattr(obs, "flows", None)
    if writer is None or config.flows is None:
        return
    for (popularity, day), daily in merged.items():
        if daily.flows is not None:
            writer.write_unit({"day": day, "popularity": popularity},
                              daily.flows)


def run_campaign(config: Optional[CampaignConfig] = None, *,
                 jobs: int = 1,
                 checkpoint: Optional[CheckpointPolicy] = None
                 ) -> CampaignResult:
    """Run the full campaign: ``days`` sessions per program.

    ``jobs`` fans the independent daily sessions out to that many worker
    processes (see ``docs/PARALLEL.md``); the result is byte-identical
    for every ``jobs`` value.

    ``checkpoint`` makes the campaign resumable (``docs/CHECKPOINT.md``):
    completed (program, day) units are persisted as atomic,
    digest-stamped artifacts every ``checkpoint.every`` units, and with
    ``checkpoint.resume`` the persisted units are replayed instead of
    re-simulated.  Because every unit's RNG streams derive from
    ``(seed, day, program)`` alone, a resumed campaign is byte-identical
    to an uninterrupted one.
    """
    config = config if config is not None else CampaignConfig()
    obs = resolve_obs(config.instrumentation)
    if config.flows is None and obs.flows_spec is not None:
        # A --flows run turns on campaign-wide flow accounting through
        # the bundle; the spec must live on the config so worker
        # processes (shipped instrumentation=None) see it too.
        config = dataclasses.replace(config, flows=obs.flows_spec)

    # Workers get no instrumentation bundle: sinks do not pickle and
    # worker-side metrics would race; _emit_day reports for them.
    shipped = config if jobs <= 1 else dataclasses.replace(
        config, instrumentation=None)
    unit_jobs = campaign_jobs(shipped)
    store, restored = open_checkpoint(
        checkpoint, campaign_config_digest(config),
        [job.key for job in unit_jobs], seed=config.seed, days=config.days,
        encode=_unit_payload,
        decode=functools.partial(_daily_from_payload, config.flows))

    bus = obs.progress_bus
    if bus is not None:
        # ``jobs`` is mode metadata; the deterministic cross-mode view
        # strips it (MODE_FIELDS) so serial and --jobs N streams match.
        # ``resumed_units`` likewise, and it is only present on resumed
        # runs so non-checkpointed streams are unchanged.
        resume_fields = ({"resumed_units": len(restored)}
                         if checkpoint is not None and checkpoint.resume
                         else {})
        bus.emit(KIND_CAMPAIGN_START, days=config.days,
                 total_units=2 * config.days, seed=config.seed,
                 jobs=jobs, **resume_fields)

    merged = run_units(unit_jobs, workers=jobs, checkpoint=store,
                       restored=restored, obs=config.instrumentation,
                       on_unit=functools.partial(_emit_day, config, obs,
                                                 jobs))
    _emit_flows(config, obs, merged)
    return assemble_campaign(config, merged)
