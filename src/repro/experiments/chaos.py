"""Chaos experiment: fault injection with recovery measurement.

``run_chaos`` simulates the canonical TELE-probe popular-program session
twice from the same seed — once clean, once with a
:class:`~repro.faults.FaultSchedule` armed — and samples both runs with
the same windowed probes: playback continuity per bin, intra-ISP traffic
share per bin (the paper's locality metric, computed from the probe's
matched data transactions by request time), startup delay of viewers
that began playback in the bin, and audience size.

For every fault in the schedule the report compares a *before*, *during*
and *after* window against the clean baseline's identical windows, and
measures **recovery time**: how long after the fault window ends until
the faulted run's continuity and locality are back within tolerance of
the baseline, bin by bin.  This is the acceptance check for the
protocol's self-healing paths (tracker failover, automatic
re-bootstrap, neighbor-table refill after blackouts).

Determinism: both sessions run as :mod:`repro.parallel` jobs with no
worker-side instrumentation, and every chaos-level metric and span is
emitted by the parent *after* the deterministic merge — so artifacts are
byte-identical for every ``--jobs`` value (``tests/test_chaos.py`` pins
this).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..analysis.locality import traffic_locality
from ..analysis.report import format_table
from ..faults import (FaultSchedule, FlashCrowd, LinkDegradation,
                      PeerBlackout, ServerOutage)
from ..obs import Instrumentation
from ..obs import resolve as resolve_obs
from ..parallel.jobs import Job, run_jobs
from ..workload.popularity import popular_channel_mix
from ..workload.scenario import TELE_PROBE, ScenarioConfig, SessionScenario
from .base import SCALE_PARAMS, Scale

#: Continuity must return to within this of the baseline to count as
#: recovered (absolute continuity-index difference; a single probe's
#: per-bin continuity is inherently volatile at small scales).
CONTINUITY_TOLERANCE = 0.15
#: Intra-ISP byte share must return to within this of the baseline
#: (absolute share difference; locality is noisier than continuity).
LOCALITY_TOLERANCE = 0.25


def demo_schedule(warmup: float, duration: float) -> FaultSchedule:
    """The default chaos storm, scaled to the session's clock.

    One fault per class, ordered mild-to-harsh and spaced so every
    fault keeps a clean recovery gap before the next one begins: a
    full tracker outage (exercises failover, suspect marking and
    automatic re-bootstrap), a flash crowd, an ISP blackout
    (correlated neighbor loss), and congestion on the TELE<->CNC
    peering link (the paper's villain path) with the longest tail.
    """
    def at(fraction: float) -> float:
        return round(warmup + fraction * duration, 3)

    return FaultSchedule(events=(
        ServerOutage(target="trackers", start=at(0.08),
                     duration=round(0.18 * duration, 3),
                     label="tracker-outage"),
        FlashCrowd(start=at(0.36), duration=round(0.08 * duration, 3),
                   arrivals=8, label="flash-crowd"),
        PeerBlackout(isp_name="ChinaNetcom", start=at(0.50), fraction=0.4,
                     label="cnc-blackout"),
        LinkDegradation(pair_class="tele_cnc_peering", start=at(0.62),
                        duration=round(0.13 * duration, 3),
                        extra_loss=0.15, latency_multiplier=2.5,
                        bandwidth_multiplier=0.4,
                        label="peering-congestion"),
    ))


@dataclass(frozen=True)
class ChaosParams:
    """Everything one chaos session job needs (picklable)."""

    seed: int
    population: int
    warmup: float
    duration: float
    bin_seconds: float

    @property
    def end_time(self) -> float:
        return self.warmup + self.duration


def chaos_params(scale: Scale = Scale.DEFAULT, seed: int = 7,
                 bin_seconds: Optional[float] = None) -> ChaosParams:
    params = SCALE_PARAMS[scale]
    if bin_seconds is None:
        bin_seconds = max(15.0, params.duration / 28.0)
    return ChaosParams(seed=seed, population=params.popular_population,
                       warmup=params.warmup, duration=params.duration,
                       bin_seconds=bin_seconds)


@dataclass(frozen=True)
class BinSample:
    """One sampling bin of one run; ``time`` is the bin's end."""

    time: float
    #: Probe continuity over the bin (None before playback produced
    #: any deadline in the bin).
    continuity: Optional[float]
    #: Intra-ISP share of the probe's downloaded bytes requested in the
    #: bin (None when the bin moved no data).
    locality: Optional[float]
    #: Mean startup delay of viewers whose playback began in the bin.
    startup_mean: Optional[float]
    startup_count: int
    #: Concurrent audience at the bin's end.
    viewers: int


@dataclass(frozen=True)
class ChaosRun:
    """One session's chaos measurements (baseline or faulted)."""

    bins: Tuple[BinSample, ...]
    overall_continuity: float
    overall_locality: float
    probe_startup_delay: Optional[float]
    #: Automatic bootstrap re-requests across probe + population —
    #: direct evidence the tracker-outage recovery path fired.
    total_rebootstraps: int
    total_crashed: int
    faults_begun: int
    faults_ended: int
    #: Engine events the session executed; the session ran without
    #: instrumentation, so :func:`_emit_chaos` folds this count into
    #: the run's ``sim.events_executed``.
    events_executed: int = 0

    def bins_between(self, start: float, end: float) -> List[BinSample]:
        return [b for b in self.bins if start < b.time <= end + 1e-9]


def _bin_locality(transactions, directory, own_category, infrastructure,
                  start: float, end: float) -> Optional[float]:
    window = [tx for tx in transactions
              if start < tx.request_time <= end]
    if not window:
        return None
    total = sum(tx.payload_bytes for tx in window)
    if total == 0:
        return None
    return traffic_locality(window, directory, own_category,
                            infrastructure)


def _chaos_session_job(params: ChaosParams,
                       schedule: Optional[FaultSchedule]) -> ChaosRun:
    """Worker entry point: one sampled session, clean or faulted."""
    raw: List[dict] = []
    state = {"last": None}

    def hook(sim, deployment, manager, probe_peers) -> None:
        def tick() -> None:
            now = sim.now
            met = missed = 0
            for name in sorted(probe_peers):
                player = probe_peers[name].player
                if player is not None:
                    met += player.deadlines_met
                    missed += player.deadlines_missed
            prev = state["last"]
            window_start = prev if prev is not None \
                else now - params.bin_seconds
            delays: List[float] = []
            viewers = list(manager.active) \
                + [probe_peers[n] for n in sorted(probe_peers)]
            for viewer in viewers:
                player = getattr(viewer, "player", None)
                if (player is not None
                        and player.startup_delay is not None
                        and window_start < player.playout_started_at
                        <= now):
                    delays.append(player.startup_delay)
            raw.append({"time": now, "met": met, "missed": missed,
                        "delays_sum": sum(delays),
                        "delays_n": len(delays),
                        "viewers": manager.active_count})
            state["last"] = now

        sim.every(params.bin_seconds, tick, label="chaos-bin")

    config = ScenarioConfig(
        seed=params.seed,
        population=params.population,
        mix=popular_channel_mix(),
        probes=(TELE_PROBE,),
        warmup=params.warmup,
        duration=params.duration,
        faults=schedule,
        run_hook=hook,
    )
    result = SessionScenario(config).run()

    probe = result.probe()
    directory = result.directory
    own_category = directory.category_of(probe.address)
    infrastructure = result.infrastructure
    transactions = probe.report.data

    bins: List[BinSample] = []
    prev_met = prev_missed = 0
    prev_time = 0.0
    for sample in raw:
        dmet = sample["met"] - prev_met
        dmissed = sample["missed"] - prev_missed
        prev_met, prev_missed = sample["met"], sample["missed"]
        continuity = dmet / (dmet + dmissed) if dmet + dmissed else None
        locality = _bin_locality(transactions, directory, own_category,
                                 infrastructure, prev_time,
                                 sample["time"])
        startup_mean = (sample["delays_sum"] / sample["delays_n"]
                        if sample["delays_n"] else None)
        bins.append(BinSample(time=sample["time"], continuity=continuity,
                              locality=locality,
                              startup_mean=startup_mean,
                              startup_count=sample["delays_n"],
                              viewers=sample["viewers"]))
        prev_time = sample["time"]

    player = probe.peer.player
    overall_continuity = player.continuity_index if player is not None \
        else 0.0
    startup = player.startup_delay if player is not None else None
    rebootstraps = probe.peer.rebootstraps \
        + sum(getattr(v, "rebootstraps", 0)
              for v in result.population.active)
    injector = result.injector
    return ChaosRun(
        bins=tuple(bins),
        overall_continuity=overall_continuity,
        overall_locality=traffic_locality(transactions, directory,
                                          own_category, infrastructure),
        probe_startup_delay=startup,
        total_rebootstraps=rebootstraps,
        total_crashed=result.population.total_crashed,
        faults_begun=injector.faults_begun if injector else 0,
        faults_ended=injector.faults_ended if injector else 0,
        events_executed=result.deployment.sim.events_executed,
    )


# ----------------------------------------------------------------------
# Windows and reports
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WindowStats:
    """Aggregated measurements over one comparison window."""

    continuity: Optional[float]
    locality: Optional[float]
    startup_mean: Optional[float]
    viewers_mean: Optional[float]


def window_stats(run: ChaosRun, start: float, end: float) -> WindowStats:
    bins = run.bins_between(start, end)
    if not bins:
        return WindowStats(None, None, None, None)

    def mean(values: List[float]) -> Optional[float]:
        return sum(values) / len(values) if values else None

    return WindowStats(
        continuity=mean([b.continuity for b in bins
                         if b.continuity is not None]),
        locality=mean([b.locality for b in bins
                       if b.locality is not None]),
        startup_mean=mean([b.startup_mean for b in bins
                           if b.startup_mean is not None]),
        viewers_mean=mean([float(b.viewers) for b in bins]),
    )


@dataclass(frozen=True)
class FaultReport:
    """Before/during/after comparison for one injected fault."""

    name: str
    kind: str
    start: float
    end: float
    before: WindowStats
    during: WindowStats
    after: WindowStats
    baseline_after: WindowStats
    #: Seconds after the fault window until the faulted run's continuity
    #: and locality are both back within tolerance of the baseline's
    #: same-time bins; None when that never happens before the run ends.
    recovery_time: Optional[float]

    @property
    def recovered(self) -> bool:
        return self.recovery_time is not None


def _mean(values: List[float]) -> Optional[float]:
    return sum(values) / len(values) if values else None


def _recovery_time(faulted: ChaosRun, baseline: ChaosRun,
                   fault_end: float, horizon: float) -> Optional[float]:
    """First post-fault instant with both metrics back near baseline.

    The comparison is *cumulative from the fault's end*: at each bin
    boundary the faulted run's mean continuity/locality since the
    fault ended is checked against the baseline's mean over the exact
    same bins.  Averaging the growing tail damps single-bin noise (one
    probe's 15-s continuity swings wildly even in a clean run) while
    still converging to the honest answer: a run that stays degraded
    never passes.
    """
    tail = [b for b in faulted.bins
            if fault_end < b.time <= horizon + 1e-9]
    base_by_time = {b.time: b for b in baseline.bins}
    for index in range(len(tail)):
        window = tail[:index + 1]
        reference = [base_by_time[b.time] for b in window
                     if b.time in base_by_time]
        f_cont = _mean([b.continuity for b in window
                        if b.continuity is not None])
        b_cont = _mean([b.continuity for b in reference
                        if b.continuity is not None])
        f_loc = _mean([b.locality for b in window
                       if b.locality is not None])
        b_loc = _mean([b.locality for b in reference
                       if b.locality is not None])
        if b_cont is not None and (
                f_cont is None
                or f_cont < b_cont - CONTINUITY_TOLERANCE):
            continue
        if (b_loc is not None and f_loc is not None
                and f_loc < b_loc - LOCALITY_TOLERANCE):
            continue
        return round(window[-1].time - fault_end, 3)
    return None


def build_reports(schedule: FaultSchedule, baseline: ChaosRun,
                  faulted: ChaosRun, params: ChaosParams
                  ) -> List[FaultReport]:
    reports: List[FaultReport] = []
    starts = sorted(event.start for event in schedule.events)
    for index, event in enumerate(schedule.events):
        name = schedule.name_of(index)
        window = max(event.end - event.start, 4 * params.bin_seconds)
        # The after-window stops at the next fault's start so one
        # fault's recovery is never graded under the next one's damage.
        later = [s for s in starts if s > event.end + 1e-9]
        horizon = min(event.end + window,
                      later[0] if later else params.end_time,
                      params.end_time)
        reports.append(FaultReport(
            name=name, kind=event.KIND,
            start=event.start, end=event.end,
            before=window_stats(faulted, event.start - window,
                                event.start),
            during=window_stats(faulted, event.start,
                                max(event.end, event.start
                                    + params.bin_seconds)),
            after=window_stats(faulted, event.end, horizon),
            baseline_after=window_stats(baseline, event.end, horizon),
            recovery_time=_recovery_time(faulted, baseline, event.end,
                                         horizon),
        ))
    return reports


@dataclass
class ChaosResult:
    """Everything ``repro run chaos`` produced."""

    schedule: FaultSchedule
    params: ChaosParams
    baseline: ChaosRun
    faulted: ChaosRun
    reports: List[FaultReport]

    @property
    def all_recovered(self) -> bool:
        return all(report.recovered for report in self.reports)

    def render(self) -> str:
        def pct(value: Optional[float]) -> str:
            return "-" if value is None else f"{100.0 * value:.1f}%"

        def seconds(value: Optional[float]) -> str:
            return "-" if value is None else f"{value:.0f}s"

        rows = []
        for report in self.reports:
            rows.append([
                report.name, report.kind,
                f"{report.start:.0f}-{report.end:.0f}s",
                pct(report.before.continuity),
                pct(report.during.continuity),
                pct(report.after.continuity),
                pct(report.baseline_after.continuity),
                pct(report.after.locality),
                pct(report.baseline_after.locality),
                seconds(report.recovery_time),
            ])
        table = format_table(
            ["fault", "kind", "window", "cont<", "cont=", "cont>",
             "base>", "loc>", "base-loc>", "recovery"],
            rows)
        lines = [
            "chaos: fault injection with recovery measurement",
            f"  seed={self.params.seed} population="
            f"{self.params.population} "
            f"window={self.params.warmup:.0f}+{self.params.duration:.0f}s "
            f"bin={self.params.bin_seconds:.0f}s",
            f"  baseline: continuity={pct(self.baseline.overall_continuity)}"
            f" locality={pct(self.baseline.overall_locality)}",
            f"  faulted:  continuity={pct(self.faulted.overall_continuity)}"
            f" locality={pct(self.faulted.overall_locality)}"
            f" rebootstraps={self.faulted.total_rebootstraps}"
            f" crashed={self.faulted.total_crashed}",
            f"  faults: {self.faulted.faults_begun} injected, "
            f"{self.faulted.faults_ended} ended, "
            f"{sum(1 for r in self.reports if r.recovered)}"
            f"/{len(self.reports)} recovered",
            "",
            table,
            "",
            "  cont</=/> = faulted continuity before/during/after the",
            "  fault window; base> = clean-run continuity in the same",
            "  after-window; loc> likewise for intra-ISP byte share.",
            "  recovery = seconds after the fault until both metrics",
            "  are back within tolerance of the baseline, bin by bin.",
        ]
        return "\n".join(lines)


def _emit_chaos(obs: Instrumentation, result: ChaosResult) -> None:
    """Parent-side observability: deterministic regardless of --jobs."""
    if not obs.enabled:
        return
    metrics = obs.metrics
    # Both sessions ran as uninstrumented jobs, so their engine events
    # are counted here: the run_summary footer sums them.
    metrics.counter("sim.events_executed").inc(
        result.baseline.events_executed + result.faulted.events_executed)
    metrics.gauge("chaos.continuity_baseline").set(
        round(result.baseline.overall_continuity, 6))
    metrics.gauge("chaos.continuity_faulted").set(
        round(result.faulted.overall_continuity, 6))
    metrics.gauge("chaos.locality_baseline").set(
        round(result.baseline.overall_locality, 6))
    metrics.gauge("chaos.locality_faulted").set(
        round(result.faulted.overall_locality, 6))
    metrics.gauge("chaos.rebootstraps").set(
        result.faulted.total_rebootstraps)
    for report in result.reports:
        tags = {"fault": report.name, "kind": report.kind}
        metrics.counter("chaos.faults", tags).inc()
        if report.recovery_time is not None:
            metrics.counter("chaos.faults_recovered", tags).inc()
            metrics.gauge("chaos.recovery_seconds", tags).set(
                report.recovery_time)
    if obs.spans.enabled:
        for report in result.reports:
            if report.end > report.start:
                span = obs.spans.start_span(
                    f"fault:{report.kind}", "chaos", report.start,
                    actor="chaos", fault=report.name)
                span.finish(report.end, recovered=report.recovered,
                            recovery_seconds=report.recovery_time)
            else:
                obs.spans.instant(
                    f"fault:{report.kind}", "chaos", report.start,
                    actor="chaos", fault=report.name,
                    recovered=report.recovered)


def run_chaos(schedule: Optional[FaultSchedule] = None,
              scale: Scale = Scale.DEFAULT, seed: int = 7,
              instrumentation: Optional[Instrumentation] = None,
              jobs: int = 1,
              bin_seconds: Optional[float] = None) -> ChaosResult:
    """Run the chaos experiment; byte-identical for every ``jobs``.

    The baseline and faulted sessions are independent jobs; with
    ``jobs >= 2`` they run in parallel worker processes.  All
    instrumentation is parent-side (see module docstring).
    """
    params = chaos_params(scale, seed, bin_seconds)
    if schedule is None:
        schedule = demo_schedule(params.warmup, params.duration)
    job_list = [
        Job(key="baseline", fn=_chaos_session_job, args=(params, None)),
        Job(key="faulted", fn=_chaos_session_job, args=(params, schedule)),
    ]
    merged = run_jobs(job_list, workers=jobs, obs=None)
    baseline, faulted = merged["baseline"], merged["faulted"]
    reports = build_reports(schedule, baseline, faulted, params)
    result = ChaosResult(schedule=schedule, params=params,
                         baseline=baseline, faulted=faulted,
                         reports=reports)
    _emit_chaos(resolve_obs(instrumentation), result)
    return result
