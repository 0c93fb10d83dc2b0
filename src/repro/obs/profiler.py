"""Engine profiling: where does the wall-clock time go?

:class:`EngineProfiler` plugs into :class:`repro.sim.engine.Simulator`
(``Simulator(seed, profiler=...)``) and accounts executed events by their
scheduling *label* — the hitherto-unused ``label`` argument of
``call_at`` / ``call_after``: per-label event counts and cumulative
callback wall-clock time, plus periodic samples of queue depth and
events/second so a long campaign's throughput is visible while it runs.

Event *counts* are deterministic for a fixed seed; *wall-clock* fields
are not, so :meth:`export_into` publishes them under names containing
``wall`` which :func:`repro.obs.export.strip_wall_metrics` excludes when
comparing runs.

:class:`HeartbeatSampler` is the periodic sim-time progress beacon:
every :data:`HEARTBEAT_INTERVAL` simulated seconds it collects a
caller-supplied sample (swarm size, neighbor fill, buffer health, ...),
takes an engine sample, and writes one ``heartbeat`` record to the
bundle's progress bus, when it has one.
"""

from __future__ import annotations

import weakref
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional

from .live import peak_rss_bytes


@dataclass
class LabelProfile:
    """Accumulated cost of one event label."""

    count: int = 0
    wall_seconds: float = 0.0


@dataclass
class EngineSample:
    """One point of the engine throughput series."""

    sim_time: float
    events_executed: int
    queue_depth: int
    wall_seconds: float
    #: Events per wall-clock second since the previous sample of the
    #: same simulator (0.0 for each simulator's first sample).
    events_per_sec: float = 0.0


UNLABELLED = "(unlabelled)"

#: Simulated seconds between heartbeats.
HEARTBEAT_INTERVAL = 30.0


class EngineProfiler:
    """Per-label wall-clock/count accounting for the event loop."""

    def __init__(self) -> None:
        self._labels: Dict[str, LabelProfile] = {}
        self.samples: List[EngineSample] = []
        #: The simulator behind ``samples[-1]``; weak, so a finished
        #: campaign day is not kept alive into the next one.
        self._sampled: Optional[weakref.ref] = None
        self._started_at = perf_counter()
        #: Coarse run-phase wall clocks ("setup", "sim", "analysis"):
        #: cumulative, so multi-session runs (campaigns) accumulate.
        self.phases: Dict[str, float] = {}

    # ------------------------------------------------------------------
    # Hot path (called by Simulator.step for every event)
    # ------------------------------------------------------------------
    def record(self, label: str, wall_seconds: float) -> None:
        profile = self._labels.get(label)
        if profile is None:
            profile = self._labels[label] = LabelProfile()
        profile.count += 1
        profile.wall_seconds += wall_seconds

    # ------------------------------------------------------------------
    # Phases
    # ------------------------------------------------------------------
    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Accumulate the wall time of one run phase under ``name``.

        The attribution report (:mod:`repro.obs.attribution`) uses the
        "sim" phase to separate event-loop dispatch overhead from
        callback time, and "setup"/"analysis" to account the work
        outside the loop entirely.
        """
        started = perf_counter()
        try:
            yield
        finally:
            self.phases[name] = (self.phases.get(name, 0.0)
                                 + perf_counter() - started)

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def sample(self, sim) -> EngineSample:
        """Record a queue-depth / throughput sample from ``sim``.

        The rate differences against the previous sample only when that
        came from the same simulator: a campaign runs one simulator per
        day, and its event count restarts from zero.
        """
        now_wall = perf_counter() - self._started_at
        point = EngineSample(sim_time=sim.now,
                             events_executed=sim.events_executed,
                             queue_depth=len(sim.queue),
                             wall_seconds=now_wall)
        if self._sampled is not None and self._sampled() is sim:
            last = self.samples[-1]
            d_wall = point.wall_seconds - last.wall_seconds
            if d_wall > 0:
                point.events_per_sec = ((point.events_executed
                                         - last.events_executed) / d_wall)
        self._sampled = weakref.ref(sim)
        self.samples.append(point)
        return point

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    @property
    def total_events(self) -> int:
        return sum(p.count for p in self._labels.values())

    @property
    def total_wall_seconds(self) -> float:
        return sum(p.wall_seconds for p in self._labels.values())

    def label_stats(self) -> Dict[str, LabelProfile]:
        """Per-label profiles, sorted by descending wall time."""
        return dict(sorted(self._labels.items(),
                           key=lambda kv: (-kv[1].wall_seconds, kv[0])))

    def export_into(self, registry) -> None:
        """Publish the profile into a metrics registry.

        Idempotent (gauges, not counters) so it can run after every
        session of a multi-session experiment.
        """
        for label, profile in sorted(self._labels.items()):
            tags = {"label": label or UNLABELLED}
            registry.gauge("sim.events_by_label", tags).set(profile.count)
            registry.gauge("sim.wall_seconds_by_label",
                           tags).set(profile.wall_seconds)
        registry.gauge("sim.wall_seconds_total").set(self.total_wall_seconds)
        if self.samples:
            registry.gauge("sim.queue_depth_last").set(
                self.samples[-1].queue_depth)
            rates = [s.events_per_sec for s in self.samples
                     if s.events_per_sec]
            if rates:
                registry.gauge("sim.events_per_sec_wall_mean").set(
                    sum(rates) / len(rates))

    def render(self, top: int = 12) -> str:
        """Human-readable profile table."""
        lines = [f"engine profile: {self.total_events} events, "
                 f"{self.total_wall_seconds:.3f}s in callbacks"]
        lines.append(f"{'label':<20}{'events':>10}{'wall s':>10}{'avg us':>10}")
        for label, profile in list(self.label_stats().items())[:top]:
            avg_us = (profile.wall_seconds / profile.count * 1e6
                      if profile.count else 0.0)
            lines.append(f"{(label or UNLABELLED):<20}{profile.count:>10}"
                         f"{profile.wall_seconds:>10.3f}{avg_us:>10.1f}")
        return "\n".join(lines)


#: Returns the deterministic heartbeat fields for the current sim time.
SampleFn = Callable[[float], Dict[str, object]]


class HeartbeatSampler:
    """Periodic sim-time progress beacon for long runs.

    ``sample_fn(now)`` supplies the domain fields (swarm size, neighbor
    fill, backlog, playback health); the sampler adds engine fields and
    writes one ``heartbeat`` record per beat to the progress bus.  The
    beats run whether or not a bus is attached: each takes a profiler
    sample, and ``sample_fn`` also sets the run's gauges.
    """

    def __init__(self, sim, instrumentation, sample_fn: SampleFn) -> None:
        self.sim = sim
        self.obs = instrumentation
        self.sample_fn = sample_fn
        self.beats = 0
        self._timer = sim.every(HEARTBEAT_INTERVAL, self._beat,
                                label="obs-heartbeat")

    def stop(self) -> None:
        self._timer.stop()

    def _beat(self) -> None:
        now = self.sim.now
        self.beats += 1
        beat = {"t": round(now, 3)}
        beat.update(self.sample_fn(now))
        beat["events_executed"] = self.sim.events_executed
        beat["queue_depth"] = len(self.sim.queue)
        profiler = self.obs.profiler
        if profiler is not None:
            point = profiler.sample(self.sim)
            if point.events_per_sec:
                beat["events_per_sec"] = round(point.events_per_sec, 1)
        bus = self.obs.progress_bus
        if bus is not None:
            beat["rss_bytes"] = peak_rss_bytes()
            bus.heartbeat(**beat)
