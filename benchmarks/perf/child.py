"""One benchmark rep, run in a fresh interpreter.

    python benchmarks/perf/child.py --workload session --seed 7 [--traced]

prints one JSON object: the rep's wall time, the monotonic time at which
set-up ended (the first simulated session about to run), peak RSS, exact
counters, output digests and the list of failed output checks; a traced
rep adds the per-layer metrics.  ``run.py`` spawns one child per rep so
imports, set-up and peak RSS are measured afresh every time.

The simulator is imported from this checkout's ``src/`` and nowhere
else.
"""

from __future__ import annotations

import argparse
import hashlib
import heapq
import json
import random
import shutil
import statistics
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"
#: Scratch space for the observed workload's artifacts (git-ignored).
OUT = HERE / "out"

sys.path.insert(0, str(SRC))

import repro  # noqa: E402
from repro import (CampaignConfig, Instrumentation, Popularity,  # noqa: E402
                   ScenarioConfig, SessionScenario, popular_channel_mix,
                   run_campaign)
from repro.experiments.fig06 import Figure6  # noqa: E402
from repro.obs import (INFO, NULL_REGISTRY, EngineProfiler,  # noqa: E402
                       FlowSpec, FlowsWriter, JsonlSink, JsonlSpanSink,
                       MetricsRegistry, ProgressBus, build_attribution,
                       flows_summary_payload, peak_rss_bytes, read_flows,
                       read_spans_jsonl, write_metrics_jsonl)
from repro.workload import TELE_PROBE  # noqa: E402

import layers  # noqa: E402
from workloads import Workload, get  # noqa: E402

if Path(repro.__file__).resolve().parents[1] != SRC:
    raise ImportError(f"repro imported from {repro.__file__}, not {SRC}")

#: Exact counters summed over every simulated session of a rep.
COUNTERS = ("events", "datagrams_sent", "datagrams_delivered",
            "datagrams_lost", "datagrams_dropped_uplink",
            "datagrams_dropped_offline", "datagrams_dropped_fault",
            "bytes_delivered")
#: Share of a traced rep's wall time the profiler buckets must explain.
MIN_COVERAGE = 0.9
#: Steps of the calibration kernel's event loop, and how many times the
#: kernel runs after each rep (the median is kept).
KERNEL_STEPS = 40_000
KERNEL_RUNS = 3
#: Progress sampling period of the stopwatch thread.
SAMPLE_S = 0.02
#: Live viewers at or above this share of the target audience count as
#: a full-size swarm (churn keeps it just below the target).
FULL_AUDIENCE = 0.9


class _KernelEvent:
    __slots__ = ("time", "node")

    def __init__(self, time: float, node: int) -> None:
        self.time = time
        self.node = node


def calibration_kernel() -> float:
    """Seconds for a fixed event loop defined here, not in ``repro``.

    Heap pops and pushes, small-object allocation, dict updates and
    random draws, like the simulator's own loop, so that when the host
    runs the simulator slowly it runs this slowly too; reported as
    ``host.calib_s``, it lets a reader spot a run made in a slow host
    phase.  It tracks the simulator only roughly: in one slow phase the
    simulator ran 1.75x slower and this loop 2.05x.
    """
    started = time.perf_counter()
    rng = random.Random(1)
    heap: list = []
    visits: Dict[int, int] = {}
    for node in range(256):
        heapq.heappush(heap, (rng.random(), node, _KernelEvent(0.0, node)))
    sequence = 256
    for _ in range(KERNEL_STEPS):
        when, _, event = heapq.heappop(heap)
        visits[event.node] = visits.get(event.node, 0) + 1
        when += rng.expovariate(1.0)
        heapq.heappush(heap, (when, sequence,
                              _KernelEvent(when, (event.node * 7 + 3) % 256)))
        sequence += 1
    return time.perf_counter() - started


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _counters(deployments: list) -> Dict[str, int]:
    totals = dict.fromkeys(COUNTERS, 0)
    for deployment in deployments:
        udp = deployment.internet.udp
        totals["events"] += deployment.sim.events_executed
        for name in COUNTERS[1:]:
            totals[name] += getattr(udp, name)
    totals["units"] = len(deployments)
    return totals


def _transport_problems(deployments: list) -> List[str]:
    problems = []
    for index, deployment in enumerate(deployments):
        udp = deployment.internet.udp
        accounted = (udp.datagrams_delivered + udp.datagrams_lost
                     + udp.datagrams_dropped_uplink
                     + udp.datagrams_dropped_offline
                     + udp.datagrams_dropped_fault)
        if udp.datagrams_delivered == 0 or accounted > udp.datagrams_sent:
            problems.append(
                f"session {index}: {udp.datagrams_sent} datagrams sent but "
                f"{udp.datagrams_delivered} delivered and {accounted} "
                f"accounted for")
    return problems


def _observed_bundle(scratch: Path):
    """The bundle the CLI builds with every observability flag given."""
    flows = FlowsWriter(str(scratch / "flows.jsonl"), FlowSpec())
    bus = ProgressBus(str(scratch / "progress.jsonl"))
    return Instrumentation(
        metrics=MetricsRegistry(),
        trace=JsonlSink(str(scratch / "trace.jsonl"), level=INFO),
        spans=JsonlSpanSink(str(scratch / "spans.jsonl")),
        profiler=EngineProfiler(), progress_bus=bus, flows=flows)


class Stopwatch:
    """Times the workload call and samples its progress.

    A background thread records ``(seconds since start, events executed
    so far)`` every ``SAMPLE_S``; it only reads the engines' event
    counters, so the simulation is untouched.  The parent uses the
    samples to line reps up by event count (see ``run.best_wall``).
    The thread also records the running session's live viewers and
    target audience, to show how much of the call runs at full size.
    """

    def __init__(self, deployments: list, managers: list) -> None:
        self._deployments = deployments
        self._managers = managers
        self._done = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)
        self.samples: List[List[float]] = [[0.0, 0]]
        #: ``(live viewers, target audience)`` per sample, once a
        #: session runs.
        self.audience: List[tuple] = []
        self.wall = 0.0

    def _events(self) -> int:
        return sum(deployment.sim.events_executed
                   for deployment in list(self._deployments))

    def _sample(self) -> None:
        while not self._done.wait(SAMPLE_S):
            self.samples.append([time.perf_counter() - self._started,
                                 self._events()])
            if self._managers:
                manager = self._managers[-1]
                self.audience.append((manager.active_count,
                                      manager.target_size))

    def __enter__(self) -> "Stopwatch":
        self._started = time.perf_counter()
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._done.set()
        self.wall = time.perf_counter() - self._started
        self._thread.join()
        self.samples.append([self.wall, self._events()])


def _run_session(workload: Workload, seed: int, hook, watch: Stopwatch,
                 profiler, scratch: Optional[Path]) -> dict:
    config = ScenarioConfig(
        seed=seed, population=workload.population,
        mix=popular_channel_mix(), popularity=Popularity.POPULAR,
        probes=(TELE_PROBE,), warmup=workload.warmup,
        duration=workload.duration, run_hook=hook)
    obs = None
    if scratch is not None:
        obs = _observed_bundle(scratch)
    elif profiler is not None:
        obs = Instrumentation(metrics=NULL_REGISTRY, profiler=profiler,
                              heartbeat=False)
    config.instrumentation = obs
    with watch:
        if scratch is not None:
            obs.progress_bus.run_start(experiment=workload.name, seed=seed)
        result = SessionScenario(config).run()
        if scratch is not None:
            obs.flows.write_unit({"session": f"{workload.name}#{seed}"},
                                 result.flows.snapshot_state())
            write_metrics_jsonl(obs.metrics, str(scratch / "metrics.jsonl"))
            obs.progress_bus.run_summary("ok")
            obs.close()

    problems = []
    if not result.probe().report.data:
        problems.append("the probe matched no data transactions")
    outcome = {"digest": {}, "problems": problems,
               "profiler": obs.profiler if obs is not None else None}
    if scratch is not None:
        udp = result.deployment.internet.udp
        ledger = result.flows
        if (ledger.totals["datagrams"] + ledger.datagrams_ignored
                != udp.datagrams_delivered
                or (ledger.datagrams_ignored == 0
                    and ledger.totals["bytes"] != udp.bytes_delivered)):
            problems.append(
                f"flow ledger holds {ledger.totals['datagrams']} datagrams "
                f"/ {ledger.totals['bytes']} B but transport delivered "
                f"{udp.datagrams_delivered} / {udp.bytes_delivered} B")
        spans = scratch / "spans.jsonl"
        flows = scratch / "flows.jsonl"
        if not read_spans_jsonl(str(spans)):
            problems.append("the span artifact is empty")
        records = read_flows(str(flows))
        footers = [record["flows"] for record in records
                   if record.get("kind") == "flows_summary"]
        if footers != [flows_summary_payload(records)]:
            problems.append("the flows artifact's summary footer does not "
                            "match its unit records")
        outcome["digest"]["spans"] = _sha256(spans.read_bytes())
        outcome["digest"]["flows"] = _sha256(flows.read_bytes())
        outcome["artifact_bytes"] = sum(
            path.stat().st_size for path in scratch.iterdir())
    return outcome


def _audience(samples: List[tuple]) -> Dict[str, float]:
    """Mean live viewers over the simulated sessions' wall time, and the
    share of that time the audience was at full size."""
    if not samples:
        return {"workload.viewers_mean": 0.0, "workload.full_share": 0.0}
    full = sum(live >= FULL_AUDIENCE * target for live, target in samples)
    return {"workload.viewers_mean": statistics.fmean(
                live for live, _ in samples),
            "workload.full_share": full / len(samples)}


def _series_digest(result) -> str:
    """The series formula of tests/test_campaign_goldens.py."""
    parts = []
    for popularity in (Popularity.POPULAR, Popularity.UNPOPULAR):
        for curve in ("CNC", "TELE", "Mason"):
            parts.append(",".join(f"{value:.9e}" for value
                                  in result.series(popularity, curve)))
    return _sha256("|".join(parts).encode())


def _run_campaign(workload: Workload, seed: int, hook, watch: Stopwatch,
                  profiler) -> dict:
    obs = None
    if profiler is not None:
        obs = Instrumentation(metrics=NULL_REGISTRY, profiler=profiler,
                              heartbeat=False)
    config = CampaignConfig(
        seed=seed, days=workload.days,
        popular_population=workload.population,
        unpopular_population=workload.unpopular_population,
        session_duration=workload.duration, warmup=workload.warmup,
        session_hook=hook, instrumentation=obs)
    with watch:
        result = run_campaign(config)
        table = Figure6(result=result).render()

    problems = []
    for popularity in (Popularity.POPULAR, Popularity.UNPOPULAR):
        for curve in ("CNC", "TELE", "Mason"):
            series = result.series(popularity, curve)
            if len(series) != workload.days or not all(
                    0.0 <= value <= 100.0 for value in series):
                problems.append(f"{popularity.value} {curve} series "
                                f"{series} is not {workload.days} "
                                f"percentages")
    daily_events = sum(day.events_executed
                       for day in result.popular + result.unpopular)
    return {"problems": problems, "profiler": profiler,
            "daily_events": daily_events,
            "digest": {"table": _sha256(table.encode()),
                       "series": _series_digest(result)}}


def run_rep(workload: Workload, seed: int, traced: bool = False) -> dict:
    """Run one rep in this process and return its record."""
    deployments: list = []
    managers: list = []
    setup_done: List[float] = []

    def hook(sim, deployment, manager, probe_peers) -> None:
        if not setup_done:
            setup_done.append(time.monotonic())
        deployments.append(deployment)
        managers.append(manager)

    watch = Stopwatch(deployments, managers)
    tracer = layers.LayerTracer() if traced else None
    profiler = EngineProfiler() if traced else None
    scratch = None
    if workload.observed:
        OUT.mkdir(exist_ok=True)
        scratch = Path(tempfile.mkdtemp(prefix="observed-", dir=OUT))
    try:
        if tracer is not None:
            tracer.install()
        if workload.kind == "campaign":
            outcome = _run_campaign(workload, seed, hook, watch, profiler)
        else:
            outcome = _run_session(workload, seed, hook, watch, profiler,
                                   scratch)
    finally:
        if tracer is not None:
            tracer.uninstall()
        if scratch is not None:
            shutil.rmtree(scratch, ignore_errors=True)

    counters = _counters(deployments)
    problems = outcome["problems"] + _transport_problems(deployments)
    if workload.kind == "campaign" and \
            outcome["daily_events"] != counters["events"]:
        problems.append(f"campaign days report {outcome['daily_events']} "
                        f"events, the engines ran {counters['events']}")
    digest = outcome["digest"]
    digest["counters"] = _sha256("|".join(
        str(counters[name]) for name in COUNTERS).encode())
    record = {
        "workload": workload.name,
        "seed": seed,
        "traced": traced,
        "wall_s": watch.wall,
        "progress": watch.samples,
        "setup_done": setup_done[0],
        "events": counters["events"],
        "peak_rss_mb": peak_rss_bytes() / 2 ** 20,
        "calib_s": statistics.median(calibration_kernel()
                                     for _ in range(KERNEL_RUNS)),
        "digest": digest,
        "problems": problems,
    }
    if "artifact_bytes" in outcome:
        record["artifact_bytes"] = outcome["artifact_bytes"]
    if traced:
        wrapper, inner = layers.calibrate()
        unreached = workload.unreached
        attribution = build_attribution(outcome["profiler"], watch.wall)
        metrics = layers.per_layer(tracer, wrapper, inner, attribution,
                                   counters, unreached)
        metrics.update(_audience(watch.audience))
        if "artifact_bytes" in outcome:
            metrics["obs.artifact_bytes"] = outcome["artifact_bytes"]
        record["layers"] = metrics
        silent = layers.silent_wrappers(tracer, unreached)
        if silent:
            problems.append(f"layer wrappers never fired: {silent}")
        if attribution["coverage"] < MIN_COVERAGE:
            problems.append(f"profiler buckets cover only "
                            f"{attribution['coverage']:.1%} of the traced "
                            f"wall time")
    return record


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--tiny", action="store_true",
                        help="seconds-long variant of the workload")
    args = parser.parse_args(argv)
    record = run_rep(get(args.workload, tiny=args.tiny), args.seed,
                     traced=args.traced)
    print(json.dumps(record, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
