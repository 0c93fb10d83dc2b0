"""Per-subsystem wall-time attribution.

The engine profiler accounts every executed event under its scheduling
*label*; this module folds those labels into a handful of subsystem
buckets — transport, protocol, playback, workload churn, fault
injection, observability — and adds the three phase buckets the event
loop cannot see from inside a callback:

* ``engine`` — event-loop dispatch overhead: the wall time of the
  ``sim`` phase minus the time spent inside callbacks (heap pops, clock
  writes, pooling, profiler bookkeeping),
* ``setup`` — deployment wiring before the loop starts,
* ``analysis`` — post-run trace matching and figure statistics.

:func:`build_attribution` turns a profiler plus the run's measured total
wall time into an attribution block: per-bucket seconds, share of
total, and event counts, plus a ``coverage`` ratio (bucketed / total).
Two gates hold coverage at ≥ 0.9 — the profiled engine golden in
``tests/test_fastpath_equivalence.py`` and every traced rep of
``benchmarks/perf`` — so a new hot path outside every bucket fails
them.
"""

from __future__ import annotations

from typing import Dict

from .profiler import EngineProfiler

#: Buckets in display order; ``other`` catches unmapped labels.
SUBSYSTEMS = ("engine", "transport", "protocol", "playback", "workload",
              "faults", "obs", "analysis", "setup", "other")

#: Scheduling label -> subsystem.  Exact names first; prefixes below.
LABEL_SUBSYSTEMS: Dict[str, str] = {
    "udp-deliver": "transport",
    "tracker-round": "protocol",
    "hello-timeout": "protocol",
    "data-timeout": "protocol",
    "gossip-round": "protocol",
    "sched-tick": "protocol",
    "buffermap-round": "protocol",
    "bootstrap-retry": "protocol",
    "playback-maintenance": "playback",
    "probe-join": "workload",
    "viewer-arrive": "workload",
    "viewer-depart": "workload",
    "timer": "workload",
    "": "workload",
    "obs-heartbeat": "obs",
    "chaos-bin": "analysis",
}

_PREFIX_SUBSYSTEMS = (
    ("fault-", "faults"),
    ("spawn:", "workload"),
)


def subsystem_of(label: str) -> str:
    """Map one scheduling label to its subsystem bucket."""
    subsystem = LABEL_SUBSYSTEMS.get(label)
    if subsystem is not None:
        return subsystem
    for prefix, bucket in _PREFIX_SUBSYSTEMS:
        if label.startswith(prefix):
            return bucket
    return "other"


def build_attribution(profiler: EngineProfiler,
                      total_wall_seconds: float) -> dict:
    """The per-subsystem attribution block for one profiled run.

    ``total_wall_seconds`` is the caller's end-to-end measurement of the
    run (setup + simulation + analysis); shares and coverage are
    computed against it.
    """
    seconds: Dict[str, float] = {}
    events: Dict[str, int] = {}
    for label, profile in profiler.label_stats().items():
        bucket = subsystem_of(label)
        seconds[bucket] = seconds.get(bucket, 0.0) + profile.wall_seconds
        events[bucket] = events.get(bucket, 0) + profile.count

    callback_total = profiler.total_wall_seconds
    phases = profiler.phases
    # Dispatch overhead: loop wall minus callback wall, never negative
    # (a phase-less profiler contributes a zero engine bucket).
    sim_phase = phases.get("sim", 0.0)
    seconds["engine"] = max(0.0, sim_phase - callback_total)
    events["engine"] = profiler.total_events
    for phase in ("setup", "analysis"):
        if phases.get(phase):
            seconds[phase] = seconds.get(phase, 0.0) + phases[phase]

    total = max(total_wall_seconds, 1e-9)
    buckets = {}
    for name in SUBSYSTEMS:
        if name not in seconds:
            continue
        buckets[name] = {
            "wall_seconds": round(seconds[name], 4),
            "share": round(seconds[name] / total, 4),
            "events": events.get(name, 0),
        }
    for name in sorted(set(seconds) - set(SUBSYSTEMS)):  # pragma: no cover
        buckets[name] = {
            "wall_seconds": round(seconds[name], 4),
            "share": round(seconds[name] / total, 4),
            "events": events.get(name, 0),
        }
    covered = sum(entry["wall_seconds"] for entry in buckets.values())
    return {
        "total_wall_seconds": round(total_wall_seconds, 4),
        "coverage": round(min(1.0, covered / total), 4),
        "buckets": buckets,
    }
