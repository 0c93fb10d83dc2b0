"""Multi-seed sweeps over one scenario, fanned out with the job runner.

One simulated session is one draw from the model; honest claims rest on
several seeds.  :func:`run_seed_sweep` runs a scenario once per seed —
in-process when ``jobs=1``, across worker processes otherwise — and
returns the per-seed headline metrics **in seed order**, identical for
every ``jobs`` value (each session is seeded only by its own seed, so
completion order cannot leak into the output).

Heavy imports (scenario, analysis) happen lazily inside the functions:
this module sits below ``repro.workload``/``repro.analysis`` in the
import graph so the campaign can use the job runner without a cycle.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, List, Optional, Sequence

from .jobs import Job, run_jobs

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..analysis.aggregate import SessionMetrics
    from ..workload.scenario import ScenarioConfig


def _seed_session_job(config: "ScenarioConfig", seed: int,
                      probe_name: Optional[str]) -> "SessionMetrics":
    """Worker entry point: one seeded session -> headline metrics.

    Only the (picklable) metrics cross back over the process boundary;
    the full :class:`SessionResult` never leaves the worker.
    """
    from ..analysis.aggregate import session_metrics
    from ..workload.scenario import SessionScenario
    seeded = dataclasses.replace(config, seed=seed)
    return session_metrics(SessionScenario(seeded).run(), probe_name)


def run_seed_sweep(config: "ScenarioConfig", seeds: Sequence[int], *,
                   jobs: int = 1, probe_name: Optional[str] = None
                   ) -> List["SessionMetrics"]:
    """Run ``config`` once per seed; metrics in ``seeds`` order."""
    if not seeds:
        raise ValueError("need at least one seed")
    # Workers must not inherit the caller's instrumentation bundle
    # (open sinks do not pickle; metrics belong to the parent).
    shipped = config if jobs <= 1 else dataclasses.replace(
        config, instrumentation=None)
    merged = run_jobs([Job(key=(index, seed), fn=_seed_session_job,
                           args=(shipped, seed, probe_name))
                       for index, seed in enumerate(seeds)], workers=jobs)
    return list(merged.values())
