"""Parallel execution layer (S12): deterministic job fan-out.

``run_jobs`` fans independent simulation units (campaign days,
multi-seed replicas, ablation grid points) out to worker processes and
merges their results by job key, so every ``jobs`` value yields
byte-identical output; ``run_units`` adds the checkpoint/resume loop
the campaign and the resilience sweep share, and ``run_seed_sweep``
applies ``run_jobs`` to multi-seed scenario sweeps.  See
``docs/PARALLEL.md`` for the execution model and the determinism
contract.
"""

from .jobs import (WHERE_FALLBACK, WHERE_POOL, WHERE_SERIAL, Job,
                   JobFailure, JobOutcome, execute_jobs, merge_by_key,
                   run_jobs)
from .sweeps import run_seed_sweep
from .units import (KILL_SWITCH_ENV, kill_switch_hook, open_checkpoint,
                    run_units)

__all__ = [
    "Job", "JobOutcome", "JobFailure",
    "run_jobs", "execute_jobs", "merge_by_key", "run_seed_sweep",
    "run_units", "open_checkpoint", "kill_switch_hook", "KILL_SWITCH_ENV",
    "WHERE_SERIAL", "WHERE_POOL", "WHERE_FALLBACK",
]
