"""Deterministic fan-out of independent simulation jobs.

The campaign, the multi-seed sweeps and the ablation grids all share one
shape: N completely independent simulation units whose RNG streams are
derived from their own keys, so they can run in any order — or in
parallel processes — and still must produce byte-identical merged
results.  :func:`run_jobs` is that execution layer:

* ``workers=1`` (the default) runs every job in-process, in input
  order — the exact code path a plain serial loop would take;
* ``workers>1`` fans jobs out to a :class:`ProcessPoolExecutor`, with
  one more pool round for jobs whose worker crashed and a final
  in-process fallback for anything the pool could not finish — so a
  poisoned job degrades throughput, never correctness;
* results are merged **by job key, never by completion order**
  (:func:`merge_by_key`), which is the entire determinism contract:
  because each job seeds itself from its key, ordering is the only
  hazard parallelism introduces.

Worker processes never see the caller's :class:`Instrumentation`
bundle (it is not picklable and must not be shared); instead the parent
records per-job wall-clock and queue-wait metrics under the
``parallel.*`` namespace after each job completes.
"""

from __future__ import annotations

import concurrent.futures
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, Hashable, List, Mapping,
                    Optional, Sequence, Tuple)

from ..obs import Instrumentation
from ..obs import resolve as resolve_obs

#: Where a job's successful attempt actually executed.
WHERE_SERIAL = "serial"      # workers=1 (or an empty pool request)
WHERE_POOL = "pool"          # in a ProcessPoolExecutor worker
WHERE_FALLBACK = "fallback"  # in-process, after the pool gave up

#: Pool rounds before the in-process fallback: the first submission
#: plus one retry for jobs whose worker crashed.
_POOL_ROUNDS = 2


@dataclass(frozen=True)
class Job:
    """One independent unit of work.

    ``fn`` must be a module-level callable and ``args``/``kwargs``
    picklable, so the job can cross a process boundary.  ``key``
    identifies the job in the merged output and must be unique within
    one :func:`run_jobs` call.
    """

    key: Hashable
    fn: Callable[..., Any]
    args: Tuple[Any, ...] = ()
    kwargs: Mapping[str, Any] = field(default_factory=dict)


@dataclass
class JobOutcome:
    """Execution record of one finished job (value + observability)."""

    key: Hashable
    value: Any
    #: Total attempts, pool rounds and the final fallback included.
    attempts: int
    #: Seconds spent inside the successful execution of ``fn``.
    wall_clock: float
    #: Seconds between submission and execution start (0 when serial).
    queue_wait: float
    #: One of :data:`WHERE_SERIAL` / :data:`WHERE_POOL` /
    #: :data:`WHERE_FALLBACK`.
    where: str


class JobFailure(RuntimeError):
    """A job failed even after retries and the in-process fallback."""

    def __init__(self, key: Hashable, cause: BaseException) -> None:
        super().__init__(f"job {key!r} failed: {cause!r}")
        self.key = key
        self.cause = cause


def merge_by_key(keys: Sequence[Hashable],
                 results: Mapping[Hashable, Any]) -> "OrderedDict":
    """Merge job results deterministically, by key, in ``keys`` order.

    ``results`` may have been populated in *any* completion order; the
    output depends only on ``keys``.  Raises ``KeyError`` when a result
    is missing and ``ValueError`` on duplicate or unknown keys.
    """
    merged: "OrderedDict" = OrderedDict()
    for key in keys:
        if key in merged:
            raise ValueError(f"duplicate job key {key!r}")
        if key not in results:
            raise KeyError(f"no result for job key {key!r}")
        merged[key] = results[key]
    if len(results) != len(merged):
        unknown = set(results) - set(merged)
        raise ValueError(f"results for unknown job keys {sorted(map(repr, unknown))}")
    return merged


# ----------------------------------------------------------------------
# Worker-side entry point
# ----------------------------------------------------------------------
def _invoke(fn: Callable[..., Any], args: Tuple[Any, ...],
            kwargs: Dict[str, Any]) -> Tuple[Any, float, float]:
    """Run ``fn`` in the worker, timing it with the system-wide
    monotonic clock so the parent can compute queue waits."""
    started = time.monotonic()
    value = fn(*args, **kwargs)
    return value, started, time.monotonic()


# ----------------------------------------------------------------------
# Execution paths
# ----------------------------------------------------------------------
def _run_in_process(job: Job, attempts_before: int,
                    where: str) -> JobOutcome:
    started = time.monotonic()
    try:
        value = job.fn(*job.args, **dict(job.kwargs))
    except Exception as exc:
        raise JobFailure(job.key, exc) from exc
    return JobOutcome(key=job.key, value=value,
                      attempts=attempts_before + 1,
                      wall_clock=time.monotonic() - started,
                      queue_wait=0.0, where=where)


def _make_pool(workers: int) -> Optional[concurrent.futures.Executor]:
    """A process pool, or ``None`` when the platform cannot provide one
    (no sem_open, no fork/spawn, resource limits, ...)."""
    try:
        return concurrent.futures.ProcessPoolExecutor(max_workers=workers)
    except (ImportError, NotImplementedError, OSError, ValueError):
        return None


def _run_pool(jobs: Sequence[Job], workers: int,
              obs: Instrumentation) -> Dict[Hashable, JobOutcome]:
    """Pool execution with a bounded retry round and serial fallback."""
    outcomes: Dict[Hashable, JobOutcome] = {}
    attempts: Dict[Hashable, int] = {job.key: 0 for job in jobs}
    pending: List[Job] = list(jobs)

    for round_index in range(_POOL_ROUNDS):
        if not pending:
            break
        if round_index > 0 and obs.enabled:
            obs.metrics.counter("parallel.retry_rounds").inc()
        executor = _make_pool(min(workers, len(pending)))
        if executor is None:
            break  # pool unavailable: everything left runs in-process
        failed: List[Job] = []
        with executor:
            submitted: List[Tuple[Job, concurrent.futures.Future, float]] = []
            try:
                for job in pending:
                    submitted.append((job,
                                      executor.submit(_invoke, job.fn,
                                                      job.args,
                                                      dict(job.kwargs)),
                                      time.monotonic()))
            except (OSError, RuntimeError):
                # Submission itself failed (pool broken mid-build);
                # whatever never got a future retries next round.
                failed.extend(pending[len(submitted):])
            for job, future, submit_time in submitted:
                attempts[job.key] += 1
                try:
                    value, started, finished = future.result()
                except concurrent.futures.process.BrokenProcessPool:
                    failed.append(job)
                    if obs.enabled:
                        obs.metrics.counter("parallel.worker_crashes").inc()
                except Exception:
                    # The job itself raised in the worker; retrying a
                    # deterministic failure is futile in the pool, but
                    # the in-process fallback will surface the real
                    # traceback as a JobFailure.
                    failed.append(job)
                else:
                    outcomes[job.key] = JobOutcome(
                        key=job.key, value=value,
                        attempts=attempts[job.key],
                        wall_clock=finished - started,
                        queue_wait=max(0.0, started - submit_time),
                        where=WHERE_POOL)
        pending = failed

    for job in pending:  # graceful in-process fallback, input order
        outcomes[job.key] = _run_in_process(job, attempts[job.key],
                                            WHERE_FALLBACK)
    return outcomes


# ----------------------------------------------------------------------
# Public API
# ----------------------------------------------------------------------
def execute_jobs(jobs: Sequence[Job], *, workers: int = 1,
                 obs: Optional[Instrumentation] = None) -> List[JobOutcome]:
    """Run ``jobs`` and return their outcomes in **input order**.

    ``workers`` is the process count (``1`` = in-process serial path).
    """
    jobs = list(jobs)
    keys = [job.key for job in jobs]
    if len(set(keys)) != len(keys):
        raise ValueError("job keys must be unique within one run")
    if not jobs:
        return []
    resolved = resolve_obs(obs)

    if workers <= 1:
        outcomes = {job.key: _run_in_process(job, 0, WHERE_SERIAL)
                    for job in jobs}
    else:
        outcomes = _run_pool(jobs, workers, resolved)

    ordered = list(merge_by_key(keys, outcomes).values())
    if resolved.enabled:
        _record_metrics(ordered, workers, resolved)
        if resolved.spans.enabled:
            _record_spans(ordered, workers, resolved)
        if resolved.progress_bus is not None:
            _record_progress(ordered, resolved)
    return ordered


def run_jobs(jobs: Sequence[Job], *, workers: int = 1,
             obs: Optional[Instrumentation] = None) -> "OrderedDict":
    """Like :func:`execute_jobs` but returns ``{key: value}`` in input
    order — the deterministic merged result most callers want."""
    outcomes = execute_jobs(jobs, workers=workers, obs=obs)
    return OrderedDict((outcome.key, outcome.value)
                       for outcome in outcomes)


def _record_metrics(outcomes: Sequence[JobOutcome], workers: int,
                    obs: Instrumentation) -> None:
    """Parent-side accounting: per-job wall clock and queue wait."""
    obs.metrics.gauge("parallel.workers").set(workers)
    wall = obs.metrics.histogram("parallel.job_seconds")
    queue = obs.metrics.histogram("parallel.queue_seconds")
    for outcome in outcomes:
        obs.metrics.counter("parallel.jobs",
                            {"where": outcome.where}).inc()
        extra = outcome.attempts - 1
        if extra:
            obs.metrics.counter("parallel.job_retries").inc(extra)
        wall.observe(outcome.wall_clock)
        queue.observe(outcome.queue_wait)


def _record_progress(outcomes: Sequence[JobOutcome],
                     obs: Instrumentation) -> None:
    """Parent-side ``job_complete`` records, in merged key order.

    Workers never carry the bus (unpicklable; completion order is
    racy), so like spans these are emitted after the deterministic
    merge — the stream reports *what finished*, not when each worker
    happened to report in.
    """
    bus = obs.progress_bus
    total = len(outcomes)
    for index, outcome in enumerate(outcomes):
        bus.emit("job_complete", key=str(outcome.key),
                 index=index + 1, total=total, where=outcome.where,
                 attempts=outcome.attempts,
                 wall_clock=round(outcome.wall_clock, 3),
                 queue_wait=round(outcome.queue_wait, 3))


def _record_spans(outcomes: Sequence[JobOutcome], workers: int,
                  obs: Instrumentation) -> None:
    """Parent-side job spans, merged deterministically by job key.

    Workers never see the span sink (unpicklable, and worker completion
    order is racy), so the parent materialises one span per job *in
    merged key order* after :func:`merge_by_key`.  Span IDs and
    attributes are therefore identical run-to-run; only the wall-clock
    durations vary, which is exactly the parallel category's job: it
    measures the machine, not the simulation.  Each job is laid on a
    synthetic timeline — queue wait then execution, jobs end-to-end —
    so the fan-out reads as one track in Perfetto.
    """
    run_span = obs.spans.start_span("parallel_run", "parallel", 0.0,
                                    actor="parallel",
                                    jobs=len(outcomes), workers=workers)
    cursor = 0.0
    for outcome in outcomes:
        start = cursor + outcome.queue_wait
        end = start + outcome.wall_clock
        span = obs.spans.start_span(
            "job", "parallel", start, parent=run_span, actor="parallel",
            key=str(outcome.key), where=outcome.where,
            attempts=outcome.attempts,
            queue_wait=round(outcome.queue_wait, 6))
        span.finish(end)
        cursor = end
    run_span.finish(cursor)
