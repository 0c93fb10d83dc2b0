"""Resumable unit runs: the one loop behind every checkpointed experiment.

The fig06 campaign (one unit per ``(program, day)``) and the resilience
sweep (one unit per cell) are lists of independent units that must
survive a kill and resume byte-identically (``docs/CHECKPOINT.md``).
Both open their checkpoint with :func:`open_checkpoint` and run through
:func:`run_units`; the kill/resume suite stops them mid-unit through
:func:`kill_switch_hook`.
"""

from __future__ import annotations

import os
import signal
from collections import OrderedDict
from dataclasses import dataclass
from typing import (Any, Callable, Dict, Hashable, List, Mapping,
                    Optional, Sequence, Tuple)

from ..checkpoint import (CheckpointError, CheckpointPolicy,
                          UnitCheckpointStore, UnitKey, unit_stem)
from ..obs import Instrumentation
from .jobs import Job, merge_by_key, run_jobs

#: ``<unit>:<events>``: the unit whose checkpoint artifact stem is
#: ``<unit>`` (``popular-0002``, ``cell-0001``) SIGKILLs its own
#: process once its simulator has executed ``<events>`` events.
#: Test-only seam for the kill/resume suite: the check runs at
#: simulated-time boundaries, so the kill point is deterministic in
#: event count, and the killed, unflushed unit is simply re-run on
#: resume.
KILL_SWITCH_ENV = "REPRO_UNIT_SIGKILL"


def kill_switch_hook(key: UnitKey) -> Optional[Callable]:
    """The session run hook that kills unit ``key``, if
    :data:`KILL_SWITCH_ENV` names it; ``None`` otherwise."""
    spec = os.environ.get(KILL_SWITCH_ENV)
    if not spec:
        return None
    stem, _, events = spec.rpartition(":")
    if not stem or not events.isdigit():
        raise ValueError(
            f"{KILL_SWITCH_ENV} must be '<unit>:<events>' (for example "
            f"'popular-0002:5000'), got {spec!r}")
    if stem != unit_stem(key):
        return None
    threshold = int(events)

    def hook(sim, deployment, manager, probe_peers) -> None:
        def check() -> None:
            if sim.events_executed >= threshold:
                os.kill(os.getpid(), signal.SIGKILL)
        sim.every(1.0, check, label="kill-switch")

    return hook


@dataclass(frozen=True)
class UnitCheckpoint:
    """An open checkpoint directory one run persists its units to."""

    store: UnitCheckpointStore
    #: Config digest stamped on every unit artifact.
    digest: str
    #: Flush finished units in batches of this many.
    every: int
    #: Unit value -> the JSON payload persisted for it.
    encode: Callable[[Any], dict]


def open_checkpoint(policy: Optional[CheckpointPolicy], digest: str,
                    keys: Sequence[UnitKey], *, seed: int, days: int,
                    encode: Callable[[Any], dict],
                    decode: Callable[[UnitKey, dict], Any]
                    ) -> Tuple[Optional[UnitCheckpoint], Dict[UnitKey, Any]]:
    """Open ``policy``'s directory for a run over the units ``keys``.

    Returns the checkpoint to persist units to (``None`` without a
    policy) and the units a resume replays, decoded by
    ``decode(key, payload)``.  A fresh run clears the directory and
    writes the manifest; a resume checks the manifest against
    ``digest`` and refuses any unit outside ``keys``, which belongs to a
    run of another shape.
    """
    if policy is None:
        return None, {}
    store = UnitCheckpointStore(policy.path)
    restored: Dict[UnitKey, Any] = {}
    if policy.resume:
        store.load_manifest(digest)
        expected = set(keys)
        for key, payload in store.iter_units(digest):
            if key not in expected:
                raise CheckpointError(
                    f"checkpoint at {store.root} holds unit "
                    f"{unit_stem(key)}, which is outside this run's "
                    f"shape ({len(keys)} units)")
            restored[key] = decode(key, payload)
    else:
        store.initialize(digest, seed=seed, days=days,
                         total_units=len(keys))
    return UnitCheckpoint(store, digest, policy.every, encode), restored


def run_units(jobs: Sequence[Job], *, workers: int = 1,
              checkpoint: Optional[UnitCheckpoint] = None,
              restored: Optional[Mapping[Hashable, Any]] = None,
              obs: Optional[Instrumentation] = None,
              on_unit: Optional[Callable[[Hashable, Any, bool], None]]
              = None) -> "OrderedDict":
    """Run every job ``restored`` lacks; ``{key: value}`` in job order.

    In-process (``workers <= 1``) each unit is its own :func:`run_jobs`
    call, so it is reported the moment it finishes.  A pool gets every
    pending unit in one call, or ``max(every, workers)`` per call when
    checkpointing, so flushes never serialise it.  Simulated units are
    persisted every ``checkpoint.every``.  ``obs`` reaches
    :func:`run_jobs` only for pool runs: in-process units report
    through their own sessions.  ``on_unit(key, value, restored)`` sees
    every unit in job order, as soon as it and all earlier ones are
    known.
    """
    replayed = restored or {}
    keys = [job.key for job in jobs]
    values: Dict[Hashable, Any] = dict(replayed)
    pending = [job for job in jobs if job.key not in values]
    if workers <= 1:
        batch, obs = 1, None
    elif checkpoint is None:
        batch = max(1, len(pending))
    else:
        batch = max(checkpoint.every, workers)
    unflushed: List[Hashable] = []
    reported = 0

    def report() -> None:
        nonlocal reported
        while reported < len(keys) and keys[reported] in values:
            key = keys[reported]
            if on_unit is not None:
                on_unit(key, values[key], key in replayed)
            reported += 1

    def flush() -> None:
        for key in unflushed:
            checkpoint.store.write_unit(key, checkpoint.digest,
                                        checkpoint.encode(values[key]))
        unflushed.clear()

    report()
    for start in range(0, len(pending), batch):
        done = run_jobs(pending[start:start + batch], workers=workers,
                        obs=obs)
        values.update(done)
        if checkpoint is not None:
            unflushed.extend(done)
            if len(unflushed) >= checkpoint.every:
                flush()
        report()
    if checkpoint is not None:
        flush()
    return merge_by_key(keys, values)
