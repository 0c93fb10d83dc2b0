"""Checkpointed, resumable unit runs.

A month-scale campaign is days of wall-clock; this package makes such
runs survivable: completed units (campaign (program, day) pairs,
resilience sweep cells) are persisted as atomic, versioned,
digest-stamped artifacts (:mod:`repro.checkpoint.format`), a killed run
resumes from them byte-identically (``repro run fig06 --checkpoint
DIR`` / ``--resume DIR``; the loop itself is
:func:`repro.parallel.run_units`), and anything questionable on disk
fails loudly with :class:`CheckpointError` instead of resuming silently
wrong.

See ``docs/CHECKPOINT.md`` for the format, the versioning rules and the
determinism contract the test suite enforces.
"""

from dataclasses import dataclass

from .format import (SCHEMA_VERSION, CheckpointError, canonical_json,
                     payload_digest, read_artifact, write_artifact)
from .store import (KIND_MANIFEST, KIND_UNIT, UnitCheckpointStore,
                    UnitKey, config_digest_of, unit_stem)


@dataclass(frozen=True)
class CheckpointPolicy:
    """How a run checkpoints itself.

    ``path`` is the checkpoint directory.  ``every`` batches unit
    flushes: completed units are persisted in groups of N (a kill loses
    at most the unflushed tail of a batch; larger N trades re-work for
    fewer fsyncs).  ``resume`` loads the directory's completed units
    first and simulates only the remainder — the resumed result is
    byte-identical to an uninterrupted run.
    """

    path: str
    every: int = 1
    resume: bool = False

    def __post_init__(self) -> None:
        if self.every < 1:
            raise ValueError(
                f"checkpoint-every must be >= 1, got {self.every}")


__all__ = [
    "SCHEMA_VERSION", "CheckpointError", "CheckpointPolicy",
    "UnitCheckpointStore", "UnitKey", "KIND_MANIFEST", "KIND_UNIT",
    "canonical_json", "config_digest_of", "payload_digest",
    "read_artifact", "unit_stem", "write_artifact",
]
