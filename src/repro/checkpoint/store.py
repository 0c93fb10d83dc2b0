"""Directory layout of a resumable checkpoint.

A checkpoint is a directory, not a single file, because the unit of
restart is one simulation unit: a campaign (program, day) or a
resilience sweep cell::

    <root>/
      campaign.json            # manifest: config digest, seed, shape
      units/popular-0000.json  # one digest-stamped artifact per
      units/unpopular-0003.json  # completed unit (cell-0001.json, ...)

Each artifact uses the :mod:`repro.checkpoint.format` envelope and is
written atomically, so a kill at any instant loses at most the units
completed since the last flush — never the directory's integrity.  Every
artifact embeds the run's *config digest*: resuming with a different
seed, day count, population, fault schedule or model knob fails with
:class:`CheckpointError` instead of silently splicing incompatible
results together.

The store never holds more than one unit artifact in memory at a time
(:meth:`UnitCheckpointStore.iter_units` is a generator), which is what
keeps a month-scale resume at constant RSS.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Iterator, Tuple, Union

from .format import (CheckpointError, payload_digest, read_artifact,
                     write_artifact)

#: Artifact kinds (named for the campaign, the first store user).
KIND_MANIFEST = "campaign-manifest"
KIND_UNIT = "campaign-unit"

MANIFEST_NAME = "campaign.json"
UNITS_DIR = "units"

_UNIT_FILE = re.compile(r"^(?P<popularity>[a-z]+)-(?P<day>\d{4})\.json$")

#: A unit key: ``(name, index)``, e.g. ``("popular", 3)`` or
#: ``("cell", 1)`` — the same key the parallel job runner merges by.
UnitKey = Tuple[str, int]


def unit_stem(key: UnitKey) -> str:
    """A unit's artifact file stem: ``popular-0003``, ``cell-0001``."""
    name, index = key
    return f"{name}-{index:04d}"


class UnitCheckpointStore:
    """Reads and writes one checkpoint directory."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------
    @property
    def manifest_path(self) -> Path:
        return self.root / MANIFEST_NAME

    @property
    def units_dir(self) -> Path:
        return self.root / UNITS_DIR

    def unit_path(self, key: UnitKey) -> Path:
        return self.units_dir / f"{unit_stem(key)}.json"

    # ------------------------------------------------------------------
    # Manifest
    # ------------------------------------------------------------------
    def initialize(self, config_digest: str, *, seed: int, days: int,
                   total_units: int) -> None:
        """Write the manifest for a fresh (or restarted) run.

        Any unit artifacts already in the directory are removed first: a
        fresh ``--checkpoint`` run must never splice in units from an
        earlier run that happened to share the directory.
        """
        if self.units_dir.is_dir():
            for stale in self.units_dir.glob("*.json"):
                stale.unlink()
        self.root.mkdir(parents=True, exist_ok=True)
        write_artifact(self.manifest_path, KIND_MANIFEST,
                       {"config_digest": config_digest, "seed": seed,
                        "days": days, "total_units": total_units})

    def load_manifest(self, config_digest: str) -> dict:
        """Read, validate and config-match the manifest.

        ``config_digest`` is the digest of the configuration the caller
        is about to run; a mismatch means the checkpoint belongs to a
        *different* run and resuming would be silently wrong.
        """
        if not self.manifest_path.exists():
            raise CheckpointError(
                f"no checkpoint at {self.root} (missing "
                f"{MANIFEST_NAME}); start one with --checkpoint")
        manifest = read_artifact(self.manifest_path, KIND_MANIFEST)
        if manifest.get("config_digest") != config_digest:
            raise CheckpointError(
                f"stale checkpoint at {self.root}: it was written for a "
                f"different campaign configuration (checkpoint config "
                f"{manifest.get('config_digest')!r}, requested "
                f"{config_digest!r}); re-run with --checkpoint to start "
                f"over")
        return manifest

    # ------------------------------------------------------------------
    # Units
    # ------------------------------------------------------------------
    def write_unit(self, key: UnitKey, config_digest: str,
                   payload: dict) -> None:
        """Atomically persist one completed unit's result."""
        popularity, day = key
        body = {"config_digest": config_digest,
                "popularity": popularity, "day": day}
        body.update(payload)
        write_artifact(self.unit_path(key), KIND_UNIT, body)

    def iter_units(self, config_digest: str) -> Iterator[
            Tuple[UnitKey, dict]]:
        """Yield every persisted unit, strictly validated, one at a time.

        Deterministic (sorted filename) order; any invalid artifact —
        truncated, digest-mismatched, schema-skewed, misnamed, or
        belonging to a different configuration — raises
        :class:`CheckpointError` rather than being skipped.
        """
        if not self.units_dir.is_dir():
            return
        for path in sorted(self.units_dir.glob("*.json")):
            match = _UNIT_FILE.match(path.name)
            if match is None:
                raise CheckpointError(
                    f"unexpected file in checkpoint unit directory: "
                    f"{path} (not a unit artifact)")
            payload = read_artifact(path, KIND_UNIT)
            key = (payload.get("popularity"), payload.get("day"))
            named = (match.group("popularity"),
                     int(match.group("day")))
            if key != named:
                raise CheckpointError(
                    f"checkpoint unit {path} is mislabeled: file says "
                    f"{named}, payload says {key}")
            if payload.get("config_digest") != config_digest:
                raise CheckpointError(
                    f"stale checkpoint unit {path}: written for a "
                    f"different campaign configuration")
            yield key, payload


def config_digest_of(fields: dict) -> str:
    """Digest a configuration's result-affecting fields.

    Thin wrapper over :func:`repro.checkpoint.format.payload_digest` so
    callers build the digest and the artifacts from one function family.
    """
    return payload_digest(fields)
