"""Live run telemetry: the streaming progress bus and its readers.

A long campaign used to be a black box until it exited.  The
:class:`ProgressBus` turns every run into an inspectable artifact while
it is still executing: a constant-memory, append-only ``progress.jsonl``
stream of small records — run start, periodic heartbeats, per-day /
per-job completions, and a terminal ``run_summary`` footer that is
written even when the run crashes or is interrupted.

Record shape: one JSON object per line, always with a ``kind`` field and
a ``wall_seconds`` offset from bus creation.  Deterministic simulation
fields (sim time, event counts, per-ISP peer counts, locality results)
live next to machine-measurement fields (wall clock, RSS, events/sec);
:data:`WALL_FIELDS` names the latter so equivalence tests can strip them
(:func:`strip_wall_fields`) before byte comparisons, mirroring
``repro.obs.export.strip_wall_metrics``.

The readers are tail-friendly: :func:`read_progress` tolerates a
partially-written final line, so ``repro status`` / ``repro top`` can be
pointed at a *live* run's artifact mid-write.  :func:`summarize_progress`
folds a record stream into one status dict (state, progress, ETA
extrapolation) and :func:`render_status` formats it for humans — the
two halves behind ``repro status`` and ``repro top``.
"""

from __future__ import annotations

import resource
import sys
import time
from typing import IO, List, Optional, Union

from .jsonl import (PathOrFile, encode_record, line_error,
                    not_object_error, open_text, shared_decoder)

#: Record kinds emitted by the bus (not exhaustive; the bus accepts any).
KIND_RUN_START = "run_start"
KIND_CAMPAIGN_START = "campaign_start"
KIND_HEARTBEAT = "heartbeat"
KIND_DAY_COMPLETE = "day_complete"
KIND_JOB_COMPLETE = "job_complete"
KIND_RUN_SUMMARY = "run_summary"

#: Fields that measure the machine, not the simulation.  Stripped by
#: :func:`strip_wall_fields` before any run-to-run byte comparison.
WALL_FIELDS = frozenset({
    "wall_seconds", "unix", "rss_bytes", "peak_rss_bytes",
    "events_per_sec", "queue_wait", "wall_clock", "eta_seconds",
})

#: Kinds whose *presence* depends on the execution mode: worker
#: processes carry no bus, so serial runs emit heartbeats where
#: ``--jobs N`` runs emit parent-side job completions instead.  The
#: deterministic cross-mode view drops both.
MODE_DEPENDENT_KINDS = frozenset({KIND_HEARTBEAT, KIND_JOB_COMPLETE})

#: Fields that describe the execution mode, not the workload (a serial
#: run and a ``--jobs 4`` run of the same seed differ here by
#: construction; so does a ``--resume`` run, which replays checkpointed
#: days instead of simulating them).  Stripped alongside
#: :data:`WALL_FIELDS` by :func:`deterministic_records`.
MODE_FIELDS = frozenset({"jobs", "restored", "resumed_units"})


def peak_rss_bytes() -> int:
    """This process's peak RSS in bytes (ru_maxrss, normalised)."""
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB, macOS bytes; normalise to bytes.
    return usage * 1024 if sys.platform != "darwin" else usage


class ProgressBus:
    """Append-only JSONL heartbeat stream for one run.

    Constant memory: every record is serialised and flushed as it is
    emitted, nothing is buffered, so a month-scale campaign costs the
    same RSS as a smoke run.  The bus is *parent-side only* — it is
    never pickled into worker processes; ``--jobs N`` runs get their
    per-job records emitted by the parent after the deterministic
    merge (see :mod:`repro.parallel.jobs`).
    """

    def __init__(self, path_or_file: Union[str, IO[str]]) -> None:
        if isinstance(path_or_file, str):
            self._file: IO[str] = open(path_or_file, "w", encoding="utf-8")
            self._owns_file = True
            self.path: Optional[str] = path_or_file
        else:
            self._file = path_or_file
            self._owns_file = False
            self.path = getattr(path_or_file, "name", None)
        self._started = time.perf_counter()
        self.records_written = 0
        self._closed = False

    # ------------------------------------------------------------------
    # Emission
    # ------------------------------------------------------------------
    def emit(self, kind: str, **fields) -> None:
        """Append one record; ``wall_seconds`` is added automatically."""
        if self._closed:
            return
        record = {"kind": kind}
        record.update(fields)
        record["wall_seconds"] = round(
            time.perf_counter() - self._started, 3)
        self._file.write(encode_record(record) + "\n")
        self._file.flush()
        self.records_written += 1

    def run_start(self, **fields) -> None:
        """The opening record; carries the absolute ``unix`` time so a
        reader can compute staleness of later offset-stamped records."""
        self.emit(KIND_RUN_START, unix=round(time.time(), 3), **fields)

    def heartbeat(self, **fields) -> None:
        self.emit(KIND_HEARTBEAT, **fields)

    def run_summary(self, status: str, **fields) -> None:
        """The terminal footer (also on crash/KeyboardInterrupt)."""
        self.emit(KIND_RUN_SUMMARY, status=status,
                  peak_rss_bytes=peak_rss_bytes(), **fields)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._file.flush()
        if self._owns_file:
            self._file.close()

    def __enter__(self) -> "ProgressBus":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ----------------------------------------------------------------------
# Reading (live- and finished-run tolerant)
# ----------------------------------------------------------------------
def read_progress(path_or_file: PathOrFile, *, with_tail: bool = False):
    """Parse a progress JSONL stream into record dicts.

    Tolerates a partially-written final line (a live run flushing
    mid-record): the torn tail is dropped from the records.  Any
    *earlier* malformed line still raises ``ValueError`` naming its
    line — that is corruption, not liveness.  A line that parses but is
    not a JSON object counts as malformed too (every record in these
    streams is an object).

    With ``with_tail=True`` returns ``(records, tail)`` where ``tail``
    is the dropped torn text (``""`` if the file ended cleanly) — the
    readers use it to distinguish "no records yet" from "nothing but a
    torn fragment", which deserve different exit codes.
    """
    with open_text(path_or_file) as handle:
        lines = handle.readlines()
    decode = shared_decoder()
    records: List[dict] = []
    tail = ""
    for lineno, line in enumerate(lines, 1):
        text = line.strip()
        if not text:
            continue
        try:
            record = decode(text)
        except ValueError as exc:
            error = line_error(lineno, line, exc)
        else:
            if isinstance(record, dict):
                records.append(record)
                continue
            error = not_object_error(lineno, text)
        if lineno == len(lines):
            tail = text  # torn tail of a live run
            break
        raise error
    if with_tail:
        return records, tail
    return records


def strip_wall_fields(record: dict) -> dict:
    """The record without its machine-measurement fields."""
    return {key: value for key, value in record.items()
            if key not in WALL_FIELDS}


def deterministic_records(records: List[dict]) -> List[dict]:
    """The mode-independent, seed-deterministic view of a stream.

    Two runs of the same workload — serial vs ``--jobs N``, telemetry
    on different machines — must agree exactly on this projection:
    mode-dependent kinds are dropped (workers carry no bus, so
    heartbeats and job records differ by construction) and wall-clock
    fields are stripped from the rest.
    """
    dropped = WALL_FIELDS | MODE_FIELDS
    return [{key: value for key, value in record.items()
             if key not in dropped}
            for record in records
            if record.get("kind") not in MODE_DEPENDENT_KINDS]


# ----------------------------------------------------------------------
# Status model
# ----------------------------------------------------------------------
def _last_of(records: List[dict], kind: str) -> Optional[dict]:
    for record in reversed(records):
        if record.get("kind") == kind:
            return record
    return None


def summarize_progress(records: List[dict],
                       now_unix: Optional[float] = None) -> dict:
    """Fold a progress stream into one status dict.

    Handles every lifecycle stage: an empty file (run just started), a
    mid-flight stream (ETA extrapolated), and a finished stream (the
    ``run_summary`` footer wins).  ``now_unix`` (default: current time)
    is used only for staleness of the last record.
    """
    summary: dict = {"state": "empty", "records": len(records)}
    if not records:
        return summary
    summary["state"] = "running"

    start = _last_of(records, KIND_RUN_START)
    if start is not None:
        for key in ("experiment", "scale", "seed", "jobs"):
            if key in start:
                summary[key] = start[key]

    last = records[-1]
    elapsed = last.get("wall_seconds")
    summary["elapsed_wall_seconds"] = elapsed
    if start is not None and "unix" in start and elapsed is not None:
        now_unix = time.time() if now_unix is None else now_unix
        age = now_unix - (start["unix"] + elapsed)
        summary["last_record_age_seconds"] = round(max(0.0, age), 1)

    beat = _last_of(records, KIND_HEARTBEAT)
    if beat is not None:
        summary["sim_time"] = beat.get("t")
        summary["sim_end"] = beat.get("sim_end")
        summary["events_executed"] = beat.get("events_executed")
        summary["events_per_sec"] = beat.get("events_per_sec")
        summary["rss_bytes"] = beat.get("rss_bytes")
        if beat.get("peers_by_isp"):
            summary["peers_by_isp"] = beat["peers_by_isp"]
        if "viewers" in beat:
            summary["viewers"] = beat["viewers"]
        if "faults_active" in beat:
            summary["faults_active"] = beat["faults_active"]
        if beat.get("flows"):
            summary["flows"] = beat["flows"]

    campaign = _last_of(records, KIND_CAMPAIGN_START)
    days_done = [r for r in records if r.get("kind") == KIND_DAY_COMPLETE]
    jobs_done = [r for r in records if r.get("kind") == KIND_JOB_COMPLETE]
    if campaign is not None:
        total = campaign.get("total_units")
        done = max(len(days_done), len(jobs_done))
        summary["campaign"] = {
            "days": campaign.get("days"),
            "units_total": total,
            "units_done": done,
        }
        restored = sum(1 for r in days_done if r.get("restored"))
        if restored:
            summary["campaign"]["units_restored"] = restored
        if days_done:
            latest = days_done[-1]
            summary["campaign"]["last_day"] = {
                "day": latest.get("day"),
                "popularity": latest.get("popularity"),
                "locality_by_isp": latest.get("locality_by_isp"),
            }

    footer = _last_of(records, KIND_RUN_SUMMARY)
    if footer is not None:
        summary["state"] = "finished" if footer.get("status") == "ok" \
            else footer.get("status", "finished")
        summary["status"] = footer.get("status")
        summary["run_summary"] = strip_wall_fields(footer)
        summary["peak_rss_bytes"] = footer.get("peak_rss_bytes")
        if "events_executed" in footer:
            summary["events_executed"] = footer["events_executed"]
    else:
        summary["eta_seconds"] = _extrapolate_eta(
            summary, campaign, days_done or jobs_done, beat)
    return summary


def _extrapolate_eta(summary: dict, campaign: Optional[dict],
                     units_done: List[dict],
                     beat: Optional[dict]) -> Optional[float]:
    """Remaining wall-clock estimate for a still-running stream.

    Campaigns extrapolate from completed (program, day) units — the
    units are near-identical simulations, so wall-per-unit is the right
    rate.  Units replayed from a checkpoint (``restored``) complete in
    ~zero wall time and would wreck that rate on a ``--resume`` run, so
    only freshly simulated units contribute to it (they still count as
    progress).  Single sessions extrapolate from sim-time progress
    against the session's known end.
    """
    if campaign is not None and units_done:
        total = campaign.get("total_units")
        done = len(units_done)
        if not total or done <= 0 or done >= total:
            return None
        fresh = [r for r in units_done if not r.get("restored")]
        if not fresh:
            return None  # only checkpoint replays so far: no rate signal
        last_wall = fresh[-1].get("wall_seconds")
        if last_wall is None:
            return None
        first_index = units_done.index(fresh[0])
        if first_index > 0:
            base_wall = units_done[first_index - 1].get(
                "wall_seconds") or 0.0
        else:
            base_wall = campaign.get("wall_seconds", 0.0)
        per_unit = (last_wall - base_wall) / len(fresh)
        return round(max(0.0, per_unit * (total - done)), 1)
    if beat is not None:
        t_sim = beat.get("t")
        sim_end = beat.get("sim_end")
        wall = beat.get("wall_seconds")
        if t_sim and sim_end and wall and t_sim > 0 and sim_end > t_sim:
            rate = t_sim / wall  # sim seconds per wall second
            if rate > 0:
                return round((sim_end - t_sim) / rate, 1)
    return None


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def _fmt_bytes(value: Optional[float]) -> str:
    if not value:
        return "?"
    return f"{value / (1024 * 1024):.0f} MiB"


def _fmt_duration(seconds: Optional[float]) -> str:
    if seconds is None:
        return "?"
    seconds = int(round(seconds))
    if seconds < 60:
        return f"{seconds}s"
    minutes, secs = divmod(seconds, 60)
    if minutes < 60:
        return f"{minutes}m{secs:02d}s"
    hours, minutes = divmod(minutes, 60)
    return f"{hours}h{minutes:02d}m"


def render_status(summary: dict, source: str = "") -> str:
    """Human-readable one-shot status report (``repro status``)."""
    if summary.get("state") == "empty":
        return f"{source or 'progress stream'}: no records yet"
    head = [f"state={summary['state']}"]
    for key in ("experiment", "scale", "seed", "jobs"):
        if key in summary:
            head.append(f"{key}={summary[key]}")
    lines = []
    if source:
        lines.append(f"run: {source}")
    lines.append("  " + " ".join(head))

    elapsed = summary.get("elapsed_wall_seconds")
    clock = [f"elapsed {_fmt_duration(elapsed)}"]
    age = summary.get("last_record_age_seconds")
    if age is not None:
        clock.append(f"last record {age:.1f}s ago")
    if summary.get("eta_seconds") is not None:
        clock.append(f"ETA ~{_fmt_duration(summary['eta_seconds'])}")
    lines.append("  " + " · ".join(clock))

    if summary.get("sim_time") is not None:
        sim = f"sim t={summary['sim_time']:.0f}s"
        if summary.get("sim_end"):
            pct = 100.0 * summary["sim_time"] / summary["sim_end"]
            sim += f" / {summary['sim_end']:.0f}s ({pct:.0f}%)"
        lines.append("  " + sim)

    engine = []
    if summary.get("events_executed") is not None:
        engine.append(f"events {summary['events_executed']:,}")
    if summary.get("events_per_sec"):
        engine.append(f"{summary['events_per_sec'] / 1000.0:.1f}k ev/s")
    rss = summary.get("peak_rss_bytes") or summary.get("rss_bytes")
    if rss:
        engine.append(f"RSS {_fmt_bytes(rss)}")
    if engine:
        lines.append("  " + " · ".join(engine))

    swarm = []
    if summary.get("viewers") is not None:
        swarm.append(f"viewers {summary['viewers']}")
    if summary.get("peers_by_isp"):
        peers = " ".join(f"{isp}={count}" for isp, count
                         in sorted(summary["peers_by_isp"].items()))
        swarm.append(f"peers {peers}")
    faults = summary.get("faults_active")
    swarm.append(f"faults {'none' if not faults else faults}")
    if swarm:
        lines.append("  " + " · ".join(swarm))

    flows = summary.get("flows")
    if flows:
        traffic = []
        if flows.get("intra_share") is not None:
            traffic.append(f"intra {100.0 * flows['intra_share']:.1f}%")
        if flows.get("transit_bytes") is not None:
            traffic.append(f"transit {flows['transit_bytes']:,} B")
        if flows.get("transit_bps") is not None:
            traffic.append(
                f"{flows['transit_bps'] / 1000.0:.1f} kbit/s transit")
        if traffic:
            lines.append("  traffic " + " · ".join(traffic))

    campaign = summary.get("campaign")
    if campaign:
        done, total = campaign.get("units_done"), campaign.get("units_total")
        line = f"campaign {done}/{total} day-programs complete"
        last = campaign.get("last_day")
        if last and last.get("locality_by_isp"):
            locality = " ".join(
                f"{isp}={value:.1f}%" for isp, value
                in sorted(last["locality_by_isp"].items()))
            line += (f" · day {last.get('day')} ({last.get('popularity')}) "
                     f"{locality}")
        lines.append("  " + line)

    footer = summary.get("run_summary")
    if footer:
        detail = " ".join(f"{key}={value}" for key, value
                          in sorted(footer.items()) if key != "kind")
        lines.append(f"  summary: {detail}")
    return "\n".join(lines)
