"""Metrics export: JSONL and CSV dumps, plus round-trip parsing.

One metric series becomes one record.  The record order is the
registry's deterministic iteration order, so two runs with the same seed
produce byte-identical dumps — *except* for wall-clock profiler series
(names containing ``wall``), which :func:`strip_wall_metrics` removes
before any such comparison.
"""

from __future__ import annotations

import csv
import json
from typing import IO, List, Union

from .jsonl import read_jsonl
from .metrics import MetricsRegistry

#: Metric-name fragment marking non-deterministic (wall-clock) series.
WALL_MARKER = "wall"

CSV_FIELDS = ("name", "type", "tags", "value", "count", "sum",
              "bounds", "bucket_counts")


def metrics_to_records(registry: MetricsRegistry) -> List[dict]:
    """All series of ``registry`` as plain dicts, deterministic order."""
    return registry.snapshot()


def strip_wall_metrics(records: List[dict]) -> List[dict]:
    """Drop wall-clock series, keeping only seed-deterministic ones."""
    return [r for r in records if WALL_MARKER not in r["name"]]


def _open_for_write(path_or_file: Union[str, IO[str]]):
    if isinstance(path_or_file, str):
        return open(path_or_file, "w", encoding="utf-8", newline=""), True
    return path_or_file, False


def write_metrics_jsonl(registry: MetricsRegistry,
                        path_or_file: Union[str, IO[str]]) -> int:
    """Dump every series as one JSON object per line; returns the count."""
    handle, owns = _open_for_write(path_or_file)
    try:
        records = metrics_to_records(registry)
        for record in records:
            handle.write(json.dumps(record, separators=(",", ":"),
                                    sort_keys=True) + "\n")
        return len(records)
    finally:
        handle.flush()
        if owns:
            handle.close()


#: Parse a JSONL metrics dump (path or open text file) into record dicts.
read_metrics_jsonl = read_jsonl


def write_metrics_csv(registry: MetricsRegistry,
                      path_or_file: Union[str, IO[str]]) -> int:
    """Dump every series as CSV rows (nested fields JSON-encoded)."""
    handle, owns = _open_for_write(path_or_file)
    try:
        writer = csv.DictWriter(handle, fieldnames=CSV_FIELDS)
        writer.writeheader()
        records = metrics_to_records(registry)
        for record in records:
            row = dict(record)
            row["tags"] = json.dumps(row.get("tags", {}), sort_keys=True)
            for key in ("bounds", "bucket_counts"):
                if key in row:
                    row[key] = json.dumps(row[key])
            writer.writerow(row)
        return len(records)
    finally:
        handle.flush()
        if owns:
            handle.close()


def read_metrics_csv(path_or_file: Union[str, IO[str]]) -> List[dict]:
    """Parse a CSV metrics dump back into record dicts."""
    if isinstance(path_or_file, str):
        handle = open(path_or_file, "r", encoding="utf-8", newline="")
        owns = True
    else:
        handle, owns = path_or_file, False
    try:
        records = []
        for row in csv.DictReader(handle):
            record = {"name": row["name"], "type": row["type"],
                      "tags": json.loads(row["tags"] or "{}")}
            if row["type"] == "histogram":
                record["bounds"] = json.loads(row["bounds"])
                record["bucket_counts"] = json.loads(row["bucket_counts"])
                record["count"] = int(row["count"])
                record["sum"] = float(row["sum"])
            else:
                value = float(row["value"])
                record["value"] = int(value) if value.is_integer() else value
            records.append(record)
        return records
    finally:
        if owns:
            handle.close()
