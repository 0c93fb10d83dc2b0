"""Structured sim-event tracing.

A *trace record* is one timestamped, levelled, named event with arbitrary
flat fields — the simulator's analogue of a structured log line::

    sink.emit(sim.now, WARNING, "playback_resync", peer="10.0.1.7",
              isp="ChinaTelecom", live_chunk=840, behind=35)

The trace carries only events no span or metric carries; transactions
and intervals (requests, stalls, tail drops, fault windows) are spans.

Sinks decide what happens to records:

* :class:`NullSink` — drops everything; ``enabled_for`` is always False
  so call sites can skip building fields entirely.  This is the default.
* :class:`JsonlSink` — streams records to a JSONL file as they happen
  (no buffering of a 28-day campaign in memory).
* :class:`RingSink` — keeps the last N records in memory (tests, crash
  forensics).
* :class:`LoggingSink` — bridges records into stdlib ``logging`` under
  the ``repro`` logger, so existing log tooling picks them up.
* :class:`TeeSink` — fans one record out to several sinks.

Severity levels reuse the stdlib numeric scale so bridging is a no-op.
"""

from __future__ import annotations

import logging
from collections import deque
from typing import IO, Deque, List, Optional, Sequence, Union

from .jsonl import encode_record, read_jsonl

DEBUG = logging.DEBUG      # 10
INFO = logging.INFO        # 20
WARNING = logging.WARNING  # 30
ERROR = logging.ERROR      # 40

LEVEL_NAMES = {DEBUG: "debug", INFO: "info",
               WARNING: "warning", ERROR: "error"}
_NAME_LEVELS = {name: level for level, name in LEVEL_NAMES.items()}


def level_from_name(name: str) -> int:
    """Map ``"debug" | "info" | "warning" | "error"`` to its level."""
    try:
        return _NAME_LEVELS[name.lower()]
    except KeyError:
        raise ValueError(f"unknown trace level {name!r}; expected one of "
                         f"{sorted(_NAME_LEVELS)}") from None


class TraceSink:
    """Base sink: level filtering plus the emit interface."""

    def __init__(self, level: int = DEBUG) -> None:
        self.level = level

    def enabled_for(self, level: int) -> bool:
        """Whether a record at ``level`` would be kept — check this
        before assembling expensive fields."""
        return level >= self.level

    def emit(self, time: float, level: int, event: str, **fields) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Flush and release resources; emitting afterwards is an error."""

    def __enter__(self) -> "TraceSink":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class NullSink(TraceSink):
    """Swallows everything; the zero-overhead default."""

    def __init__(self) -> None:
        super().__init__(level=ERROR + 1)

    def enabled_for(self, level: int) -> bool:
        return False

    def emit(self, time: float, level: int, event: str, **fields) -> None:
        pass


NULL_SINK = NullSink()


class JsonlSink(TraceSink):
    """Streams one JSON object per record to a file or file object."""

    def __init__(self, path_or_file: Union[str, IO[str]],
                 level: int = INFO) -> None:
        super().__init__(level)
        if isinstance(path_or_file, str):
            self._file: IO[str] = open(path_or_file, "w", encoding="utf-8")
            self._owns_file = True
        else:
            self._file = path_or_file
            self._owns_file = False
        self.records_written = 0

    def emit(self, time: float, level: int, event: str, **fields) -> None:
        if level < self.level:
            return
        record = {"t": time, "level": LEVEL_NAMES.get(level, str(level)),
                  "event": event}
        record.update(fields)
        self._file.write(encode_record(record) + "\n")
        self.records_written += 1

    def close(self) -> None:
        self._file.flush()
        if self._owns_file:
            self._file.close()


class RingSink(TraceSink):
    """Keeps the most recent ``capacity`` records in memory."""

    def __init__(self, capacity: int = 4096, level: int = DEBUG) -> None:
        super().__init__(level)
        self._ring: Deque[dict] = deque(maxlen=capacity)

    def emit(self, time: float, level: int, event: str, **fields) -> None:
        if level < self.level:
            return
        record = {"t": time, "level": LEVEL_NAMES.get(level, str(level)),
                  "event": event}
        record.update(fields)
        self._ring.append(record)

    @property
    def records(self) -> List[dict]:
        return list(self._ring)

    def events(self, name: Optional[str] = None) -> List[dict]:
        if name is None:
            return self.records
        return [r for r in self._ring if r["event"] == name]


class LoggingSink(TraceSink):
    """Bridges trace records into stdlib ``logging``."""

    def __init__(self, logger: Optional[logging.Logger] = None,
                 level: int = INFO) -> None:
        super().__init__(level)
        self.logger = logger if logger is not None \
            else logging.getLogger("repro")

    def emit(self, time: float, level: int, event: str, **fields) -> None:
        if level < self.level or not self.logger.isEnabledFor(level):
            return
        detail = " ".join(f"{k}={v}" for k, v in fields.items())
        self.logger.log(level, "t=%.3f %s %s", time, event, detail)


class TeeSink(TraceSink):
    """Fans each record out to every child sink."""

    def __init__(self, sinks: Sequence[TraceSink]) -> None:
        if not sinks:
            raise ValueError("TeeSink needs at least one child sink")
        super().__init__(min(s.level for s in sinks))
        self.sinks = list(sinks)

    def enabled_for(self, level: int) -> bool:
        return any(s.enabled_for(level) for s in self.sinks)

    def emit(self, time: float, level: int, event: str, **fields) -> None:
        for sink in self.sinks:
            sink.emit(time, level, event, **fields)

    def close(self) -> None:
        for sink in self.sinks:
            sink.close()


#: Parse a JSONL trace file (path or open text file) into record dicts.
read_trace_jsonl = read_jsonl
