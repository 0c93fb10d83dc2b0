"""Causal transaction spans.

The paper's methodology is reconstructing *transactions* from raw
packets — peer-list requests matched to replies, data requests matched
to sub-piece replies — and judging locality from what those
transactions reveal.  A :class:`Span` is the simulator-side native form
of the same idea: a named, categorised interval of simulated time with
a causal parent, so "why was this chunk fetched from a Foreign peer?"
is one parent-chain walk instead of a JSONL hand-join.

The span model is deliberately flat and deterministic:

* ``trace_id`` groups one causal tree (one peer's session, one
  campaign job); ``span_id``/``parent_id`` encode the tree edges.
  IDs are small integers allocated by the sink in call order, which is
  deterministic because the simulator is.
* ``start``/``end`` are simulated seconds (wall-clock never enters a
  span, so span files from two runs with the same seed are
  byte-identical — except the ``parallel`` category, whose durations
  are honest wall-clock measurements).
* ``status`` records how the transaction resolved: ``ok``, ``miss``,
  ``timeout``, ``rejected``, ``unanswered``, ...
* attributes are flat key → scalar, like trace-record fields.

Sinks mirror the :class:`repro.obs.trace.TraceSink` contract:

* :class:`NullSpanSink` — the shared zero-overhead default.  Its
  ``enabled`` is ``False`` and every call site guards on that, so an
  un-instrumented run allocates no span objects at all.
* :class:`MemorySpanSink` — collects finished spans in a list (tests,
  ``repro report``).
* :class:`JsonlSpanSink` — streams each finished span as one JSON line.
* :class:`ChromeTraceSink` — streams Chrome trace-event format JSON so
  a run opens directly in Perfetto (https://ui.perfetto.dev) or
  ``chrome://tracing``.
"""

from __future__ import annotations

from typing import IO, Dict, List, Optional, Union

from .jsonl import (PathOrFile, encode_record, open_text, read_jsonl,
                    shared_decoder)

#: Span status values used by the instrumented chains.  Free-form
#: strings are allowed; these are the conventional ones.
STATUS_OK = "ok"
STATUS_ERROR = "error"


class Span:
    """One causally-linked interval of simulated time."""

    __slots__ = ("sink", "trace_id", "span_id", "parent_id", "name",
                 "category", "actor", "start", "end", "status", "attrs")

    def __init__(self, sink: "SpanSink", trace_id: int, span_id: int,
                 parent_id: Optional[int], name: str, category: str,
                 actor: Optional[str], start: float,
                 attrs: Optional[dict] = None) -> None:
        self.sink = sink
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.category = category
        self.actor = actor
        self.start = start
        self.end: Optional[float] = None
        self.status: Optional[str] = None
        self.attrs: Dict[str, object] = dict(attrs) if attrs else {}

    @property
    def finished(self) -> bool:
        return self.end is not None

    def annotate(self, **attrs) -> "Span":
        """Attach flat key → scalar attributes; last write wins."""
        self.attrs.update(attrs)
        return self

    def finish(self, time: float, status: str = STATUS_OK,
               **attrs) -> "Span":
        """Close the span and hand it to the sink (idempotent)."""
        if self.end is not None:
            return self
        if attrs:
            self.attrs.update(attrs)
        self.end = time
        self.status = status
        self.sink._record(self)
        return self

    def to_record(self) -> dict:
        """The span as a flat dict (the JSONL line format)."""
        record = {"trace": self.trace_id, "span": self.span_id,
                  "parent": self.parent_id, "name": self.name,
                  "cat": self.category, "start": self.start,
                  "end": self.end, "status": self.status}
        if self.actor is not None:
            record["actor"] = self.actor
        record.update(self.attrs)
        return record

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = f"status={self.status}" if self.finished else "open"
        return (f"<Span {self.category}/{self.name} id={self.span_id} "
                f"trace={self.trace_id} {state}>")


class SpanSink:
    """Base sink: ID allocation plus the start/record interface.

    ``enabled`` is the hot-path guard — call sites skip all span work
    (including building attribute dicts) when it is ``False``.
    """

    enabled = True

    def __init__(self) -> None:
        self._next_id = 1
        self.spans_recorded = 0

    # ------------------------------------------------------------------
    # Span creation
    # ------------------------------------------------------------------
    def start_span(self, name: str, category: str, time: float,
                   parent: Optional[Span] = None,
                   actor: Optional[str] = None, **attrs) -> Span:
        """Open a span.  With ``parent`` the span joins that trace;
        otherwise it roots a fresh trace."""
        span_id = self._next_id
        self._next_id += 1
        if parent is not None:
            trace_id = parent.trace_id
            parent_id = parent.span_id
            if actor is None:
                actor = parent.actor
        else:
            trace_id = span_id
            parent_id = None
        return Span(self, trace_id, span_id, parent_id, name, category,
                    actor, time, attrs)

    def instant(self, name: str, category: str, time: float,
                parent: Optional[Span] = None,
                actor: Optional[str] = None, **attrs) -> Span:
        """A zero-duration marker span, recorded immediately."""
        span = self.start_span(name, category, time, parent=parent,
                               actor=actor, **attrs)
        return span.finish(time)

    # ------------------------------------------------------------------
    # Recording (called by Span.finish)
    # ------------------------------------------------------------------
    def _record(self, span: Span) -> None:
        self.spans_recorded += 1
        self._write(span)

    def _write(self, span: Span) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Flush and release resources; finishing spans afterwards is
        an error for file-backed sinks."""

    def __enter__(self) -> "SpanSink":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class NullSpanSink(SpanSink):
    """Swallows everything; the shared zero-overhead default."""

    enabled = False

    def start_span(self, name: str, category: str, time: float,
                   parent: Optional[Span] = None,
                   actor: Optional[str] = None, **attrs) -> Span:
        return NULL_SPAN

    def instant(self, name: str, category: str, time: float,
                parent: Optional[Span] = None,
                actor: Optional[str] = None, **attrs) -> Span:
        return NULL_SPAN

    def _record(self, span: Span) -> None:
        pass

    def _write(self, span: Span) -> None:
        pass


NULL_SINK = NullSpanSink()
NULL_SPAN_SINK = NULL_SINK  # canonical import name

#: Shared inert span handed out by the null sink; finishing or
#: annotating it is a no-op, so stray references stay harmless.
NULL_SPAN = Span(NULL_SINK, 0, 0, None, "null", "null", None, 0.0)
NULL_SPAN.end = 0.0
NULL_SPAN.status = STATUS_OK


class MemorySpanSink(SpanSink):
    """Keeps every finished span in memory (tests, ``repro report``)."""

    def __init__(self) -> None:
        super().__init__()
        self.spans: List[Span] = []

    def _write(self, span: Span) -> None:
        self.spans.append(span)

    def by_category(self, category: str) -> List[Span]:
        return [s for s in self.spans if s.category == category]

    def by_name(self, name: str) -> List[Span]:
        return [s for s in self.spans if s.name == name]

    def categories(self) -> List[str]:
        return sorted({s.category for s in self.spans})


class JsonlSpanSink(SpanSink):
    """Streams one JSON object per finished span to a file."""

    def __init__(self, path_or_file: Union[str, IO[str]]) -> None:
        super().__init__()
        if isinstance(path_or_file, str):
            self._file: IO[str] = open(path_or_file, "w", encoding="utf-8")
            self._owns_file = True
        else:
            self._file = path_or_file
            self._owns_file = False

    def _write(self, span: Span) -> None:
        self._file.write(encode_record(span.to_record()) + "\n")

    def close(self) -> None:
        self._file.flush()
        if self._owns_file:
            self._file.close()


class ChromeTraceSink(SpanSink):
    """Streams spans to a file as Chrome trace-event JSON.

    The output opens directly in Perfetto (https://ui.perfetto.dev,
    "Open trace file") or ``chrome://tracing``.  Mapping:

    * one *thread* per span actor (peer address, component name); a
      thread-name metadata event, written just before the actor's
      first event, labels its track,
    * finished spans become complete (``"ph": "X"``) events with
      microsecond timestamps (simulated seconds × 1e6),
    * zero-duration spans become instant (``"ph": "i"``) events,
    * span attributes, status and causal IDs ride in ``args``.

    The document's head is written on open and each event as its span
    finishes, so the sink holds only its actor → thread map.  The tail
    is written by :meth:`close`, which the CLI's exit stack runs even
    after a crash, so the file is valid JSON either way.
    """

    DEFAULT_ACTOR = "(global)"

    def __init__(self, path_or_file: Union[str, IO[str]]) -> None:
        super().__init__()
        if isinstance(path_or_file, str):
            self._file: IO[str] = open(path_or_file, "w", encoding="utf-8")
            self._owns_file = True
        else:
            self._file = path_or_file
            self._owns_file = False
        self._tids: Dict[str, int] = {}
        self._separator = ""
        self._file.write('{"traceEvents":[')

    def _emit(self, event: dict) -> None:
        self._file.write(self._separator + encode_record(event))
        self._separator = ","

    def _tid(self, actor: Optional[str]) -> int:
        key = actor if actor is not None else self.DEFAULT_ACTOR
        tid = self._tids.get(key)
        if tid is None:
            tid = len(self._tids) + 1
            self._tids[key] = tid
            self._emit({"name": "thread_name", "ph": "M", "pid": 1,
                        "tid": tid, "args": {"name": key}})
        return tid

    def _write(self, span: Span) -> None:
        args = {"trace": span.trace_id, "span": span.span_id,
                "status": span.status}
        if span.parent_id is not None:
            args["parent"] = span.parent_id
        for key, value in span.attrs.items():
            args[key] = value if isinstance(value, (int, float, bool)) \
                else str(value)
        start_us = span.start * 1e6
        duration_us = (span.end - span.start) * 1e6
        event = {"name": span.name, "cat": span.category,
                 "ts": start_us, "pid": 1, "tid": self._tid(span.actor),
                 "args": args}
        if duration_us > 0:
            event["ph"] = "X"
            event["dur"] = duration_us
        else:
            event["ph"] = "i"
            event["s"] = "t"
        self._emit(event)

    def close(self) -> None:
        self._file.write('],"displayTimeUnit":"ms"}\n')
        self._file.flush()
        if self._owns_file:
            self._file.close()


# ----------------------------------------------------------------------
# Reading / validation helpers
# ----------------------------------------------------------------------
#: Parse a JSONL span file (path or open text file) into record dicts.
read_spans_jsonl = read_jsonl


def read_chrome_trace(path_or_file: PathOrFile) -> List[dict]:
    """Load a Chrome trace file and return its event list.

    Accepts both the object form (``{"traceEvents": [...]}`` — what
    :class:`ChromeTraceSink` writes) and the bare-array form.
    """
    with open_text(path_or_file) as handle:
        document = shared_decoder()(handle.read())
    if isinstance(document, dict):
        return document["traceEvents"]
    return document


#: Phases that mark span-shaped events in a Chrome trace.
_SPAN_PHASES = {"X", "i", "I"}


def validate_chrome_trace(events: List[dict]) -> List[str]:
    """Schema-check trace events; returns a list of problems (empty =
    valid).  Checks the invariants Perfetto/chrome://tracing rely on:
    every event has name/ph/pid/tid, timestamps are numbers, complete
    events carry a non-negative ``dur``."""
    problems = []
    for index, event in enumerate(events):
        where = f"event {index}"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        for field in ("name", "ph", "pid", "tid"):
            if field not in event:
                problems.append(f"{where}: missing {field!r}")
        phase = event.get("ph")
        if phase == "M":
            continue  # metadata events carry no timestamp
        if not isinstance(event.get("ts"), (int, float)):
            problems.append(f"{where}: non-numeric ts")
        if phase == "X":
            duration = event.get("dur")
            if not isinstance(duration, (int, float)) or duration < 0:
                problems.append(f"{where}: complete event with bad dur")
        elif phase not in _SPAN_PHASES:
            problems.append(f"{where}: unexpected phase {phase!r}")
        if "args" in event and not isinstance(event["args"], dict):
            problems.append(f"{where}: args is not an object")
    return problems


def span_categories(events: List[dict]) -> List[str]:
    """Distinct categories among span-shaped events of a Chrome trace."""
    return sorted({e.get("cat") for e in events
                   if e.get("ph") in _SPAN_PHASES and e.get("cat")})
