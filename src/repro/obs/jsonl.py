"""The JSON codec shared by every observability artifact.

:func:`encode_record` is the line encoder of the JSONL sinks (spans,
trace records, progress records): exactly ``json.dumps(record,
default=str, separators=(",", ":"))``, with the encoder built once
instead of on every call, so the bytes are the same.

:func:`shared_decoder` is what every artifact reader parses through.
A span file repeats a few dozen keys and string values across tens of
thousands of records, and ``json.loads`` gives each record private
copies of them.  The decoder keeps one table for the length of one
read, and every dict it builds, nested ones included, takes its keys
and string values from it.  The records stay plain dicts equal to what
``json.loads`` returns; strings inside arrays are left as decoded.
:func:`read_jsonl` is the strict reader behind ``read_spans_jsonl``,
``read_trace_jsonl`` and ``read_metrics_jsonl``.  Every JSONL reader
decodes one line at a time and reports a malformed one with
:func:`line_error`, so the message names the line of the file.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from typing import IO, Callable, Iterator, List, Union

#: A path or an open text file.
PathOrFile = Union[str, "os.PathLike[str]", IO[str]]

#: One record -> its compact JSON line (no newline); non-JSON values
#: are written as ``str(value)``.
encode_record: Callable[[object], str] = json.JSONEncoder(
    default=str, separators=(",", ":")).encode


def shared_decoder() -> Callable[[str], object]:
    """A ``json.loads`` for one read whose dicts share strings.

    Make one per read: the table lives as long as the returned
    callable, so nothing is kept between reads.
    """
    table: dict = {}
    share = table.setdefault

    def build(pairs):
        return {share(key, key):
                share(value, value) if type(value) is str else value
                for key, value in pairs}

    return json.JSONDecoder(object_pairs_hook=build).decode


@contextmanager
def open_text(path_or_file: PathOrFile) -> Iterator[IO[str]]:
    """A path opened for UTF-8 reading (closed on exit), or the
    caller's open file as given (left open)."""
    if isinstance(path_or_file, (str, os.PathLike)):
        with open(path_or_file, "r", encoding="utf-8") as handle:
            yield handle
    else:
        yield path_or_file


def line_error(lineno: int, line: str, exc: ValueError) -> ValueError:
    """The error for line ``lineno`` (1-based) of a JSONL file.

    ``exc`` is what decoding the stripped ``line`` alone raised.  A
    ``JSONDecodeError`` there always says "line 1", so its position is
    restated as a column of the file's line:
    ``line 2: Expecting value (column 1)``.
    """
    if isinstance(exc, json.JSONDecodeError):
        column = exc.pos + 1 + len(line) - len(line.lstrip())
        return ValueError(f"line {lineno}: {exc.msg} (column {column})")
    return ValueError(f"line {lineno}: {exc}")


def not_object_error(lineno: int, text: str) -> ValueError:
    """The error for line ``lineno`` that parsed to a non-object
    ``text``: every record of every artifact is a JSON object."""
    return ValueError(f"line {lineno}: not a JSON object: {text[:80]!r}")


def read_jsonl(path_or_file: PathOrFile) -> List[dict]:
    """Parse a JSONL artifact into record dicts.

    Takes a path or an open text file (read from its current
    position).  Blank lines are skipped; any malformed line raises
    ``ValueError`` naming its line (see :func:`line_error`), and so
    does a line that parses but is not a JSON object.
    """
    decode = shared_decoder()
    records = []
    with open_text(path_or_file) as handle:
        for lineno, line in enumerate(handle, 1):
            text = line.strip()
            if text:
                try:
                    record = decode(text)
                except ValueError as exc:
                    raise line_error(lineno, line, exc) from None
                if not isinstance(record, dict):
                    raise not_object_error(lineno, text)
                records.append(record)
    return records
