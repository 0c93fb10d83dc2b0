"""The shared JSON codec behind every observability artifact reader."""

import io
import json
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import (read_chrome_trace, read_flows, read_metrics_jsonl,
                       read_progress, read_spans_jsonl, read_trace_jsonl)
from repro.obs.jsonl import encode_record, read_jsonl, shared_decoder

#: Every JSONL artifact reader: the strict one and the torn-tail
#: tolerant one, under each public name.
JSONL_READERS = [read_spans_jsonl, read_trace_jsonl, read_metrics_jsonl,
                 read_progress, read_flows]
#: The same readers by public name, for test ids.
READER_NAMES = ["read_spans_jsonl", "read_trace_jsonl",
                "read_metrics_jsonl", "read_progress", "read_flows"]

json_values = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(),
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.text(), children, max_size=4)),
    max_leaves=12)
records = st.lists(st.dictionaries(st.text(), json_values, max_size=6),
                   max_size=6)


def _read_both_ways(reader, text):
    """``reader`` applied to a file holding ``text``, by path and as an
    open file; both results must agree."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "artifact")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        by_path = reader(path)
        with open(path, "r", encoding="utf-8") as handle:
            by_file = reader(handle)
    assert by_path == by_file
    return by_path


class TestReadersEqualJsonLoads:
    def test_strict_readers_are_one_function(self):
        assert read_spans_jsonl is read_jsonl
        assert read_trace_jsonl is read_jsonl
        assert read_metrics_jsonl is read_jsonl

    @settings(max_examples=60, deadline=None)
    @given(records=records, ascii_only=st.booleans())
    def test_jsonl_readers(self, records, ascii_only):
        lines = [json.dumps(record, ensure_ascii=ascii_only)
                 for record in records]
        text = "".join(line + "\n" for line in lines)
        expected = [json.loads(line) for line in lines]
        for reader in JSONL_READERS:
            assert _read_both_ways(reader, text) == expected, reader

    @settings(max_examples=60, deadline=None)
    @given(events=records, wrapped=st.booleans(), ascii_only=st.booleans())
    def test_chrome_reader(self, events, wrapped, ascii_only):
        document = {"traceEvents": events, "displayTimeUnit": "ms"} \
            if wrapped else events
        text = json.dumps(document, ensure_ascii=ascii_only)
        expected = json.loads(text)
        if wrapped:
            expected = expected["traceEvents"]
        assert _read_both_ways(read_chrome_trace, text) == expected


class TestSharedStrings:
    RECORDS = [{"category": "peerlist", "args": {"status": "timeout"}},
               {"category": "peerlist", "args": {"status": "timeout"}}]

    @staticmethod
    def _assert_shared(first, second):
        assert first == second
        assert list(first)[0] is list(second)[0]
        assert first["category"] is second["category"]
        assert list(first["args"])[0] is list(second["args"])[0]
        assert first["args"]["status"] is second["args"]["status"]

    @pytest.mark.parametrize("reader", JSONL_READERS)
    def test_jsonl_records_share_keys_and_values(self, reader):
        text = "".join(json.dumps(r) + "\n" for r in self.RECORDS)
        self._assert_shared(*reader(io.StringIO(text)))

    def test_chrome_events_share_keys_and_values(self):
        text = json.dumps({"traceEvents": self.RECORDS})
        self._assert_shared(*read_chrome_trace(io.StringIO(text)))

    def test_reads_do_not_share_with_each_other(self):
        text = json.dumps(self.RECORDS[0]) + "\n"
        (first,) = read_jsonl(io.StringIO(text))
        (second,) = read_jsonl(io.StringIO(text))
        assert first["category"] is not second["category"]

    def test_decoder_builds_plain_dicts_like_json_loads(self):
        decode = shared_decoder()
        text = '{"a":1,"b":[{"c":"dd"}],"a":2}'
        record = decode(text)
        assert type(record) is dict and type(record["b"][0]) is dict
        assert record == json.loads(text)
        assert list(record) == list(json.loads(text))


class TestMalformedInput:
    @pytest.mark.parametrize("text", ['{"a":1}\nnot json\n{"b":2}\n',
                                      '{"a":1}\n{"b":'])
    def test_strict_reader_raises_on_any_malformed_line(self, text):
        with pytest.raises(ValueError):
            read_jsonl(io.StringIO(text))

    @pytest.mark.parametrize("text,message", [
        ('{"a":1}\nnot json\n{"b":2}\n',
         "line 2: Expecting value (column 1)"),
        # Blank lines count toward the line, indent toward the column.
        ('{"a":1}\n\n  {"b":}\n{"c":3}\n',
         "line 3: Expecting value (column 8)"),
        # Valid JSON is not enough: every record is an object.
        ('{"a":1}\n42\n{"b":2}\n',
         "line 2: not a JSON object: '42'"),
    ], ids=["bad-line", "blank-and-indent", "not-an-object"])
    @pytest.mark.parametrize("reader", JSONL_READERS, ids=READER_NAMES)
    def test_malformed_line_error_names_its_line(self, reader, text,
                                                 message):
        with pytest.raises(ValueError) as info:
            reader(io.StringIO(text))
        assert str(info.value) == message

    @pytest.mark.parametrize("reader", JSONL_READERS[:3],
                             ids=READER_NAMES[:3])
    def test_strict_readers_name_a_torn_last_line(self, reader):
        # The progress and flows readers drop this line as a torn tail.
        with pytest.raises(ValueError, match="^line 2: "):
            reader(io.StringIO('{"a":1}\n{"b":'))

    @pytest.mark.parametrize("text", ['{"traceEvents":[', "[1,2"])
    def test_chrome_reader_raises_on_a_torn_document(self, text):
        with pytest.raises(ValueError):
            read_chrome_trace(io.StringIO(text))


class TestEncodeRecord:
    @settings(max_examples=60, deadline=None)
    @given(record=st.dictionaries(st.text(), json_values, max_size=6))
    def test_same_bytes_as_json_dumps(self, record):
        record["odd"] = object  # not JSON: written as str(value)
        assert encode_record(record) == json.dumps(
            record, default=str, separators=(",", ":"))
