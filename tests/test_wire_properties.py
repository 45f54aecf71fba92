"""Property tests for the wire formats: frames, CRC lines, protocol
lines and admission snapshots.

Each format crosses a trust boundary (a worker pipe, a disk that may
tear or rot, a socket from an untrusted client, a manifest written by
an earlier daemon), so each gets a generative test of its round trip
and of what it does with damaged input, not only hand-picked examples.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.artifacts import MessageRecord
from repro.core.export import (
    CRC_SEPARATOR,
    record_from_dict,
    record_to_line,
    record_to_wire,
)
from repro.runner.checkpoint import parse_record_line
from repro.runner.pool import pack_frame, unpack_frame
from repro.serve.admission import AdmissionConfig, AdmissionController
from repro.serve.protocol import ProtocolError, decode_line, encode_line

_ENTRIES = st.lists(
    st.tuples(st.integers(0, 2**32 - 1), st.binary(max_size=64)), max_size=8
)


# ----------------------------------------------------------------------
# Worker frames
# ----------------------------------------------------------------------
@given(_ENTRIES)
def test_frame_roundtrip(entries):
    assert unpack_frame(pack_frame(entries)) == entries


@given(_ENTRIES)
def test_frame_prefix_is_rejected_or_whole(entries):
    blob = pack_frame(entries)
    for cut in range(len(blob)):
        try:
            decoded = unpack_frame(blob[:cut])
        except ValueError:
            continue
        assert decoded == entries[: len(decoded)]


@pytest.mark.parametrize("cut", [3, 8 + 2])
def test_truncated_frame_raises_value_error(cut):
    # 3 cuts the first entry header; 8 + 2 cuts its 4-byte payload.
    with pytest.raises(ValueError, match="truncated"):
        unpack_frame(pack_frame([(1, b"abcd")])[:cut])


# ----------------------------------------------------------------------
# Checkpoint CRC lines
# ----------------------------------------------------------------------
_TEXT = st.one_of(
    st.text(max_size=24),
    st.builds(lambda a, b: a + CRC_SEPARATOR + b, st.text(max_size=8), st.text(max_size=8)),
)

_RECORDS = st.builds(
    MessageRecord,
    message_index=st.integers(0, 2**40),
    delivered_at=st.floats(allow_nan=False, allow_infinity=False),
    recipient=_TEXT,
    sender_domain=_TEXT,
    category=_TEXT,
    spear_brand=st.none() | _TEXT,
    local_login_form=st.booleans(),
    noise_padded=st.booleans(),
    stage_status=st.dictionaries(_TEXT, st.sampled_from(["ok", "failed", "skipped"]), max_size=3),
    stage_errors=st.dictionaries(_TEXT, _TEXT, max_size=2),
    benign_url_skips=st.lists(_TEXT, max_size=3).map(tuple),
)


@settings(max_examples=60)
@given(_RECORDS)
def test_record_wire_roundtrips_through_crc_parser(record):
    wire = record_to_wire(record)
    data, issue = parse_record_line(wire.decode("utf-8"))
    assert issue is None
    assert data == json.loads(record_to_line(record))
    assert record_to_wire(record_from_dict(data)) == wire


@settings(max_examples=150)
@given(_RECORDS, st.data())
def test_single_byte_change_is_a_defect(record, data):
    wire = record_to_wire(record)
    position = data.draw(st.integers(0, len(wire) - 1))
    byte = data.draw(st.integers(0, 255).filter(lambda value: value != wire[position]))
    damaged = wire[:position] + bytes([byte]) + wire[position + 1 :]
    try:
        line = damaged.decode("utf-8")
    except UnicodeDecodeError:
        return  # the store reports this line as 'bad-encoding'
    parsed, issue = parse_record_line(line)
    assert parsed is None
    assert issue in ("crc-mismatch", "bad-json")


def test_unconvertible_v1_line_is_bad_json():
    # A v1 (suffix-free) line whose number exceeds int()'s digit limit
    # raises a bare ValueError inside json.loads.
    assert parse_record_line("1" * 5000) == (None, "bad-json")


# ----------------------------------------------------------------------
# Serve protocol lines
# ----------------------------------------------------------------------
_JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=12),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)


@given(st.binary(max_size=200))
@example(b"1" * 5000)
@example(b'{"op": ' + b"9" * 5000 + b"}")
@example(b"[" * 5000 + b"]" * 5000)
@example(b'{"op": "ping"}')
def test_decode_line_returns_a_message_or_raises_protocol_error(line):
    try:
        payload = decode_line(line)
    except ProtocolError:
        return
    assert isinstance(payload, dict)
    assert isinstance(payload["op"], str)


@given(st.dictionaries(st.text(max_size=8), _JSON, max_size=5), st.text(max_size=12))
def test_protocol_line_roundtrip(payload, op):
    payload = {**payload, "op": op}
    assert decode_line(encode_line(payload).rstrip(b"\n")) == payload


# ----------------------------------------------------------------------
# Admission snapshots
# ----------------------------------------------------------------------
_ADMISSION_CONFIGS = st.builds(
    AdmissionConfig,
    cost=st.integers(1, 100),
    global_rate=st.none() | st.integers(0, 150),
    global_burst=st.none() | st.integers(0, 1000),
    reporter_rate=st.none() | st.integers(0, 150),
    reporter_burst=st.none() | st.integers(0, 500),
)


@given(
    _ADMISSION_CONFIGS,
    st.lists(st.sampled_from(["acme", "globex", "initech", "umbrella"]), max_size=120),
    st.data(),
)
def test_admission_snapshot_restore_continues_identically(config, arrivals, data):
    split = data.draw(st.integers(0, len(arrivals)))
    reference = AdmissionController(config)
    expected = [reference.admit(reporter) for reporter in arrivals]

    interrupted = AdmissionController(config)
    for reporter in arrivals[:split]:
        interrupted.admit(reporter)
    restored = AdmissionController(config)
    restored.restore(json.loads(json.dumps(interrupted.snapshot())))
    assert [restored.admit(reporter) for reporter in arrivals[split:]] == expected[split:]
