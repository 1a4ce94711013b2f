"""Frame encoding/scanning tests."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.wire import CorruptRecordError, FrameReader, frame, unframe


def test_frame_unframe_roundtrip():
    data = frame(b"payload")
    payload, end = unframe(data)
    assert payload == b"payload"
    assert end == len(data)


def test_unframe_truncated_header():
    payload, end = unframe(b"\x01\x02")
    assert payload is None
    assert end == 0


def test_unframe_truncated_body():
    data = frame(b"longpayload")[:-3]
    payload, end = unframe(data)
    assert payload is None


def test_unframe_corrupt_checksum_raises():
    """A *complete* frame with a flipped payload bit is corruption, not
    end-of-log: the durable prefix is supposed to be crash-proof."""
    data = bytearray(frame(b"payload"))
    data[-1] ^= 0xFF
    with pytest.raises(CorruptRecordError):
        unframe(bytes(data))


def test_unframe_corrupt_header_crc_raises():
    data = bytearray(frame(b"payload"))
    data[4] ^= 0x01  # flip a bit in the stored crc, payload intact
    with pytest.raises(CorruptRecordError):
        unframe(bytes(data))


def test_unframe_zero_copy_view():
    """Handed a memoryview, unframe returns a sub-view (no copy)."""
    blob = frame(b"zero-copy payload")
    view = memoryview(blob)
    payload, end = unframe(view)
    assert isinstance(payload, memoryview)
    assert payload == b"zero-copy payload"
    assert end == len(blob)


def test_reader_iterates_all_frames():
    blob = frame(b"one") + frame(b"two") + frame(b"three")
    frames = list(FrameReader(blob))
    assert [p for _, p in frames] == [b"one", b"two", b"three"]
    offsets = [o for o, _ in frames]
    assert offsets[0] == 0
    assert offsets == sorted(offsets)


def test_reader_stops_at_torn_tail():
    blob = frame(b"good") + frame(b"torn")[:-2]
    frames = list(FrameReader(blob))
    assert [p for _, p in frames] == [b"good"]


def test_reader_from_offset():
    first = frame(b"skip")
    blob = first + frame(b"read")
    frames = list(FrameReader(blob, start=len(first)))
    assert [p for _, p in frames] == [b"read"]


@given(st.lists(st.binary(max_size=100), max_size=30))
def test_reader_roundtrip_property(payloads):
    blob = b"".join(frame(p) for p in payloads)
    frames = list(FrameReader(blob))
    assert [p for _, p in frames] == payloads


@given(st.lists(st.binary(max_size=50), min_size=1, max_size=10), st.integers(1, 20))
def test_truncation_never_yields_garbage(payloads, cut):
    """Any truncation of a valid log yields only a prefix of the frames."""
    blob = b"".join(frame(p) for p in payloads)
    truncated = blob[: max(0, len(blob) - cut)]
    frames = [p for _, p in FrameReader(truncated)]
    assert frames == payloads[: len(frames)]
