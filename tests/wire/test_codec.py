"""Field-vocabulary round trips, including hypothesis property tests."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.wire.codec import (
    BOOL,
    BYTES,
    PADDING,
    TEXT,
    UINT,
    CodecError,
    code_table,
    decode_fields,
    encode_fields,
    mapping,
    optional,
    pair,
    repeated,
    sequence,
)


def roundtrip(field, value):
    """Write ``value``, read it back from bytes and from a view, and
    check the read consumed exactly what was written."""
    data = field.write(value)
    for buf in (data, memoryview(data)):
        back, pos = field.read(buf, 0)
        assert pos == len(data)
        assert back == value
    return data


def test_uint_roundtrip_basic():
    written = [roundtrip(UINT, v) for v in (0, 1, 127, 128, 300)]
    assert written == [b"\x00", b"\x01", b"\x7f", b"\x80\x01", b"\xac\x02"]


def test_uint_rejects_negative():
    with pytest.raises(ValueError):
        UINT.write(-1)


def test_text_and_raw_roundtrip():
    assert roundtrip(TEXT, "héllo") == b"\x06h\xc3\xa9llo"
    assert roundtrip(BYTES, b"\x00\xff") == b"\x02\x00\xff"


def test_decoded_bytes_are_real_bytes():
    value, _ = BYTES.read(memoryview(b"\x02\x00\xff"), 0)
    assert type(value) is bytes


def test_boolean_roundtrip():
    assert roundtrip(BOOL, True) == b"\x01"
    assert roundtrip(BOOL, False) == b"\x00"


def test_boolean_bad_value():
    """A flag above 1 is damage, alone and as an optional's presence."""
    for field in (BOOL, optional(UINT)):
        with pytest.raises(CodecError, match="bad boolean value 7"):
            field.read(b"\x07\x00", 0)


def test_seq_roundtrip():
    items = ((1, "a"), (2, "b"))
    assert roundtrip(sequence(pair(UINT, TEXT)), items) == b"\x02\x01\x01a\x02\x01b"


def test_truncated_varint():
    with pytest.raises(CodecError, match="truncated varint"):
        UINT.read(b"\x80", 0)


def test_truncated_bytes():
    with pytest.raises(CodecError, match="truncated bytes field"):
        BYTES.read(b"\x0aabc", 0)


def test_map_encodes_its_keys_sorted():
    data = roundtrip(mapping(TEXT, UINT), {"b": 2, "a": 1, "c": 3})
    assert data == b"\x03\x01a\x01\x01b\x02\x01c\x03"
    assert list(mapping(TEXT, UINT).read(data, 0)[0]) == ["a", "b", "c"]


def test_padding_skips_its_bytes():
    data = roundtrip(PADDING, 5)
    assert data == b"\x05" + bytes(5)


def test_code_table_rejects_an_unknown_code():
    modes = code_table("mode", {"value": 0, "command": 1})
    assert roundtrip(modes, "command") == b"\x01"
    with pytest.raises(CodecError, match="bad mode value 2"):
        modes.read(b"\x02", 0)


def test_fields_in_sequence():
    fields = (UINT, TEXT, BYTES)
    data = encode_fields(fields, (7, "k", b"v"))
    assert data == b"\x07\x01k\x01v"
    assert decode_fields(fields, data, 0) == ([7, "k", b"v"], len(data))


_TRUNCATABLE = [
    (UINT, 300),
    (TEXT, "héllo"),
    (BYTES, b"abc"),
    (BOOL, True),
    (PADDING, 3),
    (optional(BYTES), b"x"),
    (mapping(TEXT, BYTES), {"a": b"1"}),
    (sequence(UINT), (1, 200)),
    (pair(UINT, UINT), (1, 2)),
]


@pytest.mark.parametrize("field,value", _TRUNCATABLE)
def test_every_truncation_is_a_codec_error(field, value):
    data = field.write(value)
    for cut in range(len(data)):
        with pytest.raises(CodecError):
            field.read(data[:cut], 0)


@given(st.lists(st.integers(min_value=0, max_value=2**63)))
def test_uint_roundtrip_property(values):
    fields = (UINT,) * len(values)
    data = encode_fields(fields, values)
    assert decode_fields(fields, data, 0) == (values, len(data))


@given(st.binary(max_size=300))
def test_raw_roundtrip_property(value):
    roundtrip(BYTES, value)


@given(st.text(max_size=200))
def test_text_roundtrip_property(value):
    roundtrip(TEXT, value)


@given(st.booleans())
def test_boolean_roundtrip_property(value):
    roundtrip(BOOL, value)


@given(st.integers(min_value=0, max_value=300))
def test_padding_roundtrip_property(size):
    roundtrip(PADDING, size)


@given(st.one_of(st.none(), st.binary(max_size=50)))
def test_optional_roundtrip_property(value):
    roundtrip(optional(BYTES), value)


@given(st.dictionaries(st.text(max_size=10), st.binary(max_size=30), max_size=6))
def test_map_roundtrip_property(value):
    roundtrip(mapping(TEXT, BYTES), value)


@given(st.lists(st.integers(min_value=0, max_value=2**48), max_size=8).map(tuple))
def test_sequence_roundtrip_property(value):
    roundtrip(sequence(UINT), value)


@given(st.tuples(st.integers(min_value=0, max_value=2**48), st.integers(0, 2**20)))
def test_pair_roundtrip_property(value):
    roundtrip(pair(UINT, UINT), value)


@given(st.sampled_from(["value", "command"]))
def test_code_table_roundtrip_property(value):
    roundtrip(code_table("mode", {"value": 0, "command": 1}), value)


_MIXED = {
    "uint": (UINT, st.integers(min_value=0, max_value=2**30)),
    "text": (TEXT, st.text(max_size=20)),
    "bytes": (BYTES, st.binary(max_size=20)),
    "bool": (BOOL, st.booleans()),
}


@given(
    st.lists(
        st.one_of(
            *[strategy.map(lambda v, k=k: (k, v)) for k, (_, strategy) in _MIXED.items()]
        )
    )
)
def test_mixed_field_roundtrip_property(items):
    fields = [_MIXED[kind][0] for kind, _ in items]
    values = [value for _, value in items]
    data = encode_fields(fields, values)
    assert decode_fields(fields, data, 0) == (values, len(data))


# -- repeated: the last read's bytes decode once ------------------------------

#: The MSP checkpoint's recovery-table snapshot: a map of maps.
SNAPSHOT = mapping(TEXT, mapping(UINT, UINT))

_SNAPSHOTS = st.dictionaries(
    st.sampled_from(["msp1", "msp2", "msp3"]),
    st.dictionaries(st.integers(0, 3), st.integers(0, 2**60), max_size=3),
    max_size=3,
)


def _outcome(read, buf, pos):
    """What ``read`` makes of ``buf`` at ``pos``: ``(value, next_pos)``,
    or the error it raised, as ``(type, message)``."""
    try:
        return read(buf, pos)
    except (CodecError, UnicodeDecodeError) as exc:
        return type(exc), str(exc)


@given(st.lists(st.integers(0, 3), max_size=20), st.lists(_SNAPSHOTS, min_size=4, max_size=4))
def test_repeated_reads_equal_fresh_decodes(picks, pool):
    """Back to back, as checkpoints lie in a log (repeats included):
    every read through the memo equals a fresh decode of the same bytes."""
    memo = repeated(SNAPSHOT)
    data = bytearray(b"".join(SNAPSHOT.write(pool[pick]) for pick in picks))
    view = memoryview(data)
    pos = 0
    for pick in picks:
        fresh = SNAPSHOT.read(view, pos)
        assert memo.read(view, pos) == fresh
        assert fresh[0] == pool[pick]
        pos = fresh[1]
    assert pos == len(data)


def test_repeated_gives_back_the_identical_object_for_equal_bytes():
    memo = repeated(SNAPSHOT)
    table = {"msp1": {0: 300, 1: 7}, "msp2": {0: 5}}
    data = SNAPSHOT.write(table) * 2
    first, pos = memo.read(data, 0)
    second, end = memo.read(memoryview(data), pos)
    assert first == table
    assert second is first
    assert end == len(data)
    other, _ = memo.read(SNAPSHOT.write({"msp1": {0: 300}}), 0)
    assert other == {"msp1": {0: 300}}
    assert memo.read(data, 0)[0] is not first  # the memo holds one entry


def test_repeated_decodes_a_changed_or_truncated_map_as_the_bare_reader():
    """After a cached read, every one-byte change and every truncation
    of the same bytes, placed right after them, reads exactly as
    ``SNAPSHOT`` alone reads it: the same value and end, or the same
    error."""
    cached = SNAPSHOT.write({"msp1": {0: 300, 1: 7}, "msp2": {0: 5}})
    variants = [cached[:cut] for cut in range(len(cached))]
    for index in range(len(cached)):
        for byte in (0x00, 0x01, 0x7F, 0x80, 0xFF, cached[index] ^ 0x01):
            variants.append(cached[:index] + bytes((byte,)) + cached[index + 1 :])
    memo = repeated(SNAPSHOT)
    for variant in variants:
        buf = cached + variant
        assert memo.read(buf, 0) == (SNAPSHOT.read(cached, 0)[0], len(cached))
        assert _outcome(memo.read, buf, len(cached)) == _outcome(
            SNAPSHOT.read, buf, len(cached)
        )


def test_repeated_holds_no_view_of_the_buffer_it_read():
    """The memo keeps a bytes copy: the bytearray under a scanned view
    can grow (as the stable store's segments do) once the view is gone."""
    memo = repeated(SNAPSHOT)
    data = bytearray(SNAPSHOT.write({"msp1": {0: 1}}) * 2)
    view = memoryview(data)
    value, pos = memo.read(view, 0)
    assert memo.read(view, pos)[0] is value
    view.release()  # BufferError here if a slice of it were still held
    data.extend(bytes(4096))
    assert memo.read(bytes(data), 0)[0] is value
