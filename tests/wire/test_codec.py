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
