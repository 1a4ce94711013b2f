"""The log pipeline's binary format: varint primitives and the field
vocabulary every record layout is written in.

A tiny, explicit format: unsigned varints (LEB128) and length-prefixed
bytes and UTF-8 text, composed into booleans, optionals, sorted maps,
sequences and code tables; :func:`repeated` decodes a run of
equal field values once.  No reflection, no pickle.

One API: a record kind declares its layout once, as an ordered list of
``(field name, field type)`` pairs, and both codec directions come from
it (:func:`encode_fields` / :func:`decode_fields`, and the log record
codec in :mod:`repro.core.records`).  A field type is a :class:`Field`,
a ``write(value) -> bytes`` and ``read(buf, pos) -> (value, next_pos)``
pair; the readers take any buffer object (``bytes`` or ``memoryview``),
which is what makes the zero-copy log scan possible, and raise
:class:`CodecError` on malformed input.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, NamedTuple, Sequence, Union

Buffer = Union[bytes, bytearray, memoryview]


class CodecError(Exception):
    """Raised on malformed input during decoding."""


#: Precomputed single-byte varints — the overwhelmingly common case
#: (kinds, flags, lengths and seqs below 128).
_UVARINT_1BYTE = tuple(bytes((i,)) for i in range(0x80))

#: Corruption guard on varint length.  Most fields fit in 64 bits, but
#: recovery frontiers of a partitioned log pack one 48-bit end offset
#: per partition into a single uint (see :mod:`repro.core.plsn`), so the
#: bound must admit a frontier for the maximum partition count (1024)
#: plus tag/count overhead — anything longer is garbage, not data.
_UVARINT_MAX_SHIFT = 68 + 48 * 1024


def encode_uvarint(value: int) -> bytes:
    """Encode an unsigned LEB128 varint (fast path for values < 128)."""
    if 0 <= value < 0x80:
        return _UVARINT_1BYTE[value]
    if value < 0:
        raise ValueError(f"uint cannot encode negative value {value}")
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def read_uvarint(buf: Buffer, pos: int) -> tuple[int, int]:
    """Parse an unsigned varint at ``pos``; returns ``(value, next_pos)``."""
    end = len(buf)
    if pos >= end:
        raise CodecError("truncated varint")
    byte = buf[pos]
    if byte < 0x80:
        return byte, pos + 1
    value = byte & 0x7F
    shift = 7
    pos += 1
    while True:
        if pos >= end:
            raise CodecError("truncated varint")
        byte = buf[pos]
        pos += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value, pos
        shift += 7
        if shift > _UVARINT_MAX_SHIFT:
            raise CodecError("varint too long")


def read_bytes(buf: Buffer, pos: int) -> tuple[bytes, int]:
    """Parse a length-prefixed bytes field; returns ``(data, next_pos)``."""
    # Inline single-byte length: most fields are shorter than 128 bytes.
    length = buf[pos] if pos < len(buf) else 0x80
    if length < 0x80:
        pos += 1
    else:
        length, pos = read_uvarint(buf, pos)
    end = pos + length
    if end > len(buf):
        raise CodecError(f"truncated bytes field (need {length}, have {len(buf) - pos})")
    return bytes(buf[pos:end]), end


#: Bounded intern table for identifier-like text fields (session ids,
#: variable and MSP names repeat on nearly every record of a log).
_TEXT_INTERN: dict[bytes, str] = {}
_TEXT_INTERN_MAX = 8192


def read_text_interned(buf: Buffer, pos: int) -> tuple[str, int]:
    """Parse a length-prefixed UTF-8 string, memoizing the decoded
    text; returns ``(text, next_pos)``.

    Meant for identifier fields with heavy repetition; do not use for
    payload-like text.  The table is dropped wholesale when full —
    identifiers in a log cluster tightly, so eviction precision is not
    worth per-entry bookkeeping.
    """
    # Inline single-byte length: most fields are shorter than 128 bytes.
    length = buf[pos] if pos < len(buf) else 0x80
    if length < 0x80:
        pos += 1
    else:
        length, pos = read_uvarint(buf, pos)
    end = pos + length
    if end > len(buf):
        raise CodecError(f"truncated text field (need {length}, have {len(buf) - pos})")
    key = bytes(buf[pos:end])
    cached = _TEXT_INTERN.get(key)
    if cached is None:
        if len(_TEXT_INTERN) >= _TEXT_INTERN_MAX:
            _TEXT_INTERN.clear()
        cached = _TEXT_INTERN[key] = key.decode("utf-8")
    return cached, end


class Field(NamedTuple):
    """A field type: how one value goes onto the wire and comes back."""

    write: Callable[[Any], bytes]
    read: Callable[[Buffer, int], tuple[Any, int]]


def _length_prefixed(data: bytes) -> bytes:
    n = len(data)
    return (_UVARINT_1BYTE[n] if n < 0x80 else encode_uvarint(n)) + data


class _TextWrites(dict):
    """Identifier -> its length-prefixed UTF-8 bytes: the write side of
    the intern table, bounded and dropped wholesale the same way."""

    def __missing__(self, value: str) -> bytes:
        if len(self) >= _TEXT_INTERN_MAX:
            self.clear()
        written = self[value] = _length_prefixed(value.encode())
        return written


def _write_padding(size: int) -> bytes:
    return encode_uvarint(size) + bytes(size)


def _skip_padding(buf: Buffer, pos: int) -> tuple[int, int]:
    # Skip the padding without materializing it: fillers dominate the
    # log volume when the per-record overhead is calibrated to the paper.
    size, pos = read_uvarint(buf, pos)
    end = pos + size
    if end > len(buf):
        raise CodecError(f"truncated bytes field (need {size}, have {len(buf) - pos})")
    return size, end


UINT = Field(encode_uvarint, read_uvarint)
BYTES = Field(_length_prefixed, read_bytes)
#: Identifier text (session ids, variable and MSP names), interned in
#: both directions.
TEXT = Field(_TextWrites().__getitem__, read_text_interned)
#: A size, written as that many zero bytes after it; read back without
#: materializing them.
PADDING = Field(_write_padding, _skip_padding)


def optional(inner: Field) -> Field:
    """``None`` or an ``inner`` value, behind a presence flag."""
    write_inner, read_inner = inner

    def write(value: Any) -> bytes:
        return b"\x00" if value is None else b"\x01" + write_inner(value)

    def read(buf: Buffer, pos: int) -> tuple[Any, int]:
        # The flag is read here rather than through BOOL: one call fewer
        # on every request, command and reply record.
        flag, pos = read_uvarint(buf, pos)
        if flag == 0:
            return None, pos
        if flag == 1:
            return read_inner(buf, pos)
        raise CodecError(f"bad boolean value {flag}")

    return Field(write, read)


def mapping(key: Field, value: Field) -> Field:
    """A count-prefixed map, written in sorted key order."""
    write_key, read_key = key
    write_value, read_value = value

    def write(items: dict) -> bytes:
        parts = [encode_uvarint(len(items))]
        for k in sorted(items):
            parts.append(write_key(k))
            parts.append(write_value(items[k]))
        return b"".join(parts)

    def read(buf: Buffer, pos: int) -> tuple[dict, int]:
        count, pos = read_uvarint(buf, pos)
        items = {}
        for _ in range(count):
            k, pos = read_key(buf, pos)
            items[k], pos = read_value(buf, pos)
        return items, pos

    return Field(write, read)


class _LastRead:
    """The read side of :func:`repeated`: the last bytes read, as a
    ``bytes`` copy (a held view would pin its buffer), and their value."""

    __slots__ = ("read_inner", "data", "value")

    def __init__(self, read_inner: Callable[[Buffer, int], tuple[Any, int]]):
        self.read_inner = read_inner
        self.data = self.value = None

    def read(self, buf: Buffer, pos: int) -> tuple[Any, int]:
        data = self.data
        # Copy, then compare: a memoryview compares item by item.
        if data is not None and bytes(buf[pos : pos + len(data)]) == data:
            return self.value, pos + len(data)
        self.value, end = self.read_inner(buf, pos)
        self.data = bytes(buf[pos:end])
        return self.value, end


def repeated(inner: Field) -> Field:
    """``inner``, for a field whose bytes often repeat from one record
    to the next: the bytes of the last read are kept, and the same bytes
    at ``pos`` give back the same value without decoding.  Exact because
    every read is self-delimiting; other bytes, truncated ones included,
    decode (or fail) as ``inner`` does.  The value is shared between
    reads, so callers must not mutate it."""
    return Field(inner.write, _LastRead(inner.read).read)


def sequence(item: Field) -> Field:
    """A count-prefixed sequence, read back as a tuple."""
    write_item, read_item = item

    def write(items: Sequence) -> bytes:
        return encode_uvarint(len(items)) + b"".join([write_item(i) for i in items])

    def read(buf: Buffer, pos: int) -> tuple[tuple, int]:
        count, pos = read_uvarint(buf, pos)
        items = []
        for _ in range(count):
            value, pos = read_item(buf, pos)
            items.append(value)
        return tuple(items), pos

    return Field(write, read)


def pair(first: Field, second: Field) -> Field:
    """Two values back to back, as a 2-tuple."""
    both = (first, second)

    def read(buf: Buffer, pos: int) -> tuple[tuple, int]:
        values, pos = decode_fields(both, buf, pos)
        return tuple(values), pos

    return Field(partial(encode_fields, both), read)


def code_table(what: str, codes: dict[Any, int]) -> Field:
    """A value written as its uint code; an unknown code is damage."""
    names = {code: name for name, code in codes.items()}

    def write(name: Any) -> bytes:
        return encode_uvarint(codes[name])

    def read(buf: Buffer, pos: int) -> tuple[Any, int]:
        code, pos = read_uvarint(buf, pos)
        if code not in names:
            raise CodecError(f"bad {what} value {code}")
        return names[code], pos

    return Field(write, read)


#: A flag above 1 on the wire is a :class:`CodecError`.
BOOL = code_table("boolean", {False: 0, True: 1})


def encode_fields(fields: Sequence[Field], values: Sequence) -> bytes:
    """The bytes of ``values``, one per field type, in order."""
    return b"".join([write(value) for (write, _), value in zip(fields, values)])


def decode_fields(fields: Sequence[Field], buf: Buffer, pos: int) -> tuple[list, int]:
    """Inverse of :func:`encode_fields` at ``buf[pos:]``; returns
    ``(values, next_pos)``."""
    values = []
    for _, read in fields:
        value, pos = read(buf, pos)
        values.append(value)
    return values, pos
