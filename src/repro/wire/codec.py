"""Low-level binary encoder/decoder used by log records and DB pages.

A tiny, explicit format: unsigned varints (LEB128), zig-zag signed ints,
length-prefixed bytes/strings, fixed 8-byte floats, and homogeneous
sequences.  No reflection, no pickle — every record type spells out its
own fields, which keeps the on-log format stable and debuggable.

Two API layers share the same byte format:

- :class:`Encoder` / :class:`Decoder` — the general chained interface
  every record type supports;
- the module-level ``encode_uvarint`` / ``read_uvarint`` /
  ``read_bytes`` / ``read_text_interned`` functions — the
  allocation-light fast path used by the compiled codecs of the
  high-frequency record kinds (see :mod:`repro.core.records`).  They operate on any buffer object
  (``bytes`` or ``memoryview``), which is what makes the zero-copy log
  scan possible.
"""

from __future__ import annotations

import struct
from typing import Callable, Sequence, Union

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


class Encoder:
    """Builds a byte string field by field."""

    __slots__ = ("_parts",)

    def __init__(self) -> None:
        self._parts: list[bytes] = []

    def uint(self, value: int) -> "Encoder":
        """Append an unsigned LEB128 varint."""
        self._parts.append(encode_uvarint(value))
        return self

    def sint(self, value: int) -> "Encoder":
        """Append a zig-zag encoded signed varint."""
        zigzag = (value << 1) ^ (value >> 63) if value < 0 else value << 1
        return self.uint(zigzag & ((1 << 64) - 1))

    def boolean(self, value: bool) -> "Encoder":
        return self.uint(1 if value else 0)

    def float64(self, value: float) -> "Encoder":
        self._parts.append(struct.pack("<d", value))
        return self

    def raw(self, data: bytes) -> "Encoder":
        """Append length-prefixed bytes."""
        self.uint(len(data))
        self._parts.append(bytes(data))
        return self

    def text(self, value: str) -> "Encoder":
        return self.raw(value.encode("utf-8"))

    def seq(self, items: Sequence, item_encoder: Callable[["Encoder", object], None]) -> "Encoder":
        """Append a count-prefixed homogeneous sequence."""
        self.uint(len(items))
        for item in items:
            item_encoder(self, item)
        return self

    def finish(self) -> bytes:
        return b"".join(self._parts)


class Decoder:
    """Consumes a byte string field by field (mirror of :class:`Encoder`).

    Accepts any buffer object (``bytes`` or ``memoryview``); when handed
    a view of a larger log region it never copies more than the leaf
    fields it returns.
    """

    __slots__ = ("_data", "_pos")

    def __init__(self, data: Buffer):
        self._data = data
        self._pos = 0

    @property
    def remaining(self) -> int:
        return len(self._data) - self._pos

    @property
    def exhausted(self) -> bool:
        return self._pos >= len(self._data)

    def uint(self) -> int:
        value, self._pos = read_uvarint(self._data, self._pos)
        return value

    def sint(self) -> int:
        zigzag = self.uint()
        value = zigzag >> 1
        if zigzag & 1:
            value = ~value
        return value

    def boolean(self) -> bool:
        flag = self.uint()
        if flag not in (0, 1):
            raise CodecError(f"bad boolean value {flag}")
        return flag == 1

    def float64(self) -> float:
        if self.remaining < 8:
            raise CodecError("truncated float64")
        (value,) = struct.unpack_from("<d", self._data, self._pos)
        self._pos += 8
        return value

    def raw(self) -> bytes:
        length = self.uint()
        if self.remaining < length:
            raise CodecError(f"truncated bytes field (need {length}, have {self.remaining})")
        data = self._data[self._pos : self._pos + length]
        self._pos += length
        return bytes(data)

    def text(self) -> str:
        return self.raw().decode("utf-8")

    def seq(self, item_decoder: Callable[["Decoder"], object]) -> list:
        count = self.uint()
        return [item_decoder(self) for _ in range(count)]

    def expect_end(self) -> None:
        """Assert the record was fully consumed (catches schema drift)."""
        if not self.exhausted:
            raise CodecError(f"{self.remaining} trailing bytes after decode")

