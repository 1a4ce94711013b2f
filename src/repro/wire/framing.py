"""Record framing: length prefix + CRC32 checksum.

The physical log is a sequence of frames::

    [u32 payload_length][u32 crc32(payload)][payload bytes]

The frame reader used by the recovery scan stops cleanly at a torn or
truncated frame — the tail of the log beyond the last complete flush is
garbage by definition, so hitting it is normal, not an error (ARIES-style
end-of-log detection).  A *complete* frame whose checksum does not match
is a different animal: the durable prefix is supposed to be crash-proof,
so a bit flip there raises :class:`CorruptRecordError` instead of being
silently treated as end-of-log.

``unframe`` is zero-copy: handed a ``memoryview`` it returns a sub-view
of the payload (``bytes`` in → ``bytes`` out), so a whole-log scan can
parse every frame without materializing intermediate copies.
"""

from __future__ import annotations

import struct
import zlib
from typing import Iterator, Optional, Union

_HEADER = struct.Struct("<II")

_Data = Union[bytes, bytearray, memoryview]


class CorruptRecordError(Exception):
    """A frame whose checksum does not match its contents."""


def frame(payload: bytes) -> bytes:
    """Wrap ``payload`` in a length + checksum frame."""
    return _HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def unframe(data: _Data, offset: int = 0) -> tuple[Optional[_Data], int]:
    """Parse one frame at ``offset``.

    Returns ``(payload, next_offset)``; ``(None, offset)`` when the data
    ends before a complete frame (the normal end-of-log condition).
    Raises :class:`CorruptRecordError` when a complete frame's checksum
    does not match its contents.  The payload is a slice of ``data`` —
    zero-copy when ``data`` is a ``memoryview``.
    """
    if offset + _HEADER.size > len(data):
        return None, offset
    length, crc = _HEADER.unpack_from(data, offset)
    start = offset + _HEADER.size
    end = start + length
    if end > len(data):
        return None, offset
    payload = data[start:end]
    if zlib.crc32(payload) != crc:
        raise CorruptRecordError(
            f"frame at offset {offset}: checksum mismatch over {length} payload bytes"
        )
    return payload, end


class FrameReader:
    """Iterates complete frames over a byte string (the recovery scan)."""

    def __init__(self, data: bytes, start: int = 0):
        self._data = data
        self.offset = start

    def __iter__(self) -> Iterator[tuple[int, bytes]]:
        return self

    def __next__(self) -> tuple[int, bytes]:
        payload, next_offset = unframe(self._data, self.offset)
        if payload is None:
            raise StopIteration
        record_offset = self.offset
        self.offset = next_offset
        return record_offset, payload
