"""Binary encoding: codec primitives and checksummed record framing.

Log records and database pages are real byte strings in this
reproduction — recovery parses what it reads back from the stable store,
so serialization bugs surface as recovery failures rather than being
papered over by keeping Python objects alive across a "crash".
"""

from repro.wire.framing import CorruptRecordError, FrameReader, frame, unframe

__all__ = [
    "CorruptRecordError",
    "FrameReader",
    "frame",
    "unframe",
]
