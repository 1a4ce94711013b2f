"""Log record types and their on-log byte codecs.

Every nondeterministic event of an MSP is captured by one of these
records (paper §3): message receipts (requests and replies), shared-
variable reads and writes (value logging, §3.3), the three checkpoint
kinds (session §3.2, shared-variable §3.3, fuzzy MSP §3.4), end-of-skip
markers written by orphan recovery (§4.1), recovery announcements
learned from other MSPs, and session-end markers.

Records are encoded to real bytes before they hit the physical log and
parsed back during recovery — recovery never touches live Python objects
from "before the crash".
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from operator import attrgetter, itemgetter
from typing import Callable, ClassVar, Optional, Union

from repro.core.dv import DependencyVector
from repro.core.plsn import OFFSET_BITS, OFFSET_MASK, decode_frontier
from repro.wire.codec import (
    BOOL,
    BYTES,
    PADDING,
    TEXT,
    UINT,
    Buffer,
    CodecError,
    Field,
    code_table,
    encode_uvarint,
    mapping,
    optional,
    pair,
    repeated,
    sequence,
)

# Record kind tags (one byte each on the log).
KIND_REQUEST = 1
KIND_REPLY = 2
KIND_SV_READ = 3
KIND_SV_WRITE = 4
KIND_SV_CHECKPOINT = 5
KIND_SESSION_CHECKPOINT = 6
KIND_MSP_CHECKPOINT = 7
KIND_EOS = 8
KIND_ANNOUNCEMENT = 9
KIND_SESSION_END = 10
KIND_FILLER = 11
KIND_SV_UPDATE = 12
# 13 is retired (last written at commit 92fdbba) and is never reused.
KIND_COMMAND = 14

#: Sentinel "no previous write" value of ``prev_write_lsn``.
NO_LSN = 0xFFFFFFFFFFFF

#: Per-session logging-mode codes for the session checkpoint's last field.
LOGGING_MODE_CODES = {"value": 0, "command": 1}

# -- wire layouts -------------------------------------------------------------
#
# Every record class declares its wire layout once, as ``LAYOUT``: its
# ``(field name, field type)`` pairs in wire order after the kind byte.
# ``_Record.encode`` and ``decode_record`` both follow it, so the two
# directions cannot drift apart; the golden-bytes tests pin every
# kind's bytes.  The field types are :mod:`repro.wire.codec`'s plus the
# DV types below, which call ``DependencyVector``'s own codec.

DV = Field(DependencyVector.encode_bytes, DependencyVector.decode_from_buffer)
OPTIONAL_DV = optional(DV)
#: A session's ``name -> value`` variables; the Psession baseline
#: persists the same field.
VARIABLES = mapping(TEXT, BYTES)
UINT_MAP = mapping(TEXT, UINT)

#: Requests and commands: only the kind byte and the class differ.
_SESSION_MESSAGE = (
    ("session_id", TEXT),
    ("seq", UINT),
    ("method", TEXT),
    ("argument", BYTES),
    ("sender_dv", OPTIONAL_DV),
)


class _Record:
    """Base of every log record: ``encode`` follows the class's
    ``LAYOUT`` (compiled once into ``_ENCODER`` at import).

    The loops here and in ``decode_record`` are ``encode_fields`` /
    ``decode_fields`` inlined: the extra call per record cost 10% of
    encode and 5% of decode.
    """

    LAYOUT: ClassVar[tuple[tuple[str, Field], ...]]
    _ENCODER: ClassVar[tuple[bytes, Callable, tuple]]

    def encode(self) -> bytes:
        kind, values, writers = self._ENCODER
        parts = [kind]
        for write, value in zip(writers, values(self)):
            parts.append(write(value))
        return b"".join(parts)


@dataclass
class RequestRecord(_Record):
    """A client request received over a session (paper Fig. 7, receive).

    The attached DV is present only for intra-domain senders (optimistic
    logging); cross-domain messages arrive flushed and carry none.
    """

    session_id: str
    seq: int
    method: str
    argument: bytes
    sender_dv: Optional[DependencyVector] = None
    kind: int = field(default=KIND_REQUEST, init=False)
    LAYOUT = _SESSION_MESSAGE


@dataclass
class CommandRecord(_Record):
    """Command logging: the request itself is the log record (§3.3 dual).

    Under ``logging_mode: command`` the per-SV value records of a
    request's execution are *not* logged; this single record — the
    method id, its argument and the sender's DV context — is, and
    recovery re-executes the handler deterministically against recovered
    state (Lomet-style logical recovery).  The fields deliberately
    mirror :class:`RequestRecord` so the analysis scan, the recovery
    cut/merge (``sender_dv``) and partition routing (``session_id``)
    all treat it identically.
    """

    session_id: str
    seq: int
    method: str
    argument: bytes
    sender_dv: Optional[DependencyVector] = None
    kind: int = field(default=KIND_COMMAND, init=False)
    LAYOUT = _SESSION_MESSAGE


@dataclass
class ReplyRecord(_Record):
    """A reply received from another MSP for an outgoing call."""

    session_id: str  #: the *local* session that made the outgoing call
    outgoing_session_id: str
    seq: int
    payload: bytes
    sender_dv: Optional[DependencyVector] = None
    kind: int = field(default=KIND_REPLY, init=False)
    LAYOUT = (
        ("session_id", TEXT),
        ("outgoing_session_id", TEXT),
        ("seq", UINT),
        ("payload", BYTES),
        ("sender_dv", OPTIONAL_DV),
    )


@dataclass
class SvReadRecord(_Record):
    """Value logging for a shared-variable read (paper Fig. 8, read).

    Logging the value *and* the variable's DV lets a recovering reader
    obtain the value straight from the log, without involving the writer
    session — the recovery-independence argument of §3.3.
    """

    session_id: str
    variable: str
    value: bytes
    variable_dv: DependencyVector
    kind: int = field(default=KIND_SV_READ, init=False)
    LAYOUT = (
        ("session_id", TEXT),
        ("variable", TEXT),
        ("value", BYTES),
        ("variable_dv", DV),
    )


@dataclass
class SvWriteRecord(_Record):
    """Value logging for a shared-variable write (paper Fig. 8, write).

    ``prev_write_lsn`` names the write (or checkpoint) this one
    replaced: the edge that orders one variable's records across
    partitions in the recovery merge and cut (DESIGN.md §14).  Nothing
    walks it — orphan rollback is in-memory (DESIGN.md §6).
    """

    session_id: str
    variable: str
    value: bytes
    writer_dv: DependencyVector
    prev_write_lsn: int = NO_LSN
    kind: int = field(default=KIND_SV_WRITE, init=False)
    LAYOUT = (
        ("session_id", TEXT),
        ("variable", TEXT),
        ("value", BYTES),
        ("writer_dv", DV),
        ("prev_write_lsn", UINT),
    )


@dataclass
class SvUpdateRecord(_Record):
    """An atomic read-modify-write of a shared variable.

    Extension over the paper (see ``ServiceContext.update_shared``): one
    record captures both the value read (``old_value`` with the
    variable's DV at that moment — the nondeterministic input) and the
    value written (``new_value`` with the writer's resulting DV and the
    ``prev_write_lsn`` merge edge).  Replay consumes exactly one record per RMW,
    so a lost record means the whole RMW re-executes live — atomicity is
    preserved across the replay/normal boundary.
    """

    session_id: str
    variable: str
    old_value: bytes
    new_value: bytes
    variable_dv: DependencyVector
    writer_dv: DependencyVector
    prev_write_lsn: int = NO_LSN
    kind: int = field(default=KIND_SV_UPDATE, init=False)
    LAYOUT = (
        ("session_id", TEXT),
        ("variable", TEXT),
        ("old_value", BYTES),
        ("new_value", BYTES),
        ("variable_dv", DV),
        ("writer_dv", DV),
        ("prev_write_lsn", UINT),
    )


@dataclass
class SvCheckpointRecord(_Record):
    """A shared-variable checkpoint: a value that can never be an orphan.

    Written after a distributed log flush covered the variable's DV, so
    no DV needs to be stored and no rollback ever goes below it.

    ``prev_write_lsn`` is the lsn of the write this checkpoint seals
    (``NO_LSN``: none).  The checkpoint lands on the control partition
    while the writes live in session partitions, so the recovery merge
    needs that edge to order them (DESIGN.md §14); within one partition
    the edge only restates the scan order.

    ``command_frontier`` holds, per command session, the ``(lsn,
    ordinal)`` of the most recent command RMW whose effect is included
    in the checkpointed value (DESIGN.md §16; empty under value
    logging).  Recovery restores it so a re-executed command re-applies
    its RMW exactly when its pair lies beyond the frontier.
    """

    variable: str
    value: bytes
    prev_write_lsn: int = NO_LSN
    command_frontier: dict[str, tuple[int, int]] = field(default_factory=dict)
    kind: int = field(default=KIND_SV_CHECKPOINT, init=False)
    LAYOUT = (
        ("variable", TEXT),
        ("value", BYTES),
        ("prev_write_lsn", UINT),
        ("command_frontier", mapping(TEXT, pair(UINT, UINT))),
    )


@dataclass
class SessionCheckpointRecord(_Record):
    """A session checkpoint (paper §3.2).

    Contains exactly what the paper lists: session variables, the
    buffered reply, the next expected request sequence number, and every
    outgoing session's next available sequence number — no control state
    (stacks, program counters), because checkpoints are only taken
    between requests.

    ``logging_mode`` is the writing MSP's logging mode (DESIGN.md §16).
    Recovery checks it against its own: a log suffix of value records
    to reinstall, or of command records to re-execute, replays only
    under the mode that wrote it.
    """

    session_id: str
    variables: dict[str, bytes]
    buffered_reply: Optional[bytes]
    buffered_reply_seq: int
    next_expected_seq: int
    outgoing_next_seq: dict[str, int]  #: outgoing session id -> next seq
    buffered_reply_error: bool = False
    logging_mode: str = "value"
    kind: int = field(default=KIND_SESSION_CHECKPOINT, init=False)
    LAYOUT = (
        ("session_id", TEXT),
        ("variables", VARIABLES),
        ("buffered_reply", optional(BYTES)),
        ("buffered_reply_seq", UINT),
        ("next_expected_seq", UINT),
        ("outgoing_next_seq", UINT_MAP),
        ("buffered_reply_error", BOOL),
        ("logging_mode", code_table("logging-mode", LOGGING_MODE_CODES)),
    )


@dataclass
class MspCheckpointRecord(_Record):
    """The fuzzy MSP checkpoint (paper §3.4).

    "Mainly contains recovered state numbers of MSPs in the service
    domain, the LSN of each session's most recent checkpoint, and the
    LSN of each shared variable's most recent checkpoint."  For sessions
    and variables that have never been checkpointed we record the LSN of
    their first log record instead, so the minimal LSN still bounds the
    recovery scan.

    ``partition_ends`` is the end offset of every log partition,
    captured in the same step as the start lsns: a partition none of
    them name — or a session whose first record is appended while the
    checkpoint record is still being written — still needs a scan start
    and truncation floor, and its end at the capture is that.
    """

    recovered_snapshot: dict[str, dict[int, int]]
    session_start_lsns: dict[str, int]  #: session id -> scan-start LSN
    sv_start_lsns: dict[str, int]  #: variable -> scan-start frontier
    partition_ends: tuple[int, ...]
    epoch: int = 0
    kind: int = field(default=KIND_MSP_CHECKPOINT, init=False)
    #: Wire order, not field order: the epoch comes first.  The three
    #: maps mostly repeat byte for byte from one checkpoint to the next,
    #: so each decodes once per run of equal values (``repeated``).
    LAYOUT = (
        ("epoch", UINT),
        ("recovered_snapshot", repeated(mapping(TEXT, mapping(UINT, UINT)))),
        ("session_start_lsns", repeated(UINT_MAP)),
        ("sv_start_lsns", repeated(UINT_MAP)),
        ("partition_ends", sequence(UINT)),
    )

    def partition_floors(self, own_lsn: int) -> list[int]:
        """Per-partition scan starts / truncation floors.

        For each partition, the minimum offset among the start lsns
        that live in it; partitions nothing names default to their end
        at checkpoint time.  ``own_lsn`` is the checkpoint record's own
        (control-partition) lsn.  Session starts are scalar plsns (one
        session, one partition); shared-variable starts are packed
        frontiers (the writes span the writers' partitions — see
        ``SharedVariable.scan_start_frontier``).
        """
        floors = list(self.partition_ends)
        starts = [
            (lsn >> OFFSET_BITS, lsn & OFFSET_MASK)
            for lsn in (own_lsn, *self.session_start_lsns.values())
        ]
        for frontier in self.sv_start_lsns.values():
            starts.extend(enumerate(decode_frontier(frontier)))
        for partition, offset in starts:
            if partition < len(floors) and offset < floors[partition]:
                floors[partition] = offset
        return floors


@dataclass
class EosRecord(_Record):
    """End-of-skip marker written at orphan-recovery end (paper §4.1).

    Points back at the orphan log record; everything between them is
    invisible to subsequent recoveries of this session.
    """

    session_id: str
    orphan_lsn: int
    kind: int = field(default=KIND_EOS, init=False)
    LAYOUT = (("session_id", TEXT), ("orphan_lsn", UINT))


@dataclass
class AnnouncementRecord(_Record):
    """Another MSP's recovery announcement, logged so the knowledge
    survives our own crashes (paper §4.3 scan step c)."""

    msp: str
    epoch: int
    recovered_lsn: int
    kind: int = field(default=KIND_ANNOUNCEMENT, init=False)
    LAYOUT = (("msp", TEXT), ("epoch", UINT), ("recovered_lsn", UINT))


@dataclass
class FillerRecord(_Record):
    """Storage padding modeling per-record serialization overhead.

    The paper's .NET prototype logs fatter records than our binary
    codec; the calibrated per-record overhead (see RecoveryConfig) is
    materialized as filler so sector accounting and checkpoint-threshold
    arithmetic match the paper's (~1.5 KB logged per request at MSP1,
    i.e. a session checkpoint every ~682 requests at the 1 MB
    threshold).  Recovery ignores fillers entirely.
    """

    size: int
    kind: int = field(default=KIND_FILLER, init=False)
    LAYOUT = (("size", PADDING),)


@dataclass
class SessionEndRecord(_Record):
    """Marks the end of a session's log records (paper §3.2)."""

    session_id: str
    kind: int = field(default=KIND_SESSION_END, init=False)
    LAYOUT = (("session_id", TEXT),)


#: kind byte -> (field readers in wire order, constructor taking them).
_DECODERS: dict[int, tuple[tuple, Callable]] = {}


def _compile(cls: type) -> type:
    """Derive ``cls``'s encoder and decoder from its layout."""
    names = tuple(name for name, _ in cls.LAYOUT)
    values = attrgetter(*names)
    if len(names) == 1:
        values = lambda record, one=values: (one(record),)  # noqa: E731
    cls._ENCODER = (encode_uvarint(cls.kind), values, tuple(t.write for _, t in cls.LAYOUT))
    build = cls
    init_names = tuple(f.name for f in fields(cls) if f.init)
    if names != init_names:  # wire order is not field order
        in_field_order = itemgetter(*map(names.index, init_names))
        build = lambda *wire: cls(*in_field_order(wire))  # noqa: E731
    _DECODERS[cls.kind] = (tuple(t.read for _, t in cls.LAYOUT), build)
    return cls


#: kind byte -> record class: every record class, one per kind.
RECORD_CLASSES: dict[int, type] = {cls.kind: _compile(cls) for cls in _Record.__subclasses__()}

#: Any log record.
LogRecord = Union[tuple(RECORD_CLASSES.values())]


def decode_record(payload: Buffer) -> LogRecord:
    """Parse one log record from its encoded payload (bytes or view).

    Whatever is wrong with the payload — truncation, an unknown kind or
    mode code, a damaged identifier, trailing bytes — it fails here, as
    :class:`CodecError`.
    """
    if not len(payload):
        raise CodecError("empty log record payload")
    decoder = _DECODERS.get(payload[0])
    if decoder is None:
        raise CodecError(f"unknown log record kind byte {payload[0]}")
    readers, build = decoder
    pos = 1
    values = []
    try:
        for read in readers:
            value, pos = read(payload, pos)
            values.append(value)
    except IndexError:
        # The DV decoder's inlined varint reads index past the end on
        # truncated input.
        raise CodecError("truncated varint") from None
    except UnicodeDecodeError as exc:
        raise CodecError(f"identifier is not UTF-8: {exc}") from None
    if pos != len(payload):
        raise CodecError(f"{len(payload) - pos} trailing bytes after decode")
    return build(*values)
