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

import struct
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.core.dv import DependencyVector
from repro.core.plsn import OFFSET_BITS, OFFSET_MASK, decode_frontier
from repro.wire import Encoder
from repro.wire.codec import (
    Buffer,
    CodecError,
    encode_uvarint,
    read_bytes,
    read_text_interned,
    read_uvarint,
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
LOGGING_MODE_NAMES = {code: name for name, code in LOGGING_MODE_CODES.items()}

# -- compiled-codec helpers ---------------------------------------------------
#
# The high-frequency record kinds (request, reply, SV read/write/update
# and filler) encode with precompiled ``struct.Struct`` packers and the
# module-level varint fast paths of :mod:`repro.wire.codec` instead of
# the chained Encoder; the bytes are the ones the Encoder would write —
# pinned by the golden-bytes tests — only the Python overhead (one
# Encoder object plus a method call per field) is gone.

_PACK_KIND_LEN = struct.Struct("<BB").pack
_FALSE = b"\x00"
_TRUE = b"\x01"


def _kind_len(kind: int, length: int) -> bytes:
    """Pack a record kind and the first field's length prefix at once."""
    if length < 0x80:
        return _PACK_KIND_LEN(kind, length)
    return encode_uvarint(kind) + encode_uvarint(length)


def _optional_dv_bytes(dv: Optional[DependencyVector]) -> bytes:
    if dv is None:
        return _FALSE
    return _TRUE + dv.encode_bytes()


@dataclass
class RequestRecord:
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

    def encode(self) -> bytes:
        sid = self.session_id.encode("utf-8")
        method = self.method.encode("utf-8")
        argument = self.argument
        return b"".join(
            (
                _kind_len(KIND_REQUEST, len(sid)),
                sid,
                encode_uvarint(self.seq),
                encode_uvarint(len(method)),
                method,
                encode_uvarint(len(argument)),
                argument,
                _optional_dv_bytes(self.sender_dv),
            )
        )


@dataclass
class CommandRecord:
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

    def encode(self) -> bytes:
        sid = self.session_id.encode("utf-8")
        method = self.method.encode("utf-8")
        argument = self.argument
        return b"".join(
            (
                _kind_len(KIND_COMMAND, len(sid)),
                sid,
                encode_uvarint(self.seq),
                encode_uvarint(len(method)),
                method,
                encode_uvarint(len(argument)),
                argument,
                _optional_dv_bytes(self.sender_dv),
            )
        )


@dataclass
class ReplyRecord:
    """A reply received from another MSP for an outgoing call."""

    session_id: str  #: the *local* session that made the outgoing call
    outgoing_session_id: str
    seq: int
    payload: bytes
    sender_dv: Optional[DependencyVector] = None
    kind: int = field(default=KIND_REPLY, init=False)

    def encode(self) -> bytes:
        sid = self.session_id.encode("utf-8")
        out = self.outgoing_session_id.encode("utf-8")
        payload = self.payload
        return b"".join(
            (
                _kind_len(KIND_REPLY, len(sid)),
                sid,
                encode_uvarint(len(out)),
                out,
                encode_uvarint(self.seq),
                encode_uvarint(len(payload)),
                payload,
                _optional_dv_bytes(self.sender_dv),
            )
        )


@dataclass
class SvReadRecord:
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

    def encode(self) -> bytes:
        sid = self.session_id.encode("utf-8")
        var = self.variable.encode("utf-8")
        value = self.value
        return b"".join(
            (
                _kind_len(KIND_SV_READ, len(sid)),
                sid,
                encode_uvarint(len(var)),
                var,
                encode_uvarint(len(value)),
                value,
                self.variable_dv.encode_bytes(),
            )
        )


@dataclass
class SvWriteRecord:
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

    def encode(self) -> bytes:
        sid = self.session_id.encode("utf-8")
        var = self.variable.encode("utf-8")
        value = self.value
        return b"".join(
            (
                _kind_len(KIND_SV_WRITE, len(sid)),
                sid,
                encode_uvarint(len(var)),
                var,
                encode_uvarint(len(value)),
                value,
                self.writer_dv.encode_bytes(),
                encode_uvarint(self.prev_write_lsn),
            )
        )


@dataclass
class SvUpdateRecord:
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

    def encode(self) -> bytes:
        sid = self.session_id.encode("utf-8")
        var = self.variable.encode("utf-8")
        old_value = self.old_value
        new_value = self.new_value
        return b"".join(
            (
                _kind_len(KIND_SV_UPDATE, len(sid)),
                sid,
                encode_uvarint(len(var)),
                var,
                encode_uvarint(len(old_value)),
                old_value,
                encode_uvarint(len(new_value)),
                new_value,
                self.variable_dv.encode_bytes(),
                self.writer_dv.encode_bytes(),
                encode_uvarint(self.prev_write_lsn),
            )
        )


@dataclass
class SvCheckpointRecord:
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

    def encode(self) -> bytes:
        enc = (
            Encoder()
            .uint(self.kind)
            .text(self.variable)
            .raw(self.value)
            .uint(self.prev_write_lsn)
            .uint(len(self.command_frontier))
        )
        for sid in sorted(self.command_frontier):
            lsn, ordinal = self.command_frontier[sid]
            enc.text(sid).uint(lsn).uint(ordinal)
        return enc.finish()


@dataclass
class SessionCheckpointRecord:
    """A session checkpoint (paper §3.2).

    Contains exactly what the paper lists: session variables, the
    buffered reply, the next expected request sequence number, and every
    outgoing session's next available sequence number — no control state
    (stacks, program counters), because checkpoints are only taken
    between requests.

    ``logging_mode`` tells recovery how to interpret the log suffix
    after this checkpoint (DESIGN.md §16): value records to reinstall,
    or command records to re-execute.
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

    def encode(self) -> bytes:
        enc = Encoder().uint(self.kind).text(self.session_id)
        enc.uint(len(self.variables))
        for name in sorted(self.variables):
            enc.text(name).raw(self.variables[name])
        enc.boolean(self.buffered_reply is not None)
        if self.buffered_reply is not None:
            enc.raw(self.buffered_reply)
        enc.uint(self.buffered_reply_seq)
        enc.uint(self.next_expected_seq)
        enc.uint(len(self.outgoing_next_seq))
        for target in sorted(self.outgoing_next_seq):
            enc.text(target).uint(self.outgoing_next_seq[target])
        enc.boolean(self.buffered_reply_error)
        enc.uint(LOGGING_MODE_CODES[self.logging_mode])
        return enc.finish()


@dataclass
class MspCheckpointRecord:
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

    def encode(self) -> bytes:
        enc = Encoder().uint(self.kind).uint(self.epoch)
        enc.uint(len(self.recovered_snapshot))
        for msp in sorted(self.recovered_snapshot):
            enc.text(msp)
            epochs = self.recovered_snapshot[msp]
            enc.uint(len(epochs))
            for ep in sorted(epochs):
                enc.uint(ep).uint(epochs[ep])
        enc.uint(len(self.session_start_lsns))
        for sid in sorted(self.session_start_lsns):
            enc.text(sid).uint(self.session_start_lsns[sid])
        enc.uint(len(self.sv_start_lsns))
        for name in sorted(self.sv_start_lsns):
            enc.text(name).uint(self.sv_start_lsns[name])
        enc.uint(len(self.partition_ends))
        for end in self.partition_ends:
            enc.uint(end)
        return enc.finish()


@dataclass
class EosRecord:
    """End-of-skip marker written at orphan-recovery end (paper §4.1).

    Points back at the orphan log record; everything between them is
    invisible to subsequent recoveries of this session.
    """

    session_id: str
    orphan_lsn: int
    kind: int = field(default=KIND_EOS, init=False)

    def encode(self) -> bytes:
        return Encoder().uint(self.kind).text(self.session_id).uint(self.orphan_lsn).finish()


@dataclass
class AnnouncementRecord:
    """Another MSP's recovery announcement, logged so the knowledge
    survives our own crashes (paper §4.3 scan step c)."""

    msp: str
    epoch: int
    recovered_lsn: int
    kind: int = field(default=KIND_ANNOUNCEMENT, init=False)

    def encode(self) -> bytes:
        return (
            Encoder()
            .uint(self.kind)
            .text(self.msp)
            .uint(self.epoch)
            .uint(self.recovered_lsn)
            .finish()
        )


@dataclass
class FillerRecord:
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

    def encode(self) -> bytes:
        return _kind_len(KIND_FILLER, self.size) + b"\x00" * self.size


@dataclass
class SessionEndRecord:
    """Marks the end of a session's log records (paper §3.2)."""

    session_id: str
    kind: int = field(default=KIND_SESSION_END, init=False)

    def encode(self) -> bytes:
        return Encoder().uint(self.kind).text(self.session_id).finish()


LogRecord = (
    RequestRecord
    | CommandRecord
    | FillerRecord
    | ReplyRecord
    | SvUpdateRecord
    | SvReadRecord
    | SvWriteRecord
    | SvCheckpointRecord
    | SessionCheckpointRecord
    | MspCheckpointRecord
    | EosRecord
    | AnnouncementRecord
    | SessionEndRecord
)


# -- decoders: one position-threaded function per kind ------------------------
#
# Each takes the payload and the position just past the kind byte and
# returns ``(record, next_pos)``.  Identifier fields go through the
# intern table; single-byte varints are read inline by the DV decoder.


def _read_flag(buf: Buffer, pos: int) -> tuple[bool, int]:
    flag, pos = read_uvarint(buf, pos)
    if flag > 1:
        raise CodecError(f"bad boolean value {flag}")
    return flag == 1, pos


def _read_optional_dv(buf: Buffer, pos: int) -> tuple[Optional[DependencyVector], int]:
    present, pos = _read_flag(buf, pos)
    if not present:
        return None, pos
    return DependencyVector.decode_from_buffer(buf, pos)


def _decode_request(buf: Buffer, pos: int) -> tuple[LogRecord, int]:
    session_id, pos = read_text_interned(buf, pos)
    seq, pos = read_uvarint(buf, pos)
    method, pos = read_text_interned(buf, pos)
    argument, pos = read_bytes(buf, pos)
    sender_dv, pos = _read_optional_dv(buf, pos)
    return RequestRecord(session_id, seq, method, argument, sender_dv), pos


def _decode_command(buf: Buffer, pos: int) -> tuple[LogRecord, int]:
    session_id, pos = read_text_interned(buf, pos)
    seq, pos = read_uvarint(buf, pos)
    method, pos = read_text_interned(buf, pos)
    argument, pos = read_bytes(buf, pos)
    sender_dv, pos = _read_optional_dv(buf, pos)
    return CommandRecord(session_id, seq, method, argument, sender_dv), pos


def _decode_reply(buf: Buffer, pos: int) -> tuple[LogRecord, int]:
    session_id, pos = read_text_interned(buf, pos)
    outgoing, pos = read_text_interned(buf, pos)
    seq, pos = read_uvarint(buf, pos)
    payload, pos = read_bytes(buf, pos)
    sender_dv, pos = _read_optional_dv(buf, pos)
    return ReplyRecord(session_id, outgoing, seq, payload, sender_dv), pos


def _decode_sv_read(buf: Buffer, pos: int) -> tuple[LogRecord, int]:
    session_id, pos = read_text_interned(buf, pos)
    variable, pos = read_text_interned(buf, pos)
    value, pos = read_bytes(buf, pos)
    dv, pos = DependencyVector.decode_from_buffer(buf, pos)
    return SvReadRecord(session_id, variable, value, dv), pos


def _decode_sv_write(buf: Buffer, pos: int) -> tuple[LogRecord, int]:
    session_id, pos = read_text_interned(buf, pos)
    variable, pos = read_text_interned(buf, pos)
    value, pos = read_bytes(buf, pos)
    dv, pos = DependencyVector.decode_from_buffer(buf, pos)
    prev_write_lsn, pos = read_uvarint(buf, pos)
    return SvWriteRecord(session_id, variable, value, dv, prev_write_lsn), pos


def _decode_sv_update(buf: Buffer, pos: int) -> tuple[LogRecord, int]:
    session_id, pos = read_text_interned(buf, pos)
    variable, pos = read_text_interned(buf, pos)
    old_value, pos = read_bytes(buf, pos)
    new_value, pos = read_bytes(buf, pos)
    variable_dv, pos = DependencyVector.decode_from_buffer(buf, pos)
    writer_dv, pos = DependencyVector.decode_from_buffer(buf, pos)
    prev_write_lsn, pos = read_uvarint(buf, pos)
    return (
        SvUpdateRecord(
            session_id, variable, old_value, new_value, variable_dv, writer_dv,
            prev_write_lsn,
        ),
        pos,
    )


def _decode_filler(buf: Buffer, pos: int) -> tuple[LogRecord, int]:
    # Skip the padding without materializing it — fillers dominate the
    # log volume when record_overhead_bytes is calibrated to the paper.
    # The analysis scan counts and charges every filler it decodes here
    # but keeps none of them (``log_manager._NOT_RETAINED``).
    size, pos = read_uvarint(buf, pos)
    end = pos + size
    if end > len(buf):
        raise CodecError(f"truncated bytes field (need {size}, have {len(buf) - pos})")
    return FillerRecord(size), end


def _decode_sv_checkpoint(buf: Buffer, pos: int) -> tuple[LogRecord, int]:
    variable, pos = read_text_interned(buf, pos)
    value, pos = read_bytes(buf, pos)
    prev_write_lsn, pos = read_uvarint(buf, pos)
    count, pos = read_uvarint(buf, pos)
    frontier: dict[str, tuple[int, int]] = {}
    for _ in range(count):
        sid, pos = read_text_interned(buf, pos)
        lsn, pos = read_uvarint(buf, pos)
        ordinal, pos = read_uvarint(buf, pos)
        frontier[sid] = (lsn, ordinal)
    return SvCheckpointRecord(variable, value, prev_write_lsn, frontier), pos


def _read_uint_map(buf: Buffer, pos: int) -> tuple[dict[str, int], int]:
    """A count-prefixed ``identifier -> uint`` map."""
    count, pos = read_uvarint(buf, pos)
    out: dict[str, int] = {}
    for _ in range(count):
        key, pos = read_text_interned(buf, pos)
        out[key], pos = read_uvarint(buf, pos)
    return out, pos


def _decode_session_checkpoint(buf: Buffer, pos: int) -> tuple[LogRecord, int]:
    session_id, pos = read_text_interned(buf, pos)
    count, pos = read_uvarint(buf, pos)
    variables: dict[str, bytes] = {}
    for _ in range(count):
        name, pos = read_text_interned(buf, pos)
        variables[name], pos = read_bytes(buf, pos)
    buffered_reply = None
    has_reply, pos = _read_flag(buf, pos)
    if has_reply:
        buffered_reply, pos = read_bytes(buf, pos)
    buffered_reply_seq, pos = read_uvarint(buf, pos)
    next_expected_seq, pos = read_uvarint(buf, pos)
    outgoing_next_seq, pos = _read_uint_map(buf, pos)
    buffered_reply_error, pos = _read_flag(buf, pos)
    code, pos = read_uvarint(buf, pos)
    logging_mode = LOGGING_MODE_NAMES.get(code)
    if logging_mode is None:
        raise CodecError(f"unknown logging-mode code {code}")
    return (
        SessionCheckpointRecord(
            session_id, variables, buffered_reply, buffered_reply_seq,
            next_expected_seq, outgoing_next_seq, buffered_reply_error,
            logging_mode,
        ),
        pos,
    )


def _decode_msp_checkpoint(buf: Buffer, pos: int) -> tuple[LogRecord, int]:
    epoch, pos = read_uvarint(buf, pos)
    count, pos = read_uvarint(buf, pos)
    recovered: dict[str, dict[int, int]] = {}
    for _ in range(count):
        msp, pos = read_text_interned(buf, pos)
        nepochs, pos = read_uvarint(buf, pos)
        epochs = recovered[msp] = {}
        for _ in range(nepochs):
            ep, pos = read_uvarint(buf, pos)
            epochs[ep], pos = read_uvarint(buf, pos)
    session_start, pos = _read_uint_map(buf, pos)
    sv_start, pos = _read_uint_map(buf, pos)
    count, pos = read_uvarint(buf, pos)
    ends = []
    for _ in range(count):
        end, pos = read_uvarint(buf, pos)
        ends.append(end)
    return (
        MspCheckpointRecord(recovered, session_start, sv_start, tuple(ends), epoch),
        pos,
    )


def _decode_eos(buf: Buffer, pos: int) -> tuple[LogRecord, int]:
    session_id, pos = read_text_interned(buf, pos)
    orphan_lsn, pos = read_uvarint(buf, pos)
    return EosRecord(session_id, orphan_lsn), pos


def _decode_announcement(buf: Buffer, pos: int) -> tuple[LogRecord, int]:
    msp, pos = read_text_interned(buf, pos)
    epoch, pos = read_uvarint(buf, pos)
    recovered_lsn, pos = read_uvarint(buf, pos)
    return AnnouncementRecord(msp, epoch, recovered_lsn), pos


def _decode_session_end(buf: Buffer, pos: int) -> tuple[LogRecord, int]:
    session_id, pos = read_text_interned(buf, pos)
    return SessionEndRecord(session_id), pos


_DECODERS: dict[int, Callable[[Buffer, int], tuple[LogRecord, int]]] = {
    KIND_REQUEST: _decode_request,
    KIND_COMMAND: _decode_command,
    KIND_REPLY: _decode_reply,
    KIND_SV_READ: _decode_sv_read,
    KIND_SV_WRITE: _decode_sv_write,
    KIND_SV_UPDATE: _decode_sv_update,
    KIND_SV_CHECKPOINT: _decode_sv_checkpoint,
    KIND_SESSION_CHECKPOINT: _decode_session_checkpoint,
    KIND_MSP_CHECKPOINT: _decode_msp_checkpoint,
    KIND_EOS: _decode_eos,
    KIND_ANNOUNCEMENT: _decode_announcement,
    KIND_SESSION_END: _decode_session_end,
    KIND_FILLER: _decode_filler,
}


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
    try:
        record, pos = decoder(payload, 1)
    except IndexError:
        # The DV decoder's inlined varint reads index past the end on
        # truncated input.
        raise CodecError("truncated varint") from None
    except UnicodeDecodeError as exc:
        raise CodecError(f"identifier is not UTF-8: {exc}") from None
    if pos != len(payload):
        raise CodecError(f"{len(payload) - pos} trailing bytes after decode")
    return record
