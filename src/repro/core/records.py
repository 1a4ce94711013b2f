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
from repro.wire import Decoder, Encoder
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

#: Sentinel "no previous write" value for backward chains.
NO_LSN = 0xFFFFFFFFFFFF

#: Per-session logging-mode codes for the session checkpoint's optional
#: trailing field (omitted for "value", keeping those bytes identical).
LOGGING_MODE_CODES = {"value": 0, "command": 1}
LOGGING_MODE_NAMES = {code: name for name, code in LOGGING_MODE_CODES.items()}

# -- compiled-codec helpers ---------------------------------------------------
#
# The high-frequency record kinds (request, reply, SV read/write/update
# and filler) bypass the chained Encoder/Decoder with precompiled
# ``struct.Struct`` packers and the module-level varint fast paths of
# :mod:`repro.wire.codec`.  The byte format is *identical* to the
# general path — asserted by the golden-bytes tests — only the Python
# overhead (one Encoder object plus a method call per field) is gone.

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

    ``prev_write_lsn`` chains write records backward so orphan rollback
    can walk to the most recent non-orphan value; the chain breaks at
    checkpoints.
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
    backward chain link).  Replay consumes exactly one record per RMW,
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
    no DV needs to be stored and the backward chain breaks here.
    ``version`` is the variable's write-version counter at checkpoint
    time (always 0 under value logging; kept for the record's bytes).

    ``prev_write_lsn`` is an optional trailing field written only by
    partitioned logs (DESIGN.md §14): the lsn of the write this
    checkpoint seals.  The recovery merge needs that edge to order the
    checkpoint (control partition) after the writes it covers (session
    partitions); in a single-partition log the scan order already says
    so and the field is omitted, keeping the bytes identical.

    ``command_frontier`` is a second optional trailing field written
    only when the variable carries command-mode RMW effects (DESIGN.md
    §16): per command session, the ``(lsn, ordinal)`` of the most recent
    command RMW whose effect is included in the checkpointed value.
    Recovery restores it so a re-executed command re-applies its RMW
    exactly when its pair lies beyond the frontier.  When present, the
    ``prev_write_lsn`` block is always written first (``NO_LSN`` for a
    single-partition log) so the two exhaustion-gated trailing fields
    decode unambiguously.  Value logging leaves the frontier empty and
    the encoding byte-identical.
    """

    variable: str
    value: bytes
    version: int = 0
    prev_write_lsn: Optional[int] = None
    command_frontier: dict[str, tuple[int, int]] = field(default_factory=dict)
    kind: int = field(default=KIND_SV_CHECKPOINT, init=False)

    def encode(self) -> bytes:
        enc = (
            Encoder()
            .uint(self.kind)
            .text(self.variable)
            .raw(self.value)
            .uint(self.version)
        )
        if self.prev_write_lsn is not None or self.command_frontier:
            enc.uint(self.prev_write_lsn if self.prev_write_lsn is not None else NO_LSN)
        if self.command_frontier:
            enc.uint(len(self.command_frontier))
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

    ``logging_mode`` is an optional trailing field written only when the
    session is not value-logging (DESIGN.md §16): recovery must know how
    to interpret the log suffix after this checkpoint — value records to
    reinstall, or command records to re-execute.  Value mode omits it,
    keeping the bytes identical to previous releases.
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
        if self.logging_mode != "value":
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

    ``partition_ends`` is an optional trailing field written only by
    partitioned logs: the end offset of every partition at checkpoint
    time.  A partition none of the start-lsns name still needs a scan
    start and truncation floor — its end at the anchor point.  The
    single-partition log omits it (byte-identical encoding).
    """

    recovered_snapshot: dict[str, dict[int, int]]
    session_start_lsns: dict[str, int]  #: session id -> scan-start LSN
    sv_start_lsns: dict[str, int]  #: variable -> scan-start LSN
    epoch: int = 0
    partition_ends: tuple[int, ...] = ()
    kind: int = field(default=KIND_MSP_CHECKPOINT, init=False)

    def min_lsn(self, own_lsn: int) -> int:
        """Start point of the crash-recovery log scan."""
        candidates = [own_lsn]
        candidates.extend(self.session_start_lsns.values())
        candidates.extend(self.sv_start_lsns.values())
        return min(candidates)

    def partition_floors(self, own_lsn: int) -> list[int]:
        """Per-partition scan starts / truncation floors.

        For each partition, the minimum offset among the start lsns
        that live in it; partitions nothing names default to their end
        at checkpoint time.  ``own_lsn`` is the checkpoint record's own
        (control-partition) lsn.  Session starts are scalar plsns (one
        session, one partition); shared-variable starts are packed
        frontiers (the chain spans the writers' partitions — see
        ``SharedVariable.scan_start_frontier``).

        A checkpoint that wrote no ``partition_ends`` block is a
        single log's: its one floor is the minimal LSN.
        """
        from repro.core.plsn import decode_frontier, is_frontier

        if not self.partition_ends:
            return [self.min_lsn(own_lsn)]
        floors = list(self.partition_ends)
        candidates = [own_lsn]
        candidates.extend(self.session_start_lsns.values())
        candidates.extend(self.sv_start_lsns.values())
        for lsn in candidates:
            if is_frontier(lsn):
                for partition, offset in enumerate(decode_frontier(lsn)):
                    if partition < len(floors) and offset < floors[partition]:
                        floors[partition] = offset
                continue
            partition = lsn >> 48
            offset = lsn & ((1 << 48) - 1)
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
        if self.partition_ends:
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


def _decode_optional_dv(dec: Decoder) -> Optional[DependencyVector]:
    if dec.boolean():
        return DependencyVector.decode_from(dec)
    return None


# -- compiled decoders for the high-frequency kinds ---------------------------


def _read_optional_dv(buf: Buffer, pos: int) -> tuple[Optional[DependencyVector], int]:
    flag, pos = read_uvarint(buf, pos)
    if flag == 0:
        return None, pos
    if flag != 1:
        raise CodecError(f"bad boolean value {flag}")
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


_FAST_DECODERS: dict[int, Callable[[Buffer, int], tuple[LogRecord, int]]] = {
    KIND_REQUEST: _decode_request,
    KIND_COMMAND: _decode_command,
    KIND_REPLY: _decode_reply,
    KIND_SV_READ: _decode_sv_read,
    KIND_SV_WRITE: _decode_sv_write,
    KIND_SV_UPDATE: _decode_sv_update,
    KIND_FILLER: _decode_filler,
}


def decode_record(payload: Buffer) -> LogRecord:
    """Parse one log record from its encoded payload (bytes or view)."""
    if len(payload) > 0 and payload[0] < 0x80:
        fast = _FAST_DECODERS.get(payload[0])
        if fast is not None:
            try:
                record, pos = fast(payload, 1)
            except IndexError:
                # Inlined varint reads index past the end on truncated
                # input; report it like the chained Decoder would.
                raise CodecError("truncated varint") from None
            if pos != len(payload):
                raise CodecError(f"{len(payload) - pos} trailing bytes after decode")
            return record
    return _decode_record_general(payload)


def _decode_record_general(payload: Buffer) -> LogRecord:
    """General chained-Decoder path (checkpoints and rare kinds)."""
    dec = Decoder(payload)
    kind = dec.uint()
    if kind == KIND_REQUEST:
        record: LogRecord = RequestRecord(
            session_id=dec.text(),
            seq=dec.uint(),
            method=dec.text(),
            argument=dec.raw(),
            sender_dv=_decode_optional_dv(dec),
        )
    elif kind == KIND_COMMAND:
        record = CommandRecord(
            session_id=dec.text(),
            seq=dec.uint(),
            method=dec.text(),
            argument=dec.raw(),
            sender_dv=_decode_optional_dv(dec),
        )
    elif kind == KIND_REPLY:
        record = ReplyRecord(
            session_id=dec.text(),
            outgoing_session_id=dec.text(),
            seq=dec.uint(),
            payload=dec.raw(),
            sender_dv=_decode_optional_dv(dec),
        )
    elif kind == KIND_SV_READ:
        record = SvReadRecord(
            session_id=dec.text(),
            variable=dec.text(),
            value=dec.raw(),
            variable_dv=DependencyVector.decode_from(dec),
        )
    elif kind == KIND_SV_WRITE:
        record = SvWriteRecord(
            session_id=dec.text(),
            variable=dec.text(),
            value=dec.raw(),
            writer_dv=DependencyVector.decode_from(dec),
            prev_write_lsn=dec.uint(),
        )
    elif kind == KIND_SV_CHECKPOINT:
        record = SvCheckpointRecord(variable=dec.text(), value=dec.raw(), version=dec.uint())
        if not dec.exhausted:
            prev = dec.uint()
            record.prev_write_lsn = None if prev == NO_LSN else prev
        if not dec.exhausted:
            for _ in range(dec.uint()):
                sid = dec.text()
                record.command_frontier[sid] = (dec.uint(), dec.uint())
    elif kind == KIND_SESSION_CHECKPOINT:
        session_id = dec.text()
        variables = {}
        for _ in range(dec.uint()):
            name = dec.text()
            variables[name] = dec.raw()
        buffered_reply = dec.raw() if dec.boolean() else None
        record = SessionCheckpointRecord(
            session_id=session_id,
            variables=variables,
            buffered_reply=buffered_reply,
            buffered_reply_seq=dec.uint(),
            next_expected_seq=dec.uint(),
            outgoing_next_seq={dec.text(): dec.uint() for _ in range(dec.uint())},
            buffered_reply_error=dec.boolean(),
        )
        if not dec.exhausted:
            record.logging_mode = LOGGING_MODE_NAMES[dec.uint()]
    elif kind == KIND_MSP_CHECKPOINT:
        epoch = dec.uint()
        recovered: dict[str, dict[int, int]] = {}
        for _ in range(dec.uint()):
            msp = dec.text()
            recovered[msp] = {dec.uint(): dec.uint() for _ in range(dec.uint())}
        session_start = {dec.text(): dec.uint() for _ in range(dec.uint())}
        sv_start = {dec.text(): dec.uint() for _ in range(dec.uint())}
        ends: tuple[int, ...] = ()
        if not dec.exhausted:
            ends = tuple(dec.uint() for _ in range(dec.uint()))
        record = MspCheckpointRecord(
            recovered_snapshot=recovered,
            session_start_lsns=session_start,
            sv_start_lsns=sv_start,
            epoch=epoch,
            partition_ends=ends,
        )
    elif kind == KIND_EOS:
        record = EosRecord(session_id=dec.text(), orphan_lsn=dec.uint())
    elif kind == KIND_ANNOUNCEMENT:
        record = AnnouncementRecord(msp=dec.text(), epoch=dec.uint(), recovered_lsn=dec.uint())
    elif kind == KIND_SESSION_END:
        record = SessionEndRecord(session_id=dec.text())
    elif kind == KIND_FILLER:
        record = FillerRecord(size=len(dec.raw()))
    elif kind == KIND_SV_UPDATE:
        record = SvUpdateRecord(
            session_id=dec.text(),
            variable=dec.text(),
            old_value=dec.raw(),
            new_value=dec.raw(),
            variable_dv=DependencyVector.decode_from(dec),
            writer_dv=DependencyVector.decode_from(dec),
            prev_write_lsn=dec.uint(),
        )
    else:
        raise ValueError(f"unknown log record kind {kind}")
    dec.expect_end()
    return record
