"""Session recovery: logged-request replay (paper §4.1).

The same engine drives both *session orphan recovery* (the session's MSP
is alive but the session depends on lost remote state) and *session
recovery after the crash-recovery scan* (§4.3): re-initialize from the
most recent session checkpoint, then re-execute the logged requests by
following the position stream.  Replay is live execution fed from the
log: each method runs in a :class:`~repro.core.context.ServiceContext`
given a cursor over the stream, whose one logged-input step feeds every
nondeterministic event — the requests included — from the log, and
ends replay at the stream's end or at the orphan log record (writing
EOS), after which the method under way continues live.

Multiple concurrent crashes are handled by restarting the pass: if new
recovery knowledge arrives mid-replay and invalidates already-replayed
state, the pass is restarted from the checkpoint and this time stops at
the (now detectable) orphan log record, writes the EOS record and
switches to live execution — one EOS per crash at most, the invariant
behind the paper's Fig. 11 pair combinations.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.context import ReplayCursor, ServiceContext
from repro.core.config import COSTS
from repro.core.errors import FlushFailed, OrphanDetected, SessionProtocolError
from repro.core.log_manager import LogWindowReader
from repro.core.records import CommandRecord, RequestRecord, SessionCheckpointRecord
from repro.core.session import Session, SessionStatus

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.msp import MiddlewareServer


class _RestartReplay(Exception):
    """Internal: fresh recovery knowledge invalidated replayed state."""


def run_session_recovery(msp: "MiddlewareServer", session: Session, orphan: bool):
    """Recover one session to its most recent non-orphan state (generator).

    New requests for the session are bounced with busy replies while it
    runs (status RECOVERING); other sessions keep executing normally —
    the recovery-independence property.
    """
    session.status = SessionStatus.RECOVERING
    tracer = msp.sim.tracer
    span = None
    if tracer is not None:
        span = tracer.span(
            "recovery.session", owner=msp.name, session=session.id, orphan=orphan
        )
    passes = 0
    opened = True
    try:
        while True:
            passes += 1
            cursor = None
            try:
                yield from _restore_checkpoint(msp, session)
                cursor = ReplayCursor(msp, list(session.position_stream.positions()))
                yield from _replay_stream(msp, session, cursor)
                break
            except _RestartReplay:
                continue
    except (OrphanDetected, FlushFailed):
        # The live tail of the last replayed request found the session
        # an orphan again: it opens as it is, and the next interception
        # point starts orphan recovery.
        raise
    except Exception as exc:
        # Only a completed replay opens the session: a half-replayed one
        # stays RECOVERING (its clients get busy replies) until a restart
        # rebuilds it from the log.  A kill is GeneratorExit, not this.
        opened = False
        msp.failed_replays += 1
        at = None  # the checkpoint fetch failed, or the stream was exhausted
        if cursor is not None and cursor.has_next():
            at = cursor.positions[cursor.index]
        # Same exception, same traceback; the message says whose replay.
        exc.args = (
            f"{msp.name}: replay of session {session.id} from checkpoint "
            f"{session.last_ckpt_lsn} failed at stream LSN {at}: {exc}",
        ) + exc.args[1:]
        raise
    finally:
        if span is not None:
            span.end(passes=passes)
        if opened:
            session.status = SessionStatus.NORMAL
            session.recovery_pending = False
    if orphan:
        msp.stats.orphan_recoveries += 1


def _restore_checkpoint(msp: "MiddlewareServer", session: Session):
    """Pass step 1: re-initialize from the most recent session checkpoint."""
    if session.last_ckpt_lsn is not None:
        reader = LogWindowReader(msp.log)
        record = yield from reader.fetch(session.last_ckpt_lsn)
        if not isinstance(record, SessionCheckpointRecord) or record.session_id != session.id:
            raise SessionProtocolError(
                f"bad session checkpoint for {session.id} at {session.last_ckpt_lsn}: {record!r}"
            )
        if record.logging_mode != msp.config.logging_mode:
            # The log was written under the other logging regime: its
            # suffix cannot be replayed by this MSP's (DESIGN.md §16).
            raise SessionProtocolError(
                f"session checkpoint for {session.id} at {session.last_ckpt_lsn} "
                f"was logged in {record.logging_mode} mode, this MSP logs "
                f"in {msp.config.logging_mode} mode"
            )
        session.restore_checkpoint(record)
    else:
        session.reset_fresh()


def _replay_stream(msp: "MiddlewareServer", session: Session, cursor: ReplayCursor):
    """Pass step 2, redo recovery: replay logged requests along the
    position stream."""
    ctx = ServiceContext(msp, session, cursor)
    while True:
        logged = yield from ctx.logged_input(
            "a request record",
            lambda record: isinstance(record, (RequestRecord, CommandRecord)),
        )
        if logged is None:
            # Stream exhausted, or the orphan log record is a request
            # (EOS written): back to waiting for new requests.
            return
        lsn, record = logged
        yield from _replay_request(msp, session, ctx, lsn, record)
        if not ctx.is_replay:
            return  # the request went live mid-method and completed live
        # Interception between requests: knowledge that arrived while we
        # replayed may have orphaned what we just rebuilt.
        if session.is_orphan(msp.table):
            raise _RestartReplay


def _replay_request(
    msp: "MiddlewareServer",
    session: Session,
    ctx: ServiceContext,
    lsn: int,
    record: "RequestRecord | CommandRecord",
):
    """Re-execute one logged request (paper §4.1 replay rules)."""
    yield from msp.cpu(COSTS.replay_dispatch_ms)
    # Command logging (DESIGN.md §16): each request replays under the
    # regime its record kind says it was logged with.
    is_command = isinstance(record, CommandRecord)
    ctx.begin_request(is_command)
    session.command_lsn = lsn if is_command else None
    # Receive effects, replayed: state number and DV move exactly as
    # they did in normal execution.
    session.advance_state(lsn, msp.epoch)
    if record.sender_dv is not None:
        yield from msp.cpu(COSTS.dv_track_ms)
        session.dv.merge(record.sender_dv)

    if record.method not in msp._services:
        # The original execution rejected this unknown method; replay
        # reproduces the same permanent-error outcome.
        session.buffer_reply(record.seq, b"unknown method", error=True)
        return

    method = msp.service(record.method)
    result = yield from method(ctx, record.argument)
    if not isinstance(result, bytes):
        raise SessionProtocolError(
            f"{msp.name}.{record.method} returned {type(result).__name__} during replay"
        )
    # The reply is buffered, not sent: if the client never received the
    # original reply it will resend the request, and the duplicate
    # detection path serves the buffered copy — exactly-once execution.
    session.buffer_reply(record.seq, result)
    msp.stats.replayed_requests += 1
    if is_command:
        msp.stats.replayed_commands += 1
