"""Service method execution contexts.

A service method is a generator function ``method(ctx, argument)``; it
touches the world only through its context.  Two implementations share
the interface:

- :class:`NormalContext` — live execution: shared-variable access with
  locks and value logging (paper Fig. 8), outgoing calls with the
  resend-until-reply protocol and the Fig. 7 message actions.
- :class:`ReplayContext` — logged-request replay (paper §4.1): session
  variables behave normally, shared-variable reads come from the log,
  writes are skipped, outgoing requests are not sent and their replies
  come from the log.  When the log runs out — or an orphan log record is
  found (EOS is written) — the context *switches to normal execution
  mid-method* and the remaining operations run live, exactly the
  paper's "continues the action occurring at recovery end".

Because both contexts present the same API, the business code cannot
tell whether it is being replayed — the recovery infrastructure is
transparent to middleware programs, one of the paper's headline claims.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.core.checkpoint import maybe_sv_checkpoint, roll_back_sv, sv_checkpoint
from repro.core.config import COSTS
from repro.core.log_manager import LogWindowReader
from repro.core.errors import OrphanDetected, SessionProtocolError
from repro.core.messages import Reply, Request
from repro.core.records import (
    CommandRecord,
    EosRecord,
    ReplyRecord,
    RequestRecord,
    SvReadRecord,
    SvUpdateRecord,
    SvWriteRecord,
)
from repro.core.dv import StateId
from repro.sim import SimTimeoutError

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.msp import MiddlewareServer
    from repro.core.session import Session

#: How long a client/session sleeps after a busy reply (paper §5.4).
BUSY_RETRY_SLEEP_MS = 100.0
#: How long an outgoing call waits for a reply before resending.
CALL_RESEND_TIMEOUT_MS = 100.0


class NormalContext:
    """Live execution context (paper Figs. 7 and 8)."""

    is_replay = False

    def __init__(self, msp: "MiddlewareServer", session: "Session"):
        self.msp = msp
        self.session = session
        #: Command logging (DESIGN.md §16): fixed at construction, i.e.
        #: per request — the adaptive policy only flips the session's
        #: mode between requests, so one request never mixes regimes.
        self.command_request = msp.recoverable and session.logging_mode == "command"
        #: Per-variable count of this command's RMW applies — the
        #: ordinal half of the frontier pair.
        self._command_ordinals: dict[str, int] = {}

    @property
    def session_id(self) -> str:
        return self.session.id

    # -- CPU -----------------------------------------------------------------

    def compute(self, ms: float):
        """Consume ``ms`` of business-logic CPU (generator)."""
        yield from self.msp.cpu(ms)

    # -- session variables (private, never logged) ------------------------------

    def get_session_var(self, name: str):
        """Read a session variable (generator; returns bytes or None)."""
        yield from self.msp.cpu(COSTS.session_var_ms)
        return self.session.variables.get(name)

    def set_session_var(self, name: str, value: bytes):
        """Write a session variable (generator)."""
        yield from self.msp.cpu(COSTS.session_var_ms)
        self.session.variables[name] = bytes(value)

    # -- shared variables (paper Fig. 8) ------------------------------------------

    def read_shared(self, name: str):
        """Read a shared variable (generator; returns its bytes)."""
        msp, session = self.msp, self.session
        sv = msp.shared_variable(name)
        if not msp.recoverable:
            yield from sv.lock.acquire_read()
            try:
                yield from msp.cpu(COSTS.session_var_ms)
                return sv.value
            finally:
                sv.lock.release_read()

        yield from sv.lock.acquire_read()
        write_locked = False
        try:
            if sv.is_orphan(msp.table):
                # Roll the variable back ourselves (value logging makes
                # this possible without waiting on other sessions —
                # the §3.3 deadlock-avoidance argument).  Upgrade to an
                # exclusive lock first.
                sv.lock.release_read()
                yield from sv.lock.acquire_write()
                write_locked = True
                if sv.is_orphan(msp.table):
                    roll_back_sv(msp, sv)
            record = SvReadRecord(
                session_id=session.id,
                variable=name,
                value=sv.value,
                variable_dv=sv.dv.copy(),
            )
            yield from msp.append_session_record(session, record)
            yield from msp.cpu(COSTS.dv_track_ms)
            session.dv.merge(sv.dv)
            value = sv.value
        finally:
            if write_locked:
                sv.lock.release_write()
            else:
                sv.lock.release_read()
        msp.check_session_orphan(session)
        return value

    def write_shared(self, name: str, value: bytes):
        """Write a shared variable (generator)."""
        msp, session = self.msp, self.session
        sv = msp.shared_variable(name)
        yield from self._acquire_sealed(sv)
        try:
            if not msp.recoverable:
                yield from msp.cpu(COSTS.session_var_ms)
                sv.value = bytes(value)
                return
            # No orphan check of the existing value: it is being
            # replaced (paper §3.3).
            record = SvWriteRecord(
                session_id=session.id,
                variable=name,
                value=bytes(value),
                writer_dv=session.dv.copy(),
                prev_write_lsn=sv.last_write_lsn,
            )
            yield from msp.append_write_record(
                session, record, lambda lsn: sv.apply_write(lsn, value, session.dv)
            )
            yield from msp.cpu(COSTS.dv_track_ms)
        finally:
            sv.lock.release_write()
        yield from maybe_sv_checkpoint(msp, sv)
        msp.check_session_orphan(session)

    def _acquire_sealed(self, sv):
        """Acquire the write lock with the regime barrier (DESIGN.md
        §16): a value-logged write on a variable carrying unlogged
        command effects must checkpoint it first.  The logged record's
        value would embed those effects, and the recovery scan installs
        logged values *before* commands re-execute — the checkpoint's
        frontier is what makes the re-apply a no-op instead of a double
        application.  Checked under the lock (only lock holders set the
        flag), released and retried around the checkpoint."""
        msp = self.msp
        while True:
            yield from sv.lock.acquire_write()
            if not (msp.recoverable and sv.uncaptured_commands):
                return
            sv.lock.release_write()
            yield from sv_checkpoint(msp, sv)

    def update_shared(self, name: str, update):
        """Atomic read-modify-write of a shared variable (generator).

        A small extension over the paper's per-access locks: the read
        and the write happen under one write-lock span, so concurrent
        sessions cannot lose updates.  ``update`` must be a pure
        function ``bytes -> bytes``.  The RMW is captured as a single
        :class:`SvUpdateRecord` so replay consumes it atomically (a lost
        record re-executes the whole RMW live).  Returns the new value.
        """
        msp, session = self.msp, self.session
        sv = msp.shared_variable(name)
        if self.command_request:
            value = yield from self._update_shared_command(sv, update)
            return value
        yield from self._acquire_sealed(sv)
        try:
            if not msp.recoverable:
                yield from msp.cpu(COSTS.session_var_ms)
                sv.value = bytes(update(sv.value))
                return sv.value
            if sv.is_orphan(msp.table):
                roll_back_sv(msp, sv)
            old_value = sv.value
            variable_dv = sv.dv.copy()
            new_value = bytes(update(old_value))
            # One combined record: the read part (old value + the
            # variable's DV, the RMW's nondeterministic input) and the
            # write part (new value, merge edge).  The writer DV stored
            # is the session DV *after* merging the variable's — exactly
            # the dependency set the new value carries.
            merged_dv = session.dv.copy()
            merged_dv.merge(variable_dv)
            record = SvUpdateRecord(
                session_id=session.id,
                variable=name,
                old_value=old_value,
                new_value=new_value,
                variable_dv=variable_dv,
                writer_dv=merged_dv,
                prev_write_lsn=sv.last_write_lsn,
            )

            def apply(lsn):
                session.dv.merge(variable_dv)
                sv.apply_write(lsn, new_value, session.dv)

            _lsn, size = yield from msp.append_session_record(session, record, apply)
            if msp.adaptive_mode:
                # What command logging would have elided — the policy's
                # log-volume upside for this session.
                session.elidable_bytes_since_eval += size
            yield from msp.cpu(2 * COSTS.dv_track_ms)
        finally:
            sv.lock.release_write()
        yield from maybe_sv_checkpoint(msp, sv)
        msp.check_session_orphan(session)
        return new_value

    def _update_shared_command(self, sv, update):
        """Command-mode RMW (DESIGN.md §16): apply without logging.

        The command record already logged the request; recovery
        re-executes the handler, so this RMW needs no record of its own
        — the whole log-volume win.  The contract: ``update`` must be
        deterministic, commutative across sessions, and its return value
        must not feed state the client can observe exactly-once (replay
        may re-compute it against a later value).
        """
        msp, session = self.msp, self.session
        ordinal = self._command_ordinals.get(sv.name, 0)
        self._command_ordinals[sv.name] = ordinal + 1
        # The session checkpoint must seal this variable before it
        # truncates the stream holding our command record.
        session.command_touched.add(sv.name)
        yield from sv.lock.acquire_write()
        try:
            if sv.is_orphan(msp.table):
                roll_back_sv(msp, sv)
            new_value = bytes(update(sv.value))
            yield from msp.cpu(2 * COSTS.dv_track_ms)
            session.dv.merge(sv.dv)
            sv.apply_command_write(
                session.command_lsn, ordinal, new_value, session.dv, session.id
            )
        finally:
            sv.lock.release_write()
        yield from maybe_sv_checkpoint(msp, sv)
        msp.check_session_orphan(session)
        return new_value

    # -- outgoing calls (paper Fig. 7) ----------------------------------------------

    def call(self, target_msp: str, method: str, argument: bytes):
        """Synchronous RPC to another MSP (generator; returns reply bytes).

        Retries with the same sequence number until a reply arrives —
        the server deduplicates, so the call executes exactly once.
        """
        msp, session = self.msp, self.session
        call_started = msp.sim.now
        out = session.outgoing_to(target_msp)
        seq = out.next_seq
        reply_port = f"reply:{out.session_id}"
        inbox = msp.node.bind(reply_port)
        request = Request(
            session_id=out.session_id,
            seq=seq,
            method=method,
            argument=bytes(argument),
            reply_to=msp.name,
            reply_port=reply_port,
        )
        while True:
            msp.check_session_orphan(session)
            # Fig. 7 "before send".
            if msp.recoverable:
                if msp.domains.same_domain(msp.name, target_msp):
                    yield from msp.cpu(COSTS.dv_track_ms)
                    request.sender_dv = session.dv.copy()
                else:
                    yield from msp.distributed_flush(session.dv, f"session {session.id}")
                    request.sender_dv = None
            yield from msp.cpu(COSTS.message_stack_ms)
            msp.send(target_msp, "request", request)
            reply = yield from _await_reply(msp, inbox, seq)
            if reply is None:
                continue  # lost request/reply or crashed server: resend
            yield from msp.cpu(COSTS.message_stack_ms)
            if reply.busy:
                yield BUSY_RETRY_SLEEP_MS
                continue
            # Fig. 7 "after receive".
            if msp.recoverable:
                if reply.sender_dv is not None:
                    reply.sender_dv.prune_resolved(msp.table)
                    if msp.table.is_orphan(reply.sender_dv):
                        # Orphan message: discard and stop; the sender's
                        # MSP will recover it, and our resend will fetch
                        # a consistent reply.
                        msp.stats.orphan_messages_discarded += 1
                        yield BUSY_RETRY_SLEEP_MS
                        continue
                record = ReplyRecord(
                    session_id=session.id,
                    outgoing_session_id=out.session_id,
                    seq=seq,
                    payload=reply.payload,
                    sender_dv=reply.sender_dv,
                )
                yield from msp.append_session_record(session, record)
                if reply.sender_dv is not None:
                    yield from msp.cpu(COSTS.dv_track_ms)
                    session.dv.merge(reply.sender_dv)
                msp.check_session_orphan(session)
            out.next_seq = seq + 1
            if msp.adaptive_mode:
                # The round trip vanishes at replay (replies come from
                # the log); keep it out of the replay-cost estimate.
                session.call_ms_accum += msp.sim.now - call_started
            return reply.payload


def _await_reply(msp: "MiddlewareServer", inbox, seq: int):
    """Wait one resend-timeout window for the reply to ``seq``,
    draining stale duplicate replies; returns the reply or None."""
    deadline = msp.sim.now + CALL_RESEND_TIMEOUT_MS
    while True:
        remaining = deadline - msp.sim.now
        if remaining <= 0:
            return None
        try:
            envelope = yield from inbox.get_with_timeout(remaining)
        except SimTimeoutError:
            return None
        reply: Reply = envelope.payload
        if reply.seq != seq:
            continue  # stale duplicate of an earlier reply
        return reply


class OrphanRecordFound(Exception):
    """Internal: replay hit the orphan log record (paper §4.1)."""

    def __init__(self, lsn: int):
        self.lsn = lsn
        super().__init__(f"orphan log record at LSN {lsn}")


class ReplayCursor:
    """Walks a session's position stream through a 64 KB read window."""

    def __init__(self, msp: "MiddlewareServer", positions: list[int]):
        self.msp = msp
        self.positions = positions
        self.index = 0
        self._reader = LogWindowReader(msp.log)

    def has_next(self) -> bool:
        return self.index < len(self.positions)

    def fetch_next(self):
        """Read the next record (generator; returns ``(lsn, record)``).

        Checks the record's logged DV against current recovery knowledge
        and raises :class:`OrphanRecordFound` when the record turns out
        to be the orphan log record.
        """
        lsn = self.positions[self.index]
        record = yield from self._reader.fetch(lsn)
        dv = None
        if isinstance(record, (RequestRecord, CommandRecord, ReplyRecord)):
            dv = record.sender_dv
        elif isinstance(record, (SvReadRecord, SvUpdateRecord)):
            dv = record.variable_dv
        # SvWriteRecords carry the writer's own DV for the *variable's*
        # recovery; they never orphan the session (paper §4.1 lists only
        # requests, replies and shared-variable reads).
        if dv is not None:
            dv.prune_resolved(self.msp.table)
            if self.msp.table.is_orphan(dv):
                raise OrphanRecordFound(lsn)
        self.index += 1
        return lsn, record


class ReplayContext:
    """Replay-mode context; transparently switches to normal mid-method."""

    def __init__(self, msp: "MiddlewareServer", session: "Session", cursor: ReplayCursor):
        self.msp = msp
        self.session = session
        self.cursor = cursor
        self._normal: Optional[NormalContext] = None
        #: Per-request command state (DESIGN.md §16), reset by the
        #: replay driver for each logged request: True while replaying a
        #: CommandRecord (RMWs re-execute against the variable instead
        #: of consuming SvUpdate records), plus the per-variable apply
        #: ordinals for the frontier pairs.
        self.command_request = False
        self._command_ordinals: dict[str, int] = {}

    @property
    def is_replay(self) -> bool:
        return self._normal is None

    @property
    def switched(self) -> bool:
        return self._normal is not None

    @property
    def session_id(self) -> str:
        return self.session.id

    def _switch_to_normal(self) -> NormalContext:
        if self._normal is None:
            self._normal = NormalContext(self.msp, self.session)
            # A mid-method switch continues the *replayed* request: its
            # logging regime and apply ordinals carry over, whatever
            # mode the session will use for its next fresh request.
            self._normal.command_request = self.command_request
            self._normal._command_ordinals = self._command_ordinals
        return self._normal

    def _next_logged(self):
        """Fetch the next logged record, or None if replay must end.

        Ending happens when the stream is exhausted or when the orphan
        log record is found — in the latter case the EOS record is
        written and the skipped positions dropped, right here.
        """
        if not self.cursor.has_next():
            self._switch_to_normal()
            return None
        try:
            lsn, record = yield from self.cursor.fetch_next()
        except OrphanRecordFound as found:
            yield from write_eos(self.msp, self.session, found.lsn)
            self._switch_to_normal()
            return None
        return lsn, record

    # -- the ServiceContext interface -----------------------------------------

    def compute(self, ms: float):
        yield from self.msp.cpu(ms)

    def get_session_var(self, name: str):
        if self._normal is not None:
            return (yield from self._normal.get_session_var(name))
        yield from self.msp.cpu(COSTS.session_var_ms)
        return self.session.variables.get(name)

    def set_session_var(self, name: str, value: bytes):
        if self._normal is not None:
            yield from self._normal.set_session_var(name, value)
            return
        yield from self.msp.cpu(COSTS.session_var_ms)
        self.session.variables[name] = bytes(value)

    def read_shared(self, name: str):
        if self._normal is not None:
            return (yield from self._normal.read_shared(name))
        nxt = yield from self._next_logged()
        if nxt is None:
            return (yield from self._normal.read_shared(name))
        lsn, record = nxt
        if not isinstance(record, SvReadRecord) or record.variable != name:
            raise SessionProtocolError(
                f"replay divergence: expected read of {name!r}, log has {record!r}"
            )
        # "Reading a shared variable gets its value from the log" —
        # without touching the live variable or other sessions.
        yield from self.msp.cpu(COSTS.dv_track_ms)
        self.session.state_lsn = lsn
        self.session.dv.observe(self.msp.name, StateId(self.msp.epoch, lsn))
        self.session.dv.merge(record.variable_dv)
        return record.value

    def write_shared(self, name: str, value: bytes):
        if self._normal is not None:
            yield from self._normal.write_shared(name, value)
            return
        nxt = yield from self._next_logged()
        if nxt is None:
            yield from self._normal.write_shared(name, value)
            return
        _lsn, record = nxt
        if not isinstance(record, SvWriteRecord) or record.variable != name:
            raise SessionProtocolError(
                f"replay divergence: expected write of {name!r}, log has {record!r}"
            )
        # "Writing a shared variable is skipped due to the variable's
        # own separate recovery."

    def update_shared(self, name: str, update):
        """Replay of an atomic read-modify-write.

        Consumes exactly one :class:`SvUpdateRecord`: the read part
        (old value, variable DV) feeds the session's DV exactly as in
        normal execution; the write part is skipped — the variable
        recovers separately.  If the record is missing or orphan, the
        whole RMW re-executes live, atomically.
        """
        if self._normal is not None:
            return (yield from self._normal.update_shared(name, update))
        if self.command_request:
            return (yield from self._update_shared_command(name, update))
        nxt = yield from self._next_logged()
        if nxt is None:
            return (yield from self._normal.update_shared(name, update))
        lsn, record = nxt
        if not isinstance(record, SvUpdateRecord) or record.variable != name:
            raise SessionProtocolError(
                f"replay divergence: expected update of {name!r}, log has {record!r}"
            )
        yield from self.msp.cpu(2 * COSTS.dv_track_ms)
        self.session.state_lsn = lsn
        self.session.dv.observe(self.msp.name, StateId(self.msp.epoch, lsn))
        self.session.dv.merge(record.variable_dv)
        return bytes(update(record.old_value))

    def _update_shared_command(self, name: str, update):
        """Replay of a command-mode RMW (DESIGN.md §16): re-execute.

        No record was logged, so nothing is consumed from the stream;
        the effect is re-derived against the recovered variable.  The
        frontier guard makes the re-execution idempotent: an apply whose
        ``(command lsn, ordinal)`` the variable's recovered frontier
        already covers was captured by a checkpointed or logged value
        and must not be applied twice.
        """
        msp, session = self.msp, self.session
        sv = msp.shared_variable(name)
        ordinal = self._command_ordinals.get(name, 0)
        self._command_ordinals[name] = ordinal + 1
        # Replayed applies count too: the rebuilt session's next
        # checkpoint truncates the stream just the same.
        session.command_touched.add(name)
        yield from sv.lock.acquire_write()
        try:
            if sv.is_orphan(msp.table):
                roll_back_sv(msp, sv)
            yield from msp.cpu(2 * COSTS.dv_track_ms)
            session.dv.merge(sv.dv)
            lsn = session.command_lsn
            if (lsn, ordinal) <= sv.command_frontier.get(session.id, (-1, -1)):
                # Captured: the recovered value already includes this
                # apply.  The return value is the current value — the
                # contract forbids feeding it into exactly-once state.
                return bytes(sv.value)
            new_value = bytes(update(sv.value))
            sv.apply_command_write(lsn, ordinal, new_value, session.dv, session.id)
            return new_value
        finally:
            sv.lock.release_write()

    def call(self, target_msp: str, method: str, argument: bytes):
        if self._normal is not None:
            return (yield from self._normal.call(target_msp, method, argument))
        out = self.session.outgoing_to(target_msp)
        nxt = yield from self._next_logged()
        if nxt is None:
            return (yield from self._normal.call(target_msp, method, argument))
        lsn, record = nxt
        if (
            not isinstance(record, ReplyRecord)
            or record.outgoing_session_id != out.session_id
            or record.seq != out.next_seq
        ):
            raise SessionProtocolError(
                f"replay divergence: expected reply seq {out.next_seq} from "
                f"{out.session_id!r}, log has {record!r}"
            )
        # "Requests to other MSPs are not sent, and their reply is read
        # from the log."  Sequence numbers advance exactly as live.
        yield from self.msp.cpu(COSTS.dv_track_ms)
        self.session.state_lsn = lsn
        self.session.dv.observe(self.msp.name, StateId(self.msp.epoch, lsn))
        if record.sender_dv is not None:
            self.session.dv.merge(record.sender_dv)
        out.next_seq += 1
        return record.payload


def write_eos(msp: "MiddlewareServer", session: "Session", orphan_lsn: int):
    """Terminate skipping: truncate the stream, write the EOS record.

    Paper §4.1: the EOS points back at the orphan log record; it does
    not need to be flushed — if it is lost, recovery simply skips from
    the orphan record to the log end, which is equally correct.
    """
    session.position_stream.remove_from(orphan_lsn)
    record = EosRecord(session_id=session.id, orphan_lsn=orphan_lsn)
    yield from msp.cpu(COSTS.log_append_ms)
    _lsn, size = msp.log.append(record)
    session.bytes_since_ckpt += size
