"""The service method execution context.

A service method is a generator function ``method(ctx, argument)``; it
touches the world only through its :class:`ServiceContext`.  There is
one context, and replay is live execution fed from the log (paper
§4.1): given a :class:`ReplayCursor` over the session's position stream,
each nondeterministic input — a shared-variable read, the read half of
an atomic update, the reply to an outgoing call — is taken from the
session's next logged record instead of from the world, and writes the
variable's own recovery will redo are skipped.  Without a cursor, or
once it runs out or reaches the orphan log record (EOS is written), the
same operations run live: shared-variable access with locks and value
logging (paper Fig. 8), outgoing calls with the resend-until-reply
protocol and the Fig. 7 message actions — exactly the paper's
"continues the action occurring at recovery end".

Because live and replayed execution are the same code, the business
code cannot tell whether it is being replayed — the recovery
infrastructure is transparent to middleware programs, one of the
paper's headline claims.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.core.checkpoint import maybe_sv_checkpoint, roll_back_sv, sv_checkpoint
from repro.core.config import COSTS
from repro.core.log_manager import LogWindowReader
from repro.core.errors import SessionProtocolError
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
from repro.sim import SimTimeoutError

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.msp import MiddlewareServer
    from repro.core.session import Session

#: How long a client/session sleeps after a busy reply (paper §5.4).
BUSY_RETRY_SLEEP_MS = 100.0
#: How long an outgoing call waits for a reply before resending.
CALL_RESEND_TIMEOUT_MS = 100.0


class ReplayCursor:
    """A session's position stream, read through a 64 KB window."""

    def __init__(self, msp: "MiddlewareServer", positions: list[int]):
        self.positions = positions
        #: The position of the next logged input.
        self.index = 0
        self.reader = LogWindowReader(msp.log)

    def has_next(self) -> bool:
        return self.index < len(self.positions)


class ServiceContext:
    """Live execution (paper Figs. 7 and 8), fed from the log while
    replaying (paper §4.1)."""

    def __init__(
        self,
        msp: "MiddlewareServer",
        session: "Session",
        cursor: Optional[ReplayCursor] = None,
    ):
        self.msp = msp
        self.session = session
        #: The logged inputs still to replay; None once execution is live.
        self.cursor = cursor
        self.begin_request(msp.recoverable and msp.command_mode)

    @property
    def is_replay(self) -> bool:
        return self.cursor is not None

    @property
    def session_id(self) -> str:
        return self.session.id

    def begin_request(self, command: bool) -> None:
        """Fix the logging regime (DESIGN.md §16) per request: one request
        never mixes regimes, even when its replay goes live mid-method."""
        #: True for a command-logged request: its RMWs apply without
        #: logging, and replay re-executes them against the variable.
        self.command_request = command
        #: Per-variable count of this command's RMW applies — the
        #: ordinal half of the frontier pair.
        self._command_ordinals: dict[str, int] = {}

    # -- the logged input ------------------------------------------------------

    def logged_input(self, expected: str, matches):
        """The next logged input while replaying (generator; returns
        ``(lsn, record)``, or None when the caller must run live).

        Replay ends here, and only here: when the stream is exhausted,
        or when the next record turns out to be the orphan log record —
        then the EOS record is written and the rest of the method runs
        live.  A record ``matches`` rejects is a replay divergence: the
        method asked for a different input than the one it logged.
        """
        cursor = self.cursor
        if cursor is None:
            return None
        if not cursor.has_next():
            self.cursor = None
            return None
        lsn = cursor.positions[cursor.index]
        record = yield from cursor.reader.fetch(lsn)
        dv = None
        if isinstance(record, (RequestRecord, CommandRecord, ReplyRecord)):
            dv = record.sender_dv
        elif isinstance(record, (SvReadRecord, SvUpdateRecord)):
            dv = record.variable_dv
        # SvWriteRecords carry the writer's own DV for the *variable's*
        # recovery; they never orphan the session (paper §4.1 lists only
        # requests, replies and shared-variable reads).
        if dv is not None:
            if dv.resolve(self.msp.table):
                # Terminate skipping: truncate the stream, write the EOS
                # record.  It points back at the orphan log record and
                # need not be flushed — if it is lost, recovery simply
                # skips from the orphan record to the log end, which is
                # equally correct (paper §4.1).
                self.session.position_stream.remove_from(lsn)
                yield from self.msp.cpu(COSTS.log_append_ms)
                _lsn, size = self.msp.log.append(EosRecord(self.session.id, orphan_lsn=lsn))
                self.session.bytes_since_ckpt += size
                self.cursor = None
                return None
        cursor.index += 1
        if not matches(record):
            raise SessionProtocolError(
                f"replay divergence: expected {expected} at {lsn}, log has {record!r}"
            )
        return lsn, record

    def _consume(self, lsn: int, dv) -> None:
        """Take a logged input in as live execution did: the state
        number moves to its record, the DV merges what it carried."""
        self.session.advance_state(lsn, self.msp.epoch)
        if dv is not None:
            self.session.dv.merge(dv)

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
        logged = yield from self.logged_input(
            f"read of {name!r}",
            lambda record: isinstance(record, SvReadRecord) and record.variable == name,
        )
        if logged is not None:
            # "Reading a shared variable gets its value from the log" —
            # without touching the live variable or other sessions.
            lsn, record = logged
            yield from self.msp.cpu(COSTS.dv_track_ms)
            self._consume(lsn, record.variable_dv)
            return record.value
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
        logged = yield from self.logged_input(
            f"write of {name!r}",
            lambda record: isinstance(record, SvWriteRecord) and record.variable == name,
        )
        if logged is not None:
            # "Writing a shared variable is skipped due to the variable's
            # own separate recovery."
            return
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
        :class:`SvUpdateRecord` so replay consumes it atomically: the
        read part (old value, variable DV) feeds the session's DV
        exactly as in live execution, and the write part is skipped —
        the variable recovers separately.  A missing or orphan record
        re-executes the whole RMW live.  Returns the new value.
        """
        if self.command_request:
            return (yield from self._update_shared_command(name, update))
        logged = yield from self.logged_input(
            f"update of {name!r}",
            lambda record: isinstance(record, SvUpdateRecord) and record.variable == name,
        )
        if logged is not None:
            lsn, record = logged
            yield from self.msp.cpu(2 * COSTS.dv_track_ms)
            self._consume(lsn, record.variable_dv)
            return bytes(update(record.old_value))
        msp, session = self.msp, self.session
        sv = msp.shared_variable(name)
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

            yield from msp.append_session_record(session, record, apply)
            yield from msp.cpu(2 * COSTS.dv_track_ms)
        finally:
            sv.lock.release_write()
        yield from maybe_sv_checkpoint(msp, sv)
        msp.check_session_orphan(session)
        return new_value

    def _update_shared_command(self, name: str, update):
        """Command-mode RMW (DESIGN.md §16): apply without logging.

        The command record already logged the request; recovery
        re-executes the handler, so this RMW needs no record of its own
        — the whole log-volume win.  The contract: ``update`` must be
        deterministic, commutative across sessions, and its return value
        must not feed state the client can observe exactly-once (replay
        may re-compute it against a later value).

        Replayed, nothing is consumed from the stream: the effect is
        re-derived against the recovered variable.  The frontier guard
        makes the re-execution idempotent: an apply whose ``(command
        lsn, ordinal)`` the variable's recovered frontier already covers
        was captured by a checkpointed or logged value and must not be
        applied twice.
        """
        msp, session = self.msp, self.session
        replaying = self.is_replay
        sv = msp.shared_variable(name)
        ordinal = self._command_ordinals.get(name, 0)
        self._command_ordinals[name] = ordinal + 1
        # The session checkpoint must seal this variable before it
        # truncates the stream holding our command record; replayed
        # applies count too, the rebuilt session's next checkpoint
        # truncates the stream just the same.
        session.command_touched.add(name)
        yield from sv.lock.acquire_write()
        try:
            if sv.is_orphan(msp.table):
                roll_back_sv(msp, sv)
            lsn = session.command_lsn
            # Captured: the recovered value already includes this apply.
            # The return value is then the current value — the contract
            # forbids feeding it into exactly-once state.
            captured = replaying and (lsn, ordinal) <= sv.command_frontier.get(
                session.id, (-1, -1)
            )
            new_value = bytes(sv.value if captured else update(sv.value))
            yield from msp.cpu(2 * COSTS.dv_track_ms)
            session.dv.merge(sv.dv)
            if not captured:
                sv.apply_command_write(lsn, ordinal, new_value, session.dv, session.id)
        finally:
            sv.lock.release_write()
        # Like every replayed access, a replayed apply leaves the SV
        # checkpoint to live writes and the orphan check to
        # ``_replay_stream``'s interception between requests.
        if not replaying:
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
        out = session.outgoing_to(target_msp)
        seq = out.next_seq
        logged = yield from self.logged_input(
            f"reply seq {seq} from {out.session_id!r}",
            lambda record: isinstance(record, ReplyRecord)
            and record.outgoing_session_id == out.session_id
            and record.seq == seq,
        )
        if logged is not None:
            # "Requests to other MSPs are not sent, and their reply is
            # read from the log."  Sequence numbers advance exactly as
            # live.
            lsn, record = logged
            yield from self.msp.cpu(COSTS.dv_track_ms)
            self._consume(lsn, record.sender_dv)
            out.next_seq = seq + 1
            return record.payload
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
            reply = yield from await_reply(msp, inbox, seq)
            if reply is None:
                continue  # lost request/reply or crashed server: resend
            yield from msp.cpu(COSTS.message_stack_ms)
            if reply.busy:
                yield BUSY_RETRY_SLEEP_MS
                continue
            # Fig. 7 "after receive".
            if msp.recoverable:
                if reply.sender_dv is not None:
                    if reply.sender_dv.resolve(msp.table):
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
            return reply.payload


def await_reply(msp: "MiddlewareServer", inbox, seq: int):
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

