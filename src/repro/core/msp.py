"""The Middleware Server Process (paper §2).

A :class:`MiddlewareServer` hosts service methods behind a request queue
and a thread pool, maintains session state and shared variables, logs
nondeterministic events to its single shared physical log, and recovers
from crashes.  The normal-execution message actions follow paper Fig. 7,
shared-variable accesses follow Fig. 8, and the crash lifecycle is:

    start() -> crash() -> restart() [runs Fig. 12 crash recovery]

Service methods are generator functions ``method(ctx, argument: bytes)``
returning reply bytes; they interact with the world only through the
:class:`~repro.core.context.ServiceContext` they are given, which is how
the same business code runs identically in normal execution and in
logged-request replay.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Generator, Optional

from repro.core.checkpoint import (
    maybe_session_checkpoint,
    msp_checkpoint_daemon,
    perform_msp_checkpoint,
)
from repro.core.config import LoggingMode, RecoveryConfig
from repro.core.context import BUSY_RETRY_SLEEP_MS, NormalContext, _await_reply
from repro.core.crash_recovery import recover_msp, recover_session
from repro.core.domain import ServiceDomainConfig
from repro.core.dv import RecoveryTable
from repro.core.errors import FlushFailed, OrphanDetected, SessionProtocolError
from repro.core.flush import distributed_flush, flush_service
from repro.core.log_manager import LogManager
from repro.core.messages import (
    AnnouncementAck,
    RecoveryAnnouncement,
    Reply,
    Request,
)
from repro.core.records import (
    AnnouncementRecord,
    CommandRecord,
    LogRecord,
    RequestRecord,
    SessionEndRecord,
)
from repro.core.replay import run_session_recovery
from repro.core.session import Session, SessionStatus
from repro.core.shared_variable import SharedVariable
from repro.net import Network
from repro.sim import ProcessGroup, Resource, RngRegistry, Simulator
from repro.storage import Disk, DiskModel, StableStore

ServiceMethod = Callable[..., Generator]


@dataclass
class MspStats:
    """Everything the experiment harness reads off one MSP."""

    requests_processed: int = 0
    requests_duplicate: int = 0
    requests_out_of_order: int = 0
    #: Resent session ends acked idempotently after the session was
    #: already discarded (the first ack was lost in transit).
    duplicate_end_acks: int = 0
    busy_replies: int = 0
    buffered_reply_resends: int = 0
    orphan_messages_discarded: int = 0
    distributed_flushes: int = 0
    #: Flush acks discarded because their req_id did not match the
    #: in-flight request (duplicate deliveries, timeout-raced replies).
    stale_flush_acks: int = 0
    session_checkpoints: int = 0
    sv_checkpoints: int = 0
    msp_checkpoints: int = 0
    forced_checkpoints: int = 0
    crashes: int = 0
    recoveries: int = 0
    protocol_errors: int = 0
    orphan_recoveries: int = 0
    sv_rollbacks: int = 0
    replayed_requests: int = 0
    recovery_scan_records: int = 0
    recovery_scan_ms: float = 0.0
    #: Session replays after a restart (DESIGN.md §15), by who claimed
    #: the session: its next request inline, or a drain worker.  Their
    #: sum is the number of sessions replayed, in either recovery mode.
    inline_recoveries: int = 0
    pump_recoveries: int = 0
    #: Invariant counter — a request entering normal processing while
    #: its session was still unreplayed.  Must stay 0.
    served_before_recovery: int = 0
    #: Command/value adaptive logging (DESIGN.md §16): requests logged
    #: as command records, commands re-executed at replay, and adaptive
    #: policy mode switches.
    command_requests: int = 0
    replayed_commands: int = 0
    mode_switches: int = 0
    #: Sessions ended server-side by the idle-expiry sweep
    #: (config.session_idle_timeout_ms).
    sessions_expired: int = 0
    #: Ends propagated to implicit downstream hop sessions when a
    #: session of ours ended (client end or expiry), split by outcome:
    #: acknowledged by the downstream MSP vs abandoned after the retry
    #: budget (idle expiry remains the backstop there).
    downstream_ends_sent: int = 0
    downstream_ends_abandoned: int = 0


class MiddlewareServer:
    """One recoverable middleware server process on its own node."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        name: str,
        domains: ServiceDomainConfig,
        config: Optional[RecoveryConfig] = None,
        rng: Optional[RngRegistry] = None,
        disk_model: Optional[DiskModel] = None,
    ):
        self.sim = sim
        self.network = network
        self.name = name
        self.domains = domains
        self.config = config or RecoveryConfig()
        self.config.validate()
        self.node = network.node(name)
        rng = rng or RngRegistry(0)
        # One store+disk pair per log partition (DESIGN.md §14); element
        # 0 is the control partition and keeps the historical names so
        # a partitions=1 run is indistinguishable from the old layout.
        nparts = self.config.log_partitions
        self.disks = [
            Disk(
                sim,
                model=disk_model or DiskModel(),
                rng=rng.stream(f"disk.{name}" if i == 0 else f"disk.{name}.p{i}"),
                name=f"disk.{name}" if i == 0 else f"disk.{name}.p{i}",
            )
            for i in range(nparts)
        ]
        self.stores = [
            StableStore(
                name=f"log.{name}" if i == 0 else f"log.{name}.p{i}",
                segment_bytes=self.config.log_segment_bytes,
            )
            for i in range(nparts)
        ]
        self.disk = self.disks[0]
        self.store = self.stores[0]
        self._cpu = Resource(sim, capacity=self.config.cpu_cores, name=f"cpu.{name}")
        self.table = RecoveryTable()
        self.epoch = 0
        self.sessions: dict[str, Session] = {}
        self.shared: dict[str, SharedVariable] = {}
        self._services: dict[str, ServiceMethod] = {}
        self._shared_registry: dict[str, bytes] = {}
        self.log: Optional[LogManager] = None
        self.group: Optional[ProcessGroup] = None
        self.running = False
        self.stats = MspStats()
        #: Invariant counter — session replays that ended in an error (a
        #: log read failed, the log and the method diverged); such a
        #: session stays RECOVERING until a restart rebuilds it.  Must
        #: stay 0.  Not an ``MspStats`` field: fleet reports serialize
        #: that dataclass whole, and their bytes are fingerprinted.
        self.failed_replays = 0
        #: Lazy recovery mode (DESIGN.md §15): after a crash, drain the
        #: rebuilt sessions with ``recovery_pump_concurrency`` workers
        #: instead of one per session.  Cached — the mode is fixed per
        #: run (and was validated above, like ``logging_mode``).
        self.lazy_mode = self.config.recovery_mode == "lazy"
        #: Command/value adaptive logging (DESIGN.md §16), cached like
        #: ``lazy_mode``: ``command_mode`` fixes every session to
        #: command logging; ``adaptive_mode`` lets the per-session
        #: policy pick (sessions start in value mode).
        self.command_mode = self.config.logging_mode == "command"
        self.adaptive_mode = self.config.logging_mode == "adaptive"
        # Ablation support: the single MSP-wide DV (see session_for).
        from repro.core.dv import DependencyVector

        self._msp_wide_dv = DependencyVector()

    # ------------------------------------------------------------------
    # program registration (done once, before start)
    # ------------------------------------------------------------------

    def register_service(self, name: str, method: ServiceMethod) -> None:
        """Register generator function ``method(ctx, argument)``."""
        self._services[name] = method

    def register_shared(self, name: str, initial_value: bytes) -> None:
        """Declare a shared variable with its deterministic initial value."""
        self._shared_registry[name] = bytes(initial_value)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    @property
    def recoverable(self) -> bool:
        return self.config.mode is LoggingMode.RECOVERABLE

    def start(self):
        """Boot the server (generator).  A cold boot on an empty log; if
        the log holds durable state, runs full crash recovery instead.

        Prefer :meth:`start_process`/:meth:`restart_process`: they run
        the boot *inside* the MSP's process group, so a crash during
        recovery kills the recovery itself — a half-finished recovery
        surviving a second crash would resurrect stale state.
        """
        if self.running:
            raise SessionProtocolError(f"{self.name} already running")
        if self.group is None:
            self.group = ProcessGroup(self.name)
        self.log = LogManager(
            self.sim,
            self.stores,
            self.disks,
            name=f"log.{self.name}",
            batch_flush_timeout_ms=self.config.batch_flush_timeout_ms,
            max_block_sectors=self.config.max_block_sectors,
            read_chunk_sectors=self.config.read_chunk_sectors,
            cpu=self.cpu,
            flush_cpu_ms=self.config.costs.flush_cpu_ms,
            record_overhead_bytes=self.config.log_record_overhead_bytes,
            owner=self.name,
        )
        self.log.start(group=self.group)
        self.sessions = {}
        self.shared = {
            name: SharedVariable(self.sim, name, value)
            for name, value in self._shared_registry.items()
        }
        needs_recovery = self.recoverable and (
            any(store.durable_end > 0 for store in self.stores)
            or self.log.read_anchor() is not None
        )
        if needs_recovery:
            self.stats.recoveries += 1
            yield from recover_msp(self)
        elif self.recoverable:
            # First boot: durably anchor an initial MSP checkpoint
            # *before* accepting work.  Without this boot record, a
            # crash before the first flush would restart us with an
            # empty log and no way to know we crashed — we would reuse
            # epoch 0 while other MSPs hold dependencies on the lost
            # buffered records, and never announce their loss.
            yield from perform_msp_checkpoint(self)
        self._open_for_business()

    def start_process(self):
        """Spawn :meth:`start` inside the MSP's group and return it."""
        if self.group is None:
            self.group = ProcessGroup(self.name)
        return self.sim.spawn(self.start(), name=f"{self.name}.start", group=self.group)

    def _open_for_business(self) -> None:
        """Bind ports and spawn daemons + the worker pool."""
        inbox = self.node.bind("request")
        for i in range(self.config.thread_pool_size):
            self.sim.spawn(
                self._worker(inbox), name=f"{self.name}.worker{i}", group=self.group
            )
        if self.recoverable:
            self.sim.spawn(
                flush_service(self), name=f"{self.name}.flushsvc", group=self.group
            )
            self.sim.spawn(
                self._announcement_service(),
                name=f"{self.name}.annsvc",
                group=self.group,
            )
            self.sim.spawn(
                msp_checkpoint_daemon(self),
                name=f"{self.name}.ckptd",
                group=self.group,
            )
        self.running = True
        self.sim.probe("msp.open", owner=self.name)

    def crash(self) -> None:
        """Fail-stop: kill every thread, lose all volatile state.

        The flushed log prefix (and the durable anchor) survive; nothing
        else does.
        """
        if not self.running and self.group is None:
            return
        self.stats.crashes += 1
        if self.sim.tracer is not None:
            self.sim.tracer.instant("msp.crash", owner=self.name, epoch=self.epoch)
        if self.group is not None:
            self.group.kill_all()
        for store in self.stores:
            store.crash()
        self.node.unbind_all()
        self.sessions = {}
        self.shared = {}
        self.log = None
        self.group = None
        self.running = False

    def restart(self):
        """Boot after a crash (generator): runs Fig. 12 crash recovery."""
        yield self.config.restart_delay_ms
        yield from self.start()

    def restart_process(self):
        """Spawn :meth:`restart` inside a fresh group and return it.

        The restart lives in the group, so a further crash while the
        recovery is still in progress kills it cleanly; the restart
        after *that* crash recovers from the durable log alone.
        """
        if self.group is None:
            self.group = ProcessGroup(self.name)
        return self.sim.spawn(
            self.restart(), name=f"{self.name}.restart", group=self.group
        )

    # ------------------------------------------------------------------
    # low-level helpers shared by the whole package
    # ------------------------------------------------------------------

    def cpu(self, ms: float):
        """Consume ``ms`` of CPU on this server (generator; queues on
        the core pool, so CPU contention is modeled)."""
        if ms <= 0:
            return
        cpu = self._cpu
        # No suspension point between the grant (either way) and the
        # ``try``, so a kill can never strand a held core.
        if not cpu.try_acquire():
            yield from cpu.acquire()
        try:
            yield ms
        finally:
            cpu.release()

    def cpu_utilization(self, since: float = 0.0) -> float:
        return self._cpu.utilization(since=since)

    def send(self, destination: str, port: str, payload) -> None:
        self.node.send(destination, port, payload, payload.wire_size())

    def append_session_record(self, session: Session, record: LogRecord, apply=None):
        """Log a record on behalf of ``session`` (generator).

        Charges the append CPU, updates the session's state number, DV
        self-entry, position stream and checkpoint accounting, and pays
        the occasional position-buffer spill.  ``apply(lsn)``, if given,
        runs in the append's own step (see :meth:`append_write_record`).
        Returns ``(lsn, size)``.
        """
        yield from self.cpu(self.config.costs.log_append_ms)
        lsn, size = self.log.append(record)
        spill_due = session.account_record(lsn, size, self.epoch)
        if apply is not None:
            apply(lsn)
        if spill_due:
            yield from session.position_stream.spill(self.disk)
        return lsn, size

    def append_write_record(self, session: Session, record: LogRecord, apply):
        """Log a shared-variable write (generator).

        The record enters the session's position stream (replay skips
        it) and counts toward its checkpoint threshold, but does *not*
        advance the session's state number — a write changes the
        variable's state number, not the session's (paper Fig. 8).
        ``apply(lsn)`` installs the write in the same step as the
        append: an MSP checkpoint taken while the caller still yields
        (spill, DV-tracking CPU) would otherwise capture its scan floors
        with the record logged but the variable untouched.
        """
        yield from self.cpu(self.config.costs.log_append_ms)
        lsn, size = self.log.append(record)
        apply(lsn)
        if session.first_lsn is None:
            session.first_lsn = lsn
        session.bytes_since_ckpt += size
        session.bytes_since_eval += size
        if session.position_stream.append(lsn):
            yield from session.position_stream.spill(self.disk)
        return lsn, size

    def check_session_orphan(self, session: Session) -> None:
        """Interception-point orphan check (paper §4.1); raises."""
        if self.recoverable and session.is_orphan(self.table):
            raise OrphanDetected(f"session {session.id}")

    def learn_recovery_knowledge(self, snapshot) -> None:
        """Merge recovered-state-number knowledge from any source
        (announcement, ack, or flush-reply piggyback) and start orphan
        recovery for idle sessions the new knowledge convicts."""
        fresh = self.table.merge(RecoveryTable.from_snapshot(snapshot))
        if not fresh:
            return
        for session in list(self.sessions.values()):
            if (
                not session.busy
                and session.status is SessionStatus.NORMAL
                and session.is_orphan(self.table)
            ):
                self._ensure_recovery(session)

    def distributed_flush(self, session_or_dv, subject: str):
        """Run a distributed flush for a DV (generator; raises
        :class:`FlushFailed` and therefore signals orphanhood)."""
        yield from distributed_flush(self, session_or_dv, subject)

    def session_for(self, session_id: str, create: bool = True) -> Optional[Session]:
        session = self.sessions.get(session_id)
        if session is None and create:
            session = Session(
                session_id,
                self.name,
                buffer_capacity=self.config.position_buffer_capacity,
            )
            if not self.config.per_session_dv:
                # Ablation: one DV shared by every session.  A remote
                # crash then orphans all sessions together ("all its
                # sessions will roll back, possibly unnecessarily",
                # paper S3.2) -- the cost the per-session design avoids.
                session.dv = self._msp_wide_dv
            if self.command_mode:
                session.logging_mode = "command"
            self.sessions[session_id] = session
        return session

    def shared_variable(self, name: str) -> SharedVariable:
        try:
            return self.shared[name]
        except KeyError:
            raise SessionProtocolError(
                f"{self.name}: unknown shared variable {name!r}"
            ) from None

    def service(self, name: str) -> ServiceMethod:
        try:
            return self._services[name]
        except KeyError:
            raise SessionProtocolError(f"{self.name}: unknown service {name!r}") from None

    # ------------------------------------------------------------------
    # request handling (the worker pool)
    # ------------------------------------------------------------------

    def _worker(self, inbox):
        while True:
            envelope = yield from inbox.get()
            request = envelope.payload
            tracer = self.sim.tracer
            span = None
            if tracer is not None:
                span = tracer.span(
                    "msp.request",
                    owner=self.name,
                    session=request.session_id,
                    seq=request.seq,
                    method=request.method,
                )
            try:
                yield from self._handle_request(request)
            except SessionProtocolError:
                # A programming error in a service method (bad return
                # type, replay divergence surfacing late).  Losing one
                # request is bad; losing the worker thread forever is
                # worse.
                self.stats.protocol_errors += 1
            finally:
                if span is not None:
                    span.end()

    def _handle_request(self, request: Request):
        costs = self.config.costs
        self.sim.probe("msp.request", owner=self.name)
        yield from self.cpu(costs.message_stack_ms + costs.request_dispatch_ms)
        if (
            request.end_session
            and request.seq > 0
            and request.session_id not in self.sessions
        ):
            # A resent session end whose ack was lost in transit: seqs
            # 0..seq-1 were all acked (the client is strictly
            # sequential), so the session existed and only the end
            # itself — or the idle sweep — can have removed it.  Ending
            # is idempotent: ack again WITHOUT resurrecting the session.
            # A fresh session object would classify the resend as
            # out-of-order and drop it silently, deadlocking the
            # client's resend loop forever.
            self.stats.duplicate_end_acks += 1
            yield from self._send_reply(
                request, Reply(request.session_id, request.seq, b"")
            )
            return
        session = self.session_for(request.session_id)
        session.last_active_ms = self.sim.now

        if session.lazy_pending:
            # After a restart (DESIGN.md §15): first contact with a
            # session no drain worker has reached yet replays it inline,
            # then falls through — duplicate detection below runs
            # against the restored exactly-once state.  A concurrent
            # request for the same session sees RECOVERING and gets a
            # busy reply.  (Never taken in eager mode: a worker per
            # session claims them all before any request runs.)
            self.stats.inline_recoveries += 1
            yield from recover_session(self, session)

        if session.status is not SessionStatus.NORMAL:
            # Checkpointing or recovering: tell the client to retry
            # (paper §5.4: it sleeps 100 ms and resends).
            self.stats.busy_replies += 1
            yield from self._send_reply(
                request, Reply(request.session_id, request.seq, b"", busy=True)
            )
            return

        # Duplicate / out-of-order detection (paper §3.1).
        if request.seq < session.next_expected_seq:
            self.stats.requests_duplicate += 1
            # Interception point: the buffered reply is part of the
            # session state; if the session is an orphan, recover it
            # instead of propagating orphan data.
            if self.recoverable and session.is_orphan(self.table):
                self._ensure_recovery(session)
                return
            if request.seq == session.buffered_reply_seq:
                self.stats.buffered_reply_resends += 1
                try:
                    yield from self._resend_buffered_reply(request, session)
                except (FlushFailed, OrphanDetected):
                    # The recovered reply depends on state lost in a
                    # remote crash: the session is an orphan.  Recover
                    # it; the client keeps resending meanwhile.
                    self._ensure_recovery(session)
            return
        if request.seq > session.next_expected_seq:
            if self.recoverable:
                self.stats.requests_out_of_order += 1
                return
            # NOLOG baselines do not recover protocol state: after a
            # crash the server restarts at seq 0 while the client is
            # further along.  Accept the gap -- these configurations
            # make no exactly-once promise (that is the paper's point).
            session.next_expected_seq = request.seq
        if session.busy:
            # A duplicate of the in-flight request: drop it; the client
            # is still waiting for the real reply.
            self.stats.requests_duplicate += 1
            return

        # Interception point: has this session become an orphan?
        if self.recoverable and session.is_orphan(self.table):
            self.stats.busy_replies += 1
            yield from self._send_reply(
                request, Reply(request.session_id, request.seq, b"", busy=True)
            )
            self._ensure_recovery(session)
            return

        session.busy = True
        try:
            yield from self._process_new_request(request, session)
        except OrphanDetected:
            session.busy = False
            self._ensure_recovery(session)
            return
        except FlushFailed:
            session.busy = False
            self._ensure_recovery(session)
            return
        finally:
            session.busy = False

        # Between requests: take a session checkpoint if due (§3.2),
        # then let the adaptive policy re-decide the logging mode.
        if self.recoverable and session.id in self.sessions:
            yield from maybe_session_checkpoint(self, session)
            self._maybe_adapt_mode(session)

    def _process_new_request(self, request: Request, session: Session):
        if session.lazy_pending:
            # Never reached if the drain is correct: a request must not
            # execute against a not-yet-replayed session.
            self.stats.served_before_recovery += 1
        costs = self.config.costs
        # Fig. 7 "after receive" actions.
        if self.recoverable:
            if request.sender_dv is not None:
                request.sender_dv.prune_resolved(self.table)
                if self.table.is_orphan(request.sender_dv):
                    # Orphan message: discard and stop.  The sender will
                    # be recovered by its own MSP and resend.
                    self.stats.orphan_messages_discarded += 1
                    return
            # Command mode (DESIGN.md §16): the request record *is* the
            # command — same fields, distinct kind so replay knows to
            # re-execute RMW effects instead of consuming value records.
            record_cls = (
                CommandRecord if session.logging_mode == "command" else RequestRecord
            )
            record = record_cls(
                session_id=session.id,
                seq=request.seq,
                method=request.method,
                argument=request.argument,
                sender_dv=request.sender_dv,
            )
            lsn, _size = yield from self.append_session_record(session, record)
            if record_cls is CommandRecord:
                session.command_lsn = lsn
                self.stats.command_requests += 1
            else:
                session.command_lsn = None
            if request.sender_dv is not None:
                yield from self.cpu(costs.dv_track_ms)
                session.dv.merge(request.sender_dv)

        if request.end_session:
            yield from self._end_session(request, session)
            return

        if request.method not in self._services:
            # Unknown method: a permanent, deterministic error.  The
            # request was logged like any other (so replay reproduces
            # the same outcome), it consumes the sequence number, and
            # the client is told not to retry.
            self.stats.protocol_errors += 1
            reply = Reply(session.id, request.seq, b"unknown method", error=True)
            if self.recoverable and self.domains.same_domain(self.name, request.reply_to):
                reply.sender_dv = session.dv.copy()
            elif self.recoverable:
                yield from self.distributed_flush(session.dv, f"session {session.id}")
            yield from self._send_reply(request, reply)
            session.buffered_reply = reply.payload
            session.buffered_reply_seq = request.seq
            session.buffered_reply_error = True
            session.next_expected_seq = request.seq + 1
            return

        yield from self._before_method(session)
        ctx = NormalContext(self, session)
        method = self.service(request.method)
        if self.adaptive_mode:
            session.call_ms_accum = 0.0
            exec_started = self.sim.now
        result = yield from method(ctx, request.argument)
        yield from self._after_method(session)
        if self.adaptive_mode:
            # Replay-cost estimate: wall time minus outgoing-call time
            # (replay answers calls from logged replies, so the network
            # round trips vanish; CPU, locks and appends remain a fair
            # proxy for re-execution cost).  EWMA so one slow request
            # cannot flip the mode.
            exec_ms = self.sim.now - exec_started - session.call_ms_accum
            if session.observed_exec_ms == 0.0:
                session.observed_exec_ms = exec_ms
            else:
                session.observed_exec_ms += 0.3 * (exec_ms - session.observed_exec_ms)
            session.requests_since_eval += 1
        if not isinstance(result, bytes):
            raise SessionProtocolError(
                f"{self.name}.{request.method} returned {type(result).__name__}, "
                "expected bytes"
            )

        reply = Reply(session_id=session.id, seq=request.seq, payload=result)
        # Fig. 7 "before send" actions for the reply.
        if self.recoverable:
            if self.domains.same_domain(self.name, request.reply_to):
                yield from self.cpu(costs.dv_track_ms)
                reply.sender_dv = session.dv.copy()
            else:
                yield from self.distributed_flush(session.dv, f"session {session.id}")

        yield from self._send_reply(request, reply)
        session.buffered_reply = result
        session.buffered_reply_seq = request.seq
        session.buffered_reply_error = False
        session.next_expected_seq = request.seq + 1
        self.stats.requests_processed += 1

    def _maybe_adapt_mode(self, session: Session) -> None:
        """The adaptive logging policy (DESIGN.md §16), run between
        requests.

        Every ``adaptive_eval_requests`` completed requests, compare the
        observed log volume against what command logging would keep
        (value mode tracks the elidable SvUpdate share) and the
        estimated re-execution cost against the replay budget.  Both
        directions are guarded by the hysteresis margin so the mode
        cannot flap on noise; switches take effect on the session's next
        request (replay dispatches per record kind, so mixed suffixes
        are fine).
        """
        if not self.adaptive_mode or session.status is not SessionStatus.NORMAL:
            return
        if session.requests_since_eval < self.config.adaptive_eval_requests:
            return
        margin = self.config.adaptive_hysteresis_margin
        budget = self.config.adaptive_replay_budget_ms
        old_mode = session.logging_mode
        if old_mode == "value":
            kept = session.bytes_since_eval - session.elidable_bytes_since_eval
            if (
                session.elidable_bytes_since_eval > 0
                and session.bytes_since_eval > margin * max(kept, 1)
                and session.observed_exec_ms <= budget
            ):
                session.logging_mode = "command"
        elif session.observed_exec_ms > budget * margin:
            session.logging_mode = "value"
        if session.logging_mode != old_mode:
            self.stats.mode_switches += 1
            tracer = self.sim.tracer
            if tracer is not None:
                tracer.instant(
                    "session.mode-switch",
                    owner=self.name,
                    session=session.id,
                    mode=session.logging_mode,
                )
                tracer.metrics.inc(f"logging.mode_switch.{session.logging_mode}")
        session.requests_since_eval = 0
        session.bytes_since_eval = 0
        session.elidable_bytes_since_eval = 0

    def _before_method(self, session: Session):
        """Hook for alternative session-persistence baselines (Psession,
        StateServer): runs before each service method (generator)."""
        yield from ()

    def _after_method(self, session: Session):
        """Hook: runs after each service method completes (generator)."""
        yield from ()

    def _end_session(self, request: Request, session: Session):
        """Session end: log the marker and discard the session (§3.2)."""
        if self.recoverable:
            # The session's durable footprint must not outlive it
            # inconsistently; flush its dependencies, then mark the end.
            yield from self.distributed_flush(session.dv, f"session {session.id}")
            yield from self.cpu(self.config.costs.log_append_ms)
            self.log.append(SessionEndRecord(session_id=session.id))
        self.sessions.pop(session.id, None)
        self._propagate_session_end(session)
        yield from self._send_reply(
            request, Reply(session_id=session.id, seq=request.seq, payload=b"")
        )

    def expire_session(self, session: Session):
        """Server-initiated session end (generator): the idle-expiry
        path — identical durable footprint to a client end, just with no
        reply to send.  A failed flush leaves the session alone; it is
        an orphan and the recovery machinery owns it now."""
        try:
            if self.recoverable:
                yield from self.distributed_flush(
                    session.dv, f"session {session.id}"
                )
                yield from self.cpu(self.config.costs.log_append_ms)
                self.log.append(SessionEndRecord(session_id=session.id))
        except (FlushFailed, OrphanDetected):
            self._ensure_recovery(session)
            return
        self.sessions.pop(session.id, None)
        self.stats.sessions_expired += 1
        self._propagate_session_end(session)

    def _propagate_session_end(self, session: Session) -> None:
        """End the implicit hop sessions ``session`` opened downstream.

        Chained calls open ``{session.id}>{target}`` sessions that no
        client ever ends; left alone they pin the downstream MSP's log
        truncation floor until ``session_idle_timeout_ms``.  When the
        upstream session ends — client end or expiry — each hop session
        gets an explicit end request, which recursively unwinds deeper
        chains.  Best-effort by design: the enders run in the MSP's
        process group (a crash kills them), and a dead or unreachable
        downstream exhausts the retry budget; idle expiry remains the
        backstop for every such case.
        """
        for out in session.outgoing.values():
            self.sim.spawn(
                self._end_downstream(out),
                name=f"{self.name}.endprop.{out.session_id}",
                group=self.group,
            )

    def _end_downstream(self, out):
        """Send one end request to a downstream hop session (generator):
        the client end protocol minus the client — resend until the end
        is acknowledged, sleep out busy replies, give up after a bounded
        number of attempts."""
        reply_port = f"reply:{out.session_id}"
        inbox = self.node.bind(reply_port)
        request = Request(
            session_id=out.session_id,
            seq=out.next_seq,
            method="",
            argument=b"",
            reply_to=self.name,
            reply_port=reply_port,
            end_session=True,
        )
        for _attempt in range(self.config.end_propagation_attempts):
            yield from self.cpu(self.config.costs.message_stack_ms)
            self.send(out.target_msp, "request", request)
            reply = yield from _await_reply(self, inbox, request.seq)
            if reply is None:
                continue  # lost request/reply or crashed server: resend
            if reply.busy:
                yield BUSY_RETRY_SLEEP_MS
                continue
            out.next_seq = request.seq + 1
            self.stats.downstream_ends_sent += 1
            return
        self.stats.downstream_ends_abandoned += 1

    def _resend_buffered_reply(self, request: Request, session: Session):
        """Re-send the buffered reply for a duplicate request (§3.1)."""
        reply = Reply(
            session_id=session.id,
            seq=request.seq,
            payload=session.buffered_reply or b"",
            error=session.buffered_reply_error,
        )
        if self.recoverable:
            if self.domains.same_domain(self.name, request.reply_to):
                reply.sender_dv = session.dv.copy()
            else:
                yield from self.distributed_flush(session.dv, f"session {session.id}")
        yield from self._send_reply(request, reply)

    def _send_reply(self, request: Request, reply: Reply):
        self.sim.probe("msp.reply", owner=self.name)
        yield from self.cpu(self.config.costs.message_stack_ms)
        self.send(request.reply_to, request.reply_port, reply)

    # ------------------------------------------------------------------
    # orphan recovery entry points
    # ------------------------------------------------------------------

    def _ensure_recovery(self, session: Session) -> None:
        """Start session orphan recovery once (idempotent)."""
        if session.recovery_pending or session.status is SessionStatus.RECOVERING:
            return
        session.recovery_pending = True
        if self.sim.tracer is not None:
            self.sim.tracer.instant(
                "session.orphan-detected", owner=self.name, session=session.id
            )
        self.sim.spawn(
            run_session_recovery(self, session, orphan=True),
            name=f"{self.name}.orphanrec.{session.id}",
            group=self.group,
        )

    def _announcement_service(self):
        """Daemon receiving recovery announcements (paper §4.3)."""
        inbox = self.node.bind("recovery")
        while True:
            envelope = yield from inbox.get()
            payload = envelope.payload
            if isinstance(payload, RecoveryAnnouncement):
                yield from self._handle_announcement(payload)
            elif isinstance(payload, AnnouncementAck):
                self.learn_recovery_knowledge(payload.table_snapshot)

    def _handle_announcement(self, ann: RecoveryAnnouncement):
        self.sim.probe("msp.announcement", owner=self.name)
        if self.sim.tracer is not None:
            self.sim.tracer.instant(
                "msp.announcement",
                owner=self.name,
                peer=ann.msp,
                epoch=ann.epoch,
                lsn=ann.recovered_lsn,
            )
        yield from self.cpu(self.config.costs.message_stack_ms)
        fresh = self.table.record(ann.msp, ann.epoch, ann.recovered_lsn)
        self.learn_recovery_knowledge(ann.table_snapshot)
        if fresh:
            # Log the knowledge so it survives our own crashes.
            yield from self.cpu(self.config.costs.log_append_ms)
            self.log.append(
                AnnouncementRecord(
                    msp=ann.msp, epoch=ann.epoch, recovered_lsn=ann.recovered_lsn
                )
            )
        if ann.reply_to:
            ack = AnnouncementAck(msp=self.name, table_snapshot=self.table.snapshot())
            self.send(ann.reply_to, ann.reply_port, ack)
        if fresh:
            # Check idle sessions now; busy ones hit interception points.
            for session in list(self.sessions.values()):
                if (
                    not session.busy
                    and session.status is SessionStatus.NORMAL
                    and session.is_orphan(self.table)
                ):
                    self._ensure_recovery(session)

    def broadcast_recovery(self, old_epoch: int, recovered_lsn: int) -> None:
        """Announce our recovery within the service domain (§4.3)."""
        announcement = RecoveryAnnouncement(
            msp=self.name,
            epoch=old_epoch,
            recovered_lsn=recovered_lsn,
            table_snapshot=self.table.snapshot(),
            reply_to=self.name,
            reply_port="recovery",
        )
        for peer in self.domains.peers_of(self.name):
            self.send(peer, "recovery", announcement)
