"""Session state: the per-client recovery unit (paper §2.2, §3.2).

A session holds private session variables (not logged — replay
reconstructs them), the exactly-once protocol state (next expected
request sequence number, the buffered last reply), the session's
dependency vector and state number, its outgoing sessions to other MSPs,
and its position stream.  "Sessions are recovery units, while MSPs are
crash units."
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro.core.dv import DependencyVector, RecoveryTable, StateId
from repro.core.position_stream import POSITION_BUFFER_CAPACITY, PositionStream
from repro.core.records import SessionCheckpointRecord


class SessionStatus(enum.Enum):
    NORMAL = "normal"
    CHECKPOINTING = "checkpointing"
    RECOVERING = "recovering"


@dataclass
class OutgoingSession:
    """Client-side state of a session this session opened on another MSP."""

    session_id: str
    target_msp: str
    next_seq: int = 0


class Session:
    """One client's session at an MSP."""

    def __init__(
        self, session_id: str, msp_name: str, buffer_capacity: int = POSITION_BUFFER_CAPACITY
    ):
        self.id = session_id
        self.msp_name = msp_name
        #: Private session variables (name -> bytes); never logged.
        self.variables: dict[str, bytes] = {}
        self.dv = DependencyVector()
        #: The session's state number: LSN of its most recent log record.
        self.state_lsn: Optional[int] = None
        #: Exactly-once protocol state (paper §3.1).
        self.next_expected_seq = 0
        self.buffered_reply: Optional[bytes] = None
        self.buffered_reply_seq = -1
        #: True when the buffered reply is a permanent error (unknown
        #: method) rather than a successful result.
        self.buffered_reply_error = False
        #: Outgoing sessions keyed by target MSP name.
        self.outgoing: dict[str, OutgoingSession] = {}
        self.position_stream = PositionStream(session_id, buffer_capacity)
        self.status = SessionStatus.NORMAL
        #: True while a worker thread is executing a method for us.
        self.busy = False
        #: Simulated time of the last request handled for this session;
        #: the idle-expiry clock (config.session_idle_timeout_ms).
        self.last_active_ms = 0.0
        #: Log bytes consumed since the last session checkpoint (§3.2
        #: checkpoint threshold).
        self.bytes_since_ckpt = 0
        self.last_ckpt_lsn: Optional[int] = None
        self.first_lsn: Optional[int] = None
        #: Forced-checkpoint staleness counter (§3.4).
        self.msp_ckpts_since_own_ckpt = 0
        #: Set while orphan recovery is pending/running for this session.
        self.recovery_pending = False
        #: True between the analysis scan and this session's on-demand
        #: replay during a lazy restart; cleared when the replay is
        #: claimed (inline or by the pump).
        self.lazy_pending = False
        #: Shared variables this session has applied command-mode RMWs
        #: to since its last session checkpoint.  The checkpoint must
        #: seal these (checkpoint any still carrying uncaptured command
        #: effects) before truncating the replay stream — the elided
        #: records are only recoverable by re-executing the commands the
        #: checkpoint is about to make unreachable.
        self.command_touched: set[str] = set()
        #: LSN of the current request's command record (command mode);
        #: the frontier key for its RMW effects.
        self.command_lsn: Optional[int] = None

    # -- state-number / DV bookkeeping --------------------------------------

    def account_record(self, lsn: int, size: int, epoch: int, spill_due: bool = False) -> bool:
        """Register a freshly appended log record of this session.

        Updates the state number, the self-dependency, the position
        stream and the checkpoint threshold accounting.  Returns True
        when the position buffer wants spilling.
        """
        self.advance_state(lsn, epoch)
        if self.first_lsn is None:
            self.first_lsn = lsn
        self.bytes_since_ckpt += size
        return self.position_stream.append(lsn)

    def advance_state(self, lsn: int, epoch: int) -> None:
        """Make the session's record at ``lsn`` its state: the state
        number moves to it and the DV depends on it (live or replayed)."""
        self.state_lsn = lsn
        self.dv.observe(self.msp_name, StateId(epoch, lsn))

    def buffer_reply(self, seq: int, payload: bytes, error: bool = False) -> None:
        """Keep the reply to request ``seq`` for duplicate detection (paper
        §3.1) and expect ``seq + 1``; ``error`` marks a permanent error."""
        self.buffered_reply = payload
        self.buffered_reply_seq = seq
        self.buffered_reply_error = error
        self.next_expected_seq = seq + 1

    def is_orphan(self, table: RecoveryTable) -> bool:
        return self.dv.resolve(table)

    def scan_start_lsn(self) -> Optional[int]:
        """Where the crash-recovery scan must start for this session."""
        if self.last_ckpt_lsn is not None:
            return self.last_ckpt_lsn
        return self.first_lsn

    # -- outgoing sessions ----------------------------------------------------

    def outgoing_to(self, target_msp: str) -> OutgoingSession:
        """The (deterministically named) outgoing session to ``target_msp``.

        The name must be stable across replay so re-execution talks to
        the same server-side session.
        """
        existing = self.outgoing.get(target_msp)
        if existing is not None:
            return existing
        out = OutgoingSession(session_id=f"{self.id}>{target_msp}", target_msp=target_msp)
        self.outgoing[target_msp] = out
        return out

    # -- checkpointing ------------------------------------------------------------

    def build_checkpoint(self, logging_mode: str) -> SessionCheckpointRecord:
        """Snapshot for a session checkpoint (taken between requests,
        so no control state is needed — paper §3.2), stamped with the
        MSP's logging mode."""
        return SessionCheckpointRecord(
            session_id=self.id,
            variables=dict(self.variables),
            buffered_reply=self.buffered_reply,
            buffered_reply_seq=max(self.buffered_reply_seq, 0),
            next_expected_seq=self.next_expected_seq,
            outgoing_next_seq={
                out.session_id: out.next_seq for out in self.outgoing.values()
            },
            buffered_reply_error=self.buffered_reply_error,
            logging_mode=logging_mode,
        )

    def account_checkpoint(self, lsn: int) -> None:
        """Bookkeeping after the checkpoint record was logged."""
        self.last_ckpt_lsn = lsn
        self.bytes_since_ckpt = 0
        self.msp_ckpts_since_own_ckpt = 0
        self.position_stream.truncate()
        # The distributed flush that preceded the checkpoint made every
        # current dependency durable; none can ever become an orphan.
        self.dv.clear()

    def restore_checkpoint(self, record: SessionCheckpointRecord) -> None:
        """Re-initialize from a checkpoint (recovery start, §4.1)."""
        self.variables = dict(record.variables)
        self.buffered_reply = record.buffered_reply
        self.buffered_reply_seq = (
            record.buffered_reply_seq if record.buffered_reply is not None else -1
        )
        self.buffered_reply_error = record.buffered_reply_error
        self.next_expected_seq = record.next_expected_seq
        self.outgoing = {}
        for out_id, next_seq in record.outgoing_next_seq.items():
            # Outgoing ids have the form "<session>><target>".
            target = out_id.rsplit(">", 1)[1]
            self.outgoing[target] = OutgoingSession(
                session_id=out_id, target_msp=target, next_seq=next_seq
            )
        self.dv = DependencyVector()
        self.state_lsn = None

    def reset_fresh(self) -> None:
        """Reset to the just-started state (recovery with no checkpoint)."""
        self.variables = {}
        self.buffered_reply = None
        self.buffered_reply_seq = -1
        self.buffered_reply_error = False
        self.next_expected_seq = 0
        self.outgoing = {}
        self.dv = DependencyVector()
        self.state_lsn = None
