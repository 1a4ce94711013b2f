"""Shared variables: value logging, dependency tracking, undo rollback.

Paper §3.3.  A shared variable is a passive recovery unit accessed by
sessions under short read/write locks.  Reads and writes are *value
logged* (the value itself goes to the log), which buys recovery
independence between sessions: a recovering reader takes values straight
from the log, and an orphan variable is rolled back by whoever trips
over it, by walking the backward chain of write records — no other
session has to roll back, and no thread-pool deadlock can arise.

Dependency tracking is the paper's refined, asymmetric rule:

- a **read** merges the variable's DV into the reader session's DV (the
  reader now depends on whatever produced the value) — the variable
  does *not* pick up the reader's dependencies;
- a **write** *replaces* the variable's DV with the writer session's DV
  (the old value, and its dependencies, are gone).
"""

from __future__ import annotations

from typing import Optional

from repro.core.dv import DependencyVector, RecoveryTable
from repro.core.log_manager import LogManager, LogWindowReader
from repro.core.plsn import (
    OFFSET_MASK,
    encode_frontier,
    plsn_offset,
    plsn_partition,
)
from repro.core.records import NO_LSN, SvCheckpointRecord, SvUpdateRecord, SvWriteRecord
from repro.sim import RWLock, Simulator


class SharedVariable:
    """In-memory state and recovery bookkeeping of one shared variable."""

    def __init__(self, sim: Simulator, name: str, initial_value: bytes):
        self.name = name
        #: The value registered at MSP startup — deterministic, so it
        #: needs no log record and is never an orphan.
        self.initial_value = bytes(initial_value)
        self.value = bytes(initial_value)
        self.dv = DependencyVector()
        #: LSN of the most recent write (or checkpoint) record, i.e. the
        #: variable's state number (paper §3.3); None before any write.
        self.state_lsn: Optional[int] = None
        #: Head of the backward chain of write records; NO_LSN when the
        #: current value comes from a checkpoint or is the initial value.
        self.last_write_lsn: int = NO_LSN
        self.lock = RWLock(sim, name=f"sv:{name}")
        self.writes_since_ckpt = 0
        #: LSN of the most recent checkpoint record (None if never).
        self.last_ckpt_lsn: Optional[int] = None
        #: The lowest live chain offset per partition.  The chain hops
        #: between the writers' session partitions and the checkpoints'
        #: control partition, and truncation must keep each partition's
        #: piece of it.  Offsets only grow within one partition, so the
        #: first chain record per partition since the last checkpoint is
        #: that partition's floor.
        self.live_chain_floors: dict[int, int] = {}
        #: Checkpoint-staleness counter for forced checkpoints (§3.4).
        self.msp_ckpts_since_own_ckpt = 0
        #: Command/value adaptive logging (DESIGN.md §16).  A command-
        #: mode RMW applies its effect *without* a log record; the
        #: variable's recovery then rests on three pieces of state:
        #:
        #: - ``command_frontier``: per command-session, the ``(lsn,
        #:   ordinal)`` of the most recent command RMW whose effect is
        #:   included in the current value — lsn of the command record,
        #:   ordinal of the apply within that command (one request may
        #:   update a variable more than once, and a checkpoint can
        #:   land between the applies).  Captured by shared-variable
        #:   checkpoints so a replayed command knows whether to
        #:   re-apply (pair beyond the recovered frontier) or skip
        #:   (captured).  Lsns of one session are totally ordered (one
        #:   partition) and ordinals order applies within a command, so
        #:   the pairs totally order per session.
        #: - ``uncaptured_commands``: True while command effects exist
        #:   that no checkpoint or value record has captured yet.  A
        #:   value-logged write to such a variable must checkpoint it
        #:   first (the regime barrier): the logged record's value would
        #:   embed the unlogged effects, and the recovery scan would
        #:   install them *before* the commands re-apply — double
        #:   application.  The barrier seals them under a checkpoint
        #:   whose frontier makes the re-apply a no-op.
        #: - ``history``: an in-memory undo stack (one snapshot per
        #:   write while ``track_history``).  Orphan rollback cannot
        #:   walk a backward chain through unlogged updates, so it pops
        #:   orphan snapshots here first and only falls back to the
        #:   logged chain when the whole history is orphan.  Volatile by
        #:   design: rollback is a live-execution action; after a crash
        #:   the scan + command re-execution rebuild the value instead.
        self.track_history = False
        self.command_frontier: dict[str, tuple[int, int]] = {}
        self.uncaptured_commands = False
        self.history: list[tuple] = []
        #: Frontier as of the last checkpoint/scan — what the frontier
        #: reverts to when rollback exhausts the in-memory history.
        self._frontier_floor: dict[str, int] = {}

    # -- bookkeeping helpers used by the MSP ------------------------------

    def apply_write(self, lsn: int, value: bytes, writer_dv: DependencyVector) -> None:
        """Install a new value (paper Fig. 8 write actions)."""
        self.dv.replace_with(writer_dv)
        self.state_lsn = lsn
        self.value = bytes(value)
        self.last_write_lsn = lsn
        self.writes_since_ckpt += 1
        self.live_chain_floors.setdefault(plsn_partition(lsn), plsn_offset(lsn))
        # A value record captures the current value wholesale, command
        # effects included — from here on the log recovers them.
        self.uncaptured_commands = False
        if self.track_history:
            self._push_history()

    def apply_command_write(
        self,
        lsn: int,
        ordinal: int,
        value: bytes,
        writer_dv: DependencyVector,
        session_id: str,
    ) -> None:
        """Install a command-mode RMW effect (DESIGN.md §16): no log
        record backs it, so the backward chain and the chain floors are
        left untouched; recovery re-derives the effect by re-executing
        the command at ``lsn`` (``ordinal`` numbers the applies within
        one command), gated by the frontier."""
        self.dv.replace_with(writer_dv)
        self.state_lsn = lsn
        self.value = bytes(value)
        self.writes_since_ckpt += 1
        self.command_frontier[session_id] = (lsn, ordinal)
        self.uncaptured_commands = True
        if self.track_history:
            self._push_history()

    def _push_history(self) -> None:
        self.history.append(
            (
                self.value,
                self.dv.copy(),
                self.state_lsn,
                self.last_write_lsn,
                dict(self.command_frontier),
                self.uncaptured_commands,
            )
        )

    def apply_checkpoint(self, lsn: int) -> None:
        """Account a just-logged checkpoint of the current value."""
        self.dv.clear()
        self.state_lsn = lsn
        self.last_write_lsn = lsn  # next write chains back to the ckpt
        self.writes_since_ckpt = 0
        self.last_ckpt_lsn = lsn
        self.msp_ckpts_since_own_ckpt = 0
        # The checkpoint seals the chain: it is the only record below
        # the new head that rollback or a recovery scan can still need.
        self.live_chain_floors = {plsn_partition(lsn): plsn_offset(lsn)}
        # Every command effect is now captured under the checkpoint (the
        # frontier rode along in the record), and nothing below it can
        # ever be rolled back to.
        self.uncaptured_commands = False
        self._frontier_floor = dict(self.command_frontier)
        self.history.clear()

    def scan_start_frontier(self, nparts: int) -> Optional[int]:
        """Where the crash-recovery scan must start for this variable,
        as recorded in MSP checkpoints: the per-partition chain floors
        packed as a frontier, with unconstrained partitions pinned at
        the offset maximum so they do not hold truncation back.  None
        while the value is the initial one (nothing to scan for).
        """
        if not self.live_chain_floors:
            return None
        starts = [OFFSET_MASK] * nparts
        for partition, offset in self.live_chain_floors.items():
            starts[partition] = offset
        return encode_frontier(tuple(starts))

    def is_orphan(self, table: RecoveryTable) -> bool:
        self.dv.prune_resolved(table)
        return table.is_orphan(self.dv)

    # -- orphan rollback (undo recovery, paper §4.2) -------------------------

    def roll_back(self, log: LogManager, table: RecoveryTable):
        """Walk the backward chain to the most recent non-orphan value.

        A generator (charges log-read time).  Performed inline by the
        reader session or the checkpointing thread that detected the
        orphan — the deadlock-avoidance property of value logging.
        Returns the number of chain hops walked.
        """
        hops = 0
        # Command/value adaptive logging (DESIGN.md §16): command-mode
        # RMWs left no records, so the logged chain cannot undo them.
        # The in-memory history covers every write since the last
        # checkpoint (in application order, logged and unlogged alike);
        # pop the orphan tail and restore the newest clean snapshot.
        # Only when the whole history is orphan does the logged chain
        # below it take over.
        while self.history:
            value, dv, state_lsn, last_write_lsn, frontier, uncaptured = self.history[-1]
            candidate_dv = dv.copy()
            candidate_dv.prune_resolved(table)
            if not table.is_orphan(candidate_dv):
                self.value = value
                self.dv = candidate_dv
                self.state_lsn = state_lsn
                self.last_write_lsn = last_write_lsn
                self.command_frontier = dict(frontier)
                self.uncaptured_commands = uncaptured
                return hops
            self.history.pop()
            hops += 1
        if self.track_history:
            # Everything above the last checkpoint/scan state rolled
            # back; the chain walk below restores logged state only.
            self.command_frontier = dict(self._frontier_floor)
            self.uncaptured_commands = False
        reader = LogWindowReader(log, durable_only=False)
        cursor = self.last_write_lsn
        while cursor != NO_LSN:
            record = yield from reader.fetch(cursor)
            if isinstance(record, SvCheckpointRecord):
                # Checkpointed values are never orphans; chain ends here.
                self.value = record.value
                self.dv.clear()
                self.state_lsn = cursor
                self.last_write_lsn = cursor
                self.live_chain_floors = {
                    plsn_partition(cursor): plsn_offset(cursor)
                }
                return hops
            if (
                not isinstance(record, (SvWriteRecord, SvUpdateRecord))
                or record.variable != self.name
            ):
                raise ValueError(
                    f"shared variable {self.name!r}: backward chain hit "
                    f"unexpected record {record!r} at LSN {cursor}"
                )
            candidate_dv = record.writer_dv.copy()
            candidate_dv.prune_resolved(table)
            if not table.is_orphan(candidate_dv):
                self.value = (
                    record.value
                    if isinstance(record, SvWriteRecord)
                    else record.new_value
                )
                self.dv = candidate_dv
                self.state_lsn = cursor
                self.last_write_lsn = cursor
                return hops
            hops += 1
            cursor = record.prev_write_lsn
        # Chain exhausted: fall back to the deterministic initial value.
        self.value = bytes(self.initial_value)
        self.dv = DependencyVector()
        self.state_lsn = None
        self.last_write_lsn = NO_LSN
        self.live_chain_floors = {}
        return hops
