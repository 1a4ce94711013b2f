"""Shared variables: value logging, dependency tracking, undo rollback.

Paper §3.3.  A shared variable is a passive recovery unit accessed by
sessions under short read/write locks.  Reads and writes are *value
logged* (the value itself goes to the log), which buys recovery
independence between sessions: a recovering reader takes values straight
from the log, and an orphan variable is rolled back by whoever trips
over it, from the variable's in-memory undo stack — no other session has
to roll back, no log is read, and no thread-pool deadlock can arise.

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
from repro.core.plsn import (
    OFFSET_MASK,
    encode_frontier,
    plsn_offset,
    plsn_partition,
)
from repro.core.records import NO_LSN
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
        #: The record the next write or checkpoint names as its
        #: ``prev_write_lsn`` — the edge that orders this variable's
        #: records across partitions in the recovery merge and cut
        #: (DESIGN.md §14).  NO_LSN while the value is the initial one.
        self.last_write_lsn: int = NO_LSN
        self.lock = RWLock(sim, name=f"sv:{name}")
        self.writes_since_ckpt = 0
        #: LSN of the most recent checkpoint record (None if never).
        self.last_ckpt_lsn: Optional[int] = None
        #: The redo scan floors: per partition, the offset of the first
        #: write (or the checkpoint) since the last checkpoint.  Writes
        #: land on their sessions' partitions and checkpoints on the
        #: control partition; truncation must keep each one's piece.
        self.live_chain_floors: dict[int, int] = {}
        #: Checkpoint-staleness counter for forced checkpoints (§3.4).
        self.msp_ckpts_since_own_ckpt = 0
        #: Command logging (DESIGN.md §16).  ``command_frontier``: per
        #: command session, the ``(lsn, ordinal)`` of its latest RMW the
        #: value includes — carried by checkpoints so a replayed command
        #: knows whether to re-apply.  Replaced, never mutated, by an
        #: apply: undo entries share it.  ``uncaptured_commands``: True
        #: while effects exist that no checkpoint or value record holds
        #: yet; a value-logged write must checkpoint first (the regime
        #: barrier), or the scan would install them before the commands
        #: re-apply.
        self.command_frontier: dict[str, tuple[int, int]] = {}
        self.uncaptured_commands = False
        #: The undo stack (DESIGN.md §6): one ``(value, dv, state_lsn,
        #: last_write_lsn, command_frontier, uncaptured_commands)``
        #: snapshot per write since ``base``, in application order.
        #: Volatile: a restart rebuilds it, the analysis scan applying
        #: the writes above the scan floors in merge order.
        self.history: list[tuple] = []
        #: The snapshot below the stack, restored when every entry is an
        #: orphan: the last checkpoint — never an orphan, it was flushed
        #: first — or the initial value.  Its DV is empty and stays so:
        #: a variable's DV is only ever rebound or pruned.
        self.base: tuple = (
            self.value, self.dv, None, NO_LSN, self.command_frontier, False
        )

    # -- bookkeeping helpers used by the MSP ------------------------------

    def apply_write(self, lsn: int, value: bytes, writer_dv: DependencyVector) -> None:
        """Install a new value (paper Fig. 8 write actions)."""
        self.live_chain_floors.setdefault(plsn_partition(lsn), plsn_offset(lsn))
        self.last_write_lsn = lsn
        # A value record captures the current value wholesale, command
        # effects included — from here on the log recovers them.
        self.uncaptured_commands = False
        self._install(lsn, value, writer_dv)

    def apply_command_write(
        self,
        lsn: int,
        ordinal: int,
        value: bytes,
        writer_dv: DependencyVector,
        session_id: str,
    ) -> None:
        """Install a command-mode RMW effect (DESIGN.md §16): no log
        record backs it, so the merge edge and the scan floors are left
        untouched; recovery re-derives the effect by re-executing the
        command at ``lsn`` (``ordinal`` numbers the applies within one
        command), gated by the frontier."""
        self.command_frontier = {**self.command_frontier, session_id: (lsn, ordinal)}
        self.uncaptured_commands = True
        self._install(lsn, value, writer_dv)

    def _install(self, lsn: int, value: bytes, writer_dv: DependencyVector) -> None:
        # The one DV copy of a write; the undo entry shares it.
        self.dv = writer_dv.copy()
        self.state_lsn = lsn
        self.value = bytes(value)
        self.writes_since_ckpt += 1
        self.history.append(
            (
                self.value,
                self.dv,
                lsn,
                self.last_write_lsn,
                self.command_frontier,
                self.uncaptured_commands,
            )
        )

    def apply_checkpoint(self, lsn: int) -> None:
        """Account a just-logged checkpoint of the current value."""
        self.dv = DependencyVector()
        self.state_lsn = lsn
        self.last_write_lsn = lsn  # the next write is ordered after it
        self.writes_since_ckpt = 0
        self.last_ckpt_lsn = lsn
        self.msp_ckpts_since_own_ckpt = 0
        # The checkpoint is the only record at or below it that a
        # recovery scan can still need.
        self.live_chain_floors = {plsn_partition(lsn): plsn_offset(lsn)}
        # Every command effect is now captured under the checkpoint (the
        # frontier rode along in the record), and nothing below it can
        # ever be rolled back to.
        self.uncaptured_commands = False
        self.base = (self.value, self.dv, lsn, lsn, self.command_frontier, False)
        self.history = []

    def scan_start_frontier(self, nparts: int) -> Optional[int]:
        """Where the crash-recovery scan must start for this variable,
        as recorded in MSP checkpoints: the per-partition scan floors
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
        return self.dv.resolve(table)

    # -- orphan rollback (undo recovery, paper §4.2) -------------------------

    def roll_back(self, table: RecoveryTable) -> int:
        """Restore the most recent non-orphan value: pop the orphan tail
        of the undo stack and restore the newest clean snapshot, else
        the base.  Returns the number of snapshots popped.

        Performed inline by the reader session or the checkpointing
        thread that detected the orphan — the deadlock-avoidance
        property of value logging.  No log read, no simulated time.
        """
        history = self.history
        hops = 0
        while history:
            if not history[-1][1].resolve(table):
                break
            history.pop()
            hops += 1
        snapshot = history[-1] if history else self.base
        (
            self.value,
            self.dv,
            self.state_lsn,
            self.last_write_lsn,
            self.command_frontier,
            self.uncaptured_commands,
        ) = snapshot
        if not history:
            lsn = self.state_lsn
            self.live_chain_floors = (
                {} if lsn is None else {plsn_partition(lsn): plsn_offset(lsn)}
            )
        return hops
