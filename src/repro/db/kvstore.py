"""Write-ahead-logged key-value store on a simulated disk.

Supports begin / read / write / commit / abort with strict two-phase
locking at key granularity and a redo-only WAL:

- writes are staged in the transaction and logged at commit;
- commit appends a commit record and **forces the WAL to disk** before
  acknowledging (this is the per-transaction log force that dominates
  the Psession baseline's cost);
- recovery after a crash replays committed transactions from the
  durable WAL prefix; uncommitted staging is lost.

Read-only transactions commit without a log force (standard practice,
and what lets Psession's read transaction cost less than its write
transaction).
"""

from __future__ import annotations

import itertools
from typing import Optional

from repro.sim import Resource, Simulator, Store
from repro.storage import Disk, StableStore
from repro.wire import FrameReader, frame
from repro.wire.codec import BYTES, TEXT, UINT, decode_fields, encode_fields


class TransactionError(Exception):
    """Misuse of the transaction API (use after commit, missing lock)."""


_REC_BEGIN = 1
_REC_WRITE = 2
_REC_COMMIT = 3

#: The WAL record shapes: kind and transaction id, then a write's key
#: and value.
_WAL_FIELDS = {
    _REC_BEGIN: (UINT, UINT),
    _REC_WRITE: (UINT, UINT, TEXT, BYTES),
    _REC_COMMIT: (UINT, UINT),
}


def _wal_record(kind: int, *values) -> bytes:
    return frame(encode_fields(_WAL_FIELDS[kind], (kind, *values)))


class Transaction:
    """One transaction; obtain via :meth:`KVStore.begin`."""

    def __init__(self, store: "KVStore", txn_id: int):
        self._store = store
        self.txn_id = txn_id
        self._writes: dict[str, bytes] = {}
        self._locks: set[str] = set()
        self._done = False

    def _check_open(self) -> None:
        if self._done:
            raise TransactionError(f"transaction {self.txn_id} already finished")

    def read(self, key: str):
        """Read ``key`` (generator; returns bytes or None)."""
        self._check_open()
        yield from self._store._lock_key(self, key)
        yield from self._store._charge_cpu()
        if key in self._writes:
            return self._writes[key]
        value = self._store._data.get(key)
        if value is not None and self._store.disk_reads:
            yield from self._store.disk.read_bytes(len(value), sequential=True)
        return value

    def write(self, key: str, value: bytes):
        """Stage a write of ``key`` (generator)."""
        self._check_open()
        yield from self._store._lock_key(self, key)
        yield from self._store._charge_cpu()
        self._writes[key] = bytes(value)

    def commit(self):
        """Commit (generator).  Forces the WAL when there are writes."""
        self._check_open()
        self._done = True
        try:
            if self._writes:
                yield from self._store._commit_writes(self)
            self._store.stats_commits += 1
        finally:
            self._store._release_locks(self)

    def abort(self):
        """Abort: discard staged writes, release locks (generator)."""
        self._check_open()
        self._done = True
        self._store._release_locks(self)
        self._store.stats_aborts += 1
        yield from ()


class KVStore:
    """The store: a dict, a WAL, key locks and a commit pipeline."""

    def __init__(
        self,
        sim: Simulator,
        disk: Disk,
        name: str = "kv",
        txn_cpu_ms: float = 0.5,
        cpu: Optional[Resource] = None,
        disk_reads: bool = False,
    ):
        self.sim = sim
        self.disk = disk
        self.name = name
        self.txn_cpu_ms = txn_cpu_ms
        self._cpu = cpu
        #: When True, reads of existing keys pay a random disk read of
        #: the value's size (no buffer pool — models a DB whose working
        #: set exceeds memory, as the Psession baseline requires).
        self.disk_reads = disk_reads
        self.wal = StableStore(name=f"{name}.wal")
        self._data: dict[str, bytes] = {}
        self._txn_ids = itertools.count(1)
        #: key -> owning txn_id; FIFO waiters per key.
        self._lock_owner: dict[str, int] = {}
        self._lock_waiters: dict[str, Store] = {}
        self.stats_commits = 0
        self.stats_aborts = 0
        self.stats_log_forces = 0

    # -- public API --------------------------------------------------------

    def begin(self) -> Transaction:
        return Transaction(self, next(self._txn_ids))

    def get_committed(self, key: str) -> Optional[bytes]:
        """Direct read of committed state (for assertions in tests)."""
        return self._data.get(key)

    def crash(self) -> None:
        """Lose all volatile state; the durable WAL prefix survives."""
        self.wal.crash()
        self._data = {}
        self._lock_owner = {}
        self._lock_waiters = {}

    def recover(self):
        """Rebuild committed state from the durable WAL (generator).

        Charges sequential disk reads for the WAL scan, then replays
        writes of committed transactions only.
        """
        nbytes = self.wal.durable_end
        if nbytes:
            yield from self.disk.read_bytes(nbytes, sequential=True)
        staged: dict[int, dict[str, bytes]] = {}
        for _offset, payload in FrameReader(self.wal.read(0, nbytes)):
            (kind, txn_id, *write), _ = decode_fields(_WAL_FIELDS[payload[0]], payload, 0)
            if kind == _REC_BEGIN:
                staged[txn_id] = {}
            elif kind == _REC_WRITE:
                key, value = write
                staged.setdefault(txn_id, {})[key] = value
            elif kind == _REC_COMMIT:
                self._data.update(staged.pop(txn_id, {}))

    # -- internals ------------------------------------------------------------

    def _charge_cpu(self):
        if self._cpu is None:
            yield self.txn_cpu_ms  # plain delay when no shared CPU given
            return
        yield from self._cpu.hold(self.txn_cpu_ms)

    def _lock_key(self, txn: Transaction, key: str):
        """Acquire an exclusive lock on ``key`` (generator, FIFO)."""
        if key in txn._locks:
            return
        while self._lock_owner.get(key) is not None:
            waiters = self._lock_waiters.setdefault(key, Store(self.sim, name=f"lock:{key}"))
            yield from waiters.get()
        self._lock_owner[key] = txn.txn_id
        txn._locks.add(key)

    def _release_locks(self, txn: Transaction) -> None:
        for key in txn._locks:
            if self._lock_owner.get(key) == txn.txn_id:
                del self._lock_owner[key]
                waiters = self._lock_waiters.get(key)
                if waiters is not None:
                    # Wake one waiter (it re-checks ownership).
                    waiters.put(None)
        txn._locks.clear()

    def _commit_writes(self, txn: Transaction):
        self.wal.append(_wal_record(_REC_BEGIN, txn.txn_id))
        for key, value in txn._writes.items():
            self.wal.append(_wal_record(_REC_WRITE, txn.txn_id, key, value))
        commit = _wal_record(_REC_COMMIT, txn.txn_id)
        end = self.wal.append(commit) + len(commit)
        # Force the WAL: the transaction is durable before we ack.
        unflushed = end - self.wal.durable_end
        yield from self.disk.write_bytes(unflushed)
        self.wal.mark_durable(end)
        self.stats_log_forces += 1
        # Apply to committed state.
        self._data.update(txn._writes)
