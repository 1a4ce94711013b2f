"""The MSP's shared physical log (paper §1.3, §3.1, §5.5; DESIGN.md §14).

All sessions of an MSP write to one logical log, which lowers amortized
flush overhead but requires position streams for per-session extraction
(see :mod:`repro.core.position_stream`).  The log manager owns:

- appending framed, byte-encoded records (LSN = a plsn: the partition
  index packed above the logical byte offset of the record's frame —
  see :mod:`repro.core.plsn`);
- the flush pipeline — one flusher daemon per partition serializes that
  partition's disk writes; with *batch flushing* enabled (paper §5.5),
  a flush request waits a timeout window so several requests are served
  with a single write;
- the log anchor (paper §3.4), a dedicated block on the control
  partition holding the LSN of the most recent MSP checkpoint;
- timed reads for recovery (64 KB chunks, paper §5.4) — the log is
  only ever read forward; orphan rollback reads none of it.

With ``partitions > 1`` the log is split across N segmented stores,
each with its own disk and group-commit flusher: session streams hash
to a partition by session id, control records (checkpoints, recovery
announcements) go to partition 0, and appends on different partitions
never serialize against each other.  ``partitions=1`` is the same code
with one store: every plsn is a raw offset (``make_plsn(0, off) ==
off``), so the bytes, probes and counters are those of the historical
single-log manager.

Sector accounting follows §5.2: each flush writes whole sectors and the
next flush starts at a fresh sector boundary, wasting on average half a
sector per flush — fewer flushes therefore also waste less log space.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

from repro.core.plsn import make_plsn, plsn_offset, plsn_partition
from repro.core.records import (
    KIND_FILLER,
    FillerRecord,
    LogRecord,
    MspCheckpointRecord,
    decode_record,
)
from repro.sim import ProcessGroup, Simulator, Store
from repro.storage import Disk, LogTruncatedError, StableStore
from repro.storage.disk import SECTOR_BYTES
from repro.wire import frame, unframe
from repro.wire.framing import _HEADER

#: Largest log block written in one disk operation, in sectors (paper
#: §5.2: blocks vary from 1 to 128 sectors).
MAX_BLOCK_SECTORS = 128
#: Recovery log reads are issued in chunks of this many sectors (paper
#: §5.4: 64 KB = 128 sectors).
READ_CHUNK_SECTORS = 128

#: The per-partition counter names tracked in ``LogStats.partitions``.
PARTITION_STAT_FIELDS = (
    "appends",
    "appended_bytes",
    "flush_requests",
    "physical_flushes",
    "flushed_bytes",
    "truncations",
    "truncated_bytes",
    "live_bytes",
)


@dataclass
class LogStats:
    """Counters for the experiment reports."""

    appended_records: int = 0
    appended_bytes: int = 0
    flush_requests: int = 0
    physical_flushes: int = 0
    flushed_bytes: int = 0
    flushed_sectors: int = 0
    wasted_bytes: int = 0
    read_chunks: int = 0
    #: A hit is a ``record_at`` answered from the analysis scan's
    #: decode; a miss is a record decoded, by the scan or ``record_at``.
    decode_cache_hits: int = 0
    decode_cache_misses: int = 0
    #: Log-space reclamation (checkpoint-driven truncation).
    truncations: int = 0
    truncated_bytes: int = 0
    recycled_segments: int = 0
    #: Bytes held in retained segments at the last truncation point —
    #: the quantity the ``log_space`` benchmark shows stays
    #: O(checkpoint interval) instead of O(run length).
    live_bytes: int = 0
    #: Per-partition counter breakdown, ``partition -> {field -> n}``.
    partitions: dict = field(default_factory=dict)

    def snapshot(self) -> "LogStats":
        data = dict(vars(self))
        data["partitions"] = {
            index: dict(counters) for index, counters in self.partitions.items()
        }
        return LogStats(**data)

    def partition(self, index: int) -> dict:
        """The (lazily created) counter dict for one partition."""
        counters = self.partitions.get(index)
        if counters is None:
            counters = self.partitions[index] = {
                name: 0 for name in PARTITION_STAT_FIELDS
            }
        return counters

    @property
    def coalesced_flushes(self) -> int:
        """Flush requests served by another request's physical write."""
        return max(0, self.flush_requests - self.physical_flushes)


#: What the scan image does not retain: no ``record_at`` after the
#: analysis scan asks for these, and they are the bulk of what it
#: decodes — fillers (every second frame under calibrated overhead) and
#: MSP checkpoints (a per-session dict each; recovery reads the anchored
#: one before the scan, and the analysis pass takes the last scanned
#: one's snapshot from the scan's own record list).
_NOT_RETAINED = (FillerRecord, MspCheckpointRecord)


class _LogPartition:
    """One partition's store, disk, flush queue and scan image."""

    __slots__ = ("index", "store", "disk", "queue", "scanned")

    def __init__(self, index: int, store: StableStore, disk: Disk, queue: Store):
        self.index = index
        self.store = store
        self.disk = disk
        self.queue = queue
        #: The scan image, ``offset -> record``: what the analysis scan
        #: decoded from this partition's CRC-checked durable prefix.
        #: Only ``scan_durable`` fills it; ``rewind`` and truncation
        #: evict, so an entry always equals a fresh decode of the bytes
        #: at its offset (DESIGN.md §9).
        self.scanned: dict[int, LogRecord] = {}


class LogManager:
    """Append, flush and read the shared physical log of one MSP."""

    def __init__(
        self,
        sim: Simulator,
        store: Union[StableStore, Sequence[StableStore]],
        disk: Union[Disk, Sequence[Disk]],
        name: str = "log",
        batch_flush_timeout_ms: float = 0.0,
        cpu=None,
        flush_cpu_ms: float = 0.0,
        record_overhead_bytes: int = 0,
        owner: Optional[str] = None,
    ):
        self.sim = sim
        stores = [store] if isinstance(store, StableStore) else list(store)
        disks = [disk] if isinstance(disk, Disk) else list(disk)
        if len(stores) != len(disks):
            raise ValueError(
                f"{name}: {len(stores)} stores but {len(disks)} disks"
            )
        self.name = name
        #: Crash-site probe attribution: the name of the MSP whose log
        #: this is (``repro.fuzz`` kills that MSP at probe firings).
        self.owner = owner
        self.batch_flush_timeout_ms = batch_flush_timeout_ms
        #: Optional CPU-charging hook ``cpu(ms) -> generator`` and the
        #: CPU cost of formatting/issuing one physical log write.  With
        #: batch flushing, several flush requests share one write and
        #: therefore one CPU charge — this is why the paper observes
        #: batching "can reduce both CPU and disk utilization
        #: simultaneously" (§5.5).
        self._cpu = cpu
        self.flush_cpu_ms = flush_cpu_ms
        self.record_overhead_bytes = record_overhead_bytes
        #: The filler frame appended after every non-filler record.
        self._filler_frame = frame(FillerRecord(record_overhead_bytes).encode())
        self.stats = LogStats()
        self.partitions = [
            _LogPartition(
                i,
                stores[i],
                disks[i],
                Store(sim, name=f"{name}.flush" if i == 0 else f"{name}.flush.p{i}"),
            )
            for i in range(len(stores))
        ]
        self.nparts = len(self.partitions)
        # Aliases for the control partition — the historical
        # single-store surface most callers and tests use.
        self.store = stores[0]
        self.disk = disks[0]
        self._flushers: list = []

    def start(self, group: Optional[ProcessGroup] = None) -> None:
        """Spawn the flusher daemons (kill them via ``group`` on crash)."""
        self._flushers = [
            self.sim.spawn(
                self._flusher_loop(unit),
                name=(
                    f"{self.name}.flusher"
                    if unit.index == 0
                    else f"{self.name}.flusher.p{unit.index}"
                ),
                group=group,
            )
            for unit in self.partitions
        ]

    # -- routing -------------------------------------------------------------

    def partition_of_session(self, session_id: Optional[str]) -> int:
        """The partition a record of ``session_id`` is appended to.

        Session-stream records hash by session id (a session's whole
        stream shares one partition, so position-stream offsets stay
        comparable); everything else (``None``) — MSP/SV checkpoints,
        recovery announcements — is control state on partition 0.
        """
        if session_id is None:
            return 0
        return zlib.crc32(session_id.encode("utf-8")) % self.nparts

    # -- appending -----------------------------------------------------------

    def append(self, record: LogRecord) -> tuple[int, int]:
        """Encode, frame and buffer ``record``.

        Returns ``(lsn, framed_size)``; the record is volatile until a
        flush covers it.
        """
        self.sim.probe("log.append", owner=self.owner)
        unit = self.partitions[
            self.partition_of_session(getattr(record, "session_id", None))
        ]
        payload = record.encode()
        framed = frame(payload)
        offset = unit.store.append(framed)
        size = len(framed)
        if self.record_overhead_bytes > 0 and not isinstance(record, FillerRecord):
            unit.store.append(self._filler_frame)
            size += len(self._filler_frame)
        self.stats.appended_records += 1
        self.stats.appended_bytes += size
        pstats = self.stats.partition(unit.index)
        pstats["appends"] += 1
        pstats["appended_bytes"] += size
        tracer = self.sim.tracer
        if tracer is not None:
            # Per-kind log-record volume (the §5.5 space accounting).
            kind = record.__class__.__name__
            tracer.metrics.inc(f"log.append.{kind}.records")
            tracer.metrics.inc(f"log.append.{kind}.bytes", size)
        return make_plsn(unit.index, offset), size

    def partition_end(self, index: int) -> int:
        """Offset just past the last appended byte of one partition."""
        return self.partitions[index].store.end

    def partition_ends(self) -> tuple[int, ...]:
        """Every partition's current end offset."""
        return tuple(unit.store.end for unit in self.partitions)

    def is_durable(self, lsn: int) -> bool:
        """Is the *whole record* at ``lsn`` on disk?"""
        unit = self.partitions[plsn_partition(lsn)]
        return self._frame_end_off(unit, plsn_offset(lsn)) <= unit.store.durable_end

    def _frame_end_off(self, unit: _LogPartition, offset: int) -> int:
        (length, _crc) = _HEADER.unpack_from(unit.store.view(offset, _HEADER.size))
        return offset + _HEADER.size + length

    # -- flushing --------------------------------------------------------------

    def _flush_target(self, unit: _LogPartition, offset: int) -> int:
        """The durable boundary a flush of the record at ``offset`` must reach.

        With per-record overhead modeled, every non-filler record is
        immediately followed by its filler frame; flushing through the
        filler keeps ``append``'s reported size and the durable boundary
        in agreement (sector accounting would otherwise undercount the
        final record's footprint).
        """
        target = self._frame_end_off(unit, offset)
        if self.record_overhead_bytes > 0 and target + _HEADER.size <= unit.store.end:
            view = unit.store.view(target, _HEADER.size + 1)
            length, _crc = _HEADER.unpack_from(view)
            filler_end = target + _HEADER.size + length
            if length > 0 and view[_HEADER.size] == KIND_FILLER and filler_end <= unit.store.end:
                target = filler_end
        return target

    def flush(self, upto_lsn: Optional[int] = None):
        """Make the log durable at least through ``upto_lsn`` (generator).

        ``None`` flushes everything appended so far on *every*
        partition; an lsn flushes its own partition through the record.
        Returns once the target is durable; several callers may be
        satisfied by a single physical write (group commit), and with
        batch flushing enabled the flusher waits a timeout window first.
        """
        self.stats.flush_requests += 1
        if upto_lsn is None:
            yield from self._flush_units(
                [(unit, unit.store.end) for unit in self.partitions]
            )
            return
        unit = self.partitions[plsn_partition(upto_lsn)]
        target = self._flush_target(unit, plsn_offset(upto_lsn))
        yield from self._flush_units([(unit, target)])

    def flush_with_ends(self, lsn: int):
        """Make the record at ``lsn`` durable and every other partition
        durable through its current end (generator): the MSP
        checkpoint's flush.  One request per partition, as if each had
        been flushed on its own, but all of them run at once.
        """
        self.stats.flush_requests += self.nparts
        own = plsn_partition(lsn)
        yield from self._flush_units(
            [
                (
                    unit,
                    self._flush_target(unit, plsn_offset(lsn))
                    if unit.index == own
                    else unit.store.end,
                )
                for unit in self.partitions
            ]
        )

    def flush_partition(self, index: int):
        """Make one partition durable through its current end (generator).

        This is the distributed-flush leg primitive: a leg needs only
        the partition its DV entry names, not the whole log.
        """
        self.stats.flush_requests += 1
        unit = self.partitions[index]
        yield from self._flush_units([(unit, unit.store.end)])

    def _flush_units(self, targets: list[tuple[_LogPartition, int]]):
        """Flush each ``(unit, target)`` pair (generator).

        Every partition's request is queued before any is awaited, so
        the partitions' flushers write at once and the call lasts as
        long as the slowest write, not the sum of them.
        """
        tracer = self.sim.tracer
        started_at = self.sim.now
        pending = []
        for unit, target in targets:
            self.stats.partition(unit.index)["flush_requests"] += 1
            if target <= unit.store.durable_end:
                continue
            done = self.sim.event(name=f"{self.name}.flushed")
            unit.queue.put((target, done))
            pending.append(done)
        for done in pending:
            if not done.triggered:
                yield done
            if tracer is not None:
                # Request-to-durable latency, including batch-window and
                # group-commit queueing — the flush-latency histogram.
                # The event carries the time its write completed.
                tracer.metrics.observe("log.flush.wait_ms", done.value - started_at)

    def _flusher_loop(self, unit: _LogPartition):
        while True:
            target, done = yield from unit.queue.get()
            waiters = [(target, done)]
            if self.batch_flush_timeout_ms > 0:
                # Batch flushing (paper §5.5): "a request to flush the
                # log is not executed immediately, but rather after a
                # specified timeout, providing a possibility to process
                # several flush requests with a single write."
                yield self.batch_flush_timeout_ms
            # Coalescing fast path: drain everything queued *now* and
            # serve the whole burst with one physical write (group
            # commit).  Without batching this still helps whenever
            # requests arrive while an earlier write holds the disk —
            # the contention the paper's Fig. 17 measures — without
            # delaying a lone request the way the timeout window does.
            while True:
                available, extra = unit.queue.try_get()
                if not available:
                    break
                waiters.append(extra)
            goal = max(t for t, _ in waiters)
            if goal > unit.store.durable_end:
                yield from self._write_out(unit, goal)
            for _t, event in waiters:
                event.trigger(self.sim.now)

    def _write_out(self, unit: _LogPartition, goal: int):
        """Physically write [durable_end, goal) in <=128-sector blocks."""
        start = unit.store.durable_end
        if goal <= start:
            return
        self.sim.probe("log.flush.begin", owner=self.owner)
        tracer = self.sim.tracer
        span = None
        if tracer is not None:
            span = tracer.span(
                "log.write",
                owner=self.owner,
                bytes=goal - start,
                partition=unit.index,
            )
        if self._cpu is not None and self.flush_cpu_ms > 0:
            yield from self._cpu(self.flush_cpu_ms)
        nbytes = goal - start
        sectors = max(1, math.ceil(nbytes / SECTOR_BYTES))
        self.stats.physical_flushes += 1
        self.stats.flushed_bytes += nbytes
        self.stats.flushed_sectors += sectors
        self.stats.wasted_bytes += sectors * SECTOR_BYTES - nbytes
        pstats = self.stats.partition(unit.index)
        pstats["physical_flushes"] += 1
        pstats["flushed_bytes"] += nbytes
        remaining = sectors
        while remaining > 0:
            block = min(remaining, MAX_BLOCK_SECTORS)
            yield from unit.disk.write(block)
            self.sim.probe("log.flush.block", owner=self.owner)
            remaining -= block
        unit.store.mark_durable(goal)
        if span is not None:
            span.end(sectors=sectors)
        self.sim.probe("log.flush.end", owner=self.owner)

    # -- the log anchor ----------------------------------------------------------

    def write_anchor(self, msp_checkpoint_lsn: int):
        """Durably record the most recent MSP checkpoint LSN (generator).

        The anchor lives on the control partition's store — checkpoint
        records are control records, so the anchored lsn is always a
        partition-0 plsn.
        """
        self.store.write_anchor(msp_checkpoint_lsn.to_bytes(8, "big"))
        # Crash between staging and the disk write completing must leave
        # the previous durable anchor in effect (never a torn anchor).
        self.sim.probe("log.anchor.staged", owner=self.owner)
        yield from self.disk.write(1)
        self.store.flush_anchor()
        self.sim.probe("log.anchor.end", owner=self.owner)

    def read_anchor(self) -> Optional[int]:
        """The durable MSP checkpoint LSN, or None if never written."""
        data = self.store.read_anchor()
        if data is None:
            return None
        return int.from_bytes(data, "big")

    # -- reading -----------------------------------------------------------------

    def record_at(
        self, lsn: int, frame_end: Optional[int] = None
    ) -> tuple[LogRecord, int]:
        """Parse the record at ``lsn`` from store bytes (no timing).

        Returns ``(record, next_lsn)``.  Timing is charged separately by
        the read helpers below, which model the 64 KB chunked I/O.
        The frame header always comes from the store (below the
        truncation floor that raises :class:`LogTruncatedError`); the
        record is the analysis scan's decode when the scan image has one
        (a hit), else it is CRC-checked and decoded here (a miss) and
        not kept.  Callers that already parsed the frame header (the
        window reader does, for its window check) pass ``frame_end`` —
        the *offset* just past the frame within the lsn's partition — so
        the header is unpacked once per fetch, not twice.
        """
        unit = self.partitions[plsn_partition(lsn)]
        offset = plsn_offset(lsn)
        end = frame_end if frame_end is not None else self._frame_end_off(unit, offset)
        record = unit.scanned.get(offset)
        if record is not None:
            self.stats.decode_cache_hits += 1
        else:
            self.stats.decode_cache_misses += 1
            payload, _consumed = unframe(unit.store.view(offset, end - offset), 0)
            if payload is None:
                raise ValueError(f"{self.name}: no complete record at LSN {lsn}")
            record = decode_record(payload)
        return record, make_plsn(unit.index, end)

    def scan_durable(self, start: int):
        """Timed sequential scan of one partition's durable log (generator).

        Reads [start, durable_end) of the partition ``start`` addresses
        in ``READ_CHUNK_SECTORS`` chunks, charging disk time, then
        returns the parsed ``(lsn, record)`` list.  This is the
        single-threaded analysis scan of §4.3; partitioned recovery
        calls it once per partition and merges by dependency order.

        Parsing is zero-copy per segment: one view over each contiguous
        span of the segmented store, frames and payloads sliced out of
        it without intermediate ``bytes`` materialization.  A frame that
        straddles a segment boundary is stitched individually — the only
        copies the scan ever makes.  Each record decoded here enters
        the partition's scan image (except ``_NOT_RETAINED``), so the
        replay reads that follow do not decode it again.

        A ``start`` below the truncation floor raises
        :class:`LogTruncatedError`: recovery computes its scan start
        from the anchored checkpoint's minimal LSN, which is exactly the
        value the floor advances to, so the scan can never legitimately
        begin in recycled space.
        """
        unit = self.partitions[plsn_partition(start)]
        store = unit.store
        start_off = plsn_offset(start)
        floor = store.truncate_lsn
        if start_off < floor:
            raise LogTruncatedError(
                f"{self.name}: scan start {start_off} below the truncation "
                f"floor {floor}"
            )
        end = store.durable_end
        chunk_bytes = READ_CHUNK_SECTORS * SECTOR_BYTES
        position = start_off
        while position < end:
            size = min(chunk_bytes, end - position)
            yield from unit.disk.read_bytes(size, sequential=True)
            self.stats.read_chunks += 1
            position += size
        records: list[tuple[int, LogRecord]] = []
        # No simulation yields below this point: the views must not be
        # held across an append (see StableStore.view).
        position = start_off
        while position < end:
            span_end = min(end, store.contiguous_end(position))
            view = store.view(position, span_end - position)
            span = span_end - position
            offset = 0
            while offset < span:
                payload, next_offset = unframe(view, offset)
                if payload is None:
                    break
                self._scan_emit(records, unit, position + offset, payload)
                offset = next_offset
            position += offset
            del view
            if position >= end:
                break
            # The next frame straddles the span's end: either it crosses
            # a segment boundary (stitch exactly that frame) or the
            # durable prefix ends mid-frame (the torn tail — stop).
            if position + _HEADER.size > end:
                break
            (length, _crc) = _HEADER.unpack_from(store.view(position, _HEADER.size))
            frame_end = position + _HEADER.size + length
            if frame_end > end:
                break
            payload, _next = unframe(store.view(position, frame_end - position), 0)
            self._scan_emit(records, unit, position, payload)
            position = frame_end
        return records

    def _scan_emit(
        self, records: list, unit: _LogPartition, offset: int, payload
    ) -> None:
        """Decode one scanned frame payload into ``records`` and the image."""
        self.stats.decode_cache_misses += 1
        record = decode_record(payload)
        if not isinstance(record, _NOT_RETAINED):
            unit.scanned[offset] = record
        records.append((make_plsn(unit.index, offset), record))

    # -- truncation ---------------------------------------------------------

    @property
    def truncate_lsn(self) -> int:
        return self.store.truncate_lsn

    def rewind(self, cuts: Sequence[int]) -> None:
        """Discard per-partition suffixes beyond recovery's consistent cut.

        Crash recovery calls this with its cut: a durable record whose
        cross-partition dependency was lost is excluded from the
        recovered state, and its bytes must go with it — left on disk,
        a later recovery would rediscover the record after the offsets
        its dependencies named have been reused by new appends.  (A
        single log's cut is its durable end: nothing to discard.)
        """
        for unit, cut in zip(self.partitions, cuts):
            store = unit.store
            if cut < store.end:
                store.rewind(cut)
                # A scanned decode must not outlive its bytes: evict
                # before any append can reuse the offsets.
                scanned = unit.scanned
                for offset in [k for k in scanned if k >= cut]:
                    del scanned[offset]
        self.stats.live_bytes = sum(u.store.live_bytes for u in self.partitions)
        for unit in self.partitions:
            self.stats.partition(unit.index)["live_bytes"] = unit.store.live_bytes

    def truncate_to(self, floors: Sequence[int]):
        """Advance every partition's truncation floor (generator).

        Called by the MSP checkpoint daemon once the log anchor is
        durable, with the per-partition floor vector from
        ``MspCheckpointRecord.partition_floors``.  Safety: the floors
        lower-bound every LSN recovery can touch — session scan starts,
        shared-variable scan starts (nothing below a variable's last
        checkpoint is ever installed), EOS back-pointers are only
        compared, never read — so no read below a new floor can ever be
        issued by correct code.

        The yield between the probes is a real crash window: a crash
        after the anchor is durable but before segments are recycled
        must recover exactly like one after recycling (the floor is not
        recovery state — the next checkpoint simply re-truncates).
        """
        recycled_total = 0
        for unit, floor_off in zip(self.partitions, floors):
            recycled_total += yield from self._truncate_unit(unit, floor_off)
        return recycled_total

    def _truncate_unit(self, unit: _LogPartition, floor_off: int):
        store = unit.store
        target = min(floor_off, store.durable_end)
        self.sim.probe("log.truncate.begin", owner=self.owner)
        tracer = self.sim.tracer
        span = None
        if tracer is not None:
            span = tracer.span(
                "log.truncate", owner=self.owner, floor=target,
                partition=unit.index,
            )
        # Crash window: anchor durable, segments not yet recycled.
        yield 0.0
        before = store.truncate_lsn
        recycled = store.truncate(target)
        if recycled:
            unit.disk.trim(recycled * store.segment_bytes)
        floor = store.truncate_lsn
        if floor > before:
            # The scan image shrinks with the live log.
            scanned = unit.scanned
            for offset in [k for k in scanned if k < floor]:
                del scanned[offset]
        self.stats.truncations += 1
        self.stats.truncated_bytes = sum(
            u.store.truncated_bytes for u in self.partitions
        )
        self.stats.recycled_segments = sum(
            u.store.recycled_segments for u in self.partitions
        )
        self.stats.live_bytes = sum(u.store.live_bytes for u in self.partitions)
        pstats = self.stats.partition(unit.index)
        pstats["truncations"] += 1
        pstats["truncated_bytes"] = store.truncated_bytes
        pstats["live_bytes"] = store.live_bytes
        if span is not None:
            span.end(recycled_segments=recycled, live_bytes=store.live_bytes)
        self.sim.probe("log.truncate.end", owner=self.owner)
        return recycled


class LogWindowReader:
    """Chunked reader for replaying a session's scattered log records.

    Session recovery follows the position stream; records are pulled
    through a 64 KB window so "log reads during recovery are larger and
    more efficient than log flushes" (paper §5.4).  A fetch outside the
    current window costs one sequential chunk read.  One reader serves
    one partition — a session's stream and its checkpoint live entirely
    on the session's own — so the window carries no partition tag.
    """

    def __init__(self, log: LogManager):
        self.log = log
        self._window_start = -1
        self._window_end = -1

    def fetch(self, lsn: int):
        """Return the record at ``lsn`` (generator, charges disk time)."""
        unit = self.log.partitions[plsn_partition(lsn)]
        offset = plsn_offset(lsn)
        # Through the buffered end: replay during normal operation (an
        # orphan session's) reads records no flush has covered yet.
        limit = unit.store.end
        if offset >= limit:
            raise ValueError(f"fetch at {lsn} beyond readable end {limit}")
        floor = unit.store.truncate_lsn
        if offset < floor:
            raise LogTruncatedError(
                f"{self.log.name}: fetch at {lsn} below the truncation "
                f"floor {floor}"
            )
        if -1 < self._window_start < floor:
            # The window's low end was recycled by a truncation; its
            # accounting must not pretend those bytes are still readable.
            self._window_start = self._window_end = -1
        frame_end = self.log._frame_end_off(unit, offset)
        # The window is invalid if the record *starts* outside it, or if
        # it starts inside but its frame straddles the window's end — a
        # window capped at an earlier end of the log does not magically
        # cover bytes appended since, so re-read at the current limit
        # rather than parse from a short read.
        if not (self._window_start <= offset and frame_end <= self._window_end):
            chunk = READ_CHUNK_SECTORS * SECTOR_BYTES
            size = min(chunk, limit - offset)
            yield from unit.disk.read_bytes(size, sequential=True)
            self.log.stats.read_chunks += 1
            self._window_start = offset
            self._window_end = offset + size
        # The frame end is already known from the window check above;
        # threading it through saves the second header unpack per fetch.
        record, _next = self.log.record_at(lsn, frame_end=frame_end)
        return record
