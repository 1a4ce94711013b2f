"""MSP crash recovery (paper §4.3, Fig. 12).

The sequence after a restart:

1. re-initialize from the most recent MSP checkpoint (found via the log
   anchor);
2. a single-threaded analysis scan of the durable log from the minimal
   LSN: reconstruct position streams (pruning at EOS records and
   session-end markers), roll shared variables forward to their most
   recent logged values, and rebuild recovered-state-number knowledge;
3. broadcast the recovery announcement (the largest persistent LSN)
   within the service domain — peers ack with their own knowledge, so
   announcements we slept through are caught up;
4. take a fresh MSP checkpoint;
5. recover all sessions **in parallel** along their reconstructed
   position streams while already accepting new sessions.

Step 5 is one drain (DESIGN.md §15): every rebuilt session is marked
``lazy_pending`` and replayed along its scan-built position stream by
whoever claims it first (:func:`recover_session`) — a drain worker, or
the session's next request inline.  ``recovery_mode`` only sets the
worker count: ``eager`` starts one worker per session, so every session
is claimed the instant the MSP opens (the paper's restart); ``lazy``
starts ``recovery_pump_concurrency`` of them, so time-to-first-served-
request drops from O(total log replay) to O(analysis + one session's
stream).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional

from repro.core.checkpoint import perform_msp_checkpoint
from repro.core.config import COSTS
from repro.core.dv import PKEY_BITS, RecoveryTable
from repro.core.errors import LogTruncatedError, RecoveryMergeError
from repro.core.plsn import (
    OFFSET_BITS,
    OFFSET_MASK,
    decode_frontier,
    encode_frontier,
    make_plsn,
)
from repro.core.records import (
    NO_LSN,
    AnnouncementRecord,
    CommandRecord,
    EosRecord,
    LogRecord,
    MspCheckpointRecord,
    ReplyRecord,
    RequestRecord,
    SessionCheckpointRecord,
    SessionEndRecord,
    SvCheckpointRecord,
    SvReadRecord,
    SvUpdateRecord,
    SvWriteRecord,
)
from repro.core.replay import run_session_recovery
from repro.core.session import SessionStatus

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.msp import MiddlewareServer


@dataclass
class AnalysisState:
    """What crash recovery reconstructs, shared by the phases of
    :func:`recover_msp`: the analysis scan's output first, then what the
    phases around it hand each other.  Every per-partition quantity is
    a list of length ``log.nparts``."""

    #: session id -> LSNs of its position-stream records.
    positions: dict[str, list[int]] = field(default_factory=dict)
    #: session id -> LSN of its most recent session checkpoint.
    session_ckpts: dict[str, int] = field(default_factory=dict)
    #: sessions whose end marker was seen (never rebuilt).
    ended: set[str] = field(default_factory=set)

    #: LSN of the anchored MSP checkpoint (None: never anchored) and
    #: the epoch being recovered: the anchor's, unless the scan holds an
    #: interrupted recovery's checkpoint (:func:`find_incarnation_boundary`).
    anchor: Optional[int] = None
    old_epoch: int = 0
    #: variable -> per-partition live-chain floors as of the anchored
    #: checkpoint; a scanned write below its floor was superseded by a
    #: shared-variable checkpoint and is not the variable's value.
    sv_floors: dict[str, list[int]] = field(default_factory=dict)
    #: Per-partition scan start offsets.
    scan_starts: list[int] = field(default_factory=list)
    #: partition -> scanned ``(offset, record)`` pairs, below the cut
    #: once :func:`cut_and_merge` ran.
    partition_records: dict[int, list] = field(default_factory=dict)
    #: Per-partition consistent cut — the recovered frontier.
    cut: list[int] = field(default_factory=list)
    #: The merged ``(plsn, record)`` scan the analysis pass consumes.
    records: list = field(default_factory=list)
    #: The last scanned MSP checkpoint's table snapshot, which contains
    #: every earlier one's (DESIGN.md §14).
    last_snapshot: Optional[dict] = None
    #: ``cut`` as announced and recorded (``encode_frontier``).
    recovered_lsn: int = 0
    #: The rebuilt sessions awaiting replay, in session-id order.
    to_recover: list = field(default_factory=list)


# -- per-record-kind handlers of the analysis scan ---------------------------
#
# The scan decodes *every* durable record, so its inner loop is the
# hottest CPU path of recovery.  Dispatch is a single dict lookup on the
# record's concrete class (``decode_record`` always produces leaf
# types), replacing the old chain of up to ~10 sequential ``isinstance``
# checks per record; the benchmark's ``core_recovery.analyze_us_per_rec``
# tracks the per-record cost.  Each handler does *all* the work for its kind,
# including position-stream membership, except that the MSP checkpoint
# handler only notes its snapshot for the one merge after the loop.


def _scan_position(msp, state: AnalysisState, lsn: int, record) -> None:
    state.positions.setdefault(record.session_id, []).append(lsn)


def _live_write(msp, state: AnalysisState, lsn: int, record):
    """The variable a scanned write installs into, or None: an
    unregistered variable, or a write below the variable's live-chain
    floor in the anchored checkpoint.  Such a write is still a replay
    position of its session, but a checkpoint superseded it, and with
    several partitions nothing orders it before that checkpoint in the
    merge (DESIGN.md §14, "what the analysis pass may install")."""
    floors = state.sv_floors.get(record.variable)
    if floors is not None and (lsn & OFFSET_MASK) < floors[lsn >> OFFSET_BITS]:
        return None
    return msp.shared.get(record.variable)


def _scan_sv_write(msp, state: AnalysisState, lsn: int, record) -> None:
    state.positions.setdefault(record.session_id, []).append(lsn)
    sv = _live_write(msp, state, lsn, record)
    if sv is not None:
        sv.apply_write(lsn, record.value, record.writer_dv)


def _scan_sv_update(msp, state: AnalysisState, lsn: int, record) -> None:
    state.positions.setdefault(record.session_id, []).append(lsn)
    sv = _live_write(msp, state, lsn, record)
    if sv is not None:
        sv.apply_write(lsn, record.new_value, record.writer_dv)


def _scan_sv_checkpoint(msp, state: AnalysisState, lsn: int, record) -> None:
    sv = msp.shared.get(record.variable)
    if sv is not None:
        sv.value = record.value
        # Command logging (DESIGN.md §16): the frontier says which
        # command effects the checkpointed value already includes, so
        # replayed commands at or below it skip re-apply.
        sv.command_frontier = dict(record.command_frontier)
        # The new base of the undo stack: the writes the merge orders
        # after this record rebuild the stack on top of it.
        sv.apply_checkpoint(lsn)


def _scan_session_checkpoint(msp, state: AnalysisState, lsn: int, record) -> None:
    state.session_ckpts[record.session_id] = lsn
    state.positions[record.session_id] = []
    state.ended.discard(record.session_id)


def _scan_eos(msp, state: AnalysisState, lsn: int, record) -> None:
    kept = state.positions.get(record.session_id)
    if kept is not None:
        state.positions[record.session_id] = [
            p for p in kept if p < record.orphan_lsn
        ]


def _scan_announcement(msp, state: AnalysisState, lsn: int, record) -> None:
    msp.table.record(record.msp, record.epoch, record.recovered_lsn)


def _scan_msp_checkpoint(msp, state: AnalysisState, lsn: int, record) -> None:
    state.last_snapshot = record.recovered_snapshot


def _scan_session_end(msp, state: AnalysisState, lsn: int, record) -> None:
    state.ended.add(record.session_id)
    state.positions.pop(record.session_id, None)
    state.session_ckpts.pop(record.session_id, None)
    # An ended session's command effects can never replay again; drop
    # its frontier entries so they cannot pin variables' state.  In
    # place: the scan applies no command write, so the undo stack's
    # base and entries all share the live dict and forget it too.
    for sv in msp.shared.values():
        sv.command_frontier.pop(record.session_id, None)


#: Type-keyed dispatch table of the analysis scan.  Kinds not listed
#: here (e.g. filler frames) carry no recovery information and are
#: skipped with one failed lookup.
_ANALYSIS_DISPATCH: dict[type, Callable] = {
    RequestRecord: _scan_position,
    CommandRecord: _scan_position,
    ReplyRecord: _scan_position,
    SvReadRecord: _scan_position,
    SvWriteRecord: _scan_sv_write,
    SvUpdateRecord: _scan_sv_update,
    SvCheckpointRecord: _scan_sv_checkpoint,
    SessionCheckpointRecord: _scan_session_checkpoint,
    EosRecord: _scan_eos,
    AnnouncementRecord: _scan_announcement,
    MspCheckpointRecord: _scan_msp_checkpoint,
    SessionEndRecord: _scan_session_end,
}


def analyze_scan(
    msp: "MiddlewareServer",
    records: list[tuple[int, LogRecord]],
    state: Optional[AnalysisState] = None,
) -> AnalysisState:
    """The analysis pass over scanned ``(lsn, record)`` pairs (§4.3 step 2).

    Pure CPU — no simulated time; callers charge scan cost separately.
    Fills ``state`` (a fresh one when omitted, so tests can drive the
    pass over a hand-built record list).  Only the last scanned MSP
    checkpoint's table snapshot is merged, once.
    """
    if state is None:
        state = AnalysisState()
    dispatch = _ANALYSIS_DISPATCH
    for lsn, record in records:
        handler = dispatch.get(record.__class__)
        if handler is not None:
            handler(msp, state, lsn, record)
    if state.last_snapshot is not None:
        msp.table.merge_snapshot(state.last_snapshot)
    return state


# -- partitioned recovery: consistent cut + DV-ordered merge -----------------
#
# With the log split across partitions (DESIGN.md §14), "the durable
# log" is N durable prefixes whose relative order the disks never
# recorded.  Zhou et al.'s partially-constrained-log result says that is
# fine: only the dependency-constrained partial order matters for
# recoverability, and this repo materializes exactly those constraints —
# per-record intra-MSP DV entries and the shared-variable
# ``prev_write_lsn`` edges.  Recovery therefore (a) lowers each
# partition's durable end to a *consistent cut* in which no surviving
# record depends on a lost one,
# then (b) linearizes the cut by a dependency-respecting merge that the
# analysis pass consumes exactly like a single-partition scan.


def _own_dependencies(msp_name: str, old_epoch: int, record) -> list[int]:
    """The intra-MSP plsns ``record`` depends on within ``old_epoch``.

    Two edge kinds exist: DV entries naming our own MSP in the crashed
    epoch (entries for older epochs are resolved through the recovery
    table, not the current scan), and the shared-variable write
    order (``prev_write_lsn``), including the sv checkpoint's sealing
    edge.  A rollback makes that order a tree, not a chain: the write
    after it names the restored record, beside the undone ones.  The
    branches stay unordered here; only the live one holds non-orphans,
    which is what the rebuilt undo stack pops down to (DESIGN.md §14).
    """
    deps: list[int] = []
    prev = getattr(record, "prev_write_lsn", None)
    if prev is not None and prev != NO_LSN:
        deps.append(prev)
    for attr in ("sender_dv", "variable_dv", "writer_dv"):
        dv = getattr(record, attr, None)
        if dv is None:
            continue
        keys = dv._entries.get(msp_name)
        if not keys:
            continue
        for key, lsn in keys.items():
            if (key >> PKEY_BITS) == old_epoch:
                deps.append(lsn)
    return deps


def partition_dependencies(
    msp_name: str,
    old_epoch: int,
    partition_records: dict[int, list[tuple[int, LogRecord]]],
) -> dict[int, list[int]]:
    """plsn -> :func:`_own_dependencies` of the record there, for every
    scanned record that has any.  Computed once per restart: the cut,
    the merge and the merge assertion all read it.  Empty for a single
    scanned partition, whose cut and merge read no dependencies.
    """
    dependencies: dict[int, list[int]] = {}
    if len(partition_records) == 1:
        return dependencies
    for partition, records in partition_records.items():
        base = partition << OFFSET_BITS
        for offset, record in records:
            deps = _own_dependencies(msp_name, old_epoch, record)
            if deps:
                dependencies[base | offset] = deps
    return dependencies


def compute_partition_cut(
    msp_name: str,
    old_epoch: int,
    partition_records: dict[int, list[tuple[int, LogRecord]]],
    durable_ends: dict[int, int],
    dependencies: Optional[dict[int, list[int]]] = None,
) -> dict[int, int]:
    """Lower per-partition durable ends to a consistent cut.

    A durable record may depend on a record that was buffered on
    *another* partition and lost in the crash (the disks flush
    independently).  Keeping it would recover state derived from lost
    state — our own orphan.  Fixpoint: excise any record one of whose
    intra-MSP dependencies lies at or beyond the (current) cut of its
    partition, together with everything after it in its own partition
    (suffix exclusion keeps each partition a prefix, which is what the
    announcement frontier and position streams require).

    A single scanned partition has no cross-partition edges: its cut is
    its durable end.  ``dependencies`` is :func:`partition_dependencies`
    of the scan (computed here when omitted).
    """
    cut = dict(durable_ends)
    if len(partition_records) == 1:
        return cut
    if dependencies is None:
        dependencies = partition_dependencies(msp_name, old_epoch, partition_records)
    nparts = len(cut)
    changed = True
    while changed:
        changed = False
        for partition, records in partition_records.items():
            limit = cut[partition]
            base = partition << OFFSET_BITS
            for offset, _record in records:
                if offset >= limit:
                    break
                violated = False
                for dep in dependencies.get(base | offset, ()):
                    dep_partition = dep >> OFFSET_BITS
                    if dep_partition >= nparts:
                        continue
                    if (dep & OFFSET_MASK) >= cut[dep_partition]:
                        violated = True
                        break
                if violated:
                    cut[partition] = offset
                    changed = True
                    break
    return cut


def merge_partition_scans(
    msp_name: str,
    old_epoch: int,
    partition_records: dict[int, list[tuple[int, LogRecord]]],
    cut: dict[int, int],
    dependencies: Optional[dict[int, list[int]]] = None,
) -> list[tuple[int, LogRecord]]:
    """Linearize per-partition scans into one dependency-respecting order.

    Each partition's list (offset-sorted, already filtered below the
    cut) is consumed through a cursor; a head record is *eligible* when
    every intra-MSP dependency is already applied — i.e. lies before
    its own partition's cursor (same-partition order is the scan order)
    or before another partition's cursor.  Among eligible heads the
    (offset, partition) minimum is picked, making the merge
    deterministic.  Happens-before acyclicity guarantees progress; a
    stall means the log (or this merge) is broken and raises
    :class:`RecoveryMergeError`; the result is re-checked by
    :func:`assert_merge_order` before it is returned.

    A single scanned partition has nothing to interleave: the merge is
    its scan order (for partition 0 the list itself, since
    ``make_plsn(0, offset) == offset``).  ``dependencies`` is as for
    :func:`compute_partition_cut`.
    """
    if len(partition_records) == 1:
        ((partition, records),) = partition_records.items()
        if partition == 0:
            return records
        return [(make_plsn(partition, offset), record) for offset, record in records]
    if dependencies is None:
        dependencies = partition_dependencies(msp_name, old_epoch, partition_records)
    lists = {p: records for p, records in sorted(partition_records.items())}
    index = {p: 0 for p in lists}

    def cursor_offset(partition: int) -> int:
        records = lists[partition]
        i = index[partition]
        return records[i][0] if i < len(records) else cut[partition]

    merged: list[tuple[int, LogRecord]] = []
    remaining = sum(len(records) for records in lists.values())
    while remaining:
        best = None
        for partition, records in lists.items():
            i = index[partition]
            if i >= len(records):
                continue
            offset, record = records[i]
            if best is not None and (offset, partition) >= best[:2]:
                continue
            eligible = True
            for dep in dependencies.get((partition << OFFSET_BITS) | offset, ()):
                dep_partition = dep >> OFFSET_BITS
                dep_offset = dep & OFFSET_MASK
                if dep_partition == partition:
                    if dep_offset >= offset:
                        eligible = False  # forward edge: broken log
                        break
                elif dep_partition in lists and dep_offset >= cursor_offset(
                    dep_partition
                ):
                    eligible = False
                    break
            if eligible:
                best = (offset, partition, record)
        if best is None:
            stalled = {
                p: lists[p][index[p]][0]
                for p in lists
                if index[p] < len(lists[p])
            }
            raise RecoveryMergeError(
                f"{msp_name}: no eligible head among partition cursors "
                f"{stalled} — dependency cycle or corrupt log"
            )
        offset, partition, record = best
        index[partition] += 1
        remaining -= 1
        merged.append((make_plsn(partition, offset), record))
    assert_merge_order(msp_name, old_epoch, merged, dependencies)
    return merged


def assert_merge_order(
    msp_name: str,
    old_epoch: int,
    merged: list[tuple[int, LogRecord]],
    dependencies: Optional[dict[int, list[int]]] = None,
) -> None:
    """The DV-merge correctness assertion.

    Re-walks the merged order and verifies every record's intra-MSP
    dependencies were applied before it (dependencies below the scan
    starts — outside the merge — are durably checkpointed state and
    count as applied).  The merge construction guarantees this; the
    assertion guards the construction itself and documents the
    invariant executable-y.  ``dependencies`` maps a merged plsn to its
    record's own dependencies (computed here when omitted).
    """
    if dependencies is None:
        dependencies = {}
        for plsn, record in merged:
            deps = _own_dependencies(msp_name, old_epoch, record)
            if deps:
                dependencies[plsn] = deps
    applied: dict[int, int] = {}
    starts: dict[int, int] = {}
    for plsn, _record in merged:
        partition = plsn >> OFFSET_BITS
        starts.setdefault(partition, plsn & OFFSET_MASK)
    for plsn, _record in merged:
        partition = plsn >> OFFSET_BITS
        offset = plsn & OFFSET_MASK
        for dep in dependencies.get(plsn, ()):
            dep_partition = dep >> OFFSET_BITS
            dep_offset = dep & OFFSET_MASK
            if dep_offset < starts.get(dep_partition, 0):
                continue  # below the scan: checkpoint-covered
            if dep_offset >= applied.get(dep_partition, 0):
                raise RecoveryMergeError(
                    f"{msp_name}: record at p{partition}+{offset} ordered "
                    f"before its dependency p{dep_partition}+{dep_offset}"
                )
        end = offset + 1
        if applied.get(partition, 0) < end:
            applied[partition] = end
    return None


# -- the restart pipeline (§4.3, Fig. 12; DESIGN.md §14) ----------------------
#
# ``recover_msp`` drives nine phases over one ``AnalysisState``.  Every
# per-partition quantity is a vector of length ``log.nparts``; a single
# log is the one-partition case, in its records' bytes too
# (``make_plsn(0, off) == off``, ``encode_frontier((x,)) == x``).


def _span(msp: "MiddlewareServer", name: str, **fields):
    tracer = msp.sim.tracer
    if tracer is None:
        return None
    return tracer.span(name, owner=msp.name, **fields)


def _end(span, **fields) -> None:
    if span is not None:
        span.end(**fields)


def read_anchor(msp: "MiddlewareServer", state: AnalysisState):
    """Step 1: re-initialize from the anchored MSP checkpoint (generator)."""
    log = msp.log
    state.scan_starts = [0] * log.nparts
    state.anchor = log.read_anchor()
    if state.anchor is not None:
        # One random read to pull the checkpoint record itself.
        yield from msp.disk.read(1, sequential=False)
        ckpt, _next = log.record_at(state.anchor)
        if not isinstance(ckpt, MspCheckpointRecord):
            raise ValueError(f"{msp.name}: anchor does not point at an MSP checkpoint")
        msp.table = RecoveryTable()
        msp.table.merge_snapshot(ckpt.recovered_snapshot)
        state.old_epoch = ckpt.epoch
        state.scan_starts = ckpt.partition_floors(state.anchor)
        # A partition the variable's chain did not touch is pinned at
        # the offset maximum; everything of the variable's below that
        # partition's captured end is then stale.
        for name, start in ckpt.sv_start_lsns.items():
            state.sv_floors[name] = [
                ckpt.partition_ends[partition] if offset == OFFSET_MASK else offset
                for partition, offset in enumerate(decode_frontier(start))
            ]
        if len(state.scan_starts) != log.nparts:
            raise ValueError(
                f"{msp.name}: anchored checkpoint covers "
                f"{len(state.scan_starts)} partitions, but the log has "
                f"{log.nparts}"
            )
    # Truncation safety, stated as an executable assertion: the floor
    # only ever advances to an *anchored* checkpoint's minimal LSN, and
    # the durable anchor is monotone, so the scan starts derived from
    # the current anchor can never lie in recycled space.  Tripping this
    # means the truncation pipeline ran ahead of the anchor.
    for partition, unit in enumerate(log.partitions):
        if state.scan_starts[partition] < unit.store.truncate_lsn:
            raise LogTruncatedError(
                f"{msp.name}: recovery scan start "
                f"{state.scan_starts[partition]} of partition {partition} "
                f"below the truncation floor {unit.store.truncate_lsn}"
            )
    msp.sim.probe("recovery.anchor-read", owner=msp.name)


def scan_partitions(msp: "MiddlewareServer", state: AnalysisState):
    """Step 2a: read every partition's durable prefix from its scan
    start, all partitions at once (generator).

    Each partition has its own disk, so nothing makes the reads take
    turns: partition 0 is read inline, and every other partition by a
    reader process in the MSP's group (a crash kills the readers with
    the restart), joined in partition order.  The step lasts as long as
    the slowest partition's reads.  The cut and the merge impose the
    dependency order afterwards; a single log spawns nothing.
    """
    starts = state.scan_starts
    readers = [
        msp.sim.spawn(
            _read_partition(msp, partition, starts[partition]),
            name=f"{msp.name}.scan.p{partition}",
            group=msp.group,
        )
        for partition in range(1, len(starts))
    ]
    state.partition_records[0] = yield from _read_partition(msp, 0, starts[0])
    for partition, reader in enumerate(readers, 1):
        state.partition_records[partition] = yield reader


def _read_partition(msp: "MiddlewareServer", partition: int, start: int):
    """One partition's timed scan from ``start`` (generator), inside a
    tracer-only ``recovery.scan.read`` span; returns its ``(offset,
    record)`` pairs."""
    durable_end = msp.log.partitions[partition].store.durable_end
    span = _span(
        msp,
        "recovery.scan.read",
        partition=partition,
        bytes=max(0, durable_end - start),
    )
    scanned = yield from msp.log.scan_durable(make_plsn(partition, start))
    _end(span, records=len(scanned))
    return [(plsn & OFFSET_MASK, record) for plsn, record in scanned]


def find_incarnation_boundary(state: AnalysisState) -> None:
    """Step 2b: an own MSP checkpoint in the scan whose epoch exceeds
    the anchor's was written by a recovery that died between making it
    durable and anchoring it.  That recovery already announced the
    anchor epoch's frontier (it is in the checkpoint's snapshot) and
    then appended, as the next epoch, at offsets the lost incarnation
    had used; recovering the anchor's epoch again would announce a wider
    frontier for it and un-orphan peers that depend on the lost records.
    An announced frontier never grows: recover the checkpoint's epoch.

    MSP checkpoints carry no session id, so they live on partition 0.
    """
    for _offset, record in state.partition_records[0]:
        if record.__class__ is MspCheckpointRecord and record.epoch > state.old_epoch:
            state.old_epoch = record.epoch


def cut_and_merge(msp: "MiddlewareServer", state: AnalysisState) -> None:
    """Step 2c: lower the durable ends to a consistent cut, drop what it
    excises from disk and scan alike, and linearize the rest in
    dependency order (DESIGN.md §14) for the analysis pass."""
    log = msp.log
    durable_ends = {
        partition: unit.store.durable_end
        for partition, unit in enumerate(log.partitions)
    }
    dependencies = partition_dependencies(
        msp.name, state.old_epoch, state.partition_records
    )
    cut = compute_partition_cut(
        msp.name, state.old_epoch, state.partition_records, durable_ends, dependencies
    )
    state.cut = [cut[partition] for partition in range(log.nparts)]
    # Excised durable suffixes must leave the disk with the replay:
    # left behind, a later recovery would rediscover them after the
    # new incarnation reused the offsets their dependencies name and
    # accept them against aliased records.  Safe because the cut
    # never drops below the anchored checkpoint's captured ends
    # (records below the capture depend only on records below it).
    log.rewind(state.cut)
    for partition, pairs in state.partition_records.items():
        if cut[partition] < durable_ends[partition]:
            state.partition_records[partition] = [
                (offset, record)
                for offset, record in pairs
                if offset < cut[partition]
            ]
    state.records = merge_partition_scans(
        msp.name, state.old_epoch, state.partition_records, cut, dependencies
    )
    msp.sim.probe("recovery.scanned", owner=msp.name)


def analyze(msp: "MiddlewareServer", state: AnalysisState):
    """Step 2d: the single-threaded analysis pass over the merged scan,
    then fix what we recovered to (generator, charges scan CPU)."""
    records = state.records
    yield from msp.cpu(len(records) * COSTS.scan_record_cpu_ms)
    analyze_scan(msp, records, state)
    msp.stats.recovery_scan_records += len(records)
    msp.sim.probe("recovery.analyzed", owner=msp.name)
    # The largest persistent LSN is what we recovered to: the
    # consistent-cut *frontier* — durable suffixes excised by the cut
    # were never replayed, so state depending on them is as lost as if
    # the bytes had never hit a platter.
    state.recovered_lsn = encode_frontier(state.cut)
    msp.table.record(msp.name, state.old_epoch, state.recovered_lsn)
    msp.epoch = state.old_epoch + 1


def rebuild_sessions(msp: "MiddlewareServer", state: AnalysisState) -> None:
    """Rebuild the session objects (state itself is rebuilt by replay
    along the position stream installed here), each ``lazy_pending``
    until :func:`recover_session` claims it."""
    positions, session_ckpts = state.positions, state.session_ckpts
    for session_id in sorted(positions.keys() | session_ckpts.keys()):
        if session_id in state.ended:
            continue
        session = msp.session_for(session_id)
        session.status = SessionStatus.RECOVERING
        session.recovery_pending = True
        # Restart the idle clock: a freshly rebuilt session's last
        # activity is *now*, not the epoch-0 default — otherwise the
        # first expiry sweep after ``sim.now >= session_idle_timeout_ms``
        # would end every recovered session before its client's resend
        # (or the lazy pump) could reach it.
        session.last_active_ms = msp.sim.now
        session.last_ckpt_lsn = session_ckpts.get(session_id)
        stream = positions.get(session_id, [])
        session.position_stream.replace(stream)
        session.first_lsn = stream[0] if stream else session.last_ckpt_lsn
        session.lazy_pending = True
        state.to_recover.append(session)


def announce(msp: "MiddlewareServer", state: AnalysisState) -> None:
    """Step 3: broadcast the recovery message within the service domain."""
    msp.broadcast_recovery(state.old_epoch, state.recovered_lsn)
    msp.sim.probe("recovery.announced", owner=msp.name)
    tracer = msp.sim.tracer
    if tracer is not None:
        tracer.instant(
            "recovery.announce",
            owner=msp.name,
            epoch=state.old_epoch,
            lsn=state.recovered_lsn,
        )


def checkpoint(msp: "MiddlewareServer", state: AnalysisState):
    """Step 4: a fresh MSP checkpoint, so the next crash starts here
    (generator)."""
    yield from perform_msp_checkpoint(msp)
    msp.sim.probe("recovery.checkpointed", owner=msp.name)


def drain(msp: "MiddlewareServer", state: AnalysisState) -> None:
    """Step 5: start the drain workers; the caller opens for business
    immediately, so new sessions are accepted while these replay.

    The workers share one pass over the pending sessions in session-id
    order.  Eager starts one per session — the paper's all-at-once
    restart: each worker's first step claims its session before any
    request can run, so nothing is ever replayed inline.  Lazy starts
    ``recovery_pump_concurrency`` of them and lets arriving requests
    claim their own session ahead of the queue (DESIGN.md §15).
    """
    msp.sim.probe("recovery.drain", owner=msp.name)
    workers = len(state.to_recover)
    if msp.lazy_mode:
        workers = min(msp.config.recovery_pump_concurrency, workers)
    queue = iter(state.to_recover)
    for i in range(workers):
        msp.sim.spawn(
            _recovery_pump(msp, queue), name=f"{msp.name}.recpump{i}", group=msp.group
        )


def recover_msp(msp: "MiddlewareServer"):
    """Run full crash recovery (generator); called from ``start()``.

    The tracer spans are the five numbered steps of §4.3; the phases
    own the crash-site probes.
    """
    started_at = msp.sim.now
    msp.sim.probe("recovery.begin", owner=msp.name)
    state = AnalysisState()
    span = _span(msp, "recovery")

    step = _span(msp, "recovery.anchor")
    yield from read_anchor(msp, state)
    _end(
        step,
        anchor=state.anchor,
        scan_start=state.scan_starts[0],
        epoch=state.old_epoch,
    )

    step = _span(msp, "recovery.scan", lsn=state.scan_starts[0])
    yield from scan_partitions(msp, state)
    find_incarnation_boundary(state)
    cut_and_merge(msp, state)
    _end(step, records=len(state.records))

    step = _span(msp, "recovery.analyze")
    yield from analyze(msp, state)
    _end(
        step,
        sessions=len(state.positions) + len(state.session_ckpts),
        ended=len(state.ended),
    )

    rebuild_sessions(msp, state)
    announce(msp, state)

    step = _span(msp, "recovery.checkpoint")
    yield from checkpoint(msp, state)
    _end(step)

    drain(msp, state)
    msp.stats.recovery_scan_ms += msp.sim.now - started_at
    if span is not None:
        span.end(
            epoch=msp.epoch,
            records=len(state.records),
            sessions_to_recover=len(state.to_recover),
        )
        msp.sim.tracer.metrics.observe("recovery.total_ms", msp.sim.now - started_at)
    msp.sim.probe("recovery.end", owner=msp.name)


# -- per-session replay: the drain workers and inline claims (DESIGN.md §15) --


def recover_session(msp: "MiddlewareServer", session):
    """Replay one pending session (generator), along the position
    stream the analysis scan built for it.

    Idempotent under races: the claim (clearing ``lazy_pending``) is
    synchronous, so of an arriving request and a drain worker targeting
    the same session, exactly one replays it and the other sees status
    RECOVERING (busy reply / next worker pick).
    """
    if not session.lazy_pending:
        return
    session.lazy_pending = False
    session.status = SessionStatus.RECOVERING
    msp.sim.probe("recovery.session.begin", owner=msp.name)
    yield from run_session_recovery(msp, session, orphan=False)
    # The replay may run long after the restart (drain backlog): the
    # idle-expiry clock restarts at the moment the session is actually
    # recovered, so it gets a full idle window to be contacted again.
    session.last_active_ms = msp.sim.now
    msp.sim.probe("recovery.session.end", owner=msp.name)


def _recovery_pump(msp: "MiddlewareServer", pending):
    """One drain worker: claim and replay sessions from the iterator it
    shares with its siblings until that runs dry.  Picking and claiming
    are synchronous (no yield between them), so concurrent workers
    never double-replay a session."""
    for session in pending:
        if not session.lazy_pending:
            continue  # an arriving request claimed it inline meanwhile
        msp.stats.pump_recoveries += 1
        msp.sim.probe("recovery.pump.step", owner=msp.name)
        yield from recover_session(msp, session)
