"""Checkpointing: sessions (§3.2), shared variables (§3.3), MSP (§3.4).

Three independent checkpoint kinds trade normal-execution overhead for
recovery time:

- **session checkpoints** are taken between requests once the session
  consumed a threshold of log since its last checkpoint; a distributed
  log flush first makes the checkpointed state orphan-proof, then the
  position stream is truncated;
- **shared-variable checkpoints** are taken every N writes; after the
  flush the logged value can never be an orphan, so it becomes the
  base of the variable's undo stack;
- **fuzzy MSP checkpoints** (a daemon) record only *positions* — the
  recovered-state-number table and each session's/variable's scan-start
  LSN — without blocking ongoing activity, and advance the log anchor.
  Stale sessions/variables get *forced* checkpoints so the minimal LSN
  (the crash-recovery scan start) keeps advancing.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.config import COSTS
from repro.core.dv import DependencyVector, StateId
from repro.core.errors import FlushFailed
from repro.core.records import MspCheckpointRecord, SvCheckpointRecord
from repro.core.session import Session, SessionStatus
from repro.core.shared_variable import SharedVariable

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.msp import MiddlewareServer


def maybe_session_checkpoint(msp: "MiddlewareServer", session: Session):
    """Take a session checkpoint if the log threshold was reached."""
    threshold = msp.config.session_ckpt_threshold
    if threshold is None or session.bytes_since_ckpt < threshold:
        return
    if session.status is not SessionStatus.NORMAL:
        return
    try:
        yield from take_session_checkpoint(msp, session)
    except FlushFailed:
        # The distributed flush found us to be an orphan (§4.1).
        msp._ensure_recovery(session)


def take_session_checkpoint(msp: "MiddlewareServer", session: Session):
    """The §3.2 session checkpoint procedure (generator).

    New requests arriving during the checkpoint are bounced with busy
    replies ("new requests are held until the checkpoint is completed").
    """
    session.status = SessionStatus.CHECKPOINTING
    span = None
    if msp.sim.tracer is not None:
        span = msp.sim.tracer.span(
            "ckpt.session", owner=msp.name, session=session.id
        )
    try:
        msp.sim.probe("ckpt.session.begin", owner=msp.name)
        # The distributed flush guarantees the checkpointed state can
        # never be an orphan.
        yield from msp.distributed_flush(session.dv, f"session {session.id} ckpt")
        msp.sim.probe("ckpt.session.flushed", owner=msp.name)
        yield from _seal_command_effects(msp, session)
        record = session.build_checkpoint(msp.config.logging_mode)
        yield from msp.cpu(
            COSTS.session_ckpt_cpu_ms + COSTS.log_append_ms
        )
        lsn, _size = msp.log.append(record)
        session.account_checkpoint(lsn)
        msp.stats.session_checkpoints += 1
        msp.sim.probe("ckpt.session.logged", owner=msp.name)
    finally:
        if span is not None:
            span.end()
        if session.status is SessionStatus.CHECKPOINTING:
            session.status = SessionStatus.NORMAL


def _seal_command_effects(msp: "MiddlewareServer", session: Session):
    """Capture the session's unlogged command effects before its
    checkpoint truncates the replay stream (generator, DESIGN.md §16).

    Command-mode RMWs leave no records of their own; recovery re-derives
    them by re-executing the session's CommandRecords.  A session
    checkpoint makes every earlier record unreachable to replay, so any
    variable still carrying this session's uncaptured effects must be
    checkpointed first — and durably *before* the session checkpoint can
    become durable.  The two records may land on different log
    partitions, so the ordering is enforced with a flush on the seal
    LSNs, not assumed from append order.
    """
    if not session.command_touched:
        return
    seal_dv = DependencyVector()
    for name in sorted(session.command_touched):
        sv = msp.shared.get(name)
        if sv is None:
            continue
        # sv_checkpoint swallows a failed flush by rolling the variable
        # back (it was an orphan); the rolled-back value usually flushes
        # clean, so retry a few times before giving up on this
        # checkpoint — the threshold will simply re-trigger it.
        for _attempt in range(4):
            if not sv.uncaptured_commands:
                break
            yield from sv_checkpoint(msp, sv)
        if sv.uncaptured_commands:
            raise FlushFailed(
                f"session {session.id} ckpt: could not seal command "
                f"effects on {name!r}"
            )
        if sv.last_ckpt_lsn is not None:
            seal_dv.observe(msp.name, StateId(msp.epoch, sv.last_ckpt_lsn))
    session.command_touched.clear()
    yield from msp.distributed_flush(seal_dv, f"session {session.id} ckpt seal")


def roll_back_sv(msp: "MiddlewareServer", sv: SharedVariable) -> None:
    """Undo an orphan variable (§4.2) from its undo stack, inline in
    whoever found it; the caller holds the variable's write lock."""
    msp.stats.sv_rollbacks += 1
    sv.roll_back(msp.table)


def maybe_sv_checkpoint(msp: "MiddlewareServer", sv: SharedVariable):
    """Checkpoint the variable if the write threshold was reached."""
    if sv.writes_since_ckpt >= msp.config.sv_ckpt_write_threshold:
        yield from sv_checkpoint(msp, sv)


def sv_checkpoint(msp: "MiddlewareServer", sv: SharedVariable):
    """The §3.3 shared-variable checkpoint procedure (generator).

    Holds the variable's write lock across the flush so the logged
    value is exactly the flushed one.  If the flush fails the variable
    is an orphan; it is rolled back here instead (the checkpointing
    thread is one of the two orphan-detection triggers of §4.2).
    """
    yield from sv.lock.acquire_write()
    span = None
    if msp.sim.tracer is not None:
        span = msp.sim.tracer.span("ckpt.sv", owner=msp.name, variable=sv.name)
    try:
        msp.sim.probe("ckpt.sv.begin", owner=msp.name)
        try:
            yield from msp.distributed_flush(sv.dv, f"shared variable {sv.name} ckpt")
        except FlushFailed:
            roll_back_sv(msp, sv)
            return
        msp.sim.probe("ckpt.sv.flushed", owner=msp.name)
        record = SvCheckpointRecord(
            variable=sv.name,
            value=sv.value,
            # The write this checkpoint seals: the edge that orders the
            # record (control partition) after the writes it covers
            # (session partitions) in the recovery merge.
            prev_write_lsn=sv.last_write_lsn,
            # Command effects included in the checkpointed value
            # (DESIGN.md §16); empty under value logging.
            command_frontier=dict(sv.command_frontier),
        )
        yield from msp.cpu(COSTS.log_append_ms)
        lsn, _size = msp.log.append(record)
        if msp.log.nparts > 1:
            # The next write names this record from the *writer's*
            # partition and no DV names it, so nothing would ever flush
            # the control partition on its behalf: the write lock is
            # held until the record is durable (DESIGN.md §14,
            # "what the write edge orders").  A durability rule, not a
            # format rule: one log is durable as a prefix, so whatever
            # flushes the next write has flushed this record.
            yield from msp.log.flush(lsn)
        sv.apply_checkpoint(lsn)
        msp.stats.sv_checkpoints += 1
        msp.sim.probe("ckpt.sv.logged", owner=msp.name)
    finally:
        if span is not None:
            span.end()
        sv.lock.release_write()


def msp_checkpoint_daemon(msp: "MiddlewareServer"):
    """Periodic fuzzy MSP checkpointing (generator daemon)."""
    while True:
        yield msp.config.msp_ckpt_interval_ms
        yield from perform_msp_checkpoint(msp)


def perform_msp_checkpoint(msp: "MiddlewareServer"):
    """One fuzzy MSP checkpoint (§3.4), with forced checkpoints first."""
    msp.sim.probe("ckpt.msp.begin", owner=msp.name)
    tracer = msp.sim.tracer
    span = None
    if tracer is not None:
        span = tracer.span("ckpt.msp", owner=msp.name, epoch=msp.epoch)
    timeout = msp.config.session_idle_timeout_ms
    if timeout is not None:
        # Idle-session expiry sweep: sessions nobody has touched for the
        # timeout are ended server-side.  Chained calls open implicit
        # inter-MSP sessions no client ever ends; without the sweep
        # their stale checkpoint LSNs pin the truncation floor and the
        # live log grows without bound on open-loop workloads.
        for session in list(msp.sessions.values()):
            if (
                not session.busy
                and not session.lazy_pending
                and session.status is SessionStatus.NORMAL
                and msp.sim.now - session.last_active_ms >= timeout
            ):
                yield from msp.expire_session(session)
    limit = msp.config.forced_ckpt_msp_count
    # Force checkpoints for sessions idle so long that they would hold
    # back the minimal LSN.
    for session in list(msp.sessions.values()):
        session.msp_ckpts_since_own_ckpt += 1
        if (
            session.msp_ckpts_since_own_ckpt >= limit
            and session.bytes_since_ckpt > 0
            and not session.busy
            and session.status is SessionStatus.NORMAL
            and msp.config.session_ckpt_threshold is not None
        ):
            msp.stats.forced_checkpoints += 1
            try:
                yield from take_session_checkpoint(msp, session)
            except FlushFailed:
                msp._ensure_recovery(session)
    for sv in list(msp.shared.values()):
        sv.msp_ckpts_since_own_ckpt += 1
        if sv.msp_ckpts_since_own_ckpt >= limit and sv.writes_since_ckpt > 0:
            msp.stats.forced_checkpoints += 1
            yield from sv_checkpoint(msp, sv)

    msp.sim.probe("ckpt.msp.forced", owner=msp.name)
    record = MspCheckpointRecord(
        recovered_snapshot=msp.table.snapshot(),
        session_start_lsns={
            sid: start
            for sid, s in msp.sessions.items()
            if (start := s.scan_start_lsn()) is not None
        },
        sv_start_lsns={
            name: start
            for name, v in msp.shared.items()
            if (start := v.scan_start_frontier(msp.log.nparts)) is not None
        },
        epoch=msp.epoch,
        # Captured in the same no-yield step as the start lsns: every
        # partition's end bounds (from above) all start lsns that hash
        # to it, so a partition nothing names — and a session whose
        # first record lands during the yield below — still gets a
        # valid scan start and truncation floor.
        partition_ends=msp.log.partition_ends(),
    )
    yield from msp.cpu(COSTS.log_append_ms)
    lsn, _size = msp.log.append(record)
    # A crash at any boundary below must leave the durable anchor
    # pointing at a *complete, durable* checkpoint record: the record is
    # volatile at "logged", durable but unanchored at "flushed", and
    # only at "anchored" does analysis start using it.
    msp.sim.probe("ckpt.msp.logged", owner=msp.name)
    # The anchor must point at a durable checkpoint.
    yield from msp.cpu(COSTS.flush_issue_ms)
    # Analysis scans start at the captured floors, so bytes below the
    # captured ends can never be re-read: every partition is flushed
    # through its end, except the control partition, whose captured end
    # lies below the record — through the record is enough there.  The
    # partitions' disks write at once; a crash before all of them are
    # durable leaves the previous anchor in force, and a torn subset of
    # partitions is what any crash can leave.
    yield from msp.log.flush_with_ends(lsn)
    msp.sim.probe("ckpt.msp.flushed", owner=msp.name)
    yield from msp.log.write_anchor(lsn)
    msp.stats.msp_checkpoints += 1
    msp.sim.probe("ckpt.msp.anchored", owner=msp.name)
    if span is not None:
        span.end(lsn=lsn)
    if msp.config.log_truncation:
        # The anchor is durable, so analysis can never need anything
        # below this checkpoint's minimal LSN again: reclaim it.  The
        # probes around the recycle are crash sites — a crash between
        # anchor-durable and segment-recycle must recover exactly like
        # one after the recycle (the floor is rebuilt by the next
        # checkpoint, not recovered).
        yield from msp.log.truncate_to(record.partition_floors(lsn))
