"""The invariant battery a crash schedule must not break.

Every schedule the explorer executes ends with these checks over the
quiesced world.  Each checker returns a list of violation strings (empty
= invariant holds) so one run can report every broken property at once:

- **exactly-once** — the world's own oracle (``world.violations()``):
  every completed client call took effect exactly once and every client
  finished its script (a stall is a liveness violation);
- **no surviving orphans** — after quiesce, no session and no shared
  variable still depends on state lost in a crash;
- **shared-variable undo stacks** — each variable's live state is the
  top of its undo stack (or the stack's base), and the record its next
  write will name as predecessor is a write record of that variable;
- **durable-log well-formedness** — the crash-proof prefix parses as
  complete, checksummed, decodable frames ending exactly at the durable
  boundary, and the durable anchor points at a complete, durable MSP
  checkpoint record;
- **recovered and serving** — every MSP is back up (a crash during
  recovery must itself be recoverable);
- **network counter ledger** — every copy the fabric created is exactly
  one of delivered, dropped, or in flight (under loss and duplication
  faults alike);
- **lazy recovery** — no request ever executed against a session that
  was still unreplayed, and no session is left awaiting its
  on-demand replay after quiesce (DESIGN.md §15).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.records import (
    NO_LSN,
    MspCheckpointRecord,
    SvCheckpointRecord,
    SvUpdateRecord,
    SvWriteRecord,
    decode_record,
)
from repro.core.session import SessionStatus
from repro.wire.framing import CorruptRecordError, unframe

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.msp import MiddlewareServer

_SV_WRITE_KINDS = (SvWriteRecord, SvUpdateRecord, SvCheckpointRecord)


def check_no_orphans(msp: "MiddlewareServer") -> list[str]:
    """No session or shared variable may remain an orphan after quiesce."""
    violations: list[str] = []
    if not msp.running:
        # check_running reports this; orphan state is unreadable anyway.
        return violations
    for session in msp.sessions.values():
        if session.is_orphan(msp.table):
            violations.append(
                f"orphan: {msp.name} session {session.id} still orphaned "
                f"(dv={session.dv!r})"
            )
        if session.status is not SessionStatus.NORMAL:
            violations.append(
                f"orphan: {msp.name} session {session.id} stuck in "
                f"{session.status.name} after quiesce"
            )
        if session.lazy_pending:
            violations.append(
                f"drain: {msp.name} session {session.id} still awaiting "
                "its replay after quiesce (drain stalled)"
            )
    for sv in msp.shared.values():
        if sv.is_orphan(msp.table):
            violations.append(
                f"orphan: {msp.name} shared variable {sv.name} still orphaned "
                f"(dv={sv.dv!r})"
            )
    return violations


def check_sv_undo(msp: "MiddlewareServer") -> list[str]:
    """What rollback and the recovery merge rely on (DESIGN.md §6): the
    undo stack's top (with an empty stack, its base) is the live state,
    it holds no more than the writes since the base, and the merge edge
    the next write will log names a write record of this variable."""
    violations: list[str] = []
    if not msp.running or msp.log is None:
        return violations
    for sv in msp.shared.values():
        where = f"sv-undo: {msp.name}.{sv.name}"
        top = sv.history[-1] if sv.history else sv.base
        if (top[0], top[2]) != (sv.value, sv.state_lsn):
            violations.append(f"{where} live state is not the stack's top {top!r}")
        if len(sv.history) > sv.writes_since_ckpt:
            violations.append(f"{where} stack deeper than writes since checkpoint")
        edge = sv.last_write_lsn
        if edge == NO_LSN:
            continue
        try:
            record, _next = msp.log.record_at(edge)
        except Exception as exc:  # noqa: BLE001 - report, don't crash
            record = exc
        if not isinstance(record, _SV_WRITE_KINDS) or record.variable != sv.name:
            violations.append(f"{where} merge edge {edge} names {record!r}")
    return violations


def check_durable_log(msp: "MiddlewareServer") -> list[str]:
    """The live durable suffix must be a clean sequence of decodable frames.

    With checkpoint-driven truncation the log below ``truncate_lsn`` is
    recycled, so the walk starts at the floor.  The floor itself is
    checked too: it must trail the durable boundary, and the anchored
    checkpoint (which justified it) must sit at or above it.
    """
    violations: list[str] = []
    store = msp.store
    stores = msp.stores
    for partition, pstore in enumerate(stores):
        label = msp.name if partition == 0 else f"{msp.name}.p{partition}"
        durable = pstore.durable_end
        floor = pstore.truncate_lsn
        if floor > durable:
            violations.append(
                f"durable-log: {label} truncation floor {floor} ahead of the "
                f"durable boundary {durable}"
            )
            return violations
        offset = floor
        count = 0
        view = pstore.view(floor, durable - floor)
        try:
            while offset < durable:
                payload, next_offset = unframe(view, offset - floor)
                if payload is None:
                    violations.append(
                        f"durable-log: {label} torn frame at offset {offset} "
                        f"inside the durable prefix (durable_end={durable})"
                    )
                    break
                try:
                    decode_record(payload)
                except Exception as exc:  # noqa: BLE001 - report, don't crash
                    violations.append(
                        f"durable-log: {label} undecodable record at "
                        f"LSN {offset}: {exc}"
                    )
                    break
                offset = floor + next_offset
                count += 1
            else:
                if offset != durable:
                    violations.append(
                        f"durable-log: {label} frame at {offset} straddles "
                        f"the durable boundary {durable}"
                    )
        except CorruptRecordError as exc:
            violations.append(f"durable-log: {label} {exc}")
        finally:
            del view  # release the memoryview before any append can run

    durable = store.durable_end
    floor = store.truncate_lsn
    anchor_raw = store.read_anchor()
    if anchor_raw is not None:
        anchor = int.from_bytes(anchor_raw, "big")
        if anchor >= durable:
            violations.append(
                f"durable-log: {msp.name} anchor {anchor} points past the "
                f"durable boundary {durable}"
            )
        elif anchor < floor:
            violations.append(
                f"durable-log: {msp.name} anchor {anchor} below the "
                f"truncation floor {floor}"
            )
        elif msp.log is not None:
            try:
                record, _next = msp.log.record_at(anchor)
            except Exception as exc:  # noqa: BLE001
                violations.append(
                    f"durable-log: {msp.name} anchor {anchor} unreadable: {exc}"
                )
            else:
                if not isinstance(record, MspCheckpointRecord):
                    violations.append(
                        f"durable-log: {msp.name} anchor {anchor} points at "
                        f"{type(record).__name__}, not an MSP checkpoint"
                    )
                elif not msp.log.is_durable(anchor):
                    violations.append(
                        f"durable-log: {msp.name} anchor {anchor} points at a "
                        "non-durable checkpoint record"
                    )
                else:
                    # Truncation safety itself: every partition's floor
                    # must sit at or below the scan start this anchored
                    # checkpoint implies for it — above it, recovery
                    # would need recycled bytes.
                    scan_floors = record.partition_floors(anchor)
                    for partition, pstore in enumerate(stores):
                        if scan_floors[partition] < pstore.truncate_lsn:
                            violations.append(
                                f"durable-log: {msp.name} anchored checkpoint "
                                f"scan start {scan_floors[partition]} of "
                                f"partition {partition} below its truncation "
                                f"floor {pstore.truncate_lsn}"
                            )
    return violations


def check_running(msp: "MiddlewareServer") -> list[str]:
    """Every crash — including one during recovery — must be recovered."""
    if msp.running:
        return []
    return [f"recovery: {msp.name} is not serving after quiesce"]


def check_lazy_recovery(msp: "MiddlewareServer") -> list[str]:
    """In either recovery mode (DESIGN.md §15): no request may ever
    have executed against a session that was still unreplayed."""
    if msp.stats.served_before_recovery:
        return [
            f"drain: {msp.name} executed {msp.stats.served_before_recovery} "
            "request(s) against not-yet-replayed sessions"
        ]
    return []


def check_replays_completed(msp: "MiddlewareServer") -> list[str]:
    """No session replay may have ended in an error: such a session is
    never opened, and nothing else reports why."""
    if msp.failed_replays:
        return [
            f"replay: {msp.name} has {msp.failed_replays} session "
            "replay(s) that failed and left their session unrecovered"
        ]
    return []


def check_msp(msp: "MiddlewareServer") -> list[str]:
    """The full per-MSP battery."""
    violations = check_running(msp)
    violations += check_no_orphans(msp)
    violations += check_sv_undo(msp)
    violations += check_durable_log(msp)
    violations += check_lazy_recovery(msp)
    violations += check_replays_completed(msp)
    return violations


def check_network_ledger(world) -> list[str]:
    """The fabric's counter ledger must balance at all times:
    ``sent + duplicated == delivered + dropped + in_flight``."""
    try:
        world.network.check_ledger()
    except AssertionError as exc:
        return [f"network-ledger: {exc}"]
    return []


def check_world(world) -> list[str]:
    """The full battery over a quiesced world: its own oracle, the
    network ledger, then every MSP's battery."""
    violations = world.violations()
    violations += check_network_ledger(world)
    for msp in world.msps.values():
        violations += check_msp(msp)
    return violations
