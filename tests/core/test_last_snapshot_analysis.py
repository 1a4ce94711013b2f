"""The analysis pass merges one recovery-table snapshot, not every one.

A recovery table only grows within an incarnation, and an incarnation
that wrote a later MSP checkpoint had already merged every earlier one
still in the scan, so the last scanned snapshot contains all the others
(DESIGN.md §14, "Incarnation boundary").  These tests check both halves:
the table after analysis equals the full join computed here, in real
crash runs; and the pass records each snapshot entry once, whatever
the number of scanned checkpoints.  The last test checks the decode
side: the scan reads each distinct snapshot map once (DESIGN.md §9,
"Repeated maps decode once").
"""

import random

import pytest

from repro.core import crash_recovery
from repro.core.dv import RecoveryTable
from repro.core.log_manager import LogManager
from repro.core.plsn import decode_frontier, make_plsn
from repro.core.records import AnnouncementRecord, MspCheckpointRecord
from repro.fuzz import (
    CrashSchedule,
    FuzzParams,
    discover_sites,
    run_random_case,
    run_schedule,
)
from repro.fuzz.explorer import LIMIT_MS, _crash_and_restart, build_world
from repro.fuzz.sites import CrashInjector
from repro.sim import ProcessGroup, Simulator
from repro.storage import Disk, StableStore


def _join(join: dict, msp: str, epoch: int, packed: int) -> None:
    frontier = decode_frontier(packed)
    current = join.setdefault(msp, {}).get(epoch, ())
    width = max(len(current), len(frontier))
    current += (0,) * (width - len(current))
    frontier += (0,) * (width - len(frontier))
    join[msp][epoch] = tuple(max(a, b) for a, b in zip(current, frontier))


def _reference(msp, state) -> dict:
    """The anchor's snapshot joined with every scanned snapshot and
    every scanned announcement."""
    join: dict = {}
    snapshots = []
    if state.anchor is not None:
        anchor, _next = msp.log.record_at(state.anchor)
        snapshots.append(anchor.recovered_snapshot)
    for _lsn, record in state.records:
        if record.__class__ is MspCheckpointRecord:
            snapshots.append(record.recovered_snapshot)
        elif record.__class__ is AnnouncementRecord:
            _join(join, record.msp, record.epoch, record.recovered_lsn)
    for snapshot in snapshots:
        for name, epochs in snapshot.items():
            for epoch, packed in epochs.items():
                _join(join, name, epoch, packed)
    return join


@pytest.fixture
def checked(monkeypatch):
    """Compare ``msp.table`` right after every analysis pass against the
    reference join; yields the list of (MSP, scanned checkpoints, epoch
    boundary crossed) per recovery."""
    seen = []
    analyze_scan = crash_recovery.analyze_scan

    def spy(msp, records, state):
        anchor_epoch = state.old_epoch
        if state.anchor is not None:
            anchor_epoch = msp.log.record_at(state.anchor)[0].epoch
        result = analyze_scan(msp, records, state)
        table = {
            name: {epoch: decode_frontier(packed) for epoch, packed in epochs.items()}
            for name, epochs in msp.table.snapshot().items()
        }
        assert table == _reference(msp, state), msp.name
        scanned = sum(r.__class__ is MspCheckpointRecord for _l, r in records)
        seen.append((msp.name, scanned, state.old_epoch > anchor_epoch))
        return result

    monkeypatch.setattr(crash_recovery, "analyze_scan", spy)
    return seen


#: Cases 127 and 212 (one partition), 75 and 212 (three) each hold a
#: recovery whose last scanned snapshot knows a frontier that the
#: anchor, the first scanned snapshot and the scanned announcements all
#: lack: merging any other single snapshot would fail there.
SEEDS = {1: (0, 1, 2, 3, 4, 5, 127, 212), 3: (0, 1, 2, 3, 4, 5, 75, 212)}


@pytest.mark.parametrize("partitions", (1, 3))
def test_table_after_analysis_equals_the_full_join(checked, partitions):
    params = FuzzParams(log_partitions=partitions)
    for seed in SEEDS[partitions]:
        result = run_random_case(seed, params)
        assert result.violations == [], (seed, result.violations)
    assert checked, "no recovery ran"
    # The comparison means something only where several snapshots meet.
    assert max(scanned for _msp, scanned, _boundary in checked) >= 2


def test_table_after_an_interrupted_recovery_equals_the_full_join(checked):
    """Kill MSP2 once, then again after its recovery's step-4 checkpoint
    is durable but before it is anchored: the second recovery's scan
    holds that checkpoint, of a later epoch than the anchor's."""
    params = FuzzParams()
    trace = discover_sites(params, seed=0)
    first = next(
        e.ordinal
        for e in trace.events
        if e.owner == "msp2" and e.site == "ckpt.msp.anchored"
    )

    sites = []
    workload = build_world(params, seed=0, faults=None)
    injector = CrashInjector(
        workload.sim, "msp2", (first,), _crash_and_restart(workload, "msp2")
    ).attach()
    workload.sim.add_probe_listener(
        lambda site, owner: sites.append(site) if owner == "msp2" else None
    )
    workload.run(limit_ms=LIMIT_MS)
    injector.detach()
    begin = sites.index("recovery.begin", first)
    second = sites.index("ckpt.msp.flushed", begin)

    checked.clear()
    schedule = CrashSchedule(target="msp2", kills=(first, second), seed=0)
    result = run_schedule(schedule, params)
    assert result.crashes_injected == 2
    assert result.violations == []
    assert any(name == "msp2" and boundary for name, _scanned, boundary in checked)


class _StubMsp:
    shared: dict = {}

    def __init__(self):
        self.table = RecoveryTable()


def _checkpoint(k: int, entries: int) -> MspCheckpointRecord:
    # Snapshot k dominates snapshot k - 1, as the log guarantees.
    snapshot = {f"m{i}": {0: 100 * (k + 1) + i} for i in range(entries)}
    return MspCheckpointRecord(snapshot, {}, {}, partition_ends=(0,))


@pytest.mark.parametrize("checkpoints", (1, 10, 40))
def test_analysis_records_each_snapshot_entry_once(monkeypatch, checkpoints):
    entries, announcements = 6, 3
    calls = []
    record = RecoveryTable.record

    def counting(self, *args):
        calls.append(args)
        return record(self, *args)

    monkeypatch.setattr(RecoveryTable, "record", counting)
    records = [(k * 10, _checkpoint(k, entries)) for k in range(checkpoints)]
    records += [
        (1000 + a, AnnouncementRecord(msp=f"peer{a}", epoch=0, recovered_lsn=50))
        for a in range(announcements)
    ]
    msp = _StubMsp()
    crash_recovery.analyze_scan(msp, records)
    assert len(calls) <= entries + announcements
    last = _checkpoint(checkpoints - 1, entries).recovered_snapshot
    peers = {f"peer{a}": {0: 50} for a in range(announcements)}
    assert msp.table.snapshot() == {**last, **peers}


@pytest.mark.parametrize("checkpoints", (1, 10, 40))
def test_restart_decodes_each_distinct_snapshot_once(monkeypatch, checkpoints):
    """A log of K MSP checkpoints whose table changes every ten
    checkpoints (an idle incarnation's checkpoints repeat it byte for
    byte): the restart's scan calls the snapshot map's reader once per
    distinct snapshot, and analysis ends on the last one's table."""
    sim = Simulator()
    log = LogManager(sim, StableStore(name="log"), Disk(sim, rng=random.Random(3)))
    log.start(group=ProcessGroup("test"))
    distinct = max(1, checkpoints // 10)
    snapshots = [
        {f"m{i}": {0: 100 * (d + 1) + i, 1: 7} for i in range(6)} for d in range(distinct)
    ]
    for k in range(checkpoints):
        snapshot = snapshots[k * distinct // checkpoints]
        log.append(MspCheckpointRecord(snapshot, {"s": 3}, {"v": 5}, partition_ends=(0,)))
    sim.run_process(log.flush(None))

    memo = dict(MspCheckpointRecord.LAYOUT)["recovered_snapshot"].read.__self__
    read_map = memo.read_inner
    calls = []

    def counting(buf, pos):
        calls.append(pos)
        return read_map(buf, pos)

    monkeypatch.setattr(memo, "read_inner", counting)
    monkeypatch.setattr(memo, "data", None)  # forget an earlier test's read
    records = sim.run_process(log.scan_durable(make_plsn(0, 0)))
    assert len(records) == checkpoints
    assert len(calls) == distinct
    assert [r.recovered_snapshot for _lsn, r in records] == [
        snapshots[k * distinct // checkpoints] for k in range(checkpoints)
    ]
    msp = _StubMsp()
    crash_recovery.analyze_scan(msp, records)
    assert msp.table.snapshot() == snapshots[-1]
