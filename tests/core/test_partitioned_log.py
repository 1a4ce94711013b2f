"""Partitioned log (DESIGN.md §14): DV-ordered recovery merge,
consistent cut, per-partition torn tails, decode-cache shard isolation,
and the recovery rewind that keeps excised suffixes off the disk.

The hypothesis properties pin the Zhou-et-al. partial-order argument:
the merged N-partition scan must agree with the single-partition scan
on everything replay can observe — each session's subsequence (the
per-session streams analysis dispatches over) and the cross-record
dependency order (write chains and DV edges).  Any two streams equal
in that partial order replay to the same recovered state.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.crash_recovery import (
    assert_merge_order,
    compute_partition_cut,
    merge_partition_scans,
)
from repro.core.dv import DependencyVector
from repro.core.errors import RecoveryMergeError
from repro.core.log_manager import LogManager
from repro.core.plsn import (
    decode_frontier,
    encode_frontier,
    make_plsn,
    plsn_offset,
    plsn_partition,
)
from repro.core.records import RequestRecord
from repro.sim import ProcessGroup, Simulator
from repro.storage import Disk, StableStore
from repro.storage.stable import StableStoreError
from repro.wire import frame

#: ``bench/session-0..7`` cover all residues of crc32 mod 8 (and hence
#: mod 4 and mod 2): every partition count in {1, 2, 4, 8} sees a
#: balanced spread of these session ids.
SESSIONS = tuple(f"bench/session-{i}" for i in range(8))


def make_partitioned_log(nparts: int, **kwargs) -> tuple[Simulator, LogManager]:
    sim = Simulator()
    stores = [
        StableStore(name="log" if i == 0 else f"log.p{i}") for i in range(nparts)
    ]
    disks = [Disk(sim, rng=random.Random(7 + i)) for i in range(nparts)]
    log = LogManager(sim, stores, disks, **kwargs)
    log.start(group=ProcessGroup("test"))
    return sim, log


def _append_history(log: LogManager, rng: random.Random, n: int):
    """Append ``n`` records with random intra-epoch dependencies.

    Returns ``(plsns, deps, partition_records)``: the append-order plsn
    list, each record's dependency indices, and the per-partition
    ``(offset, record)`` lists a durable scan would produce.
    """
    plsns: list[int] = []
    deps: list[list[int]] = []
    partition_records: dict[int, list] = {p: [] for p in range(log.nparts)}
    for i in range(n):
        session_id = rng.choice(SESSIONS)
        dep_indices = []
        if i and rng.random() < 0.6:
            dep_indices.append(rng.randrange(i))
        dv = DependencyVector(
            {"M": {0: plsns[j]} for j in dep_indices} if dep_indices else None
        )
        record = RequestRecord(
            session_id=session_id,
            seq=i,
            method="m",
            argument=b"",
            sender_dv=dv,
        )
        lsn, _size = log.append(record)
        plsns.append(lsn)
        deps.append(dep_indices)
        partition_records[plsn_partition(lsn)].append((plsn_offset(lsn), record))
    return plsns, deps, partition_records


@settings(deadline=None, max_examples=40)
@given(
    seed=st.integers(0, 10_000),
    nparts=st.integers(2, 8),
    n=st.integers(5, 60),
)
def test_merge_matches_single_partition_replay(seed, nparts, n):
    """Fully durable log: the DV-ordered merge must reproduce exactly
    the partial order a single-partition scan replays."""
    rng = random.Random(seed)
    _sim, log = make_partitioned_log(nparts)
    plsns, deps, partition_records = _append_history(log, rng, n)
    durable_ends = {p: log.partitions[p].store.end for p in range(nparts)}
    cut = compute_partition_cut("M", 0, partition_records, durable_ends)
    # Nothing was lost, so the cut excises nothing.
    assert cut == durable_ends
    merged = merge_partition_scans("M", 0, partition_records, cut)
    assert_merge_order("M", 0, merged)
    assert len(merged) == n
    # Same records: the single-partition scan order IS the append order.
    merged_keys = [(record.seq, record.session_id) for _lsn, record in merged]
    assert sorted(merged_keys) == sorted(
        (record.seq, record.session_id)
        for pairs in partition_records.values()
        for _offset, record in pairs
    )
    # Per-session subsequences equal the append order (seq is the
    # append index, so within a session it must be increasing).
    for session_id in SESSIONS:
        seqs = [seq for seq, sid in merged_keys if sid == session_id]
        assert seqs == sorted(seqs)
    # Every dependency precedes its dependent in the merged order.
    position = {lsn: k for k, (lsn, _record) in enumerate(merged)}
    for i, dep_indices in enumerate(deps):
        for j in dep_indices:
            assert position[plsns[j]] < position[plsns[i]], (i, j)


@settings(deadline=None, max_examples=40)
@given(
    seed=st.integers(0, 10_000),
    nparts=st.integers(2, 8),
    n=st.integers(5, 60),
)
def test_consistent_cut_is_dependency_closed(seed, nparts, n):
    """Crash-shaped durability: each partition loses a random suffix.
    The cut must keep a dependency-closed prefix set, and the merge of
    the survivors must still be a valid dependency order."""
    rng = random.Random(seed)
    _sim, log = make_partitioned_log(nparts)
    plsns, deps, partition_records = _append_history(log, rng, n)
    durable_ends = {}
    for p in range(nparts):
        pairs = partition_records[p]
        keep = rng.randint(0, len(pairs))
        if keep < len(pairs):
            durable_ends[p] = pairs[keep][0]
            partition_records[p] = pairs[:keep]
        else:
            durable_ends[p] = log.partitions[p].store.end
    cut = compute_partition_cut("M", 0, partition_records, durable_ends)
    for p in range(nparts):
        assert 0 <= cut[p] <= durable_ends[p]
    kept = {
        lsn
        for lsn in plsns
        if plsn_offset(lsn) < cut[plsn_partition(lsn)]
    }
    # Dependency closure: a surviving record's dependencies survived.
    for i, dep_indices in enumerate(deps):
        if plsns[i] in kept:
            for j in dep_indices:
                assert plsns[j] in kept, (i, j)
    filtered = {
        p: [(off, rec) for off, rec in pairs if off < cut[p]]
        for p, pairs in partition_records.items()
    }
    merged = merge_partition_scans("M", 0, filtered, cut)
    assert_merge_order("M", 0, merged)
    assert {lsn for lsn, _record in merged} == kept


@settings(deadline=None, max_examples=40)
@given(
    seed=st.integers(0, 10_000),
    nparts=st.integers(1, 4),
    n=st.integers(1, 60),
    data=st.data(),
)
def test_one_partition_is_the_degenerate_cut_and_merge(seed, nparts, n, data):
    """Whatever dependencies its records carry, a single scanned
    partition has no cross-partition edges: the cut is its durable end
    and the merge is its scan order.  This is what lets a single log
    run the N-partition recovery path at no per-record cost."""
    rng = random.Random(seed)
    _sim, log = make_partitioned_log(nparts)
    _plsns, _deps, partition_records = _append_history(log, rng, n)
    partition = data.draw(st.integers(0, nparts - 1))
    scanned = partition_records[partition]
    durable_ends = {partition: log.partitions[partition].store.end}
    alone = {partition: scanned}
    assert compute_partition_cut("M", 0, alone, durable_ends) == durable_ends
    merged = merge_partition_scans("M", 0, alone, durable_ends)
    assert merged == [
        (make_plsn(partition, offset), record) for offset, record in scanned
    ]


@pytest.mark.parametrize("nparts", [1, 2, 255])
@settings(deadline=None, max_examples=25)
@given(data=st.data())
def test_frontier_roundtrips_at_every_legal_width(nparts, data):
    ends = tuple(
        data.draw(st.lists(
            st.integers(0, (1 << 48) - 1), min_size=nparts, max_size=nparts
        ))
    )
    packed = encode_frontier(ends)
    assert decode_frontier(packed) == ends
    # One partition is the raw scalar (the historical announcement
    # bytes); wider frontiers are tagged and never collide with it.
    assert (packed >= 1 << 59) == (nparts > 1)
    if nparts == 1:
        assert packed == ends[0]


def test_merge_raises_on_unsatisfiable_dependency():
    """A record whose dependency lies beyond the cut of another
    partition must stall the merge loudly, not replay out of order."""
    record_a = RequestRecord(
        session_id=SESSIONS[0], seq=0, method="m", argument=b"",
        sender_dv=DependencyVector({"M": {0: make_plsn(1, 500)}}),
    )
    partition_records = {0: [(0, record_a)], 1: []}
    cut = {0: 100, 1: 0}
    with pytest.raises(RecoveryMergeError):
        merge_partition_scans("M", 0, partition_records, cut)


def _run(sim, gen):
    return sim.run_process(gen)


def test_scan_stops_at_each_partitions_torn_tail():
    """Each partition's analysis scan must stop cleanly at its own torn
    tail — a crash mid-flush tears partitions independently."""
    sim, log = make_partitioned_log(4)
    per_partition = {p: [] for p in range(4)}
    for i in range(24):
        session_id = SESSIONS[i % 8]
        record = RequestRecord(
            session_id=session_id, seq=i, method="m", argument=b"x" * 20,
            sender_dv=DependencyVector(),
        )
        lsn, _size = log.append(record)
        per_partition[plsn_partition(lsn)].append(lsn)
    _run(sim, log.flush(None))
    # Tear every partition differently: append one more record, then
    # make only a prefix of its frame durable before crashing.
    for p, tear in zip(range(4), (1, 3, 7, 11)):
        store = log.partitions[p].store
        whole_end = store.durable_end
        record = RequestRecord(
            session_id=SESSIONS[p], seq=100 + p, method="m", argument=b"y" * 30,
            sender_dv=DependencyVector(),
        )
        unit = log.partitions[p]
        offset = store.append(frame(record.encode()))
        assert offset == whole_end
        store.mark_durable(min(store.end, whole_end + tear))
        store.crash()
        scanned = _run(sim, log.scan_durable(make_plsn(p, 0)))
        assert [lsn for lsn, _r in scanned] == per_partition[p]
        assert unit.store.durable_end >= whole_end


# -- rewind: recovery's consistent cut leaves no durable residue ------------


def test_stable_store_rewind_discards_durable_suffix():
    store = StableStore(name="s", segment_bytes=16)
    store.append(b"a" * 10)
    store.append(b"b" * 30)
    store.mark_durable(40)
    store.rewind(10)
    assert store.end == 10
    assert store.durable_end == 10
    assert store.read(0, 10) == b"a" * 10
    with pytest.raises(StableStoreError):
        store.read(5, 10)
    # Reused offsets hold the new incarnation's bytes, not stale ones.
    assert store.append(b"c" * 6) == 10
    assert store.read(10, 6) == b"c" * 6


def test_stable_store_rewind_at_segment_boundary_drops_tail_segment():
    store = StableStore(name="s", segment_bytes=16)
    store.append(b"x" * 40)
    store.mark_durable(40)
    before = store.segment_count
    store.rewind(32)
    assert store.segment_count == before - 1
    assert store.end == 32
    assert store.read(16, 16) == b"x" * 16


def test_stable_store_rewind_bounds():
    store = StableStore(name="s", segment_bytes=16)
    store.append(b"x" * 32)
    store.mark_durable(32)
    store.truncate(16)
    with pytest.raises(StableStoreError):
        store.rewind(40)  # past the end
    with pytest.raises(StableStoreError):
        store.rewind(8)  # below the truncation floor
    store.rewind(16)  # exactly the floor is legal (empties the store)
    assert store.end == 16


def test_log_manager_rewind_trims_caches_and_stats():
    sim, log = make_partitioned_log(4)
    lsns = []
    for i in range(16):
        lsn, _size = log.append(
            RequestRecord(SESSIONS[i % 8], i, "m", b"", DependencyVector())
        )
        lsns.append(lsn)
    _run(sim, log.flush(None))
    for p in range(4):
        _run(sim, log.scan_durable(make_plsn(p, 0)))
    images = [dict(unit.scanned) for unit in log.partitions]
    assert all(images)
    cuts = [unit.store.durable_end for unit in log.partitions]
    cuts[1] = 0
    log.rewind(cuts)
    assert log.partitions[1].store.end == 0
    assert log.partitions[1].store.durable_end == 0
    # The cut partition's scan image goes with its bytes (the offsets
    # are about to be reused); the others keep theirs.
    assert not log.partitions[1].scanned
    for p in (0, 2, 3):
        assert log.partitions[p].store.durable_end == cuts[p]
        assert log.partitions[p].scanned == images[p]
    assert log.stats.live_bytes == sum(
        unit.store.live_bytes for unit in log.partitions
    )


def test_no_window_reader_ever_changes_partition(monkeypatch):
    """``LogWindowReader`` keeps one window with no partition tag: a
    session's replay stream and its checkpoint live on the session's own
    partition, and nothing else reads through a window since orphan
    rollback stopped walking the log.  Crashes, lazy recovery and orphan
    replays at P=4 must never hand one reader two partitions."""
    from repro.core.log_manager import LogWindowReader
    from repro.workloads import PaperWorkload, WorkloadParams

    seen: dict[int, set] = {}
    readers = []  # keeps the readers alive so ids are not reused
    fetch = LogWindowReader.fetch

    def recording(self, lsn):
        if id(self) not in seen:
            readers.append(self)
        seen.setdefault(id(self), set()).add(plsn_partition(lsn))
        return fetch(self, lsn)

    monkeypatch.setattr(LogWindowReader, "fetch", recording)
    workload = PaperWorkload(
        WorkloadParams(
            configuration="LoOptimistic", num_clients=4, requests_per_client=30,
            atomic_sv_updates=True, log_partitions=4, recovery_mode="lazy",
            crash_every_n=25, seed=1,
        )
    )
    workload.run(limit_ms=120_000.0)
    workload.verify_exactly_once()
    assert len(seen) > 4, "the run replayed too little to tell"
    assert len(set().union(*seen.values())) > 1, "every reader sat on one partition"
    assert all(len(partitions) == 1 for partitions in seen.values())
