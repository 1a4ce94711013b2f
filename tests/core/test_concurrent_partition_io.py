"""A partitioned restart reads its partitions' disks at once, and an MSP
checkpoint flushes them at once (DESIGN.md §14).

Every partition has its own disk, so nothing makes the partitions take
turns: the recovery scan lasts as long as the slowest partition's reads
and the checkpoint's flush as long as the slowest partition's write,
not the sum.  The reads return exactly what one partition after another
would, and a crash that lands while the readers are being spawned or
are mid-read kills them with the restart and leaves no disk slot held.
"""

import math
import random
from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.crash_recovery as crash_recovery
from repro.core import RecoveryConfig, ServiceDomainConfig
from repro.core.checkpoint import perform_msp_checkpoint
from repro.core.crash_recovery import AnalysisState, scan_partitions
from repro.core.dv import DependencyVector
from repro.core.log_manager import READ_CHUNK_SECTORS, LogManager
from repro.core.msp import MiddlewareServer
from repro.core.plsn import OFFSET_MASK, make_plsn
from repro.core.records import NO_LSN, SessionEndRecord, SvWriteRecord
from repro.fleet.shard import msp_settled
from repro.fuzz import FuzzParams
from repro.fuzz.explorer import LIMIT_MS, QUIESCE_MS, build_world
from repro.fuzz.invariants import check_world
from repro.net import Network
from repro.sim import ProcessGroup, RngRegistry, Simulator
from repro.storage import Disk, StableStore
from repro.storage.disk import SECTOR_BYTES, DiskModel
from repro.trace import Tracer

#: Session-end records per partition: every partition a different
#: number of 64 KB chunks (an end record and its filler frame are
#: under 100 bytes).
RECORDS_PER_PARTITION = {0: 40, 1: 2_500, 2: 300, 3: 1_400}


def _booted_msp(partitions: int = 4):
    """One recoverable MSP, booted, whose checkpoint daemon never fires
    on its own."""
    sim = Simulator()
    rng = RngRegistry(7)
    net = Network(sim, rng=rng)
    msp = MiddlewareServer(
        sim,
        net,
        "msp1",
        ServiceDomainConfig([["msp1"]]),
        config=RecoveryConfig(log_partitions=partitions, msp_ckpt_interval_ms=1e9),
        rng=rng,
    )
    sim.run_until_process(msp.start_process(), limit=60_000)
    return sim, msp


def _append_ends(msp, counts: dict) -> None:
    """Append ``counts[p]`` session-end records to each partition p:
    recovery scans them and rebuilds nothing."""
    log = msp.log
    left = dict(counts)
    i = 0
    while any(left.values()):
        session_id = f"ended-{i}"
        i += 1
        partition = log.partition_of_session(session_id)
        if left.get(partition, 0) > 0:
            log.append(SessionEndRecord(session_id=session_id))
            left[partition] -= 1


def _read_ms(nbytes: int) -> float:
    """Disk time of a sequential scan of ``nbytes`` in 64 KB chunks."""
    model = DiskModel()
    chunk = READ_CHUNK_SECTORS * SECTOR_BYTES
    total = 0.0
    while nbytes > 0:
        size = min(chunk, nbytes)
        total += model.read_time_ms(math.ceil(size / SECTOR_BYTES))
        nbytes -= size
    return total


def test_scan_lasts_as_long_as_the_slowest_partition():
    sim, msp = _booted_msp()
    _append_ends(msp, RECORDS_PER_PARTITION)
    sim.run_until_process(sim.spawn(msp.log.flush()), limit=600_000)
    anchor = msp.log.read_anchor()
    floors = msp.log.record_at(anchor)[0].partition_floors(anchor)
    sizes = [store.durable_end - floor for store, floor in zip(msp.stores, floors)]
    expected = [_read_ms(size) for size in sizes]
    assert len({round(ms, 3) for ms in expected}) == 4  # all unequal

    msp.crash()
    tracer = Tracer(sim).attach()
    sim.run_until_process(msp.restart_process(), limit=600_000)

    (scan,) = [e for e in tracer.events if e.name == "recovery.scan"]
    reads = {
        e.args["partition"]: e for e in tracer.events if e.name == "recovery.scan.read"
    }
    assert sorted(reads) == [0, 1, 2, 3]
    for partition, event in reads.items():
        assert event.ts == scan.ts  # every read starts with the scan
        assert event.args["bytes"] == sizes[partition]
        assert event.dur == _approx(expected[partition])
    assert scan.dur == _approx(max(expected))
    assert scan.dur < 0.6 * sum(expected)  # one after another: the sum


def _approx(value: float):
    import pytest

    return pytest.approx(value, rel=1e-9, abs=1e-9)


def test_checkpoint_flush_lasts_as_long_as_the_slowest_write():
    sim, msp = _booted_msp()
    _append_ends(msp, RECORDS_PER_PARTITION)
    times = {}

    def on_probe(site, owner):
        if site in ("ckpt.msp.logged", "ckpt.msp.flushed"):
            times[site] = sim.now

    sim.add_probe_listener(on_probe)
    tracer = Tracer(sim).attach()
    sim.run_until_process(sim.spawn(perform_msp_checkpoint(msp)), limit=600_000)

    writes = [e for e in tracer.events if e.name == "log.write"]
    assert sorted(e.args["partition"] for e in writes) == [0, 1, 2, 3]
    # All four flushers start together, each on its own disk.
    assert len({e.ts for e in writes}) == 1
    durations = [e.dur for e in writes]
    assert len({round(d, 3) for d in durations}) == 4
    flushed_at = times["ckpt.msp.flushed"]
    assert flushed_at == _approx(writes[0].ts + max(durations))
    assert flushed_at - times["ckpt.msp.logged"] < sum(durations)
    assert all(store.durable_end == store.end for store in msp.stores[1:])


# -- crashes while the readers run ---------------------------------------------

#: A world whose MSP2 restarts with bytes on every partition to read.
KILL_PARAMS = FuzzParams(log_partitions=4, num_clients=4, requests_per_client=12)
#: MSP2's probe ordinal of the first kill, mid-run.
FIRST_KILL = 400


def _run_with_scan_kill(reader: int, delay_ms: float):
    """Kill MSP2 mid-run, then again ``delay_ms`` after its restart
    spawned scan reader ``reader`` (1-based; 0: no second kill); returns
    what the second crash saw and the world's invariant violations."""
    world = build_world(KILL_PARAMS, 0, None)
    sim = world.sim
    msp = world.msps["msp2"]
    seen = {}
    state = {"count": 0, "scanning": False, "spawns": 0, "done": False}

    def crash_and_restart():
        msp.crash()
        msp.restart_process()

    def second_crash():
        seen["held_before"] = [disk._queue.in_use for disk in msp.disks]
        readers = [p for p in msp.group._members if ".scan.p" in p.name]
        seen["readers"] = len(readers)
        crash_and_restart()
        seen["held_after"] = [disk._queue.in_use for disk in msp.disks]
        seen["readers_alive"] = [p.alive for p in readers]

    def on_probe(site, owner):
        if owner != "msp2" or state["done"]:
            return
        state["count"] += 1
        if state["count"] == FIRST_KILL:
            sim.call_at(sim.now, crash_and_restart)
        elif state["count"] > FIRST_KILL:
            if site == "recovery.anchor-read":
                state["scanning"] = True
            elif state["scanning"] and site == "kernel.spawn":
                state["spawns"] += 1
                if state["spawns"] == reader:
                    state["done"] = True
                    seen["spawned_at_probe"] = sum(
                        ".scan.p" in p.name for p in msp.group._members
                    )
                    sim.call_at(sim.now + delay_ms, second_crash)

    sim.add_probe_listener(on_probe)
    world.run(limit_ms=LIMIT_MS)
    sim.run(until=sim.now + QUIESCE_MS)
    deadline = sim.now + QUIESCE_MS
    while sim.now < deadline and not all(msp_settled(m) for m in world.msps.values()):
        if not sim.step():
            break
    return seen, check_world(world)


def test_a_kill_at_each_reader_spawn_leaves_no_disk_held():
    for reader in (1, 2, 3):
        seen, violations = _run_with_scan_kill(reader, 0.0)
        assert seen["spawned_at_probe"] == reader
        # The crash lands after the inline read of partition 0 and the
        # readers spawned before this one took their disks, and before
        # this reader ran.
        assert seen["readers"] == 3
        assert seen["held_before"] == [1] * reader + [0] * (4 - reader)
        assert seen["held_after"] == [0, 0, 0, 0]
        assert not any(seen["readers_alive"])
        assert violations == []


def test_a_kill_mid_read_releases_every_disk():
    seen, violations = _run_with_scan_kill(3, 5.0)
    assert seen["readers"] == 3
    # Partition 0 inline and every reader hold their disks.
    assert seen["held_before"] == [1, 1, 1, 1]
    assert seen["held_after"] == [0, 0, 0, 0]
    assert not any(seen["readers_alive"])
    assert violations == []


def test_each_record_dependencies_are_read_once_per_restart(monkeypatch):
    calls, scanned = [], []
    own = crash_recovery._own_dependencies
    dependencies = crash_recovery.partition_dependencies

    def count_own(*args):
        calls.append(1)
        return own(*args)

    def count_scanned(msp_name, old_epoch, partition_records):
        scanned.append(sum(len(pairs) for pairs in partition_records.values()))
        return dependencies(msp_name, old_epoch, partition_records)

    monkeypatch.setattr(crash_recovery, "_own_dependencies", count_own)
    monkeypatch.setattr(crash_recovery, "partition_dependencies", count_scanned)
    _seen, violations = _run_with_scan_kill(0, 0.0)
    assert violations == []
    assert len(scanned) == 1 and scanned[0] >= 50
    assert len(calls) == scanned[0]


# -- the reads equal one partition after another -------------------------------


def _partitioned_log(partitions: int, rng: random.Random):
    sim = Simulator()
    stores = [StableStore(segment_bytes=4096) for _ in range(partitions)]
    disks = [Disk(sim, rng=random.Random(i)) for i in range(partitions)]
    log = LogManager(sim, stores, disks, record_overhead_bytes=rng.choice((0, 64)))
    log.start(group=ProcessGroup("log"))
    return sim, log


@settings(max_examples=40, deadline=None)
@given(
    partitions=st.integers(2, 4),
    sizes=st.lists(st.tuples(st.integers(0, 31), st.integers(0, 3000)), max_size=120),
    seed=st.integers(0, 2**16),
)
def test_concurrent_scan_equals_a_sequential_scan(partitions, sizes, seed):
    rng = random.Random(seed)
    sim, log = _partitioned_log(partitions, rng)
    offsets = {p: [0] for p in range(partitions)}
    for session, size in sizes:
        lsn, _ = log.append(
            SvWriteRecord(
                session_id=f"s{session}",
                variable="v",
                value=b"x" * size,
                writer_dv=DependencyVector(),
                prev_write_lsn=NO_LSN,
            )
        )
        offsets[lsn >> 48].append(lsn & OFFSET_MASK)
        if rng.random() < 0.05:
            sim.run_until_process(sim.spawn(log.flush()), limit=1e9)
    # A torn tail on some partitions: appended, never flushed.
    for _ in range(rng.randint(0, 3)):
        log.append(SessionEndRecord(session_id=f"s{rng.randint(0, 31)}"))
    starts = [
        rng.choice([o for o in offsets[p] if o <= log.partitions[p].store.durable_end])
        for p in range(partitions)
    ]

    def sequential():
        result, took = {}, []
        for partition, start in enumerate(starts):
            began = sim.now
            scanned = yield from log.scan_durable(make_plsn(partition, start))
            took.append(sim.now - began)
            result[partition] = [(plsn & OFFSET_MASK, r.encode()) for plsn, r in scanned]
        return result, took

    expected, took = sim.run_process(sequential())
    msp = SimpleNamespace(sim=sim, log=log, name="m", group=ProcessGroup("m"))
    state = AnalysisState(scan_starts=starts)
    began = sim.now
    sim.run_process(scan_partitions(msp, state))
    assert sim.now - began == _approx(max(took))
    assert list(state.partition_records) == list(range(partitions))
    assert {
        p: [(offset, r.encode()) for offset, r in records]
        for p, records in state.partition_records.items()
    } == expected
