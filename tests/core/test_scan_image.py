"""The scan image: what ``record_at`` hands back must be what the bytes say.

``LogManager.scan_durable`` keeps the records it decodes per partition
(``offset -> record``) and ``record_at`` answers from there, so that a
restart decodes every durable record once (DESIGN.md §9, "Scan image").
The image is only sound while every entry equals a fresh decode of the
store's bytes at its offset; the two operations that change or remove
bytes under it — ``rewind`` (offsets reused by later appends) and
truncation — must evict.  The property test drives random programs
against that statement; the deterministic tests pin decode-once, the
in-place-pruning equivalence and the memory bound on whole restarts.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dv import DependencyVector, StateId
from repro.core.log_manager import LogManager
from repro.core.plsn import make_plsn, plsn_partition
from repro.core.records import (
    AnnouncementRecord,
    MspCheckpointRecord,
    RequestRecord,
    SvUpdateRecord,
    decode_record,
)
from repro.sim import ProcessGroup, Simulator
from repro.storage import Disk, LogTruncatedError, StableStore
from repro.wire import unframe
from repro.wire.framing import _HEADER
from repro.workloads.paper import PaperWorkload, WorkloadParams

# -- the image against the bytes (property) ----------------------------------

#: One session id per residue of crc32 mod 4, so a 4-partition log gets
#: records on every partition.
SESSIONS = tuple(f"bench/session-{i}" for i in range(8))


def make_log(nparts: int, overhead: int) -> tuple[Simulator, LogManager]:
    sim = Simulator()
    stores = [StableStore(name=f"log.p{i}", segment_bytes=256) for i in range(nparts)]
    disks = [Disk(sim, rng=random.Random(3 + i)) for i in range(nparts)]
    log = LogManager(sim, stores, disks, record_overhead_bytes=overhead)
    log.start(group=ProcessGroup("test"))
    return sim, log


def sample_record(serial: int, pick: int):
    """A record whose content names ``serial`` (so bytes written after a
    rewind differ from the ones they replace) and whose *size* does not
    (so the reused offsets are frame starts again)."""
    session = SESSIONS[pick % len(SESSIONS)]
    stamp = serial.to_bytes(4, "big")
    kind = pick % 4
    if kind == 0:
        dv = DependencyVector()
        dv.observe("peer", StateId(0, serial))
        return RequestRecord(session, serial % 100, "m", stamp, dv)
    if kind == 1:
        return SvUpdateRecord(
            session, "v", stamp, stamp, DependencyVector(), DependencyVector()
        )
    if kind == 2:
        return AnnouncementRecord("peer", epoch=serial % 100, recovered_lsn=serial % 100)
    return MspCheckpointRecord({}, {"s": serial % 100}, {}, (0,), epoch=serial % 100)


def frame_starts(store: StableStore) -> list[int]:
    """Every frame start in ``[floor, end)``, read off the bytes."""
    starts = []
    offset = store.truncate_lsn
    while offset < store.end:
        starts.append(offset)
        (length, _crc) = _HEADER.unpack_from(store.read(offset, _HEADER.size))
        offset += _HEADER.size + length
    assert offset == store.end
    return starts


def check_image(log: LogManager, below_floor: list[set]) -> None:
    for unit in log.partitions:
        store = unit.store
        for offset in frame_starts(store):
            lsn = make_plsn(unit.index, offset)
            payload, end = unframe(store.read(offset, store.end - offset), 0)
            record, next_lsn = log.record_at(lsn)
            assert record == decode_record(payload), (unit.index, offset)
            assert next_lsn == make_plsn(unit.index, offset + end)
        for offset in below_floor[unit.index]:
            with pytest.raises(LogTruncatedError):
                log.record_at(make_plsn(unit.index, offset))
        # The image never holds what the store no longer does.
        assert all(store.truncate_lsn <= k < store.end for k in unit.scanned)


#: A step is ``(operation, n)``; ``n`` picks sessions, cuts and floors.
#: Scans, rewinds and truncations act on every partition (as recovery
#: and the checkpoint daemon do), so the sequences that matter — scan,
#: then change the bytes under the image — come up in most programs.
STEPS = st.tuples(
    st.sampled_from(
        ["append", "append", "flush", "flush", "crash", "scan", "scan", "rewind", "truncate"]
    ),
    st.integers(0, 1 << 16),
)


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from([1, 4]),
    st.sampled_from([0, 16]),
    st.lists(STEPS, min_size=4, max_size=40),
)
def test_record_at_equals_a_fresh_decode_of_the_bytes(nparts, overhead, program):
    sim, log = make_log(nparts, overhead)
    below_floor = [set() for _ in range(nparts)]
    serial = 0

    def append_some(n):
        nonlocal serial
        for pick in range(1 + n % 4):
            log.append(sample_record(serial, n + pick))
            serial += 1

    for op, n in program:
        if op == "append":
            append_some(n)
        elif op == "flush":
            sim.run_process(log.flush(None))
        elif op == "crash":
            for unit in log.partitions:
                unit.store.crash()
        elif op == "scan":
            for unit in log.partitions:
                start = make_plsn(unit.index, unit.store.truncate_lsn)
                sim.run_process(log.scan_durable(start))
        elif op == "rewind":
            # Recovery's cut: per partition some frame start or the end;
            # then appends land on the offsets the cut freed.
            cuts = []
            for unit in log.partitions:
                choices = frame_starts(unit.store) + [unit.store.end]
                cuts.append(choices[(n >> unit.index) % len(choices)])
            log.rewind(cuts)
            append_some(n)
        else:  # truncate: per partition some durable frame start
            floors = []
            for unit in log.partitions:
                starts = frame_starts(unit.store)
                durable = [s for s in starts if s <= unit.store.durable_end]
                floor = durable[(n >> unit.index) % len(durable)] if durable else 0
                floors.append(max(floor, unit.store.truncate_lsn))
                below_floor[unit.index].update(s for s in starts if s < floors[-1])
            sim.run_process(log.truncate_to(floors))
        check_image(log, below_floor)


# -- whole restarts -----------------------------------------------------------


def _pending(msp) -> bool:
    return any(s.lazy_pending or s.recovery_pending for s in msp.sessions.values())


def _step_until(sim, done) -> None:
    limit = sim.now + 600_000.0
    while not done():
        assert sim.now <= limit and sim.step(), "simulation stopped early"


def _restart_and_drain(workload, msp) -> None:
    msp.crash()
    msp.restart_process()
    _step_until(workload.sim, lambda: msp.running and not _pending(msp))


BIGLOG = dict(
    configuration="LoOptimistic", num_clients=8, requests_per_client=100,
    atomic_sv_updates=True, batch_flush_timeout_ms=8,
    session_ckpt_threshold=256 * 1024, seed=1,
)


@pytest.mark.parametrize(
    "mode",
    [
        pytest.param(dict(), id="p1-eager"),
        pytest.param(dict(log_partitions=4, recovery_mode="lazy"), id="p4-lazy"),
    ],
)
def test_a_restart_decodes_every_record_once(mode, monkeypatch):
    """More frames than any bounded cache would hold: the scan decodes
    each once, the anchor read is the only other decode, and every
    replay fetch is answered from the scan's decode."""
    workload = PaperWorkload(WorkloadParams(**BIGLOG, **mode))
    workload.run()
    workload.verify_exactly_once()
    msp = workload.msp1
    reads = []
    record_at = LogManager.record_at

    def counted(self, lsn, frame_end=None):
        reads.append(lsn)
        return record_at(self, lsn, frame_end)

    monkeypatch.setattr(LogManager, "record_at", counted)
    scanned_before = msp.stats.recovery_scan_records
    replayed_before = msp.stats.replayed_requests
    _restart_and_drain(workload, msp)
    workload.verify_exactly_once()

    scanned = msp.stats.recovery_scan_records - scanned_before
    stats = msp.log.stats  # a new LogManager: this incarnation only
    assert scanned > 4096
    assert msp.stats.replayed_requests - replayed_before == 800
    assert stats.decode_cache_misses == scanned + 1
    assert stats.decode_cache_hits == len(reads) - 1 >= 800


def _run_with_crashes(forget_scan: bool, monkeypatch):
    """A seeded run in which MSP1 restarts mid-run (scan + replay, which
    prunes the fetched records' DVs in place) and MSP2 is killed later
    (orphan recovery at MSP1 reads the same records again)."""
    if forget_scan:
        scan_durable = LogManager.scan_durable

        def scan_then_forget(self, start):
            records = yield from scan_durable(self, start)
            self.partitions[plsn_partition(start)].scanned.clear()
            return records

        monkeypatch.setattr(LogManager, "scan_durable", scan_then_forget)
    workload = PaperWorkload(WorkloadParams(
        configuration="LoOptimistic", num_clients=4, requests_per_client=60,
        atomic_sv_updates=True, batch_flush_timeout_ms=8,
        session_ckpt_threshold=None, crash_every_n=90, seed=2,
    ))
    sim, msp1 = workload.sim, workload.msp1
    seen = {}

    def crash_msp1():
        while workload.crash_controller.sm1_completions < 40:
            yield 1.0
        msp1.crash()
        msp1.restart_process()
        while not (msp1.running and not _pending(msp1)):
            yield 1.0
        seen["hits_at_drain"] = msp1.log.stats.decode_cache_hits
        seen["orphans_at_drain"] = msp1.stats.orphan_recoveries

    crasher = sim.spawn(crash_msp1(), name="crash-msp1")
    workload.run()
    crasher.result  # re-raise a failure in the crasher
    workload.verify_exactly_once()
    seen["hits"] = msp1.log.stats.decode_cache_hits
    seen["orphans"] = msp1.stats.orphan_recoveries
    outcome = {
        "steps": sim.steps,
        "crashes": workload.crash_controller.crashes,
        "sessions": {
            sid: (dict(s.variables), s.next_expected_seq, sorted(s.dv))
            for sid, s in msp1.sessions.items()
        },
        "shared": {
            name: (bytes(sv.value), sorted(sv.dv)) for name, sv in msp1.shared.items()
        },
        "log": [
            unit.store.read(unit.store.truncate_lsn, unit.store.end - unit.store.truncate_lsn)
            for msp in (msp1, workload.msp2)
            for unit in msp.log.partitions
        ],
    }
    return outcome, seen


def test_a_hit_is_a_fresh_decode_even_though_replay_prunes_in_place(monkeypatch):
    """Records handed out by ``record_at`` are shared, and replay prunes
    their DVs in place; a later orphan recovery that gets the pruned
    object must reach the state fresh decodes would (DESIGN.md §9)."""
    with monkeypatch.context() as patch:
        shared, seen = _run_with_crashes(False, patch)
    # The scenario is the one described: orphan recoveries ran at MSP1
    # after its restart had drained, and they were served from the image.
    assert seen["orphans"] > seen["orphans_at_drain"]
    assert seen["hits"] > seen["hits_at_drain"] > 0
    with monkeypatch.context() as patch:
        fresh, seen_fresh = _run_with_crashes(True, patch)
    assert seen_fresh["hits"] == 0
    assert shared == fresh


@pytest.mark.parametrize("nparts", [1, 4])
def test_the_image_is_bounded_by_the_live_log(nparts):
    """The ``bounded-memory`` CI recipe: once truncation has passed the
    point of the crash, nothing the restart scanned is left."""
    workload = PaperWorkload(WorkloadParams(
        configuration="LoOptimistic", requests_per_client=300, num_clients=2,
        calls_to_sm2=1, seed=0, msp_ckpt_interval_ms=40.0, log_segment_bytes=2048,
        sv_ckpt_write_threshold=6, forced_ckpt_msp_count=2, log_partitions=nparts,
    ))
    sim, msp1 = workload.sim, workload.msp1
    seen = {}

    def crash_msp1():
        while workload.crash_controller.sm1_completions < 200 or not msp1.running:
            yield 1.0
        msp1.crash()
        seen["ends"] = [store.end for store in msp1.stores]
        msp1.restart_process()
        while not (msp1.running and not _pending(msp1)):
            yield 1.0
        seen["image"] = sum(len(unit.scanned) for unit in msp1.log.partitions)

    crasher = sim.spawn(crash_msp1(), name="crash-msp1")
    workload.crash_controller.every_n = 10**9  # count completions, kill nothing
    workload.run()
    crasher.result
    assert seen["image"] > 0
    for unit, crash_end in zip(msp1.log.partitions, seen["ends"]):
        assert unit.store.truncate_lsn >= crash_end
        assert not unit.scanned
