"""Tests for checkpoint-driven log truncation at the LogManager level."""

import random

import pytest

from repro.core.log_manager import LogManager, LogWindowReader
from repro.core.records import AnnouncementRecord
from repro.sim import ProcessGroup, Simulator
from repro.storage import Disk, LogTruncatedError, StableStore


def make_log(segment_bytes=64, seed=0):
    sim = Simulator()
    store = StableStore(segment_bytes=segment_bytes)
    disk = Disk(sim, rng=random.Random(seed))
    log = LogManager(sim, store, disk)
    log.start(group=ProcessGroup("msp"))
    return sim, log


def rec(i):
    return AnnouncementRecord(f"msp{i}", epoch=0, recovered_lsn=i)


def fill(sim, log, n):
    """Append n records, flush, return their LSNs."""
    lsns = []

    def run():
        last = None
        for i in range(n):
            lsn, _ = log.append(rec(i))
            lsns.append(lsn)
            last = lsn
        yield from log.flush(last)

    sim.run_process(run())
    return lsns


def truncate(sim, log, floor):
    return sim.run_process(log.truncate_to([floor]))


def test_truncate_to_advances_floor_and_recycles():
    sim, log = make_log(segment_bytes=64)
    lsns = fill(sim, log, 10)
    recycled = truncate(sim, log, lsns[5])
    assert log.truncate_lsn == lsns[5]
    assert recycled == lsns[5] // 64
    assert log.stats.truncations == 1
    assert log.stats.truncated_bytes == lsns[5]
    assert log.stats.live_bytes == log.store.live_bytes
    # Records at and above the floor still parse.
    record, _ = log.record_at(lsns[5])
    assert record.recovered_lsn == 5


def test_truncate_to_caps_at_durable_end():
    sim, log = make_log()
    lsns = fill(sim, log, 4)
    durable = log.store.durable_end
    log.append(rec(99))  # volatile tail
    truncate(sim, log, log.store.end)  # asks beyond durable
    assert log.truncate_lsn == durable


def scan(sim, log, start=0):
    return sim.run_process(log.scan_durable(start))


def test_record_at_below_floor_raises():
    sim, log = make_log(segment_bytes=64)
    lsns = fill(sim, log, 10)
    scan(sim, log)  # every record is in the scan image ...
    truncate(sim, log, lsns[5])
    with pytest.raises(LogTruncatedError):
        log.record_at(lsns[0])  # ... and a read below the floor still raises


def test_truncation_evicts_cached_decodes_below_floor():
    sim, log = make_log(segment_bytes=64)
    lsns = fill(sim, log, 10)
    scan(sim, log)
    scanned = log.partitions[0].scanned
    assert set(scanned) == set(lsns)
    truncate(sim, log, lsns[5])
    # Entries below the floor are gone — a scanned decode must not
    # outlive the bytes it was decoded from.
    assert set(scanned) == set(lsns[5:])
    with pytest.raises(LogTruncatedError):
        log.record_at(lsns[2])


def test_cache_eviction_without_segment_recycling():
    # The floor can advance within a segment (nothing recycled); scanned
    # decodes below it must still be dropped.
    sim, log = make_log(segment_bytes=1 << 20)
    lsns = fill(sim, log, 10)
    scan(sim, log)
    recycled = truncate(sim, log, lsns[5])
    assert recycled == 0
    assert set(log.partitions[0].scanned) == set(lsns[5:])
    with pytest.raises(LogTruncatedError):
        log.record_at(lsns[2])


def test_scan_durable_below_floor_raises():
    sim, log = make_log(segment_bytes=64)
    lsns = fill(sim, log, 10)
    truncate(sim, log, lsns[5])

    def scan():
        return (yield from log.scan_durable(0))

    with pytest.raises(LogTruncatedError):
        sim.run_process(scan())


def test_scan_from_floor_returns_live_suffix():
    sim, log = make_log(segment_bytes=64)
    lsns = fill(sim, log, 10)
    truncate(sim, log, lsns[5])

    def scan():
        return (yield from log.scan_durable(log.truncate_lsn))

    records = sim.run_process(scan())
    assert [lsn for lsn, _ in records] == lsns[5:]
    assert [r.recovered_lsn for _, r in records] == list(range(5, 10))


def test_scan_stitches_frames_straddling_segment_boundaries():
    # Segments far smaller than a frame: every frame straddles at least
    # one boundary, exercising the stitched single-frame path.
    sim, log = make_log(segment_bytes=16)
    lsns = fill(sim, log, 8)

    def scan():
        return (yield from log.scan_durable(0))

    records = sim.run_process(scan())
    assert [lsn for lsn, _ in records] == lsns
    assert [r.recovered_lsn for _, r in records] == list(range(8))


def test_scan_equivalent_across_segment_sizes():
    # The segmented scan must parse exactly what a monolithic scan
    # would, for any segment size relative to the frame size.
    def scanned(segment_bytes):
        sim, log = make_log(segment_bytes=segment_bytes)
        fill(sim, log, 12)

        def scan():
            return (yield from log.scan_durable(0))

        return [
            (lsn, r.recovered_lsn) for lsn, r in sim.run_process(scan())
        ]

    reference = scanned(1 << 20)
    for size in (16, 32, 64, 100, 128):
        assert scanned(size) == reference


def test_window_reader_invalidated_by_truncation():
    sim, log = make_log(segment_bytes=64)
    lsns = fill(sim, log, 10)
    reader = LogWindowReader(log)

    def fetches():
        first = yield from reader.fetch(lsns[0])
        assert first.recovered_lsn == 0
        yield from log.truncate_to([lsns[5]])
        # The window's low end was recycled: fetches below raise ...
        with pytest.raises(LogTruncatedError):
            yield from reader.fetch(lsns[1])
        # ... and live fetches re-read instead of trusting the window.
        chunks_before = log.stats.read_chunks
        record = yield from reader.fetch(lsns[6])
        assert record.recovered_lsn == 6
        assert log.stats.read_chunks == chunks_before + 1

    sim.run_process(fetches())


def test_truncate_floor_at_exact_segment_boundary():
    sim, log = make_log(segment_bytes=64)

    def run():
        # Pad so some record starts exactly at a segment boundary.
        while True:
            lsn, _ = log.append(rec(0))
            if log.store.end % 64 == 0:
                break
        boundary = log.store.end
        for i in range(4):
            log.append(rec(i))
        yield from log.flush()
        yield from log.truncate_to([boundary])
        return boundary

    boundary = sim.run_process(run())
    assert log.truncate_lsn == boundary
    assert boundary % 64 == 0
    # Every segment below the boundary is gone, none above.
    assert log.store.live_bytes == log.store.end - boundary
    record, _ = log.record_at(boundary)
    assert record.recovered_lsn == 0


def test_truncation_survives_crash():
    sim, log = make_log(segment_bytes=64)
    lsns = fill(sim, log, 10)
    truncate(sim, log, lsns[5])
    log.store.crash()
    assert log.truncate_lsn == lsns[5]
    with pytest.raises(LogTruncatedError):
        log.record_at(lsns[0])


def test_trim_accounting_on_disk():
    sim, log = make_log(segment_bytes=64)
    lsns = fill(sim, log, 10)
    truncate(sim, log, lsns[5])
    recycled = log.stats.recycled_segments
    assert recycled > 0
    assert log.disk.stats.trims == 1
    assert log.disk.stats.sectors_trimmed > 0
