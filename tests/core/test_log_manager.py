"""Tests for the shared physical log: appends, flushes, batching, anchor."""

import random

import pytest

from repro.core.log_manager import LogManager, LogWindowReader
from repro.core.records import AnnouncementRecord, EosRecord
from repro.sim import ProcessGroup, Simulator
from repro.storage import Disk, StableStore
from repro.wire import frame


def make_log(batch_ms=0.0, seed=0):
    sim = Simulator()
    store = StableStore()
    disk = Disk(sim, rng=random.Random(seed))
    log = LogManager(sim, store, disk, batch_flush_timeout_ms=batch_ms)
    group = ProcessGroup("msp")
    log.start(group=group)
    return sim, log, group


def rec(i):
    return AnnouncementRecord(f"msp{i}", epoch=0, recovered_lsn=i)


def test_append_assigns_increasing_lsns():
    _sim, log, _ = make_log()
    lsn1, size1 = log.append(rec(1))
    lsn2, _ = log.append(rec(2))
    assert lsn1 == 0
    assert lsn2 == size1
    assert log.stats.appended_records == 2


def test_flush_makes_records_durable():
    sim, log, _ = make_log()
    lsn, _ = log.append(rec(1))

    def flusher():
        assert not log.is_durable(lsn)
        yield from log.flush(lsn)
        assert log.is_durable(lsn)

    sim.run_process(flusher())


def test_flush_already_durable_is_free():
    sim, log, _ = make_log()
    lsn, _ = log.append(rec(1))

    def run():
        yield from log.flush(lsn)
        before = log.disk.stats.writes
        yield from log.flush(lsn)
        assert log.disk.stats.writes == before

    sim.run_process(run())


def test_unbatched_burst_coalesces_to_single_write():
    """Even without batch flushing, a burst of concurrent flush
    requests queued together is drained and served by one physical
    write (group commit at the flusher, no timeout window)."""
    sim, log, _ = make_log()
    lsn1, _ = log.append(rec(1))
    lsn2, _ = log.append(rec(2))

    def f1():
        yield from log.flush(lsn1)

    def f2():
        yield from log.flush(lsn2)

    sim.spawn(f1())
    sim.spawn(f2())
    sim.run()
    assert log.stats.physical_flushes == 1
    assert log.is_durable(lsn2)


def test_unbatched_burst_of_n_fewer_than_n_writes():
    """N concurrent unbatched flush requests trigger < N physical
    writes; requests arriving mid-write are absorbed by the next one."""
    n = 12
    sim, log, _ = make_log()

    def client(i):
        # Stagger arrivals so some requests land while a write is in
        # flight — they must coalesce into the following write.
        yield i * 0.5
        lsn, _ = log.append(rec(i))
        yield from log.flush(lsn)

    for i in range(n):
        sim.spawn(client(i))
    sim.run()
    assert log.stats.flush_requests == n
    assert log.stats.physical_flushes < n
    assert log.store.durable_end == log.store.end


def test_unbatched_flush_skipped_when_covered():
    """A queued flush whose target an earlier write already covered
    does not write again (the standard flushed-LSN check)."""
    sim, log, _ = make_log()
    lsn1, _ = log.append(rec(1))
    lsn2, _ = log.append(rec(2))

    def f_all():
        yield from log.flush(lsn2)  # covers lsn1 too

    def f_first():
        yield from log.flush(lsn1)

    sim.spawn(f_all())
    sim.spawn(f_first())
    sim.run()
    assert log.stats.physical_flushes == 1
    assert log.is_durable(lsn2)


def test_sequential_flushes_write_separately():
    sim, log, _ = make_log()

    def run():
        lsn1, _ = log.append(rec(1))
        yield from log.flush(lsn1)
        lsn2, _ = log.append(rec(2))
        yield from log.flush(lsn2)

    sim.run_process(run())
    assert log.stats.physical_flushes == 2


def test_batch_flushing_single_write_for_window():
    """With an 8 ms window, flush requests arriving close together are
    served by one physical write (paper §5.5)."""
    sim, log, _ = make_log(batch_ms=8.0)
    done_times = []

    def client(i, delay):
        yield delay
        lsn, _ = log.append(rec(i))
        yield from log.flush(lsn)
        done_times.append(sim.now)

    for i, delay in enumerate([0.0, 2.0, 5.0]):
        sim.spawn(client(i, delay))
    sim.run()
    assert log.stats.physical_flushes == 1
    assert len(done_times) == 3
    # Nobody finished before the batching window closed.
    assert min(done_times) >= 8.0


def test_batch_flushing_vs_not_fewer_writes():
    def run(batch_ms):
        sim, log, _ = make_log(batch_ms=batch_ms, seed=3)

        def client(i):
            yield i * 1.0
            lsn, _ = log.append(rec(i))
            yield from log.flush(lsn)

        for i in range(6):
            sim.spawn(client(i))
        sim.run()
        return log.stats.physical_flushes

    assert run(8.0) < run(0.0)


def test_sector_accounting_and_waste():
    sim, log, _ = make_log()

    def run():
        lsn, size = log.append(rec(1))
        yield from log.flush(lsn)
        return size

    size = sim.run_process(run())
    assert log.stats.flushed_sectors == 1
    assert log.stats.flushed_bytes == size
    assert log.stats.wasted_bytes == 512 - size


def test_each_flush_starts_fresh_sector():
    """Two flushes of small records write one sector each (the paper's
    half-sector-wasted-per-flush behaviour)."""
    sim, log, _ = make_log()

    def run():
        lsn1, _ = log.append(rec(1))
        yield from log.flush(lsn1)
        lsn2, _ = log.append(rec(2))
        yield from log.flush(lsn2)

    sim.run_process(run())
    assert log.stats.flushed_sectors == 2
    assert log.stats.wasted_bytes > 0


def test_anchor_roundtrip():
    sim, log, _ = make_log()

    def run():
        assert log.read_anchor() is None
        yield from log.write_anchor(12345)
        assert log.read_anchor() == 12345

    sim.run_process(run())


def test_record_at_parses_back():
    _sim, log, _ = make_log()
    lsn1, _ = log.append(rec(1))
    lsn2, _ = log.append(rec(2))
    record, next_lsn = log.record_at(lsn1)
    assert record == rec(1)
    assert next_lsn == lsn2


def test_scan_durable_returns_only_flushed():
    sim, log, _ = make_log()

    def run():
        log.append(rec(1))
        lsn2, _ = log.append(rec(2))
        yield from log.flush(lsn2)
        log.append(rec(3))  # not flushed: invisible to the scan
        records = yield from log.scan_durable(0)
        return records

    records = sim.run_process(run())
    assert [r for _, r in records] == [rec(1), rec(2)]


def test_scan_durable_charges_chunked_reads():
    sim, log, _ = make_log()

    def run():
        for i in range(3000):  # ~ tens of KB
            log.append(EosRecord(f"s{i}", orphan_lsn=i))
        yield from log.flush()
        start = sim.now
        yield from log.scan_durable(0)
        return sim.now - start

    elapsed = sim.run_process(run())
    assert elapsed > 0
    assert log.stats.read_chunks >= 1


def test_window_reader_fetches_with_chunked_io():
    sim, log, _ = make_log()

    def run():
        lsns = []
        for i in range(100):
            lsn, _ = log.append(rec(i))
            lsns.append(lsn)
        yield from log.flush()
        reader = LogWindowReader(log)
        reads_before = log.disk.stats.reads
        first = yield from reader.fetch(lsns[0])
        mid = yield from reader.fetch(lsns[50])
        return first, mid, log.disk.stats.reads - reads_before

    first, mid, reads = sim.run_process(run())
    assert first == rec(0)
    assert mid == rec(50)
    # All 100 tiny records fit one 64 KB window: a single chunk read.
    assert reads == 1


def test_window_reader_rejects_beyond_durable():
    """Readers read through the buffered end — an orphan session's
    replay needs records no flush has covered — and no further."""
    sim, log, _ = make_log()
    lsn, _ = log.append(rec(1))
    assert log.store.durable_end == 0
    reader = LogWindowReader(log)

    def run():
        buffered = yield from reader.fetch(lsn)
        with pytest.raises(ValueError):
            yield from reader.fetch(log.store.end)
        return buffered

    assert sim.run_process(run()) == rec(1)


def test_crash_loses_unflushed_records():
    sim, log, group = make_log()

    def run():
        lsn1, _ = log.append(rec(1))
        yield from log.flush(lsn1)
        log.append(rec(2))

    sim.run_process(run())
    log.store.crash()
    records_after = []
    offset = 0
    while offset < log.store.end:
        record, offset = log.record_at(offset)
        records_after.append(record)
    assert records_after == [rec(1)]


# -- torn / corrupt frames (ARIES-style end-of-log, §4.3) -------------------


def test_scan_stops_cleanly_at_torn_frame():
    """A flush that persists only part of the last frame (e.g. a sector
    boundary mid-frame) must make the analysis scan stop cleanly at the
    last complete record, not raise."""
    sim, log, _ = make_log()

    def run():
        lsn1, _ = log.append(rec(1))
        yield from log.flush(lsn1)
        log.append(rec(2))
        # Persist a partial frame: advance durability into the middle of
        # the second record, then crash away the rest.
        log.store.mark_durable(log.store.end - 3)
        log.store.crash()
        records = yield from log.scan_durable(0)
        return records

    records = sim.run_process(run())
    assert [r for _, r in records] == [rec(1)]


def test_scan_raises_on_bit_flipped_durable_frame():
    """Corruption inside the durable prefix is detected, not silently
    treated as end-of-log."""
    from repro.wire import CorruptRecordError

    sim, log, _ = make_log()

    def run():
        lsn1, _ = log.append(rec(1))
        lsn2, _ = log.append(rec(2))
        yield from log.flush(lsn2)
        # Flip a payload bit of the *first* record, well inside the
        # durable prefix.
        log.store._segments[0][12] ^= 0x40
        yield from log.scan_durable(0)

    with pytest.raises(CorruptRecordError):
        sim.run_process(run())


def test_unframe_corrupt_frame_raises_within_log():
    """unframe itself flags the bit-flipped frame (satellite check)."""
    from repro.wire import CorruptRecordError, frame, unframe

    sim, log, _ = make_log()
    lsn, _ = log.append(rec(1))
    blob = bytearray(log.store.read(0, log.store.end))
    blob[-1] ^= 0xFF
    with pytest.raises(CorruptRecordError):
        unframe(bytes(blob), 0)


# -- sector accounting invariant (§5.2) -------------------------------------


def _assert_sector_invariant(log):
    from repro.storage.disk import SECTOR_BYTES

    assert (
        log.stats.wasted_bytes
        == log.stats.flushed_sectors * SECTOR_BYTES - log.stats.flushed_bytes
    )


def test_sector_invariant_unbatched_sequence():
    sim, log, _ = make_log()

    def run():
        for i in range(7):
            lsn, _ = log.append(rec(i))
            yield from log.flush(lsn)

    sim.run_process(run())
    assert log.stats.physical_flushes == 7
    _assert_sector_invariant(log)


def test_sector_invariant_batched_sequence():
    sim, log, _ = make_log(batch_ms=6.0)

    def client(i):
        yield i * 2.0
        lsn, _ = log.append(rec(i))
        yield from log.flush(lsn)

    for i in range(9):
        sim.spawn(client(i))
    sim.run()
    assert 1 <= log.stats.physical_flushes < 9
    _assert_sector_invariant(log)


def test_sector_invariant_mixed_sizes():
    from repro.core.records import FillerRecord

    sim, log, _ = make_log()

    def run():
        for i, size in enumerate([10, 700, 3000, 64]):
            log.append(rec(i))
            lsn, _ = log.append(FillerRecord(size))
            yield from log.flush(lsn)

    sim.run_process(run())
    _assert_sector_invariant(log)


# -- flush through the trailing filler (record_overhead_bytes) --------------


def test_flush_covers_record_overhead_filler():
    """With per-record overhead modeled, flush(lsn) must make the filler
    frame appended with the record durable too, so append's reported
    size and the durable boundary agree."""
    sim = Simulator()
    store = StableStore()
    disk = Disk(sim, rng=random.Random(0))
    log = LogManager(sim, store, disk, record_overhead_bytes=100)
    log.start(group=ProcessGroup("msp"))

    def run():
        lsn, size = log.append(rec(1))
        yield from log.flush(lsn)
        return lsn, size

    lsn, size = sim.run_process(run())
    assert store.durable_end == lsn + size
    assert log.stats.flushed_bytes == size


def test_flush_overhead_fillers_interleaved():
    sim = Simulator()
    store = StableStore()
    disk = Disk(sim, rng=random.Random(0))
    log = LogManager(sim, store, disk, record_overhead_bytes=64)
    log.start(group=ProcessGroup("msp"))

    def run():
        sizes = []
        for i in range(3):
            lsn, size = log.append(rec(i))
            yield from log.flush(lsn)
            sizes.append((lsn, size))
        return sizes

    sizes = sim.run_process(run())
    last_lsn, last_size = sizes[-1]
    assert store.durable_end == last_lsn + last_size == store.end
    _assert_sector_invariant(log)


# -- window reader re-extension ---------------------------------------------


def test_window_reader_reextends_for_straddling_record():
    """A record whose frame extends past the window captured at an
    earlier fetch must invalidate the window, not be parsed from a
    short read."""
    from repro.core.records import FillerRecord

    sim, log, _ = make_log()

    def run():
        lsn1, _ = log.append(rec(1))
        yield from log.flush(lsn1)
        reader = LogWindowReader(log)
        first = yield from reader.fetch(lsn1)  # window capped at the old end
        # Grow the log past the old window with a record straddling it.
        lsn2, _ = log.append(FillerRecord(70_000))  # > one 64 KB chunk
        lsn3, _ = log.append(rec(3))
        yield from log.flush()
        straddler = yield from reader.fetch(lsn2)
        tail = yield from reader.fetch(lsn3)
        return first, straddler, tail, log.stats.read_chunks

    first, straddler, tail, chunks = sim.run_process(run())
    assert first == rec(1)
    assert straddler == FillerRecord(70_000)
    assert tail == rec(3)
    assert chunks >= 3  # each re-extension charged a real chunk read


def test_window_reader_window_reextends_to_new_durable_limit():
    """A window capped at the log's end as seen at fetch time is
    re-read at the *current* end once the log has grown."""
    sim, log, _ = make_log()

    def run():
        lsn1, _ = log.append(rec(1))
        yield from log.flush(lsn1)
        reader = LogWindowReader(log)
        yield from reader.fetch(lsn1)
        end_after_first = reader._window_end
        lsn2, _ = log.append(rec(2))
        yield from log.flush(lsn2)
        record = yield from reader.fetch(lsn2)
        return end_after_first, reader._window_end, record

    end1, end2, record = sim.run_process(run())
    assert record == rec(2)
    assert end1 == log.store.durable_end - len(frame(rec(2).encode()))
    assert end2 == log.store.durable_end


# -- decode cache ------------------------------------------------------------


def test_scan_populates_decode_cache_for_fetches():
    """Records decoded by the analysis scan are not decoded again by
    per-session replay fetches (the double-decode the cache removes)."""
    sim, log, _ = make_log()

    def run():
        lsns = []
        for i in range(20):
            lsn, _ = log.append(rec(i))
            lsns.append(lsn)
        yield from log.flush()
        yield from log.scan_durable(0)
        reader = LogWindowReader(log)
        hits_before = log.stats.decode_cache_hits
        for lsn in lsns:
            record = yield from reader.fetch(lsn)
            assert record is not None
        return log.stats.decode_cache_hits - hits_before

    hits = sim.run_process(run())
    assert hits == 20


def test_decode_cache_invalidated_by_crash():
    """LSNs can be reused for different bytes after a crash truncates
    the volatile tail — stale cache entries must not survive."""
    sim, log, _ = make_log()

    def run():
        lsn1, _ = log.append(rec(1))
        yield from log.flush(lsn1)
        lsn2, _ = log.append(rec(2))
        log.record_at(lsn2)  # cached while still volatile
        log.store.crash()
        lsn2b, _ = log.append(rec(99))
        assert lsn2b == lsn2  # same LSN, different record
        yield from log.flush(lsn2b)
        record, _next = log.record_at(lsn2b)
        return record

    record = sim.run_process(run())
    assert record == rec(99)
