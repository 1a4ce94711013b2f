"""Edge cases of the durable analysis scan (``LogManager.scan_durable``).

The cases recovery actually hits: a brand-new empty log, an anchor that
points exactly at the durable tail (nothing to scan), and a scan that
stops at a torn tail frame and is restarted once the frame is whole.
"""

import random

from repro.core.log_manager import LogManager
from repro.core.records import AnnouncementRecord
from repro.sim import ProcessGroup, Simulator
from repro.storage import Disk, StableStore


def make_log(seed=0):
    sim = Simulator()
    store = StableStore()
    disk = Disk(sim, rng=random.Random(seed))
    log = LogManager(sim, store, disk)
    log.start(group=ProcessGroup("msp"))
    return sim, log


def run_scan(sim, log, start):
    out = {}

    def proc():
        out["records"] = yield from log.scan_durable(start)

    sim.run_process(proc())
    return out["records"]


def flush(sim, log, lsn):
    def proc():
        yield from log.flush(lsn)

    sim.run_process(proc())


def rec(i):
    return AnnouncementRecord(f"msp{i}", epoch=0, recovered_lsn=i)


def test_scan_empty_log():
    sim, log = make_log()
    assert run_scan(sim, log, 0) == []
    assert log.stats.read_chunks == 0


def test_scan_from_exact_durable_tail():
    sim, log = make_log()
    lsn1, _ = log.append(rec(1))
    lsn2, size2 = log.append(rec(2))
    flush(sim, log, lsn2)
    tail = log.store.durable_end
    assert tail == lsn2 + size2
    chunks_before = log.stats.read_chunks
    assert run_scan(sim, log, tail) == []
    # An empty range reads nothing — recovery after a checkpoint whose
    # min LSN equals the tail must not charge any disk time.
    assert log.stats.read_chunks == chunks_before


def test_scan_stops_at_torn_tail_and_restarts():
    sim, log = make_log()
    lsn1, _size1 = log.append(rec(1))
    lsn2, size2 = log.append(rec(2))
    # Make record 1 plus only a sliver of record 2's frame durable — the
    # torn tail a crash mid-flush leaves behind.
    log.store.mark_durable(lsn2 + 3)
    first = run_scan(sim, log, 0)
    assert [lsn for lsn, _ in first] == [lsn1]
    assert first[0][1] == rec(1)

    # The frame completes (e.g. the next flush); a restarted scan from
    # where the first one stopped sees exactly the remaining record.
    log.store.mark_durable(lsn2 + size2)
    second = run_scan(sim, log, lsn2)
    assert [(lsn, r) for lsn, r in second] == [(lsn2, rec(2))]
