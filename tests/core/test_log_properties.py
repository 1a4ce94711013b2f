"""Property-based tests on the physical log's durability invariant.

For ANY interleaving of appends, flushes and crashes, the stable store
must end at a record boundary, every surviving record must parse back
identically, and the survivors must be exactly a prefix of what was
flushed.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.log_manager import LogManager
from repro.core.records import AnnouncementRecord, EosRecord, SvCheckpointRecord
from repro.sim import ProcessGroup, Simulator
from repro.storage import Disk, StableStore
from repro.wire import FrameReader


def make_log(seed=0):
    sim = Simulator()
    store = StableStore()
    disk = Disk(sim, rng=random.Random(seed))
    log = LogManager(sim, store, disk)
    log.start(group=ProcessGroup("t"))
    return sim, log


def sample_record(i: int):
    kind = i % 3
    if kind == 0:
        return AnnouncementRecord(f"m{i}", epoch=i % 4, recovered_lsn=i * 7)
    if kind == 1:
        return EosRecord(f"s{i % 5}", orphan_lsn=i * 3)
    return SvCheckpointRecord(f"v{i % 3}", bytes([i % 256]) * (i % 50 + 1), prev_write_lsn=i)


# Operations: ("append",) | ("flush",) | ("crash",)
operation = st.sampled_from(["append", "flush", "crash"])


@settings(max_examples=60, deadline=None)
@given(st.lists(operation, min_size=1, max_size=40), st.integers(0, 100))
def test_durable_prefix_invariant(operations, seed):
    sim, log = make_log(seed)
    persisted: list = []  # records proven durable by a flush
    volatile: list = []   # appended but not yet flushed
    counter = [0]

    def driver():
        for op in operations:
            if op == "append":
                record = sample_record(counter[0])
                counter[0] += 1
                log.append(record)
                volatile.append(record)
            elif op == "flush":
                yield from log.flush(None)
                persisted.extend(volatile)
                volatile.clear()
            else:  # crash: the volatile tail evaporates
                log.store.crash()
                volatile.clear()

    process = sim.spawn(driver())
    sim.run()
    process.result  # re-raise driver failures

    # The durable log parses back to exactly the records proven durable,
    # in order — nothing lost, nothing resurrected, nothing torn.
    data = log.store.read(0, log.store.durable_end)
    from repro.core.records import decode_record

    parsed = [decode_record(p) for _o, p in FrameReader(data)]
    assert parsed == persisted
    assert log.store.durable_end <= log.store.end


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 60), st.integers(0, 100))
def test_scan_after_flush_returns_all(count, seed):
    sim, log = make_log(seed)
    records = [sample_record(i) for i in range(count)]

    def driver():
        for record in records:
            log.append(record)
        yield from log.flush(None)
        found = yield from log.scan_durable(0)
        return [r for _lsn, r in found]

    process = sim.spawn(driver())
    sim.run()
    assert process.result == records


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 40), st.integers(1, 39), st.integers(0, 50))
def test_partial_flush_keeps_prefix(total, flush_at, seed):
    if flush_at >= total:
        flush_at = total - 1
    sim, log = make_log(seed)
    records = [sample_record(i) for i in range(total)]
    lsns = []

    def driver():
        for record in records:
            lsn, _ = log.append(record)
            lsns.append(lsn)
        yield from log.flush(lsns[flush_at])

    sim.run_process(driver())
    log.store.crash()
    data = log.store.read(0, log.store.durable_end)
    from repro.core.records import decode_record

    parsed = [decode_record(p) for _o, p in FrameReader(data)]
    # At least records [0..flush_at] survive (flush covers through that
    # record), and survivors are a clean prefix.
    assert len(parsed) >= flush_at + 1
    assert parsed == records[: len(parsed)]
