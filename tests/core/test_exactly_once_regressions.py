"""Three exactly-once violations found in PR 20, each pinned with the
trace that showed it and not only the end verdict (EXPERIMENTS.md,
"Three exactly-once violations").
"""

import pytest

import repro.core.crash_recovery as crash_recovery
from repro.core.msp import MiddlewareServer
from repro.fuzz.explorer import FuzzParams, run_random_case

from tests.core.test_property_exactly_once import run_schedule


def test_no_record_chains_to_a_volatile_sv_checkpoint(monkeypatch):
    """A shared-variable checkpoint on the control partition used to
    release the write lock while still volatile; the next update chained
    to it from the writer's partition, nothing ever flushed partition 0,
    and a restart of MSP2 cut durable, acknowledged records off another
    partition.  Case 35 at P=3 (one MSP2 kill) needs the checkpoint's
    flush before release: without it the cut excises a durable suffix and
    MSP1's counters end at 13 and 10 for 12 requests."""
    cuts = []
    compute = crash_recovery.compute_partition_cut

    def spy(msp_name, old_epoch, partition_records, durable_ends, dependencies):
        cut = compute(
            msp_name, old_epoch, partition_records, durable_ends, dependencies
        )
        cuts.append((msp_name, dict(durable_ends), dict(cut)))
        return cut

    monkeypatch.setattr(crash_recovery, "compute_partition_cut", spy)
    result = run_random_case(35, FuzzParams(log_partitions=3))
    assert [name for name, _ends, _cut in cuts] == ["msp2"]
    for _name, durable_ends, cut in cuts:
        assert cut == durable_ends
    assert not result.failed, result.violations


@pytest.mark.parametrize(
    "case_seed, partitions",
    # Seed 5 fails at the parent commit; 12 and 11 are the cases that
    # still fail here when only the floor rule is taken out (the
    # checkpoint flush above moved every crash ordinal).
    [(5, 3), (12, 3), (11, 8)],
)
def test_analysis_never_installs_a_write_below_the_chain_floor(
    monkeypatch, case_seed, partitions
):
    """A session checkpoint lifts one partition's scan start above the
    write a later shared-variable checkpoint seals, while another
    partition still carries the variable's older updates as replay
    positions.  Nothing orders those before the checkpoint, the sparse
    control partition's small offsets win the merge's tie-break, and the
    analysis pass used to apply checkpoint-then-stale-update (``SV2`` 11
    for 12 requests)."""
    stale = []
    live_write = crash_recovery._live_write

    def spy(msp, state, lsn, record):
        sv = live_write(msp, state, lsn, record)
        if sv is None and record.variable in msp.shared:
            stale.append((record.variable, lsn))
        return sv

    monkeypatch.setattr(crash_recovery, "_live_write", spy)
    result = run_random_case(case_seed, FuzzParams(log_partitions=partitions))
    assert not result.failed, result.violations
    assert stale, "the schedule no longer puts a stale write in the scan"


def test_an_announced_frontier_never_grows(monkeypatch):
    """``front`` dies at 203 ms with durable end 1978 (``backend``
    applied bump 6 for the request lost above it), recovers, announces
    ``(epoch 0, 1978)``, makes its step-4 checkpoint durable at 2092 and
    is killed at 278 ms before anchoring it.  The second recovery read
    the old anchor and used to announce ``(epoch 0, 2092)`` — covering
    offsets the lost incarnation had used — so ``backend``'s counter was
    no longer an orphan and ended at 13 for 12 requests."""
    announced, tables = [], []
    broadcast = MiddlewareServer.broadcast_recovery

    def spy(self, old_epoch, recovered_lsn):
        announced.append((self.name, old_epoch, recovered_lsn))
        tables.append(self.table.snapshot()[self.name])
        return broadcast(self, old_epoch, recovered_lsn)

    monkeypatch.setattr(MiddlewareServer, "broadcast_recovery", spy)
    # Asserts the client saw 1..12 and both counters ended at 12.
    run_schedule(0, [(203.0, True), (278.0, True)], True, False)
    assert announced == [("front", 0, 1978), ("front", 1, 2092)]
    # The second announcement still carries epoch 0's frontier, from the
    # interrupted recovery's checkpoint snapshot, unchanged.
    assert tables == [{0: 1978}, {0: 1978, 1: 2092}]
