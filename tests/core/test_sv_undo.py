"""One undo (DESIGN.md §6): a shared variable is rolled back from its
in-memory undo stack, live and after a restart, at every partition
count.

- the fork regression: a rollback makes the next write name a mid-chain
  record as its predecessor, so the variable's records fork; with
  several partitions nothing orders the dead branch against the live
  one in the recovery merge, and an undo that walked ``prev_write_lsn``
  from whatever the merge installed last walked past the live write;
- a reference model over random writes, command writes, checkpoints,
  announcements and rollbacks;
- the rebuilt stack: crash after any prefix of a logged history, scan,
  cut, merge, analyze — the rebuilt variable rolls back to the value the
  live one rolls back to.
"""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.crash_recovery import (
    analyze_scan,
    compute_partition_cut,
    merge_partition_scans,
)
from repro.core.dv import RecoveryTable
from repro.core.plsn import make_plsn, plsn_offset
from repro.core.records import (
    AnnouncementRecord,
    SvCheckpointRecord,
    SvUpdateRecord,
    SvWriteRecord,
)
from repro.core.shared_variable import SharedVariable
from tests.core.test_partitioned_log import SESSIONS, make_partitioned_log
from tests.core.test_shared_variable import dv_of

PEERS = ("A", "B", "C")


class Live:
    """One variable driven the way ``core/context.py`` and
    ``sv_checkpoint`` drive it, against a real partitioned log."""

    def __init__(self, nparts):
        self.sim, self.log = make_partitioned_log(nparts)
        self.table = RecoveryTable()
        self.sv = SharedVariable(self.sim, "v", b"init")
        self.commands = 0

    @property
    def value(self):
        return self.sv.value

    def rollback(self):
        if self.sv.is_orphan(self.table):
            self.sv.roll_back(self.table)

    def write(self, session_id, value, dv):
        record = SvWriteRecord(
            session_id, "v", value, dv.copy(), prev_write_lsn=self.sv.last_write_lsn
        )
        lsn, _size = self.log.append(record)
        self.sv.apply_write(lsn, value, dv)

    def update(self, session_id, value, dv):
        self.rollback()
        merged = dv.copy()
        merged.merge(self.sv.dv)
        record = SvUpdateRecord(
            session_id, "v", self.sv.value, value, self.sv.dv.copy(), merged,
            prev_write_lsn=self.sv.last_write_lsn,
        )
        lsn, _size = self.log.append(record)
        self.sv.apply_write(lsn, value, merged)

    def command(self, session_id, value, dv):
        self.rollback()
        merged = dv.copy()
        merged.merge(self.sv.dv)
        self.commands += 1
        self.sv.apply_command_write(self.commands, 0, value, merged, session_id)

    def checkpoint(self):
        # The flush before a checkpoint fails on an orphan, which is
        # rolled back instead (``sv_checkpoint``).
        if self.sv.is_orphan(self.table):
            self.sv.roll_back(self.table)
            return
        record = SvCheckpointRecord(
            "v", self.sv.value, self.sv.last_write_lsn, dict(self.sv.command_frontier)
        )
        lsn, _size = self.log.append(record)
        self.sv.apply_checkpoint(lsn)

    def announce(self, peer, recovered_lsn):
        self.log.append(AnnouncementRecord(peer, 0, recovered_lsn))
        self.table.record(peer, 0, recovered_lsn)

    def rebuilt(self):
        """Make everything durable and run the restart's scan, cut,
        merge and analysis pass into a fresh variable; returns it with
        the table the scan re-learned and the merge order."""
        log = self.log
        self.sim.run_process(log.flush())
        partition_records, durable_ends = {}, {}
        for partition, unit in enumerate(log.partitions):
            scanned = self.sim.run_process(log.scan_durable(make_plsn(partition, 0)))
            partition_records[partition] = [
                (plsn_offset(plsn), record) for plsn, record in scanned
            ]
            durable_ends[partition] = unit.store.durable_end
        cut = compute_partition_cut("M", 0, partition_records, durable_ends)
        assert cut == durable_ends
        merged = merge_partition_scans("M", 0, partition_records, cut)
        msp = SimpleNamespace(
            shared={"v": SharedVariable(self.sim, "v", b"init")}, table=RecoveryTable()
        )
        analyze_scan(msp, merged)
        return msp.shared["v"], msp.table, [record for _plsn, record in merged]


def two_sessions(log):
    """Session ids on two different partitions (the same one at P=1)."""
    a = SESSIONS[0]
    b = next(
        (s for s in SESSIONS if log.partition_of_session(s) != log.partition_of_session(a)),
        SESSIONS[1],
    )
    return a, b


@pytest.mark.parametrize("nparts", (1, 2, 3, 4))
def test_a_forked_write_chain_keeps_the_live_branch(nparts):
    live = Live(nparts)
    a, b = two_sessions(live.log)
    live.write(a, b"G", dv_of())
    live.write(a, b"O1", dv_of(("OTHER", 0, 500)))
    live.write(a, b"O2", dv_of(("OTHER", 0, 600)))
    live.table.record("OTHER", 0, 400)  # OTHER lost everything past 400
    assert live.sv.is_orphan(live.table)
    assert live.sv.roll_back(live.table) == 2
    assert live.sv.value == b"G"
    # Names G as its predecessor: the fork W'->G beside O2->O1->G.
    live.write(b, b"W'", dv_of())

    sv, table, merged = live.rebuilt()
    order = [getattr(r, "value", None) for r in merged]
    if nparts > 1:
        # Only G orders W' (its predecessor): the merge is free to — and
        # by offset does — install the dead branch's head last.
        assert order.index(b"W'") < order.index(b"O2")
        assert sv.value == b"O2"
    table.record("OTHER", 0, 400)  # the announcement re-learned
    if sv.is_orphan(table):
        sv.roll_back(table)
    assert sv.value == b"W'"
    assert not sv.is_orphan(table)


# -- a reference model -------------------------------------------------------

_dvs = st.lists(
    st.tuples(st.sampled_from(PEERS), st.integers(0, 1), st.integers(0, 9)),
    max_size=2,
).map(lambda entries: dv_of(*entries))
_sessions = st.integers(0, len(SESSIONS) - 1)
_logged_ops = st.one_of(
    st.tuples(st.just("write"), _sessions, _dvs),
    st.tuples(st.just("update"), _sessions, _dvs),
    st.tuples(st.just("checkpoint")),
    st.tuples(st.just("announce"), st.sampled_from(PEERS), st.integers(0, 9)),
    st.tuples(st.just("rollback")),
)
_ops = st.one_of(_logged_ops, st.tuples(st.just("command"), _sessions, _dvs))


class Reference:
    """Newest entry in application order whose DV the table does not
    orphan, else the checkpoint, else the initial value."""

    def __init__(self, table):
        self.table, self.floor, self.entries = table, b"init", []

    @property
    def value(self):
        return self.entries[-1][0] if self.entries else self.floor

    def rollback(self):
        while self.entries and self.table.is_orphan(self.entries[-1][1]):
            self.entries.pop()

    def write(self, _session_id, value, dv):
        self.entries.append((value, dv))

    def update(self, _session_id, value, dv):
        self.rollback()
        merged = dv.copy()
        if self.entries:
            merged.merge(self.entries[-1][1])
        self.entries.append((value, merged))

    command = update

    def checkpoint(self):
        if self.entries and self.table.is_orphan(self.entries[-1][1]):
            self.rollback()
        else:
            self.floor, self.entries = self.value, []


def apply_op(live, machines, index, op, announced):
    """Apply ``op`` to every machine, as the request path would."""
    kind = op[0]
    if kind == "announce":
        # One announcement per peer and epoch: a frontier never grows.
        if op[1] not in announced:
            announced.add(op[1])
            live.announce(op[1], op[2])
    elif kind in ("checkpoint", "rollback"):
        for machine in machines:
            getattr(machine, kind)()
    else:
        while kind == "write" and live.sv.uncaptured_commands:
            for machine in machines:  # the regime barrier
                machine.checkpoint()
        for machine in machines:
            getattr(machine, kind)(SESSIONS[op[1]], b"w%d" % index, op[2])


@settings(deadline=None, max_examples=150, derandomize=True)
@given(ops=st.lists(_ops, max_size=25))
def test_rollback_matches_the_reference_model(ops):
    live, announced = Live(1), set()
    reference = Reference(live.table)
    for index, op in enumerate(ops):
        apply_op(live, (live, reference), index, op, announced)
        assert live.value == reference.value, (index, op)
        assert len(live.sv.history) <= live.sv.writes_since_ckpt
    live.rollback()
    reference.rollback()
    assert live.value == reference.value
    assert not live.sv.is_orphan(live.table)


@pytest.mark.parametrize("nparts", (1, 2, 4))
@settings(deadline=None, max_examples=60, derandomize=True)
@given(ops=st.lists(_logged_ops, min_size=1, max_size=12))
def test_a_rebuilt_variable_rolls_back_like_the_live_one(nparts, ops):
    for crash_after in range(1, len(ops) + 1):
        live, announced = Live(nparts), set()
        for index, op in enumerate(ops[:crash_after]):
            apply_op(live, (live,), index, op, announced)
        sv, table, _merged = live.rebuilt()
        if sv.is_orphan(table):
            sv.roll_back(table)
        live.rollback()
        assert sv.value == live.value, f"crash after {crash_after} ops"
