"""Tests for state ids, dependency vectors and the recovery table."""

from hypothesis import given
from hypothesis import strategies as st

from repro.core.dv import DependencyVector, RecoveryTable, StateId
from repro.core.plsn import encode_frontier
from repro.core.records import MspCheckpointRecord, decode_record


def dv_of(*entries):
    dv = DependencyVector()
    for msp, epoch, lsn in entries:
        dv.observe(msp, StateId(epoch, lsn))
    return dv


def test_observe_keeps_max_per_epoch():
    dv = dv_of(("p1", 0, 10), ("p1", 0, 5), ("p1", 1, 3))
    assert dv.get("p1") == StateId(1, 3)
    assert list(dv) == [("p1", StateId(0, 10)), ("p1", StateId(1, 3))]


def test_merge_itemwise_max():
    """Paper Fig. 5: merging m5's DV [p1:11] into [p1:10,p2:20,p3:30]."""
    dv = dv_of(("p1", 0, 10), ("p2", 0, 20), ("p3", 0, 30))
    dv.merge(dv_of(("p1", 0, 11)))
    assert dv.get("p1") == StateId(0, 11)
    assert dv.get("p2") == StateId(0, 20)
    assert dv.get("p3") == StateId(0, 30)


def test_merge_keeps_old_epoch_until_resolved():
    """An epoch-1 entry must not erase an unresolved epoch-0 dependency."""
    dv = dv_of(("p1", 0, 500))
    dv.merge(dv_of(("p1", 1, 10)))
    assert list(dv) == [("p1", StateId(0, 500)), ("p1", StateId(1, 10))]

    table = RecoveryTable()
    table.record("p1", 0, 400)  # p1 only recovered epoch 0 to LSN 400
    assert table.is_orphan(dv)  # the 500 dependency is lost


def test_prune_resolved_drops_survivors_keeps_orphans():
    dv = dv_of(("p1", 0, 300), ("p1", 1, 10), ("p2", 0, 7))
    table = RecoveryTable()
    table.record("p1", 0, 400)  # 300 <= 400: survived, droppable
    dv.resolve(table)
    assert list(dv) == [("p1", StateId(1, 10)), ("p2", StateId(0, 7))]


def test_prune_covered_by_flush():
    dv = dv_of(("p1", 0, 100), ("p1", 0, 100), ("p2", 0, 50))
    dv.prune_covered("p1", StateId(0, 100))
    assert dv.get("p1") is None
    assert dv.get("p2") == StateId(0, 50)


def test_prune_covered_keeps_later():
    dv = dv_of(("p1", 1, 200))
    dv.prune_covered("p1", StateId(0, 999))
    assert dv.get("p1") == StateId(1, 200)


def test_replace_with_is_deep():
    a = dv_of(("p1", 0, 1))
    b = DependencyVector()
    b.replace_with(a)
    a.observe("p1", StateId(0, 99))
    assert b.get("p1") == StateId(0, 1)


def test_copy_independent():
    a = dv_of(("p1", 0, 1))
    b = a.copy()
    b.observe("p2", StateId(0, 5))
    assert a.get("p2") is None


def test_orphan_detection_basic():
    """Paper §3.1: p1 recovers only to state < 10; p2 and p3 are orphans."""
    table = RecoveryTable()
    table.record("p1", 0, 9)
    p2_dv = dv_of(("p1", 0, 10), ("p2", 0, 20))
    p3_dv = dv_of(("p1", 0, 10), ("p2", 0, 20), ("p3", 0, 30))
    clean = dv_of(("p2", 0, 20))
    assert table.is_orphan(p2_dv)
    assert table.is_orphan(p3_dv)
    assert not table.is_orphan(clean)
    msp, state = table.find_orphan_entry(p3_dv)
    assert msp == "p1"
    assert state == StateId(0, 10)


def test_recovery_table_roundtrip():
    table = RecoveryTable()
    table.record("p1", 0, 100)
    table.record("p1", 1, 250)
    table.record("p2", 0, 7)
    # The table's one wire form: the snapshot inside an MSP checkpoint.
    ckpt = MspCheckpointRecord(table.snapshot(), {}, {}, partition_ends=(0,))
    back = RecoveryTable()
    back.merge_snapshot(decode_record(ckpt.encode()).recovered_snapshot)
    assert back.snapshot() == table.snapshot()


def test_recovery_table_snapshot_roundtrip():
    table = RecoveryTable()
    table.record("a", 0, 5)
    rebuilt = RecoveryTable()
    rebuilt.merge_snapshot(table.snapshot())
    assert rebuilt.snapshot() == {"a": {0: 5}}


def test_merge_snapshot_joins_in_place_and_reports_new_epochs():
    table = RecoveryTable()
    table.record("a", 0, encode_frontier((5, 9)))
    # A wider frontier for a known epoch is joined but is not new.
    assert table.merge_snapshot({"a": {0: encode_frontier((7, 3))}}) is False
    assert table.frontier("a", 0) == (7, 9)
    assert table.merge_snapshot({"a": {0: encode_frontier((7, 9))}}) is False
    assert table.merge_snapshot({"a": {1: 4}, "b": {0: 2}}) is True
    assert table.snapshot() == {
        "a": {0: encode_frontier((7, 9)), 1: 4},
        "b": {0: 2},
    }


def test_recovery_table_record_returns_new_knowledge():
    table = RecoveryTable()
    assert table.record("p", 0, 5) is True
    assert table.record("p", 0, 5) is False


def test_dv_wire_size_grows_with_entries():
    small = dv_of(("p1", 0, 1))
    big = dv_of(("p1", 0, 1), ("p2", 0, 1), ("p3", 0, 1))
    assert big.wire_size() > small.wire_size()


entry_strategy = st.tuples(
    st.sampled_from(["p1", "p2", "p3", "p4"]),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=1000),
)


def build_dv(entries):
    dv = DependencyVector()
    for msp, epoch, lsn in entries:
        dv.observe(msp, StateId(epoch, lsn))
    return dv


@given(st.lists(entry_strategy), st.lists(entry_strategy))
def test_merge_commutative(e1, e2):
    a, b = build_dv(e1), build_dv(e2)
    ab = a.copy()
    ab.merge(b)
    ba = b.copy()
    ba.merge(a)
    assert ab == ba


@given(st.lists(entry_strategy), st.lists(entry_strategy), st.lists(entry_strategy))
def test_merge_associative(e1, e2, e3):
    a, b, c = build_dv(e1), build_dv(e2), build_dv(e3)
    left = a.copy()
    bc = b.copy()
    bc.merge(c)
    left.merge(bc)
    right = a.copy()
    right.merge(b)
    right.merge(c)
    assert left == right


@given(st.lists(entry_strategy))
def test_merge_idempotent(entries):
    a = build_dv(entries)
    b = a.copy()
    b.merge(a)
    assert a == b


@given(st.lists(entry_strategy), st.lists(entry_strategy))
def test_merge_monotone_orphanhood(e1, e2):
    """Merging can only add orphanhood, never remove it."""
    table = RecoveryTable()
    table.record("p1", 0, 100)
    table.record("p2", 1, 50)
    a, b = build_dv(e1), build_dv(e2)
    was_orphan = table.is_orphan(a)
    a.merge(b)
    if was_orphan:
        assert table.is_orphan(a)


@given(st.lists(entry_strategy))
def test_dv_codec_roundtrip(entries):
    dv = build_dv(entries)
    payload = dv.encode_bytes()
    assert DependencyVector.decode_from_buffer(payload, 0) == (dv, len(payload))
