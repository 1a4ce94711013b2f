"""Randomized algebraic properties of dependency vectors (paper §3.1).

The recovery protocol is sound only if DV merge is a lattice join:
commutative, associative, idempotent and monotone.  These tests check
those laws — plus orphan-verdict preservation under pruning — over a
thousand seeded random vector sequences, far beyond what the
hand-written scenarios in ``test_dv.py`` reach.  The one-pass
``resolve`` and the single-buffer ``encode_bytes`` are checked against
straightforward reference versions written here.
"""

import random

from repro.core.dv import PKEY_BITS, DependencyVector, RecoveryTable, StateId
from repro.core.plsn import OFFSET_MASK, make_plsn
from repro.core.shared_variable import SharedVariable
from repro.sim import Simulator
from repro.wire.codec import encode_uvarint

MSPS = ("msp1", "msp2", "msp3", "msp4")


def _random_dv(rng: random.Random) -> DependencyVector:
    dv = DependencyVector()
    for _ in range(rng.randint(0, 6)):
        dv.observe(
            rng.choice(MSPS), StateId(rng.randint(0, 3), rng.randint(0, 100))
        )
    return dv


def _random_table(rng: random.Random) -> RecoveryTable:
    table = RecoveryTable()
    for _ in range(rng.randint(0, 5)):
        table.record(rng.choice(MSPS), rng.randint(0, 3), rng.randint(0, 100))
    return table


def _entries(dv: DependencyVector) -> dict:
    return {(msp, state.epoch): state.lsn for msp, state in dv}


def test_merge_is_commutative_associative_idempotent():
    rng = random.Random(0)
    for _ in range(1000):
        a, b, c = _random_dv(rng), _random_dv(rng), _random_dv(rng)

        ab = a.copy()
        ab.merge(b)
        ba = b.copy()
        ba.merge(a)
        assert ab == ba

        left = ab.copy()
        left.merge(c)
        bc = b.copy()
        bc.merge(c)
        right = a.copy()
        right.merge(bc)
        assert left == right

        aa = a.copy()
        aa.merge(a)
        assert aa == a


def test_merge_is_monotone_itemwise_max():
    rng = random.Random(1)
    for _ in range(1000):
        a, b = _random_dv(rng), _random_dv(rng)
        merged = a.copy()
        merged.merge(b)
        ea, eb, em = _entries(a), _entries(b), _entries(merged)
        assert set(em) == set(ea) | set(eb)
        for key, lsn in em.items():
            assert lsn == max(ea.get(key, -1), eb.get(key, -1))
            assert lsn >= ea.get(key, 0) and lsn >= eb.get(key, 0)


def test_observe_never_lowers_an_entry():
    rng = random.Random(2)
    for _ in range(1000):
        dv = _random_dv(rng)
        before = _entries(dv)
        msp = rng.choice(MSPS)
        state = StateId(rng.randint(0, 3), rng.randint(0, 100))
        dv.observe(msp, state)
        after = _entries(dv)
        for key, lsn in before.items():
            assert after[key] >= lsn
        assert after[(msp, state.epoch)] >= state.lsn


def test_get_returns_highest_epoch_entry():
    rng = random.Random(3)
    for _ in range(1000):
        dv = _random_dv(rng)
        entries = _entries(dv)
        for msp in MSPS:
            epochs = {e: lsn for (m, e), lsn in entries.items() if m == msp}
            got = dv.get(msp)
            if not epochs:
                assert got is None
            else:
                top = max(epochs)
                assert got == StateId(top, epochs[top])


def test_prune_resolved_preserves_orphan_verdict():
    rng = random.Random(4)
    for _ in range(1000):
        dv = _random_dv(rng)
        table = _random_table(rng)
        before_entries = _entries(dv)
        verdict_before = table.is_orphan(dv.copy())
        pruned = dv.copy()
        pruned.resolve(table)
        # Pruning may only drop entries, and never flips the verdict:
        # an entry is dropped only when recovery knowledge proves it
        # durable, so it could never have been the orphan witness.
        after_entries = _entries(pruned)
        assert set(after_entries) <= set(before_entries)
        for key, lsn in after_entries.items():
            assert lsn == before_entries[key]
        assert table.is_orphan(pruned) == verdict_before


def test_copy_is_independent_snapshot():
    rng = random.Random(5)
    for _ in range(200):
        dv = _random_dv(rng)
        snap = dv.copy()
        frozen = _entries(snap)
        dv.observe("msp1", StateId(9, 10**6))
        assert _entries(snap) == frozen


# -- resolve vs. prune-then-check ------------------------------------------


def _reference_resolve(dv: DependencyVector, table: RecoveryTable):
    """The two-step ``resolve`` replaces: drop every entry the table
    covers, then ask whether any remaining entry is lost.  Returns
    ``(lost, pruned)`` and leaves ``dv`` alone."""
    pruned = DependencyVector()
    for msp, state in dv:
        if table.covers(msp, state.epoch, state.lsn) is not True:
            pruned.observe(msp, state)
    lost = any(
        table.covers(msp, state.epoch, state.lsn) is False for msp, state in pruned
    )
    return lost, pruned


def _offset(rng: random.Random) -> int:
    """An offset from every varint width up to the 48-bit maximum, with
    the edges and small values (where frontiers land) overrepresented."""
    pick = rng.random()
    if pick < 0.4:
        return rng.randint(0, 300)
    if pick < 0.5:
        return rng.choice((0, 1, 0x7F, 0x80, OFFSET_MASK - 1, OFFSET_MASK))
    return rng.randint(0, OFFSET_MASK) >> rng.randrange(0, 48)


def _random_packed_dv(rng: random.Random, partitions: int) -> DependencyVector:
    dv = DependencyVector()
    for _ in range(rng.randint(0, 8)):
        lsn = make_plsn(rng.randrange(partitions), _offset(rng))
        dv.observe(rng.choice(MSPS), StateId(rng.randint(0, 4), lsn))
    return dv


def _record_random(rng: random.Random, table: RecoveryTable, partitions: int) -> None:
    for _ in range(rng.randint(0, 6)):
        # A frontier may be narrower than the partition an entry names.
        width = rng.randint(1, partitions)
        frontier = tuple(_offset(rng) for _ in range(width))
        recovered = frontier[0] if width == 1 and rng.random() < 0.5 else frontier
        table.record(rng.choice(MSPS), rng.randint(0, 4), recovered)


def test_resolve_matches_prune_then_check():
    rng = random.Random(6)
    for case in range(1000):
        partitions = (1, 3, 4)[case % 3]
        dv = _random_packed_dv(rng, partitions)
        table = RecoveryTable()
        _record_random(rng, table, partitions)
        lost, pruned = _reference_resolve(dv, table)
        assert dv.resolve(table) == lost
        assert dv == pruned


def test_resolve_twice_on_a_shared_undo_snapshot():
    """A shared variable's DV is also its newest undo entry's: the
    orphan check and then the rollback resolve the same object, with
    the table learning more in between."""
    rng = random.Random(7)
    for case in range(1000):
        partitions = (1, 3, 4)[case % 3]
        sv = SharedVariable(Simulator(), "v", b"init")
        for i in range(rng.randint(0, 4)):
            lsn = make_plsn(rng.randrange(partitions), 16 * (i + 1))
            sv.apply_write(lsn, b"w%d" % i, _random_packed_dv(rng, partitions))
        reference = [snapshot[1].copy() for snapshot in sv.history]
        table = RecoveryTable()
        _record_random(rng, table, partitions)

        if reference:
            lost, reference[-1] = _reference_resolve(reference[-1], table)
            assert sv.history[-1][1] is sv.dv
        else:
            lost = False
        assert sv.is_orphan(table) == lost

        _record_random(rng, table, partitions)
        hops = 0
        while reference:
            lost, reference[-1] = _reference_resolve(reference[-1], table)
            if not lost:
                break
            reference.pop()
            hops += 1
        assert sv.roll_back(table) == hops
        assert [snapshot[1] for snapshot in sv.history] == reference
        if reference:
            assert sv.dv == reference[-1]
        else:
            assert not sv.dv


# -- encode_bytes vs. the per-field encoder ---------------------------------


def _reference_encode(dv: DependencyVector) -> bytes:
    """The per-field encoder: one ``encode_uvarint`` per count, name
    length, epoch and lsn, joined at the end."""
    entries = dv._entries
    parts = [encode_uvarint(len(entries))]
    for msp in sorted(entries):
        name = msp.encode("utf-8")
        parts.append(encode_uvarint(len(name)))
        parts.append(name)
        keys = entries[msp]
        parts.append(encode_uvarint(len(keys)))
        for key in sorted(keys):
            parts.append(encode_uvarint(key >> PKEY_BITS))
            parts.append(encode_uvarint(keys[key]))
    return b"".join(parts)


#: ASCII, non-ASCII (multi-byte UTF-8) and a name longer than 127 bytes.
CODEC_NAMES = ("msp1", "MSP2", "Größe", "服务器", "ünïcödé-" * 9, "m" * 140)


def test_encode_bytes_matches_per_field_encoder():
    rng = random.Random(8)
    for case in range(1000):
        partitions = (1, 3, 4)[case % 3]
        dv = DependencyVector()
        if case % 10 == 0:
            # More than 127 epochs for one MSP: multi-byte entry count
            # and epochs.
            msp = rng.choice(CODEC_NAMES)
            for epoch in range(rng.randint(128, 200)):
                dv.observe(msp, StateId(epoch, make_plsn(0, _offset(rng))))
        if case % 50 == 1:
            # More than 127 MSPs: a multi-byte MSP count.
            for i in range(130):
                dv.observe(f"m{i}", StateId(0, _offset(rng)))
        for _ in range(rng.randint(0, 8)):
            lsn = make_plsn(rng.randrange(partitions), _offset(rng))
            epoch = rng.choice((0, 1, 2, 127, 128, 300, 1 << 20))
            dv.observe(rng.choice(CODEC_NAMES), StateId(epoch, lsn))

        encoded = dv.encode_bytes()
        assert encoded == _reference_encode(dv)
        decoded, end = DependencyVector.decode_from_buffer(encoded, 0)
        assert end == len(encoded)
        assert decoded == dv
        framed = memoryview(b"\xff" + encoded + b"\xff")
        decoded, end = DependencyVector.decode_from_buffer(framed, 1)
        assert end == len(encoded) + 1
        assert decoded == dv
