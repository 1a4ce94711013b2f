"""State identifiers, dependency vectors and recovered-state knowledge.

Paper §3.1: a process's *state identifier* consists of a *state number*
(the LSN of its most recent log record) and an *epoch number* (a
failure-free period, incremented after each crash recovery).  A
*dependency vector* (DV) maps each MSP a piece of state transitively
depends on to state identifiers in that MSP's log.  DVs travel on
intra-domain messages and are merged by item-wise maximization.

One refinement over the paper's simplified presentation (which "elides
the epoch number"): we keep the maximum LSN *per epoch* rather than a
single entry per MSP.  Collapsing an epoch-``e`` dependency when an
epoch-``e+1`` entry arrives would mask an orphan if the epoch-``e``
recovery announcement has not been processed yet (announcements and
application messages race on the network).  Per-epoch entries are held
until recovery knowledge resolves them: once ``(msp, e)``'s recovered
LSN is known, the entry either proves orphan (LSN beyond it) or can be
dropped (LSN covered, hence durable and never orphanable).  This matches
the incarnation-number treatment in the classical optimistic-recovery
protocols the paper cites (Strom & Yemini; Damani & Garg).

With the partitioned log (DESIGN.md §14) LSNs are plsns — packed
``(partition, offset)`` pairs — and per-partition offsets are not
comparable across partitions.  Entries are therefore kept per
``(epoch, partition)``: maximization, covering and resolution all
happen within one partition's offset order.  At ``partitions=1`` every
plsn has partition 0 and the structure (and its wire encoding)
degenerates to exactly the per-epoch form above.

Orphan detection works against a :class:`RecoveryTable`: when an MSP
finishes crash recovery it announces ``(msp, epoch, recovered_lsn)`` —
a per-partition durable frontier packed by
:func:`repro.core.plsn.encode_frontier` (a raw scalar at one
partition).  Any dependency on that epoch with an LSN beyond its
partition's frontier refers to log records that were lost in the
crash, so the depending state is an orphan.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import zip_longest
from typing import Iterator, Mapping, Optional, Sequence, Union

from repro.core.plsn import OFFSET_BITS, OFFSET_MASK, decode_frontier, encode_frontier
from repro.wire.codec import TEXT, Buffer, encode_uvarint, read_text_interned, read_uvarint

#: ``varint(len) + utf-8 name`` for an MSP name, from the intern table
#: the record codec's text fields write through.
_name_head = TEXT.write

#: Bits of the internal DV entry key reserved for the partition index:
#: ``key = (epoch << PKEY_BITS) | partition``.  Sorting keys sorts by
#: (epoch, partition); at partitions=1 the key is just ``epoch << 10``.
PKEY_BITS = 10
MAX_PARTITIONS = 1 << PKEY_BITS


@dataclass(frozen=True, order=True)
class StateId:
    """An (epoch, state number) pair identifying a point in an MSP's log."""

    epoch: int
    lsn: int


def _entry_key(epoch: int, lsn: int) -> int:
    return (epoch << PKEY_BITS) | (lsn >> OFFSET_BITS)


class DependencyVector:
    """``msp name -> {(epoch, partition) -> max LSN}`` with lattice merge.

    DVs mutate in place; ``copy()`` gives the snapshot the paper needs
    where a shared-variable write *replaces* the variable's DV with the
    writer session's DV.  The inner dict is keyed by
    ``(epoch << PKEY_BITS) | partition`` so the single-partition case
    keeps one flat int key per epoch.  An MSP is present only while it
    has an entry.
    """

    __slots__ = ("_entries",)

    def __init__(self, entries: Optional[Mapping[str, Mapping[int, int]]] = None):
        # External constructor input is epoch-keyed (the historical
        # shape); the partition half of the key comes from the lsn.
        self._entries: dict[str, dict[int, int]] = {}
        for msp, epochs in (entries or {}).items():
            for epoch, lsn in epochs.items():
                self.observe(msp, StateId(epoch, lsn))

    # -- access ----------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self._entries)

    def entry_count(self) -> int:
        return sum(len(keys) for keys in self._entries.values())

    def __iter__(self) -> Iterator[tuple[str, StateId]]:
        """Iterate all (msp, StateId) entries in deterministic order."""
        for msp in sorted(self._entries):
            keys = self._entries[msp]
            for key in sorted(keys):
                yield msp, StateId(key >> PKEY_BITS, keys[key])

    def get(self, msp: str) -> Optional[StateId]:
        """The most recent (highest-epoch) dependency on ``msp``."""
        keys = self._entries.get(msp)
        if not keys:
            return None
        key = max(keys)
        return StateId(key >> PKEY_BITS, keys[key])

    def msps(self) -> list[str]:
        return sorted(self._entries)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DependencyVector):
            return NotImplemented
        return self._entries == other._entries

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"{m}:{s.epoch}.{s.lsn}" for m, s in self)
        return f"DV[{inner}]"

    def copy(self) -> "DependencyVector":
        dv = DependencyVector()
        dv._entries = {msp: dict(keys) for msp, keys in self._entries.items()}
        return dv

    # -- updates -----------------------------------------------------------

    def observe(self, msp: str, state: StateId) -> None:
        """Record a direct dependency (per-epoch, per-partition max)."""
        keys = self._entries.setdefault(msp, {})
        key = _entry_key(state.epoch, state.lsn)
        current = keys.get(key)
        if current is None or state.lsn > current:
            keys[key] = state.lsn

    def merge(self, other: "DependencyVector") -> None:
        """Item-wise maximization with ``other`` (paper Fig. 5)."""
        for msp, keys in other._entries.items():
            mine = self._entries.setdefault(msp, {})
            for key, lsn in keys.items():
                current = mine.get(key)
                if current is None or lsn > current:
                    mine[key] = lsn

    def replace_with(self, other: "DependencyVector") -> None:
        """Become a copy of ``other`` (shared-variable write semantics)."""
        self._entries = {msp: dict(keys) for msp, keys in other._entries.items()}

    def clear(self) -> None:
        self._entries.clear()

    def prune_covered(self, msp: str, state: StateId) -> None:
        """Drop entries for ``msp`` proven durable up to ``state``.

        Called after a distributed log flush covered ``state`` at that
        MSP, and when recovery knowledge shows an old-epoch entry
        survived its crash.  A durable dependency can never become an
        orphan, so carrying it is pure overhead — this is why the paper
        can drop the DV from cross-domain messages after the flush.
        Entries for *later* epochs, for other partitions, or for LSNs
        beyond ``state.lsn`` within the same epoch and partition, are
        kept.
        """
        keys = self._entries.get(msp)
        if not keys:
            return
        state_key = _entry_key(state.epoch, state.lsn)
        state_epoch = state.epoch
        for key in list(keys):
            if (key >> PKEY_BITS) < state_epoch or (
                key == state_key and keys[key] <= state.lsn
            ):
                del keys[key]
        if not keys:
            del self._entries[msp]

    def resolve(self, table: "RecoveryTable") -> bool:
        """Check the DV against recovery knowledge: drop the entries
        ``table`` covers and return whether any entry is lost (the
        state is an orphan).

        One pass over the entries, with :meth:`RecoveryTable.covers`
        inlined.  An MSP ``table`` has never seen recover costs one dict
        lookup, and nothing is allocated unless an entry is dropped.
        Dropping is safe because a covered entry can never become lost:
        frontiers only grow.
        """
        recovered = table._recovered
        lost = False
        covered = None
        for msp, keys in self._entries.items():
            epochs = recovered.get(msp)
            if epochs is None:
                continue
            for key, lsn in keys.items():
                frontier = epochs.get(key >> PKEY_BITS)
                if frontier is None:
                    continue
                partition = lsn >> OFFSET_BITS
                if partition < len(frontier) and (lsn & OFFSET_MASK) < frontier[partition]:
                    if covered is None:
                        covered = []
                    covered.append((msp, key))
                else:
                    lost = True
        if covered is not None:
            entries = self._entries
            for msp, key in covered:
                keys = entries[msp]
                del keys[key]
                if not keys:
                    del entries[msp]
        return lost

    # -- serialization -------------------------------------------------------

    def encode_bytes(self) -> bytes:
        """The DV as it appears inside a log record: count-prefixed
        ``msp -> (epoch, lsn)*`` in sorted order, all varints.

        The partition index is never written — it is recoverable from
        the lsn — so the format is the flat per-epoch encoding.  One
        buffer is written in place: each MSP name's length-prefixed
        bytes come from the codec's intern table, and counts, epochs
        and lsns are appended as inline varints.
        """
        entries = self._entries
        out = bytearray(encode_uvarint(len(entries)))
        for msp in sorted(entries):
            out += _name_head(msp)
            keys = entries[msp]
            count = len(keys)
            if count > 0x7F:
                out += encode_uvarint(count)
            else:
                out.append(count)
            for key in sorted(keys):
                epoch = key >> PKEY_BITS
                if epoch > 0x7F:
                    out += encode_uvarint(epoch)
                else:
                    out.append(epoch)
                lsn = keys[key]
                while lsn > 0x7F:
                    out.append((lsn & 0x7F) | 0x80)
                    lsn >>= 7
                out.append(lsn)
        return bytes(out)

    @staticmethod
    def decode_from_buffer(buf: Buffer, pos: int) -> tuple["DependencyVector", int]:
        """Inverse of :meth:`encode_bytes` at ``buf[pos:]``; returns
        ``(dv, next_pos)``.

        Single-byte varints (entry counts, epochs, short LSNs) are read
        inline; only multi-byte values fall back to ``read_uvarint``.
        An out-of-bounds index surfaces as ``IndexError``, which the
        ``decode_record`` dispatcher translates to :class:`CodecError`.
        """
        dv = DependencyVector()
        entries = dv._entries
        count = buf[pos]
        pos += 1
        if count > 0x7F:
            count, pos = read_uvarint(buf, pos - 1)
        for _ in range(count):
            msp, pos = read_text_interned(buf, pos)
            nepochs = buf[pos]
            pos += 1
            if nepochs > 0x7F:
                nepochs, pos = read_uvarint(buf, pos - 1)
            keys = entries.setdefault(msp, {})
            for _ in range(nepochs):
                epoch = buf[pos]
                pos += 1
                if epoch > 0x7F:
                    epoch, pos = read_uvarint(buf, pos - 1)
                lsn = buf[pos]
                pos += 1
                if lsn > 0x7F:
                    lsn, pos = read_uvarint(buf, pos - 1)
                key = (epoch << PKEY_BITS) | (lsn >> OFFSET_BITS)
                current = keys.get(key)
                if current is None or lsn > current:
                    keys[key] = lsn
        return dv, pos

    def wire_size(self) -> int:
        """Bytes this DV adds to a message (used for network timing)."""
        return 4 + 20 * self.entry_count()


#: A recovered-state frontier as stored locally: per-partition end
#: offsets.  On the wire it travels as one packed int.
Frontier = tuple[int, ...]


class RecoveryTable:
    """Knowledge of recovered state numbers (paper §3.1, §4.3).

    Maps ``msp -> {epoch -> frontier}``: after MSP ``p`` crashes in
    epoch ``e`` and recovers, the frontier holds, per log partition,
    the offset just past the last byte the recovery kept (the largest
    persistent LSN boundary, lowered to the consistent cut at
    partitions>1).  Every log record of epoch ``e`` that *starts* at or
    beyond its partition's frontier is lost forever; dependencies on
    such records are orphans.  Frontiers cross the wire as packed ints
    (:func:`repro.core.plsn.encode_frontier`) — a raw scalar offset in
    the single-partition case.
    """

    def __init__(self) -> None:
        self._recovered: dict[str, dict[int, Frontier]] = {}

    def record(
        self, msp: str, epoch: int, recovered_lsn: Union[int, Sequence[int]]
    ) -> bool:
        """Learn that ``msp`` recovered epoch ``epoch`` up to ``recovered_lsn``.

        Accepts either the packed wire int or a per-partition frontier
        sequence.  Returns True if this was new knowledge.
        """
        if isinstance(recovered_lsn, int):
            frontier = decode_frontier(recovered_lsn)
        else:
            frontier = tuple(recovered_lsn)
        epochs = self._recovered.setdefault(msp, {})
        current = epochs.get(epoch)
        if current is None:
            epochs[epoch] = frontier
            return True
        if current != frontier:
            epochs[epoch] = tuple(map(max, zip_longest(current, frontier, fillvalue=0)))
        return False

    def merge_snapshot(self, snapshot: Mapping[str, Mapping[int, int]]) -> bool:
        """Join a wire-form table (:meth:`snapshot`) into this one, in
        place; True if anything was new.  The join is a per-epoch,
        per-partition maximum that never drops an entry."""
        fresh = False
        for msp, epochs in snapshot.items():
            for epoch, lsn in epochs.items():
                if self.record(msp, epoch, lsn):
                    fresh = True
        return fresh

    def recovered_lsn(self, msp: str, epoch: int) -> Optional[int]:
        """The packed wire form of the recovered frontier, if known."""
        epochs = self._recovered.get(msp)
        if not epochs:
            return None
        frontier = epochs.get(epoch)
        if frontier is None:
            return None
        return encode_frontier(frontier)

    def frontier(self, msp: str, epoch: int) -> Optional[Frontier]:
        """The per-partition recovered frontier, if known."""
        epochs = self._recovered.get(msp)
        if not epochs:
            return None
        return epochs.get(epoch)

    def covers(self, msp: str, epoch: int, lsn: int) -> Optional[bool]:
        """Did the record at ``lsn`` survive ``msp``'s epoch-``epoch`` crash?

        None when the epoch's recovery outcome is not yet known; True
        when the record is below the recovered frontier (durable, never
        orphanable); False when it is beyond it (lost).
        """
        frontier = self.frontier(msp, epoch)
        if frontier is None:
            return None
        partition = lsn >> OFFSET_BITS
        return (
            partition < len(frontier)
            and (lsn & OFFSET_MASK) < frontier[partition]
        )

    def is_orphan(self, dv: DependencyVector) -> bool:
        """Does any entry of ``dv`` depend on lost state?"""
        return self.find_orphan_entry(dv) is not None

    def find_orphan_entry(self, dv: DependencyVector) -> Optional[tuple[str, StateId]]:
        """Return the first orphan entry of ``dv``, if any."""
        for msp, state in dv:
            if self.covers(msp, state.epoch, state.lsn) is False:
                return msp, state
        return None

    def snapshot(self) -> dict[str, dict[int, int]]:
        """A deep copy in wire form, for inclusion in MSP checkpoints."""
        return {
            msp: {epoch: encode_frontier(fr) for epoch, fr in epochs.items()}
            for msp, epochs in self._recovered.items()
        }
