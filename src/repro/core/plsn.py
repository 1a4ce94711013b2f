"""Partitioned log sequence numbers (``Plsn``).

The partitioned log addresses records with a ``(partition, offset)``
pair packed into a single int::

    plsn = (partition << OFFSET_BITS) | offset

Partition 0 plsns are numerically identical to raw byte offsets, so a
one-partition log's lsns are plain offsets.  ``NO_LSN`` (``2**48 - 1``) decodes as partition 0 and
stays a safe sentinel — all code checks for it before treating an lsn
as an address.

Recovered-state *frontiers* generalise the scalar ``recovered_lsn`` of
the single-log design to a per-partition vector of end offsets.  The
encoding is self-describing:

* a single-partition frontier is the raw offset int (offsets are far
  below ``2**59``), the classical scalar;
* a multi-partition frontier packs the per-partition ends into one
  int above a tag bit at ``2**59`` so scalars and vectors never
  collide.
"""

from __future__ import annotations

from typing import Sequence

#: Bits reserved for the byte offset within one partition's store.
OFFSET_BITS = 48
OFFSET_MASK = (1 << OFFSET_BITS) - 1

#: Frontier values below this are plain single-partition offsets.
_FRONTIER_TAG = 1 << 59

#: A packed frontier stores its length in 8 bits, which caps the
#: partition count (``RecoveryConfig.validate`` enforces it).
MAX_PARTITIONS = 0xFF


def make_plsn(partition: int, offset: int) -> int:
    """Pack ``(partition, offset)`` into a plsn int."""
    if partition == 0:
        return offset
    return (partition << OFFSET_BITS) | offset


def plsn_partition(plsn: int) -> int:
    """The partition index a plsn addresses."""
    return plsn >> OFFSET_BITS


def plsn_offset(plsn: int) -> int:
    """The byte offset within the partition's store."""
    return plsn & OFFSET_MASK


def encode_frontier(ends: Sequence[int]) -> int:
    """Pack per-partition end offsets into one wire int.

    Single-partition frontiers are raw scalars; vectors are tagged
    above ``2**59``.
    """
    if len(ends) == 1:
        return ends[0]
    packed = 0
    for i, end in enumerate(ends):
        packed |= end << (OFFSET_BITS * i)
    payload = (packed << 8) | len(ends)
    return _FRONTIER_TAG | (payload << 60)


def decode_frontier(value: int) -> tuple[int, ...]:
    """Inverse of :func:`encode_frontier`."""
    if value < _FRONTIER_TAG:
        return (value,)
    payload = value >> 60
    count = payload & MAX_PARTITIONS
    packed = payload >> 8
    return tuple(
        (packed >> (OFFSET_BITS * i)) & OFFSET_MASK for i in range(count)
    )
