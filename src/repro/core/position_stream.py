"""Per-session position streams (paper §3.2).

All sessions share one physical log; to recover a session its records
must be extracted efficiently.  A position stream holds the LSNs of the
session's log records since its latest checkpoint.  Positions are
written to an in-memory buffer and spilled to disk only when the buffer
fills, "so the cost of writing positions is low".  A crash loses the
buffered tail; crash recovery reconstructs the missing positions from
the physical log itself (§4.3 scan step a).

Orphan recovery truncates the stream to drop the positions of skipped
records, making them invisible to any subsequent recovery (§4.1).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional

from repro.storage import Disk

#: Position-buffer capacity, in positions (spilled to disk when full;
#: paper §3.2 says this cost is low).
POSITION_BUFFER_CAPACITY = 512


class PositionStream:
    """LSN positions of one session's log records since its checkpoint."""

    def __init__(self, session_id: str, buffer_capacity: int = POSITION_BUFFER_CAPACITY):
        self.session_id = session_id
        self.buffer_capacity = buffer_capacity
        #: Positions already spilled to the position stream's disk area.
        self._persistent: list[int] = []
        #: Positions still only in memory.
        self._buffer: list[int] = []
        #: Count of spills, for stats.
        self.spill_count = 0

    def __len__(self) -> int:
        return len(self._persistent) + len(self._buffer)

    def positions(self) -> list[int]:
        """All recorded positions in append order."""
        return self._persistent + self._buffer

    def __iter__(self) -> Iterator[int]:
        return iter(self.positions())

    def append(self, lsn: int) -> bool:
        """Record a new position; returns True when the buffer just
        filled and should be spilled (caller pays the small disk write)."""
        self._buffer.append(lsn)
        return len(self._buffer) >= self.buffer_capacity

    def spill(self, disk: Optional[Disk] = None):
        """Move the buffer to the persistent part (generator).

        Charges one small disk write when a disk is given — this is the
        "low cost" position flush of §3.2.
        """
        if disk is not None and self._buffer:
            yield from disk.write(1)
        self._persistent.extend(self._buffer)
        self._buffer.clear()
        self.spill_count += 1

    def truncate(self) -> None:
        """Reset to zero length (after a session checkpoint, §3.2)."""
        self._persistent.clear()
        self._buffer.clear()

    def remove_from(self, orphan_lsn: int) -> list[int]:
        """Drop every position >= ``orphan_lsn`` (orphan recovery, §4.1).

        Returns the removed positions.  Handles both the disjoint and
        the embedded (orphan, EOS) pair combinations of Fig. 11, because
        removal by threshold subsumes ranges removed earlier.
        """
        removed = [p for p in self.positions() if p >= orphan_lsn]
        self._persistent = [p for p in self._persistent if p < orphan_lsn]
        self._buffer = [p for p in self._buffer if p < orphan_lsn]
        return removed

    def crash(self) -> None:
        """Lose the in-memory buffer (the MSP crashed)."""
        self._buffer.clear()

    def replace(self, positions: Iterable[int]) -> None:
        """Install positions reconstructed by the crash-recovery scan."""
        self._persistent = list(positions)
        self._buffer = []
