"""Crash-aware append-only byte store, segmented for log-space reuse.

A :class:`StableStore` is the durability abstraction under a physical
log: bytes appended to it live in a volatile tail until ``mark_durable``
advances the durable boundary (the log manager calls it after the
simulated disk write completes).  A crash discards exactly the volatile
tail — the durable prefix always survives.  This is the failure model
every piece of the paper's recovery machinery is designed against, so we
enforce it in one place and test it in isolation.

Physically the store is a chain of fixed-size *segments* (the classic
circular-log / segment-file layout: ARIES log files, Sauer & Härder's
early log reuse).  LSNs stay **global logical byte offsets** — nothing
above the store ever sees segment indices — and :meth:`view` stays
zero-copy whenever the requested range lies inside one segment,
stitching a copy only when a range straddles a boundary.

Segmentation is what makes log-space reclamation possible:
:meth:`truncate` advances a logical floor (``truncate_lsn``) and
recycles every segment wholly below it.  Reads below the floor raise
:class:`LogTruncatedError` — recovery never issues them, because the
MSP checkpoint's minimal LSN (the only value the floor is ever advanced
to) lower-bounds every LSN recovery can touch.  The floor survives
crashes: recycled segments are physically gone, exactly like reused log
files on a real disk.

The store also keeps a small *anchor block* (the paper's §3.4 "log
anchor ... a block located at a specific location inside the physical
log such as the log header") with its own durability flag.

Whatever changes what a crash would leave behind — the durable
boundary, the durable anchor, a rewind — is reported to the store's
*durability observers* (:meth:`StableStore.subscribe`) after it
succeeded; log shipping mirrors the store from those three events.
"""

from __future__ import annotations

from typing import Optional, Protocol, Union

#: Default segment size.  Small enough that short-lived data is
#: reclaimed promptly, large enough that almost no frame straddles a
#: boundary (frames are tens to hundreds of bytes).
DEFAULT_SEGMENT_BYTES = 64 * 1024


class StableStoreError(Exception):
    """Raised for out-of-range reads or misuse of the store."""


class LogTruncatedError(StableStoreError):
    """A read below the truncation floor — that log space was recycled.

    Recovery code must never trigger this: the floor only ever advances
    to an anchored MSP checkpoint's minimal LSN, which lower-bounds
    every LSN recovery can touch (session and shared-variable scan
    starts, backward write chains, EOS comparisons).  Seeing this error
    therefore means a bookkeeping bug, not a recoverable condition.
    """


class DurabilityObserver(Protocol):
    """What a :meth:`StableStore.subscribe` subscriber is told, each
    call made after the store's own state changed."""

    def durable_advanced(self, store: "StableStore") -> None:
        """``mark_durable`` ran (the boundary may not have moved)."""

    def anchor_flushed(self, store: "StableStore") -> None:
        """``flush_anchor`` ran."""

    def rewound(self, store: "StableStore", boundary: int) -> None:
        """``rewind(boundary)`` discarded everything past ``boundary``."""


class StableStore:
    """Segmented append-only byte store with a durable prefix, a volatile
    tail, and a recyclable truncated prefix."""

    def __init__(
        self,
        name: str = "log",
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
    ):
        if segment_bytes <= 0:
            raise StableStoreError(f"{name}: segment_bytes must be positive")
        self.name = name
        self.segment_bytes = segment_bytes
        #: segment index -> buffer holding bytes [i*S, i*S + len(buf)).
        #: Buffers are aligned at their segment's start; only the tail
        #: segment is ever partially filled.
        self._segments: dict[int, bytearray] = {}
        #: The tail segment's buffer (append fast path): because buffers
        #: are segment-aligned, ``len(_tail)`` is exactly the fill of the
        #: tail segment, so an append that fits skips the index math.
        self._tail: Optional[bytearray] = None
        #: Logical truncation floor: offsets below it were recycled.
        self._floor = 0
        #: Logical end (offset just past the last appended byte).
        self._end = 0
        self._durable_end = 0
        self._anchor_volatile: Optional[bytes] = None
        self._anchor_durable: Optional[bytes] = None
        #: Number of crashes survived (diagnostics only).
        self.crash_count = 0
        #: Space accounting (monotone; survives crashes like the floor).
        self.truncated_bytes = 0
        self.recycled_segments = 0
        self._observers: list[DurabilityObserver] = []

    def subscribe(self, observer: DurabilityObserver) -> None:
        """Report durability events to ``observer`` from now on.  The
        subscription belongs to the store, so it survives crashes."""
        self._observers.append(observer)

    # -- appending ------------------------------------------------------

    def append(self, data: bytes) -> int:
        """Append ``data`` to the volatile tail; returns its start offset."""
        offset = self._end
        size = self.segment_bytes
        n = len(data)
        tail = self._tail
        if tail is not None and len(tail) + n <= size:
            tail += data  # common case: fits in the tail segment
            self._end = offset + n
            return offset
        position = 0
        while position < n:
            index, seg_offset = divmod(self._end, size)
            buffer = self._segments.get(index)
            if buffer is None:
                buffer = bytearray()
                self._segments[index] = buffer
                self._tail = buffer
            take = min(size - seg_offset, n - position)
            if position == 0 and take == n:
                buffer += data
            else:
                buffer += data[position : position + take]
            self._end += take
            position += take
        return offset

    def _reset_tail(self) -> None:
        """Re-derive the tail-buffer fast path after truncate/crash."""
        if self._end == 0:
            self._tail = None
        else:
            self._tail = self._segments.get((self._end - 1) // self.segment_bytes)

    @property
    def end(self) -> int:
        """Offset just past the last appended byte (volatile end)."""
        return self._end

    @property
    def durable_end(self) -> int:
        """Offset up to which data is crash-proof."""
        return self._durable_end

    @property
    def truncate_lsn(self) -> int:
        """Logical floor: reads below it raise :class:`LogTruncatedError`."""
        return self._floor

    @property
    def unflushed_bytes(self) -> int:
        return self._end - self._durable_end

    @property
    def live_bytes(self) -> int:
        """Bytes currently held in memory across all retained segments."""
        return sum(len(buffer) for buffer in self._segments.values())

    @property
    def segment_count(self) -> int:
        return len(self._segments)

    def mark_durable(self, upto: int) -> None:
        """Advance the durable boundary to ``upto`` (monotone)."""
        if upto > self._end:
            raise StableStoreError(
                f"{self.name}: cannot mark durable past end ({upto} > {self._end})"
            )
        self._durable_end = max(self._durable_end, upto)
        for observer in self._observers:
            observer.durable_advanced(self)

    # -- reading ----------------------------------------------------------

    def _check_range(self, start: int, length: int) -> None:
        if start < self._floor:
            raise LogTruncatedError(
                f"{self.name}: read [{start}, {start + length}) below the "
                f"truncation floor {self._floor} — that log space was recycled"
            )
        if length < 0 or start + length > self._end:
            raise StableStoreError(
                f"{self.name}: read [{start}, {start + length}) out of range "
                f"(end={self._end})"
            )

    def _gather(self, start: int, length: int) -> Union[memoryview, bytes]:
        """Bytes of ``[start, start + length)``: a zero-copy ``memoryview``
        when the range lies inside one segment, stitched ``bytes`` when it
        straddles a boundary."""
        self._check_range(start, length)
        if length == 0:
            return b""
        size = self.segment_bytes
        index, seg_offset = divmod(start, size)
        if seg_offset + length <= size:
            return memoryview(self._segments[index])[seg_offset : seg_offset + length]
        parts = []
        remaining = length
        while remaining > 0:
            take = min(size - seg_offset, remaining)
            buffer = self._segments[index]
            parts.append(bytes(buffer[seg_offset : seg_offset + take]))
            remaining -= take
            index += 1
            seg_offset = 0
        return b"".join(parts)

    def read(self, start: int, length: int) -> bytes:
        """Read ``length`` bytes at ``start`` (volatile tail included).

        Normal-execution code may read its own unflushed buffer; after a
        crash the tail no longer exists so all reads are durable ones.
        One copy total: a single-segment read materializes through one
        ``memoryview`` (the old monolithic store sliced the bytearray and
        then re-copied the slice — two copies per read).
        """
        data = self._gather(start, length)
        if isinstance(data, memoryview):
            return bytes(data)
        return data

    def view(self, start: int, length: int) -> memoryview:
        """Zero-copy read of ``[start, start + length)``.

        Within one segment the returned ``memoryview`` aliases the
        segment's buffer: while it (or any slice of it) is alive that
        buffer cannot grow, so callers must not hold a view across a
        point where an ``append`` can run — in practice, never across a
        simulation yield.  A range straddling a segment boundary is
        stitched into a private copy (the returned view then aliases
        nothing), which framing keeps rare: only a frame that happens to
        cross a boundary pays it.
        """
        data = self._gather(start, length)
        if isinstance(data, memoryview):
            return data
        return memoryview(data)

    def contiguous_end(self, offset: int) -> int:
        """End of the contiguous (single-segment) region holding ``offset``:
        the segment boundary or the store's end, whichever is nearer.
        Scans use it to walk the log in maximal zero-copy spans."""
        boundary = (offset // self.segment_bytes + 1) * self.segment_bytes
        return min(boundary, self._end)

    def read_durable(self, start: int, length: int) -> bytes:
        """Read from the durable prefix only (what recovery may rely on)."""
        if start + length > self._durable_end:
            raise StableStoreError(
                f"{self.name}: durable read [{start}, {start + length}) past "
                f"durable end {self._durable_end}"
            )
        return self.read(start, length)

    # -- truncation --------------------------------------------------------

    def truncate(self, upto: int) -> int:
        """Advance the truncation floor to ``upto`` and recycle every
        segment wholly below it.  Returns the number of segments recycled.

        Only durable space may be truncated (the floor is advanced to an
        *anchored* checkpoint's minimal LSN, which is durable by
        construction), and the floor is monotone — a stale ``upto`` is a
        no-op, never a regression.
        """
        if upto > self._durable_end:
            raise StableStoreError(
                f"{self.name}: cannot truncate volatile space "
                f"({upto} > durable end {self._durable_end})"
            )
        if upto <= self._floor:
            return 0
        self.truncated_bytes += upto - self._floor
        self._floor = upto
        first_live = upto // self.segment_bytes
        recycled = 0
        for index in [i for i in self._segments if i < first_live]:
            del self._segments[index]
            recycled += 1
        self.recycled_segments += recycled
        self._reset_tail()
        return recycled

    # -- the anchor block -------------------------------------------------

    def write_anchor(self, data: bytes) -> None:
        """Stage new anchor contents (volatile until :meth:`flush_anchor`)."""
        self._anchor_volatile = bytes(data)

    def flush_anchor(self) -> None:
        """Make the staged anchor durable (caller pays the disk write)."""
        if self._anchor_volatile is not None:
            self._anchor_durable = self._anchor_volatile
        for observer in self._observers:
            observer.anchor_flushed(self)

    def read_anchor(self) -> Optional[bytes]:
        """Return the durable anchor contents (``None`` if never flushed)."""
        return self._anchor_durable

    def rewind(self, boundary: int) -> None:
        """Discard everything past ``boundary`` — durable bytes included.

        Partitioned crash recovery's consistent cut can exclude a
        *durable* suffix: a record survives its own partition's flush
        while a cross-partition dependency is lost.  Excluded records
        must leave the disk too, not just the replay — a later recovery
        would otherwise rediscover them after the offsets their
        dependencies named have been reused by the new incarnation's
        appends, and accept them against aliased records.
        """
        if boundary > self._end:
            raise StableStoreError(
                f"{self.name}: cannot rewind past the end "
                f"({boundary} > {self._end})"
            )
        if boundary < self._floor:
            raise StableStoreError(
                f"{self.name}: cannot rewind below the truncation floor "
                f"({boundary} < {self._floor})"
            )
        self._drop_suffix(boundary)
        if self._durable_end > boundary:
            self._durable_end = boundary
        for observer in self._observers:
            observer.rewound(self, boundary)

    def _drop_suffix(self, boundary: int) -> None:
        """Free every byte at or past ``boundary`` and end the log there."""
        first_dead, keep = divmod(boundary, self.segment_bytes)
        for index in [i for i in self._segments if i > first_dead]:
            del self._segments[index]
        tail = self._segments.get(first_dead)
        if tail is not None:
            if keep == 0:
                del self._segments[first_dead]
            else:
                del tail[keep:]
        self._end = boundary
        self._reset_tail()

    # -- crashes ----------------------------------------------------------

    def crash(self) -> None:
        """Discard the volatile tail and any unflushed anchor staging.

        The truncation floor and the recycled segments are physical
        facts about the log — they survive a crash exactly like the
        durable prefix does.
        """
        self._drop_suffix(self._durable_end)
        self._anchor_volatile = self._anchor_durable
        self.crash_count += 1
