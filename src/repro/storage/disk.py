"""Disk timing model and queued disk device.

The model follows the paper's §5.2 analysis of its 7200 RPM disks::

    T_flush(n) = rotation/2  +  n/63 * rotation  +  n/63 * t2t_seek

with ``rotation = 60000/7200 ms`` and 63 sectors per track, plus an
*occasional* full random seek caused by the operating system also using
the disk ("the actual flush time is slightly more than 4.5 ms, but much
less than 15 ms ... we crudely estimate TF2 to be 8 ms (= 4.5 + 10.5/3)").
We model the occasional seek as a Bernoulli event with probability 1/3
per write (matching the paper's 10.5/3 amortization) drawn from a seeded
stream, so both the mean and the spread are realistic while every run is
reproducible.

Sequential recovery reads follow the paper's read formula (no random
seek interference: "log reads during recovery are larger and more
efficient than log flushes").
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Optional

from repro.sim import Resource, Simulator

SECTOR_BYTES = 512


@dataclass(frozen=True)
class DiskModel:
    """Timing parameters of a disk (defaults: the paper's Fig. 13 disk)."""

    rpm: float = 7200.0
    sectors_per_track: int = 63
    #: Average random seek time (ms) — write / read (paper: 10.5 / 9.5).
    random_seek_write_ms: float = 10.5
    random_seek_read_ms: float = 9.5
    #: Track-to-track seek time (ms) — write / read (paper: 1.2 / 1.0).
    track_seek_write_ms: float = 1.2
    track_seek_read_ms: float = 1.0
    #: Probability a write incurs a random seek because the OS moved the
    #: arm (paper amortizes this as 10.5/3 per flush, i.e. p = 1/3).
    os_interference_prob: float = 1.0 / 3.0

    @property
    def rotation_ms(self) -> float:
        """Time for one full platter rotation in ms."""
        return 60000.0 / self.rpm

    @property
    def avg_rotational_latency_ms(self) -> float:
        return self.rotation_ms / 2.0

    def transfer_ms(self, sectors: int) -> float:
        """Media transfer time for ``sectors`` contiguous sectors."""
        return sectors / self.sectors_per_track * self.rotation_ms

    def write_time_ms(self, sectors: int, with_random_seek: bool) -> float:
        """Service time for a log flush of ``sectors`` sectors."""
        time = (
            self.avg_rotational_latency_ms
            + self.transfer_ms(sectors)
            + sectors / self.sectors_per_track * self.track_seek_write_ms
        )
        if with_random_seek:
            time += self.random_seek_write_ms
        return time

    def read_time_ms(self, sectors: int, sequential: bool = True) -> float:
        """Service time for a read of ``sectors`` sectors.

        Sequential reads (the recovery log scan) pay rotational latency +
        transfer + track seeks; random reads also pay a full random seek.
        """
        time = (
            self.avg_rotational_latency_ms
            + self.transfer_ms(sectors)
            + sectors / self.sectors_per_track * self.track_seek_read_ms
        )
        if not sequential:
            time += self.random_seek_read_ms
        return time

    def expected_write_time_ms(self, sectors: int) -> float:
        """Mean flush time including amortized OS interference.

        For 2 sectors this evaluates to ~7.97 ms, matching the paper's
        crude TF2 estimate of 8 ms.
        """
        return (
            self.write_time_ms(sectors, with_random_seek=False)
            + self.os_interference_prob * self.random_seek_write_ms
        )


@dataclass
class DiskStats:
    """Operation counters a :class:`Disk` maintains."""

    writes: int = 0
    reads: int = 0
    sectors_written: int = 0
    sectors_read: int = 0
    #: Whole-segment recycles by log truncation: a metadata operation
    #: (the space is simply reused for future writes), so trims count
    #: reclaimed sectors but consume no device time.
    trims: int = 0
    sectors_trimmed: int = 0
    busy_ms: float = 0.0

    def snapshot(self) -> "DiskStats":
        return DiskStats(
            writes=self.writes,
            reads=self.reads,
            sectors_written=self.sectors_written,
            sectors_read=self.sectors_read,
            trims=self.trims,
            sectors_trimmed=self.sectors_trimmed,
            busy_ms=self.busy_ms,
        )


class Disk:
    """A disk device: the timing model behind a FIFO queue.

    Concurrent requests (e.g. several sessions' batch flushes plus the
    Psession DB's WAL on a shared controller) serialize here, which is
    what makes the disk the bottleneck in the multi-client experiment
    (paper Fig. 17).
    """

    def __init__(
        self,
        sim: Simulator,
        model: Optional[DiskModel] = None,
        rng: Optional[random.Random] = None,
        name: str = "disk",
    ):
        self.sim = sim
        self.model = model or DiskModel()
        self.name = name
        self._rng = rng or random.Random(0)
        self._queue = Resource(sim, capacity=1, name=name)
        self.stats = DiskStats()

    def write(self, sectors: int):
        """Write ``sectors`` sectors (generator; returns service ms)."""
        if sectors <= 0:
            raise ValueError("sectors must be positive")
        interfered = self._rng.random() < self.model.os_interference_prob
        service = self.model.write_time_ms(sectors, with_random_seek=interfered)
        yield from self._serve(service)
        self.stats.writes += 1
        self.stats.sectors_written += sectors
        return service

    def write_bytes(self, nbytes: int):
        """Write ``nbytes`` rounded up to whole sectors (generator)."""
        sectors = max(1, math.ceil(nbytes / SECTOR_BYTES))
        service = yield from self.write(sectors)
        return service

    def read(self, sectors: int, sequential: bool = True):
        """Read ``sectors`` sectors (generator; returns service ms)."""
        if sectors <= 0:
            raise ValueError("sectors must be positive")
        service = self.model.read_time_ms(sectors, sequential=sequential)
        yield from self._serve(service)
        self.stats.reads += 1
        self.stats.sectors_read += sectors
        return service

    def read_bytes(self, nbytes: int, sequential: bool = True):
        """Read ``nbytes`` rounded up to whole sectors (generator)."""
        sectors = max(1, math.ceil(nbytes / SECTOR_BYTES))
        service = yield from self.read(sectors, sequential=sequential)
        return service

    def trim(self, nbytes: int) -> None:
        """Account ``nbytes`` of reclaimed log space (not a generator).

        Recycling a log segment rewinds an allocation pointer; no
        platter time is spent, which is exactly why checkpoint-driven
        truncation is free at the device while bounding log space.
        """
        if nbytes <= 0:
            return
        self.stats.trims += 1
        self.stats.sectors_trimmed += math.ceil(nbytes / SECTOR_BYTES)

    def _serve(self, service_ms: float):
        yield from self._queue.hold(service_ms)
        self.stats.busy_ms += service_ms

    def utilization(self, since: float = 0.0) -> float:
        """Fraction of time the device was busy since ``since``."""
        return self._queue.utilization(since=since)
