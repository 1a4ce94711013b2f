"""How fast is the host right now?

The host this benchmark was written on changes speed by a fifth for
minutes at a time (other tenants), which no amount of repetition inside
a 30 s run averages out.  So every cycle also times a fixed piece of
interpreter work, shaped like the simulator's inner loop (a heap of
objects ordered by ``__lt__``, a dict, ``struct.pack``, a generator),
and a run divides its wall-clock floors by the floor of that work
(``cycles.floor_seconds``), measured over the same seconds.  Wall-clock
metrics are therefore in seconds of a host that runs ``REPS`` rounds of
the kernel in ``REFERENCE_S``.  Over 15 runs of ``fig14_steady`` that
included a slow spell, this took the run-to-run range of
``wall_req_per_s`` from 13.7% to 5.3%.
"""

from __future__ import annotations

import heapq
import struct
import time

#: Rounds per call; a cycle calls once before its first timed phase and
#: once after its last.
REPS = 10
#: Floor of two calls (20 rounds) on the host that wrote this, when quiet.
REFERENCE_S = 0.0955


class _Entry:
    __slots__ = ("time", "seq")

    def __init__(self, time: int, seq: int):
        self.time = time
        self.seq = seq

    def __lt__(self, other: "_Entry") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)


def _count(n: int):
    yield from range(n)


def _kernel() -> None:
    heap: list = []
    table = {}
    pack = struct.Struct(">IHQ").pack
    for i in range(2000):
        heapq.heappush(heap, _Entry((i * 7919) % 1000, i))
        table[i] = pack(i, i & 0xFFFF, i * 3)
    for i in _count(2000):
        heapq.heappop(heap)
        table.pop(i)


def calibrate() -> list[float]:
    """Seconds taken by each of ``REPS`` rounds of the kernel."""
    rounds = []
    for _ in range(REPS):
        started = time.perf_counter()
        _kernel()
        rounds.append(time.perf_counter() - started)
    return rounds
