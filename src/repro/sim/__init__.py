"""Deterministic discrete-event simulation kernel.

This package is the substrate on which the reproduced middleware servers
run.  Real threads, sockets and disks are replaced by generator-coroutine
processes scheduled on a simulated clock, which makes every experiment in
the paper reproducible bit-for-bit from a seed while exercising the *real*
recovery logic (real log records, real dependency vectors, real replay).

Public surface:

- :class:`~repro.sim.kernel.Simulator` — the event loop and clock.
- :class:`~repro.sim.kernel.Process` — a spawned coroutine.
- :class:`~repro.sim.kernel.Event` — one-shot synchronization points.
- :class:`~repro.sim.kernel.ProcessGroup` — kill-together groups used for
  crash injection.
- :class:`~repro.sim.resources.Resource` — FIFO queued server (CPUs, disks).
- :class:`~repro.sim.resources.Store` — blocking FIFO queue (inboxes,
  request queues).
- :class:`~repro.sim.resources.RWLock` — reader/writer lock for shared
  variables.
- :mod:`~repro.sim.rng` — named deterministic random streams.
"""

from repro.sim.kernel import (
    Event,
    Process,
    ProcessGroup,
    ProcessKilled,
    SimTimeoutError,
    Simulator,
)
from repro.sim.resources import Resource, RWLock, Store, StoreClosed
from repro.sim.rng import RngRegistry

__all__ = [
    "Event",
    "Process",
    "ProcessGroup",
    "ProcessKilled",
    "Resource",
    "RngRegistry",
    "RWLock",
    "SimTimeoutError",
    "Simulator",
    "Store",
    "StoreClosed",
]
