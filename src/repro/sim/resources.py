"""Queued resources for the simulator: FIFO servers, stores and RW locks.

These model contended hardware and software resources: a CPU or a disk is
a :class:`Resource` (requests queue in FIFO order and are served with a
simulated service time chosen by the caller), an inbox or request queue is
a :class:`Store`, and shared-variable access locks are :class:`RWLock`.

All waiting primitives are generators used with ``yield from`` and are
kill-safe: a process killed while waiting simply disappears from the
queue (its ticket is cancelled by the ``finally`` block of the waiting
generator).
"""

from __future__ import annotations

import collections
from typing import Any, Optional

from repro.sim.kernel import Event, SimError, SimTimeoutError, Simulator


class StoreClosed(SimError):
    """Raised to getters when a :class:`Store` is closed."""


class _Ticket:
    """A cancellable waiting slot in a resource/lock/store queue.  Its
    event carries the owner's name: nothing is formatted per wait."""

    __slots__ = ("event", "cancelled")

    def __init__(self, event: Event):
        self.event = event
        self.cancelled = False


class Resource:
    """A FIFO server with fixed capacity (a CPU core pool, a disk).

    Usage::

        yield from resource.hold(service_time_ms)

    Utilization is tracked so experiments can report busy fractions
    (paper §5.5 reports CPU utilization).
    """

    def __init__(self, sim: Simulator, capacity: int = 1, name: str = ""):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.sim = sim
        self.name = name
        self.capacity = capacity
        self._in_use = 0
        self._queue: collections.deque[_Ticket] = collections.deque()
        self._busy_time = 0.0
        self._busy_since: Optional[float] = None

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def queue_length(self) -> int:
        return len(self._queue)

    def try_acquire(self) -> bool:
        """Take a slot if one is free, without waiting; ``False`` (and
        nothing taken) when all are busy.  Not a generator: the usual
        uncontended charge costs no ``acquire()`` generator."""
        if self._in_use < self.capacity:
            self._grant()
            return True
        return False

    def acquire(self):
        """Wait for a free slot (generator; use with ``yield from``)."""
        if self.try_acquire():
            return
        ticket = _Ticket(Event(self.sim, self.name))
        self._queue.append(ticket)
        consumed = False
        try:
            yield ticket.event
            consumed = True
        finally:
            if not ticket.event.triggered:
                ticket.cancelled = True
            elif not consumed:
                # Killed between the grant and resuming: hand the slot
                # on, or it would leak and deadlock the resource.
                self.release()

    def hold(self, ms: float):
        """Occupy a slot for ``ms`` of service time (generator; queues
        FIFO while every slot is busy).

        When the wake-up after ``ms`` is provably the next callback
        (:meth:`Simulator.advance`), the clock is advanced in place and
        the slot released without suspending.  Either way no suspension
        point lies between the grant and the ``try``, so a kill can
        never strand a held slot."""
        if not self.try_acquire():
            yield from self.acquire()
        if self.sim.advance(ms):
            self.release()
            return
        try:
            yield ms
        finally:
            self.release()

    def release(self) -> None:
        """Free one slot and hand it to the next waiter, if any."""
        if self._in_use <= 0:
            raise SimError(f"resource {self.name!r} released while free")
        self._in_use -= 1
        if self._in_use == 0 and self._busy_since is not None:
            self._busy_time += self.sim.now - self._busy_since
            self._busy_since = None
        while self._queue:
            ticket = self._queue.popleft()
            if ticket.cancelled:
                continue
            self._grant()
            ticket.event.trigger(None)
            break

    def _grant(self) -> None:
        if self._in_use == 0:
            self._busy_since = self.sim.now
        self._in_use += 1

    def utilization(self, since: float = 0.0) -> float:
        """Fraction of wall-clock time at least one slot was busy."""
        busy = self._busy_time
        if self._busy_since is not None:
            busy += self.sim.now - self._busy_since
        elapsed = self.sim.now - since
        if elapsed <= 0:
            return 0.0
        return min(1.0, busy / elapsed)


class Store:
    """An unbounded FIFO queue with blocking ``get`` (inboxes, work queues)."""

    def __init__(self, sim: Simulator, name: str = ""):
        self.sim = sim
        self.name = name
        self._items: collections.deque[Any] = collections.deque()
        self._getters: collections.deque[_Ticket] = collections.deque()
        self._closed = False

    def __len__(self) -> int:
        return len(self._items)

    @property
    def closed(self) -> bool:
        return self._closed

    def put(self, item: Any) -> None:
        """Append ``item``; wakes the longest-waiting getter, if any."""
        if self._closed:
            raise StoreClosed(f"store {self.name!r} is closed")
        while self._getters:
            ticket = self._getters.popleft()
            if ticket.cancelled:
                continue
            ticket.event.trigger(item)
            return
        self._items.append(item)

    def get(self):
        """Wait for and remove the oldest item (generator)."""
        if self._items:
            return self._items.popleft()
        if self._closed:
            raise StoreClosed(f"store {self.name!r} is closed")
        ticket = _Ticket(Event(self.sim, self.name))
        self._getters.append(ticket)
        consumed = False
        try:
            item = yield ticket.event
            consumed = True
        finally:
            if not ticket.event.triggered:
                ticket.cancelled = True
            elif not consumed and self._delivered(ticket):
                # Killed between delivery and resuming: put the item
                # back (or hand it straight to the next getter) so it is
                # not silently lost.
                self._requeue_front(ticket.event.value)
        return item

    def _requeue_front(self, item: Any) -> None:
        while self._getters:
            ticket = self._getters.popleft()
            if ticket.cancelled:
                continue
            ticket.event.trigger(item)
            return
        self._items.appendleft(item)

    def _delivered(self, ticket: _Ticket) -> bool:
        try:
            ticket.event.value
        except Exception:  # noqa: BLE001 - failed events carry no item
            return False
        return True

    def get_with_timeout(self, timeout: float):
        """Like :meth:`get`, but raises
        :class:`~repro.sim.kernel.SimTimeoutError` after ``timeout`` ms."""
        if self._items:
            return self._items.popleft()
        if self._closed:
            raise StoreClosed(f"store {self.name!r} is closed")
        ticket = _Ticket(Event(self.sim, self.name))
        self._getters.append(ticket)

        def expire() -> None:
            if not ticket.event.triggered:
                ticket.cancelled = True
                ticket.event.fail(SimTimeoutError(f"{self.name}: get timed out after {timeout} ms"))

        handle = self.sim.call_later(timeout, expire)
        consumed = False
        try:
            item = yield ticket.event
            consumed = True
        finally:
            handle.cancel()
            if not ticket.event.triggered:
                ticket.cancelled = True
            elif not consumed and self._delivered(ticket):
                self._requeue_front(ticket.event.value)
        return item

    def try_get(self) -> tuple[bool, Any]:
        """Non-blocking get: returns ``(True, item)`` or ``(False, None)``."""
        if self._items:
            return True, self._items.popleft()
        return False, None

    def close(self) -> None:
        """Reject future puts and fail all pending getters."""
        if self._closed:
            return
        self._closed = True
        while self._getters:
            ticket = self._getters.popleft()
            if not ticket.cancelled:
                ticket.event.fail(StoreClosed(f"store {self.name!r} closed"))

    def drain(self) -> list[Any]:
        """Remove and return all queued items (used at crash time)."""
        items = list(self._items)
        self._items.clear()
        return items


class RWLock:
    """A fair reader/writer lock for shared-variable access (paper §3.3).

    Readers share; writers are exclusive.  Fairness is FIFO between the
    reader and writer queues: a writer arriving before later readers is
    served first, matching the short access-duration locks of the paper
    (locks are released as soon as the access finishes, so no deadlocks).
    """

    def __init__(self, sim: Simulator, name: str = ""):
        self.sim = sim
        self.name = name
        self._readers = 0
        self._writer = False
        self._waiters: collections.deque[tuple[str, _Ticket]] = collections.deque()

    def acquire_read(self):
        """Take a shared lock (generator)."""
        if not self._writer and not self._waiters:
            self._readers += 1
            return
        ticket = _Ticket(Event(self.sim, self.name))
        self._waiters.append(("r", ticket))
        consumed = False
        try:
            yield ticket.event
            consumed = True
        finally:
            if not ticket.event.triggered:
                ticket.cancelled = True
            elif not consumed:
                self.release_read()  # granted but killed: hand it on

    def acquire_write(self):
        """Take an exclusive lock (generator)."""
        if not self._writer and self._readers == 0 and not self._waiters:
            self._writer = True
            return
        ticket = _Ticket(Event(self.sim, self.name))
        self._waiters.append(("w", ticket))
        consumed = False
        try:
            yield ticket.event
            consumed = True
        finally:
            if not ticket.event.triggered:
                ticket.cancelled = True
            elif not consumed:
                self.release_write()  # granted but killed: hand it on

    def release_read(self) -> None:
        if self._readers <= 0:
            raise SimError(f"rwlock {self.name!r}: release_read while unheld")
        self._readers -= 1
        self._wake()

    def release_write(self) -> None:
        if not self._writer:
            raise SimError(f"rwlock {self.name!r}: release_write while unheld")
        self._writer = False
        self._wake()

    def _wake(self) -> None:
        while self._waiters:
            kind, ticket = self._waiters[0]
            if ticket.cancelled:
                self._waiters.popleft()
                continue
            if kind == "w":
                if self._readers == 0 and not self._writer:
                    self._waiters.popleft()
                    self._writer = True
                    ticket.event.trigger(None)
                return
            # Grant a run of consecutive readers.
            if self._writer:
                return
            self._waiters.popleft()
            self._readers += 1
            ticket.event.trigger(None)
