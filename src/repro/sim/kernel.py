"""Event loop, processes and events for the discrete-event simulator.

The kernel is deliberately small: a binary heap of timed callbacks plus a
generator-coroutine process abstraction.  A process is an ordinary Python
generator that *yields effects*:

- a number — sleep for that many simulated milliseconds;
- an :class:`Event` — suspend until the event is triggered; the ``yield``
  expression evaluates to the event's value (or raises its exception);
- another :class:`Process` — join it; the ``yield`` evaluates to its
  result (or re-raises its failure);
- ``None`` — relinquish control and resume at the same simulated time
  (after any already-scheduled work at that time).

Sub-routines compose with ``yield from``.

The scheduling contract (DESIGN.md §9, "Kernel fast path"): callbacks
run in ``(time, seq)`` order, where ``seq`` comes from one per-simulator
counter consumed once per :meth:`Simulator.call_at`, in call order — so
simultaneous callbacks run in the order they were scheduled and every
run is deterministic.  Heap entries are ``[time, seq, callback]`` lists
that ``heapq`` orders in C; ``seq`` is unique, so callbacks themselves
are never compared.  *Every* schedule — timers, process steps, event
wake-ups, network deliveries — goes through ``call_at``, which makes it
the one place to count, wrap or slow the kernel from outside.
``Simulator.steps`` counts callbacks run; cancelled entries are skipped
uncounted.  The one callback that skips ``call_at`` is a timed wake-up
that :meth:`Simulator.advance` proves is the very next callback the
running loop would take: it is taken in place, with the same ``seq``,
clock and ``steps`` it would have had (``Simulator.advanced`` counts
them).

Processes can be killed (used for crash injection).  A kill closes the
generator at once, so ``try/finally`` blocks run; finalizers must not
yield.  A wake-up already scheduled for the victim still runs, as a
no-op.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Generator, Optional

#: A time no clock reaches: "no bound" for the run loop.
_NEVER = float("inf")


class SimError(Exception):
    """Base class for simulator kernel errors."""


class ProcessKilled(SimError):
    """Raised when joining a process that was killed rather than finished."""


class SimTimeoutError(SimError):
    """Raised by :meth:`~repro.sim.resources.Store.get_with_timeout` when
    the deadline passes first."""


class _Handle(list):
    """A cancelable scheduled callback: the heap entry ``[time, seq, callback]``.

    Entries order as lists, so ``heapq`` compares them in C; ``seq`` is
    unique per simulator, so the comparison is decided by ``(time, seq)``
    and never reaches the callback.  A cancelled entry has no callback.
    """

    __slots__ = ()

    def cancel(self) -> None:
        """Prevent the callback from running (idempotent)."""
        self[2] = None


class Event:
    """A one-shot synchronization point carrying a value or an exception.

    Triggering is level-style: waiters registered after the trigger are
    resumed immediately.  Triggering twice is an error, which catches
    protocol bugs early.
    """

    __slots__ = ("_sim", "triggered", "_value", "_exception", "_waiters", "name")

    def __init__(self, sim: "Simulator", name: str = ""):
        self._sim = sim
        #: Whether the event has fired (set by ``trigger``/``fail`` only).
        self.triggered = False
        self._value: Any = None
        self._exception: Optional[BaseException] = None
        #: Processes suspended on this event, in arrival order.
        self._waiters: list["Process"] = []
        self.name = name

    @property
    def value(self) -> Any:
        if not self.triggered:
            raise SimError(f"event {self.name!r} not yet triggered")
        if self._exception is not None:
            raise self._exception
        return self._value

    def trigger(self, value: Any = None) -> None:
        """Fire the event with ``value``, waking all waiters."""
        if self.triggered:
            raise SimError(f"event {self.name!r} triggered twice")
        self.triggered = True
        self._value = value
        self._dispatch()

    def fail(self, exception: BaseException) -> None:
        """Fire the event with an exception; waiters will have it raised."""
        if self.triggered:
            raise SimError(f"event {self.name!r} triggered twice")
        self.triggered = True
        self._exception = exception
        self._dispatch()

    def _dispatch(self) -> None:
        waiters, self._waiters = self._waiters, []
        sim = self._sim
        for process in waiters:
            sim.call_at(sim.now, process._on_event)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "triggered" if self.triggered else "pending"
        return f"<Event {self.name!r} {state}>"


class Process:
    """A running coroutine inside the simulator.

    Created via :meth:`Simulator.spawn`.  Join by yielding the process
    object from another process, or inspect :attr:`done_event`.
    """

    __slots__ = (
        "sim",
        "name",
        "_gen",
        "done_event",
        "_result",
        "_failure",
        "_finished",
        "_killed",
        "_pending_handle",
        "_waiting_event",
        "_group",
    )

    def __init__(self, sim: "Simulator", gen: Generator, name: str):
        self.sim = sim
        self.name = name
        self._gen = gen
        self.done_event = Event(sim, name=f"done:{name}")
        self._result: Any = None
        self._failure: Optional[BaseException] = None
        self._finished = False
        self._killed = False
        self._pending_handle: Optional[_Handle] = None
        self._waiting_event: Optional[Event] = None
        self._group: Optional["ProcessGroup"] = None

    # -- introspection -------------------------------------------------

    @property
    def alive(self) -> bool:
        return not self._finished

    @property
    def killed(self) -> bool:
        return self._killed

    @property
    def result(self) -> Any:
        """The return value of the generator; raises if it failed."""
        if not self._finished:
            raise SimError(f"process {self.name!r} still running")
        if self._failure is not None:
            raise self._failure
        return self._result

    # -- lifecycle ------------------------------------------------------

    def kill(self) -> None:
        """Terminate the process immediately (crash injection).

        The generator is closed so ``finally`` blocks run *now*; they must
        not yield.  Joiners see :class:`ProcessKilled`.
        """
        if self._finished:
            return
        self._detach_waits()
        self._killed = True
        try:
            self._gen.close()
        finally:
            self._complete(failure=ProcessKilled(f"process {self.name!r} killed"))

    def _detach_waits(self) -> None:
        if self._pending_handle is not None:
            self._pending_handle.cancel()
            self._pending_handle = None
        if self._waiting_event is not None:
            try:
                self._waiting_event._waiters.remove(self)
            except ValueError:
                pass  # already fired: its dispatch will find us finished
            self._waiting_event = None

    def _complete(self, result: Any = None, failure: Optional[BaseException] = None) -> None:
        if self._finished:
            return
        self._finished = True
        self._result = result
        self._failure = failure
        if self._group is not None:
            self._group._discard(self)
        if failure is None:
            self.done_event.trigger(result)
        else:
            self.done_event.fail(failure)

    # -- stepping -------------------------------------------------------

    def _resume(self, value: Any = None, exc: Optional[BaseException] = None) -> None:
        """Advance the generator one step — sending ``value``, or throwing
        ``exc`` into it — and act on the effect it yields.  Timers run
        this bound method as their callback, with no arguments."""
        if self._finished:
            return
        self._pending_handle = None
        self._waiting_event = None
        try:
            effect = self._gen.send(value) if exc is None else self._gen.throw(exc)
        except StopIteration as stop:
            self._complete(result=stop.value)
            return
        except Exception as failure:  # noqa: BLE001 - propagate via join
            self._complete(failure=failure)
            return
        # Exact types first: nearly every effect is a delay or an event.
        kind = type(effect)
        if kind is Event:
            self._wait_on(effect)
        elif kind is float or kind is int or isinstance(effect, (int, float)):
            if effect >= 0:
                sim = self.sim
                self._pending_handle = sim.call_at(sim.now + float(effect), self._resume)
            else:  # negative, or NaN: it would corrupt the clock
                self._resume(exc=SimError(f"process {self.name!r} yielded bad delay {effect!r}"))
        elif effect is None:
            sim = self.sim
            self._pending_handle = sim.call_at(sim.now, self._resume)
        elif isinstance(effect, Event):
            self._wait_on(effect)
        elif isinstance(effect, Process):
            self._wait_on(effect.done_event)
        else:
            self._resume(exc=SimError(f"process {self.name!r} yielded bad effect {effect!r}"))

    def _wait_on(self, event: Event) -> None:
        self._waiting_event = event
        if event.triggered:
            sim = self.sim
            sim.call_at(sim.now, self._on_event)
        else:
            event._waiters.append(self)

    def _on_event(self) -> None:
        """The awaited event has fired: resume with its outcome.  A
        process killed since the trigger waits on nothing (a no-op)."""
        event = self._waiting_event
        if event is not None:
            self._resume(event._value, event._exception)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "finished" if self._finished else "running"
        return f"<Process {self.name!r} {state}>"


class ProcessGroup:
    """A set of processes that can be killed together (one MSP's 'threads')."""

    def __init__(self, name: str = ""):
        self.name = name
        # Insertion-ordered on purpose: Process objects hash by identity,
        # so a set here would make kill_all() iterate in memory-address
        # order — nondeterministic across runs and processes.  Crash
        # teardown must happen in spawn order for runs to be replayable.
        self._members: dict[Process, None] = {}

    def add(self, process: Process) -> Process:
        process._group = self
        self._members[process] = None
        return process

    def _discard(self, process: Process) -> None:
        self._members.pop(process, None)

    def kill_all(self) -> None:
        """Kill every live member.  Used to model a process crash."""
        for process in list(self._members):
            process.kill()

    def __len__(self) -> int:
        return len(self._members)


class Simulator:
    """The discrete-event loop: a clock plus a heap of timed callbacks."""

    def __init__(self) -> None:
        #: Current simulated time in milliseconds.  A plain attribute —
        #: every layer reads it on its hot path — that only the run loop
        #: writes.
        self.now = 0.0
        self._heap: list[_Handle] = []
        self._seq = itertools.count()
        self._process_count = itertools.count()
        #: Callbacks executed so far — the per-shard work measure the
        #: fleet harness reports (``fleet.shard<i>.steps``).
        self.steps = 0
        #: Of those, the wake-ups :meth:`advance` took in place.
        self.advanced = 0
        #: ``(until, limit, joined process)`` of the running ``run()`` or
        #: ``run_until_process()`` loop; no clock reaches ``until`` outside
        #: one (``step()`` sets none), so nothing advances in place there.
        self._bounds: tuple = (-_NEVER, _NEVER, None)
        self._probe_listeners: list[Callable[[str, Optional[str]], None]] = []
        #: Optional structured tracer (see :mod:`repro.trace`).  ``None``
        #: unless a harness attaches one; instrumentation sites guard
        #: with ``if sim.tracer is not None`` so the disabled cost is a
        #: single attribute load.  Typed loosely to keep the kernel free
        #: of higher-layer imports.
        self.tracer: Optional[object] = None

    # -- crash-site probes ----------------------------------------------

    def probe(self, site: str, owner: Optional[str] = None) -> None:
        """Announce that execution reached crash site ``site``.

        Probes are the instrumentation the crash-schedule explorer
        (:mod:`repro.fuzz`) enumerates and kills at: every log append,
        flush boundary, checkpoint phase, message delivery and recovery
        step calls ``sim.probe(...)`` with the owning MSP's name.  With
        no listener registered this is a near-free no-op, so production
        paths stay uninstrumented-cost.
        """
        if not self._probe_listeners:
            return
        for listener in tuple(self._probe_listeners):
            listener(site, owner)

    def add_probe_listener(
        self, listener: Callable[[str, Optional[str]], None]
    ) -> None:
        """Register ``listener(site, owner)`` for every probe firing."""
        self._probe_listeners.append(listener)

    def remove_probe_listener(
        self, listener: Callable[[str, Optional[str]], None]
    ) -> None:
        """Unregister a probe listener (idempotent)."""
        try:
            self._probe_listeners.remove(listener)
        except ValueError:
            pass

    # -- scheduling -----------------------------------------------------

    def call_at(self, time: float, callback: Callable[[], None]) -> _Handle:
        """Schedule ``callback`` to run at absolute simulated ``time``."""
        if not time >= self.now:  # also rejects NaN, which orders with nothing
            raise SimError(f"cannot schedule at {time}: the clock is at {self.now}")
        handle = _Handle((time, next(self._seq), callback))
        heapq.heappush(self._heap, handle)
        return handle

    def call_later(self, delay: float, callback: Callable[[], None]) -> _Handle:
        """Schedule ``callback`` to run ``delay`` ms from now."""
        return self.call_at(self.now + delay, callback)

    def advance(self, ms: float) -> bool:
        """Take in place the wake-up of a process that would now sleep
        ``ms``, if it is provably the next callback the running loop
        would run: consume its ``seq``, set the clock and count the step,
        as that loop would, and return True.  Otherwise change nothing
        and return False (the caller yields ``ms``).

        Provably next: no entry, live or cancelled, is due by then (such
        an entry, or one at the same time with an earlier ``seq``, would
        run first), and the enclosing ``run()``/``run_until_process()``
        would not stop before it — ``step()`` always stops, so its
        callers see every callback."""
        now = self.now
        end = now + ms
        heap = self._heap
        if heap and heap[0][0] <= end:
            return False
        until, limit, joined = self._bounds
        if not now <= end <= until or now > limit:  # ``not`` also rejects NaN
            return False
        if joined is not None and joined._finished:
            return False
        next(self._seq)
        self.now = end
        self.steps += 1
        self.advanced += 1
        return True

    def event(self, name: str = "") -> Event:
        """Create a fresh one-shot :class:`Event`."""
        return Event(self, name=name)

    # -- processes ------------------------------------------------------

    def spawn(
        self,
        gen: Generator,
        name: str = "",
        group: Optional[ProcessGroup] = None,
    ) -> Process:
        """Start a new process from generator ``gen``.

        The first step runs at the current simulated time, not inline, so
        spawning from within a process is race-free.
        """
        if not name:
            name = f"proc-{next(self._process_count)}"
        process = Process(self, gen, name)
        if group is not None:
            group.add(process)
            # A crash site: an MSP that just spawned a thread can die
            # before that thread ever runs.  Ungrouped (harness-level)
            # processes are not crash units and stay unprobed.
            self.probe("kernel.spawn", owner=group.name)
        self.call_at(self.now, process._resume)
        return process

    # -- running --------------------------------------------------------

    def _run(
        self,
        until: float = _NEVER,
        process: Optional[Process] = None,
        limit: float = _NEVER,
        budget: int = -1,
    ) -> int:
        """The one run loop: take the earliest entry; a cancelled one is
        dropped uncounted, any other advances the clock, is counted and
        called.  Stops when the heap drains, the earliest entry lies
        beyond ``until``, ``process`` has finished, the clock has passed
        ``limit`` or ``budget`` callbacks ran; returns how many ran."""
        heap = self._heap
        pop = heapq.heappop
        ran = 0
        while heap and ran != budget:
            if self.now > limit or (process is not None and process._finished):
                break
            entry = heap[0]
            if entry[0] > until:
                break
            pop(heap)
            callback = entry[2]
            if callback is None:
                continue
            self.now = entry[0]
            self.steps += 1
            ran += 1
            callback()
        return ran

    def step(self) -> bool:
        """Run the next scheduled callback.  Returns False when idle.
        It sets no bounds, so :meth:`advance` takes nothing in place."""
        return self._run(budget=1) == 1

    def _run_bounded(self, until: float, process: Optional[Process], limit: float) -> None:
        """``_run`` with :meth:`advance` allowed inside the same bounds."""
        outer = self._bounds
        self._bounds = (until, limit, process)
        try:
            self._run(until=until, process=process, limit=limit)
        finally:
            self._bounds = outer

    def run(self, until: Optional[float] = None) -> None:
        """Run until the event queue drains or the clock passes ``until``."""
        self._run_bounded(_NEVER if until is None else until, None, _NEVER)
        if until is not None:
            self.now = max(self.now, until)

    def run_process(self, gen: Generator, name: str = "") -> Any:
        """Spawn ``gen``, run the simulation to quiescence, return its result."""
        process = self.spawn(gen, name=name)
        self.run()
        return process.result

    def run_until_process(self, process: Process, limit: Optional[float] = None) -> None:
        """Run until ``process`` finishes (daemons would otherwise keep
        the loop alive forever).  ``limit`` bounds runaway simulations."""
        self._run_bounded(_NEVER, process, _NEVER if limit is None else limit)
