"""Crash-site tracing and deterministic crash injection.

The simulator's probe API (:meth:`repro.sim.Simulator.probe`) fires at
every instrumented crash site: log appends, flush boundaries, checkpoint
phases, message deliveries, thread spawns and recovery steps.  This
module provides the two probe listeners the explorer composes:

- :class:`TraceRecorder` — records every firing as a
  :class:`SiteEvent`, giving the *site trace* whose per-owner ordinals
  are the coordinate system crash schedules are expressed in;
- :class:`CrashInjector` — counts firings attributed to one target MSP
  and, at the scheduled ordinals, fail-stops that MSP (kill every
  thread, lose all volatile state) and spawns its restart.

Ordinals, not wall-clock times, identify crash points: the simulation is
deterministic, so "the k-th probe firing owned by msp2" names the same
instant in every run of the same seeded world — which is what makes a
``(seed, schedule)`` pair replayable byte-for-byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.sim import Simulator


@dataclass(frozen=True)
class SiteEvent:
    """One probe firing in a run's site trace."""

    #: Global 0-based position in the run's full trace.
    index: int
    #: Per-owner 0-based ordinal (the schedule coordinate).
    ordinal: int
    site: str
    owner: Optional[str]
    time: float


class TraceRecorder:
    """Probe listener that records the full site trace of a run."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        self.events: list[SiteEvent] = []
        self._per_owner: dict[Optional[str], int] = {}
        self._attached = False

    def attach(self) -> "TraceRecorder":
        if not self._attached:
            self.sim.add_probe_listener(self._on_probe)
            self._attached = True
        return self

    def detach(self) -> None:
        if self._attached:
            self.sim.remove_probe_listener(self._on_probe)
            self._attached = False

    def _on_probe(self, site: str, owner: Optional[str]) -> None:
        ordinal = self._per_owner.get(owner, 0)
        self._per_owner[owner] = ordinal + 1
        self.events.append(
            SiteEvent(
                index=len(self.events),
                ordinal=ordinal,
                site=site,
                owner=owner,
                time=self.sim.now,
            )
        )

    # -- summaries -------------------------------------------------------

    def count_for(self, owner: str) -> int:
        """Number of crash sites attributed to ``owner`` so far."""
        return self._per_owner.get(owner, 0)

    def site_histogram(self) -> dict[str, int]:
        histogram: dict[str, int] = {}
        for event in self.events:
            histogram[event.site] = histogram.get(event.site, 0) + 1
        return histogram

    def fingerprint(self) -> tuple[tuple[str, Optional[str], float], ...]:
        """Order-sensitive digest of the trace, for determinism checks."""
        return tuple((e.site, e.owner, e.time) for e in self.events)


class CrashInjector:
    """Probe listener that fail-stops one MSP at scheduled ordinals.

    ``kill_ordinals`` are per-owner ordinals (see :class:`SiteEvent`).
    A probe fires *inside* the victim's own executing process, where a
    synchronous kill is impossible (a generator cannot close itself), so
    the injector schedules the crash at the current simulated time: the
    fail-stop lands at the process's next suspension point — exactly the
    granularity at which a real fail-stop crash is observable.

    Counting continues across crashes, so ordinals landing inside the
    subsequent recovery express "crash again *during* recovery", and
    multi-element schedules compose arbitrarily many crashes.
    """

    def __init__(
        self,
        sim: Simulator,
        target: str,
        kill_ordinals,
        crash: Callable[[], None],
    ):
        self.sim = sim
        self.target = target
        self.kill_ordinals = frozenset(kill_ordinals)
        self._crash = crash
        self._count = 0
        self._crash_pending = False
        self.crashes_injected = 0
        self._attached = False

    def attach(self) -> "CrashInjector":
        if not self._attached:
            self.sim.add_probe_listener(self._on_probe)
            self._attached = True
        return self

    def detach(self) -> None:
        if self._attached:
            self.sim.remove_probe_listener(self._on_probe)
            self._attached = False

    def _on_probe(self, site: str, owner: Optional[str]) -> None:
        if owner != self.target:
            return
        ordinal = self._count
        self._count += 1
        if ordinal in self.kill_ordinals and not self._crash_pending:
            self._crash_pending = True
            self.sim.call_at(self.sim.now, self._do_crash)

    def _do_crash(self) -> None:
        self._crash_pending = False
        self.crashes_injected += 1
        self._crash()
