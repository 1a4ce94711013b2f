"""Nodes, ports and links of the simulated network.

A :class:`Node` is a computer (client machine, web server hosting an
MSP, state server).  Software on a node *binds* named ports to
:class:`~repro.sim.resources.Store` inboxes; the network delivers
envelopes into the bound store after the link's latency plus the
payload's transmission time at the link bandwidth.

Delivery to an unbound port silently drops the envelope — this is what a
crashed server looks like from the outside, and it is precisely why the
paper's clients must resend requests until a reply arrives.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from functools import partial
from typing import Any, Callable, Optional

from repro.net.faults import RELIABLE, FaultModel, PartitionWindow
from repro.sim import RngRegistry, Simulator, Store

#: Default one-way propagation latency (ms).  Calibrated so that a
#: request/reply round trip between two MSPs costs ~3.6 ms (paper §5.2
#: measured 3.596 ms) once transmission and CPU costs are added.
DEFAULT_LATENCY_MS = 0.35

#: 100 Mbps Ethernet (paper Fig. 13) = 12_500 bytes per ms.
DEFAULT_BANDWIDTH_BYTES_PER_MS = 12_500.0


@dataclass
class Envelope:
    """One message in flight."""

    source: str
    destination: str
    port: str
    payload: Any
    size_bytes: int
    sent_at: float = 0.0
    delivered_at: float = 0.0
    #: The destination node's incarnation when this copy was sent; a
    #: delivery into a later incarnation (the process crashed and
    #: restarted in flight) is dropped — port *names* are reused across
    #: restarts, port *bindings* are not.
    dest_incarnation: int = 0


@dataclass(frozen=True)
class Link:
    """Directed link parameters between two nodes."""

    latency_ms: float = DEFAULT_LATENCY_MS
    bandwidth_bytes_per_ms: float = DEFAULT_BANDWIDTH_BYTES_PER_MS
    faults: FaultModel = RELIABLE


class Node:
    """A computer attached to the network."""

    def __init__(self, network: "Network", name: str):
        self.network = network
        self.name = name
        self._ports: dict[str, Store] = {}
        #: Bumped by :meth:`unbind_all` (process crash): envelopes sent
        #: toward an earlier incarnation are dropped at delivery even if
        #: a restarted process has re-bound the same port name.
        self.incarnation = 0

    def bind(self, port: str) -> Store:
        """Create (or return) the inbox store for ``port``."""
        store = self._ports.get(port)
        if store is None:
            store = Store(self.network.sim, name=f"{self.name}:{port}")
            self._ports[port] = store
        return store

    def unbind(self, port: str) -> None:
        """Remove a port; in-flight messages to it will be dropped."""
        self._ports.pop(port, None)

    def unbind_all(self) -> None:
        """Drop every port (used when the hosted process crashes).

        Also advances the node's incarnation: in-flight messages
        addressed to the pre-crash process must not land in a
        post-restart inbox that merely reuses the port name.
        """
        self._ports.clear()
        self.incarnation += 1

    def inbox(self, port: str) -> Optional[Store]:
        return self._ports.get(port)

    def send(self, destination: str, port: str, payload: Any, size_bytes: int) -> None:
        """Fire-and-forget send over the network."""
        self.network.send(self.name, destination, port, payload, size_bytes)


class Network:
    """The message fabric connecting all nodes."""

    def __init__(self, sim: Simulator, rng: Optional[RngRegistry] = None):
        self.sim = sim
        self._rng = rng or RngRegistry(0)
        self._nodes: dict[str, Node] = {}
        self._links: dict[tuple[str, str], Link] = {}
        self._default_link = Link()
        #: The fault-draw stream of each directed link used so far
        #: (``net:<source>-><destination>`` in the registry).
        self._link_streams: dict[tuple[str, str], random.Random] = {}
        #: Counters for experiment reporting — an honest ledger: every
        #: copy the fabric ever created is exactly one of delivered,
        #: dropped or still in flight, so
        #: ``sent + duplicated == delivered + dropped + in_flight``
        #: holds at every instant (see :meth:`ledger`).
        self.messages_sent = 0
        self.messages_delivered = 0
        self.messages_dropped = 0
        #: Extra copies created by duplication faults (a duplicated send
        #: is one ``sent`` plus N-1 ``duplicated`` copies).
        self.messages_duplicated = 0
        #: Copies created but not yet delivered or dropped.
        self.messages_in_flight = 0
        #: Why drops happened: ``fault`` (the link's delivery plan),
        #: ``unbound`` (no node, port unbound or inbox closed),
        #: ``stale`` (destination crashed and restarted in flight),
        #: ``partition`` (an active partition window severed the link).
        self.drops_by_reason = {"fault": 0, "unbound": 0, "stale": 0, "partition": 0}
        #: Scheduled partition windows (see :meth:`add_partition`).
        self.partitions: list[PartitionWindow] = []
        self.bytes_sent = 0
        #: Sharded-fleet hook (DESIGN.md §17): when set, a send whose
        #: destination has no local node is handed to the router as
        #: ``router(envelope, arrival_time)`` instead of being dropped.
        #: The router captures it for the epoch-barrier exchange; the
        #: destination shard re-injects it via :meth:`import_remote`.
        self.remote_router: Optional[Callable[[Envelope, float], None]] = None
        #: Barrier-synced incarnation knowledge for nodes hosted on other
        #: shards, used to stamp ``dest_incarnation`` on exported copies.
        #: Knowledge lags by one epoch; a message stamped with a stale
        #: incarnation is dropped at the destination exactly like a local
        #: cross-incarnation delivery.
        self.remote_incarnations: dict[str, int] = {}
        #: Copies handed to the remote router / injected by it.  Both
        #: stay 0 outside fleet runs, so the ledger balance degenerates
        #: to the historical ``sent + duplicated == delivered + dropped +
        #: in_flight`` form.
        self.messages_exported = 0
        self.messages_imported = 0

    # -- topology ---------------------------------------------------------

    def node(self, name: str) -> Node:
        """Create (or fetch) the node called ``name``."""
        existing = self._nodes.get(name)
        if existing is not None:
            return existing
        node = Node(self, name)
        self._nodes[name] = node
        return node

    def set_link(
        self,
        source: str,
        destination: str,
        latency_ms: float = DEFAULT_LATENCY_MS,
        bandwidth_bytes_per_ms: float = DEFAULT_BANDWIDTH_BYTES_PER_MS,
        faults: FaultModel = RELIABLE,
        symmetric: bool = True,
    ) -> None:
        """Configure the link between two nodes."""
        link = Link(latency_ms, bandwidth_bytes_per_ms, faults)
        self._links[(source, destination)] = link
        if symmetric:
            self._links[(destination, source)] = link

    def set_faults(self, nodes, faults: FaultModel) -> None:
        """Put ``faults`` on every configured link between two of
        ``nodes``, keeping its latency and bandwidth."""
        among = set(nodes)
        for (source, destination), link in list(self._links.items()):
            if source in among and destination in among:
                self._links[source, destination] = replace(link, faults=faults)

    def link(self, source: str, destination: str) -> Link:
        return self._links.get((source, destination), self._default_link)

    def add_partition(self, window: PartitionWindow) -> None:
        """Schedule a partition window (deterministic, RNG-free).

        In a sharded fleet every shard installs the same schedule from
        the spec, so a cross-shard send is blacked out at the *sender's*
        fabric before export — both shards agree on the window purely
        from simulated time.
        """
        self.partitions.append(window)

    def partition_severs(self, source: str, destination: str) -> bool:
        """True when an active window severs ``source -> destination`` now."""
        now = self.sim.now
        return any(w.severs(source, destination, now) for w in self.partitions)

    # -- transmission ------------------------------------------------------

    def send(self, source: str, destination: str, port: str, payload: Any, size_bytes: int) -> None:
        """Queue ``payload`` for delivery; applies link faults and timing."""
        link = self.link(source, destination)
        # Fault draws come from the sim's named RNG streams (one per
        # directed link), in the single order delivery_plan defines —
        # this is what makes fuzz replays reproduce delivery orders
        # exactly (see repro.net.faults module docstring).
        rng = self._link_streams.get((source, destination))
        if rng is None:
            rng = self._link_streams[source, destination] = self._rng.stream(
                f"net:{source}->{destination}"
            )
        self.messages_sent += 1
        self.bytes_sent += size_bytes

        extra_delays = link.faults.delivery_plan(rng)
        if self.partitions and self.partition_severs(source, destination):
            # The fault draws above ran regardless: partition windows
            # are RNG-free, so adding or removing one never shifts the
            # per-link streams and seeded replays of the surrounding
            # traffic stay byte-identical.  The whole planned delivery
            # (all copies) is blacked out as one dropped send.
            self._drop("partition")
            return
        if not extra_delays:
            self._drop("fault")
            return
        if len(extra_delays) > 1:
            self.messages_duplicated += len(extra_delays) - 1

        dest_node = self._nodes.get(destination)
        remote = dest_node is None and self.remote_router is not None
        if remote:
            dest_incarnation = self.remote_incarnations.get(destination, 0)
        else:
            dest_incarnation = dest_node.incarnation if dest_node is not None else 0
        sim = self.sim
        now = sim.now
        for extra in extra_delays:
            delay = (
                link.latency_ms
                + size_bytes / link.bandwidth_bytes_per_ms
                + extra
            )
            envelope = Envelope(
                source=source,
                destination=destination,
                port=port,
                payload=payload,
                size_bytes=size_bytes,
                sent_at=now,
                dest_incarnation=dest_incarnation,
            )
            if remote:
                # Cross-shard send: the fault draws above already came
                # from the sender's own stream (per-shard determinism);
                # the copy leaves this shard's ledger as "exported" and
                # becomes "imported + in_flight" on the destination shard
                # at the next epoch barrier.
                self.messages_exported += 1
                self.remote_router(envelope, now + delay)
                continue
            self.messages_in_flight += 1
            sim.call_at(now + delay, partial(self._deliver, envelope))

    def import_remote(self, envelope: Envelope, arrival_time: float) -> None:
        """Inject a copy exported by another shard's network.

        Called at an epoch barrier, strictly before the simulator has
        advanced past ``arrival_time`` (the barrier protocol guarantees
        cross-shard latency ≥ one epoch, so the arrival is never in this
        shard's past).  The copy joins this ledger as imported and in
        flight; delivery then follows the exact local path, including
        incarnation and unbound-port drops.
        """
        self.messages_imported += 1
        self.messages_in_flight += 1
        self.sim.call_at(arrival_time, partial(self._deliver, envelope))

    def _drop(self, reason: str) -> None:
        self.messages_dropped += 1
        self.drops_by_reason[reason] += 1

    def _deliver(self, envelope: Envelope) -> None:
        # A crash site: the destination process can die exactly as a
        # message reaches it (before any handler runs).  The probe fires
        # before any drop decision so fuzz crash-site ordinals do not
        # depend on delivery outcomes.
        self.sim.probe("net.deliver", owner=envelope.destination)
        self.messages_in_flight -= 1
        tracer = self.sim.tracer
        node = self._nodes.get(envelope.destination)
        if node is None:
            self._drop("unbound")
            return
        if node.incarnation != envelope.dest_incarnation:
            # Sent toward a process incarnation that crashed while the
            # message was in flight: the restarted process may have
            # re-bound the same port name, but this envelope is not for
            # it (cross-incarnation delivery bug).
            self._drop("stale")
            if tracer is not None:
                tracer.instant(
                    "net.stale-drop",
                    owner=envelope.destination,
                    port=envelope.port,
                    source=envelope.source,
                )
            return
        inbox = node.inbox(envelope.port)
        if inbox is None or inbox.closed:
            # Destination process is down (crashed or not yet started):
            # the message is lost, exactly like a TCP RST in production.
            self._drop("unbound")
            return
        envelope.delivered_at = self.sim.now
        self.messages_delivered += 1
        if tracer is not None:
            tracer.metrics.observe(
                "net.delivery_latency_ms", self.sim.now - envelope.sent_at
            )
        inbox.put(envelope)

    def ledger(self) -> dict:
        """The counter ledger (all values non-negative ints)."""
        return {
            "messages_sent": self.messages_sent,
            "messages_duplicated": self.messages_duplicated,
            "messages_delivered": self.messages_delivered,
            "messages_dropped": self.messages_dropped,
            "messages_in_flight": self.messages_in_flight,
            "dropped_fault": self.drops_by_reason["fault"],
            "dropped_unbound": self.drops_by_reason["unbound"],
            "dropped_stale": self.drops_by_reason["stale"],
            "dropped_partition": self.drops_by_reason["partition"],
            "messages_exported": self.messages_exported,
            "messages_imported": self.messages_imported,
            "bytes_sent": self.bytes_sent,
        }

    def check_ledger(self) -> None:
        """Raise if the counter ledger does not balance.

        Per shard, exported copies left this fabric and imported ones
        joined it, so the balance is ``sent + duplicated + imported ==
        delivered + dropped + in_flight + exported``; both new terms are
        0 outside fleet runs.
        """
        created = self.messages_sent + self.messages_duplicated + self.messages_imported
        accounted = (
            self.messages_delivered
            + self.messages_dropped
            + self.messages_in_flight
            + self.messages_exported
        )
        if created != accounted or self.messages_in_flight < 0:
            raise AssertionError(
                f"network ledger out of balance: sent {self.messages_sent} "
                f"+ duplicated {self.messages_duplicated} "
                f"+ imported {self.messages_imported} != delivered "
                f"{self.messages_delivered} + dropped {self.messages_dropped} "
                f"+ in_flight {self.messages_in_flight} "
                f"+ exported {self.messages_exported}"
            )
        if self.messages_dropped != sum(self.drops_by_reason.values()):
            raise AssertionError(
                f"drop reasons {self.drops_by_reason} do not sum to "
                f"messages_dropped {self.messages_dropped}"
            )

    def round_trip_ms(self, a: str, b: str, size_bytes: int = 100) -> float:
        """Analytic round-trip estimate (no queueing, no faults)."""
        there = self.link(a, b)
        back = self.link(b, a)
        return (
            there.latency_ms
            + size_bytes / there.bandwidth_bytes_per_ms
            + back.latency_ms
            + size_bytes / back.bandwidth_bytes_per_ms
        )
