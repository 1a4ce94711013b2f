"""One fleet shard: a full simulator hosting whole service domains.

A shard owns every MSP of the domains placed on it, plus the end
clients of the sessions homed there.  All optimistic machinery —
DV-tagged intra-domain messages, distributed-flush legs, recovery
announcements — is intra-shard by construction (whole domains per
shard); only pessimistic cross-domain requests and replies cross the
shard boundary, through the network's ``remote_router`` hook, and are
re-injected by the destination shard at the next epoch barrier.

Everything a shard computes is a pure function of (spec, shard index,
barrier inputs), which is what makes the fleet byte-identical at any
``--jobs`` value.
"""

from __future__ import annotations

from dataclasses import asdict
from types import SimpleNamespace

from repro.core.client import EndClient
from repro.core.config import RecoveryConfig, same_named
from repro.core.msp import MiddlewareServer
from repro.core.session import SessionStatus
from repro.core.standby import WarmStandby
from repro.fleet.topology import FleetSpec, FleetTopology
from repro.fleet.traffic import decode_hops, encode_hops, generate_session_plans
from repro.net import Network
from repro.net.network import DEFAULT_LATENCY_MS
from repro.sim import Resource, RngRegistry, Simulator

#: Client→home-MSP one-way latency (same LAN figure the paper workload
#: uses for its clients).
CLIENT_LATENCY_MS = 1.35

#: Business-logic CPU per chain hop.
CHAIN_COMPUTE_MS = 0.25

#: Arrivals are shifted this far into the run so the very first
#: sessions do not race the MSPs' cold boot.
BOOT_GRACE_MS = 50.0

#: ``FleetShard.run`` checks for completion only every this many
#: kernel steps; fuzz worlds step a lot.
_SETTLE_CHECK_STRIDE = 256

#: Client resend timeout of every fleet session.
RESEND_TIMEOUT_MS = 400.0

#: Failure-detection / takeover delay a disaster failover pays before
#: the standby starts recovering.
STANDBY_TAKEOVER_MS = 5.0

#: Recovery settings every fleet MSP runs with, on top of the ones
#: ``FleetSpec`` carries: 2 ms group commit, and server-side idle-session
#: expiry (bounded-memory truncation: the implicit inter-MSP sessions
#: chains open are never client-ended, and expired sessions stop
#: pinning the log truncation floor).
FLEET_RECOVERY = {
    "batch_flush_timeout_ms": 2.0,
    "session_idle_timeout_ms": 30_000.0,
}


def _incr8(value: bytes) -> bytes:
    return (int.from_bytes(value, "big") + 1).to_bytes(8, "big")


def msp_settled(msp: MiddlewareServer) -> bool:
    """Serving, no recovery pending and every session ``NORMAL``.

    Recovery opens for business before its session replays finish
    (paper §4.3), so ``running`` alone is not settled.
    """
    return (
        msp.running
        and not msp.recovery_pending()
        and all(s.status is SessionStatus.NORMAL for s in msp.sessions.values())
    )


def chain_service(ctx, argument):
    """The fleet's service method: count a hit, walk the chain suffix.

    The remaining hops ride in the argument, so command-logging replay
    re-executes the identical chain.  The hit counter is an atomic RMW
    whose return value is never exposed — the exactly-once oracle sums
    it per MSP at the end of the run.
    """
    yield from ctx.compute(CHAIN_COMPUTE_MS)
    yield from ctx.update_shared("hits", _incr8)
    hops = decode_hops(argument)
    if hops:
        yield from ctx.call(hops[0], "chain", encode_hops(hops[1:]))
    return b"ok"


class FleetShard:
    """One shard's world plus its epoch-barrier surface.

    A one-shard fleet is also a crash-explorer world (DESIGN.md §10):
    ``msps``, :meth:`run` and :meth:`violations` are that surface.
    """

    def __init__(self, spec: FleetSpec, index: int):
        self.spec = spec
        self.index = index
        self.topology = FleetTopology(spec)
        self.sim = Simulator()
        self.rng = RngRegistry(spec.seed)
        self.network = Network(self.sim, self.rng)
        self.network.remote_router = self._export
        self._outbox: list[tuple[int, float, int, object]] = []
        self._export_seq = 0

        self.local_names = self.topology.local_msps(index)
        local = set(self.local_names)
        self.msps: dict[str, MiddlewareServer] = {}
        for name in self.local_names:
            msp = MiddlewareServer(
                self.sim,
                self.network,
                name,
                domains=self.topology.domains,
                config=RecoveryConfig(
                    **FLEET_RECOVERY, **same_named(RecoveryConfig, spec)
                ),
                rng=self.rng,
            )
            msp.register_service("chain", chain_service)
            msp.register_shared("hits", (0).to_bytes(8, "big"))
            self.msps[name] = msp

        # Links: intra-domain pairs keep the LAN default; anything that
        # crosses a domain boundary is a WAN link at cross_latency_ms —
        # which is also what makes the epoch barrier sound (latency >=
        # epoch length).  Only outgoing halves are set here; the reverse
        # direction is configured by the shard that owns the peer.
        for name in self.local_names:
            d = self.topology.domain_index(name)
            for other in self.topology.msp_names:
                if other == name:
                    continue
                cross = self.topology.domain_index(other) != d
                self.network.set_link(
                    name,
                    other,
                    latency_ms=spec.cross_latency_ms if cross else DEFAULT_LATENCY_MS,
                    symmetric=False,
                )

        # One client machine per local MSP; its CPU is effectively
        # unbounded so the open-loop generator never throttles itself.
        self.clients: dict[str, EndClient] = {}
        for name in self.local_names:
            client = EndClient(
                self.sim,
                self.network,
                f"c.{name}",
                resend_timeout_ms=RESEND_TIMEOUT_MS,
            )
            client.cpu = Resource(self.sim, capacity=1 << 20, name=f"cpu.c.{name}")
            self.network.set_link(f"c.{name}", name, latency_ms=CLIENT_LATENCY_MS)
            self.clients[name] = client

        # Scenario fault machinery: every shard installs the *identical*
        # partition schedule (windows are RNG-free pure functions of
        # simulated time, so sender-side blackout decisions agree across
        # shards), and warm standbys attach before the first boot so the
        # shipped prefix tracks the durable prefix from byte zero.
        for window in self.topology.partition_windows():
            self.network.add_partition(window)
        self.standbys: dict[str, WarmStandby] = {}
        if spec.warm_standby:
            self.standbys = {
                name: WarmStandby(self.msps[name]) for name in self.local_names
            }
        self.standby_violations: list[str] = []
        #: Completed reopenings after a fault: ``{"msp", "kind", "at_ms",
        #: "duration_ms"}`` with kind ``restart`` (crash plan) or
        #: ``failover`` (disaster promotion) — the raw samples behind
        #: the scenario report's recovery-time distributions.
        self.recovery_events: list[dict] = []

        for msp in self.msps.values():
            msp.start_process()

        # Open-loop drivers: every shard generates the full fleet plan
        # deterministically and schedules only its local sessions.
        self.expected_sessions = 0
        self.completed_sessions = 0
        self.completed_calls = 0
        self.call_errors = 0
        self.cross_domain_calls = 0
        self.expected_hits: dict[str, int] = {m: 0 for m in self.topology.msp_names}
        #: Every completed call's response time, in completion order;
        #: the runner merges all shards' lists into exact quantiles.
        self.latencies_ms: list[float] = []
        self.latency_total_ms = 0.0
        traffic_rng = self.rng.stream("fleet.traffic")
        for plan in generate_session_plans(self.topology, traffic_rng):
            if plan.home not in local:
                continue
            self.expected_sessions += 1
            self.sim.call_at(
                plan.arrival_ms + BOOT_GRACE_MS,
                lambda p=plan: self.sim.spawn(
                    self._session_driver(p), name=f"driver.{p.session_id}"
                ),
            )

        self._last_crash_ms = 0.0
        for when, target in spec.crash_plan:
            self._last_crash_ms = max(self._last_crash_ms, when)
            if target in local:
                self.sim.call_at(
                    when, lambda m=self.msps[target]: self._crash_restart(m)
                )
        # Whole-domain loss: domains never straddle shards, so every MSP
        # a disaster destroys is local to exactly one shard.
        for when, domain in spec.disaster_plan:
            self._last_crash_ms = max(self._last_crash_ms, when)
            for target in self.topology.domain_members(domain):
                if target in local:
                    self.sim.call_at(
                        when, lambda m=self.msps[target]: self._disaster(m)
                    )

    def _crash_restart(self, msp: MiddlewareServer) -> None:
        struck_at = self.sim.now
        msp.crash()
        msp.restart_process()
        self._watch_reopen(msp, struck_at, "restart")

    def _disaster(self, msp: MiddlewareServer) -> None:
        """Destroy one MSP *with its storage*; fail over to its standby.

        The standby verifies its shipped prefix byte-for-byte against
        the primary's post-crash durable log before promoting; a
        divergence is recorded as a violation and the run falls back to
        an ordinary restart so it can still settle.
        """
        struck_at = self.sim.now
        msp.crash()
        standby = self.standbys[msp.name]
        try:
            standby.failover_process(takeover_delay_ms=STANDBY_TAKEOVER_MS)
        except RuntimeError as exc:
            self.standby_violations.append(str(exc))
            msp.restart_process()
        self._watch_reopen(msp, struck_at, "failover")

    def _watch_reopen(self, msp: MiddlewareServer, since: float, kind: str) -> None:
        """Record fault-to-open time once ``msp`` serves again.

        Lives outside the MSP's process group on purpose: a second crash
        mid-recovery must not kill the watcher — the sample then spans
        fault to *final* reopen, which is the recovery time a client
        actually experienced.
        """

        def monitor():
            while not msp.running:
                yield 1.0
            self.recovery_events.append(
                {
                    "msp": msp.name,
                    "kind": kind,
                    "at_ms": round(since, 6),
                    "duration_ms": round(self.sim.now - since, 6),
                }
            )

        self.sim.spawn(monitor(), name=f"watch.{kind}.{msp.name}.{since:.0f}")

    # -- drivers -----------------------------------------------------------

    def _session_driver(self, plan):
        session = self.clients[plan.home].open_session(
            plan.home, session_id=plan.session_id
        )
        home_domain = self.topology.domain_index(plan.home)
        for hops in plan.calls:
            result = yield from session.call("chain", encode_hops(hops))
            if result.error:
                self.call_errors += 1
            else:
                self.expected_hits[plan.home] += 1
                here_domain = home_domain
                for hop in hops:
                    self.expected_hits[hop] += 1
                    hop_domain = self.topology.domain_index(hop)
                    if hop_domain != here_domain:
                        self.cross_domain_calls += 1
                    here_domain = hop_domain
            self.completed_calls += 1
            self._observe_latency(result.response_time_ms)
            if self.spec.think_ms > 0:
                yield self.spec.think_ms
        yield from session.end()
        self.completed_sessions += 1

    def _observe_latency(self, ms: float) -> None:
        self.latencies_ms.append(ms)
        self.latency_total_ms += ms

    # -- the epoch-barrier surface ----------------------------------------

    def _export(self, envelope, arrival_time: float) -> None:
        dest_shard = self.topology.shard_of(envelope.destination)
        self._outbox.append((dest_shard, arrival_time, self._export_seq, envelope))
        self._export_seq += 1

    def run_until(self, barrier_ms: float) -> None:
        """Advance the local simulator to the barrier time."""
        tracer = self.sim.tracer
        if tracer is not None:
            span = tracer.span(
                "fleet.shard.epoch", owner=f"shard{self.index}", until=barrier_ms
            )
            self.sim.run(until=barrier_ms)
            span.end(steps=self.sim.steps)
        else:
            self.sim.run(until=barrier_ms)

    def take_outbox(self) -> list[tuple[int, float, int, object]]:
        outbox, self._outbox = self._outbox, []
        return outbox

    def inject(self, inbound: list[tuple[float, object]]) -> None:
        """Deliver envelopes exported by other shards, in the canonical
        order the coordinator merged them into."""
        tracer = self.sim.tracer
        span = None
        if tracer is not None and inbound:
            span = tracer.span(
                "fleet.barrier",
                owner=f"shard{self.index}",
                inbound=len(inbound),
            )
        now = self.sim.now
        for arrival, envelope in inbound:
            self.network.import_remote(envelope, max(arrival, now))
        if span is not None:
            span.end()

    def incarnations(self) -> dict[str, int]:
        return {name: self.msps[name].node.incarnation for name in self.local_names}

    def update_incarnations(self, fleet_map: dict[str, int]) -> None:
        self.network.remote_incarnations.update(fleet_map)

    def settled(self) -> bool:
        """Nothing left to do locally: all sessions done, no messages in
        flight, every MSP open, no recovery pending."""
        if self.completed_sessions != self.expected_sessions:
            return False
        if self.network.messages_in_flight != 0 or self._outbox:
            return False
        if self.sim.now <= self._last_crash_ms:
            return False
        return all(msp_settled(msp) for msp in self.msps.values())

    # -- the crash explorer's world surface --------------------------------

    def run(self, limit_ms: float) -> SimpleNamespace:
        """Run a one-shard fleet alone until every session completed
        (or the budget expires)."""
        sim = self.sim
        while sim.now < limit_ms:
            if self.completed_sessions == self.expected_sessions:
                break
            advanced = False
            for _ in range(_SETTLE_CHECK_STRIDE):
                if not sim.step():
                    break
                advanced = True
            if not advanced:
                break
        return SimpleNamespace(
            completed_requests=self.completed_calls, elapsed_ms=sim.now
        )

    def violations(self) -> list[str]:
        """The fleet's own oracle: every session finished, every
        completed call hit its whole chain exactly once (hops that
        crossed a domain boundary included), and the domain-isolation
        invariants of :meth:`check_invariants` hold."""
        violations: list[str] = []
        if self.completed_sessions != self.expected_sessions:
            violations.append(
                f"liveness: fleet completed {self.completed_sessions}/"
                f"{self.expected_sessions} sessions"
            )
        if self.call_errors:
            violations.append(
                f"liveness: {self.call_errors} fleet call(s) returned an error"
            )
        hits = self.actual_hits()
        for name in self.local_names:
            if not self.msps[name].running:
                continue  # check_running reports it; its counter is gone
            expected = self.expected_hits.get(name, 0)
            if hits[name] != expected:
                violations.append(
                    f"exactly-once: {name} counted {hits[name]} hits, "
                    f"client oracle expected {expected}"
                )
        return violations + self.check_invariants()

    # -- results -----------------------------------------------------------

    def actual_hits(self) -> dict[str, int]:
        """Each local MSP's hit counter as it stands now."""
        hits = {}
        for name in self.local_names:
            sv = self.msps[name].shared.get("hits")
            hits[name] = int.from_bytes(sv.value, "big") if sv is not None else 0
        return hits

    def check_invariants(self) -> list[str]:
        """Domain-isolation invariants (DESIGN.md §17, fuzz satellite):
        DVs and recovery knowledge must never leak past a domain
        boundary."""
        violations: list[str] = []
        for name in self.local_names:
            msp = self.msps[name]
            domain = self.topology.domains.domain_of(name) or frozenset({name})
            for session in msp.sessions.values():
                leaked = sorted(set(session.dv.msps()) - domain)
                if leaked:
                    violations.append(
                        f"{name}: session {session.id} DV crosses the domain "
                        f"boundary to {', '.join(leaked)}"
                    )
            known = sorted(set(msp.table.snapshot()) - domain)
            if known:
                violations.append(
                    f"{name}: recovery knowledge about {', '.join(known)} "
                    "leaked across the domain boundary"
                )
        violations.extend(self.standby_violations)
        # End-of-run shipping audit: every standby that never promoted
        # must still hold the primary's exact durable prefix.  Promoted
        # standbys are skipped — after the swap the mirror *is* the
        # primary store, and comparing it against itself would flag the
        # new unshipped tail as divergence.
        for name in self.local_names:
            standby = self.standbys.get(name)
            if standby is None or standby.promoted:
                continue
            for problem in standby.verify_against_primary():
                violations.append(f"standby audit: {problem}")
        return violations

    def finalize(self) -> dict:
        """Deterministic per-shard result (canonical key order)."""
        # Run the invariant sweep (including the standby shipping audit)
        # first so its verification counters land in the stats below.
        violations = self.check_invariants()
        log_stats = {}
        for name in self.local_names:
            msp = self.msps[name]
            log_stats[name] = {
                "live_bytes": sum(s.live_bytes for s in msp.stores),
                "recycled_segments": sum(s.recycled_segments for s in msp.stores),
            }
        client_stats = {
            name: {
                "calls": c.stats.calls,
                "resends": c.stats.resends,
                "busy_retries": c.stats.busy_retries,
                "duplicate_replies": c.stats.duplicate_replies,
            }
            for name, c in sorted(self.clients.items())
        }
        return {
            "shard": self.index,
            "msps": list(self.local_names),
            "steps": self.sim.steps,
            "sim_now_ms": self.sim.now,
            "expected_sessions": self.expected_sessions,
            "completed_sessions": self.completed_sessions,
            "completed_calls": self.completed_calls,
            "call_errors": self.call_errors,
            "cross_domain_calls": self.cross_domain_calls,
            "expected_hits": {
                m: n for m, n in sorted(self.expected_hits.items()) if n
            },
            "actual_hits": self.actual_hits(),
            # ``samples_ms`` travels to the runner only: it pops the
            # list before the result is serialised.
            "latency": {
                "samples_ms": list(self.latencies_ms),
                "total_ms": round(self.latency_total_ms, 6),
            },
            # Nonzero counters only: a missing one is 0, so a counter
            # that stays 0 moves no fingerprint.
            "msp_stats": {
                name: {k: v for k, v in asdict(self.msps[name].stats).items() if v}
                for name in self.local_names
            },
            "log": log_stats,
            "clients": client_stats,
            "recovery_events": sorted(
                self.recovery_events,
                key=lambda e: (e["at_ms"], e["msp"], e["kind"]),
            ),
            "standby": {
                name: {
                    "shipments": sb.stats.shipments,
                    "shipped_bytes": sb.stats.shipped_bytes,
                    "anchor_shipments": sb.stats.anchor_shipments,
                    "rewinds": sb.stats.rewinds,
                    "failovers": sb.stats.failovers,
                    "verifications": sb.stats.verifications,
                    "promoted": sb.promoted,
                }
                for name, sb in sorted(self.standbys.items())
            },
            "ledger": self.network.ledger(),
            "violations": violations,
        }
