"""Fleet topology: MSP naming, service domains, shard placement.

The shape rules (DESIGN.md §17):

- MSPs are named ``m000..mNNN`` and assigned to service domains round
  robin (``domain_of(m_i) = i mod domains``) unless the spec pins an
  explicit ``domain_layout``.
- Whole domains are placed on one shard (``shard_of(domain d) = d mod
  shards``), so every *optimistic* message — DV-tagged intra-domain
  requests, distributed-flush legs, recovery announcements — stays
  inside one simulator.  Only pessimistic cross-domain traffic crosses
  shards.
- The shard count is part of the spec, like ``log_partitions``: it
  defines the simulated semantics.  ``--jobs`` only chooses how many
  shards execute concurrently and never changes results.

Validation happens at construction: unknown MSP names in the domain
layout or the crash plan, non-disjoint layouts, epoch lengths longer
than the cross-shard latency, and illegal recovery/logging modes or
partition counts are all rejected before any simulator is built.
"""

from __future__ import annotations

from dataclasses import dataclass, field, asdict
from typing import Optional

from repro.core.config import RecoveryConfig
from repro.core.domain import ServiceDomainConfig


@dataclass(frozen=True)
class FleetSpec:
    """Everything that defines one fleet run (picklable, hashable-ish).

    Two runs with equal specs produce byte-identical results at any
    ``--jobs`` value — the spec is the complete seed of the simulation.
    """

    msps: int = 8
    domains: int = 2
    shards: int = 1
    seed: int = 0

    # -- open-loop traffic -------------------------------------------------
    #: Total sessions arriving over ``duration_ms`` (open loop: arrivals
    #: are scheduled by the rate curve, independent of completions).
    sessions: int = 200
    #: Arrival window in simulated ms.
    duration_ms: float = 10_000.0
    #: Zipf-ish skew of requests per session (higher alpha = flatter).
    zipf_alpha: float = 1.3
    max_requests_per_session: int = 8
    #: Downstream hops chained per request (0 = no inter-MSP calls).
    chain_depth: int = 1
    #: Probability a hop crosses a domain boundary (the pessimistic
    #: flush-before-send path); otherwise it stays inside the domain.
    cross_domain_fraction: float = 0.5
    #: Hot/cold placement skew: the first ``ceil(hot_fraction*msps)``
    #: MSPs receive ``hot_weight`` times the arrival mass of cold ones.
    hot_fraction: float = 0.25
    hot_weight: float = 4.0
    #: Burst shape of the arrival-rate curve: every ``burst_every_ms``
    #: the rate multiplies by ``burst_factor`` for ``burst_length_ms``.
    burst_factor: float = 3.0
    burst_every_ms: float = 4_000.0
    burst_length_ms: float = 500.0
    #: Client think time between a session's calls.
    think_ms: float = 5.0

    # -- sharded execution --------------------------------------------------
    #: Epoch barrier length; must not exceed ``cross_latency_ms`` so a
    #: message sent in epoch k can only arrive in epoch k+1 or later.
    epoch_ms: float = 5.0
    #: One-way latency of every cross-domain MSP link (WAN-ish, vs the
    #: 0.35 ms intra-domain LAN default).
    cross_latency_ms: float = 5.0
    #: Extra simulated time after the arrival window for stragglers,
    #: recoveries and drains before the run is declared stuck.
    settle_ms: float = 30_000.0

    # -- failures ----------------------------------------------------------
    #: ``((time_ms, msp_name), ...)`` — crash + restart that MSP then.
    #: Several entries at the *same* timestamp are a correlated
    #: multi-node crash (rack loss): every named MSP fails in the same
    #: simulation instant, before any of them restarts.
    crash_plan: tuple = ()
    #: ``((start_ms, end_ms, side_a, side_b), ...)`` — deterministic
    #: network partition windows (see
    #: :class:`~repro.net.faults.PartitionWindow`).  Sides are tuples of
    #: node names: MSP names, or ``c.<msp>`` for an MSP's client
    #: machine.  Every shard installs the identical schedule, so a
    #: cross-shard send is blacked out at the sender's fabric before
    #: export — windows are RNG-free and never shift the fault streams.
    partition_plan: tuple = ()
    #: ``((time_ms, domain_index), ...)`` — whole-domain loss: every MSP
    #: of that domain is destroyed *with its storage* at that instant.
    #: Requires ``warm_standby`` — without shipped logs there is nothing
    #: to recover from.
    disaster_plan: tuple = ()
    #: Attach a :class:`~repro.core.standby.WarmStandby` to every MSP:
    #: flushed log frames ship synchronously to a standby store, and a
    #: disaster fails over to it (skipping the cold ``RESTART_DELAY_MS``).
    warm_standby: bool = False
    #: Failure-detection / takeover delay a disaster failover pays
    #: before the standby starts recovering.
    standby_takeover_ms: float = 5.0

    # -- recovery configuration (per MSP) ----------------------------------
    log_partitions: int = 1
    recovery_mode: str = "eager"
    logging_mode: str = "value"
    batch_flush_timeout_ms: float = 2.0
    session_ckpt_threshold: Optional[int] = 8 * 1024
    sv_ckpt_write_threshold: int = 64
    msp_ckpt_interval_ms: float = 5_000.0
    log_segment_bytes: int = 64 * 1024
    resend_timeout_ms: float = 400.0
    #: Server-side idle-session expiry (bounded-memory truncation: the
    #: implicit inter-MSP sessions chains open are never client-ended,
    #: and expired sessions stop pinning the log truncation floor).
    session_idle_timeout_ms: Optional[float] = 30_000.0

    #: Optional explicit domain assignment ``((msp, ...), ...)``.  Every
    #: member must name a known MSP and every MSP must appear exactly
    #: once — validated by :class:`FleetTopology`.
    domain_layout: tuple = ()

    def canonical(self) -> dict:
        """A stable JSON-safe form for result fingerprints."""
        spec = asdict(self)
        spec["crash_plan"] = [list(entry) for entry in self.crash_plan]
        spec["partition_plan"] = [
            [start, end, list(side_a), list(side_b)]
            for start, end, side_a, side_b in self.partition_plan
        ]
        spec["disaster_plan"] = [list(entry) for entry in self.disaster_plan]
        spec["domain_layout"] = [list(d) for d in self.domain_layout]
        return spec


class FleetTopology:
    """Validated, derived view of a :class:`FleetSpec`."""

    def __init__(self, spec: FleetSpec):
        if spec.msps < 1:
            raise ValueError(f"fleet needs at least one MSP, got {spec.msps}")
        if not 1 <= spec.domains <= spec.msps:
            raise ValueError(
                f"domains must be in [1, msps]: {spec.domains} vs {spec.msps} MSPs"
            )
        if not 1 <= spec.shards <= spec.domains:
            raise ValueError(
                f"shards must be in [1, domains]: {spec.shards} vs "
                f"{spec.domains} domains (whole domains live on one shard)"
            )
        RecoveryConfig.of(spec).validate()
        if spec.epoch_ms <= 0:
            raise ValueError(f"epoch_ms must be positive, got {spec.epoch_ms}")
        if spec.shards > 1 and spec.cross_latency_ms < spec.epoch_ms:
            raise ValueError(
                f"cross_latency_ms ({spec.cross_latency_ms}) must be >= "
                f"epoch_ms ({spec.epoch_ms}): a cross-shard message must "
                "never arrive inside the epoch that sent it"
            )
        self.spec = spec
        self.msp_names: list[str] = [f"m{i:03d}" for i in range(spec.msps)]
        known = set(self.msp_names)

        if spec.domain_layout:
            layout = [tuple(members) for members in spec.domain_layout]
            assigned = [m for members in layout for m in members]
            unknown = sorted(set(assigned) - known)
            if unknown:
                raise ValueError(
                    f"domain layout routes unknown MSPs: {', '.join(unknown)}"
                )
            missing = sorted(known - set(assigned))
            if missing:
                raise ValueError(
                    f"domain layout leaves MSPs unrouted: {', '.join(missing)}"
                )
            if len(layout) != spec.domains:
                raise ValueError(
                    f"domain layout has {len(layout)} domains, spec says "
                    f"{spec.domains}"
                )
            self.domain_lists = layout
        else:
            self.domain_lists = [
                tuple(
                    self.msp_names[i]
                    for i in range(spec.msps)
                    if i % spec.domains == d
                )
                for d in range(spec.domains)
            ]
        # ServiceDomainConfig itself rejects overlaps and empty domains.
        self.domains = ServiceDomainConfig(self.domain_lists)
        self.domains.validate_members(known)

        self._domain_index: dict[str, int] = {}
        for d, members in enumerate(self.domain_lists):
            for msp in members:
                self._domain_index[msp] = d

        for when, target in spec.crash_plan:
            if target not in known:
                raise ValueError(f"crash plan routes unknown MSP: {target!r}")
            if when < 0:
                raise ValueError(f"crash plan entry in the past: {when}")

        # Partition sides may name MSPs or their client machines;
        # PartitionWindow itself rejects empty/overlapping sides and
        # empty intervals at construction (see partition_windows()).
        addressable = known | {f"c.{m}" for m in known}
        for start, end, side_a, side_b in spec.partition_plan:
            unknown = sorted(
                (set(side_a) | set(side_b)) - addressable
            )
            if unknown:
                raise ValueError(
                    f"partition plan names unknown nodes: {', '.join(unknown)}"
                )
            if end <= start:
                raise ValueError(
                    f"empty partition window: [{start}, {end})"
                )

        if spec.disaster_plan and not spec.warm_standby:
            raise ValueError(
                "disaster_plan destroys storage — recovery needs "
                "warm_standby=True (log shipping)"
            )
        for when, domain in spec.disaster_plan:
            if not 0 <= domain < spec.domains:
                raise ValueError(
                    f"disaster plan names unknown domain {domain} "
                    f"(have {spec.domains})"
                )
            if when < 0:
                raise ValueError(f"disaster plan entry in the past: {when}")

        # Hot/cold arrival weights (satellite of the open-loop generator):
        # the first ceil(hot_fraction * msps) MSPs are "hot".
        hot = max(1, round(spec.hot_fraction * spec.msps)) if spec.msps else 0
        self.arrival_weights = [
            spec.hot_weight if i < hot else 1.0 for i in range(spec.msps)
        ]

    # -- placement ---------------------------------------------------------

    def domain_index(self, msp: str) -> int:
        return self._domain_index[msp]

    def shard_of_domain(self, domain: int) -> int:
        return domain % self.spec.shards

    def shard_of(self, msp: str) -> int:
        return self.shard_of_domain(self._domain_index[msp])

    def local_msps(self, shard: int) -> list[str]:
        """MSPs hosted on ``shard``, in canonical (name) order."""
        return [m for m in self.msp_names if self.shard_of(m) == shard]

    def partition_windows(self):
        """The spec's partition plan as validated ``PartitionWindow``s.

        Every shard installs the identical list — the windows are pure
        functions of simulated time, so sender-side blackout decisions
        agree across shards without any coordination.
        """
        from repro.net import PartitionWindow

        return [
            PartitionWindow(tuple(side_a), tuple(side_b), start, end)
            for start, end, side_a, side_b in self.spec.partition_plan
        ]

    def domain_members(self, domain: int) -> tuple[str, ...]:
        return self.domain_lists[domain]

    def peers_outside_domain(self, msp: str) -> list[str]:
        d = self._domain_index[msp]
        return [m for m in self.msp_names if self._domain_index[m] != d]

    def peers_inside_domain(self, msp: str) -> list[str]:
        d = self._domain_index[msp]
        return [m for m in self.domain_lists[d] if m != msp]
