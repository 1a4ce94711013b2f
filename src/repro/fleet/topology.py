"""Fleet topology: MSP naming, service domains, shard placement.

The shape rules (DESIGN.md §17):

- MSPs are named ``m000..mNNN`` and assigned to service domains round
  robin (``domain_of(m_i) = i mod domains``).
- Whole domains are placed on one shard (``shard_of(domain d) = d mod
  shards``), so every *optimistic* message — DV-tagged intra-domain
  requests, distributed-flush legs, recovery announcements — stays
  inside one simulator.  Only pessimistic cross-domain traffic crosses
  shards.
- The shard count is part of the spec, like ``log_partitions``: it
  defines the simulated semantics.  ``--jobs`` only chooses how many
  shards execute concurrently and never changes results.

Validation happens at construction: unknown MSP names in the crash or
partition plan, unknown domains in the disaster plan, epoch lengths
longer than the cross-shard latency, and illegal recovery/logging modes
or partition counts are all rejected before any simulator is built.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional

from repro.core.config import RecoveryConfig
from repro.core.domain import ServiceDomainConfig

#: Hot/cold placement skew: the first ``round(HOT_FRACTION * msps)``
#: MSPs (at least one) receive ``HOT_WEIGHT`` times the arrival mass of
#: cold ones.
HOT_FRACTION = 0.25
HOT_WEIGHT = 4.0


@dataclass(frozen=True)
class FleetSpec:
    """Everything that defines one fleet run (picklable, hashable-ish).

    Two runs with equal specs produce byte-identical results at any
    ``--jobs`` value — the spec is the complete seed of the simulation.
    Every field is one some fleet sets; a value no fleet varies is a
    constant beside its one reader.
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
    max_requests_per_session: int = 8
    #: Downstream hops chained per request (0 = no inter-MSP calls).
    chain_depth: int = 1
    #: Probability a hop crosses a domain boundary (the pessimistic
    #: flush-before-send path); otherwise it stays inside the domain.
    cross_domain_fraction: float = 0.5
    #: Client think time between a session's calls.
    think_ms: float = 5.0

    # -- sharded execution --------------------------------------------------
    #: Epoch barrier length; must not exceed ``cross_latency_ms`` so a
    #: message sent in epoch k can only arrive in epoch k+1 or later.
    epoch_ms: float = 5.0
    #: One-way latency of every cross-domain MSP link (WAN-ish, vs the
    #: 0.35 ms intra-domain LAN default).
    cross_latency_ms: float = 5.0

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
    #: of that domain is destroyed *with its storage* at that instant
    #: and fails over to its warm standby (see :attr:`warm_standby`).
    disaster_plan: tuple = ()

    # -- recovery configuration (per MSP) ----------------------------------
    log_partitions: int = 1
    recovery_mode: str = "eager"
    logging_mode: str = "value"
    session_ckpt_threshold: Optional[int] = 8 * 1024
    sv_ckpt_write_threshold: int = 64
    msp_ckpt_interval_ms: float = 5_000.0
    log_segment_bytes: int = 64 * 1024

    @property
    def warm_standby(self) -> bool:
        """Whether every MSP gets a :class:`~repro.core.standby.WarmStandby`:
        exactly when a disaster plan destroys storage, since without
        shipped logs there is nothing to recover from."""
        return bool(self.disaster_plan)

    def canonical(self) -> dict:
        """A stable JSON-safe form for result fingerprints: the fields
        that differ from their defaults (a missing key means the
        default), plans as nested lists."""
        return {
            f.name: _lists(getattr(self, f.name))
            for f in fields(self)
            if getattr(self, f.name) != f.default
        }


def _lists(value):
    """``value`` with every tuple turned into a list, recursively."""
    if isinstance(value, tuple):
        return [_lists(item) for item in value]
    return value


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

        self.domain_lists = [
            tuple(
                self.msp_names[i]
                for i in range(spec.msps)
                if i % spec.domains == d
            )
            for d in range(spec.domains)
        ]
        self.domains = ServiceDomainConfig(self.domain_lists)

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

        for when, domain in spec.disaster_plan:
            if not 0 <= domain < spec.domains:
                raise ValueError(
                    f"disaster plan names unknown domain {domain} "
                    f"(have {spec.domains})"
                )
            if when < 0:
                raise ValueError(f"disaster plan entry in the past: {when}")

        hot = max(1, round(HOT_FRACTION * spec.msps))
        self.arrival_weights = [
            HOT_WEIGHT if i < hot else 1.0 for i in range(spec.msps)
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
