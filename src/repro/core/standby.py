"""Warm-standby log shipping and disaster failover (DESIGN.md §18).

The paper's recovery story assumes the crashed MSP's *disk* survives:
restart reads the durable log prefix and replays.  A whole-site loss —
machine destroyed, storage gone — breaks that assumption.  The classic
middleware answer is **log shipping**: every flushed log frame is also
sent to a warm standby node, so the standby's copy of the log equals
the primary's durable prefix at all times.  On disaster the standby
*promotes* — it recovers from its shipped copy exactly as the primary
would have recovered from its own disk — and because the standby
process is already booted, the failover skips the primary's
``RESTART_DELAY_MS`` cold-start.

Shipping here is synchronous with the flush: the primary's disk write
and the standby transfer complete together (real deployments overlap
the network send with the local fsync, so the added latency hides
under the write).  That gives the invariant the whole design rests on,
checked by :meth:`WarmStandby.verify_against_primary`:

    shipped prefix == durable prefix, byte for byte, at every instant.

A crash discards the primary's volatile tail — which was never shipped
— so the standby's copy also equals the post-crash primary log, which
is why promotion recovers the *identical* state a local restart would
have: same analysis scan, same session replays, same dependency
vectors.  Only the bytes that were durable anywhere survive; the
disaster loses exactly what an ordinary crash loses, never more.

Each primary store reports its durability events (``mark_durable``,
``flush_anchor``, ``rewind``) to a subscribed :class:`_Shipper`; the
subscription lives on the store, so it survives the MSP's
crash/restart cycles — the store objects themselves persist.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from repro.storage import StableStore


@dataclass
class StandbyStats:
    """Shipping and failover counters for reports."""

    #: Incremental transfers (one per physical flush that grew the
    #: durable prefix) and their byte volume.
    shipments: int = 0
    shipped_bytes: int = 0
    #: Durable anchor updates mirrored to the standby.
    anchor_shipments: int = 0
    #: Rewinds mirrored (partitioned recovery's consistent cut).
    rewinds: int = 0
    #: Promotions performed.
    failovers: int = 0
    #: Outcomes of :meth:`WarmStandby.verify_against_primary`.
    verifications: int = 0
    verification_failures: list = field(default_factory=list)


class _Shipper:
    """Durability observer of one primary store: ships every event to
    its mirror synchronously."""

    def __init__(self, mirror: StableStore, stats: StandbyStats):
        self.mirror = mirror
        self.stats = stats

    def durable_advanced(self, primary: StableStore) -> None:
        mirror = self.mirror
        durable = primary.durable_end
        if durable <= mirror.end:
            return
        data = primary.read_durable(mirror.end, durable - mirror.end)
        mirror.append(data)
        mirror.mark_durable(durable)
        self.stats.shipments += 1
        self.stats.shipped_bytes += len(data)

    def anchor_flushed(self, primary: StableStore) -> None:
        anchor = primary.read_anchor()
        if anchor is not None:
            self.mirror.write_anchor(anchor)
            self.mirror.flush_anchor()
            self.stats.anchor_shipments += 1

    def rewound(self, primary: StableStore, boundary: int) -> None:
        # Partitioned recovery may cut a *durable* suffix whose
        # cross-partition dependency was lost; the standby copy must
        # shed the same bytes or a later promotion would resurrect
        # records the primary's own recovery rejected.
        if boundary < self.mirror.end:
            self.mirror.rewind(boundary)
            self.stats.rewinds += 1


class WarmStandby:
    """A standby node holding a shipped copy of one MSP's durable log."""

    def __init__(self, msp):
        self.msp = msp
        self.stats = StandbyStats()
        self.promoted = False
        #: One mirror store per log partition, same segment geometry so
        #: offsets (and therefore every plsn the records carry) line up.
        self.mirrors = [
            StableStore(
                name=f"standby.{store.name}",
                segment_bytes=store.segment_bytes,
            )
            for store in msp.stores
        ]
        for primary, mirror in zip(msp.stores, self.mirrors):
            primary.subscribe(_Shipper(mirror, self.stats))

    # -- verification ------------------------------------------------------

    def verify_against_primary(self) -> list[str]:
        """Check shipped prefix == durable prefix on every partition.

        Returns the list of mismatches (empty = verified).  Bytes are
        compared above the primary's truncation floor — below it the
        primary's own reads are illegal, and the floor only ever covers
        space no recovery may touch.
        """
        self.stats.verifications += 1
        problems: list[str] = []
        for primary, mirror in zip(self.msp.stores, self.mirrors):
            if mirror.end != primary.durable_end:
                problems.append(
                    f"{mirror.name}: shipped end {mirror.end} != primary "
                    f"durable end {primary.durable_end}"
                )
                continue
            floor = primary.truncate_lsn
            length = primary.durable_end - floor
            if length > 0:
                ours = hashlib.sha256(mirror.read(floor, length)).hexdigest()
                theirs = hashlib.sha256(
                    primary.read_durable(floor, length)
                ).hexdigest()
                if ours != theirs:
                    problems.append(
                        f"{mirror.name}: shipped bytes diverge from the "
                        f"primary's durable prefix over [{floor}, "
                        f"{primary.durable_end})"
                    )
            if mirror.read_anchor() != primary.read_anchor():
                problems.append(
                    f"{mirror.name}: shipped anchor differs from the "
                    "primary's durable anchor"
                )
        self.stats.verification_failures.extend(problems)
        return problems

    # -- failover ----------------------------------------------------------

    def promote(self) -> list[str]:
        """Point the (crashed) MSP at the mirrored stores.

        Models the disaster: the primary's storage is gone, the standby's
        shipped copy *is* the log now.  The caller must have crashed the
        MSP first; verification runs against the post-crash primary (its
        volatile tail already discarded) before the swap, so a shipping
        bug fails loudly instead of recovering silently-divergent state.
        """
        if self.promoted:
            raise RuntimeError(f"standby for {self.msp.name} already promoted")
        if self.msp.running:
            raise RuntimeError(
                f"cannot promote standby while {self.msp.name} is running"
            )
        problems = self.verify_against_primary()
        msp = self.msp
        for i, mirror in enumerate(self.mirrors):
            msp.stores[i] = mirror
        msp.store = msp.stores[0]
        self.promoted = True
        self.stats.failovers += 1
        return problems

    def failover_process(self, takeover_delay_ms: float = 0.0):
        """Promote and boot the MSP from the shipped log (returns the
        recovery process).

        Unlike :meth:`~repro.core.msp.MiddlewareServer.restart_process`,
        no ``RESTART_DELAY_MS`` is paid: the standby process is already
        up — that head start is exactly the failover-time win the
        scenario matrix measures.  ``takeover_delay_ms`` models failure
        detection / virtual-IP switch time.
        """
        problems = self.promote()
        if problems:
            raise RuntimeError(
                f"standby for {self.msp.name} diverged from the primary: "
                + "; ".join(problems)
            )
        msp = self.msp
        from repro.sim import ProcessGroup

        if msp.group is None:
            msp.group = ProcessGroup(msp.name)

        def takeover():
            if takeover_delay_ms > 0:
                yield takeover_delay_ms
            yield from msp.start()

        return msp.sim.spawn(
            takeover(), name=f"{msp.name}.failover", group=msp.group
        )
