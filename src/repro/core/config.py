"""Configuration: logging mode, thresholds and the CPU cost model.

The cost model's defaults are calibrated (see
``repro/workloads/calibration.py`` and the EXPERIMENTS.md notes) so that
the paper's measured baseline times come out of the simulation: a
~3.6 ms MSP-to-MSP round trip, a ~3.9 ms client-to-MSP round trip, and a
NoLog end-to-end response near 8.7 ms for the Fig. 13 workload.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, fields
from typing import Optional

from repro.core.plsn import MAX_PARTITIONS


#: Legal values of the mode strings.
RECOVERY_MODES = ("eager", "lazy")
LOGGING_MODES = ("value", "command")


class LoggingMode(enum.Enum):
    """How (and whether) an MSP logs nondeterministic events."""

    #: No logging/recovery infrastructure at all (paper's NoLog config).
    NOLOG = "nolog"
    #: Full recovery infrastructure.  Whether a particular message uses
    #: pessimistic or optimistic logging is decided per message by the
    #: service-domain configuration ("locally optimistic logging").
    RECOVERABLE = "recoverable"




@dataclass(frozen=True, init=False)
class CostModel:
    """CPU costs (ms) charged to the server CPU for each operation.

    These model the ASP.NET/Web-services stack of the paper's prototype;
    the absolute values are calibration artifacts, but the *structure*
    (what is charged per message, per record, per flush) mirrors the
    paper's analysis in §5.2.  There is one instance, :data:`COSTS`:
    no constructor arguments, no field to set.
    """

    #: Protocol-stack cost of sending or receiving one message
    #: (serialization, HTTP/SOAP framing, socket syscalls).
    message_stack_ms: float = 0.62
    #: Request dispatch: queueing, session lookup, duplicate detection.
    request_dispatch_ms: float = 0.28
    #: Pure business-logic execution per service method invocation.
    method_execution_ms: float = 0.25
    #: Building + appending one log record to the in-memory buffer.
    log_append_ms: float = 0.12
    #: Dependency-vector bookkeeping per tracked event.
    dv_track_ms: float = 0.06
    #: CPU to format and issue one *physical* log write (charged by the
    #: flusher per write, so batch flushing amortizes it across the
    #: requests it merges — §5.5's CPU reduction).
    flush_cpu_ms: float = 0.90
    #: Requester-side syscall cost of asking for a flush.
    flush_issue_ms: float = 0.08
    #: Session-variable read/write (no logging involved).
    session_var_ms: float = 0.005
    #: Taking one session checkpoint (serialize 8 KB of state).
    session_ckpt_cpu_ms: float = 0.35
    #: Replay-mode execution of one logged request (paper §5.4 measures
    #: replay at ~1.3 ms/request vs ~20.8 ms normal processing; replay
    #: costs method CPU + log-read share, no messaging).
    replay_dispatch_ms: float = 0.05
    #: Client-side cost to build/send a request and consume a reply.
    client_stack_ms: float = 0.35
    #: CPU to parse and apply one record during the recovery scan.
    scan_record_cpu_ms: float = 0.002
    #: State-server baseline: cost to serialize/deserialize 8 KB session
    #: state for a remote fetch or store.
    state_serialize_ms: float = 0.18
    #: Psession baseline: CPU per DB transaction (parse, plan, copy).
    db_txn_cpu_ms: float = 1.2
    #: StateServer baseline: per-message stack cost of the lightweight
    #: binary state protocol (cheaper than the SOAP request stack).
    state_stack_ms: float = 0.30


#: The cost model every MSP, client and analytic estimate charges.
COSTS = CostModel()


def same_named(target: type, source) -> dict:
    """The values ``source`` (a dataclass instance or a dict) holds
    under names that are fields of the dataclass ``target``.

    The one translation from a world spec (``WorkloadParams``,
    ``FleetSpec``, ``FuzzParams``) to what it configures: a setting
    keeps its name end to end, and one the source does not carry keeps
    ``target``'s default.
    """
    names = {f.name for f in fields(target)}
    values = source if isinstance(source, dict) else vars(source)
    return {name: value for name, value in values.items() if name in names}


@dataclass
class RecoveryConfig:
    """What a caller may choose for one MSP's recovery infrastructure.

    Every field is varied by some world (DESIGN.md "Configuration");
    the fixed values — server sizing, timeouts, block and buffer sizes —
    live as module constants next to their one reader, and the CPU
    costs are :data:`COSTS`.
    """

    mode: LoggingMode = LoggingMode.RECOVERABLE

    # -- checkpointing ---------------------------------------------------
    #: Take a session checkpoint once the session logged this many bytes
    #: since its previous checkpoint (paper §3.2; None disables session
    #: checkpointing — the paper's "NoCp" configuration).
    session_ckpt_threshold: int | None = 1024 * 1024
    #: Take a shared-variable checkpoint every N writes (paper §3.3).
    sv_ckpt_write_threshold: int = 200
    #: Period of the fuzzy MSP checkpoint daemon, in ms (paper §3.4).
    msp_ckpt_interval_ms: float = 2_000.0
    #: Force a session/SV checkpoint if this many MSP checkpoints passed
    #: since its last one (paper §3.4 "forced checkpoints").
    forced_ckpt_msp_count: int = 8
    #: Server-side session expiry: end a session that has been idle this
    #: long, exactly like a client-initiated end (flush its DV, log the
    #: SessionEnd marker, discard it).  Without it, abandoned sessions —
    #: above all the implicit inter-MSP sessions a chained call opens,
    #: which no client ever ends — accumulate forever and their stale
    #: checkpoint LSNs pin the log-truncation floor, so the live log
    #: grows without bound on open-loop workloads.  ``None`` disables
    #: expiry (the historical behaviour).  Evaluated at MSP-checkpoint
    #: cadence; pick a timeout far above any legitimate think time.
    session_idle_timeout_ms: Optional[float] = None

    # -- log management ----------------------------------------------------
    #: Batch (group) flushing timeout in ms; 0 disables batching
    #: (paper §5.5 uses 8 ms).
    batch_flush_timeout_ms: float = 0.0
    #: Checkpoint-driven log truncation: once the log anchor is durable,
    #: advance the store's truncation floor to the anchored checkpoint's
    #: minimal LSN and recycle every segment wholly below it.  Off keeps
    #: the log growing for the whole run (the seed behaviour — only
    #: useful for the ``log_space`` comparison benchmark).
    log_truncation: bool = True
    #: Fixed segment size of the physical log store, in bytes.  Smaller
    #: segments reclaim space at a finer grain; larger ones make frame
    #: straddling (the only non-zero-copy reads) rarer.
    log_segment_bytes: int = 64 * 1024
    #: Number of log partitions, 1..255 (DESIGN.md §14).  Each
    #: session's stream hashes to one of N stores with independent
    #: group-commit flushers, control records go to partition 0, and
    #: recovery merges the per-partition durable prefixes in dependency
    #: order.  1 is the one-partition case of the same code and keeps
    #: the historical single log's bytes.
    log_partitions: int = 1

    # -- lazy recovery (DESIGN.md §15) --------------------------------------
    #: How many drain workers replay the rebuilt sessions after the
    #: analysis scan — nothing else; the log format and the code path
    #: are the same in both modes, and either way the MSP opens for
    #: traffic as soon as ``drain`` returns.  ``eager`` starts one
    #: worker per session, so every replay begins at once (the paper's
    #: §4 restart).  ``lazy`` starts ``recovery_pump_concurrency``
    #: workers draining in session-id order, and a session whose next
    #: request arrives first is replayed inline, ahead of the queue.
    recovery_mode: str = "eager"
    #: Lazy mode's drain worker count (an integer >= 1); 1 is strictly
    #: sequential replay, one session at a time.
    recovery_pump_concurrency: int = 4

    # -- command/value logging (DESIGN.md §16) -------------------------------
    #: What every session of the MSP logs: ``value`` (the paper's §3.3
    #: per-SV value records) or ``command`` (one CommandRecord per
    #: request, replay re-executes the handler deterministically).
    logging_mode: str = "value"

    # -- ablations (paper design choices, for the ablation benches) ---------
    #: Track one DV per session (paper S3.2) instead of a single DV for
    #: the whole MSP.  With a per-MSP DV, one remote crash orphans
    #: every session at once -- "all its sessions will roll back,
    #: possibly unnecessarily".
    per_session_dv: bool = True

    @classmethod
    def of(cls, spec) -> "RecoveryConfig":
        """The config one MSP of a world gets: every setting the world
        spec ``spec`` carries, by name; the rest keep their defaults."""
        return cls(**same_named(cls, spec))

    @property
    def recoverable(self) -> bool:
        return self.mode is LoggingMode.RECOVERABLE

    def validate(self) -> None:
        """Raise ``ValueError`` for an illegal mode string, partition
        count or pump concurrency — the one check behind
        ``MiddlewareServer``, ``FleetTopology`` and scenario expansion,
        so a bad configuration fails where it is written down, before
        any simulator runs."""
        if self.recovery_mode not in RECOVERY_MODES:
            raise ValueError(
                f"unknown recovery_mode {self.recovery_mode!r}; "
                f"choose one of {', '.join(RECOVERY_MODES)}"
            )
        if self.logging_mode not in LOGGING_MODES:
            raise ValueError(
                f"unknown logging_mode {self.logging_mode!r}; "
                f"choose one of {', '.join(LOGGING_MODES)}"
            )
        parts = self.log_partitions
        if not isinstance(parts, int) or not 1 <= parts <= MAX_PARTITIONS:
            raise ValueError(
                f"log_partitions must be an integer in 1..{MAX_PARTITIONS}, "
                f"got {parts!r}"
            )
        pump = self.recovery_pump_concurrency
        if not isinstance(pump, int) or pump < 1:
            raise ValueError(
                f"recovery_pump_concurrency must be an integer >= 1, got {pump!r}"
            )
