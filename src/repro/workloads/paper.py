"""The paper's experimental workload (§5.1, Fig. 13).

Topology and sizes follow the paper exactly:

- one end client machine and two web-server machines (MSP1, MSP2) on a
  100 Mbps Ethernet;
- the client starts session SE1 with MSP1 and calls ServiceMethod1;
- ServiceMethod1 reads and writes shared variable SV0, calls
  ServiceMethod2 on MSP2 (``calls_to_sm2`` times — the paper's *m*),
  then reads and writes SV1 and finally modifies its session state;
- ServiceMethod2 reads and writes SV2 and SV3 and modifies its session
  state;
- request parameters and return values are 100 B, shared variables are
  128 B, total session state is 8 KB of which 512 B is written per
  request.

Link latencies are calibrated so the measured round trips of §5.2 come
out of the simulation: ~3.6 ms between the MSPs and ~3.9 ms between the
client and MSP1 (both including protocol-stack CPU).

The forced-crash mechanism is the paper's own (§5.4): every
``crash_every_n`` completed requests, "when the reply from
ServiceMethod2 is received by MSP1, MSP2 is instructed to kill itself",
losing MSP2's buffered log records, so the distributed flush at the end
of ServiceMethod1 fails and SE1 at MSP1 becomes an orphan.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.baselines import PsessionServer, StateServerNode, StateServerServer
from repro.core.client import EndClient
from repro.core.config import LOGGING_MODES, RECOVERY_MODES, LoggingMode, RecoveryConfig
from repro.core.domain import ServiceDomainConfig
from repro.core.msp import MiddlewareServer
from repro.net import Network
from repro.sim import RngRegistry, Simulator

CONFIGURATIONS = ("LoOptimistic", "Pessimistic", "NoLog", "Psession", "StateServer")

#: Calibrated one-way latencies (ms); see module docstring.
CLIENT_LINK_LATENCY_MS = 1.35
MSP_LINK_LATENCY_MS = 0.35

#: 100 Mbps Ethernet.
BANDWIDTH_BYTES_PER_MS = 12_500.0


@dataclass
class WorkloadParams:
    """Everything the §5 experiments vary."""

    configuration: str = "LoOptimistic"
    #: The paper's *m*: calls to ServiceMethod2 per ServiceMethod1.
    calls_to_sm2: int = 1
    num_clients: int = 1
    requests_per_client: int = 200
    #: Session checkpoint threshold in bytes (None = no checkpointing).
    session_ckpt_threshold: Optional[int] = 1024 * 1024
    #: Batch flushing timeout (0 = disabled; the paper uses 8 ms).
    batch_flush_timeout_ms: float = 0.0
    #: Fuzzy MSP checkpoint period override (None = RecoveryConfig
    #: default).  The crash-schedule fuzzer shortens it so checkpoint
    #: phase boundaries appear among the enumerated crash sites.
    msp_ckpt_interval_ms: Optional[float] = None
    #: Forced crash rate: one MSP2 kill per this many completed
    #: ServiceMethod1 executions (None = no crashes).
    crash_every_n: Optional[int] = None
    #: Increment the shared counters with atomic ``update_shared``
    #: read-modify-writes instead of the paper's separate read + write
    #: accesses.  The paper's per-access locks admit lost updates when
    #: concurrent sessions interleave between the read and the write —
    #: an application-level race, orthogonal to recovery.  The
    #: crash-schedule fuzzer turns this on so "counters == completed
    #: calls" is a sound exactly-once oracle under multi-client runs;
    #: the §5 performance experiments keep the paper's access pattern.
    atomic_sv_updates: bool = False
    #: Checkpoint-driven log truncation (segment recycling below the
    #: anchored checkpoint's minimal LSN).  Off reproduces the seed's
    #: grow-forever log, for the ``log_space`` comparison.
    log_truncation: bool = True
    #: Physical log segment size override (None = RecoveryConfig default).
    log_segment_bytes: Optional[int] = None
    #: Log partition count (1 = the classical single log).  Sessions
    #: hash to partitions; each partition group-commits independently.
    log_partitions: int = 1
    #: Shared-variable checkpoint threshold override (None = default).
    #: The fuzzer lowers it so sv scan starts stop pinning the minimal
    #: LSN and truncation advances within short runs.
    sv_ckpt_write_threshold: Optional[int] = None
    #: Forced-checkpoint staleness limit override (None = default).
    forced_ckpt_msp_count: Optional[int] = None
    #: Crash-recovery mode, i.e. the drain's worker count (DESIGN.md
    #: §15): ``eager`` starts one worker per session (the paper's
    #: recover-everything restart), ``lazy`` starts
    #: ``recovery_pump_concurrency`` and replays a session inline when
    #: its next request beats the workers to it.
    recovery_mode: str = "eager"
    #: Lazy mode's drain worker count (1 = sequential replay).
    recovery_pump_concurrency: int = 4
    #: What sessions log: ``value`` (the paper's §3.3 per-SV records),
    #: ``command`` (one command record per request, replay re-executes)
    #: or ``adaptive`` (per-session runtime choice, DESIGN.md §16).
    logging_mode: str = "value"
    request_arg_bytes: int = 100
    reply_bytes: int = 100
    sv_bytes: int = 128
    session_state_bytes: int = 8 * 1024
    session_write_bytes: int = 512
    seed: int = 0

    def __post_init__(self) -> None:
        if self.configuration not in CONFIGURATIONS:
            raise ValueError(
                f"unknown configuration {self.configuration!r}; "
                f"choose from {CONFIGURATIONS}"
            )


#: The :class:`WorkloadParams` fields the mode flags set (their ``dest``).
_MODE_FIELDS = (
    "log_partitions", "recovery_mode", "recovery_pump_concurrency", "logging_mode",
)


def add_mode_arguments(parser) -> None:
    """Declare the mode flags, once for every subcommand that builds a
    workload (``workload``, ``trace``, ``fuzz``).  An unset flag is
    ``None`` (argparse's default): the :class:`WorkloadParams` default."""
    defaults = WorkloadParams()
    parser.add_argument(
        "--partitions", dest="log_partitions", type=int, metavar="N",
        help=f"log partitions (default {defaults.log_partitions} = the "
        "classical single log); sessions hash to partitions, each with "
        "its own group-commit flusher",
    )
    parser.add_argument(
        "--recovery-mode", choices=RECOVERY_MODES,
        help="how many drain workers replay the rebuilt sessions after a "
        "restart, nothing else (same log, same code; the MSP reopens at "
        "once either way): eager starts one per session (the paper's "
        "restart), lazy starts --pump-concurrency and replays a session "
        "inline when its next request comes first "
        f"(default {defaults.recovery_mode})",
    )
    parser.add_argument(
        "--pump-concurrency", dest="recovery_pump_concurrency", type=int, metavar="N",
        help="lazy mode's drain worker count, >= 1, taking sessions in id "
        "order; 1 is sequential replay "
        f"(default {defaults.recovery_pump_concurrency})",
    )
    parser.add_argument(
        "--logging-mode", choices=LOGGING_MODES,
        help="request logging mode: value logs per-variable deltas "
        "(paper §3.3); command logs the request and re-executes it at "
        "replay; adaptive switches per session from observed log volume "
        f"vs estimated replay cost (default {defaults.logging_mode})",
    )


def mode_overrides(args) -> dict:
    """The mode fields given on the command line, by field name."""
    given = {name: getattr(args, name) for name in _MODE_FIELDS}
    return {name: value for name, value in given.items() if value is not None}


@dataclass
class PaperRunResult:
    """Measurements from one workload run."""

    configuration: str
    completed_requests: int
    elapsed_ms: float
    response_times_ms: list[float]
    crashes: int
    msp1_cpu_utilization: float
    msp1_disk_utilization: float
    msp1_flushes: int
    msp2_flushes: int
    msp1_flushed_sectors: int
    msp2_flushed_sectors: int
    orphan_recoveries: int
    replayed_requests: int
    session_checkpoints: int

    @property
    def mean_response_ms(self) -> float:
        if not self.response_times_ms:
            return 0.0
        return sum(self.response_times_ms) / len(self.response_times_ms)

    @property
    def max_response_ms(self) -> float:
        return max(self.response_times_ms) if self.response_times_ms else 0.0

    @property
    def throughput_rps(self) -> float:
        """Completed end-client requests per second."""
        if self.elapsed_ms <= 0:
            return 0.0
        return self.completed_requests / self.elapsed_ms * 1000.0

    @property
    def flushes_per_request(self) -> float:
        """Log flushes of both MSPs per completed end-client request."""
        return (self.msp1_flushes + self.msp2_flushes) / self.completed_requests

    @property
    def sectors_per_request(self) -> float:
        """Flushed sectors of both MSPs per completed end-client request."""
        return (self.msp1_flushed_sectors + self.msp2_flushed_sectors) / self.completed_requests


def _counter_value(raw: Optional[bytes]) -> int:
    if not raw:
        return 0
    return int.from_bytes(raw[:8], "big")


def _counter_bytes(value: int, size: int) -> bytes:
    return value.to_bytes(8, "big") + b"\x00" * (size - 8)


class _CrashController:
    """Implements the §5.4 forced-crash trigger."""

    def __init__(self, sim: Simulator, every_n: Optional[int]):
        self.sim = sim
        self.every_n = every_n
        self.msp2: Optional[MiddlewareServer] = None
        self.sm1_completions = 0
        self.crashes = 0

    def after_reply2_received(self) -> None:
        """Called by ServiceMethod1 right after its last ServiceMethod2
        reply arrives (normal execution only)."""
        if self.every_n is None or self.msp2 is None:
            return
        self.sm1_completions += 1
        if self.sm1_completions % self.every_n == 0 and self.msp2.running:
            self.crashes += 1
            self.msp2.crash()
            self.msp2.restart_process()


class PaperWorkload:
    """Builds and runs the paper's experimental setup."""

    def __init__(self, params: WorkloadParams):
        self.params = params
        self.sim = Simulator()
        self.rng = RngRegistry(params.seed)
        self.network = Network(self.sim, rng=self.rng)
        self.crash_controller = _CrashController(self.sim, params.crash_every_n)
        self._build_topology()
        self._build_servers()
        self.client = EndClient(self.sim, self.network, "client")
        self.sessions = [
            self.client.open_session("msp1") for _ in range(params.num_clients)
        ]

    # -- construction -------------------------------------------------------

    def _build_topology(self) -> None:
        net = self.network
        net.set_link(
            "client", "msp1",
            latency_ms=CLIENT_LINK_LATENCY_MS,
            bandwidth_bytes_per_ms=BANDWIDTH_BYTES_PER_MS,
        )
        for pair in (("msp1", "msp2"), ("msp1", "stateserver"), ("msp2", "stateserver")):
            net.set_link(
                *pair,
                latency_ms=MSP_LINK_LATENCY_MS,
                bandwidth_bytes_per_ms=BANDWIDTH_BYTES_PER_MS,
            )

    def _recovery_config(self) -> RecoveryConfig:
        params = self.params
        config = RecoveryConfig()
        if params.configuration == "NoLog":
            config.mode = LoggingMode.NOLOG
        config.session_ckpt_threshold_bytes = params.session_ckpt_threshold
        config.batch_flush_timeout_ms = params.batch_flush_timeout_ms
        if params.msp_ckpt_interval_ms is not None:
            config.msp_ckpt_interval_ms = params.msp_ckpt_interval_ms
        config.log_truncation = params.log_truncation
        if params.log_segment_bytes is not None:
            config.log_segment_bytes = params.log_segment_bytes
        config.log_partitions = params.log_partitions
        if params.sv_ckpt_write_threshold is not None:
            config.sv_ckpt_write_threshold = params.sv_ckpt_write_threshold
        if params.forced_ckpt_msp_count is not None:
            config.forced_ckpt_msp_count = params.forced_ckpt_msp_count
        config.recovery_mode = params.recovery_mode
        config.recovery_pump_concurrency = params.recovery_pump_concurrency
        config.logging_mode = params.logging_mode
        return config

    def _build_servers(self) -> None:
        params = self.params
        configuration = params.configuration
        if configuration == "LoOptimistic":
            domains = ServiceDomainConfig([["msp1", "msp2"]])
        elif configuration == "Pessimistic":
            domains = ServiceDomainConfig([["msp1"], ["msp2"]])
        else:
            domains = ServiceDomainConfig()

        self.state_server: Optional[StateServerNode] = None
        if configuration == "Psession":
            server_cls = PsessionServer
        elif configuration == "StateServer":
            server_cls = StateServerServer
            self.state_server = StateServerNode(self.sim, self.network)
        else:
            server_cls = MiddlewareServer

        self.msp1 = server_cls(
            self.sim, self.network, "msp1", domains,
            config=self._recovery_config(), rng=self.rng,
        )
        self.msp2 = server_cls(
            self.sim, self.network, "msp2", domains,
            config=self._recovery_config(), rng=self.rng,
        )
        self.crash_controller.msp2 = self.msp2

        self.msp1.register_service("service_method1", self._make_service_method1())
        self.msp1.register_shared("SV0", _counter_bytes(0, params.sv_bytes))
        self.msp1.register_shared("SV1", _counter_bytes(0, params.sv_bytes))
        self.msp2.register_service("service_method2", self._make_service_method2())
        self.msp2.register_shared("SV2", _counter_bytes(0, params.sv_bytes))
        self.msp2.register_shared("SV3", _counter_bytes(0, params.sv_bytes))

    def _increment(self, ctx, name: str):
        """Bump one shared counter via the configured access pattern."""
        params = self.params
        if params.atomic_sv_updates:
            yield from ctx.update_shared(
                name,
                lambda raw: _counter_bytes(_counter_value(raw) + 1, params.sv_bytes),
            )
        else:
            raw = yield from ctx.read_shared(name)
            yield from ctx.write_shared(
                name, _counter_bytes(_counter_value(raw) + 1, params.sv_bytes)
            )

    def _make_service_method1(self):
        params = self.params
        controller = self.crash_controller
        bulk_bytes = params.session_state_bytes - params.session_write_bytes

        def service_method1(ctx, argument):
            yield from ctx.compute(self.msp1.config.costs.method_execution_ms)
            yield from self._increment(ctx, "SV0")
            for _ in range(params.calls_to_sm2):
                yield from ctx.call("msp2", "service_method2", argument)
            if not ctx.is_replay:
                controller.after_reply2_received()
            yield from self._increment(ctx, "SV1")
            bulk = yield from ctx.get_session_var("bulk")
            if bulk is None:
                yield from ctx.set_session_var("bulk", b"\x00" * bulk_bytes)
            hot = yield from ctx.get_session_var("hot")
            count = _counter_value(hot) + 1
            yield from ctx.set_session_var(
                "hot", _counter_bytes(count, params.session_write_bytes)
            )
            return _counter_bytes(count, params.reply_bytes)

        return service_method1

    def _make_service_method2(self):
        params = self.params

        def service_method2(ctx, argument):
            yield from ctx.compute(self.msp2.config.costs.method_execution_ms)
            for name in ("SV2", "SV3"):
                yield from self._increment(ctx, name)
            bulk = yield from ctx.get_session_var("bulk")
            if bulk is None:
                yield from ctx.set_session_var(
                    "bulk", b"\x00" * (params.session_state_bytes - params.session_write_bytes)
                )
            hot = yield from ctx.get_session_var("hot")
            count = _counter_value(hot) + 1
            yield from ctx.set_session_var(
                "hot", _counter_bytes(count, params.session_write_bytes)
            )
            return _counter_bytes(count, params.reply_bytes)

        return service_method2

    # -- running ----------------------------------------------------------------

    def run(self, limit_ms: float = 36_000_000.0) -> PaperRunResult:
        """Drive all clients to completion and collect measurements."""
        params = self.params
        self.msp1.start_process()
        self.msp2.start_process()
        if self.state_server is not None:
            self.state_server.start()

        drivers = []
        argument = b"\x00" * params.request_arg_bytes

        def driver(session, stagger):
            yield 1.0 + stagger
            for _ in range(params.requests_per_client):
                yield from session.call("service_method1", argument)

        for i, session in enumerate(self.sessions):
            drivers.append(
                self.sim.spawn(driver(session, i * 0.1), name=f"driver{i}")
            )

        start_ms = self.sim.now
        for process in drivers:
            self.sim.run_until_process(process, limit=limit_ms)
        elapsed = self.sim.now - start_ms

        result = PaperRunResult(
            configuration=params.configuration,
            completed_requests=self.client.stats.calls,
            elapsed_ms=elapsed,
            response_times_ms=list(self.client.stats.response_times),
            crashes=self.crash_controller.crashes,
            msp1_cpu_utilization=self.msp1.cpu_utilization(since=start_ms),
            msp1_disk_utilization=(
                # Mean across the partition disks (identical to the
                # single disk at partitions=1).
                sum(d.utilization(since=start_ms) for d in self.msp1.disks)
                / len(self.msp1.disks)
            ),
            msp1_flushes=self.msp1.log.stats.physical_flushes if self.msp1.log else 0,
            msp2_flushes=self.msp2.log.stats.physical_flushes if self.msp2.log else 0,
            msp1_flushed_sectors=self.msp1.log.stats.flushed_sectors if self.msp1.log else 0,
            msp2_flushed_sectors=self.msp2.log.stats.flushed_sectors if self.msp2.log else 0,
            orphan_recoveries=self.msp1.stats.orphan_recoveries
            + self.msp2.stats.orphan_recoveries,
            replayed_requests=self.msp1.stats.replayed_requests
            + self.msp2.stats.replayed_requests,
            session_checkpoints=self.msp1.stats.session_checkpoints
            + self.msp2.stats.session_checkpoints,
        )
        # Let any in-flight crash recovery finish (a forced crash on the
        # final request leaves MSP2 mid-restart) so post-run inspection
        # sees quiesced servers.  Under lazy recovery that includes the
        # background pump: a still-pending session's unflushed-tail RMWs
        # have not been re-executed yet, so shared counters read stale
        # until every session is replayed.  Measurements were taken above.
        def _quiesced() -> bool:
            if not (self.msp1.running and self.msp2.running):
                return False
            return not any(
                s.lazy_pending or s.recovery_pending
                for msp in (self.msp1, self.msp2)
                for s in msp.sessions.values()
            )

        settle_deadline = self.sim.now + 60_000.0
        while self.sim.now < settle_deadline and not _quiesced():
            if not self.sim.step():
                break
        return result

    # -- verification --------------------------------------------------------------

    def shared_counters(self) -> dict[str, int]:
        return {
            "SV0": _counter_value(self.msp1.shared["SV0"].value),
            "SV1": _counter_value(self.msp1.shared["SV1"].value),
            "SV2": _counter_value(self.msp2.shared["SV2"].value),
            "SV3": _counter_value(self.msp2.shared["SV3"].value),
        }

    def verify_exactly_once(self) -> None:
        """Assert every completed request took effect exactly once.

        Valid for the recoverable configurations (the commercial
        baselines make no such promise under crashes — which is the
        point of the paper).
        """
        total = self.client.stats.calls
        counters = self.shared_counters()
        expected = {
            "SV0": total,
            "SV1": total,
            "SV2": total * self.params.calls_to_sm2,
            "SV3": total * self.params.calls_to_sm2,
        }
        if counters != expected:
            raise AssertionError(
                f"exactly-once violated: shared counters {counters}, expected {expected}"
            )
