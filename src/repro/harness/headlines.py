"""Headline results beyond the paper's figures, as gated experiments.

Each function here is one entry of ``repro.__main__.EXPERIMENTS``, in
the same shape as the §5 figure experiments next door: its rows are the
measured cells, its claims are the bounds, and ``python -m repro run
<name>`` exiting 1 on a failed claim is the gate (CI runs them through
``benchmarks/test_headline_results.py``).  A threshold is a constant
beside the claim that uses it, never a parameter; a claim whose bound
depends on the size that ran derives it from the rows.

Claims are on *simulated* quantities — properties of the seeded run,
not of the host — except ``fleet-scaling`` and ``trace-overhead``, whose
headline is a ratio of wall seconds measured inside one process; those
two run their cells one after another at any ``jobs`` so the cells do
not compete for cores.  ``seed`` offsets every fixed seed a cell uses;
``seed=0`` reproduces the numbers EXPERIMENTS.md quotes.
"""

from __future__ import annotations

import random
import time

from repro.core.dv import DependencyVector, StateId
from repro.core.log_manager import LogManager
from repro.core.records import (
    MspCheckpointRecord,
    ReplyRecord,
    RequestRecord,
    SvReadRecord,
    SvWriteRecord,
)
from repro.harness.experiments import ExperimentResult, sweep
from repro.sim import ProcessGroup, Simulator
from repro.storage import Disk, StableStore
from repro.trace.metrics import nearest_rank


def _sample_dv() -> DependencyVector:
    dv = DependencyVector()
    dv.observe("MSP1", StateId(0, 12345))
    dv.observe("MSP2", StateId(1, 987654))
    return dv


def _sample_records() -> list:
    """A representative mix of the high-frequency record kinds."""
    dv = _sample_dv()
    session = "client-7/session-41"
    return [
        RequestRecord(session, 17, "ServiceMethod1", b"x" * 64, dv),
        ReplyRecord(session, "msp1/out-3", 9, b"r" * 48, dv),
        SvReadRecord(session, "inventory", b"v" * 32, dv),
        SvWriteRecord(session, "inventory", b"w" * 32, dv, prev_write_lsn=4096),
    ]


# ---------------------------------------------------------------------------
# partition-scaling: group commit across P log partitions (DESIGN.md §14)
# ---------------------------------------------------------------------------

#: Floor on simulated append throughput at 4 partitions over 1.
PARTITION_MIN_SPEEDUP = 1.8


def _partition_cell(spec) -> dict:
    """One partition-count cell: concurrent session streams with group
    commit, on a log split across ``nparts`` stores/disks."""
    nparts, n, seed = spec
    sessions = 8
    sim = Simulator()
    stores = [
        StableStore(name="log" if i == 0 else f"log.p{i}") for i in range(nparts)
    ]
    disks = [Disk(sim, rng=random.Random(1234 + seed + i)) for i in range(nparts)]
    log = LogManager(sim, stores, disks)
    log.start(group=ProcessGroup("bench"))
    dv = _sample_dv()
    per_session = max(8, n // sessions)
    waits: list[float] = []

    def producer(session_id: str):
        # One record kind, one session id per producer: the stream is
        # partition-affine exactly like a real session's.  Values are
        # sized so a group-commit round is transfer-bound rather than
        # rotational-latency-bound — the regime where splitting the
        # write volume across disks pays (a latency-bound round is one
        # short write regardless of how many disks share it).
        record = SvWriteRecord(
            session_id=session_id,
            variable="inventory",
            value=b"w" * 1024,
            writer_dv=dv,
            prev_write_lsn=4096,
        )
        lsn = 0
        for i in range(per_session):
            lsn, _size = log.append(record)
            if i & 15 == 15:
                started = sim.now
                yield from log.flush(lsn)
                waits.append(sim.now - started)
        yield from log.flush(lsn)

    for s in range(sessions):
        # ``bench/session-0..7`` cover all residues of crc32 mod 8, so
        # the load is balanced at every P in {1, 2, 4, 8}.
        sim.spawn(producer(f"bench/session-{s}"))
    sim.run()
    total = per_session * sessions
    waits.sort()
    return {
        "partitions": nparts,
        "records": total,
        "sim_records_per_s": total / (sim.now / 1000.0),
        "flush_wait_mean_ms": sum(waits) / len(waits),
        "flush_wait_p99_ms": nearest_rank(waits, 0.99),
        "physical_flushes": log.stats.physical_flushes,
        "coalesced_flushes": log.stats.coalesced_flushes,
        "partitions_appended": sum(
            1 for unit in log.partitions
            if log.stats.partition(unit.index)["appends"]
        ),
    }


def partition_scaling(
    scale: float = 1.0, seed: int = 0, jobs=None, progress=None
) -> ExperimentResult:
    """Eight concurrent session streams append and group-commit against
    a log split P ways, each partition with its own disk and flusher.
    Flushes on different partitions overlap instead of serializing on
    one disk; simulated records/s is what that buys."""
    # Below ~50 records per stream a run is a handful of commit rounds
    # and the ratio measures their phase, not the disks.
    n = max(400, int(8_000 * scale))
    result = ExperimentResult(
        experiment="partition-scaling",
        description=f"Append + group commit of {n} records on P log partitions",
    )
    specs = [(nparts, n, seed) for nparts in (1, 2, 4, 8)]
    result.rows = sweep(_partition_cell, specs, jobs=jobs, progress=progress)
    p1, p4 = result.row_by("partitions", 1), result.row_by("partitions", 4)
    speedup = p4["sim_records_per_s"] / p1["sim_records_per_s"]
    result.claim(
        f"simulated append throughput at P=4 is >= {PARTITION_MIN_SPEEDUP:g}x "
        f"P=1 (measured {speedup:.2f}x)",
        speedup >= PARTITION_MIN_SPEEDUP,
    )
    result.claim(
        "the session streams spread over exactly P partitions in every cell",
        all(row["partitions_appended"] == row["partitions"] for row in result.rows),
    )
    result.claim(
        "mean flush wait falls from P=1 to P=4",
        p4["flush_wait_mean_ms"] < p1["flush_wait_mean_ms"],
    )
    return result


# ---------------------------------------------------------------------------
# instant-restart: lazy vs eager time to first reply (DESIGN.md §15)
# ---------------------------------------------------------------------------

#: Ceiling on lazy/eager time-to-first-reply on a wide server, and the
#: session count from which a server counts as wide; the win grows with
#: width, so narrower runs are held to the weaker ceiling.
INSTANT_RESTART_MAX_TTFR_RATIO = 0.2
INSTANT_RESTART_WIDE_SESSIONS = 10_000
INSTANT_RESTART_MAX_TTFR_RATIO_NARROW = 0.5


def _instant_restart_cell(spec) -> dict:
    """Build a server with ``n_sessions`` live sessions, crash it, and
    measure sim-ms from the restart to the first served reply (TTFR)
    plus the time until every session is recovered.

    Eager mode replays every session before opening — TTFR grows with
    the session count.  Lazy mode opens after the analysis scan and
    replays only the probed session inline; the pump drains the rest in
    the background (``full_recovery_ms`` shows that tail).
    """
    from repro.core import RecoveryConfig, ServiceDomainConfig
    from repro.core.client import EndClient
    from repro.core.msp import MiddlewareServer
    from repro.net import Network
    from repro.sim import RngRegistry

    mode, nparts, n_sessions, seed = spec
    sim = Simulator()
    rng = RngRegistry(7 + seed)
    net = Network(sim, rng=rng)
    config = RecoveryConfig(recovery_mode=mode, log_partitions=nparts)
    # A calm checkpoint cadence for a world this wide: the default 2 s
    # MSP checkpoint period plus 8-interval forced session checkpoints
    # would spend the whole build writing per-session checkpoints (the
    # build is longer than 16 s of sim time at 10k sessions).  One MSP
    # checkpoint still lands before the crash, bounding the analysis
    # scan, which is the shape a production restart sees.
    config.msp_ckpt_interval_ms = 10_000.0
    config.forced_ckpt_msp_count = 1_000_000
    msp = MiddlewareServer(
        sim, net, "msp1", ServiceDomainConfig(), config=config, rng=rng
    )

    def bump(ctx, argument):
        yield from ctx.compute(0.05)
        raw = yield from ctx.get_session_var("n")
        n = int.from_bytes(raw or b"\x00", "big") + 1
        yield from ctx.set_session_var("n", n.to_bytes(4, "big"))
        return n.to_bytes(4, "big")

    msp.register_service("bump", bump)
    msp.start_process()
    # Spread the sessions over a few client machines so the client-side
    # CPU (capacity 1 per machine) does not serialize the build.  Only
    # the probe's client (client0, which owns exactly one session) uses
    # a fine resend period — it quantizes the TTFR measurement.  Build
    # clients must never resend at all: every session calls
    # concurrently, so the server's inbox is thousands deep and queue
    # latency dwarfs any human-scale resend period — each waiting
    # session re-sending per period is O(n) duplicates per genuine
    # request, a quadratic flood.  The build network is fault-free and
    # the builders finish before the crash, so resends buy nothing.
    probe_client = EndClient(
        sim, net, "client0", resend_timeout_ms=5.0, busy_sleep_ms=5.0
    )
    clients = [
        EndClient(
            sim, net, f"client{i}", resend_timeout_ms=600_000.0,
            busy_sleep_ms=600_000.0,
        )
        for i in range(1, 1 + min(32, n_sessions))
    ]
    sessions = [probe_client.open_session("msp1")] + [
        clients[i % len(clients)].open_session("msp1")
        for i in range(n_sessions - 1)
    ]

    def builder(idx):
        # Stagger the openings so the inbox is a queue, not a spike.
        yield 0.2 * idx
        for _ in range(2):
            yield from sessions[idx].call("bump", b"")

    for proc in [sim.spawn(builder(i)) for i in range(n_sessions)]:
        sim.run_until_process(proc, limit=36_000_000)

    msp.crash()
    t0 = sim.now
    msp.restart_process()
    ttfr_box: list[float] = []

    def probe():
        result = yield from sessions[0].call("bump", b"")
        assert int.from_bytes(result.payload, "big") == 3
        ttfr_box.append(sim.now - t0)

    sim.run_until_process(sim.spawn(probe()), limit=36_000_000)

    def drain():
        # Coarse poll: the pending scan is O(sessions), so a 10 ms poll
        # over a 10k-session drain is itself quadratic wall time.
        while any(
            s.lazy_pending or s.recovery_pending for s in msp.sessions.values()
        ) or not msp.running:
            yield 500.0

    sim.run_until_process(sim.spawn(drain()), limit=36_000_000)
    return {
        "mode": mode,
        "partitions": nparts,
        "sessions": n_sessions,
        "ttfr_ms": ttfr_box[0],
        "full_recovery_ms": sim.now - t0,
        "inline_recoveries": msp.stats.inline_recoveries,
        "pump_recoveries": msp.stats.pump_recoveries,
        "served_before_recovery": msp.stats.served_before_recovery,
    }


def instant_restart(
    scale: float = 1.0, seed: int = 0, jobs=None, progress=None
) -> ExperimentResult:
    """Time to first reply after a crash, lazy vs eager restart, on the
    single log and on four partitions."""
    # Under 200 sessions eager replay is itself a few hundred ms and the
    # fixed restart delay hides the difference.
    n = max(200, int(10_000 * scale))
    bound = (
        INSTANT_RESTART_MAX_TTFR_RATIO if n >= INSTANT_RESTART_WIDE_SESSIONS
        else INSTANT_RESTART_MAX_TTFR_RATIO_NARROW
    )
    result = ExperimentResult(
        experiment="instant-restart",
        description=f"Restart of one MSP holding {n} live sessions (sim ms)",
    )
    specs = [(mode, P, n, seed) for P in (1, 4) for mode in ("eager", "lazy")]
    result.rows = sweep(
        _instant_restart_cell, specs, jobs=jobs, progress=progress
    )
    ttfr = {(row["mode"], row["partitions"]): row["ttfr_ms"] for row in result.rows}
    ratios = {P: ttfr["lazy", P] / ttfr["eager", P] for P in (1, 4)}
    result.claim(
        f"lazy TTFR <= {bound:g}x eager at every P with {n} sessions (measured "
        + ", ".join(f"P={P}: {1 / r:.1f}x sooner" for P, r in ratios.items())
        + ")",
        all(ratio <= bound for ratio in ratios.values()),
    )
    result.claim(
        "no session was served before it was replayed",
        all(row["served_before_recovery"] == 0 for row in result.rows),
    )
    result.claim(
        "every cell replayed every session exactly once, inline or by a "
        "drain worker",
        all(
            row["inline_recoveries"] + row["pump_recoveries"] == row["sessions"]
            for row in result.rows
        ),
    )
    result.claim(
        "eager cells replayed none inline",
        all(
            row["inline_recoveries"] == 0
            for row in result.rows
            if row["mode"] == "eager"
        ),
    )
    return result


# ---------------------------------------------------------------------------
# log-volume: value -> adaptive -> command logging (DESIGN.md §16)
# ---------------------------------------------------------------------------

#: Ceiling on command-mode over value-mode log bytes per request.
LOG_VOLUME_MAX_BYTES_RATIO = 0.5


def _log_volume_cell(spec) -> dict:
    """One §5.1 workload run under one (logging mode, P, recovery mode).

    The run is traced so the per-kind append counters and the recovery
    spans land in one MetricsRegistry; exactly-once is verified before
    any number is reported — a cell that loses an increment is a bug,
    not a fast configuration.
    """
    from repro.trace import Tracer
    from repro.workloads import PaperWorkload, WorkloadParams

    mode, nparts, recovery_mode, requests, seed = spec
    workload = PaperWorkload(
        WorkloadParams(
            configuration="LoOptimistic",
            requests_per_client=requests,
            num_clients=2,
            calls_to_sm2=1,
            # Two mid-run msp2 crashes so the recovery-time axis of the
            # overhead-vs-recovery spectrum is measured, not extrapolated.
            crash_every_n=max(8, (requests * 2) // 3),
            # Commutative RMW counters — the access pattern command logging
            # elides (plain read+write pairs stay value-logged by contract).
            atomic_sv_updates=True,
            log_partitions=nparts,
            recovery_mode=recovery_mode,
            logging_mode=mode,
            seed=seed,
        )
    )
    tracer = Tracer(workload.sim).attach()
    run = workload.run()
    tracer.finalize()
    workload.verify_exactly_once()

    counters = tracer.metrics.counters

    def records_of(kind: str) -> int:
        counter = counters.get(f"log.append.{kind}.records")
        return counter.value if counter is not None else 0

    appended_bytes = sum(
        counter.value
        for name, counter in counters.items()
        if name.startswith("log.append.") and name.endswith(".bytes")
    )
    # Crash recovery (restart to open-for-business) plus session replay
    # sim-time.  Eager nests replay inside the recovery span; lazy runs
    # replays after it — the sum is the total repair work either way.
    spans = tracer.metrics.histograms
    repair = sum(
        spans[name].total
        for name in ("span.recovery_ms", "span.recovery.session_ms")
        if name in spans
    )
    stats = (workload.msp1.stats, workload.msp2.stats)
    return {
        "logging_mode": mode,
        "partitions": nparts,
        "recovery_mode": recovery_mode,
        "requests": run.completed_requests,
        "crashes": run.crashes,
        # Total log volume (both MSPs, all kinds) over completed
        # end-client requests.
        "log_bytes_per_request": appended_bytes / max(1, run.completed_requests),
        "repair_ms": repair,
        "command_records": records_of("CommandRecord"),
        "sv_update_records": records_of("SvUpdateRecord"),
        "replayed_requests": sum(s.replayed_requests for s in stats),
        "replayed_commands": sum(s.replayed_commands for s in stats),
        "mode_switches": sum(s.mode_switches for s in stats),
    }


def log_volume(
    scale: float = 1.0, seed: int = 0, jobs=None, progress=None
) -> ExperimentResult:
    """Runtime log volume vs recovery time across the logging modes: the
    adaptive-logging trade of Yao et al. on the §5.1 workload, two
    clients, MSP2 killed twice, at P in {1, 4}, eager and lazy."""
    requests = max(16, int(100 * scale))
    result = ExperimentResult(
        experiment="log-volume",
        description=(
            f"Log bytes per request and repair time, 2 clients x {requests} "
            "requests with MSP2 crashes, each cell verified exactly-once"
        ),
    )
    specs = [
        (mode, P, rmode, requests, seed)
        for mode in ("value", "adaptive", "command")
        for P in (1, 4)
        for rmode in ("eager", "lazy")
    ]
    result.rows = sweep(_log_volume_cell, specs, jobs=jobs, progress=progress)
    bpr = {
        (row["logging_mode"], row["partitions"], row["recovery_mode"]):
            row["log_bytes_per_request"]
        for row in result.rows
    }
    ratios = [
        bpr["command", P, rmode] / bpr["value", P, rmode]
        for P in (1, 4)
        for rmode in ("eager", "lazy")
    ]
    result.claim(
        f"command logging writes <= {LOG_VOLUME_MAX_BYTES_RATIO:g}x value "
        "logging's bytes per request at every (P, recovery mode) (measured "
        f"{min(ratios):.2f}-{max(ratios):.2f}x)",
        max(ratios) <= LOG_VOLUME_MAX_BYTES_RATIO,
    )
    result.claim(
        "value cells logged no command record and never switched mode",
        all(
            row["command_records"] == 0 and row["mode_switches"] == 0
            for row in result.rows if row["logging_mode"] == "value"
        ),
    )
    result.claim(
        "command cells logged no shared-variable update record and replayed "
        "every request as a command",
        all(
            row["sv_update_records"] == 0
            and row["replayed_commands"] == row["replayed_requests"]
            for row in result.rows if row["logging_mode"] == "command"
        ),
    )
    result.claim(
        "every cell crashed at least once",
        all(row["crashes"] >= 1 for row in result.rows),
    )
    return result


# ---------------------------------------------------------------------------
# log-space: checkpoint-driven truncation keeps the live log flat (§12)
# ---------------------------------------------------------------------------

_SEGMENT_BYTES = 16 * 1024
_CKPT_EVERY = 512
#: Segment-granularity slack on the bounded-space claim: the floor can
#: trail the checkpoint by up to one segment per recycle boundary, the
#: checkpoint record itself and the next interval's appends pile on top.
LOG_SPACE_SLACK_SEGMENTS = 4


def _log_space_cell(spec) -> list[dict]:
    """Drive one long append run, checkpointing (and optionally
    truncating) every ``_CKPT_EVERY`` appends; one row per sample of the
    live log at n/4, n/2 and n records."""
    truncation, n, seed = spec
    sim = Simulator()
    store = StableStore(segment_bytes=_SEGMENT_BYTES)
    disk = Disk(sim, rng=random.Random(1234 + seed))
    log = LogManager(sim, store, disk)
    log.start(group=ProcessGroup("bench"))
    records = _sample_records()
    marks = (n // 4, n // 2, n)
    rows: list[dict] = []
    peak = 0

    def producer():
        nonlocal peak
        for i in range(n):
            log.append(records[i & 3])
            if (i + 1) % _CKPT_EVERY == 0:
                # Empty position maps: the floor is the log's end at
                # the checkpoint, the most aggressive legal one.
                ckpt = MspCheckpointRecord(
                    recovered_snapshot={}, session_start_lsns={},
                    sv_start_lsns={}, partition_ends=log.partition_ends(),
                )
                clsn, _size = log.append(ckpt)
                yield from log.flush(clsn)
                yield from log.write_anchor(clsn)
                # Live bytes peak right before the recycle.
                peak = max(peak, store.live_bytes)
                if truncation:
                    yield from log.truncate_to(ckpt.partition_floors(clsn))
            if i + 1 in marks:
                rows.append(
                    {
                        "workload": "append",
                        "truncation": truncation,
                        "records": i + 1,
                        "live_bytes": store.live_bytes,
                        "peak_live_bytes": max(peak, store.live_bytes),
                        "appended_bytes": log.stats.appended_bytes,
                        "recycled_segments": log.stats.recycled_segments,
                    }
                )
        yield from log.flush()

    sim.run_process(producer())
    return rows


def _partitioned_space_row(requests: int, seed: int) -> dict:
    """The §5.1 workload on four partitions with a fast checkpoint
    cadence and small segments: per-partition truncation at work."""
    from repro.workloads import PaperWorkload, WorkloadParams

    workload = PaperWorkload(
        WorkloadParams(
            configuration="LoOptimistic", requests_per_client=requests,
            num_clients=2, calls_to_sm2=1, seed=seed,
            msp_ckpt_interval_ms=40.0, log_segment_bytes=2048,
            sv_ckpt_write_threshold=6, forced_ckpt_msp_count=2,
            log_partitions=4,
        )
    )
    workload.run()
    log = workload.msp1.log
    return {
        "workload": "msp1, P=4",
        "truncation": True,
        "records": log.stats.appended_records,
        "live_bytes": sum(unit.store.live_bytes for unit in log.partitions),
        "appended_bytes": log.stats.appended_bytes,
        "recycled_segments": log.stats.recycled_segments,
    }


def log_space(
    scale: float = 1.0, seed: int = 0, jobs=None, progress=None
) -> ExperimentResult:
    """Long-run log space with truncation on vs off: live bytes stay
    within one checkpoint interval (plus segment slack) when on and grow
    with the appended volume when off."""
    # Four checkpoint intervals at least: fewer and the n/4 sample
    # precedes the first truncation, so flatness cannot be observed.
    n = max(4 * _CKPT_EVERY, int(20_000 * scale))
    result = ExperimentResult(
        experiment="log-space",
        description=(
            f"Live log bytes over {n} appends, checkpoint every {_CKPT_EVERY}, "
            f"{_SEGMENT_BYTES // 1024} KiB segments"
        ),
    )
    specs = [(truncation, n, seed) for truncation in (True, False)]
    on, off = sweep(_log_space_cell, specs, jobs=jobs, progress=progress)
    partitioned = _partitioned_space_row(max(100, int(1_200 * scale)), seed)
    result.rows = on + off + [partitioned]
    bound = (
        _CKPT_EVERY * on[-1]["appended_bytes"] / n
        + LOG_SPACE_SLACK_SEGMENTS * _SEGMENT_BYTES
    )
    result.claim(
        "with truncation, peak live bytes stay within one checkpoint interval "
        f"+ {LOG_SPACE_SLACK_SEGMENTS} segments ({on[-1]['peak_live_bytes']} "
        f"<= {bound:.0f})",
        on[-1]["peak_live_bytes"] <= bound,
    )
    result.claim(
        "with truncation, the final sample is within the same bound (flat)",
        on[-1]["live_bytes"] <= bound,
    )
    result.claim(
        "without truncation the log ends >= 2x larger and grew >= 2x from "
        "the first sample to the last",
        off[-1]["live_bytes"] >= 2 * on[-1]["live_bytes"]
        and off[-1]["live_bytes"] >= 2 * off[0]["live_bytes"],
    )
    result.claim(
        "truncation recycled at least one segment",
        on[-1]["recycled_segments"] >= 1,
    )
    result.claim(
        "four partitions under the paper workload: segments recycled and "
        "live bytes under half the appended volume",
        partitioned["recycled_segments"] > 0
        and partitioned["live_bytes"] < partitioned["appended_bytes"] / 2,
    )
    return result


# ---------------------------------------------------------------------------
# fleet-scaling: shard scaling of the fleet simulation (DESIGN.md §17)
# ---------------------------------------------------------------------------

#: Floor on the S=4 critical-path speedup, and the session count from
#: which per-epoch work outweighs barrier accounting; smaller runs are
#: held to the weaker floor.
FLEET_MIN_SPEEDUP = 1.8
FLEET_WIDE_SESSIONS = 500
FLEET_MIN_SPEEDUP_NARROW = 1.3
#: The open-loop bounded-memory claim is about long runs.
FLEET_OPEN_LOOP_MIN_SESSIONS = 100_000


def _fleet_cell(spec) -> dict:
    """One fleet run: busy and critical-path seconds (jobs=1 only), real
    throughput, the truncation counters and the fingerprint."""
    from repro.fleet import FleetSpec, fleet_fingerprint, run_fleet

    shards, jobs, sessions, seed, open_loop = spec
    # Only ``shards`` varies between the scaling cells; the traffic plan
    # is identical, so busy-time ratios compare the cost of simulating
    # the *same* fleet.
    traffic = (
        dict(seed=23 + seed, duration_ms=600_000.0, cross_domain_fraction=0.25,
             max_requests_per_session=3)
        if open_loop else
        dict(seed=11 + seed, duration_ms=8_000.0, cross_domain_fraction=0.5,
             crash_plan=((1_500.0, "m001"), (4_500.0, "m004")))
    )
    fleet = FleetSpec(
        msps=16, domains=8, shards=shards, sessions=sessions, chain_depth=1,
        think_ms=2.0, epoch_ms=40.0, cross_latency_ms=40.0, **traffic,
    )
    result = run_fleet(fleet, jobs=jobs)
    logs = [stats for shard in result["shards"] for stats in shard["log"].values()]
    workers = result["timing"]["workers"] if jobs == 1 else {}
    return {
        "shards": fleet.shards,
        "jobs": jobs,
        "sessions": result["totals"]["completed_sessions"],
        "calls": result["totals"]["completed_calls"],
        "busy_s": workers.get("busy_s"),
        "critical_s": workers.get("critical_s"),
        "wall_req_per_s": result["timing"]["wall_req_per_s"],
        "recycled_segments": sum(stats["recycled_segments"] for stats in logs),
        "live_bytes": sum(stats["live_bytes"] for stats in logs),
        "clean": result["verdicts"]["clean"],
        "fingerprint": fleet_fingerprint(result)[:16],
    }


def fleet_scaling(
    scale: float = 1.0, seed: int = 0, jobs=None, progress=None
) -> ExperimentResult:
    """The same 16-MSP / 8-domain open-loop workload (mixed intra- and
    cross-domain chains, two mid-run crashes) simulated as S in {1, 2,
    4} shards on the jobs=1 reference path, which times every shard's
    stepping per epoch.  The headline is the *critical-path* speedup:
    busy seconds of the unsharded run over the per-epoch-max busy
    seconds of the S=4 run — the wall factor a host with one core per
    shard achieves, which a single-core CI box can neither show nor
    fake.  The S=4 spec reruns on a four-worker pool to compare
    fingerprints, and at ``scale >= 1`` a >= 100k-session open-loop cell
    reports the bounded-memory truncation counters."""
    # Under ~200 sessions a cell is a tenth of a second of stepping and
    # one scheduler hiccup decides the busy-time ratio.
    sessions = max(240, int(1_200 * scale))
    result = ExperimentResult(
        experiment="fleet-scaling",
        description=f"Sharded fleet simulation, {sessions} sessions per cell",
    )
    specs = [(S, 1, sessions, seed, False) for S in (1, 2, 4)]
    specs.append((4, 4, sessions, seed, False))
    if scale >= 1.0:
        specs.append((4, 1, int(100_000 * scale), seed, True))
    # Wall-timed cells: one after another whatever ``jobs`` says.
    result.rows = sweep(_fleet_cell, specs, jobs=1, progress=progress)
    s1, _s2, s4, pool = result.rows[:4]
    floor = (
        FLEET_MIN_SPEEDUP if sessions >= FLEET_WIDE_SESSIONS
        else FLEET_MIN_SPEEDUP_NARROW
    )
    speedup = s1["busy_s"] / max(s4["critical_s"], 1e-9)
    result.claim(
        f"critical-path speedup at S=4 is >= {floor:g}x with {sessions} "
        f"sessions (measured {speedup:.2f}x)",
        speedup >= floor,
    )
    result.claim(
        "the S=4 run on a four-worker pool fingerprints identically to jobs=1",
        pool["fingerprint"] == s4["fingerprint"],
    )
    result.claim("every cell finished clean", all(row["clean"] for row in result.rows))
    result.claim(
        "every shard count completed the same calls",
        len({row["calls"] for row in result.rows[:4]}) == 1,
    )
    for big in result.rows[4:]:
        result.claim(
            f"open loop: >= {FLEET_OPEN_LOOP_MIN_SESSIONS:,} sessions completed, "
            "segments recycled, live log under 1 KiB per call",
            big["sessions"] >= FLEET_OPEN_LOOP_MIN_SESSIONS
            and big["recycled_segments"] > 0
            and big["live_bytes"] < big["calls"] * 1024,
        )
    return result


# ---------------------------------------------------------------------------
# trace-overhead: the structured tracer's cost contract (DESIGN.md §13)
# ---------------------------------------------------------------------------

#: Ceiling on traced over untraced wall seconds of the same workload.
TRACE_MAX_OVERHEAD_RATIO = 5.0


def _trace_cell(spec) -> dict:
    """The seeded Fig. 14-shaped workload, plain (``sim.tracer`` is
    ``None``, the guard branch every instrumentation site takes) or with
    a :class:`repro.trace.Tracer` attached."""
    from repro.trace import Tracer
    from repro.workloads import PaperWorkload, WorkloadParams

    traced, requests, seed = spec
    workload = PaperWorkload(
        WorkloadParams(
            configuration="LoOptimistic", requests_per_client=requests,
            num_clients=1, calls_to_sm2=1, seed=seed,
        )
    )
    tracer = Tracer(workload.sim).attach() if traced else None
    start = time.perf_counter()
    run = workload.run()
    seconds = time.perf_counter() - start
    if tracer is not None:
        tracer.finalize()
    return {
        "mode": "traced" if traced else "plain",
        "requests": run.completed_requests,
        "seconds": seconds,
        "trace_events": len(tracer.events) if tracer is not None else 0,
    }


def trace_overhead(
    scale: float = 1.0, seed: int = 0, jobs=None, progress=None
) -> ExperimentResult:
    """Wall-time cost of the structured tracer, on vs off, as a ratio
    within one process so the host's speed cancels out."""
    # Fifty requests is ~25 ms of wall time; below that one collector
    # pause decides the ratio.
    requests = max(50, int(200 * scale))
    result = ExperimentResult(
        experiment="trace-overhead",
        description=f"One client x {requests} requests, tracing off vs on (wall s)",
    )
    specs = [(traced, requests, seed) for traced in (False, True)]
    # Wall-timed cells: one after another whatever ``jobs`` says.
    result.rows = sweep(_trace_cell, specs, jobs=1, progress=progress)
    plain, traced = result.rows
    ratio = traced["seconds"] / max(plain["seconds"], 1e-9)
    result.claim(
        f"the traced run takes <= {TRACE_MAX_OVERHEAD_RATIO:g}x the untraced "
        f"one (measured {ratio:.2f}x)",
        ratio <= TRACE_MAX_OVERHEAD_RATIO,
    )
    result.claim("the traced run emitted events", traced["trace_events"] > 0)
    result.claim(
        "tracing did not change the completed requests",
        traced["requests"] == plain["requests"],
    )
    return result
