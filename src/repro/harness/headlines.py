"""Headline results beyond the paper's figures, as gated experiments.

Each is an :class:`~repro.harness.experiments.Experiment` declaration
in the shape of the §5 figure experiments next door: its rows are the
measured cells, its claims are the bounds, and ``python -m repro run
<name>`` exiting 1 on a failed claim is the gate (CI runs them through
``benchmarks/test_headline_results.py``).  A threshold is a constant
beside the claim that uses it, never a parameter; a claim whose bound
depends on the size that ran derives it from the rows.

Claims are on *simulated* quantities — properties of the seeded run,
never of the host — so every row and claim is the same at any ``jobs``
and on any machine.  ``seed`` offsets every fixed seed a cell uses;
``seed=0`` reproduces the numbers EXPERIMENTS.md quotes.
"""

from __future__ import annotations

import random

from repro.core.dv import DependencyVector, StateId
from repro.core.log_manager import LogManager
from repro.core.records import (
    MspCheckpointRecord,
    ReplyRecord,
    RequestRecord,
    SvReadRecord,
    SvWriteRecord,
)
from repro.harness.experiments import Claim, Experiment
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


def _partition_cell(spec: dict) -> list[dict]:
    """One partition-count cell: concurrent session streams with group
    commit, on a log split across ``nparts`` stores/disks."""
    nparts, n, seed = spec["partitions"], spec["records"], spec["seed"]
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
    return [{
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
    }]


def _partition_specs(scale: float, seed: int) -> list[dict]:
    # Below ~50 records per stream a run is a handful of commit rounds
    # and the ratio measures their phase, not the disks.
    records = max(400, int(8_000 * scale))
    return [dict(partitions=P, records=records, seed=seed) for P in (1, 2, 4, 8)]


def _partition_claims(rows: list[dict]) -> list[Claim]:
    by_partitions = {row["partitions"]: row for row in rows}
    p1, p4 = by_partitions[1], by_partitions[4]
    speedup = p4["sim_records_per_s"] / p1["sim_records_per_s"]
    return [
        (
            f"simulated append throughput at P=4 is >= {PARTITION_MIN_SPEEDUP:g}x "
            f"P=1 (measured {speedup:.2f}x)",
            speedup >= PARTITION_MIN_SPEEDUP,
        ),
        (
            "the session streams spread over exactly P partitions in every cell",
            all(row["partitions_appended"] == row["partitions"] for row in rows),
        ),
        (
            "mean flush wait falls from P=1 to P=4",
            p4["flush_wait_mean_ms"] < p1["flush_wait_mean_ms"],
        ),
    ]


#: Eight concurrent session streams append and group-commit against a
#: log split P ways, each partition with its own disk and flusher.
#: Flushes on different partitions overlap instead of serializing on one
#: disk; simulated records/s is what that buys.
partition_scaling = Experiment(
    name="partition-scaling",
    description="Append + group commit of {records} records on P log partitions",
    specs=_partition_specs,
    cell=_partition_cell,
    claims=_partition_claims,
)


# ---------------------------------------------------------------------------
# instant-restart: lazy vs eager time to first reply (DESIGN.md §15)
# ---------------------------------------------------------------------------

#: Ceiling on lazy/eager time-to-first-reply on a wide server, and the
#: session count from which a server counts as wide; the win grows with
#: width, so narrower runs are held to the weaker ceiling.
INSTANT_RESTART_MAX_TTFR_RATIO = 0.2
INSTANT_RESTART_WIDE_SESSIONS = 10_000
INSTANT_RESTART_MAX_TTFR_RATIO_NARROW = 0.5


def _instant_restart_cell(spec: dict) -> list[dict]:
    """Build a server with ``n_sessions`` live sessions, crash it, and
    measure sim-ms from the restart to the first served reply (TTFR)
    plus the time until every session is recovered.

    Both modes open for traffic after the analysis scan and replay
    through one drain whose worker count is the mode (DESIGN.md §15).
    Eager starts one worker per session, so every replay contends for
    the CPU and the log at once and the probed session finishes with the
    crowd — TTFR grows with the session count.  Lazy runs a few workers,
    and a request that finds its session pending replays it inline, so
    the probe is served early and the rest drain in the background
    (``full_recovery_ms`` shows that tail).
    """
    from repro.core import RecoveryConfig, ServiceDomainConfig
    from repro.core.client import EndClient
    from repro.core.msp import MiddlewareServer
    from repro.net import Network
    from repro.sim import RngRegistry

    mode, nparts, n_sessions, seed = (
        spec["mode"], spec["partitions"], spec["sessions"], spec["seed"]
    )
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
    return [{
        "mode": mode,
        "partitions": nparts,
        "sessions": n_sessions,
        "ttfr_ms": ttfr_box[0],
        "full_recovery_ms": sim.now - t0,
        "inline_recoveries": msp.stats.inline_recoveries,
        "pump_recoveries": msp.stats.pump_recoveries,
        "served_before_recovery": msp.stats.served_before_recovery,
    }]


def _instant_restart_specs(scale: float, seed: int) -> list[dict]:
    # Under 200 sessions eager replay is itself a few hundred ms and the
    # fixed restart delay hides the difference.
    sessions = max(200, int(10_000 * scale))
    return [
        dict(mode=mode, partitions=P, sessions=sessions, seed=seed)
        for P in (1, 4)
        for mode in ("eager", "lazy")
    ]


def _instant_restart_claims(rows: list[dict]) -> list[Claim]:
    n = rows[0]["sessions"]
    bound = (
        INSTANT_RESTART_MAX_TTFR_RATIO if n >= INSTANT_RESTART_WIDE_SESSIONS
        else INSTANT_RESTART_MAX_TTFR_RATIO_NARROW
    )
    ttfr = {(row["mode"], row["partitions"]): row["ttfr_ms"] for row in rows}
    ratios = {P: ttfr["lazy", P] / ttfr["eager", P] for P in (1, 4)}
    return [
        (
            f"lazy TTFR <= {bound:g}x eager at every P with {n} sessions (measured "
            + ", ".join(f"P={P}: {1 / r:.1f}x sooner" for P, r in ratios.items())
            + ")",
            all(ratio <= bound for ratio in ratios.values()),
        ),
        (
            "no session was served before it was replayed",
            all(row["served_before_recovery"] == 0 for row in rows),
        ),
        (
            "every cell replayed every session exactly once, inline or by a "
            "drain worker",
            all(
                row["inline_recoveries"] + row["pump_recoveries"] == row["sessions"]
                for row in rows
            ),
        ),
        (
            "eager cells replayed none inline",
            all(row["inline_recoveries"] == 0 for row in rows if row["mode"] == "eager"),
        ),
    ]


#: Time to first reply after a crash, lazy vs eager restart, on the
#: single log and on four partitions.
instant_restart = Experiment(
    name="instant-restart",
    description="Restart of one MSP holding {sessions} live sessions (sim ms)",
    specs=_instant_restart_specs,
    cell=_instant_restart_cell,
    claims=_instant_restart_claims,
)


# ---------------------------------------------------------------------------
# log-volume: value -> adaptive -> command logging (DESIGN.md §16)
# ---------------------------------------------------------------------------

#: Ceiling on command-mode over value-mode log bytes per request.
LOG_VOLUME_MAX_BYTES_RATIO = 0.5


def _log_volume_cell(spec: dict) -> list[dict]:
    """One §5.1 workload run under one (logging mode, P, recovery mode).

    The run is traced so the per-kind append counters and the recovery
    spans land in one MetricsRegistry; exactly-once is verified before
    any number is reported — a cell that loses an increment is a bug,
    not a fast configuration.
    """
    from repro.trace import Tracer
    from repro.workloads import PaperWorkload, WorkloadParams

    mode, nparts, recovery_mode, requests, seed = (
        spec["logging_mode"], spec["partitions"], spec["recovery_mode"],
        spec["requests"], spec["seed"],
    )
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
    return [{
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
    }]


def _log_volume_claims(rows: list[dict]) -> list[Claim]:
    bpr = {
        (row["logging_mode"], row["partitions"], row["recovery_mode"]):
            row["log_bytes_per_request"]
        for row in rows
    }
    ratios = [
        bpr["command", P, rmode] / bpr["value", P, rmode]
        for P in (1, 4)
        for rmode in ("eager", "lazy")
    ]
    return [
        (
            f"command logging writes <= {LOG_VOLUME_MAX_BYTES_RATIO:g}x value "
            "logging's bytes per request at every (P, recovery mode) (measured "
            f"{min(ratios):.2f}-{max(ratios):.2f}x)",
            max(ratios) <= LOG_VOLUME_MAX_BYTES_RATIO,
        ),
        (
            "value cells logged no command record and never switched mode",
            all(
                row["command_records"] == 0 and row["mode_switches"] == 0
                for row in rows if row["logging_mode"] == "value"
            ),
        ),
        (
            "command cells logged no shared-variable update record and replayed "
            "every request as a command",
            all(
                row["sv_update_records"] == 0
                and row["replayed_commands"] == row["replayed_requests"]
                for row in rows if row["logging_mode"] == "command"
            ),
        ),
        ("every cell crashed at least once", all(row["crashes"] >= 1 for row in rows)),
    ]


#: Runtime log volume vs recovery time across the logging modes: the
#: adaptive-logging trade of Yao et al. on the §5.1 workload, two
#: clients, MSP2 killed twice, at P in {1, 4}, eager and lazy.
log_volume = Experiment(
    name="log-volume",
    description=(
        "Log bytes per request and repair time, 2 clients x {requests} requests "
        "with MSP2 crashes, each cell verified exactly-once"
    ),
    specs=lambda scale, seed: [
        dict(logging_mode=mode, partitions=P, recovery_mode=rmode,
             requests=max(16, int(100 * scale)), seed=seed)
        for mode in ("value", "adaptive", "command")
        for P in (1, 4)
        for rmode in ("eager", "lazy")
    ],
    cell=_log_volume_cell,
    claims=_log_volume_claims,
)


# ---------------------------------------------------------------------------
# log-space: checkpoint-driven truncation keeps the live log flat (§12)
# ---------------------------------------------------------------------------

_SEGMENT_BYTES = 16 * 1024
_CKPT_EVERY = 512
#: Segment-granularity slack on the bounded-space claim: the floor can
#: trail the checkpoint by up to one segment per recycle boundary, the
#: checkpoint record itself and the next interval's appends pile on top.
LOG_SPACE_SLACK_SEGMENTS = 4


def _log_space_cell(spec: dict) -> list[dict]:
    """One row per sample of a live log: the append run's at n/4, n/2
    and n records, or the paper workload's at its end."""
    if spec["workload"] == "append":
        return _append_space_rows(spec["truncation"], spec["appends"], spec["seed"])
    return [_partitioned_space_row(spec["requests"], spec["seed"])]


def _append_space_rows(truncation: bool, n: int, seed: int) -> list[dict]:
    """Drive one long append run, checkpointing (and optionally
    truncating) every ``_CKPT_EVERY`` appends."""
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


def _log_space_specs(scale: float, seed: int) -> list[dict]:
    # Four checkpoint intervals at least: fewer and the n/4 sample
    # precedes the first truncation, so flatness cannot be observed.
    appends = max(4 * _CKPT_EVERY, int(20_000 * scale))
    return [
        dict(workload="append", truncation=truncation, appends=appends, seed=seed)
        for truncation in (True, False)
    ] + [dict(workload="paper", requests=max(100, int(1_200 * scale)), seed=seed)]


def _log_space_claims(rows: list[dict]) -> list[Claim]:
    on, off, partitioned = rows[:3], rows[3:6], rows[6]
    bound = (
        _CKPT_EVERY * on[-1]["appended_bytes"] / on[-1]["records"]
        + LOG_SPACE_SLACK_SEGMENTS * _SEGMENT_BYTES
    )
    return [
        (
            "with truncation, peak live bytes stay within one checkpoint interval "
            f"+ {LOG_SPACE_SLACK_SEGMENTS} segments ({on[-1]['peak_live_bytes']} "
            f"<= {bound:.0f})",
            on[-1]["peak_live_bytes"] <= bound,
        ),
        (
            "with truncation, the final sample is within the same bound (flat)",
            on[-1]["live_bytes"] <= bound,
        ),
        (
            "without truncation the log ends >= 2x larger and grew >= 2x from "
            "the first sample to the last",
            off[-1]["live_bytes"] >= 2 * on[-1]["live_bytes"]
            and off[-1]["live_bytes"] >= 2 * off[0]["live_bytes"],
        ),
        ("truncation recycled at least one segment", on[-1]["recycled_segments"] >= 1),
        (
            "four partitions under the paper workload: segments recycled and "
            "live bytes under half the appended volume",
            partitioned["recycled_segments"] > 0
            and partitioned["live_bytes"] < partitioned["appended_bytes"] / 2,
        ),
    ]


#: Long-run log space with truncation on vs off: live bytes stay within
#: one checkpoint interval (plus segment slack) when on and grow with the
#: appended volume when off.
log_space = Experiment(
    name="log-space",
    description=(
        "Live log bytes over {appends} appends, "
        f"checkpoint every {_CKPT_EVERY}, {_SEGMENT_BYTES // 1024} KiB segments"
    ),
    specs=_log_space_specs,
    cell=_log_space_cell,
    claims=_log_space_claims,
)


# ---------------------------------------------------------------------------
# fleet-scaling: shard scaling of the fleet simulation (DESIGN.md §17)
# ---------------------------------------------------------------------------

#: Floor on the S=4 critical-path speedup in simulator steps.
FLEET_MIN_SPEEDUP = 1.8
#: The open-loop bounded-memory claim is about long runs.
FLEET_OPEN_LOOP_MIN_SESSIONS = 100_000


def _fleet_cell(spec: dict) -> list[dict]:
    """One fleet run: total and critical-path simulator steps, the
    truncation counters and the fingerprint."""
    from repro.fleet import FleetSpec, fleet_fingerprint, run_fleet

    shards, jobs, seed = spec["shards"], spec["jobs"], spec["seed"]
    # Only ``shards`` varies between the scaling cells; the traffic plan
    # is identical, so step ratios compare the cost of simulating the
    # *same* fleet.
    traffic = (
        dict(seed=23 + seed, duration_ms=600_000.0, cross_domain_fraction=0.25,
             max_requests_per_session=3)
        if spec["open_loop"] else
        dict(seed=11 + seed, duration_ms=8_000.0, cross_domain_fraction=0.5,
             crash_plan=((1_500.0, "m001"), (4_500.0, "m004")))
    )
    fleet = FleetSpec(
        msps=16, domains=8, shards=shards, sessions=spec["sessions"], chain_depth=1,
        think_ms=2.0, epoch_ms=40.0, cross_latency_ms=40.0, **traffic,
    )
    result = run_fleet(fleet, jobs=jobs)
    logs = [stats for shard in result["shards"] for stats in shard["log"].values()]
    totals = result["totals"]
    return [{
        "shards": fleet.shards,
        "jobs": jobs,
        "sessions": totals["completed_sessions"],
        "calls": totals["completed_calls"],
        "steps": totals["steps"],
        "critical_steps": totals["critical_steps"],
        "recycled_segments": sum(stats["recycled_segments"] for stats in logs),
        "live_bytes": sum(stats["live_bytes"] for stats in logs),
        "clean": result["verdicts"]["clean"],
        "fingerprint": fleet_fingerprint(result)[:16],
    }]


def _fleet_specs(scale: float, seed: int) -> list[dict]:
    sessions = max(240, int(1_200 * scale))
    specs = [
        dict(shards=S, jobs=jobs, sessions=sessions, seed=seed, open_loop=False)
        for S, jobs in ((1, 1), (2, 1), (4, 1), (4, 4))
    ]
    if scale >= 1.0:
        specs.append(dict(shards=4, jobs=1, sessions=int(100_000 * scale), seed=seed,
                          open_loop=True))
    return specs


def _fleet_claims(rows: list[dict]) -> list[Claim]:
    s1, _s2, s4, pool = rows[:4]
    speedup = s1["steps"] / s4["critical_steps"]
    claims = [
        (
            f"critical-path speedup at S=4 is >= {FLEET_MIN_SPEEDUP:g}x in simulator "
            f"steps with {s1['sessions']} sessions (measured {speedup:.2f}x)",
            speedup >= FLEET_MIN_SPEEDUP,
        ),
        (
            "the S=4 run on a four-worker pool fingerprints identically to jobs=1",
            pool["fingerprint"] == s4["fingerprint"],
        ),
        ("every cell finished clean", all(row["clean"] for row in rows)),
        (
            "every shard count completed the same calls",
            len({row["calls"] for row in rows[:4]}) == 1,
        ),
    ]
    for big in rows[4:]:
        claims.append((
            f"open loop: >= {FLEET_OPEN_LOOP_MIN_SESSIONS:,} sessions completed, "
            "segments recycled, live log under 1 KiB per call",
            big["sessions"] >= FLEET_OPEN_LOOP_MIN_SESSIONS
            and big["recycled_segments"] > 0
            and big["live_bytes"] < big["calls"] * 1024,
        ))
    return claims


#: The same 16-MSP / 8-domain open-loop workload (mixed intra- and
#: cross-domain chains, two mid-run crashes) simulated as S in {1, 2, 4}
#: shards.  The headline is the *critical-path* speedup in work: the
#: unsharded run's simulator steps over the S=4 run's sum, over epochs,
#: of the busiest shard's steps — the load balance the decomposition
#: achieves, exact and host-independent.  The S=4 spec reruns on a
#: four-worker pool to compare fingerprints (which cover the step
#: counts), and at ``scale >= 1`` a >= 100k-session open-loop cell
#: reports the bounded-memory truncation counters.
fleet_scaling = Experiment(
    name="fleet-scaling",
    description="Sharded fleet simulation, {sessions} sessions per cell",
    specs=_fleet_specs,
    cell=_fleet_cell,
    claims=_fleet_claims,
)


# ---------------------------------------------------------------------------
# trace-overhead: the structured tracer's cost contract (DESIGN.md §13)
# ---------------------------------------------------------------------------


def _trace_cell(spec: dict) -> list[dict]:
    """The seeded Fig. 14-shaped workload, plain (``sim.tracer`` is
    ``None``, the guard branch every instrumentation site takes) or with
    a :class:`repro.trace.Tracer` attached."""
    from repro.trace import Tracer
    from repro.workloads import PaperWorkload, WorkloadParams

    traced = spec["traced"]
    workload = PaperWorkload(
        WorkloadParams(
            configuration="LoOptimistic", requests_per_client=spec["requests"],
            num_clients=1, calls_to_sm2=1, seed=spec["seed"],
        )
    )
    tracer = Tracer(workload.sim).attach() if traced else None
    run = workload.run()
    if tracer is not None:
        tracer.finalize()
    return [{
        "mode": "traced" if traced else "plain",
        "requests": run.completed_requests,
        "steps": workload.sim.steps,
        "trace_events": len(tracer.events) if tracer is not None else 0,
    }]


def _trace_claims(rows: list[dict]) -> list[Claim]:
    plain, traced = rows
    return [
        (
            "traced and untraced runs take the same simulator steps",
            traced["steps"] == plain["steps"],
        ),
        ("the traced run emitted events", traced["trace_events"] > 0),
        (
            "tracing did not change the completed requests",
            traced["requests"] == plain["requests"],
        ),
    ]


#: The structured tracer, on vs off: it observes the run without
#: scheduling a callback of its own (DESIGN.md §13), so both runs take
#: the same simulator steps.  Its wall-time cost is the benchmark's
#: ``harness.trace_overhead_ratio``.
trace_overhead = Experiment(
    name="trace-overhead",
    description="One client x {requests} requests, tracing off vs on",
    specs=lambda scale, seed: [
        dict(traced=traced, requests=max(50, int(200 * scale)), seed=seed)
        for traced in (False, True)
    ],
    cell=_trace_cell,
    claims=_trace_claims,
)
