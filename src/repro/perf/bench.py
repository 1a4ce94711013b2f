"""Microbenchmarks for the logging hot path (wall-clock, not simulated).

The benchmarks cover the pipeline stages the experiments are
bottlenecked on:

- ``codec_encode`` / ``codec_decode`` — records/s through the record
  codecs for the high-frequency kinds (request, reply, SV read/write);
- ``append_flush`` — records/s and MB/s through ``LogManager.append``
  plus grouped flushes under the simulator;
- ``scan`` — MB/s and records/s of ``scan_durable`` over a prebuilt
  durable log (the crash-recovery analysis scan);
- ``recovery_scan`` — per-record CPU of ``recover_msp``'s analysis
  pass (the type-dispatched loop of §4.3 step 2) against log length;
- ``fig14`` — end-to-end wall seconds for a scaled-down Fig. 14
  workload run (the paper's headline experiment);
- ``trace_overhead`` — the same workload with structured tracing off
  vs on (the DESIGN.md §13 cost contract).

``run_benchmarks`` returns a machine-readable dict; ``write_report``
emits it as JSON (``BENCH_PR1.json`` at the repo root by convention).
When a baseline report is supplied, per-metric speedups are computed so
a PR can quote before/after numbers directly.  With ``jobs > 1`` the
benchmark *cells* run as parallel worker processes (each cell's timing
loop still runs alone in its worker); quote single-core numbers from
``--jobs 1`` runs when cells would contend for cores.
"""

from __future__ import annotations

import json
import os
import platform
import random
import time
from typing import Callable, Optional

from repro.core.dv import DependencyVector, StateId
from repro.core.log_manager import LogManager
from repro.core.records import (
    ReplyRecord,
    RequestRecord,
    SvReadRecord,
    SvWriteRecord,
    decode_record,
)
from repro.sim import ProcessGroup, Simulator
from repro.storage import Disk, StableStore


def _sample_dv() -> DependencyVector:
    dv = DependencyVector()
    dv.observe("MSP1", StateId(0, 12345))
    dv.observe("MSP2", StateId(1, 987654))
    return dv


def _sample_records() -> list:
    """A representative mix of the high-frequency record kinds."""
    dv = _sample_dv()
    return [
        RequestRecord(
            session_id="client-7/session-41",
            seq=17,
            method="ServiceMethod1",
            argument=b"x" * 64,
            sender_dv=dv,
        ),
        ReplyRecord(
            session_id="client-7/session-41",
            outgoing_session_id="msp1/out-3",
            seq=9,
            payload=b"r" * 48,
            sender_dv=dv,
        ),
        SvReadRecord(
            session_id="client-7/session-41",
            variable="inventory",
            value=b"v" * 32,
            variable_dv=dv,
        ),
        SvWriteRecord(
            session_id="client-7/session-41",
            variable="inventory",
            value=b"w" * 32,
            writer_dv=dv,
            prev_write_lsn=4096,
        ),
    ]


def bench_codec_encode(scale: float = 1.0) -> dict:
    records = _sample_records()
    n = max(1, int(50_000 * scale))
    start = time.perf_counter()
    total_bytes = 0
    for i in range(n):
        total_bytes += len(records[i & 3].encode())
    elapsed = time.perf_counter() - start
    return {
        "records": n,
        "seconds": elapsed,
        "records_per_s": n / elapsed,
        "mb_per_s": total_bytes / elapsed / 1e6,
    }


def bench_codec_decode(scale: float = 1.0) -> dict:
    payloads = [r.encode() for r in _sample_records()]
    n = max(1, int(50_000 * scale))
    start = time.perf_counter()
    for i in range(n):
        decode_record(payloads[i & 3])
    elapsed = time.perf_counter() - start
    return {
        "records": n,
        "seconds": elapsed,
        "records_per_s": n / elapsed,
    }


def _make_log(batch_ms: float = 0.0) -> tuple[Simulator, LogManager]:
    sim = Simulator()
    store = StableStore()
    disk = Disk(sim, rng=random.Random(1234))
    log = LogManager(sim, store, disk, batch_flush_timeout_ms=batch_ms)
    log.start(group=ProcessGroup("bench"))
    return sim, log


def bench_append_flush(scale: float = 1.0) -> dict:
    """Append records and flush every 32 appends (group commit shape)."""
    sim, log = _make_log()
    records = _sample_records()
    n = max(1, int(20_000 * scale))

    def producer():
        for i in range(n):
            lsn, _size = log.append(records[i & 3])
            if i & 31 == 31:
                yield from log.flush(lsn)
        yield from log.flush()

    start = time.perf_counter()
    sim.run_process(producer())
    elapsed = time.perf_counter() - start
    return {
        "records": n,
        "seconds": elapsed,
        "records_per_s": n / elapsed,
        "mb_per_s": log.stats.appended_bytes / elapsed / 1e6,
        "flush_requests": log.stats.flush_requests,
        "physical_flushes": log.stats.physical_flushes,
        "coalesced_flushes": log.stats.coalesced_flushes,
    }


def bench_scan(scale: float = 1.0) -> dict:
    """Sequential analysis scan of a prebuilt durable log."""
    sim, log = _make_log()
    records = _sample_records()
    n = max(1, int(20_000 * scale))

    def builder():
        for i in range(n):
            log.append(records[i & 3])
        yield from log.flush()

    sim.run_process(builder())
    nbytes = log.store.durable_end

    def scanner():
        return (yield from log.scan_durable(0))

    start = time.perf_counter()
    scanned = sim.run_process(scanner())
    elapsed = time.perf_counter() - start
    return {
        "records": len(scanned),
        "bytes": nbytes,
        "seconds": elapsed,
        "records_per_s": len(scanned) / elapsed,
        "mb_per_s": nbytes / elapsed / 1e6,
        "decode_cache_hits": log.stats.decode_cache_hits,
        "decode_cache_misses": log.stats.decode_cache_misses,
    }


def _analysis_record_stream(n: int) -> list:
    """Synthetic ``(lsn, record)`` stream shaped like a real scan's input.

    Mostly position-stream kinds (request/reply/SV accesses), with
    session checkpoints sprinkled in at roughly the density the paper's
    1 MB threshold produces — the mix ``analyze_scan`` dispatches over.
    """
    from repro.core.records import SessionCheckpointRecord

    dv = _sample_dv()
    records: list = []
    lsn = 0
    for i in range(n):
        session_id = f"client-{i & 3}/session-{i % 7}"
        k = i & 7
        if k < 3:
            record = RequestRecord(session_id, i, "ServiceMethod1", b"x" * 64, dv)
        elif k < 5:
            record = ReplyRecord(session_id, f"{session_id}/out", i, b"r" * 48, dv)
        elif k == 5:
            record = SvReadRecord(session_id, "SV0", b"v" * 32, dv)
        elif k == 6:
            record = SvWriteRecord(session_id, "SV1", b"w" * 32, dv, prev_write_lsn=lsn)
        elif i % 512 == 7:
            record = SessionCheckpointRecord(
                session_id,
                variables={"state": b"s" * 128},
                buffered_reply=b"r" * 48,
                buffered_reply_seq=i,
                next_expected_seq=i + 1,
                outgoing_next_seq={f"{session_id}/out": i},
            )
        else:
            record = RequestRecord(session_id, i, "ServiceMethod2", b"y" * 64, dv)
        records.append((lsn, record))
        lsn += 96
    return records


def bench_recovery_scan(scale: float = 1.0) -> dict:
    """Per-record CPU of the recovery analysis pass, against log length.

    Drives :func:`repro.core.crash_recovery.analyze_scan` (the
    type-dispatched inner loop of §4.3 step 2) over synthetic scanned
    streams of increasing length on a real MSP (live shared variables,
    so SV roll-forward does its genuine work).  ``records_per_s`` /
    ``ns_per_record`` at the longest length are the headline; the
    per-length rows show the cost stays linear.
    """
    from repro.core.crash_recovery import analyze_scan
    from repro.workloads import PaperWorkload, WorkloadParams

    n_max = max(64, int(40_000 * scale))
    stream = _analysis_record_stream(n_max)
    lengths = sorted({max(1, n_max // 4), max(1, n_max // 2), n_max})
    rows = []
    for n in lengths:
        # A fresh world per length: SV undo chains would otherwise grow
        # across measurements and skew the per-record cost.
        msp = PaperWorkload(WorkloadParams(seed=0)).msp1
        start = time.perf_counter()
        analyze_scan(msp, stream[:n])
        elapsed = max(time.perf_counter() - start, 1e-9)
        rows.append(
            {
                "records": n,
                "seconds": elapsed,
                "records_per_s": n / elapsed,
                "ns_per_record": elapsed / n * 1e9,
            }
        )
    headline = rows[-1]
    return {
        "records": headline["records"],
        "seconds": headline["seconds"],
        "records_per_s": headline["records_per_s"],
        "ns_per_record": headline["ns_per_record"],
        "lengths": rows,
    }


def bench_fig14(scale: float = 1.0) -> dict:
    """End-to-end wall time for a scaled-down Fig. 14 workload run."""
    from repro.workloads import PaperWorkload, WorkloadParams

    requests = max(10, int(400 * scale))
    params = WorkloadParams(
        configuration="LoOptimistic",
        requests_per_client=requests,
        num_clients=1,
        calls_to_sm2=1,
        seed=0,
    )
    start = time.perf_counter()
    result = PaperWorkload(params).run()
    elapsed = time.perf_counter() - start
    return {
        "requests": result.completed_requests,
        "seconds": elapsed,
        "requests_per_wall_s": result.completed_requests / elapsed,
        "sim_mean_response_ms": result.mean_response_ms,
    }


def bench_trace_overhead(scale: float = 1.0) -> dict:
    """Wall-time cost of the structured tracer, on vs off.

    Runs the same seeded Fig. 14-shaped workload twice: once plain
    (``sim.tracer`` is ``None``, the guard branch every instrumentation
    site takes) and once with a :class:`repro.trace.Tracer` attached.
    ``overhead_ratio`` quotes traced/plain wall seconds — the
    disabled-cost contract (DESIGN.md §13) says the *plain* run must
    stay inside the existing fig14 perf band, and the gate additionally
    bounds the ratio so enabling tracing stays affordable.
    """
    from repro.trace import Tracer
    from repro.workloads import PaperWorkload, WorkloadParams

    requests = max(10, int(200 * scale))

    def build():
        return PaperWorkload(
            WorkloadParams(
                configuration="LoOptimistic",
                requests_per_client=requests,
                num_clients=1,
                calls_to_sm2=1,
                seed=0,
            )
        )

    start = time.perf_counter()
    plain = build().run()
    plain_seconds = time.perf_counter() - start

    workload = build()
    tracer = Tracer(workload.sim).attach()
    start = time.perf_counter()
    traced = workload.run()
    traced_seconds = time.perf_counter() - start
    tracer.finalize()

    if traced.completed_requests != plain.completed_requests:
        raise AssertionError(
            "tracing changed the workload outcome: "
            f"{traced.completed_requests} != {plain.completed_requests}"
        )
    return {
        "requests": plain.completed_requests,
        # Best-of-repeat keys off "seconds": keep the plain run there so
        # the disabled cost (the contract under test) is what stabilises.
        "seconds": plain_seconds,
        "plain_seconds": plain_seconds,
        "traced_seconds": traced_seconds,
        "overhead_ratio": traced_seconds / max(plain_seconds, 1e-9),
        "trace_events": len(tracer.events),
    }


def _log_space_run(
    n: int, truncation: bool, segment_bytes: int, ckpt_every: int
) -> dict:
    """Drive one long append run, checkpointing (and optionally
    truncating) every ``ckpt_every`` appends; sample live log bytes at
    n/4, n/2, n."""
    from repro.core.records import MspCheckpointRecord

    sim = Simulator()
    store = StableStore(segment_bytes=segment_bytes)
    disk = Disk(sim, rng=random.Random(1234))
    log = LogManager(sim, store, disk)
    log.start(group=ProcessGroup("bench"))
    records = _sample_records()
    ckpt = MspCheckpointRecord(
        recovered_snapshot={}, session_start_lsns={}, sv_start_lsns={}, epoch=0
    )
    marks = sorted({max(1, n // 4), max(1, n // 2), n})
    rows: list[dict] = []
    peak = 0

    def producer():
        nonlocal peak
        for i in range(n):
            lsn, _size = log.append(records[i & 3])
            if (i + 1) % ckpt_every == 0:
                clsn, _size = log.append(ckpt)
                yield from log.flush(clsn)
                yield from log.write_anchor(clsn)
                # Live bytes peak right before the recycle.
                if store.live_bytes > peak:
                    peak = store.live_bytes
                if truncation:
                    # Empty position maps: min_lsn is the checkpoint's
                    # own LSN, the most aggressive legal floor.
                    yield from log.truncate_to(ckpt.partition_floors(clsn))
            if i + 1 in marks:
                rows.append({"records": i + 1, "live_bytes": store.live_bytes})
        yield from log.flush()

    start = time.perf_counter()
    sim.run_process(producer())
    elapsed = time.perf_counter() - start
    if store.live_bytes > peak:
        peak = store.live_bytes
    return {
        "seconds": elapsed,
        "rows": rows,
        "peak_live_bytes": peak,
        "final_live_bytes": store.live_bytes,
        "appended_bytes": log.stats.appended_bytes,
        "truncated_bytes": log.stats.truncated_bytes,
        "recycled_segments": log.stats.recycled_segments,
        "truncations": log.stats.truncations,
    }


def bench_log_space(scale: float = 1.0) -> dict:
    """Long-run log space: checkpoint-driven truncation on vs off.

    With truncation on, live log bytes stay bounded by roughly the
    checkpoint interval (plus one segment of slack per recycle
    granularity); with it off they grow linearly with appended bytes.
    The headline is append throughput *with truncation enabled* — the
    recycle must not tax the hot path.  ``space_ratio`` quotes
    final-off / final-on live bytes (higher = more space reclaimed).
    """
    segment_bytes = 16 * 1024
    ckpt_every = 512
    n = max(256, int(20_000 * scale))
    on = _log_space_run(n, True, segment_bytes, ckpt_every)
    off = _log_space_run(n, False, segment_bytes, ckpt_every)
    return {
        "records": n,
        "segment_bytes": segment_bytes,
        "ckpt_every": ckpt_every,
        "seconds": on["seconds"],
        "records_per_s": n / on["seconds"],
        "truncation_on": on,
        "truncation_off": off,
        "space_ratio": off["final_live_bytes"] / max(1, on["final_live_bytes"]),
        "truncated_bytes": on["truncated_bytes"],
        "recycled_segments": on["recycled_segments"],
        "live_bytes": on["final_live_bytes"],
    }


def _partition_scaling_run(nparts: int, n: int, sessions: int = 8) -> dict:
    """One partition-count cell: concurrent session streams with group
    commit, on a log split across ``nparts`` stores/disks."""
    sim = Simulator()
    stores = [
        StableStore(name="log" if i == 0 else f"log.p{i}")
        for i in range(nparts)
    ]
    disks = [Disk(sim, rng=random.Random(1234 + i)) for i in range(nparts)]
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

    start = time.perf_counter()
    for s in range(sessions):
        # ``bench/session-0..7`` cover all residues of crc32 mod 8, so
        # the load is balanced at every P in {1, 2, 4, 8}.
        sim.spawn(producer(f"bench/session-{s}"))
    sim.run()
    wall = time.perf_counter() - start
    total = per_session * sessions
    sim_seconds = sim.now / 1000.0
    waits.sort()
    return {
        "partitions": nparts,
        "records": total,
        "seconds": wall,
        "records_per_s": total / wall,
        "mb_per_s": log.stats.appended_bytes / wall / 1e6,
        "sim_ms": sim.now,
        "sim_records_per_s": total / sim_seconds if sim_seconds else 0.0,
        "flush_wait_mean_ms": sum(waits) / len(waits) if waits else 0.0,
        "flush_wait_p99_ms": (
            waits[min(len(waits) - 1, int(0.99 * len(waits)))] if waits else 0.0
        ),
        "flush_requests": log.stats.flush_requests,
        "physical_flushes": log.stats.physical_flushes,
        "coalesced_flushes": log.stats.coalesced_flushes,
        "partition_appends": {
            str(unit.index): log.stats.partition(unit.index)["appends"]
            for unit in log.partitions
        },
    }


def bench_log_partitions(scale: float = 1.0) -> dict:
    """Partition scaling of the append + group-commit hot path.

    Eight concurrent session streams append and flush against a log
    split P ways (P in {1, 2, 4, 8}, each partition with its own disk
    and flusher).  The headline is *simulated* throughput scaling —
    ``speedup_p4_sim`` quotes sim-time records/s at P=4 over P=1, the
    quantity the per-partition group commit actually buys (flushes on
    different partitions overlap instead of serializing on one disk).
    Wall-clock records/s per cell is reported too; the perf gate holds
    the P=1 cell inside the historical append band.
    """
    n = max(64, int(8_000 * scale))
    cells = {P: _partition_scaling_run(P, n) for P in (1, 2, 4, 8)}
    p1 = cells[1]
    return {
        "records": p1["records"],
        "seconds": sum(run["seconds"] for run in cells.values()),
        "p1_records_per_s": p1["records_per_s"],
        "p1_sim_records_per_s": p1["sim_records_per_s"],
        "p4_sim_records_per_s": cells[4]["sim_records_per_s"],
        "speedup_p2_sim": cells[2]["sim_records_per_s"] / p1["sim_records_per_s"],
        "speedup_p4_sim": cells[4]["sim_records_per_s"] / p1["sim_records_per_s"],
        "speedup_p8_sim": cells[8]["sim_records_per_s"] / p1["sim_records_per_s"],
        "cells": {str(P): run for P, run in cells.items()},
    }


def _instant_restart_run(mode: str, nparts: int, n_sessions: int) -> dict:
    """One instant-restart cell: build a server with ``n_sessions`` live
    sessions, crash it, and measure sim-ms from the restart to the first
    served reply (TTFR) plus the time until every session is recovered.

    Eager mode replays every session before opening — TTFR grows with
    the session count.  Lazy mode opens after the analysis scan and
    replays only the probed session inline; the pump drains the
    rest in the background (``full_recovery_ms`` shows that tail).
    """
    from repro.core import RecoveryConfig, ServiceDomainConfig
    from repro.core.client import EndClient
    from repro.core.msp import MiddlewareServer
    from repro.net import Network
    from repro.sim import RngRegistry

    sim = Simulator()
    rng = RngRegistry(7)
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
        def process():
            # Stagger the openings so the inbox is a queue, not a spike.
            yield 0.2 * idx
            for _ in range(2):
                yield from sessions[idx].call("bump", b"")

        return process()

    start = time.perf_counter()
    procs = [sim.spawn(builder(i)) for i in range(n_sessions)]
    for proc in procs:
        sim.run_until_process(proc, limit=36_000_000)
    build_seconds = time.perf_counter() - start

    msp.crash()
    t0 = sim.now
    msp.restart_process()
    ttfr_box: list[float] = []

    def probe():
        result = yield from sessions[0].call("bump", b"")
        assert int.from_bytes(result.payload, "big") == 3
        ttfr_box.append(sim.now - t0)

    start = time.perf_counter()
    probe_proc = sim.spawn(probe())
    sim.run_until_process(probe_proc, limit=36_000_000)

    def drain():
        # Coarse poll: the pending scan is O(sessions), so a 10 ms poll
        # over a 10k-session drain is itself quadratic wall time.
        while any(
            s.lazy_pending or s.recovery_pending for s in msp.sessions.values()
        ) or not msp.running:
            yield 500.0

    drain_proc = sim.spawn(drain())
    sim.run_until_process(drain_proc, limit=36_000_000)
    recover_seconds = time.perf_counter() - start
    return {
        "mode": mode,
        "partitions": nparts,
        "sessions": n_sessions,
        "ttfr_ms": ttfr_box[0],
        "full_recovery_ms": sim.now - t0,
        "build_seconds": build_seconds,
        "seconds": build_seconds + recover_seconds,
        "lazy_recoveries": msp.stats.lazy_recoveries,
        "inline_recoveries": msp.stats.inline_recoveries,
        "pump_recoveries": msp.stats.pump_recoveries,
        "served_before_recovery": msp.stats.served_before_recovery,
    }


def bench_instant_restart(scale: float = 1.0) -> dict:
    """Time-to-first-reply after a crash: lazy vs eager restart.

    Four cells — mode in {eager, lazy} x partitions in {1, 4} — each
    with ``max(64, 10_000 * scale)`` live sessions.  The headline is
    ``ttfr_speedup_p1``: eager TTFR over lazy TTFR on the classical
    single log (higher = lazy opens that much sooner); the perf gate
    floors it at 5x for reports with >= 10k sessions (ISSUE 7).
    """
    n = max(64, int(10_000 * scale))
    cells = {
        f"{mode}_p{P}": _instant_restart_run(mode, P, n)
        for P in (1, 4)
        for mode in ("eager", "lazy")
    }
    for cell in cells.values():
        if cell["served_before_recovery"]:
            raise AssertionError(
                "instant_restart: a session was served before it "
                f"was replayed ({cell['mode']} P={cell['partitions']})"
            )
    return {
        "sessions": n,
        "seconds": sum(run["seconds"] for run in cells.values()),
        "ttfr_eager_p1_ms": cells["eager_p1"]["ttfr_ms"],
        "ttfr_lazy_p1_ms": cells["lazy_p1"]["ttfr_ms"],
        "ttfr_eager_p4_ms": cells["eager_p4"]["ttfr_ms"],
        "ttfr_lazy_p4_ms": cells["lazy_p4"]["ttfr_ms"],
        "ttfr_speedup_p1": (
            cells["eager_p1"]["ttfr_ms"] / max(cells["lazy_p1"]["ttfr_ms"], 1e-9)
        ),
        "ttfr_speedup_p4": (
            cells["eager_p4"]["ttfr_ms"] / max(cells["lazy_p4"]["ttfr_ms"], 1e-9)
        ),
        "modes": cells,
    }


def _log_volume_run(
    mode: str, nparts: int, recovery_mode: str, requests: int
) -> dict:
    """One §5.1 workload run under one (logging mode, P, recovery mode).

    The run is traced so the per-kind append counters and the recovery
    spans land in one MetricsRegistry; exactly-once is verified before
    any number is reported — a cell that loses an increment is a bug,
    not a fast configuration.
    """
    from repro.trace import Tracer
    from repro.workloads import PaperWorkload, WorkloadParams

    params = WorkloadParams(
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
        seed=0,
    )
    workload = PaperWorkload(params)
    tracer = Tracer(workload.sim).attach()
    start = time.perf_counter()
    result = workload.run()
    elapsed = time.perf_counter() - start
    tracer.finalize()
    workload.verify_exactly_once()

    counters = tracer.metrics.counters
    kinds: dict[str, dict] = {}
    for name, counter in counters.items():
        if name.startswith("log.append.") and name.endswith(".bytes"):
            kind = name[len("log.append.") : -len(".bytes")]
            records = counters.get(f"log.append.{kind}.records")
            kinds[kind] = {
                "bytes": counter.value,
                "records": records.value if records is not None else 0,
            }
    appended_bytes = sum(k["bytes"] for k in kinds.values())
    histograms = tracer.metrics.histograms
    recovery = histograms.get("span.recovery_ms")
    session_replay = histograms.get("span.recovery.session_ms")
    stats = (workload.msp1.stats, workload.msp2.stats)
    return {
        "logging_mode": mode,
        "partitions": nparts,
        "recovery_mode": recovery_mode,
        "requests": result.completed_requests,
        "crashes": result.crashes,
        "seconds": elapsed,
        "sim_mean_response_ms": result.mean_response_ms,
        "appended_bytes": appended_bytes,
        # The satellite's one-number-per-cell: total log volume (both
        # MSPs, all kinds) over completed end-client requests.
        "log_bytes_per_request": appended_bytes
        / max(1, result.completed_requests),
        "record_kinds": kinds,
        # Crash recovery (restart to open-for-business) and session
        # replay sim-time.  Eager nests replay inside the recovery span;
        # lazy runs replays after it — the sum is the total repair work
        # either way, which is what the spectrum plots.
        "recovery_ms": recovery.total if recovery is not None else 0.0,
        "session_replay_ms": (
            session_replay.total if session_replay is not None else 0.0
        ),
        "replayed_requests": sum(s.replayed_requests for s in stats),
        "replayed_commands": sum(s.replayed_commands for s in stats),
        "command_requests": sum(s.command_requests for s in stats),
        "mode_switches": sum(s.mode_switches for s in stats),
    }


def bench_log_volume(scale: float = 1.0, modes: tuple = None) -> dict:
    """Runtime overhead vs recovery time: value → adaptive → command.

    The adaptive-logging trade (Yao et al.) on our substrate: twelve
    §5.1 workload cells — logging mode in {value, adaptive, command} x
    partitions in {1, 4} x recovery mode in {eager, lazy} — each with
    two mid-run crashes.  The headline ``volume_reduction_p1`` quotes
    value-mode log bytes/request over command-mode on the classical
    single log (eager); the perf gate floors it at 2x and holds
    value-mode bytes/request inside the PR 7 band.
    """
    modes = tuple(modes) if modes else ("value", "adaptive", "command")
    requests = max(16, int(100 * scale))
    cells = {
        f"{mode}_p{P}_{rmode}": _log_volume_run(mode, P, rmode, requests)
        for mode in modes
        for P in (1, 4)
        for rmode in ("eager", "lazy")
    }
    report = {
        "requests": requests,
        "seconds": sum(run["seconds"] for run in cells.values()),
        "volume_cells": cells,
    }
    for key, run in cells.items():
        report[f"bpr_{key}"] = run["log_bytes_per_request"]
    value = cells.get("value_p1_eager")
    command = cells.get("command_p1_eager")
    if value and command:
        report["volume_reduction_p1"] = value["log_bytes_per_request"] / max(
            command["log_bytes_per_request"], 1e-9
        )
    return report


def _fleet_bench_spec(shards: int, sessions: int):
    """The PR 9 scaling workload: 16 MSPs / 8 domains, mixed intra- and
    cross-domain chains, two mid-run crashes.  Only ``shards`` varies
    between cells; the traffic plan is identical, so busy-time ratios
    compare the cost of simulating the *same* fleet."""
    from repro.fleet import FleetSpec

    return FleetSpec(
        msps=16,
        domains=8,
        shards=shards,
        seed=11,
        sessions=sessions,
        duration_ms=8_000.0,
        chain_depth=1,
        cross_domain_fraction=0.5,
        think_ms=2.0,
        epoch_ms=40.0,
        cross_latency_ms=40.0,
        crash_plan=((1_500.0, "m001"), (4_500.0, "m004")),
    )


def _fleet_cell(spec, jobs: int) -> dict:
    """One fleet run; wall seconds, throughput, and the fingerprint."""
    from repro.fleet import fleet_fingerprint, run_fleet

    start = time.perf_counter()
    result = run_fleet(spec, jobs=jobs)
    seconds = time.perf_counter() - start
    totals = result["totals"]
    live_bytes = 0
    recycled = 0
    for shard in result["shards"]:
        for stats in shard["log"].values():
            live_bytes += stats["live_bytes"]
            recycled += stats["recycled_segments"]
    cell = {
        "seconds": seconds,
        "shards": spec.shards,
        "jobs": jobs,
        "sessions": totals["completed_sessions"],
        "calls": totals["completed_calls"],
        "cross_domain_calls": totals["cross_domain_calls"],
        "epochs": result["epochs"],
        "sim_time_ms": result["sim_time_ms"],
        "cross_shard_messages": result["cross_shard_messages"],
        "wall_req_per_s": result["timing"]["wall_req_per_s"],
        "sim_req_per_s": result["timing"]["sim_req_per_s"],
        "latency_p95_ms": result["latency_ms"]["p95"],
        "live_bytes": live_bytes,
        "recycled_segments": recycled,
        "clean": result["verdicts"]["clean"],
        "fingerprint": fleet_fingerprint(result),
    }
    if jobs == 1:
        workers = result["timing"]["workers"]
        cell["busy_s"] = workers["busy_s"]
        cell["critical_s"] = workers["critical_s"]
        cell["shard_busy_s"] = workers["shard_busy_s"]
    return cell


def bench_fleet(scale: float = 1.0) -> dict:
    """Shard scaling of the fleet simulation (the PR 9 tentpole).

    The same 16-MSP / 8-domain open-loop workload is simulated split
    into S in {1, 2, 4} shards on the jobs=1 reference path, which
    times every shard's stepping per epoch.  The headline ``speedup_s4``
    is the *critical-path* speedup: total busy seconds of the unsharded
    S=1 run over the per-epoch-max busy seconds of the S=4 run — the
    wall-clock factor a host with one core per shard achieves, measured
    host-independently (this is the fleet analogue of the partition
    bench's sim-time headline; a single-core CI box can neither show
    nor fake wall parallelism).  The perf gate floors it at 1.8x.  Each
    cell's real ``wall_req_per_s`` is reported alongside, and the S=4
    spec is rerun at ``jobs=4`` on the worker pool to assert the
    fingerprint is byte-identical (``deterministic_s4``).  At ``scale
    >= 1`` an open-loop cell with ``>= 100k`` sessions runs on the
    sharded path and reports the bounded-memory truncation counters
    (recycled segments, final live bytes).
    """
    from repro.fleet import FleetSpec

    sessions = max(24, int(1_200 * scale))
    cells = {
        S: _fleet_cell(_fleet_bench_spec(S, sessions), jobs=1) for S in (1, 2, 4)
    }
    pool_s4 = _fleet_cell(_fleet_bench_spec(4, sessions), jobs=4)
    s1, s2, s4 = cells[1], cells[2], cells[4]
    report = {
        "sessions": sessions,
        "requests": s1["calls"],
        "host_cores": os.cpu_count(),
        "seconds": sum(run["seconds"] for run in cells.values())
        + pool_s4["seconds"],
        "s1_busy_s": s1["busy_s"],
        "s4_critical_s": s4["critical_s"],
        "s1_wall_req_per_s": s1["wall_req_per_s"],
        "s4_wall_req_per_s": pool_s4["wall_req_per_s"],
        "speedup_s2": s1["busy_s"] / max(s2["critical_s"], 1e-9),
        "speedup_s4": s1["busy_s"] / max(s4["critical_s"], 1e-9),
        "deterministic_s4": pool_s4["fingerprint"] == s4["fingerprint"],
        "clean": all(run["clean"] for run in cells.values()) and pool_s4["clean"],
        "cells": {str(S): run for S, run in cells.items()},
        "pool_s4": pool_s4,
    }
    if scale >= 1.0:
        # The million-session-scale open-loop cell: bounded-memory
        # truncation must hold over a long run — segments get recycled
        # and the live log stays far below the total bytes appended.
        big_spec = FleetSpec(
            msps=16,
            domains=8,
            shards=4,
            seed=23,
            sessions=int(100_000 * scale),
            duration_ms=600_000.0,
            chain_depth=1,
            cross_domain_fraction=0.25,
            max_requests_per_session=3,
            think_ms=2.0,
            epoch_ms=40.0,
            cross_latency_ms=40.0,
        )
        big = _fleet_cell(big_spec, jobs=1)
        report["open_loop"] = big
        report["open_loop_truncation_ok"] = (
            big["recycled_segments"] > 0
            and big["live_bytes"] < big["calls"] * 1024
        )
        report["seconds"] += big["seconds"]
    return report


BENCHMARKS: dict[str, Callable[[float], dict]] = {
    "codec_encode": bench_codec_encode,
    "codec_decode": bench_codec_decode,
    "append_flush": bench_append_flush,
    "scan": bench_scan,
    "recovery_scan": bench_recovery_scan,
    "fig14": bench_fig14,
    "log_space": bench_log_space,
    "log_partitions": bench_log_partitions,
    "log_volume": bench_log_volume,
    "instant_restart": bench_instant_restart,
    "trace_overhead": bench_trace_overhead,
    "fleet": bench_fleet,
}

#: The headline metric of each benchmark, used for speedup reporting.
_HEADLINE = {
    "codec_encode": "records_per_s",
    "codec_decode": "records_per_s",
    "append_flush": "records_per_s",
    "scan": "mb_per_s",
    "recovery_scan": "records_per_s",
    "fig14": "requests_per_wall_s",
    "log_space": "records_per_s",
    "log_partitions": "speedup_p4_sim",
    "log_volume": "volume_reduction_p1",
    "instant_restart": "ttfr_speedup_p1",
    "trace_overhead": "overhead_ratio",
    "fleet": "speedup_s4",
}


def run_benchmark_cell(
    name: str,
    scale: float = 1.0,
    repeat: int = 3,
    logging_mode: Optional[str] = None,
) -> dict:
    """Warm up, then run one benchmark cell; the best repeat is kept.

    This is the unit of work a pool worker executes for a parallel
    ``repro bench`` run.  ``logging_mode`` restricts the ``log_volume``
    spectrum to one mode (local iteration); other cells ignore it.
    """
    fn = BENCHMARKS[name]
    if logging_mode is not None and name == "log_volume":
        fn = lambda s: bench_log_volume(s, modes=(logging_mode,))  # noqa: E731
    fn(min(scale, 0.01))  # warmup: import, allocate, JIT-warm caches
    best: Optional[dict] = None
    for _ in range(max(1, repeat)):
        run = fn(scale)
        if best is None or run["seconds"] < best["seconds"]:
            best = run
    return best


def run_benchmarks(
    scale: float = 1.0,
    repeat: int = 3,
    only: Optional[list[str]] = None,
    jobs: Optional[int] = None,
    progress=None,
    logging_mode: Optional[str] = None,
) -> dict:
    """Run the benchmark suite; the best of ``repeat`` runs is reported.

    ``scale`` shrinks iteration counts (smoke mode uses a tiny scale and
    ``repeat=1`` and only asserts completion).  ``jobs`` fans the cells
    across worker processes (``1`` keeps today's in-process loop);
    results are merged in benchmark-name order either way.
    ``progress(done, total, name)`` reports cell completions.
    """
    from repro.parallel import resolve_jobs, run_tasks
    from repro.parallel.tasks import BenchCellSpec, run_bench_cell

    names = only if only is not None else list(BENCHMARKS)
    effective_jobs = resolve_jobs(jobs)
    results: dict[str, dict] = {}
    if effective_jobs == 1 or len(names) <= 1:
        for i, name in enumerate(names):
            results[name] = run_benchmark_cell(
                name, scale=scale, repeat=repeat, logging_mode=logging_mode
            )
            if progress is not None:
                progress(i + 1, len(names), name)
    else:
        specs = [
            BenchCellSpec(name, scale=scale, repeat=repeat, logging_mode=logging_mode)
            for name in names
        ]
        outcomes = run_tasks(
            run_bench_cell,
            specs,
            jobs=effective_jobs,
            progress=(
                None
                if progress is None
                else lambda done, total, outcome: progress(
                    done, total, outcome.spec.name
                )
            ),
        )
        for outcome in outcomes:
            results[outcome.spec.name] = outcome.unwrap()
    return {
        "meta": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "scale": scale,
            "repeat": repeat,
            "jobs": effective_jobs,
            "cpu_count": os.cpu_count(),
        },
        "benchmarks": results,
    }


def attach_baseline(report: dict, baseline: dict) -> None:
    """Embed ``baseline`` and per-metric speedups into ``report``."""
    report["baseline"] = baseline.get("benchmarks", baseline)
    speedups: dict[str, float] = {}
    for name, run in report["benchmarks"].items():
        base = report["baseline"].get(name)
        metric = _HEADLINE.get(name)
        if not base or metric not in base or metric not in run:
            continue
        if base[metric] > 0:
            speedups[name] = run[metric] / base[metric]
    report["speedup"] = speedups


def write_report(report: dict, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


#: Pipeline counters surfaced under each benchmark's headline line:
#: the PR 1 flush-coalescing / decode-cache instrumentation and the
#: PR 4 truncation accounting.
_COUNTER_KEYS = (
    "flush_requests",
    "physical_flushes",
    "coalesced_flushes",
    "decode_cache_hits",
    "decode_cache_misses",
    "truncated_bytes",
    "recycled_segments",
    "live_bytes",
    "trace_events",
)


def format_report(report: dict) -> str:
    lines = []
    for name, run in report["benchmarks"].items():
        metric = _HEADLINE.get(name, "seconds")
        value = run.get(metric, run["seconds"])
        line = f"{name:14s} {metric:18s} {value:14,.1f}"
        speedup = report.get("speedup", {}).get(name)
        if speedup is not None:
            line += f"   ({speedup:.2f}x vs baseline)"
        lines.append(line)
        counters = [f"{key}={run[key]}" for key in _COUNTER_KEYS if key in run]
        if counters:
            lines.append(f"{'':14s} counters: {' '.join(counters)}")
        modes = run.get("modes")
        if modes:
            # The instant-restart cell: one sub-line per (mode, P) run.
            for key, cell in sorted(modes.items()):
                lines.append(
                    f"{'':14s} {key}: ttfr {cell.get('ttfr_ms', 0.0):10,.1f} ms"
                    f"  full {cell.get('full_recovery_ms', 0.0):10,.1f} ms"
                    f"  sessions={cell.get('sessions', 0)}"
                    f"  lazy={cell.get('lazy_recoveries', 0)}"
                    f" (inline={cell.get('inline_recoveries', 0)}"
                    f" pump={cell.get('pump_recoveries', 0)})"
                )
        cells = run.get("cells")
        if cells and name == "fleet":
            # The fleet-scaling cell: one sub-line per shard count,
            # then the determinism probe and the open-loop long run.
            for S, cell in sorted(cells.items(), key=lambda kv: int(kv[0])):
                lines.append(
                    f"{'':14s} S={S}: busy {cell.get('busy_s', 0.0):7.2f} s"
                    f"  critical {cell.get('critical_s', 0.0):7.2f} s"
                    f"  {cell.get('wall_req_per_s', 0.0):10,.0f} req/wall-s"
                    f"  epochs={cell.get('epochs', 0)}"
                    f"  xshard={cell.get('cross_shard_messages', 0)}"
                    f"  clean={cell.get('clean', False)}"
                )
            pool = run.get("pool_s4")
            if pool:
                lines.append(
                    f"{'':14s} pool S=4 jobs=4: wall {pool.get('seconds', 0.0):7.2f} s"
                    f"  {pool.get('wall_req_per_s', 0.0):10,.0f} req/wall-s"
                    f"  deterministic_s4={run.get('deterministic_s4', False)}"
                    f"  (host_cores={run.get('host_cores', 0)})"
                )
            open_loop = run.get("open_loop")
            if open_loop:
                lines.append(
                    f"{'':14s} open_loop: sessions={open_loop.get('sessions', 0):,}"
                    f"  calls={open_loop.get('calls', 0):,}"
                    f"  {open_loop.get('wall_req_per_s', 0.0):10,.0f} req/wall-s"
                    f"  recycled={open_loop.get('recycled_segments', 0)}"
                    f"  live={open_loop.get('live_bytes', 0):,} B"
                    f"  trunc_ok={run.get('open_loop_truncation_ok', False)}"
                )
        elif cells:
            # The partition-scaling cell: one sub-line per partition
            # count, with the per-partition flush counters folded in.
            for P, cell in sorted(cells.items(), key=lambda kv: int(kv[0])):
                lines.append(
                    f"{'':14s} P={P}: sim {cell.get('sim_records_per_s', 0.0):10,.0f} rec/s"
                    f"  flush wait mean {cell.get('flush_wait_mean_ms', 0.0):6.2f} ms"
                    f"  p99 {cell.get('flush_wait_p99_ms', 0.0):6.2f} ms"
                    f"  physical_flushes={cell.get('physical_flushes', 0)}"
                    f"  coalesced={cell.get('coalesced_flushes', 0)}"
                )
        vcells = run.get("volume_cells")
        if vcells:
            # The log-volume spectrum: one sub-line per (mode, P,
            # recovery-mode) cell — bytes/request is the satellite's
            # one-number win — plus the per-kind breakdown underneath.
            for key, cell in sorted(vcells.items()):
                repair = cell.get("recovery_ms", 0.0) + cell.get(
                    "session_replay_ms", 0.0
                )
                lines.append(
                    f"{'':14s} {key}: {cell.get('log_bytes_per_request', 0.0):8,.1f}"
                    f" B/req  repair {repair:9,.1f} sim-ms"
                    f"  replayed={cell.get('replayed_requests', 0)}"
                    f" (cmd={cell.get('replayed_commands', 0)})"
                    f"  switches={cell.get('mode_switches', 0)}"
                )
                kinds = cell.get("record_kinds", {})
                if kinds:
                    breakdown = " ".join(
                        f"{kind}={counts['bytes']}"
                        for kind, counts in sorted(
                            kinds.items(),
                            key=lambda kv: -kv[1]["bytes"],
                        )
                    )
                    lines.append(f"{'':18s} kinds: {breakdown}")
    return "\n".join(lines)
