"""One benchmark cycle in a fresh process: build, serve, verify, then
quiesced restarts, each verified.  Prints one JSON object.

Everything measured is read from outside the program: wall clock and
``ru_maxrss`` here, the program's public counters (``Simulator.steps``,
``LogStats``, ``MspStats``, ``DiskStats``, ``Network.ledger()``,
``run_fleet``'s result), and — only with ``--traced 1`` — ``cProfile``
around the serve and recover phases plus the program's own
``repro.trace.Tracer`` for simulated-time spans.
"""

from __future__ import annotations

import argparse
import cProfile
import hashlib
import json
import math
import os
import resource
import statistics
import sys
import time
from contextlib import contextmanager

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [BENCH_DIR, os.path.join(os.path.dirname(BENCH_DIR), "src")]

import calibrate  # noqa: E402
import layers  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from repro.core.log_manager import LogManager  # noqa: E402
from repro.core.msp import MiddlewareServer  # noqa: E402
from repro.sim import Simulator  # noqa: E402
from repro.trace import Tracer  # noqa: E402

#: LogStats counters (``live_bytes`` is a gauge, ``partitions`` a dict).
LOG_FIELDS = (
    "appended_records", "appended_bytes", "flush_requests", "physical_flushes",
    "flushed_bytes", "flushed_sectors", "wasted_bytes", "read_chunks",
    "decode_cache_hits", "decode_cache_misses", "truncations", "truncated_bytes",
)
DISK_FIELDS = ("writes", "reads", "sectors_written", "sectors_read", "busy_ms")
#: Simulated-time spans of the program's tracer that the layer metrics use.
SPAN_NAMES = (
    "log.write", "flush.distributed", "flush.leg.remote",
    "recovery.scan", "recovery.analyze", "recovery.session",
)
SECTOR_BYTES = 512
#: A percentile is reported only with at least 30 samples beyond it;
#: the 95th always has them, the 99th from this many responses on.
P99_MIN_SAMPLES = 3000


class Recorder:
    """Holds every simulator, MSP and client of the world under test,
    reads their counters, and records phase spans on both clocks."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.sims: list = []
        self.networks: list = []
        self.msps: list = []
        self.clients: list = []
        self.spans: list[dict] = []
        self.cpu_charges = 0
        self._dead_logs = dict.fromkeys(LOG_FIELDS, 0)
        self._open_span: int | None = None
        self._started = time.perf_counter()
        #: Wall clock at every tick of simulated time inside a timed span.
        self._tick_stamps: list[float] = []
        self.profiles = {}
        if traced:
            self.profiles = {"serve": cProfile.Profile(), "recover": cProfile.Profile()}
            self._count_cpu_charges()

    def add(self, sim, network, msps, clients, tick_ms: float | None = None) -> None:
        """Called by the world for each simulator as soon as it exists;
        ``tick_ms`` (one simulator per world) makes that simulator's
        clock cut the timed phases into slices."""
        self.sims.append(sim)
        if tick_ms:
            self._tick(sim, tick_ms)
        self.networks.append(network)
        self.clients.extend(clients)
        if self.traced:
            Tracer(sim).attach()
        for msp in msps:
            self.msps.append(msp)
            self._keep_log_stats(msp)

    def _tick(self, sim, tick_ms: float) -> None:
        # Cycles of one (workload, seed) are the same simulation, so the
        # work between two ticks is the same in each of them and the
        # slice can be compared across cycles (see cycles.floor_seconds).
        # A tick is one no-op kernel callback; it changes no simulated
        # result, only Simulator.steps, by the same count every cycle.
        def tick() -> None:
            self._tick_stamps.append(time.perf_counter())
            sim.call_later(tick_ms, tick)

        sim.call_later(tick_ms, tick)

    def _keep_log_stats(self, msp) -> None:
        # Every boot builds a new LogManager with zeroed LogStats, so
        # the totals of an incarnation are saved when it crashes.
        crash = msp.crash

        def crash_keeping_stats() -> None:
            if msp.log is not None:
                for name in LOG_FIELDS:
                    self._dead_logs[name] += getattr(msp.log.stats, name)
            crash()

        msp.crash = crash_keeping_stats

    def counters(self) -> dict:
        c = {f"log.{name}": value for name, value in self._dead_logs.items()}
        c["sim.steps"] = sum(sim.steps for sim in self.sims)
        c["cpu.charges"] = self.cpu_charges
        c["cpu.busy_ms"] = 0.0

        def add(key: str, value) -> None:
            c[key] = c.get(key, 0) + value

        for msp in self.msps:
            if msp.log is not None:
                for name in LOG_FIELDS:
                    add(f"log.{name}", getattr(msp.log.stats, name))
            for name, value in vars(msp.stats).items():
                add(f"msp.{name}", value)
            add("cpu.busy_ms", msp.cpu_utilization() * msp.sim.now)
            for disk in msp.disks:
                for name in DISK_FIELDS:
                    add(f"disk.{name}", getattr(disk.stats, name))
        for network in self.networks:
            for name, value in network.ledger().items():
                add(f"net.{name}", value)
        for client in self.clients:
            add("client.calls", client.stats.calls)
            add("client.resends", client.stats.resends)
        for sim in self.sims:
            if sim.tracer is None:
                continue
            for name in SPAN_NAMES:
                histogram = sim.tracer.metrics.histograms.get(f"span.{name}_ms")
                if histogram is not None:
                    add(f"span.{name}.ms", histogram.total)
                    add(f"span.{name}.n", histogram.count)
        return c

    @contextmanager
    def span(self, name: str, sim=None, profile: str | None = None):
        """Record one span; ``sim`` restricts its simulated clock to
        one simulator (default: the one that advanced furthest).  A
        span with a ``profile`` is a timed one: it is profiled in traced
        cycles and always cut into slices at the ticks."""
        record = {"id": len(self.spans), "parent": self._open_span, "name": name}
        self.spans.append(record)
        outer, self._open_span = self._open_span, record["id"]
        before = self.counters()
        clocks = {id(s): s.now for s in ([sim] if sim is not None else self.sims)}
        profiler = self.profiles.get(profile) if profile else None
        self._tick_stamps = []
        wall_start = time.perf_counter()
        if profiler is not None:
            profiler.enable()
        try:
            yield record
        finally:
            if profiler is not None:
                profiler.disable()
            wall_end = time.perf_counter()
            self._open_span = outer
            if profile:
                stamps = [wall_start, *self._tick_stamps, wall_end]
                record["slices_s"] = [b - a for a, b in zip(stamps, stamps[1:])]
            after = self.counters()
            moved = [
                (s.now - clocks.get(id(s), 0.0), clocks.get(id(s), 0.0))
                for s in ([sim] if sim is not None else self.sims)
            ]
            sim_ms, sim_start = max(moved, default=(0.0, 0.0))
            record.update(
                wall_start_s=wall_start - self._started,
                wall_s=wall_end - wall_start,
                sim_start_ms=sim_start,
                sim_ms=sim_ms,
                delta={
                    key: value - before.get(key, 0)
                    for key, value in after.items()
                    if value != before.get(key, 0)
                },
            )

    def _count_cpu_charges(self) -> None:
        """Count ``MiddlewareServer.cpu`` calls (traced runs only: the
        profiler counts every resume of that generator, not its calls)."""
        recorder, cpu = self, MiddlewareServer.cpu

        def counted_cpu(msp, ms):
            recorder.cpu_charges += 1
            return cpu(msp, ms)

        MiddlewareServer.cpu = counted_cpu


#: The entry points the self-check slows down, per layer.
INJECT_TARGETS = {
    "log": [(LogManager, "append"), (LogManager, "record_at")],
    "sim": [(Simulator, "call_at")],
}


def inject_delay(layer: str, micros: float) -> None:
    """Self-check only: put a busy-wait in front of one layer's entry
    points.  The wait is compiled under a file name that maps to the
    layer, so the profile charges it there; it is shortened by what the
    wrapper costs without waiting, so a call is ``micros`` slower."""
    source = (
        "def make(inner, clock, seconds):\n"
        "    def delayed(*args, **kwargs):\n"
        "        until = clock() + seconds\n"
        "        while clock() < until:\n"
        "            pass\n"
        "        return inner(*args, **kwargs)\n"
        "    return delayed\n"
    )
    scope: dict = {}
    exec(compile(source, f"{layers.INJECT_PREFIX}{layer}>", "exec"), scope)
    make, clock = scope["make"], time.perf_counter

    def per_call(function, calls=20_000) -> float:
        started = clock()
        for _ in range(calls):
            function()
        return (clock() - started) / calls

    def nothing() -> None:
        pass

    overhead = min(per_call(make(nothing, clock, 0.0)) - per_call(nothing) for _ in range(5))
    seconds = max(0.0, micros / 1e6 - overhead)
    for owner, name in INJECT_TARGETS[layer]:
        setattr(owner, name, make(getattr(owner, name), clock, seconds))


def _pending(msp) -> bool:
    return any(s.lazy_pending or s.recovery_pending for s in msp.sessions.values())


def _sectors_read(msp) -> int:
    return sum(disk.stats.sectors_read for disk in msp.disks)


def _step_until(sim, done, what: str) -> None:
    limit = sim.now + 600_000.0
    while not done():
        if sim.now > limit or not sim.step():
            raise RuntimeError(f"simulation stopped before {what}")


def _nearest_rank(ordered: list, q: float) -> float:
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _ratio(numerator: float, denominator: float) -> float:
    """0 when nothing was counted (a failed cycle, or no such event)."""
    return numerator / denominator if denominator else 0.0


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_cycle(workload: str, seed: int, scale: float, traced: bool, spawned_at: float) -> dict:
    recorder = Recorder(traced)
    with recorder.span("build"):
        world = WORKLOADS[workload](seed, scale, recorder)
    # Set-up ends where the first timed phase begins: interpreter
    # start, imports and world construction.
    setup_s = time.time() - spawned_at

    restarts: list[dict] = []
    host_speed = calibrate.calibrate()
    with recorder.span("serve", profile="serve") as serve:
        served = world.serve()
    response_times = sorted(
        t for client in recorder.clients for t in client.stats.response_times
    )
    # A failed exactly-once or ledger check raises: the cycle, and with
    # it the run, fails.
    with recorder.span("verify"):
        world.verify()
    for sim, msp in world.restart_targets():
        with recorder.span("idle", sim=sim):
            world.idle()
        with recorder.span("crash", sim=sim):
            crashed_at = sim.now
            msp.crash()
        with recorder.span("recover", sim=sim, profile="recover") as span:
            sectors_read = _sectors_read(msp)
            msp.restart_process()
            _step_until(sim, lambda: msp.running, f"{msp.name} reopened")
            open_ms = sim.now - crashed_at
            # Until it reopens a restarting MSP reads the log only
            # for the anchor and the analysis scan.
            span["scan_bytes"] = (_sectors_read(msp) - sectors_read) * SECTOR_BYTES
            _step_until(sim, lambda: not _pending(msp), f"{msp.name} drained")
            drain_ms = sim.now - crashed_at
        span["msp"] = msp.name
        restarts.append({"span": span, "open_ms": open_ms, "drain_ms": drain_ms})
        with recorder.span("verify"):
            world.verify()
    host_speed += calibrate.calibrate()

    completed = served["completed"]
    attempted = world.attempted
    recover_wall_s = sum(r["span"]["wall_s"] for r in restarts)
    scanned = sum(r["span"]["delta"].get("msp.recovery_scan_records", 0) for r in restarts)

    end_to_end = {
        "wall_req_per_s": _metric(_ratio(completed, serve["wall_s"]), "req/s"),
        "recovery_wall_ms_per_krec": _metric(
            _ratio(recover_wall_s * 1e3, scanned / 1e3), "ms/krec"
        ),
        "sim_req_per_s": _metric(_ratio(completed, served["sim_ms"] / 1e3), "req/s"),
        "sim_resp_mean_ms": _metric(statistics.fmean(response_times), "ms"),
        "sim_resp_p95_ms": _metric(_nearest_rank(response_times, 0.95), "ms"),
        "sim_recovery_ms": _metric(
            statistics.fmean(served["recovery_ms"] + [r["open_ms"] for r in restarts]), "ms"
        ),
        "log_bytes_per_req": _metric(
            _ratio(serve["delta"].get("log.appended_bytes", 0), completed), "B/req"
        ),
        "failed_req_share": _metric((attempted - completed) / attempted, "fraction"),
        "peak_rss_mb": _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
        ),
        "setup_s": _metric(setup_s, "s"),
    }
    if len(response_times) >= P99_MIN_SAMPLES:
        end_to_end["sim_resp_p99_ms"] = _metric(_nearest_rank(response_times, 0.99), "ms")
    # What must repeat exactly for one (workload, seed): the simulated
    # results, the kernel's step count, the fleet's own fingerprint and
    # the log volume.
    deterministic = {
        "sim": {
            name: end_to_end[name]["value"]
            for name in (
                "sim_req_per_s", "sim_resp_mean_ms", "sim_resp_p95_ms",
                "sim_recovery_ms", "log_bytes_per_req",
            )
        },
        "steps": [sim.steps for sim in recorder.sims],
        "fleet": served["fleet"] and served["fleet"]["fingerprint"],
        "log_bytes": recorder.counters()["log.appended_bytes"],
        "responses": len(response_times),
    }
    out = {
        "workload": workload, "seed": seed, "scale": scale, "traced": traced,
        "attempted": attempted, "completed": completed,
        "scanned_records": scanned,
        "serve_wall_s": serve["wall_s"], "recover_wall_s": recover_wall_s,
        # The same two walls cut at the ticks of simulated time.
        "serve_slices_s": serve["slices_s"],
        "recover_slices_s": [t for r in restarts for t in r["span"]["slices_s"]],
        "calibration_slices_s": host_speed,
        "fingerprint": hashlib.sha256(
            json.dumps(deterministic, sort_keys=True).encode()
        ).hexdigest(),
        "end_to_end": end_to_end,
    }
    if traced:
        out["per_layer"] = layer_metrics(recorder, serve, served, restarts)
        # How often each phase entered the self-check's entry points
        # (it sizes its delay per call from this).
        out["entry_calls"] = {
            layer: {
                phase: sum(
                    layers.function_totals(
                        profiler.stats, owner.__module__.replace(".", "/") + ".py", name
                    )[0]
                    for owner, name in targets
                )
                for phase, profiler in recorder.profiles.items()
            }
            for layer, targets in INJECT_TARGETS.items()
        }
        write_trace(workload, recorder.spans, out["per_layer"])
    return out


def layer_metrics(recorder: Recorder, serve: dict, served: dict, restarts: list) -> dict:
    """The per-layer numbers of one traced cycle.  ``op`` is a completed
    request in the serve phase and a scanned record in the recover
    phase.  Metrics of a mechanism the workload does not have (the
    fleet, lazy recovery) are left out, not reported as 0."""
    ops = served["completed"]
    d = serve["delta"]
    whole = recorder.counters()
    recover: dict = {}
    for r in restarts:
        for key, value in r["span"]["delta"].items():
            recover[key] = recover.get(key, 0) + value
    scanned = recover.get("msp.recovery_scan_records", 0)
    crashes = whole.get("msp.crashes", 0)
    n_disks = sum(len(msp.disks) for msp in recorder.msps)

    out: dict = {}

    def put(name, value, unit):
        out[name] = _metric(value, unit)

    profiles = {}
    tables = {}
    for phase, phase_ops in (("serve", ops), ("recover", scanned)):
        profiler = recorder.profiles[phase]
        profiler.create_stats()
        profiles[phase] = profiler.stats
        table = tables[phase] = layers.bucket(profiler.stats)
        for layer in layers.LAYERS:
            put(f"{phase}.{layer}.self_share",
                _ratio(table["self_s"][layer], table["total_s"]), "fraction")
            put(f"{phase}.{layer}.self_us_per_op",
                _ratio(table["self_s"][layer] * 1e6, phase_ops), "us/op")
            put(f"{phase}.{layer}.calls_per_op",
                _ratio(table["calls"][layer], phase_ops), "1/op")
    profiled = sum(table["total_s"] for table in tables.values())
    for layer in layers.LAYERS:
        # Both timed phases together: what the workload as a whole stresses.
        put(f"cycle.{layer}.self_share",
            _ratio(sum(table["self_s"][layer] for table in tables.values()), profiled),
            "fraction")

    def per_call(phase, path, name, per):
        _calls, cum = layers.function_totals(profiles[phase], path, name)
        return _ratio(cum * 1e6, per)

    steps = d.get("sim.steps", 0)
    put("sim.callbacks_per_op", _ratio(steps, ops), "1/op")
    lt_calls, _ = layers.function_totals(profiles["serve"], "repro/sim/kernel.py", "__lt__")
    put("sim.lt_calls_per_callback", _ratio(lt_calls, steps), "1/callback")
    put("sim.cpu_charges_per_op", _ratio(d.get("cpu.charges", 0), ops), "1/op")

    sent = d.get("net.messages_sent", 0)
    put("net.msgs_per_op", _ratio(sent, ops), "1/op")
    put("net.bytes_per_op", _ratio(d.get("net.bytes_sent", 0), ops), "B/op")
    put("net.dropped_share", _ratio(d.get("net.messages_dropped", 0), sent), "fraction")

    appended = d.get("log.appended_records", 0)
    flush_requests = d.get("log.flush_requests", 0)
    flushes = d.get("log.physical_flushes", 0)
    sectors = d.get("log.flushed_sectors", 0)
    put("log.records_per_op", _ratio(appended, ops), "1/op")
    put("log.bytes_per_op", _ratio(d.get("log.appended_bytes", 0), ops), "B/op")
    put("log.flush_requests_per_op", _ratio(flush_requests, ops), "1/op")
    put("log.physical_flushes_per_op", _ratio(flushes, ops), "1/op")
    put("log.coalesced_share",
        _ratio(max(0, flush_requests - flushes), flush_requests), "fraction")
    put("log.sectors_per_flush", _ratio(sectors, flushes), "sectors")
    put("log.wasted_byte_share",
        _ratio(d.get("log.wasted_bytes", 0), sectors * SECTOR_BYTES), "fraction")
    put("log.truncated_byte_share",
        _ratio(d.get("log.truncated_bytes", 0), d.get("log.appended_bytes", 0)), "fraction")
    put("log.live_bytes_end",
        sum(store.live_bytes for msp in recorder.msps for store in msp.stores), "B")
    put("log.disk_busy_share",
        _ratio(d.get("disk.busy_ms", 0), serve["sim_ms"] * n_disks), "fraction")
    put("log.write_sim_ms_per_op", _ratio(d.get("span.log.write.ms", 0), ops), "ms/op")
    encodes, encode_s = layers.function_totals(profiles["serve"], "repro/core/records.py", "encode")
    put("log.encode_us_per_rec", _ratio(encode_s * 1e6, encodes), "us/rec")
    decodes, decode_s = layers.function_totals(
        profiles["recover"], "repro/core/records.py", "decode_record")
    put("log.decode_us_per_rec", _ratio(decode_s * 1e6, decodes), "us/rec")
    lookups = recover.get("log.decode_cache_hits", 0) + recover.get("log.decode_cache_misses", 0)
    put("log.decode_cache_hit_rate",
        _ratio(recover.get("log.decode_cache_hits", 0), lookups), "fraction")
    _scans, scan_s = layers.function_totals(
        profiles["recover"], "repro/core/log_manager.py", "scan_durable")
    put("log.scan_mb_per_s",
        _ratio(sum(r["span"]["scan_bytes"] for r in restarts) / 1e6, scan_s), "MB/s")

    processed = d.get("msp.requests_processed", 0)
    put("core_request.cpu_busy_share",
        _ratio(d.get("cpu.busy_ms", 0), serve["sim_ms"] * len(recorder.msps)), "fraction")
    put("core_request.dist_flushes_per_op",
        _ratio(d.get("msp.distributed_flushes", 0), ops), "1/op")
    put("core_request.flush_sim_ms_per_op",
        _ratio(d.get("span.flush.distributed.ms", 0), ops), "ms/op")
    put("core_request.flush_remote_sim_ms_per_op",
        _ratio(d.get("span.flush.leg.remote.ms", 0), ops), "ms/op")
    put("core_request.session_ckpts_per_kop",
        _ratio(d.get("msp.session_checkpoints", 0) * 1e3, ops), "1/kop")
    put("core_request.dup_busy_share",
        _ratio(d.get("msp.requests_duplicate", 0) + d.get("msp.busy_replies", 0), processed),
        "fraction")
    put("core_request.resends_per_op", _ratio(d.get("client.resends", 0), ops), "1/op")

    # Counts and simulated spans cover every crash of the cycle (the
    # kills while serving too); wall costs come from the quiesced
    # restarts, where nothing else runs.
    put("core_recovery.scan_records_per_crash",
        _ratio(whole.get("msp.recovery_scan_records", 0), crashes), "rec/crash")
    put("core_recovery.replayed_per_crash",
        _ratio(whole.get("msp.replayed_requests", 0), crashes), "req/crash")
    put("core_recovery.orphans_per_crash",
        _ratio(whole.get("msp.orphan_recoveries", 0), crashes), "1/crash")
    for short, span_name in (
        ("scan", "recovery.scan"), ("analyze", "recovery.analyze"), ("replay", "recovery.session")
    ):
        put(f"core_recovery.{short}_sim_ms",
            _ratio(whole.get(f"span.{span_name}.ms", 0), whole.get(f"span.{span_name}.n", 0)),
            "ms")
    put("core_recovery.analyze_us_per_rec",
        per_call("recover", "repro/core/crash_recovery.py", "analyze_scan", scanned), "us/rec")
    put("core_recovery.replay_us_per_req",
        per_call("recover", "repro/core/replay.py", "run_session_recovery",
                 recover.get("msp.replayed_requests", 0)), "us/req")
    if any(msp.lazy_mode for msp in recorder.msps):
        inline, pump = whole.get("msp.inline_recoveries", 0), whole.get("msp.pump_recoveries", 0)
        put("core_recovery.lazy_inline_share", _ratio(inline, inline + pump), "fraction")
    put("core_recovery.drain_sim_ms", statistics.median(r["drain_ms"] for r in restarts), "ms")

    fleet = served["fleet"]
    if fleet is not None:
        put("fleet.epochs", fleet["epochs"], "count")
        put("fleet.cross_shard_msgs_per_op",
            _ratio(fleet["cross_shard_messages"], ops), "1/op")
        put("fleet.barrier_share",
            _ratio(fleet["wall_s"] - fleet["busy_s"], fleet["wall_s"]), "fraction")

    put("harness.unattributed_share",
        _ratio(sum(table["unattributed_s"] for table in tables.values()), profiled), "fraction")
    return out


def write_trace(workload: str, spans: list, per_layer: dict) -> None:
    """Spans were kept in memory; write them out now the cycle is over."""
    out_dir = os.path.join(BENCH_DIR, "out")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"{workload}.trace.jsonl"), "w") as fh:
        for span in spans:
            fh.write(json.dumps(span, sort_keys=True) + "\n")
        fh.write(json.dumps({"name": "per_layer", "metrics": per_layer}, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--traced", type=int, default=0)
    parser.add_argument("--spawned-at", type=float, default=None)
    parser.add_argument("--inject", default=None, metavar="LAYER:MICROS")
    args = parser.parse_args(argv)
    if args.inject:
        layer, micros = args.inject.split(":")
        inject_delay(layer, float(micros))
    spawned_at = args.spawned_at if args.spawned_at is not None else time.time()
    result = run_cycle(args.workload, args.seed, args.scale, bool(args.traced), spawned_at)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
