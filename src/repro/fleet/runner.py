"""Fleet coordinator: epoch barriers, canonical merge, worker pool.

The protocol (DESIGN.md §17):

1. Every shard runs its simulator to the barrier time ``t_k = k *
   epoch_ms``.  Messages bound for other shards were captured by the
   network's ``remote_router`` with their exact computed arrival time
   (send time + link latency + transmission + fault delay), which is
   provably ``> t_k`` because cross-shard links have latency >=
   ``epoch_ms`` (validated at construction).
2. At the barrier, the coordinator gathers each shard's outbox and
   incarnation snapshot, merges the envelopes bound for each
   destination shard in canonical order — sorted by ``(arrival_time,
   source shard, send ordinal)`` — and hands them back together with
   the fleet-wide incarnation map.
3. Each shard injects its inbound envelopes (scheduling delivery at the
   exact arrival time) before running the next epoch.

Every coordinator decision is a pure function of the per-shard outputs,
and each shard is a deterministic simulator, so the whole fleet run is
byte-for-byte reproducible at any ``--jobs`` value: ``jobs=1`` steps
all shards in-process (the reference path), ``jobs>1`` spreads them
over persistent spawn workers connected by pipes.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import pickle
import time
import traceback
from typing import Callable, Optional

from repro.fleet.shard import FleetShard
from repro.fleet.topology import FleetSpec, FleetTopology
from repro.trace.metrics import nearest_rank

#: How many epochs between progress callbacks.
_PROGRESS_EVERY = 200


class FleetWorkerError(RuntimeError):
    """A shard worker process died or raised."""


def _step(shard: FleetShard, until: float, inbound, incarnations) -> tuple:
    """One shard's epoch: its outbox, incarnations, whether it settled
    and its cumulative ``Simulator.steps`` (the coordinator's work
    measure)."""
    shard.update_incarnations(incarnations)
    shard.inject(inbound)
    shard.run_until(until)
    return shard.take_outbox(), shard.incarnations(), shard.settled(), shard.sim.steps


class _SequentialExecutor:
    """jobs=1 reference path: every shard stepped in-process, in order.

    ``busy_s`` is the wall time spent inside shard stepping (the
    benchmark reads it); wall-clock never enters the shard results, so
    fingerprints stay jobs-invariant.
    """

    def __init__(self, spec: FleetSpec, tracer_factory=None):
        self.shards = [FleetShard(spec, i) for i in range(spec.shards)]
        self.busy_s = 0.0
        if tracer_factory is not None:
            # The factory receives each shard and attaches whatever
            # instrumentation it wants (e.g. Tracer(shard.sim).attach()).
            for shard in self.shards:
                tracer_factory(shard)

    def epoch(self, until, inbound_by_shard, incarnations):
        started = time.perf_counter()
        out = {
            shard.index: _step(shard, until, inbound_by_shard.get(shard.index, []),
                               incarnations)
            for shard in self.shards
        }
        self.busy_s += time.perf_counter() - started
        return out

    def finalize(self):
        return {s.index: s.finalize() for s in self.shards}, {"busy_s": self.busy_s}

    def close(self):
        pass


def _fleet_worker_main(conn, spec_bytes: bytes, shard_ids: list[int]) -> None:
    """Persistent worker: owns its shards across all epoch barriers."""
    try:
        spec = pickle.loads(spec_bytes)
        shards = {sid: FleetShard(spec, sid) for sid in shard_ids}
        while True:
            msg = conn.recv()
            if msg[0] == "epoch":
                _, until, inbound_by_shard, incarnations = msg
                out = {
                    sid: _step(shards[sid], until, inbound_by_shard.get(sid, []),
                               incarnations)
                    for sid in shard_ids
                }
                conn.send(("ok", out))
            elif msg[0] == "finalize":
                conn.send(("done", {sid: shards[sid].finalize() for sid in shard_ids}))
                return
            else:  # pragma: no cover - protocol error
                raise RuntimeError(f"unknown fleet worker command {msg[0]!r}")
    except Exception:  # noqa: BLE001 - surfaced to the coordinator
        try:
            conn.send(("error", traceback.format_exc()))
        except Exception:  # pragma: no cover - pipe already gone
            pass


class _PoolExecutor:
    """jobs>1: shards spread round-robin over persistent spawn workers."""

    def __init__(self, spec: FleetSpec, jobs: int):
        ctx = multiprocessing.get_context("spawn")
        spec_bytes = pickle.dumps(spec)
        self.assignment = [
            sorted(range(w, spec.shards, jobs)) for w in range(jobs)
        ]
        self.conns = []
        self.procs = []
        for shard_ids in self.assignment:
            parent, child = ctx.Pipe()
            proc = ctx.Process(
                target=_fleet_worker_main,
                args=(child, spec_bytes, shard_ids),
                daemon=True,
            )
            proc.start()
            child.close()
            self.conns.append(parent)
            self.procs.append(proc)

    def _recv(self, conn):
        try:
            msg = conn.recv()
        except EOFError as exc:
            raise FleetWorkerError("fleet worker died mid-run") from exc
        if msg[0] == "error":
            raise FleetWorkerError(f"fleet worker failed:\n{msg[1]}")
        return msg

    def epoch(self, until, inbound_by_shard, incarnations):
        for conn, shard_ids in zip(self.conns, self.assignment):
            local_inbound = {
                sid: inbound_by_shard[sid]
                for sid in shard_ids
                if sid in inbound_by_shard
            }
            conn.send(("epoch", until, local_inbound, incarnations))
        out = {}
        for conn in self.conns:
            _, worker_out = self._recv(conn)
            out.update(worker_out)
        return out

    def finalize(self):
        for conn in self.conns:
            conn.send(("finalize",))
        results = {}
        for conn in self.conns:
            results.update(self._recv(conn)[1])
        return results, {}

    def close(self):
        for conn in self.conns:
            conn.close()
        for proc in self.procs:
            proc.join(timeout=10)
            if proc.is_alive():  # pragma: no cover - cleanup of a hung worker
                proc.terminate()


def _merge_outboxes(epoch_out) -> dict[int, list[tuple[float, object]]]:
    """Canonical cross-shard merge: (arrival, source shard, ordinal)."""
    routed: dict[int, list[tuple[float, int, int, object]]] = {}
    for src in sorted(epoch_out):
        outbox = epoch_out[src][0]
        for dest, arrival, ordinal, envelope in outbox:
            routed.setdefault(dest, []).append((arrival, src, ordinal, envelope))
    merged: dict[int, list[tuple[float, object]]] = {}
    for dest, entries in routed.items():
        entries.sort(key=lambda e: (e[0], e[1], e[2]))
        merged[dest] = [(arrival, env) for arrival, _s, _o, env in entries]
    return merged


def run_fleet(
    spec: FleetSpec,
    jobs: int = 1,
    progress: Optional[Callable[[str], None]] = None,
    tracer_factory=None,
) -> dict:
    """Run the fleet to quiescence; returns the deterministic result.

    ``jobs`` is pure execution parallelism (capped at the shard count);
    the result is byte-identical at any value.  ``tracer_factory(i)``
    attaches a tracer to each shard's sim — sequential path only.
    """
    topology = FleetTopology(spec)  # validates before any worker spawns
    jobs = max(1, min(jobs, spec.shards))
    if tracer_factory is not None and jobs > 1:
        raise ValueError("tracing a fleet run requires --jobs 1")
    started = time.perf_counter()
    if jobs == 1:
        executor = _SequentialExecutor(spec, tracer_factory=tracer_factory)
    else:
        executor = _PoolExecutor(spec, jobs)

    horizon_ms = spec.duration_ms + spec.settle_ms
    epoch = 0
    sim_t = 0.0
    pending: dict[int, list[tuple[float, object]]] = {}
    incarnations: dict[str, int] = {}
    cross_shard_messages = 0
    # The parallel critical path in work: shards barrier every epoch, so
    # the shard that ran the most kernel steps in an epoch is that
    # epoch's share of it — host-independent, unlike wall seconds.
    shard_steps = [0] * spec.shards
    critical_steps = 0
    timed_out = False
    try:
        while True:
            epoch += 1
            sim_t = epoch * spec.epoch_ms
            epoch_out = executor.epoch(sim_t, pending, incarnations)
            pending = _merge_outboxes(epoch_out)
            cross_shard_messages += sum(len(v) for v in pending.values())
            deltas = []
            for index, (_outbox, inc, _settled, steps) in epoch_out.items():
                incarnations.update(inc)
                deltas.append(steps - shard_steps[index])
                shard_steps[index] = steps
            critical_steps += max(deltas)
            all_settled = all(out[2] for out in epoch_out.values())
            if all_settled and not pending:
                break
            if sim_t >= horizon_ms:
                timed_out = True
                break
            if progress is not None and epoch % _PROGRESS_EVERY == 0:
                done = sum(1 for out in epoch_out.values() if out[2])
                progress(
                    f"epoch {epoch} (t={sim_t:.0f} ms, "
                    f"{done}/{spec.shards} shards settled)"
                )
        shard_results, worker_timing = executor.finalize()
    finally:
        executor.close()
    wall_s = time.perf_counter() - started

    shards = [shard_results[i] for i in range(spec.shards)]
    expected_hits: dict[str, int] = {}
    actual_hits: dict[str, int] = {}
    latencies: list[float] = []
    ledger_totals: dict[str, int] = {}
    violations: list[str] = []
    totals = {
        "expected_sessions": 0,
        "completed_sessions": 0,
        "completed_calls": 0,
        "call_errors": 0,
        "cross_domain_calls": 0,
        "steps": 0,
    }
    latency_total_ms = 0.0
    recovery_events: list[dict] = []
    for shard in shards:
        for key in totals:
            totals[key] += shard[key]
        for msp, n in shard["expected_hits"].items():
            expected_hits[msp] = expected_hits.get(msp, 0) + n
        actual_hits.update(shard["actual_hits"])
        latencies.extend(shard["latency"].pop("samples_ms"))
        latency_total_ms += shard["latency"]["total_ms"]
        for key, value in shard["ledger"].items():
            ledger_totals[key] = ledger_totals.get(key, 0) + value
        recovery_events.extend(shard.get("recovery_events", ()))
        violations.extend(shard["violations"])
    totals["critical_steps"] = critical_steps
    recovery_events.sort(key=lambda e: (e["at_ms"], e["msp"], e["kind"]))
    latencies.sort()

    def percentile(q: float) -> float:
        return round(nearest_rank(latencies, q), 6) if latencies else 0.0

    completed = (
        not timed_out
        and totals["completed_sessions"] == totals["expected_sessions"]
        and totals["call_errors"] == 0
    )
    hit_mismatches = sorted(
        msp
        for msp in set(expected_hits) | {m for m, n in actual_hits.items() if n}
        if expected_hits.get(msp, 0) != actual_hits.get(msp, 0)
    )
    exactly_once = completed and not hit_mismatches
    if completed and hit_mismatches:
        for msp in hit_mismatches:
            violations.append(
                f"exactly-once violated at {msp}: expected "
                f"{expected_hits.get(msp, 0)} hits, counter shows "
                f"{actual_hits.get(msp, 0)}"
            )
    exported = ledger_totals.get("messages_exported", 0)
    imported = ledger_totals.get("messages_imported", 0)
    ledger_balanced = (
        exported == imported
        and ledger_totals.get("messages_sent", 0)
        + ledger_totals.get("messages_duplicated", 0)
        == ledger_totals.get("messages_delivered", 0)
        + ledger_totals.get("messages_dropped", 0)
        + ledger_totals.get("messages_in_flight", 0)
    )
    if not ledger_balanced:
        violations.append(f"fleet network ledger out of balance: {ledger_totals}")

    calls = totals["completed_calls"]
    result = {
        "spec": spec.canonical(),
        "domains": [list(d) for d in topology.domain_lists],
        "epochs": epoch,
        "sim_time_ms": sim_t,
        "timed_out": timed_out,
        "cross_shard_messages": cross_shard_messages,
        "totals": totals,
        "expected_hits": dict(sorted(expected_hits.items())),
        "actual_hits": dict(sorted(actual_hits.items())),
        "latency_ms": {
            "mean": round(latency_total_ms / calls, 6) if calls else 0.0,
            "p50": percentile(0.50),
            "p95": percentile(0.95),
            "p99": percentile(0.99),
            "max": percentile(1.0),
        },
        "ledger": ledger_totals,
        "recovery": recovery_events,
        "verdicts": {
            "completed": completed,
            "exactly_once": exactly_once,
            "ledger_balanced": ledger_balanced,
            "domains_isolated": not any(
                "domain boundary" in v for v in violations
            ),
            "clean": completed and exactly_once and ledger_balanced
            and not violations,
        },
        "violations": violations,
        "shards": shards,
        "timing": {
            "wall_s": wall_s,
            "jobs": jobs,
            "sim_req_per_s": (calls / (sim_t / 1000.0)) if sim_t else 0.0,
            "wall_req_per_s": (calls / wall_s) if wall_s > 0 else 0.0,
            # jobs=1: busy seconds inside shard stepping; jobs>1: empty.
            "workers": worker_timing,
        },
    }
    return result


def canonical_result_bytes(result: dict) -> bytes:
    """The deterministic byte form: everything except wall-clock timing."""
    stable = {k: v for k, v in result.items() if k != "timing"}
    return json.dumps(stable, sort_keys=True, separators=(",", ":")).encode()


def fleet_fingerprint(result: dict) -> str:
    """SHA-256 over the canonical result bytes (the --jobs invariance
    check: equal fingerprints == byte-identical runs)."""
    return hashlib.sha256(canonical_result_bytes(result)).hexdigest()
