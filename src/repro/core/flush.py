"""Distributed log flushes (paper §3.1, §3.2, §3.3).

Before any state leaves a service domain (an outgoing cross-domain
message, a session checkpoint, a shared-variable checkpoint), every
dependency in the relevant DV must be made durable at its MSP: the
coordinator issues one *leg* per DV entry — a local log flush for its
own MSP, a :class:`~repro.core.messages.FlushRequest` to each remote MSP
— and waits for all of them **in parallel** ("the separate local flushes
required by a distributed log flush can be done in parallel").

A leg fails when the target MSP has crashed and lost the requested
state; the coordinator then knows the flushing state is an orphan and
raises :class:`~repro.core.errors.FlushFailed`.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING

from repro.core.config import COSTS
from repro.core.dv import DependencyVector, StateId
from repro.core.errors import FlushFailed
from repro.core.messages import FlushReply, FlushRequest
from repro.core.plsn import plsn_offset, plsn_partition
from repro.sim import SimTimeoutError

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.msp import MiddlewareServer

#: How long a distributed-flush participant request waits for an ack
#: before retrying (covers the target MSP being down).
FLUSH_RETRY_TIMEOUT_MS = 50.0

_port_ids = itertools.count(1)


def distributed_flush(msp: "MiddlewareServer", dv: DependencyVector, subject: str):
    """Flush every dependency of ``dv`` (generator).

    On success, prunes the covered entries out of ``dv`` — they are now
    durable and can never become orphans (this is also why cross-domain
    messages need no DV after the flush).  Raises :class:`FlushFailed`
    when any leg reports the state lost.
    """
    # Fail fast on entries already known to be orphans.
    if dv.resolve(msp.table):
        target, state = msp.table.find_orphan_entry(dv)
        raise FlushFailed(f"{subject}: dependency on {target} {state} already lost")
    entries = list(dv)
    if not entries:
        return

    tracer = msp.sim.tracer
    span = None
    if tracer is not None:
        span = tracer.span(
            "flush.distributed", owner=msp.name, subject=subject, legs=len(entries)
        )
    legs = [
        msp.sim.spawn(
            _flush_leg(msp, target, state),
            name=f"{msp.name}.flushleg.{target}",
            group=msp.group,
        )
        for target, state in entries
    ]
    failures = []
    for (target, state), leg in zip(entries, legs):
        try:
            yield leg
        except FlushFailed as exc:
            failures.append((target, state, exc))
    if failures:
        target, state, _ = failures[0]
        if span is not None:
            span.end(outcome="failed", lost=target)
        raise FlushFailed(f"{subject}: dependency on {target} {state} lost in a crash")
    for target, state in entries:
        dv.prune_covered(target, state)
    msp.stats.distributed_flushes += 1
    if span is not None:
        span.end(outcome="ok")


def _flush_leg(msp: "MiddlewareServer", target: str, state: StateId):
    """One leg of a distributed flush: local or remote."""
    if target == msp.name:
        yield from _local_leg(msp, state)
    else:
        yield from _remote_leg(msp, target, state)


def _local_leg(msp: "MiddlewareServer", state: StateId):
    tracer = msp.sim.tracer
    span = None
    if tracer is not None:
        span = tracer.span(
            "flush.leg.local", owner=msp.name, lsn=state.lsn, epoch=state.epoch
        )
    try:
        yield from _local_leg_body(msp, state)
    finally:
        if span is not None:
            span.end()


def _local_leg_body(msp: "MiddlewareServer", state: StateId):
    if state.epoch == msp.epoch:
        yield from msp.cpu(COSTS.flush_issue_ms)
        # Flush the whole buffer of the partition the DV entry names,
        # not only up to the entry (classical pessimistic logging
        # "flushes the buffer").  Covering the tail matters: a
        # shared-variable *write* record does not advance the session's
        # state number (Fig. 8), so a flush cut exactly at the DV could
        # leave the request's last write volatile — the reply would
        # survive a crash while the write it derived from did not.
        # Other partitions stay untouched: per-partition DV entries
        # spawn one leg per partition, so a distributed flush awaits
        # only the partitions its DV actually names.
        yield from msp.log.flush_partition(plsn_partition(state.lsn))
        return
    # A dependency on our own previous epoch: it survived iff our own
    # recovery covered it (the frontier is an end offset per partition).
    if not msp.table.covers(msp.name, state.epoch, state.lsn):
        raise FlushFailed(f"local state {state} lost")


def _await_matching_ack(msp: "MiddlewareServer", inbox, request: FlushRequest):
    """Wait for the :class:`FlushReply` matching ``request`` (generator).

    A stale ack (a duplicate delivery of an earlier reply, or a reply
    raced by our own timeout-driven resend) must *not* trigger another
    FlushRequest round — it is discarded and the wait simply restarts.
    Each discarded ack resets the timeout window; that is safe because a
    stale ack proves the target is alive and responding.
    """
    while True:
        envelope = yield from inbox.get_with_timeout(FLUSH_RETRY_TIMEOUT_MS)
        reply: FlushReply = envelope.payload
        if reply.req_id == request.req_id:
            return reply
        msp.stats.stale_flush_acks += 1
        tracer = msp.sim.tracer
        if tracer is not None:
            tracer.metrics.inc("flush.stale_acks")
            tracer.instant(
                "flush.stale-ack",
                owner=msp.name,
                expected=request.req_id,
                got=reply.req_id,
            )


def _remote_leg(msp: "MiddlewareServer", target: str, state: StateId):
    """Ask ``target`` to flush; retry while it is down."""
    port = f"flush-ack:{next(_port_ids)}"
    inbox = msp.node.bind(port)
    request = FlushRequest(
        epoch=state.epoch, lsn=state.lsn, reply_to=msp.name, reply_port=port
    )
    tracer = msp.sim.tracer
    span = None
    if tracer is not None:
        span = tracer.span(
            "flush.leg.remote",
            owner=msp.name,
            target=target,
            lsn=state.lsn,
            epoch=state.epoch,
        )
    try:
        while True:  # one iteration per (re)send
            yield from msp.cpu(COSTS.message_stack_ms)
            msp.send(target, "flush", request)
            try:
                reply = yield from _await_matching_ack(msp, inbox, request)
            except SimTimeoutError:
                # The target may have crashed.  If an announcement since
                # resolved our dependency, we can decide locally.
                survived = msp.table.covers(target, state.epoch, state.lsn)
                if survived is False:
                    raise FlushFailed(f"remote state {target} {state} lost") from None
                if survived:
                    if span is not None:
                        span.end(outcome="resolved-by-announcement")
                    return  # durable: it survived the crash
                continue  # still unknown: resend
            if reply.table_snapshot:
                # Piggybacked recovery knowledge: after simultaneous
                # crashes, this is how we learn about recoveries whose
                # broadcast we slept through.
                msp.learn_recovery_knowledge(reply.table_snapshot)
            if not reply.ok:
                if span is not None:
                    span.end(outcome="lost")
                raise FlushFailed(f"remote {target} reports state {state} lost")
            if span is not None:
                span.end(outcome="ok")
            return
    finally:
        if span is not None:
            span.end(outcome="interrupted")
        msp.node.unbind(port)


def flush_service(msp: "MiddlewareServer"):
    """Daemon serving incoming FlushRequests (one handler per request,
    so legs from different coordinators proceed in parallel)."""
    inbox = msp.node.bind("flush")
    while True:
        envelope = yield from inbox.get()
        msp.sim.spawn(
            _serve_flush(msp, envelope.payload),
            name=f"{msp.name}.flushsvc",
            group=msp.group,
        )


def _serve_flush(msp: "MiddlewareServer", request: FlushRequest):
    tracer = msp.sim.tracer
    span = None
    if tracer is not None:
        span = tracer.span(
            "flush.serve",
            owner=msp.name,
            coordinator=request.reply_to,
            lsn=request.lsn,
            epoch=request.epoch,
        )
    try:
        yield from _serve_flush_body(msp, request)
    finally:
        if span is not None:
            span.end()


def _serve_flush_body(msp: "MiddlewareServer", request: FlushRequest):
    yield from msp.cpu(COSTS.message_stack_ms)
    if request.epoch == msp.epoch:
        partition = plsn_partition(request.lsn)
        ok = plsn_offset(request.lsn) < msp.log.partition_end(partition)
        if ok:
            yield from msp.cpu(COSTS.flush_issue_ms)
            # Flush the whole buffer of the named partition (see
            # _local_leg): a strict superset of the requested range at
            # essentially the same disk cost.
            yield from msp.log.flush_partition(partition)
    elif request.epoch < msp.epoch:
        ok = bool(msp.table.covers(msp.name, request.epoch, request.lsn))
    else:
        ok = False
    yield from msp.cpu(COSTS.message_stack_ms)
    reply = FlushReply(
        req_id=request.req_id, ok=ok, table_snapshot=msp.table.snapshot()
    )
    msp.send(request.reply_to, request.reply_port, reply)
