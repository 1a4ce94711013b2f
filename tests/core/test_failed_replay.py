"""A session replay that fails must not open the session.

``run_session_recovery`` used to set the session ``NORMAL`` and clear
``recovery_pending`` in a ``finally`` — on *any* exit.  Nothing joins a
replay or pump process, so an error from the log reader left a
half-replayed session open for traffic and the failure unread in a dead
process.  Now only a completed replay opens the session: on an error it
stays ``RECOVERING`` and ``recovery_pending``, ``msp.failed_replays``
(an invariant counter, must stay 0) is bumped and ``check_msp`` reports
it, and the error goes on naming MSP, session and position.
"""

import pytest

import repro.core.crash_recovery as crash_recovery
from repro.core import RecoveryConfig, ServiceDomainConfig
from repro.core.dv import DependencyVector, StateId
from repro.core.errors import OrphanDetected
from repro.core.log_manager import LogWindowReader
from repro.core.msp import MiddlewareServer
from repro.core.records import RequestRecord
from repro.core.replay import run_session_recovery
from repro.core.session import SessionStatus
from repro.fuzz.invariants import check_msp
from repro.net import Network
from repro.sim import RngRegistry, Simulator
from repro.storage import LogTruncatedError
from repro.workloads.paper import PaperWorkload, WorkloadParams

REQUESTS = 30


def served_workload(**mode) -> PaperWorkload:
    workload = PaperWorkload(WorkloadParams(
        configuration="LoOptimistic", num_clients=2, requests_per_client=REQUESTS,
        atomic_sv_updates=True, session_ckpt_threshold=None, seed=0, **mode,
    ))
    workload.run()
    workload.verify_exactly_once()
    return workload


def fail_nth_fetch(patch, nth: int) -> None:
    """From now on the ``nth`` ``LogWindowReader.fetch`` raises."""
    fetch = LogWindowReader.fetch
    calls = [0]

    def flaky(self, lsn):
        calls[0] += 1
        if calls[0] == nth:
            raise LogTruncatedError(f"injected: fetch at {lsn}")
        return (yield from fetch(self, lsn))

    patch.setattr(LogWindowReader, "fetch", flaky)


def _pending(msp) -> bool:
    return any(s.lazy_pending or s.recovery_pending for s in msp.sessions.values())


def assert_one_session_left_closed(msp):
    assert msp.running
    closed = [s for s in msp.sessions.values() if s.recovery_pending]
    assert len(closed) == 1
    (session,) = closed
    assert session.status is SessionStatus.RECOVERING
    assert session.next_expected_seq < REQUESTS  # half-replayed
    for other in msp.sessions.values():
        if other is not session:
            assert other.status is SessionStatus.NORMAL
            assert other.next_expected_seq == REQUESTS
    assert msp.failed_replays == 1
    assert [v for v in check_msp(msp) if v.startswith("replay: ")]
    return session


@pytest.mark.parametrize(
    "mode",
    [
        pytest.param(dict(), id="eager"),
        pytest.param(dict(recovery_mode="lazy"), id="lazy-pump"),
    ],
)
def test_failed_replay_leaves_the_session_closed_until_a_clean_restart(mode, monkeypatch):
    workload = served_workload(**mode)
    sim, msp = workload.sim, workload.msp1
    msp.crash()
    with monkeypatch.context() as patch:
        fail_nth_fetch(patch, 10)
        msp.restart_process()
        sim.run(until=sim.now + 5_000.0)
    session = assert_one_session_left_closed(msp)
    assert not [v for v in check_msp(workload.msp2) if v.startswith("replay: ")]

    # The reader no longer fails: the next restart rebuilds the session
    # from the log and replays all of it.
    msp.crash()
    msp.restart_process()
    sim.run(until=sim.now + 5_000.0)
    assert msp.running and not _pending(msp)
    recovered = msp.sessions[session.id]
    assert recovered.status is SessionStatus.NORMAL
    assert recovered.next_expected_seq == REQUESTS
    workload.verify_exactly_once()


def test_failed_inline_replay_names_the_session_and_answers_busy(monkeypatch):
    # No drain: only an arriving request can claim a pending session.
    monkeypatch.setattr(crash_recovery, "drain", lambda msp, state: None)
    workload = served_workload(recovery_mode="lazy")
    sim, msp = workload.sim, workload.msp1
    msp.crash()
    msp.restart_process()
    sim.run(until=sim.now + 1_000.0)
    assert msp.running and all(s.lazy_pending for s in msp.sessions.values())

    client_session = workload.sessions[1]
    fail_nth_fetch(monkeypatch, 10)
    busy_before = msp.stats.busy_replies
    sim.spawn(client_session.call("service_method1", b"\x00" * 100))
    sim.run(until=sim.now + 1_000.0)
    assert msp.stats.inline_recoveries == 1
    session = msp.sessions[client_session.id]
    assert not session.lazy_pending and session.recovery_pending
    assert session.status is SessionStatus.RECOVERING
    assert session.next_expected_seq < REQUESTS
    assert msp.failed_replays == 1
    # The client is told to retry, not served from half-replayed state.
    assert msp.stats.busy_replies > busy_before
    assert client_session.next_seq == REQUESTS

    # The same failure, seen by whoever does join the replay.
    other = msp.sessions[workload.sessions[0].id]
    fail_nth_fetch(monkeypatch, 5)
    replay = sim.spawn(crash_recovery.recover_session(msp, other))
    sim.run_until_process(replay, limit=sim.now + 1_000.0)
    with pytest.raises(
        LogTruncatedError,
        match=rf"msp1: replay of session {other.id} from checkpoint None "
        r"failed at stream LSN (\d+): injected: fetch at \1$",
    ):
        replay.result
    assert msp.failed_replays == 2


def test_an_orphan_found_by_the_live_tail_is_not_a_failed_replay():
    """Once the stream is exhausted mid-method the request goes on live,
    and its interception points may find the session an orphan again.
    That is orphan detection, not a broken log: the session opens as it
    did before, for the next interception point to recover it."""
    sim = Simulator()
    rng = RngRegistry(0)
    msp = MiddlewareServer(
        sim, Network(sim, rng=rng), "server", ServiceDomainConfig([["server", "peer"]]),
        config=RecoveryConfig(), rng=rng,
    )
    msp.register_shared("v", b"init")
    sim.run_until_process(msp.start_process(), limit=60_000)

    def method(ctx, argument):
        # News of the peer's crash arrives while the request replays ...
        msp.table.record("peer", 0, 50)
        # ... and the log has no more of this request: the read is live.
        return (yield from ctx.read_shared("v"))

    msp.register_service("m", method)
    session = msp.session_for("s")
    depends_on_peer = DependencyVector()
    depends_on_peer.observe("peer", StateId(0, 100))
    lsn, size = msp.log.append(RequestRecord("s", 0, "m", b"", depends_on_peer))
    session.account_record(lsn, size, msp.epoch)

    replay = sim.spawn(run_session_recovery(msp, session, orphan=False))
    sim.run_until_process(replay, limit=sim.now + 10_000)
    with pytest.raises(OrphanDetected):
        replay.result
    assert session.status is SessionStatus.NORMAL and not session.recovery_pending
    assert session.is_orphan(msp.table)
    assert msp.failed_replays == 0
