"""A bounded crash battery over the legal configuration space.

The §5.1 workload (two clients, atomic shared-variable updates, MSP2
killed every few requests) must verify exactly-once at *every* legal
partition count, logging mode and recovery mode — not only at the
P in {1, 4} the fuzz matrix runs.  Sizes are chosen to cross the
shared-variable checkpoint threshold, because a checkpoint on the
control partition is where the partitions' orders meet (DESIGN.md §14).

``limit_ms`` is a few simulated minutes: a client stuck resending to a
server that rolled its session back fails here in seconds of wall time.
"""

import pytest

from repro.core import RecoveryConfig, ServiceDomainConfig
from repro.core.client import EndClient
from repro.core.msp import MiddlewareServer
from repro.core.plsn import plsn_offset, plsn_partition
from repro.core.shared_variable import SharedVariable
from repro.net import Network
from repro.sim import RngRegistry, Simulator
from repro.workloads import PaperWorkload, WorkloadParams

PARTITIONS = (1, 2, 3, 4, 5, 8, 16)


def run_and_verify(requests, crash_every, **params):
    workload = PaperWorkload(
        WorkloadParams(
            configuration="LoOptimistic",
            num_clients=2,
            requests_per_client=requests,
            crash_every_n=crash_every,
            atomic_sv_updates=True,
            seed=0,
            **params,
        )
    )
    result = workload.run(limit_ms=120_000.0)
    assert result.completed_requests == 2 * requests, "a client is stuck"
    assert result.crashes >= 2
    workload.verify_exactly_once()


@pytest.mark.parametrize("threshold", (2, 6))
@pytest.mark.parametrize("recovery_mode", ("eager", "lazy"))
@pytest.mark.parametrize("logging_mode", ("value", "command"))
@pytest.mark.parametrize("partitions", PARTITIONS)
def test_frequent_sv_checkpoints(partitions, logging_mode, recovery_mode, threshold):
    run_and_verify(
        25,
        9,
        log_partitions=partitions,
        logging_mode=logging_mode,
        recovery_mode=recovery_mode,
        sv_ckpt_write_threshold=threshold,
    )


@pytest.mark.parametrize("partitions", PARTITIONS)
def test_default_sv_checkpoint_threshold(partitions):
    # 300 updates per variable cross the default threshold of 200 once.
    run_and_verify(150, 30, log_partitions=partitions)


def _count(ctx, argument):
    raw = yield from ctx.get_session_var("n")
    n = int.from_bytes(raw or b"\x00", "big") + 1
    yield from ctx.set_session_var("n", n.to_bytes(4, "big"))
    return n.to_bytes(4, "big")


def _second_call_after_crash(partitions, send_ms):
    """One MSP, all defaults: a session's first call sent at ``send_ms``,
    a crash 500 ms later, then its second call.  Returns what that call
    answered (None: the client hangs) and whether some record — the
    first request, nothing else is going on — was appended while an MSP
    checkpoint was between capturing its start lsns and appending its
    own record."""
    sim = Simulator()
    rng = RngRegistry(0)
    net = Network(sim, rng=rng)
    msp = MiddlewareServer(
        sim, net, "server", ServiceDomainConfig(),
        config=RecoveryConfig(log_partitions=partitions), rng=rng,
    )
    msp.register_service("count", _count)
    client = EndClient(sim, net, "client")
    msp.start_process()
    session = client.open_session("server")
    sites = []
    sim.add_probe_listener(lambda site, owner: sites.append(site))

    def driver():
        yield send_ms
        yield from session.call("count", b"")
        yield 500.0
        msp.crash()
        yield msp.restart_process()
        second = yield from session.call("count", b"")
        return int.from_bytes(second.payload, "big")

    process = sim.spawn(driver())
    sim.run_until_process(process, limit=30_000)
    trail = "".join(
        {"ckpt.msp.forced": "<", "log.append": "a", "ckpt.msp.logged": ">"}.get(site, "")
        for site in sites
    )
    return (None if process.alive else process.result), "<aa>" in trail


@pytest.mark.parametrize("partitions", PARTITIONS)
def test_a_session_born_during_an_msp_checkpoint_survives_the_restart(partitions):
    """The checkpoint's start-lsn tables are captured before a CPU
    charge and its record appended after it.  A session whose first
    request lands in between is in no table and below the record; only
    the partition ends captured with the tables keep it above the scan
    start.  A single log used to write no ends: the restart scanned from
    the record, never rebuilt the session and dropped its seq 2 as out
    of order forever."""
    hit = 0
    for step in range(20):
        answer, in_window = _second_call_after_crash(partitions, 2007.9 + 0.02 * step)
        assert answer == 2, f"sent at {2007.9 + 0.02 * step:.2f} ms"
        hit += in_window
    assert hit, "the sweep no longer crosses the checkpoint's capture-to-append window"


def _restart_on_a_forked_write(partitions, clients, seed, monkeypatch):
    """The §5.1 workload with MSP2 killed every five requests, so MSP1's
    variables keep being orphaned and rolled back.  A rollback that undid
    writes makes the next write to the variable name the restored record
    as its predecessor, beside the undone ones: the variable's records
    fork.  When that write comes from a session on another partition, at
    a smaller offset than the undone branch's head, the recovery merge
    installs the undone head *after* it — so flush it, and if it is still
    the variable's newest write, kill MSP1 right there.  Returns whether
    the kill happened; the run must verify exactly-once either way."""
    workload = PaperWorkload(
        WorkloadParams(
            configuration="LoOptimistic", num_clients=clients,
            requests_per_client=10, crash_every_n=5, atomic_sv_updates=True,
            seed=seed, log_partitions=partitions,
        )
    )
    msp1 = workload.msp1
    undone: dict[str, int] = {}
    killed = []
    roll_back, apply_write = SharedVariable.roll_back, SharedVariable.apply_write

    def rolling_back(sv, table):
        head = sv.last_write_lsn
        popped = roll_back(sv, table)
        if popped and msp1.shared.get(sv.name) is sv:
            undone[sv.name] = head
        return popped

    def kill_when_durable(sv, lsn):
        yield from msp1.log.flush(lsn)
        if msp1.running and sv.last_write_lsn == lsn and not killed:
            killed.append(lsn)
            msp1.crash()
            msp1.restart_process()

    def applying(sv, lsn, value, writer_dv):
        apply_write(sv, lsn, value, writer_dv)
        head = undone.pop(sv.name, None)
        if (
            head is not None
            and not killed
            and msp1.running
            and msp1.shared.get(sv.name) is sv
            and plsn_partition(lsn) != plsn_partition(head)
            and plsn_offset(lsn) < plsn_offset(head)
        ):
            workload.sim.spawn(kill_when_durable(sv, lsn), name="fork-kill")

    monkeypatch.setattr(SharedVariable, "roll_back", rolling_back)
    monkeypatch.setattr(SharedVariable, "apply_write", applying)
    result = workload.run(limit_ms=120_000.0)
    assert result.completed_requests == clients * 10, "a client is stuck"
    workload.verify_exactly_once()
    return bool(killed)


@pytest.mark.parametrize("partitions, clients", ((2, 6), (3, 6), (4, 4)))
def test_a_write_after_a_rollback_survives_the_restart(partitions, clients, monkeypatch):
    """An undo that walked ``prev_write_lsn`` back from whatever the
    scan installed last started on the undone branch and walked past the
    committed write — a lost update on seeds 1 (P=2), 3 (P=3) and 1, 2
    (P=4) at ``7bb5466``.  The undo stack the scan rebuilds holds the
    write in application order and pops only orphans above it."""
    hit = sum(
        _restart_on_a_forked_write(partitions, clients, seed, monkeypatch)
        for seed in range(4)
    )
    assert hit >= 2, "the runs no longer reach a forked write to restart on"
