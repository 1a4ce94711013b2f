"""Kill-safety: killed processes must not leak grants, locks or items.

A process can be killed (crash injection) at *any* suspension point —
including the narrow window after a resource grant / item delivery was
triggered for it but before it resumed.  Leaking that grant deadlocks
every future acquirer; this is exactly how a second crash during MSP
recovery once wedged the disk forever.
"""

from types import SimpleNamespace

import pytest

from repro.core.msp import MiddlewareServer
from repro.sim import ProcessGroup, ProcessKilled, Resource, RWLock, Simulator, Store


def test_resource_grant_to_killed_waiter_is_handed_on():
    sim = Simulator()
    res = Resource(sim, capacity=1, name="disk")
    served = []

    def holder():
        yield from res.acquire()
        try:
            yield 10.0
        finally:
            res.release()

    def waiter(name):
        yield from res.acquire()
        try:
            served.append(name)
            yield 1.0
        finally:
            res.release()

    sim.spawn(holder())
    victim = sim.spawn(waiter("victim"))
    sim.spawn(waiter("survivor"))

    # Kill the victim exactly when the holder releases (t=10): the grant
    # event fires at 10 and the victim dies at 10 before consuming it.
    def killer():
        yield 10.0
        victim.kill()

    sim.spawn(killer())
    sim.run()
    assert served == ["survivor"]
    assert res.in_use == 0


def test_resource_not_leaked_under_mass_kill():
    """Kill a whole group at a moment of heavy contention; the resource
    must end up free."""
    from repro.sim import ProcessGroup

    sim = Simulator()
    res = Resource(sim, capacity=2)
    group = ProcessGroup("msp")

    def worker():
        while True:
            yield from res.acquire()
            try:
                yield 3.0
            finally:
                res.release()
            yield 1.0

    for _ in range(8):
        sim.spawn(worker(), group=group)

    def crash():
        yield 10.0
        group.kill_all()

    sim.spawn(crash())
    sim.run(until=50.0)
    assert res.in_use == 0

    # A fresh acquirer succeeds immediately.
    done = []

    def probe():
        yield from res.acquire()
        try:
            done.append(sim.now)
        finally:
            res.release()

    sim.spawn(probe())
    sim.run(until=60.0)
    assert done


def test_rwlock_write_grant_to_killed_waiter():
    sim = Simulator()
    lock = RWLock(sim)
    served = []

    def reader():
        yield from lock.acquire_read()
        try:
            yield 10.0
        finally:
            lock.release_read()

    def writer(name):
        yield from lock.acquire_write()
        try:
            served.append(name)
            yield 1.0
        finally:
            lock.release_write()

    sim.spawn(reader())
    victim = sim.spawn(writer("victim"))
    sim.spawn(writer("survivor"))

    def killer():
        yield 10.0
        victim.kill()

    sim.spawn(killer())
    sim.run()
    assert served == ["survivor"]
    # Lock fully free afterwards.
    assert lock._readers == 0 and not lock._writer


def test_rwlock_read_grant_to_killed_waiter():
    sim = Simulator()
    lock = RWLock(sim)
    served = []

    def writer():
        yield from lock.acquire_write()
        try:
            yield 10.0
        finally:
            lock.release_write()

    def reader(name):
        yield from lock.acquire_read()
        try:
            served.append(name)
            yield 1.0
        finally:
            lock.release_read()

    sim.spawn(writer())
    victim = sim.spawn(reader("victim"))

    def killer():
        yield 10.0
        victim.kill()

    sim.spawn(killer())
    sim.run()
    assert lock._readers == 0

    ok = []

    def late_writer():
        yield from lock.acquire_write()
        try:
            ok.append(True)
        finally:
            lock.release_write()

    sim.spawn(late_writer())
    sim.run()
    assert ok


def test_store_item_delivered_to_killed_getter_requeued():
    sim = Simulator()
    store = Store(sim)
    got = []

    def getter(name):
        item = yield from store.get()
        got.append((name, item))

    victim = sim.spawn(getter("victim"))
    survivor = sim.spawn(getter("survivor"))

    def put_and_kill():
        yield 5.0
        store.put("precious")
        victim.kill()  # delivery fired at t=5 but victim never resumes

    sim.spawn(put_and_kill())
    sim.run()
    assert got == [("survivor", "precious")]
    assert len(store) == 0


def test_store_item_requeued_preserves_order():
    sim = Simulator()
    store = Store(sim)
    got = []

    def getter(name):
        item = yield from store.get()
        got.append((name, item))

    victim = sim.spawn(getter("victim"))

    def driver():
        yield 5.0
        store.put("a")
        victim.kill()
        store.put("b")
        yield 1.0
        p1 = sim.spawn(getter("late1"))
        p2 = sim.spawn(getter("late2"))
        yield p1
        yield p2

    sim.run_process(driver())
    # "a" was re-queued at the front, so order is preserved.
    assert got == [("late1", "a"), ("late2", "b")]


@pytest.mark.parametrize("kill_at", ["mid-charge", "handoff"])
def test_group_killed_on_the_cpu_fast_path_leaves_the_core_free(kill_at):
    """``MiddlewareServer.cpu`` takes a free core through
    ``Resource.try_acquire`` — no ``acquire()`` generator — and queues
    through ``acquire()`` only when the core is busy.  Kill a group whose
    members hold the core the first way and queue for it the second:
    nothing may stay held."""
    sim = Simulator()
    core = Resource(sim, capacity=1, name="cpu")
    server = SimpleNamespace(_cpu=core)  # all that cpu() reads of its server
    group = ProcessGroup("msp")
    charged = []

    def worker(name):
        while True:
            yield from MiddlewareServer.cpu(server, 1.0)
            charged.append(name)

    # "first" finds the core free (the fast path) and holds it until
    # t=1; the other two find it busy and queue behind it.
    for name in ("first", "second", "third"):
        sim.spawn(worker(name), group=group)
    if kill_at == "mid-charge":
        sim.run(until=0.5)
        assert (core.in_use, core.queue_length, charged) == (1, 2, [])
    else:
        # Stop right after "first" released at t=1: the core is granted
        # to "second", whose resumption is scheduled but has not run.
        while not charged:
            assert sim.step()
        assert (sim.now, core.in_use, charged) == (1.0, 1, ["first"])
    group.kill_all()
    assert core.in_use == 0 and len(group) == 0
    sim.run()
    assert charged == ([] if kill_at == "mid-charge" else ["first"])

    def survivor():
        assert core.try_acquire()  # free: taken without waiting
        assert not core.try_acquire()  # busy: nothing taken, nothing queued
        assert (core.in_use, core.queue_length) == (1, 0)
        core.release()
        yield from MiddlewareServer.cpu(server, 1.0)
        return sim.now

    started = sim.now
    assert sim.run_process(survivor()) == started + 1.0
    assert core.in_use == 0


@pytest.mark.parametrize("scheduled", ["before the hold", "by the in-place hold's holder"])
def test_kill_at_an_in_place_hold_end_leaves_the_slot_free(scheduled):
    """A hold runs in place only when nothing is due by its end.  A kill
    due at exactly that end, scheduled before the hold began, makes the
    hold sleep, and the kill runs first.  A kill the holder schedules
    for the end of a hold that ran in place finds that hold over and
    the holder's next hold asleep.  Either way the slot ends up free."""
    sim = Simulator()
    core = Resource(sim, capacity=1, name="cpu")
    group = ProcessGroup("msp")
    charged = []

    def worker():
        while True:
            yield from core.hold(1.0)
            charged.append(sim.now)
            if scheduled != "before the hold" and len(charged) == 1:
                sim.call_at(sim.now, group.kill_all)

    if scheduled == "before the hold":
        sim.call_at(1.0, group.kill_all)
    sim.spawn(worker(), group=group)
    sim.run()
    if scheduled == "before the hold":
        assert (charged, sim.advanced) == ([], 0)
    else:
        assert (charged, sim.advanced) == ([1.0], 1)
    assert (sim.now, core.in_use, core.queue_length, len(group)) == (1.0, 0, 0, 0)
    assert sim.run_process(_charge(core)) == 2.0


def _charge(core):
    yield from core.hold(1.0)
    return core.sim.now


def test_kill_between_trigger_and_resumption_never_resumes():
    sim = Simulator()
    event = sim.event()
    resumed = []

    def waiter():
        try:
            yield event
            resumed.append("resumed")
        finally:
            resumed.append("closed")

    victim = sim.spawn(waiter())
    sim.run()  # the victim now waits on the event
    steps = sim.steps

    event.trigger("value")  # its resumption is scheduled, not yet run
    victim.kill()
    assert resumed == ["closed"]  # the generator was closed at once
    victim.kill()  # a second kill is a no-op
    assert resumed == ["closed"] and victim.killed and not victim.alive

    sim.run()
    # The scheduled dispatch still ran, as a counted no-op.
    assert resumed == ["closed"]
    assert sim.steps == steps + 1
    with pytest.raises(ProcessKilled):
        _ = victim.result
