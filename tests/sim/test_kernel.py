"""Unit tests for the discrete-event kernel."""

import pytest

from repro.sim import ProcessGroup, ProcessKilled, Simulator
from repro.sim.kernel import SimError


def test_timeout_advances_clock():
    sim = Simulator()

    def proc():
        assert sim.now == 0.0
        yield 5.0
        assert sim.now == 5.0
        yield 2.5
        return sim.now

    assert sim.run_process(proc()) == 7.5


def test_zero_timeout_runs_same_time():
    sim = Simulator()
    trace = []

    def proc():
        trace.append(sim.now)
        yield 0
        trace.append(sim.now)

    sim.run_process(proc())
    assert trace == [0.0, 0.0]


def test_yield_none_relinquishes_control():
    sim = Simulator()
    order = []

    def a():
        order.append("a1")
        yield None
        order.append("a2")

    def b():
        order.append("b1")
        yield None
        order.append("b2")

    sim.spawn(a())
    sim.spawn(b())
    sim.run()
    assert order == ["a1", "b1", "a2", "b2"]


def test_event_wait_receives_value():
    sim = Simulator()
    ev = sim.event()

    def waiter():
        value = yield ev
        return value

    def firer():
        yield 3.0
        ev.trigger("hello")

    p = sim.spawn(waiter())
    sim.spawn(firer())
    sim.run()
    assert p.result == "hello"
    assert sim.now == 3.0


def test_event_failure_propagates():
    sim = Simulator()
    ev = sim.event()

    def waiter():
        yield ev

    def firer():
        yield 1.0
        ev.fail(RuntimeError("boom"))

    p = sim.spawn(waiter())
    sim.spawn(firer())
    sim.run()
    with pytest.raises(RuntimeError, match="boom"):
        _ = p.result


def test_event_double_trigger_is_error():
    sim = Simulator()
    ev = sim.event()
    ev.trigger(1)
    with pytest.raises(Exception):
        ev.trigger(2)


def test_join_process_returns_result():
    sim = Simulator()

    def child():
        yield 4.0
        return 42

    def parent():
        result = yield sim.spawn(child())
        return result

    assert sim.run_process(parent()) == 42


def test_join_failed_process_raises():
    sim = Simulator()

    def child():
        yield 1.0
        raise ValueError("child died")

    def parent():
        yield sim.spawn(child())

    p = sim.spawn(parent())
    sim.run()
    with pytest.raises(ValueError, match="child died"):
        _ = p.result


def test_kill_runs_finally_blocks():
    sim = Simulator()
    cleaned = []

    def proc():
        try:
            yield 100.0
        finally:
            cleaned.append(sim.now)

    p = sim.spawn(proc())

    def killer():
        yield 10.0
        p.kill()

    sim.spawn(killer())
    sim.run()
    assert cleaned == [10.0]
    assert p.killed
    with pytest.raises(ProcessKilled):
        _ = p.result


def test_killed_process_does_not_resume():
    sim = Simulator()
    resumed = []

    def proc():
        yield 5.0
        resumed.append(True)

    p = sim.spawn(proc())

    def killer():
        yield 1.0
        p.kill()

    sim.spawn(killer())
    sim.run()
    assert not resumed


def test_process_group_kill_all():
    sim = Simulator()
    survivors = []

    def worker(i):
        yield 100.0
        survivors.append(i)

    group = ProcessGroup("msp")
    for i in range(5):
        sim.spawn(worker(i), group=group)

    def killer():
        yield 50.0
        group.kill_all()

    sim.spawn(killer())
    sim.run()
    assert survivors == []
    assert len(group) == 0


def test_deterministic_tie_breaking():
    """Two runs with identical structure produce identical traces."""

    def build_and_run():
        sim = Simulator()
        trace = []

        def proc(i):
            yield 1.0
            trace.append((sim.now, i))
            yield 1.0
            trace.append((sim.now, i))

        for i in range(10):
            sim.spawn(proc(i))
        sim.run()
        return trace

    assert build_and_run() == build_and_run()


def test_run_until_stops_clock():
    sim = Simulator()

    def proc():
        while True:
            yield 10.0

    sim.spawn(proc())
    sim.run(until=35.0)
    assert sim.now == 35.0


def test_call_at_past_raises():
    sim = Simulator()

    def proc():
        yield 10.0

    sim.run_process(proc())
    with pytest.raises(Exception):
        sim.call_at(5.0, lambda: None)


def test_subscribe_after_trigger_fires_immediately():
    sim = Simulator()
    ev = sim.event()
    ev.trigger("early")

    def waiter():
        value = yield ev
        return value

    p = sim.spawn(waiter())
    sim.run()
    assert p.result == "early"


def test_call_at_nan_raises():
    """NaN is not a time: ``nan < now`` is False, so a past-time check
    written that way lets it through, and a NaN key silently breaks the
    heap's order."""
    sim = Simulator()
    with pytest.raises(SimError):
        sim.call_at(float("nan"), lambda: None)
    with pytest.raises(SimError):
        sim.call_later(float("nan"), lambda: None)
    assert not sim.step()


@pytest.mark.parametrize("bad_delay", [float("nan"), -1.0, -1])
def test_bad_delay_is_thrown_into_the_offending_process(bad_delay):
    sim = Simulator()
    clock = []

    def offender():
        yield 1.5
        try:
            yield bad_delay
        except SimError:
            clock.append(("caught", sim.now))
        yield 1.0
        clock.append(("offender", sim.now))

    def sibling():
        for _ in range(3):
            yield 1.0
            clock.append(("sibling", sim.now))

    sim.spawn(offender())
    sim.spawn(sibling())
    sim.run()
    assert clock == [
        ("sibling", 1.0), ("caught", 1.5), ("sibling", 2.0), ("offender", 2.5), ("sibling", 3.0),
    ]
    assert sim.now == 3.0
