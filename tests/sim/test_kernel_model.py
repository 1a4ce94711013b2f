"""The kernel against a reference scheduler (Hypothesis).

Random programs — plain callbacks scheduled, rescheduled and cancelled;
processes that sleep, yield ``None``, wait on events, join, spawn,
trigger, fail and kill each other, and hold capacity-1 and capacity-2
resources; a group killed as a whole — run once on :class:`Simulator`
and once on :class:`ReferenceSimulator`, which has the same scheduling
contract but no heap: a plain list kept sorted by ``(time, seq)``, and
no hold ever advanced in place.  Both must observe the same things in
the same order at the same times and count the same ``steps``.

The contract under test (DESIGN.md §9, "Kernel fast path"): run order is
``(time, seq)``, ``seq`` consumed once per ``call_at`` in call order;
``steps`` counts callbacks run and cancelled entries are skipped
uncounted; a kill closes the generator at once and a dispatch already
scheduled for the victim is a no-op; callbacks themselves are never
compared; a hold is taken in place only when its wake-up is provably the
next callback of a ``run()`` or ``run_until_process()``, never under
``step()``.

Tier-1 runs 300 derandomized examples; under the ``deep`` profile
(``--hypothesis-profile=deep``) the property runs that profile's count,
freshly random.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import ProcessGroup, Resource, Simulator
from repro.sim.kernel import SimError

EXAMPLES = max(300, settings.default.max_examples)


class _RefHandle:
    def __init__(self, time, seq, callback):
        self.time, self.seq, self.callback = time, seq, callback

    def cancel(self):
        self.callback = None


class ReferenceSimulator(Simulator):
    """The scheduling contract with nothing clever: every ``call_at``
    re-sorts a plain list by ``(time, seq)``; processes and events are
    the kernel's own, running on this scheduler."""

    def __init__(self):
        super().__init__()
        self.pending = []
        self.issued = 0

    def call_at(self, time, callback):
        if not time >= self.now:
            raise SimError(f"cannot schedule at {time}")
        handle = _RefHandle(time, self.issued, callback)
        self.issued += 1
        self.pending.append(handle)
        self.pending.sort(key=lambda h: (h.time, h.seq))
        return handle

    def step(self):
        while self.pending:
            handle = self.pending.pop(0)
            if handle.callback is None:
                continue
            self.now = handle.time
            self.steps += 1
            handle.callback()
            return True
        return False

    def run(self, until=None):
        while True:
            live = [h for h in self.pending if h.callback is not None]
            if not live or (until is not None and live[0].time > until):
                break
            self.step()
        if until is not None:
            self.now = max(self.now, until)

    def run_until_process(self, process, limit=None):
        while process.alive and (limit is None or self.now <= limit) and self.step():
            pass

    def advance(self, ms):
        return False  # every hold sleeps through the scheduler


class Boom(Exception):
    pass


class Callback:
    """A scheduled callable that refuses to be compared with anything."""

    def __init__(self, world, tag, ops):
        self.world, self.tag, self.ops = world, tag, ops

    def __call__(self):
        self.world.callback_ran(self.tag)
        for op in self.ops:
            self.world.act(op, me=None)

    def __lt__(self, other):
        # Recorded as well as raised: raised inside a process it would
        # only become that process's failure.
        self.world.violations.append("the scheduler compared two callbacks")
        raise AssertionError(self.world.violations[-1])

    __le__ = __gt__ = __ge__ = __eq__ = __ne__ = __lt__
    __hash__ = None


class World:
    """Interprets one generated program on one simulator."""

    MAX_PROCESSES = 12

    def __init__(self, sim, program):
        self.sim = sim
        self.scripts = program["scripts"]
        self.trace = []
        self.events = [sim.event(f"e{i}") for i in range(3)]
        self.resources = [Resource(sim, capacity=c, name=f"r{c}") for c in (1, 2)]
        self.group = ProcessGroup("g")
        self.processes = []
        self.grouped = set()
        self.killed = set()
        self.handles = []  # (tag, time, handle) of plain callbacks, in scheduling order
        self.ran = []  # tags of the plain callbacks that ran, in run order
        self.must_not_run = set()
        self.acting = 0  # depth of act() calls in progress
        self.violations = []

    def log(self, *what):
        self.trace.append((self.sim.now, *what))

    # -- plain callbacks ------------------------------------------------

    def schedule(self, time, ops):
        tag = len(self.handles)
        try:
            handle = self.sim.call_at(time, Callback(self, tag, ops))
        except SimError:
            self.log("past", tag)
            handle = None
        else:
            # A hold taken in place consumes the seq its timer would have.
            self.log("seq", tag, handle.seq if isinstance(handle, _RefHandle) else handle[1])
        self.handles.append((tag, time, handle))

    def callback_ran(self, tag):
        if tag in self.must_not_run:
            self.violations.append(f"cancelled callback {tag} ran")
        self.ran.append(tag)
        self.log("callback", tag)

    # -- processes ------------------------------------------------------

    def spawn(self, script, grouped):
        if len(self.processes) >= self.MAX_PROCESSES:
            return
        index = len(self.processes)
        process = self.sim.spawn(
            self.body(index, self.scripts[script % len(self.scripts)]),
            name=f"p{index}", group=self.group if grouped else None,
        )
        self.processes.append(process)
        if grouped:
            self.grouped.add(index)

    def body(self, index, script):
        try:
            self.entered(index)
            for op in script:
                kind = op[0]
                if kind in ("sleep", "none"):
                    yield op[1] if kind == "sleep" else None
                    self.entered(index)
                elif kind == "hold":
                    resource = self.resources[op[1]]
                    yield from resource.hold(op[2])
                    self.log("held", index, resource.name, resource.in_use)
                    self.entered(index)
                elif kind == "wait":
                    try:
                        value = yield self.events[op[1]]
                        self.log("woke", index, value)
                    except Boom:
                        self.log("woke-failed", index)
                    self.entered(index)
                elif kind == "join":
                    target = self.pick(op[1])
                    if target is not None and target != index:
                        try:
                            yield self.processes[target]
                        except SimError:
                            self.log("joined-killed", index, target)
                        self.entered(index)
                else:
                    self.act(op, me=index)
                self.log("step", index, kind)
            return index
        finally:
            self.log("closed", index)

    def entered(self, index):
        """Process ``index`` starts or resumes: only ever from the run
        loop — never inline, inside the spawn, trigger or kill that
        made it runnable — and never after it was killed."""
        if self.acting:
            self.violations.append(f"p{index} ran inline, inside another's action")
        if index in self.killed:
            self.violations.append(f"killed process p{index} resumed")

    def pick(self, i):
        return i % len(self.processes) if self.processes else None

    def kill(self, index):
        if self.processes[index].alive:
            self.killed.add(index)
        self.processes[index].kill()

    # -- ops both callbacks and processes perform ------------------------

    def act(self, op, me):
        self.acting += 1
        try:
            self._act(op, me)
        finally:
            self.acting -= 1

    def _act(self, op, me):
        kind = op[0]
        if kind == "trigger":
            if not self.events[op[1]].triggered:
                self.events[op[1]].trigger(op[2])
        elif kind == "fail":
            if not self.events[op[1]].triggered:
                self.events[op[1]].fail(Boom())
        elif kind == "kill":
            target = self.pick(op[1])
            if target is not None and target != me:  # a generator cannot close itself
                self.kill(target)
        elif kind == "kill_all":
            if me not in self.grouped:
                for index in self.grouped:
                    if self.processes[index].alive:
                        self.killed.add(index)
                self.group.kill_all()
        elif kind == "spawn":
            self.spawn(op[1], op[2])
        elif kind == "later":
            self.schedule(self.sim.now + op[1], op[2])
        elif kind == "at":
            self.schedule(op[1], op[2])
        elif kind == "cancel":
            if self.handles:
                tag, _time, handle = self.handles[op[1] % len(self.handles)]
                if handle is not None:
                    if tag not in self.ran:
                        self.must_not_run.add(tag)
                    handle.cancel()
                    handle.cancel()  # idempotent
        else:
            raise AssertionError(f"unknown op {op!r}")

    def drive(self, drive):
        for op in drive:
            if op[0] == "until":
                self.sim.run(until=self.sim.now + op[1])
            elif op[0] == "steps":
                advanced = self.sim.advanced
                for _ in range(op[1]):
                    self.sim.step()
                if self.sim.advanced != advanced:
                    self.violations.append("step() advanced a hold in place")
            else:
                target = self.pick(op[1])
                if target is not None:
                    limit = op[2] if op[2] is None else self.sim.now + op[2]
                    self.sim.run_until_process(self.processes[target], limit=limit)
            self.log("driven", op[0], self.sim.steps)
        self.sim.run()


# Few distinct delays (0 and an int among them), so that same-time ties
# — what the sequence number exists for — are the common case.
delays = st.sampled_from([0, 0.0, 0.5, 1, 1.0, 2.5])
small = st.integers(min_value=0, max_value=11)
events = st.integers(min_value=0, max_value=2)

acts = st.one_of(
    st.tuples(st.just("trigger"), events, small),
    st.tuples(st.just("fail"), events),
    st.tuples(st.just("kill"), small),
    st.tuples(st.just("kill_all")),
    st.tuples(st.just("spawn"), small, st.booleans()),
    st.tuples(st.just("later"), delays, st.just(())),
    st.tuples(st.just("at"), st.sampled_from([0.0, 1.0, 2.0, 3.5, 6.0]), st.just(())),
    st.tuples(st.just("cancel"), small),
)
script_ops = st.one_of(
    st.tuples(st.just("sleep"), delays),
    st.tuples(st.just("hold"), st.integers(min_value=0, max_value=1), delays),
    st.tuples(st.just("none")),
    st.tuples(st.just("wait"), events),
    st.tuples(st.just("join"), small),
    acts,
)
boot_ops = st.one_of(
    st.tuples(st.just("spawn"), small, st.booleans()),
    st.tuples(st.just("later"), delays, st.lists(acts, max_size=3).map(tuple)),
    st.tuples(st.just("at"), delays, st.lists(acts, max_size=3).map(tuple)),
)
drive_ops = st.one_of(
    st.tuples(st.just("until"), st.sampled_from([0.0, 0.5, 1.0, 3.0])),
    st.tuples(st.just("steps"), st.integers(min_value=0, max_value=6)),
    st.tuples(st.just("process"), small, st.sampled_from([None, 0.0, 1.0, 3.0])),
)
programs = st.fixed_dictionaries({
    "scripts": st.lists(st.lists(script_ops, max_size=8), min_size=1, max_size=4),
    "boot": st.lists(boot_ops, min_size=1, max_size=10),
    "drive": st.lists(drive_ops, max_size=4),
})


def run_program(sim, program):
    world = World(sim, program)
    for op in program["boot"]:
        world.act(op, me=None)
    world.drive(program["drive"])
    return world


@settings(max_examples=EXAMPLES, deadline=None)
@given(programs)
def test_kernel_matches_reference_scheduler(program):
    real = run_program(Simulator(), program)
    model = run_program(ReferenceSimulator(), program)

    assert not real.violations and not model.violations
    assert real.trace == model.trace
    assert real.sim.steps == model.sim.steps
    assert real.sim.now == model.sim.now
    assert [p.alive for p in real.processes] == [p.alive for p in model.processes]
    assert not real.sim.step(), "run() returned with live work pending"
    assert 0 <= real.sim.advanced <= real.sim.steps and model.sim.advanced == 0
    # Every holder finished or was killed: no slot is left held.
    assert [r.in_use for r in real.resources] == [0, 0]

    # Whatever ran did so in (time, scheduling order).
    when = {tag: (time, tag) for tag, time, _handle in real.handles}
    assert [when[tag] for tag in real.ran] == sorted(when[tag] for tag in real.ran)


def test_steps_count_callbacks_run_not_cancelled_entries():
    sim = Simulator()
    ran = []
    handles = [sim.call_at(1.0, lambda i=i: ran.append(i)) for i in range(6)]
    handles[1].cancel()
    handles[4].cancel()
    sim.run(until=0.5)
    assert (ran, sim.steps, sim.now) == ([], 0, 0.5)
    assert sim.step()
    sim.run()
    assert ran == [0, 2, 3, 5]
    assert sim.steps == 4
    assert not sim.step()


def holders(sim, log):
    """Two processes that take turns on one core, three holds each."""
    core = Resource(sim, capacity=1, name="core")

    def worker(name, ms):
        for _ in range(3):
            yield from core.hold(ms)
            log.append((sim.now, name))

    for name, ms in (("a", 1.0), ("b", 2.5)):
        sim.spawn(worker(name, ms), name=name)


def test_step_never_advances_in_place():
    stepped, ran = Simulator(), Simulator()
    stepped_log, ran_log = [], []
    holders(stepped, stepped_log)
    holders(ran, ran_log)
    while stepped.step():
        pass
    ran.run()
    assert stepped_log == ran_log
    assert stepped.steps == ran.steps
    assert stepped.advanced == 0
    # "b"'s last hold is the only timer left: it runs in place.
    assert 0 < ran.advanced < ran.steps


def test_a_hold_is_not_taken_in_place_past_the_run_bound():
    sim = Simulator()
    log = []
    holders(sim, log)
    # At t=1 "b" takes the core for 2.5 with nothing else scheduled:
    # only the bound keeps that hold from running in place.
    sim.run(until=1.0)
    assert (sim.now, log, sim.advanced) == (1.0, [(1.0, "a")], 0)
    sim.run()
    assert (sim.now, len(log)) == (10.5, 6)


def test_run_until_process_takes_no_hold_in_place_once_the_joined_process_died():
    sim = Simulator()
    core = Resource(sim, capacity=1, name="core")
    held = []

    def target():
        yield 100.0

    def killer(victim):
        yield 1.0
        victim.kill()
        # Only a cancelled timer is left: the heap would allow this hold
        # in place, but the loop stops before it.
        yield from core.hold(5.0)
        held.append(sim.now)

    victim = sim.spawn(target())
    sim.spawn(killer(victim))
    sim.run_until_process(victim)
    assert (sim.now, held, sim.advanced) == (1.0, [], 0)
    sim.run()
    assert (sim.now, held) == (6.0, [6.0])


def test_run_until_process_takes_no_hold_in_place_past_its_limit():
    sim = Simulator()
    core = Resource(sim, capacity=1, name="core")

    def worker():
        for _ in range(3):
            yield from core.hold(2.0)

    process = sim.spawn(worker())
    sim.run_until_process(process, limit=3.0)
    # The holds that start at 0 and 2 run in place; the one that starts
    # at 4 is past the limit, so it sleeps and the loop stops.
    assert (sim.now, process.alive, sim.advanced) == (4.0, True, 2)
