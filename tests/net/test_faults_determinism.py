"""Replay determinism of the fault model (the delivery-plan contract).

Every fault decision for one message must come from ``delivery_plan`` in
one fixed draw order, so that a seeded run and its replay consume the
RNG stream identically — the property the crash-schedule fuzzer's
``(seed, schedule)`` reproduction depends on.
"""

import random

from repro.fuzz import FaultSpec, FuzzParams, discover_sites
from repro.fuzz.explorer import LIMIT_MS, build_world
from repro.fuzz.sites import TraceRecorder
from repro.net import FaultModel
from repro.net.faults import RELIABLE


def test_delivery_plan_is_deterministic_per_seed():
    model = FaultModel(
        loss_prob=0.1, duplicate_prob=0.1, reorder_prob=0.3, reorder_max_delay_ms=4.0
    )
    a = [model.delivery_plan(random.Random(7)) for _ in range(1)]
    b = [model.delivery_plan(random.Random(7)) for _ in range(1)]
    assert a == b
    rng_a, rng_b = random.Random(11), random.Random(11)
    plans_a = [model.delivery_plan(rng_a) for _ in range(500)]
    plans_b = [model.delivery_plan(rng_b) for _ in range(500)]
    assert plans_a == plans_b
    assert rng_a.getstate() == rng_b.getstate()


def test_reliable_model_consumes_no_draws():
    rng = random.Random(3)
    control = random.Random(3)
    assert RELIABLE.delivery_plan(rng) == (0.0,)
    assert rng.getstate() == control.getstate()


def test_dropped_message_consumes_exactly_one_draw():
    model = FaultModel(loss_prob=1.0, duplicate_prob=0.5, reorder_prob=0.5)
    rng = random.Random(5)
    control = random.Random(5)
    assert model.delivery_plan(rng) == ()
    control.random()  # the drop decision is the only draw
    assert rng.getstate() == control.getstate()


def test_duplicate_plan_has_two_copies():
    model = FaultModel(duplicate_prob=1.0)
    plan = FaultModel(duplicate_prob=1.0).delivery_plan(random.Random(0))
    assert len(plan) == 2
    assert plan == model.delivery_plan(random.Random(0))


def test_delay_draws_are_per_copy():
    model = FaultModel(duplicate_prob=1.0, reorder_prob=1.0, reorder_max_delay_ms=9.0)
    plan = model.delivery_plan(random.Random(1))
    assert len(plan) == 2
    assert all(0.0 <= d <= 9.0 for d in plan)
    assert plan[0] != plan[1]  # independent draws for independent copies


def test_same_seed_faulty_runs_have_identical_delivery_orders():
    """Two same-seed runs under loss, duplication and reordering must
    deliver every message at the same simulated instant — the end-to-end
    determinism the fuzzer's replay mode rests on."""
    params = FuzzParams(num_clients=2, requests_per_client=4)
    faults = FaultSpec(
        loss_prob=0.05, duplicate_prob=0.05, reorder_prob=0.25, reorder_max_delay_ms=5.0
    )

    def run():
        workload = build_world(params, seed=13, faults=faults)
        recorder = TraceRecorder(workload.sim).attach()
        result = workload.run(limit_ms=LIMIT_MS)
        recorder.detach()
        deliveries = [
            (e.owner, e.time) for e in recorder.events if e.site == "net.deliver"
        ]
        return deliveries, result.completed_requests, result.response_times_ms

    first, second = run(), run()
    assert first[0], "no deliveries traced"
    assert first == second


def test_different_seeds_diverge_under_faults():
    params = FuzzParams(num_clients=1, requests_per_client=4)
    faults = FaultSpec(reorder_prob=0.5, reorder_max_delay_ms=5.0)

    def run(seed):
        workload = build_world(params, seed=seed, faults=faults)
        result = workload.run(limit_ms=LIMIT_MS)
        return tuple(result.response_times_ms)

    assert run(1) != run(2)


def test_discovery_trace_stable_under_fault_free_rebuild():
    # The RngRegistry's named streams isolate fault draws per link, so a
    # fault-free world built twice is probe-for-probe identical.
    a = discover_sites(FuzzParams(), seed=21)
    b = discover_sites(FuzzParams(), seed=21)
    assert a.fingerprint() == b.fingerprint()
