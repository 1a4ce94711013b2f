"""Open-loop traffic generator: determinism and plan shape."""

import random

from repro.fleet import FleetSpec, FleetTopology
from repro.fleet.traffic import decode_hops, encode_hops, generate_session_plans


def plans_for(spec, seed=7):
    return list(generate_session_plans(FleetTopology(spec), random.Random(seed)))


def test_plans_are_deterministic():
    spec = FleetSpec(msps=6, domains=3, sessions=50, seed=5)
    assert plans_for(spec) == plans_for(spec)


def test_plan_shape_respects_spec():
    spec = FleetSpec(
        msps=6,
        domains=3,
        sessions=80,
        duration_ms=2_000.0,
        chain_depth=2,
        max_requests_per_session=4,
    )
    top = FleetTopology(spec)
    plans = plans_for(spec)
    assert len(plans) == 80
    assert [p.index for p in plans] == list(range(80))
    assert len({p.session_id for p in plans}) == 80
    for plan in plans:
        assert plan.home in top.msp_names
        assert 0.0 <= plan.arrival_ms < spec.duration_ms
        assert 1 <= len(plan.calls) <= spec.max_requests_per_session
        for hops in plan.calls:
            assert len(hops) <= spec.chain_depth
            for hop in hops:
                assert hop in top.msp_names


def test_cross_domain_fraction_extremes():
    base = dict(msps=6, domains=3, sessions=60, chain_depth=1)
    top = FleetTopology(FleetSpec(**base))

    all_inside = plans_for(FleetSpec(cross_domain_fraction=0.0, **base))
    for plan in all_inside:
        for hops in plan.calls:
            for hop in hops:
                assert top.domain_index(hop) == top.domain_index(plan.home)

    all_cross = plans_for(FleetSpec(cross_domain_fraction=1.0, **base))
    crossed = 0
    for plan in all_cross:
        for hops in plan.calls:
            for hop in hops:
                assert top.domain_index(hop) != top.domain_index(plan.home)
                crossed += 1
    assert crossed > 0


def test_hot_msps_receive_more_sessions():
    spec = FleetSpec(msps=8, domains=2, sessions=800)
    counts = {name: 0 for name in FleetTopology(spec).msp_names}
    for plan in plans_for(spec):
        counts[plan.home] += 1
    hot = counts["m000"] + counts["m001"]
    cold = sum(counts.values()) - hot
    # Hot MSPs carry 4x the per-MSP mass: 2 hot vs 6 cold => 8:6 overall.
    assert hot > cold


def test_hop_encoding_roundtrip():
    assert decode_hops(encode_hops(())) == ()
    assert decode_hops(encode_hops(("m001",))) == ("m001",)
    assert decode_hops(encode_hops(("m001", "m004"))) == ("m001", "m004")
