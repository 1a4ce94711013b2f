"""FleetSpec / FleetTopology validation and placement (DESIGN.md §17)."""

import json

import pytest

from repro.fleet import FleetSpec, FleetTopology


# -- validation --------------------------------------------------------------


def test_needs_at_least_one_msp():
    with pytest.raises(ValueError, match="at least one MSP"):
        FleetTopology(FleetSpec(msps=0))


def test_domains_bounded_by_msps():
    with pytest.raises(ValueError, match="domains must be in"):
        FleetTopology(FleetSpec(msps=2, domains=3))
    with pytest.raises(ValueError, match="domains must be in"):
        FleetTopology(FleetSpec(msps=2, domains=0))


def test_shards_bounded_by_domains():
    """Whole domains live on one shard, so shards can never exceed
    domains — otherwise a DV-carrying intra-domain message would have
    to cross a shard boundary."""
    with pytest.raises(ValueError, match="shards must be in"):
        FleetTopology(FleetSpec(msps=8, domains=2, shards=3))
    with pytest.raises(ValueError, match="shards must be in"):
        FleetTopology(FleetSpec(msps=8, domains=2, shards=0))


def test_epoch_must_be_positive():
    with pytest.raises(ValueError, match="epoch_ms must be positive"):
        FleetTopology(FleetSpec(epoch_ms=0.0))


def test_epoch_bounded_by_cross_latency_when_sharded():
    """A cross-shard message must never arrive inside the epoch that
    sent it — the correctness condition of the barrier protocol."""
    with pytest.raises(ValueError, match="cross_latency_ms"):
        FleetTopology(
            FleetSpec(msps=4, domains=2, shards=2, epoch_ms=10.0, cross_latency_ms=5.0)
        )
    # Unsharded runs have no cross-shard messages; any epoch is fine.
    FleetTopology(
        FleetSpec(msps=4, domains=2, shards=1, epoch_ms=10.0, cross_latency_ms=5.0)
    )


def test_crash_plan_rejects_unknown_msp_and_negative_time():
    with pytest.raises(ValueError, match="unknown MSP"):
        FleetTopology(FleetSpec(msps=2, crash_plan=((10.0, "nope"),)))
    with pytest.raises(ValueError, match="in the past"):
        FleetTopology(FleetSpec(msps=2, crash_plan=((-1.0, "m000"),)))


# -- placement ---------------------------------------------------------------


def test_round_robin_domain_assignment():
    top = FleetTopology(FleetSpec(msps=6, domains=2))
    assert top.domain_lists == [
        ("m000", "m002", "m004"),
        ("m001", "m003", "m005"),
    ]
    assert top.domain_index("m003") == 1


def test_whole_domains_per_shard():
    top = FleetTopology(FleetSpec(msps=8, domains=4, shards=2))
    for msp in top.msp_names:
        # Every MSP shares its shard with its whole domain.
        d = top.domain_index(msp)
        assert top.shard_of(msp) == top.shard_of_domain(d)
        for peer in top.peers_inside_domain(msp):
            assert top.shard_of(peer) == top.shard_of(msp)
    # local_msps partitions the fleet, in canonical name order.
    hosted = [m for s in range(2) for m in top.local_msps(s)]
    assert sorted(hosted) == top.msp_names
    for s in range(2):
        assert top.local_msps(s) == sorted(top.local_msps(s))


def test_peers_inside_and_outside_partition_the_fleet():
    top = FleetTopology(FleetSpec(msps=6, domains=3))
    for msp in top.msp_names:
        inside = top.peers_inside_domain(msp)
        outside = top.peers_outside_domain(msp)
        assert msp not in inside and msp not in outside
        assert sorted(inside + outside + [msp]) == top.msp_names


def test_hot_cold_arrival_weights():
    spec = FleetSpec(msps=8, domains=2)
    top = FleetTopology(spec)
    assert top.arrival_weights == [4.0, 4.0] + [1.0] * 6


def test_spec_canonical_is_json_safe():
    spec = FleetSpec(
        msps=4,
        domains=2,
        crash_plan=((100.0, "m001"),),
        partition_plan=((10.0, 20.0, ("m000",), ("c.m000",)),),
    )
    data = json.loads(json.dumps(spec.canonical()))
    assert data["msps"] == 4
    assert data["crash_plan"] == [[100.0, "m001"]]
    assert data["partition_plan"] == [[10.0, 20.0, ["m000"], ["c.m000"]]]


def test_spec_canonical_holds_only_what_differs_from_the_default():
    """A missing key means the default, so a field no spec sets (or one
    turned into a constant) never enters a fingerprint."""
    assert FleetSpec().canonical() == {}
    assert FleetSpec(sessions=24).canonical() == {"sessions": 24}
    assert FleetSpec(domains=2, epoch_ms=5.0).canonical() == {}
    assert FleetSpec(disaster_plan=((10.0, 1),)).canonical() == {
        "disaster_plan": [[10.0, 1]]
    }
