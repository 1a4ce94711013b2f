"""Illegal configurations fail where they are written down.

One table of illegal mode strings and partition counts, checked at the
three places a configuration enters the system: ``MiddlewareServer``
construction, ``FleetTopology`` construction, and scenario-matrix
expansion (plus the pump budget, which only ``RecoveryConfig``
carries).  Each must raise ``ValueError`` naming the offending value
before any simulator step runs — not inside ``start()`` under the
simulator, where a fleet or scenario cell would have hit it in a
spawned shard.
"""

import pytest

from repro.core import RecoveryConfig, ServiceDomainConfig
from repro.core.msp import MiddlewareServer
from repro.fleet import FleetSpec, FleetTopology
from repro.net import Network
from repro.scenarios import ScenarioSpec
from repro.sim import Simulator

#: (RecoveryConfig / FleetSpec overrides, regex the error must match)
ILLEGAL = [
    ({"recovery_mode": "sideways"}, r"unknown recovery_mode 'sideways'"),
    ({"recovery_mode": ""}, r"unknown recovery_mode ''"),
    ({"logging_mode": "both"}, r"unknown logging_mode 'both'"),
    ({"logging_mode": "lazy"}, r"unknown logging_mode 'lazy'"),
    ({"log_partitions": 0}, r"log_partitions must be an integer in 1\.\.255, got 0"),
    ({"log_partitions": -1}, r"log_partitions must be an integer in 1\.\.255, got -1"),
    ({"log_partitions": 256}, r"log_partitions must be an integer in 1\.\.255, got 256"),
    ({"log_partitions": 2.0}, r"log_partitions must be an integer in 1\.\.255, got 2\.0"),
]


def _ids(table):
    return [f"{key}={value!r}" for overrides, _ in table for key, value in overrides.items()]


IDS = _ids(ILLEGAL)

#: ``RecoveryConfig``-only rows: a fleet spec carries no pump budget.
_PUMP = r"recovery_pump_concurrency must be an integer >= 1, got "
ILLEGAL_PUMP = [
    ({"recovery_pump_concurrency": 0}, _PUMP + "0"),
    ({"recovery_pump_concurrency": -2}, _PUMP + "-2"),
    ({"recovery_pump_concurrency": 1.5}, _PUMP + r"1\.5"),
    ({"recovery_pump_concurrency": None}, _PUMP + "None"),
]


@pytest.mark.parametrize(
    "overrides,message", ILLEGAL + ILLEGAL_PUMP, ids=IDS + _ids(ILLEGAL_PUMP)
)
def test_msp_construction_rejects(overrides, message):
    sim = Simulator()
    with pytest.raises(ValueError, match=message):
        MiddlewareServer(
            sim, Network(sim), "a", ServiceDomainConfig(),
            config=RecoveryConfig(**overrides),
        )
    assert sim.steps == 0


@pytest.mark.parametrize("overrides,message", ILLEGAL, ids=IDS)
def test_fleet_topology_rejects(overrides, message):
    with pytest.raises(ValueError, match=message):
        FleetTopology(FleetSpec(**overrides))


@pytest.mark.parametrize("overrides,message", ILLEGAL, ids=IDS)
def test_scenario_expansion_rejects_naming_the_cell(overrides, message):
    spec = ScenarioSpec.from_dict({
        "seeds": [3],
        "topologies": [
            {"name": "good", "msps": 2, "domains": 1},
            {"name": "bad", "msps": 2, "domains": 1, **overrides},
        ],
        "faults": [{"name": "calm", "family": "none"}],
    })
    with pytest.raises(ValueError, match=r"cell bad/calm/s3: " + message):
        spec.expand()


@pytest.mark.parametrize("partitions", [1, 2, 255])
def test_partition_count_bounds_are_legal(partitions):
    sim = Simulator()
    msp = MiddlewareServer(
        sim, Network(sim), "a", ServiceDomainConfig(),
        config=RecoveryConfig(log_partitions=partitions),
    )
    assert len(msp.stores) == len(msp.disks) == partitions


def test_parallel_recovery_knob_is_gone():
    # Sequential replay is ``recovery_mode="lazy",
    # recovery_pump_concurrency=1`` (DESIGN.md §15), not a third switch.
    with pytest.raises(TypeError, match="parallel_recovery"):
        RecoveryConfig(parallel_recovery=False)
