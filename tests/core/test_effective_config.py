"""The recovery settings every world's MSPs actually run with.

Each world spec (``WorkloadParams``, ``FleetSpec``, ``FuzzParams``)
turns into one ``RecoveryConfig`` per MSP.  These tests pin that
config field by field for the default of each world and for the
benchmark's two non-default paper workloads, and pin every fixed value
the code keeps as a module constant (the cost model, the server sizing
and timeouts, the fuzzer's bounds, the fleet's traffic shape and
timeouts), so a refactor of how configs are built cannot move a
default unnoticed.

A setting may live on ``RecoveryConfig`` or, when no world varies it,
as a constant in the module that reads it; the lookups below accept
either home, so the pinned values hold whichever way it is kept.
"""

import dataclasses
import importlib

import pytest

from repro.core import RecoveryConfig
from repro.core.config import LoggingMode
from repro.fleet import FleetSpec
from repro.fleet.shard import FleetShard
from repro.fuzz import explorer
from repro.fuzz.explorer import FuzzParams, build_world, fleet_fuzz_params
from repro.workloads.paper import PaperWorkload, WorkloadParams

#: The per-MSP settings, with ``RecoveryConfig``'s defaults.
DEFAULT = {
    "mode": LoggingMode.RECOVERABLE,
    "session_ckpt_threshold": 1024 * 1024,
    "sv_ckpt_write_threshold": 200,
    "msp_ckpt_interval_ms": 2_000.0,
    "forced_ckpt_msp_count": 8,
    "session_idle_timeout_ms": None,
    "batch_flush_timeout_ms": 0.0,
    "log_truncation": True,
    "log_segment_bytes": 64 * 1024,
    "log_partitions": 1,
    "recovery_mode": "eager",
    "recovery_pump_concurrency": 4,
    "logging_mode": "value",
    "per_session_dv": True,
}

#: What a default fleet spec sets differently.
FLEET = {
    **DEFAULT,
    "session_ckpt_threshold": 8 * 1024,
    "sv_ckpt_write_threshold": 64,
    "msp_ckpt_interval_ms": 5_000.0,
    "session_idle_timeout_ms": 30_000.0,
    "batch_flush_timeout_ms": 2.0,
}

#: The fuzzer's small checkpoint and segment sizes.
FUZZ_SIZES = {
    "session_ckpt_threshold": 4 * 1024,
    "msp_ckpt_interval_ms": 40.0,
    "log_segment_bytes": 2048,
    "sv_ckpt_write_threshold": 6,
}


def settings(config) -> dict:
    """``config``'s per-MSP settings by name (the session threshold is
    also accepted under its longer name, ``..._bytes``)."""
    found = {name: getattr(config, name) for name in DEFAULT if hasattr(config, name)}
    if "session_ckpt_threshold" not in found:
        found["session_ckpt_threshold"] = config.session_ckpt_threshold_bytes
    return found


def paper_settings(params: WorkloadParams) -> list[dict]:
    workload = PaperWorkload(params)
    return [settings(msp.config) for msp in (workload.msp1, workload.msp2)]


def test_recovery_config_defaults():
    assert settings(RecoveryConfig()) == DEFAULT


def test_default_paper_workload():
    assert paper_settings(WorkloadParams()) == [DEFAULT, DEFAULT]


def test_nolog_paper_workload():
    expected = {**DEFAULT, "mode": LoggingMode.NOLOG}
    assert paper_settings(WorkloadParams(configuration="NoLog")) == [expected] * 2


def test_restart_biglog_keywords():
    params = WorkloadParams(
        configuration="LoOptimistic", num_clients=8,
        requests_per_client=100, atomic_sv_updates=True,
        batch_flush_timeout_ms=8, session_ckpt_threshold=256 * 1024,
        request_arg_bytes=100, seed=1,
    )
    expected = {**DEFAULT, "batch_flush_timeout_ms": 8, "session_ckpt_threshold": 256 * 1024}
    assert paper_settings(params) == [expected] * 2


def test_crashloop_lazy_p4_keywords():
    params = WorkloadParams(
        configuration="LoOptimistic", num_clients=4,
        requests_per_client=250, atomic_sv_updates=True,
        log_partitions=4, recovery_mode="lazy", batch_flush_timeout_ms=8,
        crash_every_n=200, session_ckpt_threshold=None,
        forced_ckpt_msp_count=10**6, request_arg_bytes=100, seed=1,
    )
    expected = {
        **DEFAULT,
        "log_partitions": 4,
        "recovery_mode": "lazy",
        "batch_flush_timeout_ms": 8,
        "session_ckpt_threshold": None,
        "forced_ckpt_msp_count": 10**6,
    }
    assert paper_settings(params) == [expected] * 2


def test_default_fleet_shard():
    shard = FleetShard(FleetSpec(), 0)
    assert shard.msps
    assert [settings(msp.config) for msp in shard.msps.values()] == [FLEET] * len(shard.msps)


def test_paper_fuzz_world():
    world = build_world(FuzzParams(), 0, None)
    expected = {**DEFAULT, **FUZZ_SIZES, "forced_ckpt_msp_count": 2}
    assert [settings(msp.config) for msp in (world.msp1, world.msp2)] == [expected] * 2


def test_fleet_fuzz_world():
    params = fleet_fuzz_params()
    assert params.targets == ("m000", "m001", "m002", "m003")
    world = build_world(params, 0, None)
    expected = {**FLEET, **FUZZ_SIZES}
    assert [settings(msp.config) for msp in world.msps.values()] == [expected] * 4
    assert params.fleet_spec(7) == FleetSpec(
        msps=4, domains=2, shards=1, seed=7, sessions=10, duration_ms=400.0,
        chain_depth=2, cross_domain_fraction=0.75, think_ms=2.0,
        session_ckpt_threshold=4 * 1024, msp_ckpt_interval_ms=40.0,
        log_segment_bytes=2048, sv_ckpt_write_threshold=6,
    )


def test_fleet_spec_fields():
    """Every ``FleetSpec`` field is one some fleet caller sets; a value
    no caller varies is a constant beside its reader (below)."""
    assert [f.name for f in dataclasses.fields(FleetSpec)] == [
        "msps", "domains", "shards", "seed",
        "sessions", "duration_ms", "max_requests_per_session", "chain_depth",
        "cross_domain_fraction", "think_ms",
        "epoch_ms", "cross_latency_ms",
        "crash_plan", "partition_plan", "disaster_plan",
        "log_partitions", "recovery_mode", "logging_mode",
        "session_ckpt_threshold", "sv_ckpt_write_threshold",
        "msp_ckpt_interval_ms", "log_segment_bytes",
    ]


def test_fuzz_workload_params():
    params = FuzzParams().workload_params(5)
    assert (params.num_clients, params.requests_per_client, params.calls_to_sm2) == (2, 6, 1)
    assert params.atomic_sv_updates and params.seed == 5


#: (former RecoveryConfig field, module of its one reader, constant, value)
SERVER_CONSTANTS = [
    ("end_propagation_attempts", "repro.core.msp", "END_PROPAGATION_ATTEMPTS", 20),
    ("max_block_sectors", "repro.core.log_manager", "MAX_BLOCK_SECTORS", 128),
    ("read_chunk_sectors", "repro.core.log_manager", "READ_CHUNK_SECTORS", 128),
    ("position_buffer_capacity", "repro.core.position_stream", "POSITION_BUFFER_CAPACITY", 512),
    ("log_record_overhead_bytes", "repro.core.msp", "LOG_RECORD_OVERHEAD_BYTES", 64),
    ("thread_pool_size", "repro.core.msp", "THREAD_POOL_SIZE", 16),
    ("cpu_cores", "repro.core.msp", "CPU_CORES", 1),
    ("call_resend_timeout_ms", "repro.core.context", "CALL_RESEND_TIMEOUT_MS", 100.0),
    ("flush_retry_timeout_ms", "repro.core.flush", "FLUSH_RETRY_TIMEOUT_MS", 50.0),
    ("restart_delay_ms", "repro.core.msp", "RESTART_DELAY_MS", 50.0),
]


@pytest.mark.parametrize(
    "field,module,constant,value", SERVER_CONSTANTS, ids=[row[0] for row in SERVER_CONSTANTS]
)
def test_server_constant(field, module, constant, value):
    home = importlib.import_module(module)
    if hasattr(home, constant):
        assert not hasattr(RecoveryConfig(), field)
        actual = getattr(home, constant)
    else:
        actual = getattr(RecoveryConfig(), field)
    assert actual == value


#: (former FuzzParams field, constant in repro.fuzz.explorer, value)
FUZZ_CONSTANTS = [
    ("limit_ms", "LIMIT_MS", 60_000.0),
    ("quiesce_ms", "QUIESCE_MS", 2_000.0),
    ("kill_horizon", "KILL_HORIZON", 600),
]


@pytest.mark.parametrize(
    "field,constant,value", FUZZ_CONSTANTS, ids=[row[0] for row in FUZZ_CONSTANTS]
)
def test_fuzz_constant(field, constant, value):
    if hasattr(explorer, constant):
        assert not hasattr(FuzzParams(), field)
        actual = getattr(explorer, constant)
    else:
        actual = getattr(FuzzParams(), field)
    assert actual == value


#: (former FleetSpec field, module of its one reader, constant, value)
FLEET_CONSTANTS = [
    ("zipf_alpha", "repro.fleet.traffic", "ZIPF_ALPHA", 1.3),
    ("burst_factor", "repro.fleet.traffic", "BURST_FACTOR", 3.0),
    ("burst_every_ms", "repro.fleet.traffic", "BURST_EVERY_MS", 4_000.0),
    ("burst_length_ms", "repro.fleet.traffic", "BURST_LENGTH_MS", 500.0),
    ("hot_fraction", "repro.fleet.topology", "HOT_FRACTION", 0.25),
    ("hot_weight", "repro.fleet.topology", "HOT_WEIGHT", 4.0),
    ("standby_takeover_ms", "repro.fleet.shard", "STANDBY_TAKEOVER_MS", 5.0),
    ("resend_timeout_ms", "repro.fleet.shard", "RESEND_TIMEOUT_MS", 400.0),
    ("settle_ms", "repro.fleet.runner", "SETTLE_MS", 30_000.0),
]


@pytest.mark.parametrize(
    "field,module,constant,value", FLEET_CONSTANTS, ids=[row[0] for row in FLEET_CONSTANTS]
)
def test_fleet_constant(field, module, constant, value):
    home = importlib.import_module(module)
    if hasattr(home, constant):
        assert not hasattr(FleetSpec(), field)
        actual = getattr(home, constant)
    else:
        actual = getattr(FleetSpec(), field)
    assert actual == value


#: (former WorkloadParams field, constant in repro.workloads.paper, value)
PAYLOAD_CONSTANTS = [
    ("reply_bytes", "REPLY_BYTES", 100),
    ("sv_bytes", "SV_BYTES", 128),
    ("session_state_bytes", "SESSION_STATE_BYTES", 8 * 1024),
    ("session_write_bytes", "SESSION_WRITE_BYTES", 512),
]


@pytest.mark.parametrize(
    "field,constant,value", PAYLOAD_CONSTANTS, ids=[row[0] for row in PAYLOAD_CONSTANTS]
)
def test_payload_constant(field, constant, value):
    paper = importlib.import_module("repro.workloads.paper")
    if hasattr(paper, constant):
        assert not hasattr(WorkloadParams(), field)
        actual = getattr(paper, constant)
    else:
        actual = getattr(WorkloadParams(), field)
    assert actual == value


def test_cost_model():
    config_module = importlib.import_module("repro.core.config")
    costs = getattr(config_module, "COSTS", None) or RecoveryConfig().costs
    assert dataclasses.asdict(costs) == {
        "message_stack_ms": 0.62,
        "request_dispatch_ms": 0.28,
        "method_execution_ms": 0.25,
        "log_append_ms": 0.12,
        "dv_track_ms": 0.06,
        "flush_cpu_ms": 0.90,
        "flush_issue_ms": 0.08,
        "session_var_ms": 0.005,
        "session_ckpt_cpu_ms": 0.35,
        "replay_dispatch_ms": 0.05,
        "client_stack_ms": 0.35,
        "scan_record_cpu_ms": 0.002,
        "state_serialize_ms": 0.18,
        "db_txn_cpu_ms": 1.2,
        "state_stack_ms": 0.30,
    }
