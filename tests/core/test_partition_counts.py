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
@pytest.mark.parametrize("logging_mode", ("value", "adaptive", "command"))
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
