"""Every fuzz world's schedules replay to pinned fingerprints.

A refactor of the explorer, the invariant battery or either world must
leave each world's discovery counts, its enumerated schedules (in
order) and each schedule's ``ScheduleResult.fingerprint()`` —
violations in order, crashes, sites, completions, simulated time —
byte-identical.  Each group is hashed to one SHA-256 literal; run this
file directly to print the current digests.  No pinned schedule fails
today, so fixing the known lost-update seeds (ROADMAP item 2) leaves
every digest standing.

``p3-lazy-command-random`` was re-recorded once, when a partitioned
restart began reading its partitions' disks at once and an MSP
checkpoint began flushing them at once: the only P>1 group, its
schedules' simulated times and site counts moved (case 0: 2,096 ->
2,252 sites, 608.28 -> 721.21 ms), and all four still pass.
"""

import hashlib
import json

from repro.fuzz import (
    FuzzParams,
    explore_exhaustive,
    fleet_fuzz_params,
    run_random_case,
)

PINNED = {
    "paper-single": (
        "009ce5323a3345550a3a50635c6814f4"
        "eb7fd6527b2008696389b587eefe92f6"
    ),
    "paper-pairs": (
        "1f9612dc03cbacb7abc6bb6e47573da4"
        "a5b9178597f53b20d513e65718ca311b"
    ),
    "paper-random": (
        "5ba15c3d87e6f6462131bf913a9d9f71"
        "8b897117805fb8458dde0e2de9b0f78e"
    ),
    "p3-lazy-command-random": (
        "97bd7cb0a681afe53acd4ed25cb34c76"
        "b45aa558ab2eb08c5a598fd2fb1d0c92"
    ),
    "fleet-exhaustive": (
        "4b3f4ded98dc2d27782929867197a3db"
        "fcff882c0a535189408dfc2f384e65f2"
    ),
    "fleet-random": (
        "2bb4280b25289bb6b90a9fd2693eb74d"
        "dfb149123f19f928e5f68bf78ac0c38b"
    ),
}


def _row(result) -> list:
    return [result.schedule.to_dict(), list(result.fingerprint())]


def _exhaustive(params, **bounds) -> list:
    rows = []
    report = explore_exhaustive(
        params,
        jobs=1,
        progress=lambda _done, _total, result: rows.append(_row(result)),
        **bounds,
    )
    return [report.sites_discovered, rows]


def _random(params, case_seeds) -> list:
    return [_row(run_random_case(seed, params)) for seed in case_seeds]


def digests() -> dict:
    paper = FuzzParams()
    modes = FuzzParams(log_partitions=3, recovery_mode="lazy", logging_mode="command")
    fleet = fleet_fuzz_params()
    groups = {
        "paper-single": _exhaustive(paper, stride=97),
        "paper-pairs": _exhaustive(paper, pairs=True, max_schedules=6),
        # Case seeds 1, 2, 4 and 6 all draw a link-fault model.
        "paper-random": _random(paper, (1, 2, 4, 6)),
        "p3-lazy-command-random": _random(modes, range(4)),
        "fleet-exhaustive": _exhaustive(fleet, max_schedules=8),
        "fleet-random": _random(fleet, range(4)),
    }
    return {
        name: hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()
        for name, rows in groups.items()
    }


def test_schedule_fingerprints_are_pinned():
    assert digests() == PINNED


if __name__ == "__main__":
    for name, digest in digests().items():
        print(f'    "{name}": "{digest}",')
