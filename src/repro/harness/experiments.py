"""One function per table/figure of the paper's evaluation (§5).

Every function returns an :class:`ExperimentResult` whose rows carry the
measured values, whose ``paper`` dict carries the published reference
numbers (where the paper prints them), and whose ``claims`` list checks
the *shape* statements the paper makes about the artifact — who wins, by
roughly what factor, where crossovers fall.  Absolute parity is not
expected (our substrate is a calibrated simulator); shape parity is.

``scale`` trades runtime for fidelity: 1.0 approximates the paper's run
lengths (20 K requests for Fig. 14), smaller values keep CI fast.

Each experiment is a *sweep*: it first enumerates its independent
workload points (one seeded simulation each), runs them through
:func:`sweep` — in-process for ``jobs=1``, fanned across worker
processes otherwise, with results merged back in point order either way
— and only then derives rows and claims.  More cores therefore buy more
measurement points per wall-second without changing a single number.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from operator import attrgetter
from typing import Optional

from repro.parallel import WorkerFailure, resolve_jobs, run_tasks
from repro.parallel.tasks import WorkloadPointSpec, run_workload_point
from repro.workloads import PaperWorkload, WorkloadParams

KB = 1024
MB = 1024 * 1024


@dataclass
class ExperimentResult:
    """Rows + paper references + checked shape claims for one artifact."""

    experiment: str
    description: str
    rows: list[dict] = field(default_factory=list)
    paper: dict = field(default_factory=dict)
    claims: list[tuple[str, bool]] = field(default_factory=list)

    @property
    def all_claims_hold(self) -> bool:
        return all(ok for _claim, ok in self.claims)

    def claim(self, text: str, ok: bool) -> None:
        self.claims.append((text, ok))

    def row_by(self, key: str, value) -> dict:
        for row in self.rows:
            if row.get(key) == value:
                return row
        raise KeyError(f"no row with {key}={value!r}")


def _run(params: WorkloadParams) -> tuple[PaperWorkload, "object"]:
    workload = PaperWorkload(params)
    result = workload.run()
    return workload, result


def sweep(worker, specs, jobs=None, progress=None, key=lambda spec: spec) -> list:
    """Run a sweep's independent points; results come back in spec order.

    ``jobs=1`` (the default resolution on a single core) is the
    in-process reference path; otherwise specs fan across spawn
    workers.  A point whose worker raises (including a failed
    ``verify_exactly_once``) aborts the experiment with the point's key
    in the error, matching the sequential behaviour.  ``key(spec)``
    names a point — in that error and in ``progress(done, total, key)``,
    which reports completions in either mode.
    """
    if resolve_jobs(jobs) == 1 or len(specs) <= 1:
        results = []
        for i, spec in enumerate(specs):
            results.append(worker(spec))
            if progress is not None:
                progress(i + 1, len(specs), key(spec))
        return results
    outcomes = run_tasks(
        worker,
        specs,
        jobs=jobs,
        progress=(
            None
            if progress is None
            else lambda done, total, outcome: progress(done, total, key(outcome.spec))
        ),
    )
    failed = [o for o in outcomes if not o.ok]
    if failed:
        first = failed[0]
        raise WorkerFailure(
            f"sweep point {key(first.spec)} failed "
            f"({len(failed)}/{len(outcomes)} points): {first.error}"
        )
    return [outcome.result for outcome in outcomes]


#: :func:`sweep` over paper-workload points, each named by its key.
_sweep = partial(sweep, run_workload_point, key=attrgetter("key"))


# ---------------------------------------------------------------------------
# Figure 14 (table): average response time of the five configurations
# ---------------------------------------------------------------------------

PAPER_FIG14_TABLE = {
    "LoOptimistic": 24.746,
    "Pessimistic": 35.227,
    "NoLog": 8.697,
    "Psession": 48.617,
    "StateServer": 16.658,
}


def fig14_response_table(
    scale: float = 1.0, seed: int = 0, jobs=None, progress=None
) -> ExperimentResult:
    """Fig. 14 table: average response time over 20 K requests."""
    requests = max(50, int(20_000 * scale))
    result = ExperimentResult(
        experiment="fig14-table",
        description="Average response time (ms), 1 client, m=1",
        paper=dict(PAPER_FIG14_TABLE),
    )
    points = [
        WorkloadPointSpec(
            key=("fig14-table", configuration),
            params=WorkloadParams(
                configuration=configuration,
                requests_per_client=requests,
                seed=seed,
            ),
        )
        for configuration in PAPER_FIG14_TABLE
    ]
    means: dict[str, float] = {}
    for point, run in zip(points, _sweep(points, jobs=jobs, progress=progress)):
        configuration = point.key[1]
        means[configuration] = run.mean_response_ms
        result.rows.append(
            {
                "configuration": configuration,
                "mean_response_ms": run.mean_response_ms,
                "paper_ms": PAPER_FIG14_TABLE[configuration],
            }
        )
    result.claim(
        "ordering NoLog < StateServer < LoOptimistic < Pessimistic < Psession",
        means["NoLog"]
        < means["StateServer"]
        < means["LoOptimistic"]
        < means["Pessimistic"]
        < means["Psession"],
    )
    reduction = 1.0 - means["LoOptimistic"] / means["Pessimistic"]
    result.claim(
        f"locally optimistic reduces response time by about 30% (measured {reduction:.0%})",
        0.20 <= reduction <= 0.45,
    )
    return result


# ---------------------------------------------------------------------------
# Figure 14 (chart): response time versus calls to ServiceMethod2
# ---------------------------------------------------------------------------


def fig14_calls_chart(
    scale: float = 1.0,
    seed: int = 0,
    calls: tuple[int, ...] = (1, 2, 3, 4),
    jobs=None,
    progress=None,
) -> ExperimentResult:
    """Fig. 14 chart: response time versus m for all five configurations."""
    requests = max(30, int(2_000 * scale))
    result = ExperimentResult(
        experiment="fig14-chart",
        description="Response time (ms) vs number of calls to ServiceMethod2",
    )
    points = [
        WorkloadPointSpec(
            key=("fig14-chart", configuration, m),
            params=WorkloadParams(
                configuration=configuration,
                requests_per_client=requests,
                calls_to_sm2=m,
                seed=seed,
            ),
        )
        for configuration in PAPER_FIG14_TABLE
        for m in calls
    ]
    series: dict[str, list[float]] = {c: [] for c in PAPER_FIG14_TABLE}
    for point, run in zip(points, _sweep(points, jobs=jobs, progress=progress)):
        _name, configuration, m = point.key
        series[configuration].append(run.mean_response_ms)
        result.rows.append(
            {
                "configuration": configuration,
                "calls": m,
                "mean_response_ms": run.mean_response_ms,
            }
        )

    def slope(name: str) -> float:
        values = series[name]
        return (values[-1] - values[0]) / (calls[-1] - calls[0])

    result.claim(
        "response time grows with m for every configuration",
        all(all(b > a for a, b in zip(v, v[1:])) for v in series.values()),
    )
    result.claim(
        "LoOptimistic-Pessimistic gap widens with m",
        (series["Pessimistic"][-1] - series["LoOptimistic"][-1])
        > (series["Pessimistic"][0] - series["LoOptimistic"][0]),
    )
    result.claim(
        "pessimistic slope ~2 flushes+round/call (steepest logging growth)",
        slope("Pessimistic") > slope("LoOptimistic") * 2,
    )
    result.claim(
        "StateServer grows faster than LoOptimistic and is close to it at m=4",
        slope("StateServer") > slope("LoOptimistic")
        and abs(series["StateServer"][-1] - series["LoOptimistic"][-1])
        < 0.25 * series["LoOptimistic"][-1],
    )
    result.claim(
        "LoOptimistic-NoLog gap increases (slowly) with m",
        (series["LoOptimistic"][-1] - series["NoLog"][-1])
        > (series["LoOptimistic"][0] - series["NoLog"][0]),
    )
    return result


# ---------------------------------------------------------------------------
# Figure 15(a): throughput versus checkpointing threshold
# ---------------------------------------------------------------------------


def fig15a_checkpoint_overhead(
    scale: float = 1.0,
    seed: int = 0,
    thresholds: tuple = (64 * KB, 256 * KB, 1 * MB, 4 * MB, None),
    jobs=None,
    progress=None,
) -> ExperimentResult:
    """Fig. 15(a): session checkpointing overhead on throughput."""
    requests = max(200, int(5_000 * scale))
    result = ExperimentResult(
        experiment="fig15a",
        description="Throughput (req/s) vs session checkpoint threshold, LoOptimistic",
    )
    points = [
        WorkloadPointSpec(
            key=("fig15a", "none" if threshold is None else f"{threshold // KB}KB"),
            params=WorkloadParams(
                configuration="LoOptimistic",
                requests_per_client=requests,
                session_ckpt_threshold=threshold,
                seed=seed,
            ),
        )
        for threshold in thresholds
    ]
    throughputs = []
    for point, run in zip(points, _sweep(points, jobs=jobs, progress=progress)):
        throughputs.append(run.throughput_rps)
        result.rows.append(
            {
                "threshold": point.key[1],
                "throughput_rps": run.throughput_rps,
                "session_checkpoints": run.session_checkpoints,
            }
        )
    no_ckpt = throughputs[-1]
    smallest = throughputs[0]
    result.claim(
        "even a 64KB threshold leads to only a small throughput reduction (<10%)",
        smallest > 0.90 * no_ckpt,
    )
    big = throughputs[thresholds.index(4 * MB)]
    result.claim(
        "4MB threshold is close to the no-checkpointing case (<2%)",
        abs(big - no_ckpt) < 0.02 * no_ckpt,
    )
    return result


# ---------------------------------------------------------------------------
# Figure 15(b): throughput versus crash rate
# ---------------------------------------------------------------------------


def fig15b_crash_throughput(
    scale: float = 1.0,
    seed: int = 0,
    crash_rates: tuple = (None, 2000, 1500, 1000),
    jobs=None,
    progress=None,
) -> ExperimentResult:
    """Fig. 15(b): throughput under forced MSP2 crashes.

    ``scale`` shrinks both the run length and the crash intervals
    together, preserving the crashes-per-request ratios.
    """
    result = ExperimentResult(
        experiment="fig15b",
        description="Throughput (req/s) vs crash rate (one crash per N requests)",
    )
    series: dict[str, list[float]] = {"LoOptimistic": [], "Pessimistic": []}
    requests = max(200, int(6_000 * scale))
    points = [
        WorkloadPointSpec(
            key=(
                "fig15b",
                configuration,
                None if rate is None else max(20, int(rate * scale)),
            ),
            params=WorkloadParams(
                configuration=configuration,
                requests_per_client=requests,
                crash_every_n=None if rate is None else max(20, int(rate * scale)),
                seed=seed,
            ),
            verify_exactly_once=True,
        )
        for configuration in series
        for rate in crash_rates
    ]
    for point, run in zip(points, _sweep(points, jobs=jobs, progress=progress)):
        _name, configuration, scaled_rate = point.key
        series[configuration].append(run.throughput_rps)
        result.rows.append(
            {
                "configuration": configuration,
                "crash_every_n": scaled_rate,
                "throughput_rps": run.throughput_rps,
                "crashes": run.crashes,
                "orphan_recoveries": run.orphan_recoveries,
                "replayed_requests": run.replayed_requests,
            }
        )
    lo, pe = series["LoOptimistic"], series["Pessimistic"]
    result.claim(
        "locally optimistic always has higher throughput than pessimistic",
        all(a > b for a, b in zip(lo, pe)),
    )
    result.claim(
        "throughput decreases as the crash rate increases (both methods)",
        lo[0] > lo[-1] and pe[0] > pe[-1],
    )
    result.claim(
        "LoOptimistic's decrease is larger (extra orphan-recovery cost)",
        (lo[0] - lo[-1]) / lo[0] > (pe[0] - pe[-1]) / pe[0],
    )
    return result


# ---------------------------------------------------------------------------
# Figure 16 (table): maximum response times
# ---------------------------------------------------------------------------

PAPER_FIG16_TABLE = {
    ("LoOptimistic", "Crash"): 3245.0,
    ("LoOptimistic", "NoCrash"): 490.0,
    ("LoOptimistic", "NoCp"): 123.0,
    ("Pessimistic", "Crash"): 2360.0,
    ("Pessimistic", "NoCrash"): 150.0,
    ("Pessimistic", "NoCp"): 133.0,
}


def fig16_max_response_table(
    scale: float = 1.0, seed: int = 0, jobs=None, progress=None
) -> ExperimentResult:
    """Fig. 16 table: maximum response time under crashes/checkpointing."""
    requests = max(400, int(6_000 * scale))
    crash_rate = max(50, int(1000 * scale))
    result = ExperimentResult(
        experiment="fig16-table",
        description="Maximum response time (ms)",
        paper={f"{cfg}/{col}": v for (cfg, col), v in PAPER_FIG16_TABLE.items()},
    )
    measured: dict[tuple[str, str], float] = {}
    means: dict[tuple[str, str], float] = {}
    points = []
    for configuration in ("LoOptimistic", "Pessimistic"):
        scenarios = {
            "Crash": WorkloadParams(
                configuration=configuration,
                requests_per_client=requests,
                crash_every_n=crash_rate,
                seed=seed,
            ),
            "NoCrash": WorkloadParams(
                configuration=configuration, requests_per_client=requests, seed=seed
            ),
            "NoCp": WorkloadParams(
                configuration=configuration,
                requests_per_client=requests,
                session_ckpt_threshold=None,
                seed=seed,
            ),
        }
        points.extend(
            WorkloadPointSpec(key=("fig16-table", configuration, column), params=params)
            for column, params in scenarios.items()
        )
    for point, run in zip(points, _sweep(points, jobs=jobs, progress=progress)):
        _name, configuration, column = point.key
        measured[(configuration, column)] = run.max_response_ms
        means[(configuration, column)] = run.mean_response_ms
        result.rows.append(
            {
                "configuration": configuration,
                "scenario": column,
                "max_response_ms": run.max_response_ms,
                "mean_response_ms": run.mean_response_ms,
                "paper_max_ms": PAPER_FIG16_TABLE[(configuration, column)],
            }
        )
    result.claim(
        "crashes raise the maximum response time substantially (both methods)",
        measured[("LoOptimistic", "Crash")] > 3 * measured[("LoOptimistic", "NoCrash")]
        and measured[("Pessimistic", "Crash")] > 3 * measured[("Pessimistic", "NoCrash")],
    )
    result.claim(
        "LoOptimistic's crash maximum exceeds Pessimistic's (SE1 orphan replay)",
        measured[("LoOptimistic", "Crash")] > measured[("Pessimistic", "Crash")],
    )
    result.claim(
        "average response stays low even with crashes",
        means[("LoOptimistic", "Crash")] < 2.0 * PAPER_FIG14_TABLE["LoOptimistic"]
        and means[("Pessimistic", "Crash")] < 2.0 * PAPER_FIG14_TABLE["Pessimistic"],
    )
    return result


# ---------------------------------------------------------------------------
# Figure 16 (chart): optimal checkpointing threshold under crashes
# ---------------------------------------------------------------------------


def fig16_optimal_threshold(
    scale: float = 1.0,
    seed: int = 0,
    thresholds: tuple = (64 * KB, 256 * KB, 512 * KB, 1 * MB, 2 * MB, 4 * MB),
    jobs=None,
    progress=None,
) -> ExperimentResult:
    """Fig. 16 chart: throughput at crash rate 1/1000 vs threshold."""
    # Floors: with fewer than ~60 requests between crashes a recovery
    # replays too little for the threshold to show in the throughput
    # (the 400/50 cell has its best throughput at the largest threshold).
    requests = max(480, int(8_000 * scale))
    crash_rate = max(60, int(1000 * scale))
    result = ExperimentResult(
        experiment="fig16-chart",
        description="Throughput (req/s) at crash rate 1/1000 vs checkpoint threshold",
    )
    points = [
        WorkloadPointSpec(
            key=("fig16-chart", f"{threshold // KB}KB"),
            params=WorkloadParams(
                configuration="LoOptimistic",
                requests_per_client=requests,
                session_ckpt_threshold=threshold,
                crash_every_n=crash_rate,
                seed=seed,
            ),
            verify_exactly_once=True,
        )
        for threshold in thresholds
    ]
    throughputs = []
    for point, run in zip(points, _sweep(points, jobs=jobs, progress=progress)):
        throughputs.append(run.throughput_rps)
        result.rows.append(
            {
                "threshold": point.key[1],
                "throughput_rps": run.throughput_rps,
                "replayed_requests": run.replayed_requests,
                "session_checkpoints": run.session_checkpoints,
            }
        )
    best_index = max(range(len(throughputs)), key=throughputs.__getitem__)
    result.claim(
        "very large thresholds hurt throughput (longer recovery replay)",
        throughputs[-1] < max(throughputs) * 0.999,
    )
    result.claim(
        "the best threshold is below the largest tested (an optimum exists)",
        best_index < len(thresholds) - 1,
    )
    return result


# ---------------------------------------------------------------------------
# Figure 17: multiple clients and batch flushing
# ---------------------------------------------------------------------------


def fig17_multiclient(
    scale: float = 1.0,
    seed: int = 0,
    client_counts: tuple = (1, 2, 3, 4, 6, 8),
    jobs=None,
    progress=None,
) -> ExperimentResult:
    """Fig. 17: throughput and response vs #clients, +/- batch flushing."""
    requests = max(40, int(1_500 * scale))
    result = ExperimentResult(
        experiment="fig17",
        description="Throughput and response time vs number of clients",
    )
    points = [
        WorkloadPointSpec(
            key=("fig17", configuration, batch, clients),
            params=WorkloadParams(
                configuration=configuration,
                requests_per_client=requests,
                num_clients=clients,
                batch_flush_timeout_ms=8.0 if batch else 0.0,
                seed=seed,
            ),
        )
        for configuration in ("Pessimistic", "LoOptimistic")
        for batch in (False, True)
        for clients in client_counts
    ]
    curves: dict[tuple[str, bool], list[float]] = {}
    responses: dict[tuple[str, bool], list[float]] = {}
    for point, run in zip(points, _sweep(points, jobs=jobs, progress=progress)):
        _name, configuration, batch, clients = point.key
        curves.setdefault((configuration, batch), []).append(run.throughput_rps)
        responses.setdefault((configuration, batch), []).append(run.mean_response_ms)
        result.rows.append(
            {
                "configuration": configuration,
                "batch": batch,
                "clients": clients,
                "throughput_rps": run.throughput_rps,
                "mean_response_ms": run.mean_response_ms,
                "msp1_cpu_utilization": run.msp1_cpu_utilization,
                "msp1_disk_utilization": run.msp1_disk_utilization,
            }
        )

    def peak(configuration: str, batch: bool) -> float:
        return max(curves[(configuration, batch)])

    result.claim(
        "batch flushing raises the peak throughput of pessimistic logging "
        "substantially (paper: ~30%)",
        peak("Pessimistic", True) > 1.10 * peak("Pessimistic", False),
    )
    result.claim(
        "with batch flushing LoOptimistic still beats Pessimistic by >=30%",
        peak("LoOptimistic", True) > 1.30 * peak("Pessimistic", True),
    )
    result.claim(
        "response time grows with the number of clients (all curves)",
        all(v[-1] > v[0] for v in responses.values()),
    )
    few = client_counts.index(2) if 2 in client_counts else 0
    many = len(client_counts) - 1
    result.claim(
        "batch flushing hurts response at few clients but helps at many",
        responses[("Pessimistic", True)][few] > responses[("Pessimistic", False)][few]
        and responses[("Pessimistic", True)][many]
        < responses[("Pessimistic", False)][many],
    )
    result.claim(
        "without batching, throughput saturates (peak not at the highest "
        "client count, or within 5% of the previous point)",
        all(
            curves[(cfg, False)][-1] <= max(curves[(cfg, False)]) * 1.02
            and max(curves[(cfg, False)]) < curves[(cfg, False)][few] * (
                client_counts[many] / client_counts[few]
            )
            for cfg in ("Pessimistic", "LoOptimistic")
        ),
    )
    return result


# ---------------------------------------------------------------------------
# §5.2 analysis: flush and sector accounting
# ---------------------------------------------------------------------------


def analysis_flush_accounting(
    scale: float = 1.0, seed: int = 0, jobs=None, progress=None
) -> ExperimentResult:
    """§5.2 analysis: flush counts and sector usage per request.

    Paper: pessimistic logging needs three sequential flushes per end
    client request (2+3+2 sectors); locally optimistic logging needs one
    distributed flush (3 and 3 sectors in parallel), saving roughly one
    sector per request.
    """
    requests = max(100, int(2_000 * scale))
    result = ExperimentResult(
        experiment="analysis-flush",
        description="Flush and sector accounting per end-client request",
        paper={
            "pessimistic_flushes_per_request": 3,
            "looptimistic_flushes_per_request": 2,
            "pessimistic_sectors_per_request": 7,
            "looptimistic_sectors_per_request": 6,
        },
    )
    measured = {}
    points = [
        WorkloadPointSpec(
            key=("analysis-flush", configuration),
            params=WorkloadParams(
                configuration=configuration, requests_per_client=requests, seed=seed
            ),
        )
        for configuration in ("Pessimistic", "LoOptimistic")
    ]
    for point, run in zip(points, _sweep(points, jobs=jobs, progress=progress)):
        configuration = point.key[1]
        flushes = (run.msp1_flushes + run.msp2_flushes) / run.completed_requests
        sectors = (
            run.msp1_flushed_sectors + run.msp2_flushed_sectors
        ) / run.completed_requests
        measured[configuration] = (flushes, sectors)
        result.rows.append(
            {
                "configuration": configuration,
                "flushes_per_request": flushes,
                "sectors_per_request": sectors,
            }
        )
    result.claim(
        "pessimistic needs ~3 flushes per request, locally optimistic ~2 "
        "(1 distributed = 2 parallel)",
        2.7 <= measured["Pessimistic"][0] <= 3.4
        and 1.8 <= measured["LoOptimistic"][0] <= 2.4,
    )
    result.claim(
        "locally optimistic writes about one sector less per request",
        0.4 <= (measured["Pessimistic"][1] - measured["LoOptimistic"][1]) <= 2.0,
    )
    return result
