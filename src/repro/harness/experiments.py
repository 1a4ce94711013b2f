"""The experiment shape, and the paper's evaluation (§5) in it.

An :class:`Experiment` is a declaration: ``specs(scale, seed)`` lists
its independent cells (one picklable dict per seeded simulation),
``cell(spec)`` — a module-level function — turns one spec into its
rows, and ``claims(rows)`` checks the *shape* statements made about the
artifact — who wins, by roughly what factor, where crossovers fall — as
:class:`Claim` values, each one number computed from the rows and
compared against a bound.  Absolute parity is not expected (our
substrate is a calibrated simulator); shape parity is.

Calling a declaration, ``experiment(scale, seed, jobs, progress)``, runs
its cells through :func:`sweep` — in-process for ``jobs=1``, fanned
across worker processes otherwise, merged back in spec order either way
— and returns an :class:`ExperimentResult`.  More cores therefore buy
more measurement points per wall-second without changing a single
number.  ``scale`` trades runtime for fidelity: 1.0 approximates the
paper's run lengths (20 K requests for Fig. 14), smaller values keep CI
fast.

The paper-figure experiments share one cell, :func:`paper_cell`: one
run of the §5.1 workload, its row the spec's labels plus the named
attributes of what it measured.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.parallel import WorkerFailure, resolve_jobs, run_tasks
from repro.workloads import PaperWorkload, WorkloadParams

KB = 1024
MB = 1024 * 1024

_COMPARATORS = {
    ">=": operator.ge, ">": operator.gt, "<=": operator.le, "<": operator.lt,
    "==": operator.eq,
}


@dataclass(frozen=True)
class Claim:
    """One checked shape statement: ``measured op bound``.

    ``what`` names the one number ``measured`` is, computed from the
    rows; ``paper`` is the paper's value of that number where the paper
    prints one.  The rendered line is built from all five fields, so a
    claim's text cannot say more than its check.  A NaN measurement
    fails every comparator.
    """

    what: str
    measured: float
    op: str
    bound: float
    paper: Optional[float] = None

    @property
    def holds(self) -> bool:
        return _COMPARATORS[self.op](self.measured, self.bound)

    def __str__(self) -> str:
        line = (
            f"[{'PASS' if self.holds else 'FAIL'}] {self.what}: "
            f"{_number(self.measured)} {self.op} {_number(self.bound, 'g')}"
        )
        return line if self.paper is None else f"{line} (paper {_number(self.paper)})"


def _number(value, float_format: Optional[str] = None) -> str:
    """An int as is; a float to two decimals, or to three significant
    digits below 1 so a small ratio is not printed as 0.00."""
    if isinstance(value, int):
        return str(value)
    return format(value, float_format or (".2f" if abs(value) >= 1 else ".3g"))


@dataclass
class ExperimentResult:
    """Rows + checked shape claims for one artifact."""

    experiment: str
    description: str
    rows: list[dict] = field(default_factory=list)
    claims: list[Claim] = field(default_factory=list)

    @property
    def all_claims_hold(self) -> bool:
        return all(claim.holds for claim in self.claims)


def sweep(worker, specs, jobs=None, progress=None) -> list:
    """Run a sweep's independent points; results come back in spec order.

    ``jobs=1`` (the default resolution on a single core) is the
    in-process reference path; otherwise specs fan across spawn
    workers.  A point whose worker raises (including a failed
    ``verify_exactly_once``) aborts the experiment with the point's
    spec in the error, matching the sequential behaviour.
    ``progress(done, total, spec)`` reports completions in either mode.
    """
    if resolve_jobs(jobs) == 1 or len(specs) <= 1:
        results = []
        for i, spec in enumerate(specs):
            results.append(worker(spec))
            if progress is not None:
                progress(i + 1, len(specs), spec)
        return results
    outcomes = run_tasks(
        worker,
        specs,
        jobs=jobs,
        progress=(
            None
            if progress is None
            else lambda done, total, outcome: progress(done, total, outcome.spec)
        ),
    )
    failed = [o for o in outcomes if not o.ok]
    if failed:
        first = failed[0]
        raise WorkerFailure(
            f"sweep point {first.spec} failed "
            f"({len(failed)}/{len(outcomes)} points): {first.error}"
        )
    return [outcome.result for outcome in outcomes]


@dataclass(frozen=True)
class Experiment:
    """One ``repro run`` experiment, declared (see the module docstring).

    ``description`` is formatted with the first spec's fields, so one
    that names its size (``{sessions}``) reads it from where ``specs``
    computed it.
    """

    name: str
    description: str
    specs: Callable[[float, int], list[dict]]
    cell: Callable[[dict], list[dict]]
    claims: Callable[[list[dict]], list[Claim]]

    def __call__(
        self, scale: float = 1.0, seed: int = 0, jobs=None, progress=None
    ) -> ExperimentResult:
        specs = self.specs(scale, seed)
        rows = [
            row
            for cell_rows in sweep(self.cell, specs, jobs=jobs, progress=progress)
            for row in cell_rows
        ]
        return ExperimentResult(
            experiment=self.name,
            description=self.description.format(**specs[0]),
            rows=rows,
            claims=self.claims(rows),
        )


# ---------------------------------------------------------------------------
# The paper-workload cell
# ---------------------------------------------------------------------------


def paper_cell(spec: dict) -> list[dict]:
    """Run one paper workload; its row is the spec's ``labels`` followed
    by the ``measured`` attributes of the run's ``PaperRunResult``.

    ``verify`` runs the shared-counter exactly-once oracle here, where
    the live workload still exists.
    """
    workload = PaperWorkload(spec["params"])
    run = workload.run()
    if spec["verify"]:
        workload.verify_exactly_once()
    return [{**spec["labels"], **{name: getattr(run, name) for name in spec["measured"]}}]


def _point(labels: dict, measured: tuple, verify: bool = False, **params) -> dict:
    """One :func:`paper_cell` spec: the row's labels, the attributes it
    measures, and the workload."""
    return dict(
        labels=labels, measured=measured, params=WorkloadParams(**params), verify=verify
    )


def _series(rows: list[dict], key, value: str) -> dict:
    """``value`` of each row, in row order, grouped by ``key(row)``."""
    series: dict = {}
    for row in rows:
        series.setdefault(key(row), []).append(row[value])
    return series


def _steps_not_rising(values) -> int:
    """How many consecutive steps of ``values`` fail to increase."""
    return sum(b <= a for a, b in zip(values, values[1:]))


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


def _fig14_table_cell(spec: dict) -> list[dict]:
    [row] = paper_cell(spec)
    return [{**row, "paper_ms": PAPER_FIG14_TABLE[row["configuration"]]}]


FIG14_ORDER = ("NoLog", "StateServer", "LoOptimistic", "Pessimistic", "Psession")


def _fig14_table_claims(rows: list[dict]) -> list[Claim]:
    means = {row["configuration"]: row["mean_response_ms"] for row in rows}

    def reduction(table: dict) -> float:
        return 1.0 - table["LoOptimistic"] / table["Pessimistic"]

    order = "adjacent pairs out of the order " + " < ".join(FIG14_ORDER)
    paper = reduction(PAPER_FIG14_TABLE)
    return [
        Claim(
            order, _steps_not_rising([means[c] for c in FIG14_ORDER]), "==", 0,
            paper=_steps_not_rising([PAPER_FIG14_TABLE[c] for c in FIG14_ORDER]),
        ),
        Claim("1 - LoOptimistic / Pessimistic mean response", reduction(means), ">=",
              0.20, paper),
        Claim("1 - LoOptimistic / Pessimistic mean response", reduction(means), "<=",
              0.45, paper),
    ]


fig14_response_table = Experiment(
    name="fig14-table",
    description="Average response time (ms), 1 client, m=1",
    specs=lambda scale, seed: [
        _point(
            {"configuration": configuration},
            ("mean_response_ms",),
            configuration=configuration,
            requests_per_client=max(50, int(20_000 * scale)),
            seed=seed,
        )
        for configuration in PAPER_FIG14_TABLE
    ],
    cell=_fig14_table_cell,
    claims=_fig14_table_claims,
)


# ---------------------------------------------------------------------------
# Figure 14 (chart): response time versus calls to ServiceMethod2
# ---------------------------------------------------------------------------

FIG14_CALLS = (1, 2, 3, 4)


def _fig14_chart_claims(rows: list[dict]) -> list[Claim]:
    series = _series(rows, lambda row: row["configuration"], "mean_response_ms")

    def slope(name: str) -> float:
        values = series[name]
        return (values[-1] - values[0]) / (FIG14_CALLS[-1] - FIG14_CALLS[0])

    def gap_growth(above: str, below: str) -> float:
        gaps = [a - b for a, b in zip(series[above], series[below])]
        return gaps[-1] - gaps[0]

    lo, ss = series["LoOptimistic"], series["StateServer"]
    return [
        Claim("steps in m where a configuration's response time does not rise",
              sum(_steps_not_rising(v) for v in series.values()), "==", 0),
        Claim("growth of the Pessimistic - LoOptimistic gap from m=1 to m=4 (ms)",
              gap_growth("Pessimistic", "LoOptimistic"), ">", 0),
        Claim("Pessimistic / LoOptimistic response-time slope over m",
              slope("Pessimistic") / slope("LoOptimistic"), ">", 2),
        Claim("StateServer / LoOptimistic response-time slope over m",
              slope("StateServer") / slope("LoOptimistic"), ">", 1),
        Claim("|StateServer - LoOptimistic| / LoOptimistic response time at m=4",
              abs(ss[-1] - lo[-1]) / lo[-1], "<", 0.25),
        Claim("growth of the LoOptimistic - NoLog gap from m=1 to m=4 (ms)",
              gap_growth("LoOptimistic", "NoLog"), ">", 0),
    ]


fig14_calls_chart = Experiment(
    name="fig14-chart",
    description="Response time (ms) vs number of calls to ServiceMethod2",
    specs=lambda scale, seed: [
        _point(
            {"configuration": configuration, "calls": m},
            ("mean_response_ms",),
            configuration=configuration,
            requests_per_client=max(30, int(2_000 * scale)),
            calls_to_sm2=m,
            seed=seed,
        )
        for configuration in PAPER_FIG14_TABLE
        for m in FIG14_CALLS
    ],
    cell=paper_cell,
    claims=_fig14_chart_claims,
)


# ---------------------------------------------------------------------------
# Figure 15(a): throughput versus checkpointing threshold
# ---------------------------------------------------------------------------

FIG15A_THRESHOLDS = (64 * KB, 256 * KB, 1 * MB, 4 * MB, None)


def _fig15a_claims(rows: list[dict]) -> list[Claim]:
    throughputs = [row["throughput_rps"] for row in rows]
    no_ckpt = throughputs[-1]
    big = throughputs[FIG15A_THRESHOLDS.index(4 * MB)]
    return [
        Claim("64KB-threshold / no-checkpointing throughput", throughputs[0] / no_ckpt,
              ">", 0.90),
        Claim("|4MB-threshold - no-checkpointing| / no-checkpointing throughput",
              abs(big - no_ckpt) / no_ckpt, "<", 0.02),
    ]


fig15a_checkpoint_overhead = Experiment(
    name="fig15a",
    description="Throughput (req/s) vs session checkpoint threshold, LoOptimistic",
    specs=lambda scale, seed: [
        _point(
            {"threshold": "none" if threshold is None else f"{threshold // KB}KB"},
            ("throughput_rps", "session_checkpoints"),
            configuration="LoOptimistic",
            requests_per_client=max(200, int(5_000 * scale)),
            session_ckpt_threshold=threshold,
            seed=seed,
        )
        for threshold in FIG15A_THRESHOLDS
    ],
    cell=paper_cell,
    claims=_fig15a_claims,
)


# ---------------------------------------------------------------------------
# Figure 15(b): throughput versus crash rate
# ---------------------------------------------------------------------------

#: One MSP2 crash per this many requests at scale 1 (None: no crash);
#: ``scale`` shrinks them with the run length, preserving the
#: crashes-per-request ratios.
FIG15B_CRASH_RATES = (None, 2000, 1500, 1000)


def _fig15b_specs(scale: float, seed: int) -> list[dict]:
    specs = []
    for configuration in ("LoOptimistic", "Pessimistic"):
        for rate in FIG15B_CRASH_RATES:
            every = None if rate is None else max(20, int(rate * scale))
            specs.append(_point(
                {"configuration": configuration, "crash_every_n": every},
                ("throughput_rps", "crashes", "orphan_recoveries", "replayed_requests"),
                verify=True,
                configuration=configuration,
                requests_per_client=max(200, int(6_000 * scale)),
                crash_every_n=every,
                seed=seed,
            ))
    return specs


def _fig15b_claims(rows: list[dict]) -> list[Claim]:
    series = _series(rows, lambda row: row["configuration"], "throughput_rps")
    lo, pe = series["LoOptimistic"], series["Pessimistic"]
    return [
        Claim("crash rates where LoOptimistic's throughput is not above Pessimistic's",
              sum(a <= b for a, b in zip(lo, pe)), "==", 0),
        Claim("LoOptimistic throughput, highest crash rate / no crashes", lo[-1] / lo[0],
              "<", 1),
        Claim("Pessimistic throughput, highest crash rate / no crashes", pe[-1] / pe[0],
              "<", 1),
        Claim("LoOptimistic's minus Pessimistic's relative throughput drop at the "
              "highest crash rate", (lo[0] - lo[-1]) / lo[0] - (pe[0] - pe[-1]) / pe[0],
              ">", 0),
    ]


fig15b_crash_throughput = Experiment(
    name="fig15b",
    description="Throughput (req/s) vs crash rate (one crash per N requests)",
    specs=_fig15b_specs,
    cell=paper_cell,
    claims=_fig15b_claims,
)


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


def _fig16_table_specs(scale: float, seed: int) -> list[dict]:
    requests = max(400, int(6_000 * scale))
    scenarios = {
        "Crash": dict(crash_every_n=max(50, int(1000 * scale))),
        "NoCrash": {},
        "NoCp": dict(session_ckpt_threshold=None),
    }
    return [
        _point(
            {"configuration": configuration, "scenario": scenario},
            ("max_response_ms", "mean_response_ms"),
            configuration=configuration,
            requests_per_client=requests,
            seed=seed,
            **overrides,
        )
        for configuration in ("LoOptimistic", "Pessimistic")
        for scenario, overrides in scenarios.items()
    ]


def _fig16_table_cell(spec: dict) -> list[dict]:
    [row] = paper_cell(spec)
    key = row["configuration"], row["scenario"]
    return [{**row, "paper_max_ms": PAPER_FIG16_TABLE[key]}]


def _fig16_table_claims(rows: list[dict]) -> list[Claim]:
    top = {(r["configuration"], r["scenario"]): r["max_response_ms"] for r in rows}
    means = {(r["configuration"], r["scenario"]): r["mean_response_ms"] for r in rows}
    paper = PAPER_FIG16_TABLE
    configurations = ("LoOptimistic", "Pessimistic")
    return [
        Claim(f"{cfg} maximum response, Crash / NoCrash",
              top[cfg, "Crash"] / top[cfg, "NoCrash"], ">", 3,
              paper[cfg, "Crash"] / paper[cfg, "NoCrash"])
        for cfg in configurations
    ] + [
        Claim("maximum response with crashes, LoOptimistic / Pessimistic",
              top["LoOptimistic", "Crash"] / top["Pessimistic", "Crash"], ">", 1,
              paper["LoOptimistic", "Crash"] / paper["Pessimistic", "Crash"]),
    ] + [
        Claim(f"{cfg} mean response with crashes / the paper's Fig. 14 mean",
              means[cfg, "Crash"] / PAPER_FIG14_TABLE[cfg], "<", 2.0)
        for cfg in configurations
    ]


fig16_max_response_table = Experiment(
    name="fig16-table",
    description="Maximum response time (ms)",
    specs=_fig16_table_specs,
    cell=_fig16_table_cell,
    claims=_fig16_table_claims,
)


# ---------------------------------------------------------------------------
# Figure 16 (chart): optimal checkpointing threshold under crashes
# ---------------------------------------------------------------------------

FIG16_THRESHOLDS = (64 * KB, 256 * KB, 512 * KB, 1 * MB, 2 * MB, 4 * MB)


def _fig16_chart_specs(scale: float, seed: int) -> list[dict]:
    # Floors: with fewer than ~60 requests between crashes a recovery
    # replays too little for the threshold to show in the throughput
    # (the 400/50 cell has its best throughput at the largest threshold).
    return [
        _point(
            {"threshold": f"{threshold // KB}KB"},
            ("throughput_rps", "replayed_requests", "session_checkpoints"),
            verify=True,
            configuration="LoOptimistic",
            requests_per_client=max(480, int(8_000 * scale)),
            session_ckpt_threshold=threshold,
            crash_every_n=max(60, int(1000 * scale)),
            seed=seed,
        )
        for threshold in FIG16_THRESHOLDS
    ]


def _fig16_chart_claims(rows: list[dict]) -> list[Claim]:
    throughputs = [row["throughput_rps"] for row in rows]
    best_index = max(range(len(throughputs)), key=throughputs.__getitem__)
    return [
        Claim("largest-threshold / best throughput", throughputs[-1] / max(throughputs),
              "<", 0.999),
        Claim("index of the best-throughput threshold (smallest = 0)",
              best_index, "<", len(throughputs) - 1),
    ]


fig16_optimal_threshold = Experiment(
    name="fig16-chart",
    description="Throughput (req/s) at crash rate 1/1000 vs checkpoint threshold",
    specs=_fig16_chart_specs,
    cell=paper_cell,
    claims=_fig16_chart_claims,
)


# ---------------------------------------------------------------------------
# Figure 17: multiple clients and batch flushing
# ---------------------------------------------------------------------------

FIG17_CLIENTS = (1, 2, 3, 4, 6, 8)
FIG17_CONFIGS = ("Pessimistic", "LoOptimistic")


def _fig17_claims(rows: list[dict]) -> list[Claim]:
    def curve(row):
        return row["configuration"], row["batch"]

    curves = _series(rows, curve, "throughput_rps")
    responses = _series(rows, curve, "mean_response_ms")
    few = FIG17_CLIENTS.index(2)
    many = len(FIG17_CLIENTS) - 1

    def climbing(c: list) -> bool:
        # Still climbing at the most clients: the peak is the last point
        # and it is more than 5% above the point before.
        return c[-1] > max(c[:-1]) and c[-1] > 1.05 * c[-2]

    batched, unbatched = responses["Pessimistic", True], responses["Pessimistic", False]
    return [
        Claim("Pessimistic peak throughput, batched / unbatched",
              max(curves["Pessimistic", True]) / max(curves["Pessimistic", False]),
              ">", 1.10, paper=1.30),
        Claim("batched peak throughput, LoOptimistic / Pessimistic",
              max(curves["LoOptimistic", True]) / max(curves["Pessimistic", True]),
              ">", 1.30),
        Claim("curves whose mean response at the most clients is not above that at one",
              sum(v[-1] <= v[0] for v in responses.values()), "==", 0),
        Claim("Pessimistic mean response at 2 clients, batched / unbatched",
              batched[few] / unbatched[few], ">", 1),
        Claim("Pessimistic mean response at the most clients, batched / unbatched",
              batched[many] / unbatched[many], "<", 1),
        Claim("unbatched curves that peak at the most clients, > 5% above the point "
              "before", sum(climbing(curves[cfg, False]) for cfg in FIG17_CONFIGS),
              "==", 0),
    ] + [
        Claim(f"{cfg} unbatched peak throughput / throughput at 2 clients",
              max(curves[cfg, False]) / curves[cfg, False][few], "<",
              FIG17_CLIENTS[many] / FIG17_CLIENTS[few])
        for cfg in FIG17_CONFIGS
    ]


fig17_multiclient = Experiment(
    name="fig17",
    description="Throughput and response time vs number of clients",
    specs=lambda scale, seed: [
        _point(
            {"configuration": configuration, "batch": batch, "clients": clients},
            ("throughput_rps", "mean_response_ms", "msp1_cpu_utilization",
             "msp1_disk_utilization"),
            configuration=configuration,
            requests_per_client=max(40, int(1_500 * scale)),
            num_clients=clients,
            batch_flush_timeout_ms=8.0 if batch else 0.0,
            seed=seed,
        )
        for configuration in FIG17_CONFIGS
        for batch in (False, True)
        for clients in FIG17_CLIENTS
    ],
    cell=paper_cell,
    claims=_fig17_claims,
)


# ---------------------------------------------------------------------------
# §5.2 analysis: flush and sector accounting
# ---------------------------------------------------------------------------


def _analysis_flush_claims(rows: list[dict]) -> list[Claim]:
    """Paper: pessimistic logging needs three sequential flushes per end
    client request (2+3+2 sectors); locally optimistic logging needs one
    distributed flush (3 and 3 sectors in parallel), saving roughly one
    sector per request."""
    pe, lo = (row["flushes_per_request"] for row in rows)
    saved = rows[0]["sectors_per_request"] - rows[1]["sectors_per_request"]
    return [
        Claim("Pessimistic flushes per request", pe, ">=", 2.7, 3),
        Claim("Pessimistic flushes per request", pe, "<=", 3.4, 3),
        Claim("LoOptimistic flushes per request", lo, ">=", 1.8, 2),
        Claim("LoOptimistic flushes per request", lo, "<=", 2.4, 2),
        Claim("sectors per request, Pessimistic - LoOptimistic", saved, ">=", 0.4, 7 - 6),
        Claim("sectors per request, Pessimistic - LoOptimistic", saved, "<=", 2.0, 7 - 6),
    ]


analysis_flush_accounting = Experiment(
    name="analysis-flush",
    description="Flush and sector accounting per end-client request",
    specs=lambda scale, seed: [
        _point(
            {"configuration": configuration},
            ("flushes_per_request", "sectors_per_request"),
            configuration=configuration,
            requests_per_client=max(100, int(2_000 * scale)),
            seed=seed,
        )
        for configuration in ("Pessimistic", "LoOptimistic")
    ],
    cell=paper_cell,
    claims=_analysis_flush_claims,
)
