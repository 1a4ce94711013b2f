"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``list`` — list the available experiments;
- ``run <experiment> [--scale S] [--seed N] [--jobs N]`` — run one
  experiment — a table or figure of the paper, an ablation, or one of
  the later headline results (partition scaling, instant restart, log
  volume, log space, fleet scaling, trace overhead) — print its rows
  and check its claims; exit 1 if a claim fails, which is the gate;
- ``all [--scale S] [--jobs N]`` — run every experiment;
- ``workload <configuration> [--requests N] [--clients N] [--m N]
  [--crash-every N] [--batch MS]`` — run one paper workload and print
  the measurements;
- ``fuzz [--mode exhaustive|random] [--seeds N] [--replay SEED] ...`` —
  the deterministic crash-schedule explorer (see :mod:`repro.fuzz.cli`):
  systematically kill an MSP at every enumerated crash site (or at
  seeded random multi-crash schedules with network faults), recover,
  and check the exactly-once invariant battery; failures report a
  replayable ``(seed, schedule)`` pair;
- ``scenarios [--matrix PATH] [--jobs N] [--out MD] [--html PATH]
  [--json PATH]`` — run a declarative scenario matrix (fault family ×
  topology × seed: crashes, correlated rack loss, partition windows,
  whole-domain disasters with warm-standby failover) under the process
  pool and emit a fuzzbench-style report with per-cell invariant
  verdicts and recovery-time distributions; report bytes are identical
  at any ``--jobs`` value;
- ``trace [configuration] [--requests N] [--crash-every N] [--out
  PATH] [--jsonl PATH]`` — run a paper workload with structured tracing
  on (:mod:`repro.trace`) and export the sim-time timeline as a Chrome
  ``trace_event`` file (loadable in ``chrome://tracing``/Perfetto) plus
  an optional JSON-lines artifact, printing the recovery-time breakdown
  and flush-latency histogram the trace contains.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.core.config import RecoveryConfig
from repro.harness import EXPERIMENTS as _DECLARED, render_result
from repro.workloads import CONFIGURATIONS, PaperWorkload, WorkloadParams
from repro.workloads.paper import add_mode_arguments, mode_overrides

EXPERIMENTS = {experiment.name: experiment for experiment in _DECLARED}

#: The scenario matrix ``repro scenarios`` runs without ``--matrix``.
DEFAULT_MATRIX = Path(__file__).resolve().parents[2] / "scenarios" / "default.yaml"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Log-based recovery for middleware servers (SIGMOD 2007) "
        "— reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments")

    def add_jobs_argument(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--jobs", type=int, default=None,
            help="worker processes (default: REPRO_JOBS or all cores; "
            "1 = in-process)",
        )

    run = sub.add_parser("run", help="run one experiment")
    run.add_argument("experiment", choices=list(EXPERIMENTS))
    run.add_argument("--scale", type=float, default=0.1)
    run.add_argument("--seed", type=int, default=0)
    add_jobs_argument(run)

    everything = sub.add_parser("all", help="run every experiment")
    everything.add_argument("--scale", type=float, default=0.05)
    everything.add_argument("--seed", type=int, default=0)
    add_jobs_argument(everything)

    workload = sub.add_parser("workload", help="run one paper workload")
    workload.add_argument("configuration", choices=CONFIGURATIONS)
    workload.add_argument("--requests", type=int, default=500)
    workload.add_argument("--clients", type=int, default=1)
    workload.add_argument("--m", type=int, default=1, help="calls to ServiceMethod2")
    workload.add_argument("--crash-every", type=int, default=None)
    workload.add_argument("--batch", type=float, default=0.0, help="batch flush ms")
    workload.add_argument(
        "--atomic-sv", action="store_true",
        help="increment shared counters with atomic update_shared RMWs "
        "(the paper's separate read+write accesses lose updates under "
        "concurrent clients, failing exactly-once verification)",
    )
    workload.add_argument(
        "--no-truncation", action="store_true",
        help="disable checkpoint-driven log truncation (the log then "
        "grows without bound — the log-space experiment's off rows)",
    )
    workload.add_argument(
        "--segment-bytes", type=int, default=WorkloadParams.log_segment_bytes,
        help="log segment size in bytes (default 64 KiB); truncation "
        "recycles whole segments below the checkpoint floor",
    )
    add_mode_arguments(workload)
    workload.add_argument("--seed", type=int, default=0)

    fuzz = sub.add_parser("fuzz", help="run the crash-schedule explorer")
    from repro.fuzz.cli import add_fuzz_arguments

    add_fuzz_arguments(fuzz)

    from repro.fleet import FleetSpec

    fleet_defaults = FleetSpec()
    fleet = sub.add_parser(
        "fleet",
        help="run a sharded multi-MSP fleet under open-loop traffic",
    )
    fleet.add_argument(
        "--msps", type=int, default=fleet_defaults.msps, help="MSP count"
    )
    fleet.add_argument(
        "--domains", type=int, default=fleet_defaults.domains,
        help="service-domain count",
    )
    fleet.add_argument(
        "--shards", type=int, default=fleet_defaults.shards,
        help="simulation shards (part of the spec: whole domains per "
        "shard, results identical at any --jobs)",
    )
    add_jobs_argument(fleet)
    fleet.add_argument(
        "--sessions", type=int, default=fleet_defaults.sessions,
        help="open-loop session count",
    )
    fleet.add_argument(
        "--duration", type=float, default=fleet_defaults.duration_ms, metavar="MS",
        help="arrival window in simulated ms",
    )
    fleet.add_argument(
        "--chain-depth", type=int, default=fleet_defaults.chain_depth,
        help="downstream hops chained per request",
    )
    fleet.add_argument(
        "--cross-fraction", type=float,
        default=fleet_defaults.cross_domain_fraction,
        help="probability a hop crosses a domain boundary (the "
        "pessimistic flush-before-send path)",
    )
    fleet.add_argument(
        "--crash", action="append", default=None, metavar="MS:MSP",
        help="crash + restart MSP at simulated time (repeatable), "
        "e.g. --crash 2000:m003",
    )
    fleet.add_argument("--seed", type=int, default=0)
    fleet.add_argument(
        "--out", default=None, metavar="PATH",
        help="write the canonical (timing-free, byte-stable) result JSON",
    )
    fleet.add_argument(
        "--trace", default=None, metavar="PATH",
        help="attach structured tracers (requires --jobs 1) and write "
        "the merged Chrome trace_event file",
    )

    scenarios = sub.add_parser(
        "scenarios",
        help="run a declarative scenario matrix (fault family × topology) "
        "and emit a fuzzbench-style report",
    )
    scenarios.add_argument(
        "--matrix", default=str(DEFAULT_MATRIX), metavar="PATH",
        help="scenario matrix YAML (default: the repository's "
        "scenarios/default.yaml; the committed ones live under scenarios/)",
    )
    add_jobs_argument(scenarios)
    scenarios.add_argument(
        "--out", default=None, metavar="PATH",
        help="write the markdown report (byte-identical at any --jobs)",
    )
    scenarios.add_argument(
        "--html", default=None, metavar="PATH",
        help="write the standalone HTML report",
    )
    scenarios.add_argument(
        "--json", default=None, metavar="PATH",
        help="write the canonical (timing-free) report JSON "
        "(what the CI job compares across --jobs values)",
    )
    scenarios.add_argument(
        "--timeout", type=float, default=None, metavar="S",
        help="per-cell wall-clock deadline in seconds",
    )

    trace = sub.add_parser(
        "trace", help="run a workload with structured tracing and export it"
    )
    trace.add_argument(
        "configuration", nargs="?", choices=CONFIGURATIONS, default="LoOptimistic"
    )
    trace.add_argument("--requests", type=int, default=200)
    trace.add_argument("--clients", type=int, default=1)
    trace.add_argument("--m", type=int, default=1, help="calls to ServiceMethod2")
    trace.add_argument(
        "--crash-every", type=int, default=60,
        help="crash msp2 every N completed ServiceMethod2 calls so the "
        "timeline contains recoveries (0 disables crashes)",
    )
    trace.add_argument("--batch", type=float, default=0.0, help="batch flush ms")
    add_mode_arguments(trace)
    trace.add_argument("--seed", type=int, default=0)
    trace.add_argument(
        "--max-events", type=int, default=1_000_000,
        help="bound on retained trace events (drops beyond it)",
    )
    trace.add_argument(
        "--out", default="trace.json",
        help="Chrome trace_event output path (default trace.json)",
    )
    trace.add_argument(
        "--jsonl", default=None, metavar="PATH",
        help="also write the JSON-lines artifact",
    )
    return parser


def _progress(label: str):
    from repro.parallel import ProgressReporter

    # On stderr: stdout carries only what the experiment measured, so
    # two runs of ``repro all`` can be diffed.  The key is deliberately
    # unreported: rate-limited count/ETA lines only.
    reporter = ProgressReporter(f"  {label}", stream=sys.stderr).start()
    return lambda done, total, key: reporter.update(done, total)


def _usage_error(command: str, problem: object) -> int:
    """Report a configuration the command refused before running: exit
    2, which no verdict or claim uses."""
    print(f"repro {command}: {problem}", file=sys.stderr)
    return 2


def _run_workload(args: argparse.Namespace) -> int:
    params = WorkloadParams(
        configuration=args.configuration,
        requests_per_client=args.requests,
        num_clients=args.clients,
        calls_to_sm2=args.m,
        crash_every_n=args.crash_every,
        batch_flush_timeout_ms=args.batch,
        atomic_sv_updates=args.atomic_sv,
        log_truncation=not args.no_truncation,
        log_segment_bytes=args.segment_bytes,
        seed=args.seed,
        **mode_overrides(args),
    )
    try:
        RecoveryConfig.of(params).validate()
    except ValueError as exc:
        return _usage_error("workload", exc)
    workload = PaperWorkload(params)
    result = workload.run()
    print(f"configuration:      {result.configuration}")
    print(f"completed requests: {result.completed_requests}")
    print(f"mean response:      {result.mean_response_ms:.3f} ms")
    print(f"max response:       {result.max_response_ms:.1f} ms")
    print(f"throughput:         {result.throughput_rps:.2f} req/s")
    print(f"crashes:            {result.crashes}")
    stats = [workload.msp1.stats, workload.msp2.stats]
    inline = sum(s.inline_recoveries for s in stats)
    pump = sum(s.pump_recoveries for s in stats)
    print(
        f"session replays:    {inline + pump} "
        f"({inline} inline, {pump} by drain workers; {params.recovery_mode})"
    )
    if params.logging_mode == "command":
        print(
            f"command logging:    "
            f"{sum(s.command_requests for s in stats)} command requests, "
            f"{sum(s.replayed_commands for s in stats)} replayed"
        )
    print(f"orphan recoveries:  {result.orphan_recoveries}")
    print(f"replayed requests:  {result.replayed_requests}")
    print(f"MSP1 cpu/disk util: {result.msp1_cpu_utilization:.2f} / "
          f"{result.msp1_disk_utilization:.2f}")
    stores = workload.msp1.stores
    print(f"MSP1 log space:     {sum(s.live_bytes for s in stores)} live bytes, "
          f"{sum(s.truncated_bytes for s in stores)} truncated "
          f"({sum(s.recycled_segments for s in stores)} segments recycled)")
    if args.configuration in ("LoOptimistic", "Pessimistic"):
        workload.verify_exactly_once()
        print("exactly-once:       verified")
    return 0


def _run_fleet(args: argparse.Namespace) -> int:
    from repro.fleet import FleetSpec, FleetTopology, fleet_fingerprint, run_fleet
    from repro.fleet.runner import canonical_result_bytes
    from repro.parallel import resolve_jobs

    crash_plan = []
    for entry in args.crash or ():
        try:
            when, _, target = entry.partition(":")
            crash_plan.append((float(when), target))
        except ValueError:
            return _usage_error("fleet", f"bad --crash {entry!r} (want MS:MSP)")
    spec = FleetSpec(
        msps=args.msps,
        domains=args.domains,
        shards=args.shards,
        seed=args.seed,
        sessions=args.sessions,
        duration_ms=args.duration,
        chain_depth=args.chain_depth,
        cross_domain_fraction=args.cross_fraction,
        crash_plan=tuple(crash_plan),
    )
    try:
        FleetTopology(spec)
    except ValueError as exc:
        return _usage_error("fleet", exc)
    jobs = min(resolve_jobs(args.jobs), spec.shards)

    tracer_factory = None
    traced_shards = []
    if args.trace is not None:
        if jobs != 1:
            return _usage_error("fleet", "--trace requires --jobs 1")
        from repro.trace import Tracer

        def tracer_factory(shard):
            traced_shards.append((shard, Tracer(shard.sim).attach()))

    result = run_fleet(
        spec,
        jobs=jobs,
        progress=lambda message: print(f"  {message}", file=sys.stderr),
        tracer_factory=tracer_factory,
    )
    if traced_shards:
        from repro.trace import collect_component_metrics, write_chrome_trace

        stem = (
            args.trace[:-5] if args.trace.endswith(".json") else args.trace
        )
        for shard, tracer in traced_shards:
            tracer.finalize()
            collect_component_metrics(
                tracer.metrics,
                msps=tuple(shard.msps.values()),
                network=shard.network,
                shard=shard,
            )
            path = (
                args.trace
                if len(traced_shards) == 1
                else f"{stem}.shard{shard.index}.json"
            )
            write_chrome_trace(tracer, path)
            print(f"wrote {path}", file=sys.stderr)
    verdicts = result["verdicts"]
    totals = result["totals"]
    timing = result["timing"]
    print(
        f"fleet: {spec.msps} MSPs / {spec.domains} domains / "
        f"{spec.shards} shard(s), jobs={jobs}"
    )
    print(
        f"sessions:           {totals['completed_sessions']}/"
        f"{totals['expected_sessions']} completed "
        f"({totals['completed_calls']} calls, "
        f"{totals['cross_domain_calls']} cross-domain hops)"
    )
    print(
        f"latency (ms):       mean={result['latency_ms']['mean']:.3f} "
        f"p50={result['latency_ms']['p50']:g} "
        f"p95={result['latency_ms']['p95']:g} "
        f"p99={result['latency_ms']['p99']:g} "
        f"max={result['latency_ms']['max']:g}"
    )
    print(
        f"sim time:           {result['sim_time_ms']:.0f} ms in "
        f"{result['epochs']} epochs "
        f"({result['cross_shard_messages']} cross-shard messages)"
    )
    print(
        f"throughput:         {timing['sim_req_per_s']:.1f} req/sim-s, "
        f"{timing['wall_req_per_s']:.1f} req/wall-s "
        f"({timing['wall_s']:.2f} s wall)"
    )
    print(f"fingerprint:        {fleet_fingerprint(result)}")
    print(
        "verdicts:           "
        + " ".join(f"{k}={'ok' if v else 'FAIL'}" for k, v in verdicts.items())
    )
    for violation in result["violations"][:10]:
        print(f"  violation: {violation}", file=sys.stderr)
    if args.out is not None:
        with open(args.out, "wb") as fh:
            fh.write(canonical_result_bytes(result))
        print(f"wrote {args.out}")
    return 0 if verdicts["clean"] else 1


def _run_scenarios(args: argparse.Namespace) -> int:
    from repro.parallel import resolve_jobs
    from repro.scenarios import (
        ScenarioSpec,
        canonical_report_bytes,
        render_html,
        render_markdown,
        run_matrix,
    )

    spec = ScenarioSpec.load(args.matrix)
    cells = spec.expand()
    jobs = min(resolve_jobs(args.jobs), len(cells))
    families = sorted({c.family for c in cells})
    print(
        f"scenario matrix {spec.name!r}: {len(cells)} cells "
        f"({', '.join(families)}), jobs={jobs}"
    )
    report = run_matrix(
        spec,
        jobs=jobs,
        progress=lambda done, total, outcome: print(
            f"  [{done}/{total}] {outcome.spec.cell_id}"
            + ("" if outcome.error is None else f" ERROR: {outcome.error}"),
            file=sys.stderr,
        ),
        task_timeout_s=args.timeout,
    )
    verdicts = report["verdicts"]
    print(f"fingerprint:        {report['fingerprint']}")
    print(
        "verdicts:           "
        + " ".join(f"{k}={'ok' if v else 'FAIL'}" for k, v in verdicts.items())
    )
    for cell_id in report["failing_cells"]:
        print(f"  failing cell: {cell_id}", file=sys.stderr)
    if args.out is not None:
        with open(args.out, "w") as fh:
            fh.write(render_markdown(report))
        print(f"wrote {args.out}")
    if args.html is not None:
        with open(args.html, "w") as fh:
            fh.write(render_html(report))
        print(f"wrote {args.html}")
    if args.json is not None:
        with open(args.json, "wb") as fh:
            fh.write(canonical_report_bytes(report))
        print(f"wrote {args.json}")
    if args.out is None and args.html is None and args.json is None:
        print()
        print(render_markdown(report))
    return 0 if all(verdicts.values()) else 1


def _run_trace(args: argparse.Namespace) -> int:
    from repro.trace import (
        Tracer,
        chrome_trace,
        collect_component_metrics,
        jsonl_lines,
        validate_chrome_trace,
        validate_jsonl_lines,
        write_chrome_trace,
        write_jsonl,
    )

    params = WorkloadParams(
        configuration=args.configuration,
        requests_per_client=args.requests,
        num_clients=args.clients,
        calls_to_sm2=args.m,
        crash_every_n=args.crash_every or None,
        batch_flush_timeout_ms=args.batch,
        seed=args.seed,
        **mode_overrides(args),
    )
    try:
        RecoveryConfig.of(params).validate()
    except ValueError as exc:
        return _usage_error("trace", exc)
    workload = PaperWorkload(params)
    tracer = Tracer(workload.sim, max_events=args.max_events).attach()
    result = workload.run()
    tracer.finalize()
    collect_component_metrics(
        tracer.metrics,
        msps=(workload.msp1, workload.msp2),
        network=workload.network,
    )
    # Self-check before writing: the CI smoke job re-validates the files,
    # but a malformed trace should fail loudly right here.
    problems = validate_chrome_trace(chrome_trace(tracer))
    problems += validate_jsonl_lines(jsonl_lines(tracer))
    write_chrome_trace(tracer, args.out)
    if args.jsonl:
        write_jsonl(tracer, args.jsonl)

    summary = tracer.summary()
    print(f"configuration:      {result.configuration}")
    print(f"completed requests: {result.completed_requests}")
    print(f"crashes:            {result.crashes}")
    print(
        f"trace events:       {summary['events']} "
        f"({summary['dropped_events']} dropped, "
        f"{summary['open_spans']} left open)"
    )
    histograms = tracer.metrics.histograms
    rows = [
        (name, histograms.get(f"span.{name}_ms"))
        for name in (
            "recovery",
            "recovery.anchor",
            "recovery.scan",
            "recovery.scan.read",
            "recovery.analyze",
            "recovery.checkpoint",
            "recovery.session",
        )
    ]
    if any(h is not None and h.count for _name, h in rows):
        print("recovery-time breakdown (sim ms):")
        for name, h in rows:
            if h is not None and h.count:
                print(
                    f"  {name:26s} n={h.count:<4d} mean={h.mean:10.3f} "
                    f"max={h.max:10.3f}"
                )
    flush_wait = histograms.get("log.flush.wait_ms")
    if flush_wait is not None and flush_wait.count:
        print(
            f"flush latency:      n={flush_wait.count} "
            f"mean={flush_wait.mean:.3f} ms p99={flush_wait.quantile(0.99):g} ms "
            f"max={flush_wait.max:g} ms"
        )
    counters = tracer.metrics.counters
    stale = counters.get("flush.stale_acks")
    if stale is not None:
        print(f"stale flush acks:   {stale.value}")
    ledger = workload.network.ledger()
    print(
        f"network ledger:     sent={ledger['messages_sent']} "
        f"dup={ledger['messages_duplicated']} "
        f"delivered={ledger['messages_delivered']} "
        f"dropped={ledger['messages_dropped']} "
        f"in_flight={ledger['messages_in_flight']}"
    )
    print(f"wrote {args.out}" + (f" and {args.jsonl}" if args.jsonl else ""))
    if problems:
        for problem in problems:
            print(f"trace validation: {problem}", file=sys.stderr)
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "list":
        for name in EXPERIMENTS:
            print(name)
        return 0
    if args.command in ("run", "all"):
        names = [args.experiment] if args.command == "run" else list(EXPERIMENTS)
        failed = False
        for name in names:
            result = EXPERIMENTS[name](
                scale=args.scale, seed=args.seed, jobs=args.jobs,
                progress=_progress(name),
            )
            print(render_result(result))
            if args.command == "all":
                print()
            failed = failed or not result.all_claims_hold
        return 1 if failed else 0
    if args.command == "workload":
        return _run_workload(args)
    if args.command == "fuzz":
        from repro.fuzz.cli import run_fuzz

        return run_fuzz(args)
    if args.command == "fleet":
        return _run_fleet(args)
    if args.command == "scenarios":
        return _run_scenarios(args)
    if args.command == "trace":
        return _run_trace(args)
    return 2  # pragma: no cover


if __name__ == "__main__":
    sys.exit(main())
