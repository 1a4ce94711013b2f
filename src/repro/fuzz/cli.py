"""``python -m repro fuzz`` — the crash-schedule explorer front end.

Modes:

- ``--mode exhaustive`` (default): enumerate every crash site of the
  default paper workload and execute one single-crash schedule per site
  (``--stride``/``--max-schedules`` bound smoke passes);
- ``--mode random``: ``--seeds N`` seeded multi-crash/fault cases from
  ``--seed``; every failure prints its case seed;
- ``--replay <case_seed>``: re-execute exactly one random case;
- ``--replay-file <artifact> [--index N]``: re-execute a schedule
  recorded in a failure artifact (covers exhaustive-mode failures).

On failure the full ``(seed, schedule)`` list is written to ``--out``
(JSON) so CI can upload it, each failure is optionally minimized with
``--minimize``, and the exit status is 1.  The first failure is re-run
with structured tracing (:mod:`repro.trace`) and its timeline dumped as
``<out>.trace.json`` / ``.trace.jsonl``; a ``--replay`` that reproduces
violations dumps the same pair.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from functools import partial
from typing import Optional

from repro.core.config import RecoveryConfig
from repro.fleet import FleetTopology
from repro.fuzz.explorer import (
    CrashSchedule,
    FuzzParams,
    FuzzReport,
    UnknownTargetError,
    explore_exhaustive,
    fleet_fuzz_params,
    fuzz_random,
    run_random_case,
    run_schedule,
    schedule_from_seed,
)
from repro.fuzz.minimize import minimize_recorded_failure
from repro.parallel import ProgressReporter, resolve_jobs, run_tasks
from repro.workloads.paper import add_mode_arguments, mode_overrides

#: Pairs mode samples this many two-crash schedules when no explicit
#: ``--max-schedules`` bounds the (quadratic) pair product.
DEFAULT_PAIR_SCHEDULES = 2000


def add_fuzz_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--mode", choices=("exhaustive", "random"), default="exhaustive"
    )
    parser.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes (default: REPRO_JOBS or all cores; "
        "1 = in-process)",
    )
    parser.add_argument(
        "--pairs", action="store_true",
        help="exhaustive mode: bounded two-crash pair product instead of "
        "single crashes",
    )
    parser.add_argument("--seed", type=int, default=0, help="master seed")
    parser.add_argument(
        "--seeds", type=int, default=50, help="random mode: number of cases"
    )
    parser.add_argument(
        "--replay", type=int, default=None, metavar="CASE_SEED",
        help="re-execute one random case byte-for-byte",
    )
    parser.add_argument(
        "--replay-file", default=None, metavar="ARTIFACT",
        help="re-execute a schedule from a failure artifact JSON",
    )
    parser.add_argument(
        "--index", type=int, default=0, help="failure index inside --replay-file"
    )
    parser.add_argument(
        "--topology", choices=("paper", "fleet"), default="paper",
        help="world shape: the paper's three-node workload (default) or "
        "a single-shard multi-domain fleet whose request chains cross "
        "domain boundaries",
    )
    parser.add_argument(
        "--fleet-msps", type=int, default=None, metavar="N",
        help="fleet topology: MSP count (default 4)",
    )
    parser.add_argument(
        "--fleet-domains", type=int, default=None, metavar="N",
        help="fleet topology: service-domain count (default 2)",
    )
    parser.add_argument(
        "--fleet-sessions", type=int, default=None, metavar="N",
        help="fleet topology: session count (default 10)",
    )
    parser.add_argument(
        "--target", default="both",
        help="exhaustive mode: which MSP to kill (msp1/msp2 for the "
        "paper topology, m000..mNNN for the fleet; default: all)",
    )
    parser.add_argument("--stride", type=int, default=1, help="site stride")
    parser.add_argument("--max-schedules", type=int, default=None)
    parser.add_argument("--requests", type=int, default=None)
    parser.add_argument("--clients", type=int, default=None)
    add_mode_arguments(parser)
    parser.add_argument(
        "--minimize", action="store_true", help="shrink failures before reporting"
    )
    parser.add_argument(
        "--out", default="fuzz-artifact.json", help="failure artifact path"
    )
    parser.add_argument(
        "--quiet", action="store_true", help="no per-schedule progress"
    )


def _params(args: argparse.Namespace) -> FuzzParams:
    if args.topology == "fleet":
        overrides = {
            "fleet_msps": args.fleet_msps,
            "fleet_domains": args.fleet_domains,
            "fleet_sessions": args.fleet_sessions,
        }
        params = fleet_fuzz_params(
            **{name: value for name, value in overrides.items() if value is not None}
        )
        if args.recovery_pump_concurrency is not None:
            # FleetSpec has no such field; ignoring the flag would
            # report a run that was never configured.
            raise SystemExit(
                "repro fuzz: --pump-concurrency applies to --topology paper "
                "only (fleet MSPs drain with the RecoveryConfig default)"
            )
    else:
        params = FuzzParams()
    if args.requests is not None:
        params.requests_per_client = args.requests
    if args.clients is not None:
        params.num_clients = args.clients
    # FuzzParams names the mode fields as WorkloadParams does.
    for name, value in mode_overrides(args).items():
        setattr(params, name, value)
    return params


def _progress(quiet: bool, label: str):
    if quiet:
        return None
    reporter = ProgressReporter(f"  {label}").start()

    def report(done: int, total: int, result) -> None:
        detail = None
        if result is not None and result.failed:
            detail = f"FAIL {result.schedule.to_dict()}"
        reporter.update(done, total, detail)

    return report


def _minimize_failures(
    report: FuzzReport, params: FuzzParams, quiet: bool, jobs: Optional[int]
) -> None:
    """Shrink every failure; independent failures shrink in parallel.

    Worker-failure reports (a raising, died or hung worker, not an
    invariant violation) carry no reproducible violation to shrink
    against and are left untouched; so is a failure whose shrinking
    itself fails.
    """
    shrinkable = [
        f for f in report.failures
        if not any(v.startswith("worker-failure:") for v in f.violations)
    ]
    outcomes = run_tasks(
        partial(minimize_recorded_failure, params=params),
        [f.schedule for f in shrinkable],
        jobs=jobs,
    )
    for failure, outcome in zip(shrinkable, outcomes):
        minimized, attempts = outcome.result if outcome.ok else (failure.schedule, 0)
        original = failure.schedule
        failure.schedule = minimized
        if not quiet:
            print(
                f"  minimized {original} -> {minimized} "
                f"({attempts} oracle runs)"
            )


def _trace_paths(out: str) -> tuple[str, str]:
    stem = out[:-5] if out.endswith(".json") else out
    return f"{stem}.trace.json", f"{stem}.trace.jsonl"


def _dump_trace(tracer, out: str) -> None:
    """Write a failing run's trace (Chrome + JSONL) next to ``out``."""
    from repro.trace import write_chrome_trace, write_jsonl

    chrome_path, jsonl_path = _trace_paths(out)
    write_chrome_trace(tracer, chrome_path)
    write_jsonl(tracer, jsonl_path)
    print(
        f"wrote failure trace {chrome_path} (chrome://tracing) "
        f"and {jsonl_path}",
        file=sys.stderr,
    )


def _finish(report: FuzzReport, args: argparse.Namespace, wall_s: float) -> int:
    total_sites = sum(report.sites_discovered.values())
    print(
        f"fuzz {report.mode}: {report.schedules_run} schedules, "
        f"{report.crashes_injected} crashes injected"
        + (f", {total_sites} sites discovered" if report.sites_discovered else "")
        + f", {len(report.failures)} failures, {wall_s:.1f}s"
    )
    if report.ok:
        return 0
    artifact = report.to_dict()
    # Embed the run's workload shape: a replay from this artifact must
    # reproduce the same modes (partitions, recovery, logging), not
    # whatever the replaying invocation's flags default to.
    artifact["params"] = dataclasses.asdict(_params(args))
    with open(args.out, "w") as fh:
        json.dump(artifact, fh, indent=2, sort_keys=True)
    print(f"wrote failure artifact {args.out}", file=sys.stderr)
    for failure in report.failures:
        print(f"  failure: {failure.to_dict()['replay']}", file=sys.stderr)
    # Re-run the first failure with structured tracing on and dump its
    # timeline, so the artifact upload carries not just the replayable
    # schedule but the trace of what the failing run actually did.
    first = report.failures[0]
    try:
        schedule = CrashSchedule.from_dict(first.schedule)
        result = run_schedule(schedule, _params(args), trace=True)
        if result.tracer is not None:
            _dump_trace(result.tracer, args.out)
    except Exception as exc:  # tracing must never mask the failure exit
        print(f"trace dump failed: {exc}", file=sys.stderr)
    return 1


def _run_replay(args: argparse.Namespace, params: FuzzParams) -> int:
    if args.replay is not None:
        schedule = schedule_from_seed(args.replay, params)
        print(f"replaying case seed {args.replay}: {schedule.to_dict()}")
        result = run_random_case(args.replay, params, trace=True)
    else:
        with open(args.replay_file) as fh:
            artifact = json.load(fh)
        recorded = artifact.get("params")
        if recorded is not None:
            # Reproduce the recorded run's workload shape exactly; the
            # replaying invocation's own shape flags do not apply.
            recorded["targets"] = tuple(recorded.get("targets", ()))
            params = FuzzParams(**recorded)
            print(f"using recorded params: {dataclasses.asdict(params)}")
        failures = artifact.get("failures", [])
        if not failures:
            print("artifact holds no failures", file=sys.stderr)
            return 2
        if not 0 <= args.index < len(failures):
            print(
                f"--index {args.index} out of range (artifact holds "
                f"{len(failures)} failures)",
                file=sys.stderr,
            )
            return 2
        schedule = CrashSchedule.from_dict(failures[args.index]["schedule"])
        print(f"replaying recorded schedule: {schedule.to_dict()}")
        result = run_schedule(schedule, params, trace=True)
    if result.violations:
        print("reproduced violations:")
        for violation in result.violations:
            print(f"  - {violation}")
        # The replay ran traced: dump the failing schedule's timeline so
        # the violation can be read step by step in chrome://tracing.
        if result.tracer is not None:
            _dump_trace(result.tracer, args.out)
        return 1
    print("schedule ran clean (no invariant violations)")
    return 0


def run_fuzz(args: argparse.Namespace) -> int:
    params = _params(args)
    try:  # the world's own check, before any simulator runs
        if params.topology == "fleet":
            FleetTopology(params.fleet_spec(args.seed))
        else:
            RecoveryConfig.of(params).validate()
    except ValueError as exc:
        return _refused(exc)
    try:
        return _run_fuzz(args, params)
    except UnknownTargetError as exc:
        return _refused(exc)


def _refused(exc: ValueError) -> int:
    """A usage error: exit 2, which no verdict uses."""
    print(f"repro fuzz: {exc}", file=sys.stderr)
    return 2


def _run_fuzz(args: argparse.Namespace, params: FuzzParams) -> int:
    if args.replay is not None or args.replay_file is not None:
        return _run_replay(args, params)

    started = time.monotonic()
    targets: Optional[tuple[str, ...]] = None
    if args.target != "both":
        targets = (args.target,)
    jobs = resolve_jobs(args.jobs)
    if args.mode == "exhaustive":
        max_schedules = args.max_schedules
        if args.pairs and max_schedules is None:
            max_schedules = DEFAULT_PAIR_SCHEDULES
        label = "fuzz pairs" if args.pairs else "fuzz exhaustive"
        report = explore_exhaustive(
            params,
            seed=args.seed,
            targets=targets,
            stride=args.stride,
            max_schedules=max_schedules,
            progress=_progress(args.quiet, f"{label} (jobs={jobs})"),
            jobs=jobs,
            pairs=args.pairs,
        )
    else:
        report = fuzz_random(
            master_seed=args.seed,
            runs=args.seeds,
            params=params,
            progress=_progress(args.quiet, f"fuzz random (jobs={jobs})"),
            jobs=jobs,
        )
    if report.failures and args.minimize:
        _minimize_failures(report, params, args.quiet, jobs)
    return _finish(report, args, time.monotonic() - started)
