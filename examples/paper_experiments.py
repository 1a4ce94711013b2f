#!/usr/bin/env python3
"""Regenerate the paper's evaluation tables and figures (§5).

Runs every experiment of the harness and prints the same rows/series the
paper reports and the checked shape claims.  Where the paper prints a
number, it appears beside ours: as a ``paper_*`` column of a table, or
as ``(paper …)`` at the end of a claim's line.

Run:   python examples/paper_experiments.py [scale]

``scale`` defaults to 0.05 (a ~2 minute run); 1.0 approximates the
paper's run lengths (20 K requests for Fig. 14) and takes much longer.
"""

import sys
import time

from repro.harness import (
    analysis_flush_accounting,
    fig14_calls_chart,
    fig14_response_table,
    fig15a_checkpoint_overhead,
    fig15b_crash_throughput,
    fig16_max_response_table,
    fig16_optimal_threshold,
    fig17_multiclient,
    render_result,
)

EXPERIMENTS = [
    ("Fig. 14 table", fig14_response_table, 1.0),
    ("Fig. 14 chart", fig14_calls_chart, 0.8),
    ("Fig. 15(a)", fig15a_checkpoint_overhead, 4.0),
    ("Fig. 15(b)", fig15b_crash_throughput, 1.6),
    ("Fig. 16 table", fig16_max_response_table, 1.6),
    ("Fig. 16 chart", fig16_optimal_threshold, 3.0),
    ("Fig. 17", fig17_multiclient, 1.2),
    ("§5.2 analysis", analysis_flush_accounting, 5.0),
]


def main():
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.05
    print(f"regenerating all §5 artifacts at scale {scale}\n")
    failures = 0
    for name, experiment, relative in EXPERIMENTS:
        started = time.time()
        result = experiment(scale=scale * relative)
        elapsed = time.time() - started
        print(render_result(result))
        print(f"({name} regenerated in {elapsed:.1f}s wall)\n")
        failures += sum(not claim.holds for claim in result.claims)
    if failures:
        print(f"{failures} shape claim(s) FAILED")
        sys.exit(1)
    print("all shape claims hold.")


if __name__ == "__main__":
    main()
