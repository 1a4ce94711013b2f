"""Experiment harness: every table and figure of §5, the ablations, and
the headline results earned since.

Each ``fig*`` function in :mod:`repro.harness.experiments` (and each
function of :mod:`repro.harness.ablations` and
:mod:`repro.harness.headlines`) runs one experiment at a configurable
scale and returns an
:class:`~repro.harness.experiments.ExperimentResult` carrying the
measured rows, the paper's reference numbers where it prints them, and
the checked claims.  :mod:`repro.harness.report` renders them as text
tables.
"""

from repro.harness.ablations import (
    ablation_dv_granularity,
    ablation_parallel_recovery,
)
from repro.harness.experiments import (
    ExperimentResult,
    analysis_flush_accounting,
    fig14_calls_chart,
    fig14_response_table,
    fig15a_checkpoint_overhead,
    fig15b_crash_throughput,
    fig16_max_response_table,
    fig16_optimal_threshold,
    fig17_multiclient,
)
from repro.harness.report import render_result

__all__ = [
    "ExperimentResult",
    "ablation_dv_granularity",
    "ablation_parallel_recovery",
    "analysis_flush_accounting",
    "fig14_calls_chart",
    "fig14_response_table",
    "fig15a_checkpoint_overhead",
    "fig15b_crash_throughput",
    "fig16_max_response_table",
    "fig16_optimal_threshold",
    "fig17_multiclient",
    "render_result",
]
