"""Experiment harness: every table and figure of §5, the ablations, and
the headline results earned since.

Each is one :class:`~repro.harness.experiments.Experiment` declaration —
the paper's figures in :mod:`repro.harness.experiments`, the ablations
in :mod:`repro.harness.ablations`, the headline results in
:mod:`repro.harness.headlines` — and :data:`EXPERIMENTS` lists all of
them.  Calling one at a scale returns an
:class:`~repro.harness.experiments.ExperimentResult` carrying the
measured rows and the checked
:class:`~repro.harness.experiments.Claim` values;
:func:`~repro.harness.report.render_result` renders it as a text table.
"""

from repro.harness import headlines
from repro.harness.ablations import (
    ablation_dv_granularity,
    ablation_parallel_recovery,
)
from repro.harness.experiments import (
    Claim,
    Experiment,
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

#: Every ``repro run`` experiment, in ``repro list`` order.
EXPERIMENTS = tuple(sorted(
    (
        fig14_response_table,
        fig14_calls_chart,
        fig15a_checkpoint_overhead,
        fig15b_crash_throughput,
        fig16_max_response_table,
        fig16_optimal_threshold,
        fig17_multiclient,
        analysis_flush_accounting,
        ablation_parallel_recovery,
        ablation_dv_granularity,
        headlines.partition_scaling,
        headlines.instant_restart,
        headlines.log_volume,
        headlines.log_space,
        headlines.fleet_scaling,
        headlines.trace_overhead,
    ),
    key=lambda experiment: experiment.name,
))

__all__ = [
    "EXPERIMENTS",
    "Claim",
    "Experiment",
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
