"""Declarative scenario matrices: fault family × topology × workload.

The package turns a small YAML/dict document into a matrix of complete
fleet runs (crash, correlated multi-node crash, network partition,
whole-domain disaster with warm-standby failover — each over several
topologies and seeds), executes the cells under the deterministic
process pool, and renders a fuzzbench-style report with per-cell
invariant verdicts and recovery-time distributions.

- :mod:`repro.scenarios.spec` — the grammar and its expansion rules;
- :mod:`repro.scenarios.runner` — pool execution, aggregation and the
  matrix fingerprint (the ``--jobs`` byte-identity check);
- :mod:`repro.scenarios.report` — markdown / HTML renderers.

Entry point: ``python -m repro scenarios`` (DESIGN.md §18).
"""

from repro.scenarios.report import render_html, render_markdown
from repro.scenarios.runner import (
    build_report,
    canonical_report_bytes,
    matrix_fingerprint,
    run_matrix,
)
from repro.scenarios.spec import FAMILIES, ScenarioCell, ScenarioSpec

__all__ = [
    "FAMILIES",
    "ScenarioCell",
    "ScenarioSpec",
    "build_report",
    "canonical_report_bytes",
    "matrix_fingerprint",
    "render_html",
    "render_markdown",
    "run_matrix",
]
