"""Render a scenario-matrix report as markdown or standalone HTML.

Both renderers are pure functions of the report dict (which itself
contains no wall-clock data), so the emitted bytes are identical at any
``--jobs`` value — CI diffs the artifacts directly.
"""

from __future__ import annotations

import html as _html

from repro.harness.report import render_table


def _cell_rows(report: dict) -> list[dict]:
    rows = []
    for cell in report["cells"]:
        recovery = cell["recovery"]
        rows.append(
            {
                "cell": cell["cell"],
                "family": cell["family"],
                "topology": cell["topology"],
                "seed": cell["seed"],
                "calls": cell["totals"]["completed_calls"],
                "errors": cell["totals"]["call_errors"],
                "p95_ms": cell["latency_ms"]["p95"],
                "recoveries": recovery.get("n", 0),
                "recovery_p50_ms": recovery.get("p50_ms"),
                "recovery_max_ms": recovery.get("max_ms"),
                "part_drops": cell["dropped_partition"],
                "clean": cell["verdicts"]["clean"],
            }
        )
    return rows


def _family_rows(report: dict) -> list[dict]:
    rows = []
    for family in report["families"]:
        dist = report["family_recovery_ms"][family]
        rows.append(
            {
                "family": family,
                "samples": dist.get("n", 0),
                "min_ms": dist.get("min_ms"),
                "p50_ms": dist.get("p50_ms"),
                "max_ms": dist.get("max_ms"),
            }
        )
    return rows


def _failover_rows(report: dict) -> list[dict]:
    return [
        {
            "cell": check["cell"],
            "msp": check["msp"],
            "failover_ms": check["failover_ms"],
            "cold_restart_ms": check["cold_restart_ms"],
            "faster": check["faster"],
        }
        for check in report["failover_vs_cold"]
    ]


def _invariant_rows(report: dict) -> list[dict]:
    return [
        {
            "invariant": name,
            "checked": slot["checked"],
            "passed": slot["passed"],
            "coverage": f"{slot['passed']}/{slot['checked']}",
        }
        for name, slot in sorted(report["invariants"].items())
    ]


def _code_block(rows: list[dict]) -> list[str]:
    if not rows:
        return ["(no rows)"]
    return ["```", *render_table(rows), "```"]


def render_markdown(report: dict) -> str:
    """The full matrix report as GitHub-flavored markdown."""
    verdicts = report["verdicts"]
    lines = [
        f"# Scenario matrix: {report['matrix']}",
        "",
        f"- cells: {len(report['cells'])}",
        f"- fault families: {', '.join(report['families'])}",
        f"- all cells clean: {'yes' if verdicts['all_clean'] else 'NO'}",
        "- every invariant checked in every cell: "
        + ("yes" if verdicts["every_invariant_checked"] else "NO"),
        "- failover beats cold restart: "
        + ("yes" if verdicts["failover_beats_cold"] else "NO"),
        f"- fingerprint: `{report['fingerprint']}`",
        "",
        "## Cells",
        "",
        *_code_block(_cell_rows(report)),
        "",
        "## Recovery-time distribution by fault family (ms)",
        "",
        *_code_block(_family_rows(report)),
    ]
    if report["failover_vs_cold"]:
        lines += [
            "",
            "## Warm-standby failover vs cold restart",
            "",
            *_code_block(_failover_rows(report)),
        ]
    lines += [
        "",
        "## Invariant coverage",
        "",
        *_code_block(_invariant_rows(report)),
    ]
    if report["failing_cells"]:
        lines += ["", "## Failing cells", ""]
        for cell_id in report["failing_cells"]:
            lines.append(f"- `{cell_id}`")
            cell = next(c for c in report["cells"] if c["cell"] == cell_id)
            for violation in cell["violations"]:
                lines.append(f"  - {violation}")
    lines.append("")
    return "\n".join(lines)


def render_html(report: dict) -> str:
    """A standalone HTML page wrapping the same tables."""

    def table(rows: list[dict]) -> str:
        if not rows:
            return "<p>(no rows)</p>"
        cols = list(rows[0].keys())
        for row in rows[1:]:
            for key in row:
                if key not in cols:
                    cols.append(key)
        head = "".join(f"<th>{_html.escape(str(c))}</th>" for c in cols)
        body = []
        for row in rows:
            cells = []
            for col in cols:
                value = row.get(col)
                if isinstance(value, bool):
                    value = "yes" if value else "no"
                elif isinstance(value, float):
                    value = f"{value:.3f}"
                elif value is None:
                    value = "-"
                cells.append(f"<td>{_html.escape(str(value))}</td>")
            body.append("<tr>" + "".join(cells) + "</tr>")
        return (
            "<table><thead><tr>" + head + "</tr></thead><tbody>"
            + "".join(body) + "</tbody></table>"
        )

    verdicts = report["verdicts"]
    status = "PASS" if verdicts["all_clean"] else "FAIL"
    status_class = "pass" if verdicts["all_clean"] else "fail"
    parts = [
        "<!doctype html>",
        "<html><head><meta charset='utf-8'>",
        f"<title>Scenario matrix: {_html.escape(report['matrix'])}</title>",
        "<style>",
        "body{font-family:sans-serif;margin:2em;max-width:72em}",
        "table{border-collapse:collapse;margin:1em 0}",
        "th,td{border:1px solid #999;padding:0.25em 0.6em;"
        "text-align:right;font-variant-numeric:tabular-nums}",
        "th{background:#eee}td:first-child,th:first-child{text-align:left}",
        ".pass{color:#070}.fail{color:#b00}",
        "</style></head><body>",
        f"<h1>Scenario matrix: {_html.escape(report['matrix'])} "
        f'<span class="{status_class}">[{status}]</span></h1>',
        f"<p>{len(report['cells'])} cells over families "
        f"{_html.escape(', '.join(report['families']))}; fingerprint "
        f"<code>{report['fingerprint']}</code></p>",
        "<h2>Cells</h2>",
        table(_cell_rows(report)),
        "<h2>Recovery-time distribution by fault family (ms)</h2>",
        table(_family_rows(report)),
    ]
    if report["failover_vs_cold"]:
        parts += [
            "<h2>Warm-standby failover vs cold restart</h2>",
            table(_failover_rows(report)),
        ]
    parts += ["<h2>Invariant coverage</h2>", table(_invariant_rows(report))]
    if report["failing_cells"]:
        parts.append("<h2>Failing cells</h2><ul>")
        for cell_id in report["failing_cells"]:
            cell = next(c for c in report["cells"] if c["cell"] == cell_id)
            issues = "".join(
                f"<li>{_html.escape(v)}</li>" for v in cell["violations"]
            )
            parts.append(
                f"<li><code>{_html.escape(cell_id)}</code>"
                f"<ul>{issues}</ul></li>"
            )
        parts.append("</ul>")
    parts.append("</body></html>")
    return "\n".join(parts)
