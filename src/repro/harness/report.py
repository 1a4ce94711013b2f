"""Plain-text rendering of experiment results (tables like the paper's)."""

from __future__ import annotations

from repro.harness.experiments import ExperimentResult


def _format_value(value, float_format: str = ".3f") -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:{float_format}}"
    if value is None:
        return "-"
    return str(value)


def _column_float_format(values) -> str:
    """One float precision for a whole column.

    Mixing ``.3f`` and ``.1f`` inside a column (the old per-value rule)
    misaligns comparisons; instead the column's widest magnitude picks
    the precision for every cell in it.
    """
    floats = [v for v in values if isinstance(v, float) and not isinstance(v, bool)]
    if floats and max(abs(v) for v in floats) >= 100:
        return ".1f"
    return ".3f"


def table_columns(rows) -> list[str]:
    """Ordered union of keys across *all* rows.

    Heterogeneous rows (scenario matrices where later cells add
    measurements) must not silently lose columns just because the first
    row lacks them: keys appear in first-seen order across the whole
    row list.
    """
    columns: list[str] = []
    seen: set = set()
    for row in rows:
        for key in row.keys():
            if key not in seen:
                seen.add(key)
                columns.append(key)
    return columns


def render_table(rows) -> list[str]:
    """Aligned text table over the ordered union of row keys."""
    if not rows:
        return []
    columns = table_columns(rows)
    formats = {
        col: _column_float_format(row.get(col) for row in rows) for col in columns
    }
    table = [
        [_format_value(row.get(col), formats[col]) for col in columns] for row in rows
    ]
    widths = [
        max(len(col), *(len(line[i]) for line in table))
        for i, col in enumerate(columns)
    ]
    header = "  ".join(col.ljust(widths[i]) for i, col in enumerate(columns))
    lines = [header, "-" * len(header)]
    for line in table:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(line)))
    return lines


def render_result(result: ExperimentResult) -> str:
    """Render one experiment as an aligned text table with its claims."""
    lines = [f"== {result.experiment}: {result.description} =="]
    lines.extend(render_table(result.rows))
    if result.claims:
        lines.append("")
        lines.append("shape claims:")
        lines.extend(f"  {claim}" for claim in result.claims)
    return "\n".join(lines)
