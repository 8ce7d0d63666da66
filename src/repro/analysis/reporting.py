"""Table formatting and paper-style scaling reports for experiment results.

The paper has no numeric tables of its own (it is a theory paper), so the
reproduction's "tables" are the per-theorem verification tables printed by the
benchmarks and examples.  This module renders them consistently: fixed-width
columns, a header rule, and a caption line naming the experiment and the
paper result it corresponds to.

On top of the generic :func:`format_table`, the **scaling report** functions
render the paper's headline artifact — fault tolerance swept across graph
families and sizes — straight from a stored
:class:`~repro.results.frame.ResultFrame`: rows are ``family/n``, columns
are the fault parameter ``t``, and each cell folds the cell's campaigns
into **two metrics at once** — the mean and the worst outcome, rendered
``mean ± worst`` (collapsed to one number when they agree).  Exact
campaigns report surviving diameters, bounded-decision campaigns report
pass rates.  When the frame holds more than one routing strategy (a
``kernel|circular`` grid, or several merged single-strategy stores), the
table switches to the paper's **strategy-comparison layout**: the columns
become ``strategy × t`` groups, so constructions line up side by side at
equal fault parameters.  Markdown and CSV renderings are deterministic
functions of the frame and the run manifest, so a resumed campaign's
report is byte-identical to an uninterrupted run's.
"""

from __future__ import annotations

import csv
import io
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple


def format_table(
    rows: Sequence[Mapping[str, object]],
    columns: Optional[Sequence[str]] = None,
    caption: str = "",
) -> str:
    """Render a list of dict rows as a fixed-width text table.

    Parameters
    ----------
    rows:
        The table body; every row is a mapping from column name to value.
    columns:
        Optional explicit column order (defaults to the keys of the first row
        in insertion order).
    caption:
        Optional caption printed above the table.
    """
    if not rows:
        return caption + "\n(no rows)" if caption else "(no rows)"
    if columns is None:
        columns = list(rows[0].keys())

    def render(value: object) -> str:
        if isinstance(value, float):
            if value == float("inf"):
                return "inf"
            return f"{value:.3f}".rstrip("0").rstrip(".")
        return str(value)

    widths = {column: len(column) for column in columns}
    rendered_rows: List[List[str]] = []
    for row in rows:
        rendered = [render(row.get(column, "")) for column in columns]
        rendered_rows.append(rendered)
        for column, cell in zip(columns, rendered):
            widths[column] = max(widths[column], len(cell))

    header = "  ".join(column.ljust(widths[column]) for column in columns)
    rule = "  ".join("-" * widths[column] for column in columns)
    body = [
        "  ".join(cell.ljust(widths[column]) for column, cell in zip(columns, rendered))
        for rendered in rendered_rows
    ]
    lines = []
    if caption:
        lines.append(caption)
    lines.extend([header, rule])
    lines.extend(body)
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Scaling tables over a ResultFrame
# ----------------------------------------------------------------------
def _render_scalar(value: object) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        if value == float("inf"):
            return "inf"
        rendered = f"{value:.3f}".rstrip("0").rstrip(".")
        return rendered if rendered else "0"
    return str(value)


def _render_cell(value: object) -> str:
    """Render one scaling-table cell (shared by markdown and CSV).

    Two-metric cells arrive as ``(mean, worst)`` tuples and render
    ``mean ± worst``; when the two metrics render identically (single
    campaign, or every campaign agreeing) the cell collapses to the one
    number.
    """
    if isinstance(value, tuple):
        parts = [_render_scalar(item) for item in value]
        if len(set(parts)) == 1:
            return parts[0]
        return " ± ".join(parts)
    return _render_scalar(value)


#: Cell annotation per status-row disposition (see
#: :data:`repro.results.records.STATUS_DISPOSITIONS`).
_STATUS_LABELS = {"inapplicable": "n/a", "failed": "failed"}


def _status_annotations(frame, comparison: bool) -> Dict[Tuple, str]:
    """Map pivot cell coordinates to status labels for ``kind="status"`` rows.

    Keys are ``((family, n), cell)`` with ``cell`` matching the pivot's
    column values — ``(strategy, t)`` tuples under the comparison layout,
    bare ``t`` otherwise.  ``failed`` outranks ``n/a`` when both land on
    one cell.
    """
    names = set(frame.column_names)
    if "kind" not in names or not len(frame):
        return {}
    from repro.results.records import effective_strategy

    none_column = (None,) * len(frame)

    def column(name):
        return frame.column(name) if name in names else none_column

    annotations: Dict[Tuple, str] = {}
    for kind, disposition, family, size, strategy, scheme, t in zip(
        column("kind"),
        column("disposition"),
        column("family"),
        column("n"),
        column("strategy"),
        column("scheme"),
        column("t"),
    ):
        if kind != "status":
            continue
        label = _STATUS_LABELS.get(disposition, str(disposition))
        if comparison:
            effective = effective_strategy(
                {"strategy": strategy, "scheme": scheme}
            )
            cell = (effective if effective is not None else "unspecified", t)
        else:
            cell = t
        key = ((family, size), cell)
        if key not in annotations or label == "failed":
            annotations[key] = label
    return annotations


def _comparison_strategies(frame) -> List[str]:
    """Return the distinct effective strategies of a frame (sorted).

    Reads only the two relevant columns — no per-row dict materialisation,
    so calling it per render stays cheap even on large merged frames.
    """
    from repro.results.records import effective_strategy

    names = set(frame.column_names)
    if "strategy" not in names and "scheme" not in names:
        return []
    none_column = (None,) * len(frame)
    strategy_column = (
        frame.column("strategy") if "strategy" in names else none_column
    )
    scheme_column = frame.column("scheme") if "scheme" in names else none_column
    strategies = {
        effective_strategy({"strategy": strategy, "scheme": scheme})
        for strategy, scheme in zip(strategy_column, scheme_column)
    } - {None}
    return sorted(strategies)


def _uses_comparison_layout(frame) -> bool:
    """Whether :func:`scaling_table` picks the strategy-comparison layout.

    One predicate shared by the table builder and the report renderer so
    the caption can never drift from the layout actually rendered.  The
    layout re-keys the strategy column, so the frame must have one.
    """
    return (
        len(_comparison_strategies(frame)) > 1
        and "strategy" in frame.column_names
    )


def scaling_table(frame) -> Tuple[List[Dict[str, object]], List[str], str]:
    """Pivot a result frame into the paper-style scaling table.

    Returns ``(rows, columns, metric)``: one row per ``(family, n)`` sorted
    by family then size, one column per fault parameter observed, and the
    metric name describing the cells.  Every cell folds its campaigns into
    ``(mean, worst)``: exact-campaign frames report the **surviving
    diameter** (mean of the campaigns' worst diameters ± the worst overall
    — ``inf`` marks a disconnection); frames holding bounded-decision rows
    report the **pass rate** (mean ± the weakest campaign's rate).

    With a single routing strategy in the frame the columns are ``t=<k>``.
    When the frame's rows span **several strategies** — a strategy-axis
    grid, or several merged single-strategy stores — the table switches to
    the comparison layout: one ``<strategy> t=<k>`` column per observed
    ``(strategy, t)`` pair (strategy groups sorted by name), so the paper's
    kernel-vs-circular tables come out of the same pivot.  The strategy of
    a row is the *effective* one: the scheme actually built when the
    scenario asked for ``auto``.

    ``kind="status"`` rows carry no statistics but still shape the table:
    they contribute their ``(family, n)`` row and column coordinates, and
    any cell left empty where a status row lands is annotated ``n/a``
    (scenario inapplicable, dropped under ``--skip-inapplicable``) or
    ``failed`` (campaign quarantined by the supervisor) — distinguishing
    both from ``-``, a cell that simply was not swept.
    """
    kinds = set(frame.column("kind")) if len(frame) else set()
    decision = "decision" in kinds
    if decision:
        value_column, folds = "pass_rate", ("mean", "min")
        metric = "pass rate, mean ± worst"
    else:
        value_column, folds = "worst_diam", ("mean", "max")
        metric = "surviving diameter, mean ± worst"
    comparison = _uses_comparison_layout(frame)
    if comparison:
        from repro.results.frame import ResultFrame
        from repro.results.records import effective_strategy

        # Re-key the strategy column to the effective strategy so the pivot
        # groups auto-resolved schemes with explicitly requested ones.  Only
        # the pivot's own columns are copied — not the full record — and
        # rows carrying no strategy at all (bare campaign records) group
        # under "unspecified" rather than a literal None label.
        names = set(frame.column_names)
        needed = [
            column
            for column in frame.columns
            if column.name in ("family", "n", "strategy", "t", value_column)
        ]
        work = ResultFrame(needed)
        columns_by_name = {
            name: (
                frame.column(name)
                if name in names
                else (None,) * len(frame)
            )
            for name in ("family", "n", "strategy", "scheme", "t", value_column)
        }
        for family, size, strategy, scheme, t, value in zip(
            *(columns_by_name[name]
              for name in ("family", "n", "strategy", "scheme", "t", value_column))
        ):
            effective = effective_strategy(
                {"strategy": strategy, "scheme": scheme}
            )
            work.append(
                {
                    "family": family,
                    "n": size,
                    "strategy": effective if effective is not None else "unspecified",
                    "t": t,
                    value_column: value,
                }
            )
        pivoted, cells = work.pivot(
            ("family", "n"), ("strategy", "t"), value_column, folds
        )
        labels = {cell: f"{cell[0]} t={cell[1]}" for cell in cells}
    else:
        pivoted, cells = frame.pivot(("family", "n"), "t", value_column, folds)
        labels = {cell: f"t={cell}" for cell in cells}
    # Status rows have no value, so their cells pivoted to None; fill the
    # ones a status row explains.  Cells with partial data keep their
    # (partial) aggregate — the fold already reflects what did run.
    annotations = _status_annotations(frame, comparison)
    if annotations:
        for entry in pivoted:
            for cell in cells:
                if entry[cell] is None:
                    label = annotations.get(
                        ((entry["family"], entry["n"]), cell)
                    )
                    if label is not None:
                        entry[cell] = label
    pivoted.sort(
        key=lambda row: (
            str(row["family"]),
            row["n"] if isinstance(row["n"], int) else -1,
        )
    )
    columns = ["family", "n"] + [labels[cell] for cell in cells]
    rows = [
        {
            "family": entry["family"],
            "n": entry["n"],
            **{labels[cell]: entry[cell] for cell in cells},
        }
        for entry in pivoted
    ]
    return rows, columns, metric


#: Columns of the traffic report, in render order.
_TRAFFIC_COLUMNS = (
    "scenario",
    "strategy",
    "workload",
    "injected",
    "delivered",
    "drop_rate",
    "throughput",
    "mean_latency",
    "p99_latency",
    "max_queue_depth",
)


def _is_traffic_frame(frame) -> bool:
    """Whether a frame holds only ``kind="traffic"`` rows (traffic layout)."""
    if "kind" not in frame.column_names or not len(frame):
        return False
    return set(frame.column("kind")) == {"traffic"}


def traffic_table(frame) -> Tuple[List[Dict[str, object]], List[str]]:
    """Flatten a traffic frame into the per-run metric table.

    One row per stored traffic run, sorted by ``(scenario, strategy,
    workload)`` so merged stores render deterministically; cells are the
    load/latency metrics the event-driven simulator measured.
    """
    names = set(frame.column_names)
    none_column = (None,) * len(frame)

    def column(name):
        return frame.column(name) if name in names else none_column

    rows: List[Dict[str, object]] = []
    for values in zip(*(column(name) for name in _TRAFFIC_COLUMNS)):
        rows.append(dict(zip(_TRAFFIC_COLUMNS, values)))
    rows.sort(
        key=lambda row: (
            str(row["scenario"]),
            str(row["strategy"]),
            str(row["workload"]),
        )
    )
    return rows, list(_TRAFFIC_COLUMNS)


def render_traffic_report(
    frame,
    run: Optional[Mapping[str, object]] = None,
    fmt: str = "markdown",
) -> str:
    """Render the traffic report (markdown or CSV) for a traffic frame.

    Same determinism contract as :func:`render_scaling_report`: a pure
    function of ``(frame, run)``, byte-identical across machines, hash
    seeds and resumptions.
    """
    if fmt not in ("markdown", "csv"):
        raise ValueError(f"unknown report format {fmt!r}; use markdown or csv")
    rows, columns = traffic_table(frame)
    if fmt == "csv":
        return render_csv_table(rows, columns)
    lines: List[str] = ["# Traffic report", ""]
    if run:
        details = [
            f"{key}={run[key]}"
            for key in ("workload", "seed", "hop_latency", "link", "service")
            if run.get(key) is not None
        ]
        if details:
            lines.append("Parameters: " + ", ".join(details))
            lines.append("")
        faults = run.get("faults")
        if faults:
            lines.append("Fault schedule: " + ", ".join(str(f) for f in faults))
            lines.append("")
    lines.append(
        "Cells: per-run load metrics (latencies in simulated time units, "
        "throughput in delivered messages per unit)."
    )
    lines.append("")
    lines.append(render_markdown_table(rows, columns))
    lines.append("")
    lines.append(f"Traffic rows: {len(frame)}")
    return "\n".join(lines)


def render_markdown_table(
    rows: Sequence[Mapping[str, object]],
    columns: Sequence[str],
    caption: str = "",
) -> str:
    """Render dict rows as a GitHub-flavoured markdown pipe table."""
    lines: List[str] = []
    if caption:
        lines.extend([caption, ""])
    if not rows:
        lines.append("(no rows)")
        return "\n".join(lines)
    lines.append("| " + " | ".join(str(column) for column in columns) + " |")
    lines.append("|" + "|".join(" --- " for _ in columns) + "|")
    for row in rows:
        lines.append(
            "| "
            + " | ".join(_render_cell(row.get(column)) for column in columns)
            + " |"
        )
    return "\n".join(lines)


def render_csv_table(
    rows: Sequence[Mapping[str, object]], columns: Sequence[str]
) -> str:
    """Render dict rows as CSV text (header + one line per row)."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_render_cell(row.get(column)) for column in columns])
    return buffer.getvalue()


def render_scaling_report(
    frame,
    run: Optional[Mapping[str, object]] = None,
    fmt: str = "markdown",
) -> str:
    """Render the scaling report for a result frame (markdown or CSV).

    ``run`` is the store's run manifest; in markdown it becomes the header
    lines naming the swept scenarios and campaign parameters.  The output
    is a pure function of ``(frame, run)`` — no timestamps, no environment
    — so reports are comparable across machines and resumptions.
    """
    if fmt not in ("markdown", "csv"):
        raise ValueError(f"unknown report format {fmt!r}; use markdown or csv")
    if _is_traffic_frame(frame):
        # Stores written by ``repro traffic`` hold only traffic rows; the
        # scaling pivot has nothing to show for them, so ``repro report``
        # transparently renders the traffic layout instead.
        return render_traffic_report(frame, run, fmt=fmt)
    rows, columns, metric = scaling_table(frame)
    if fmt == "csv":
        return render_csv_table(rows, columns)
    lines: List[str] = ["# Scaling report", ""]
    if run:
        scenarios = run.get("scenarios")
        if scenarios:
            lines.append(f"Scenarios ({len(scenarios)}):")
            lines.extend(f"- `{scenario}`" for scenario in scenarios)
            lines.append("")
        details = [
            f"{key}={run[key]}"
            for key in ("samples", "seed", "bound", "chunk_size")
            if run.get(key) is not None
        ]
        if details:
            lines.append("Parameters: " + ", ".join(details))
            lines.append("")
    if _uses_comparison_layout(frame):
        lines.append(
            f"Cells: {metric} (rows = graph family / size, column groups = "
            "strategy × fault parameter t)."
        )
    else:
        lines.append(
            f"Cells: {metric} (rows = graph family / size, columns = fault "
            "parameter t)."
        )
    lines.append("")
    lines.append(render_markdown_table(rows, columns))
    lines.append("")
    footer = f"Campaign rows: {len(frame)}"
    names = set(frame.column_names)
    if "kind" in names and "disposition" in names and len(frame):
        counts: Dict[object, int] = {}
        for kind, disposition in zip(
            frame.column("kind"), frame.column("disposition")
        ):
            if kind == "status":
                counts[disposition] = counts.get(disposition, 0) + 1
        parts = []
        if counts.get("failed"):
            parts.append(f"{counts['failed']} failed")
        if counts.get("inapplicable"):
            parts.append(f"{counts['inapplicable']} not applicable")
        if parts:
            footer += " (" + ", ".join(parts) + ")"
    lines.append(footer)
    return "\n".join(lines)


def format_comparison(
    experiment: str,
    paper_value: object,
    measured_value: object,
    note: str = "",
) -> str:
    """Render a one-line "paper vs measured" comparison used in EXPERIMENTS.md."""
    line = f"{experiment}: paper bound = {paper_value}, measured worst = {measured_value}"
    if note:
        line += f" ({note})"
    return line


def bullet_list(items: Iterable[str], indent: str = "  ") -> str:
    """Render an indented bullet list."""
    return "\n".join(f"{indent}* {item}" for item in items)
