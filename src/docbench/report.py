"""Aggregation over unit results, CSV/JSON reports, and SVG bar charts.

Terminology: a (tool, label) pair is "detected" once per unit the ground
truth defines, and "processed" only for units the tool scored non-zero F1 on.
The gap between the two counts is how often the tool failed outright on a
page that demonstrably contains the label.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import asdict, dataclass
from decimal import ROUND_HALF_EVEN, Decimal
from operator import itemgetter
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence

from .corpus import write_text
from .errors import ConfigError

if TYPE_CHECKING:
    from .journal import UnitResult
    from .metrics import DocumentScores

# Task groups for cumulative F1. The maximum attainable value per task is
# the number of labels in the group.
TASKS: dict[str, tuple[str, ...]] = {
    "metadata": ("title", "abstract", "author"),
    "reference": ("reference",),
    "table": ("table",),
    "general": ("paragraph", "section", "caption", "equation", "footer",
                "list", "figure"),
}

PALETTE = ("#4e79a7", "#f28e2b", "#e15759", "#76b7b2", "#59a14f",
           "#edc948", "#b07aa1", "#ff9da7", "#9c755f", "#bab0ac")

CHART_METRICS = ("f1", "acc", "p", "r", "cumulative_f1")


def round_half_even(value: float, places: int = 2) -> float:
    """Round the exact binary value of a float, ties to even."""
    quantum = Decimal(1).scaleb(-places)
    return float(Decimal(value).quantize(quantum, rounding=ROUND_HALF_EVEN))


@dataclass(frozen=True)
class AggregateRow:
    tool: str
    label: str
    detected: int
    processed: int
    # means over processed units (the headline numbers)
    acc: float
    f1: float
    p: float
    r: float
    # means over all detected units, zero scores included
    acc_detected: float
    f1_detected: float
    p_detected: float
    r_detected: float


@dataclass(frozen=True)
class TaskSummary:
    tool: str
    task: str
    labels: tuple[str, ...]
    cumulative_f1: float
    max_possible: int


# precision, recall, f1 and accuracy: the first four DocumentScores fields
_SCORE_FIELDS = tuple(map(itemgetter, range(4)))


def _means(scores: Sequence[DocumentScores]) -> list[float]:
    """The mean of each score field, in _SCORE_FIELDS order."""
    # fsum is correctly rounded on every Python version; sum() of floats
    # compensates from 3.12 on, so its last bits depend on the interpreter.
    if not scores:
        return [0.0] * 4
    return [math.fsum(map(field, scores)) / len(scores)
            for field in _SCORE_FIELDS]


def aggregate(results: Iterable[UnitResult], tool: str = "unknown") -> list[AggregateRow]:
    """Collapse one tool's unit results into per-label rows, sorted by label."""
    by_label: dict[str, list[DocumentScores]] = {}
    for result in results:
        by_label.setdefault(result.label, []).append(result.scores)
    rows = []
    for label in sorted(by_label):
        scores = by_label[label]
        processed = [s for s in scores if s.f1 > 0.0]
        p, r, f1, acc = _means(processed)
        p_detected, r_detected, f1_detected, acc_detected = _means(scores)
        rows.append(AggregateRow(
            tool=tool, label=label, detected=len(scores),
            processed=len(processed), acc=acc, f1=f1, p=p, r=r,
            acc_detected=acc_detected, f1_detected=f1_detected,
            p_detected=p_detected, r_detected=r_detected))
    return rows


def cumulative_f1(
    rows: Sequence[AggregateRow],
    task: str,
    tool: str | None = None,
    variant: str = "processed",
) -> TaskSummary:
    """Sum of per-label mean F1 over a task's label group.

    A label with no row contributes 0. Each label mean is first rounded to
    two decimals, ties to even, and the sum is exact over those two-decimal
    values. The maximum attainable value is the size of the label group.
    """
    if task not in TASKS:
        raise ConfigError(f"unknown task: {task!r} (expected one of {sorted(TASKS)})")
    if variant not in ("processed", "detected"):
        raise ConfigError(f"unknown variant: {variant!r}")
    tools = sorted({row.tool for row in rows})
    if tool is None:
        if len(tools) > 1:
            raise ConfigError(f"rows span multiple tools {tools}; pass tool=")
        tool = tools[0] if tools else "unknown"
    labels = TASKS[task]
    by_label = {row.label: row for row in rows if row.tool == tool}
    total = Decimal(0)
    for label in labels:
        row = by_label.get(label)
        value = 0.0
        if row is not None:
            value = row.f1 if variant == "processed" else row.f1_detected
        total += Decimal(value).quantize(Decimal("0.01"), rounding=ROUND_HALF_EVEN)
    return TaskSummary(
        tool=tool,
        task=task,
        labels=labels,
        cumulative_f1=float(total),
        max_possible=len(labels),
    )


def all_task_summaries(rows: Sequence[AggregateRow], **kwargs) -> list[TaskSummary]:
    """One summary per task per tool, in fixed task order."""
    tools = sorted({row.tool for row in rows})
    return [cumulative_f1(rows, task, tool=tool, **kwargs)
            for tool in tools for task in TASKS]


def _row_cells(row: AggregateRow, variant: str) -> list[str]:
    if variant == "processed":
        means = (row.acc, row.f1, row.p, row.r)
    else:
        means = (row.acc_detected, row.f1_detected, row.p_detected, row.r_detected)
    return [row.tool, row.label, str(row.detected), str(row.processed)] + [
        f"{value:.2f}" for value in means]


def emit_report(
    rows: Sequence[AggregateRow],
    summaries: Sequence[TaskSummary] | None = None,
    fmt: str = "csv",
    out: str | Path | None = None,
    stamp: str | None = None,
    variant: str = "processed",
) -> str:
    """Render aggregate rows (and optional task summaries) as CSV or JSON.

    Output is deterministic byte for byte. CSV shows means to two decimals;
    JSON carries the full float values.
    """
    if fmt not in ("csv", "json"):
        raise ConfigError(f"unsupported report format: {fmt!r}")
    if variant not in ("processed", "detected"):
        raise ConfigError(f"unknown variant: {variant!r}")
    if fmt == "csv":
        buffer = io.StringIO()
        if stamp:
            buffer.write(f"# {stamp}\n")
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(["tool", "label", "detected", "processed",
                         "acc", "f1", "p", "r"])
        for row in rows:
            writer.writerow(_row_cells(row, variant))
        for summary in summaries or ():
            buffer.write(
                f"# cumulative_f1 tool={summary.tool} task={summary.task} "
                f"value={summary.cumulative_f1:.2f} "
                f"max={summary.max_possible}\n")
        text = buffer.getvalue()
    else:
        payload: dict = {}
        if stamp:
            payload["meta"] = {"stamp": stamp}
        payload["rows"] = [asdict(row) for row in rows]
        payload["summaries"] = [asdict(summary) for summary in summaries or ()]
        text = json.dumps(payload, indent=2, ensure_ascii=False) + "\n"
    if out is not None:
        write_text(out, text)
    return text


# Fixed chart geometry; data never changes the layout, only bar heights.
_CHART_W = 960
_CHART_H = 410
_MARGIN_L = 70
_MARGIN_R = 20
_MARGIN_T = 40
_MARGIN_B = 70
_PLOT_W = _CHART_W - _MARGIN_L - _MARGIN_R
_PLOT_H = _CHART_H - _MARGIN_T - _MARGIN_B


def _esc(text: str) -> str:
    return (text.replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;").replace('"', "&quot;"))


def emit_bar_chart(
    rows: Sequence[AggregateRow],
    metric: str,
    out: str | Path | None = None,
    summaries: Sequence[TaskSummary] | None = None,
    stamp: str | None = None,
    variant: str = "processed",
) -> str:
    """Grouped SVG bar chart of one metric.

    Ratio metrics plot per label on a fixed 0..1 scale. cumulative_f1 plots
    per task from the given summaries, by default those of the rows in this
    variant; its scale is the largest attainable value among the charted
    tasks. Bars are grouped by label (or task) and coloured per tool from a
    fixed palette in sorted tool order.
    """
    if metric not in CHART_METRICS:
        raise ConfigError(f"unsupported chart metric: {metric!r} "
                          f"(expected one of {CHART_METRICS})")
    if variant not in ("processed", "detected"):
        raise ConfigError(f"unknown variant: {variant!r}")
    if metric == "cumulative_f1":
        if summaries is None:
            summaries = all_task_summaries(rows, variant=variant)
        tools = sorted({s.tool for s in summaries})
        groups = [task for task in TASKS
                  if any(s.task == task for s in summaries)]
        values = {(s.tool, s.task): s.cumulative_f1 for s in summaries}
        scale = float(max((s.max_possible for s in summaries), default=1))
        tick_values = [float(i) for i in range(int(scale) + 1)]
    else:
        field = metric if variant == "processed" else metric + "_detected"
        tools = sorted({row.tool for row in rows})
        groups = sorted({row.label for row in rows})
        values = {(row.tool, row.label): getattr(row, field) for row in rows}
        scale = 1.0
        tick_values = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_CHART_W}" height="{_CHART_H}" '
        f'viewBox="0 0 {_CHART_W} {_CHART_H}">',
    ]
    if stamp:
        parts.append(f"<!-- {_esc(stamp)} -->")
    parts.append(f'<text x="{_CHART_W // 2}" y="24" text-anchor="middle" '
                 f'font-family="sans-serif" font-size="16">{_esc(metric)}</text>')
    axis_y = _MARGIN_T + _PLOT_H
    parts.append(f'<line x1="{_MARGIN_L}" y1="{_MARGIN_T}" x2="{_MARGIN_L}" '
                 f'y2="{axis_y}" stroke="#333" stroke-width="1"/>')
    parts.append(f'<line x1="{_MARGIN_L}" y1="{axis_y}" '
                 f'x2="{_MARGIN_L + _PLOT_W}" y2="{axis_y}" '
                 f'stroke="#333" stroke-width="1"/>')
    for tick in tick_values:
        y = axis_y - (tick / scale) * _PLOT_H
        parts.append(f'<line x1="{_MARGIN_L - 4}" y1="{y:.2f}" '
                     f'x2="{_MARGIN_L}" y2="{y:.2f}" stroke="#333" '
                     f'stroke-width="1"/>')
        parts.append(f'<text x="{_MARGIN_L - 8}" y="{y + 4:.2f}" '
                     f'text-anchor="end" font-family="sans-serif" '
                     f'font-size="11">{tick:g}</text>')
    if groups and tools:
        group_w = _PLOT_W / len(groups)
        bar_w = group_w * 0.8 / len(tools)
        for g_idx, group in enumerate(groups):
            gx = _MARGIN_L + g_idx * group_w
            for t_idx, tool in enumerate(tools):
                value = values.get((tool, group), 0.0)
                height = max(0.0, min(value / scale, 1.0)) * _PLOT_H
                x = gx + group_w * 0.1 + t_idx * bar_w
                y = axis_y - height
                colour = PALETTE[t_idx % len(PALETTE)]
                parts.append(
                    f'<rect class="bar" data-tool="{_esc(tool)}" '
                    f'data-group="{_esc(group)}" x="{x:.2f}" y="{y:.2f}" '
                    f'width="{bar_w:.2f}" height="{height:.2f}" '
                    f'fill="{colour}"/>')
            parts.append(f'<text x="{gx + group_w / 2:.2f}" y="{axis_y + 18}" '
                         f'text-anchor="middle" font-family="sans-serif" '
                         f'font-size="11">{_esc(group)}</text>')
    for t_idx, tool in enumerate(tools):
        lx = _MARGIN_L + t_idx * 140
        ly = _CHART_H - 24
        colour = PALETTE[t_idx % len(PALETTE)]
        parts.append(f'<rect class="swatch" x="{lx}" y="{ly - 10}" width="12" '
                     f'height="12" fill="{colour}"/>')
        parts.append(f'<text x="{lx + 18}" y="{ly}" font-family="sans-serif" '
                     f'font-size="12">{_esc(tool)}</text>')
    parts.append("</svg>")
    text = "\n".join(parts) + "\n"
    if out is not None:
        write_text(out, text)
    return text
