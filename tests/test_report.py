from __future__ import annotations

import json
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

from docbench.corpus import PageKey
from docbench.errors import ConfigError
from docbench.metrics import DocumentScores, f1
from docbench.pipeline import (STATUS_MISSING, STATUS_SCORED, UnitResult,
                               read_journal)
from docbench.report import (CHART_METRICS, TASKS, AggregateRow, TaskSummary,
                             aggregate, all_task_summaries, cumulative_f1,
                             emit_bar_chart, emit_report, round_half_even)


def _unit(label: str, f1_value: float, page: int = 0,
          status: str = STATUS_SCORED) -> UnitResult:
    scores = DocumentScores(
        precision=f1_value, recall=f1_value, f1=f1_value, accuracy=f1_value,
        m=1, n=1)
    return UnitResult(PageKey("1401.0001", page), label, status, scores)


def _row(tool: str, label: str, f1_mean: float, detected: int = 1,
         processed: int = 1) -> AggregateRow:
    return AggregateRow(tool=tool, label=label, detected=detected,
                        processed=processed, acc=f1_mean, f1=f1_mean,
                        p=f1_mean, r=f1_mean, acc_detected=f1_mean / 2,
                        f1_detected=f1_mean / 2, p_detected=f1_mean / 2,
                        r_detected=f1_mean / 2)


def test_round_half_even_dyadic_ties():
    # these floats are exact binary values, so ties resolve to even
    assert round_half_even(0.125) == 0.12
    assert round_half_even(0.375) == 0.38
    assert round_half_even(0.625) == 0.62
    assert round_half_even(0.875) == 0.88
    assert round_half_even(0.7, 1) == 0.7
    # 2.675 stores below the tie point, so it rounds down, not half-up
    assert round_half_even(2.675) == 2.67


def test_two_decimal_presentation_of_f1():
    assert f"{f1(0.45, 0.49):.2f}" == "0.47"
    assert f"{f1(0.91, 0.92):.2f}" == "0.91"


def test_aggregate_counts_and_means():
    results = [
        _unit("title", 1.0),
        _unit("title", 0.5, page=1),
        _unit("title", 0.0, page=2, status=STATUS_MISSING),
        _unit("table", 0.0, status=STATUS_MISSING),
    ]
    rows = aggregate(results, tool="mytool")
    assert [row.label for row in rows] == ["table", "title"]

    table, title = rows
    assert title.detected == 3
    assert title.processed == 2
    assert title.f1 == 0.75           # mean over processed units only
    assert title.f1_detected == 0.5   # zeros pulled into the detected mean
    assert table.detected == 1
    assert table.processed == 0
    assert table.f1 == 0.0
    assert table.tool == "mytool"


def test_mean_does_not_depend_on_the_interpreters_sum():
    # Plain float summation in order gives 0.4050000000000001 (CSV 0.41);
    # the correctly rounded sum, which Python 3.12's sum() also reaches,
    # gives 0.40499999999999997 (CSV 0.40).
    values = [0.4, 0.1, 0.1, 0.7, 0.4, 0.6, 0.1, 0.4, 0.2, 0.2,
              0.2, 0.4, 0.6, 0.2, 0.6, 0.7, 0.7, 0.7, 0.4, 0.4]
    ordered = 0.0
    for value in values:
        ordered += value
    assert f"{ordered / len(values):.2f}" == "0.41"
    row, = aggregate([_unit("title", v, page=i) for i, v in enumerate(values)])
    assert row.f1 == row.f1_detected == 0.40499999999999997
    csv_cells = emit_report([row], [], fmt="csv").splitlines()[-1].split(",")
    assert csv_cells[4:] == ["0.40"] * 4


def test_aggregate_means_are_the_exact_sum_rounded_once():
    rng = random.Random(3120)
    for _ in range(200):
        values = [rng.choice([rng.random(), round(rng.random(), 2), 1.0])
                  for _ in range(rng.randint(1, 60))]
        row, = aggregate([_unit("title", v, page=i) for i, v in enumerate(values)])
        assert row.f1_detected == float(sum(map(Fraction, values))) / len(values)


def test_cumulative_f1_reference_total():
    rows = [
        _row("t", "title", 0.91),
        _row("t", "abstract", 0.82),
        _row("t", "author", 0.52),
    ]
    summary = cumulative_f1(rows, "metadata")
    assert summary.cumulative_f1 == 2.25
    assert summary.max_possible == 3
    assert summary.labels == ("title", "abstract", "author")
    assert summary.tool == "t"


def test_cumulative_f1_rounds_each_label_first():
    # each mean rounds to 0.33 before summing; the float sum would differ
    rows = [
        _row("t", "title", 1.0 / 3.0),
        _row("t", "abstract", 1.0 / 3.0),
        _row("t", "author", 1.0 / 3.0),
    ]
    assert cumulative_f1(rows, "metadata").cumulative_f1 == 0.99
    raw = cumulative_f1(rows, "metadata", rounded=False).cumulative_f1
    assert abs(raw - 1.0) < 1e-12


def test_cumulative_f1_missing_labels_count_zero():
    rows = [_row("t", "title", 0.9)]
    summary = cumulative_f1(rows, "metadata")
    assert summary.cumulative_f1 == 0.9
    general = cumulative_f1(rows, "general")
    assert general.cumulative_f1 == 0.0
    assert general.max_possible == 7


def test_cumulative_f1_variants_and_errors():
    rows = [_row("t", "title", 0.8)]
    assert cumulative_f1(rows, "metadata", variant="detected").cumulative_f1 \
        == 0.4
    with pytest.raises(ConfigError):
        cumulative_f1(rows, "body")
    with pytest.raises(ConfigError):
        cumulative_f1(rows, "metadata", variant="median")
    mixed = rows + [_row("u", "title", 0.5)]
    with pytest.raises(ConfigError):
        cumulative_f1(mixed, "metadata")
    assert cumulative_f1(mixed, "metadata", tool="u").cumulative_f1 == 0.5


def test_all_task_summaries_order():
    rows = [_row("b", "title", 0.8), _row("a", "reference", 0.6)]
    summaries = all_task_summaries(rows)
    assert [(s.tool, s.task) for s in summaries] == [
        ("a", "metadata"), ("a", "reference"), ("a", "table"), ("a", "general"),
        ("b", "metadata"), ("b", "reference"), ("b", "table"), ("b", "general"),
    ]


def test_task_groups_cover_default_vocabulary():
    from docbench.corpus import DEFAULT_LABELS
    grouped = {label for labels in TASKS.values() for label in labels}
    assert grouped == set(DEFAULT_LABELS)


def test_emit_report_csv_shape():
    rows = [_row("t", "title", 0.875)]
    summaries = [TaskSummary("t", "metadata", ("title",), 0.88, 3)]
    text = emit_report(rows, summaries, fmt="csv", stamp="run 42")
    lines = text.splitlines()
    assert lines[0] == "# run 42"
    assert lines[1] == "tool,label,detected,processed,acc,f1,p,r"
    assert lines[2] == "t,title,1,1,0.88,0.88,0.88,0.88"
    assert lines[3] == "# cumulative_f1 tool=t task=metadata value=0.88 max=3"


def test_emit_report_csv_detected_variant_and_precision():
    rows = [_row("t", "title", 0.875)]
    text = emit_report(rows, fmt="csv", variant="detected")
    assert "t,title,1,1,0.44,0.44,0.44,0.44" in text
    text = emit_report(rows, fmt="csv", decimals=4)
    assert "t,title,1,1,0.8750,0.8750,0.8750,0.8750" in text


def test_emit_report_csv_empty_rows():
    text = emit_report([], fmt="csv")
    assert text == "tool,label,detected,processed,acc,f1,p,r\n"


def test_emit_report_quotes_awkward_cells():
    rows = [_row("tool,with,commas", "title", 1.0)]
    text = emit_report(rows, fmt="csv")
    assert '"tool,with,commas",title' in text


def test_emit_report_json_full_precision():
    rows = [_row("t", "title", 1.0 / 3.0)]
    summaries = [TaskSummary("t", "metadata", ("title",), 0.33, 3)]
    text = emit_report(rows, summaries, fmt="json", stamp="run 42")
    payload = json.loads(text)
    assert payload["meta"]["stamp"] == "run 42"
    assert payload["rows"][0]["f1"] == 1.0 / 3.0
    assert payload["rows"][0]["f1_detected"] == 1.0 / 6.0
    assert payload["summaries"][0]["max_possible"] == 3
    # byte determinism
    assert emit_report(rows, summaries, fmt="json", stamp="run 42") == text


def test_emit_report_writes_file(tmp_path: Path):
    out = tmp_path / "report.csv"
    text = emit_report([_row("t", "title", 1.0)], fmt="csv", out=out)
    assert out.read_text(encoding="utf-8") == text
    with pytest.raises(ConfigError):
        emit_report([], fmt="yaml")
    with pytest.raises(ConfigError):
        emit_report([], variant="midway")


def test_golden_partial_report_bytes(golden_dir: Path):
    _, results = read_journal(golden_dir / "expected" / "partial.jsonl")
    rows = aggregate(results, tool="partial")
    summaries = all_task_summaries(rows)
    stamp_line, body = (golden_dir / "expected" / "partial_report.csv") \
        .read_text(encoding="utf-8").split("\n", 1)
    assert stamp_line.startswith("# ")
    text = emit_report(rows, summaries, fmt="csv")
    assert text == body


def test_chart_bar_height_is_half_plot_for_half_score():
    rows = [_row("t", "title", 0.5)]
    svg = emit_bar_chart(rows, "f1")
    match = re.search(r'<rect class="bar"[^>]*height="([0-9.]+)"', svg)
    assert match is not None
    assert match.group(1) == "150.00"
    assert 'data-tool="t"' in svg
    assert 'data-group="title"' in svg


def test_chart_groups_and_tools_multiply():
    rows = [
        _row("a", "title", 0.5), _row("a", "table", 0.25),
        _row("b", "title", 0.75), _row("b", "table", 0.5),
        _row("c", "title", 1.0), _row("c", "table", 0.125),
    ]
    svg = emit_bar_chart(rows, "f1")
    assert svg.count('class="bar"') == 6
    assert svg.count('class="swatch"') == 3
    # fixed geometry regardless of data
    assert 'width="960" height="410"' in svg
    assert svg == emit_bar_chart(rows, "f1")


def test_chart_empty_rows_axes_only():
    svg = emit_bar_chart([], "f1")
    assert 'class="bar"' not in svg
    assert 'class="swatch"' not in svg
    assert svg.count("<line") >= 2


def test_chart_detected_variant_changes_heights():
    rows = [_row("t", "title", 0.5)]
    processed = emit_bar_chart(rows, "f1")
    detected = emit_bar_chart(rows, "f1", variant="detected")
    assert 'height="150.00"' in processed
    assert 'height="75.00"' in detected


def test_chart_cumulative_f1_scale():
    rows = [_row("t", "title", 0.91), _row("t", "abstract", 0.82),
            _row("t", "author", 0.52)]
    summaries = [cumulative_f1(rows, task) for task in TASKS]
    svg = emit_bar_chart(rows, "cumulative_f1", summaries=summaries)
    # scale is the largest attainable task value (general: 7 labels)
    assert ">7<" in svg.replace('font-size="11">', ">")
    match = re.search(
        r'<rect class="bar" data-tool="t" data-group="metadata"[^>]*'
        r'height="([0-9.]+)"', svg)
    assert match is not None
    # 2.25 of 7.0 of the 300px plot height
    assert match.group(1) == f"{2.25 / 7.0 * 300:.2f}"


def test_chart_cumulative_f1_defaults_to_the_summaries_of_its_variant():
    rows = [_row("t", "title", 0.91), _row("t", "abstract", 0.82),
            _row("u", "table", 0.6)]
    for variant in ("processed", "detected"):
        assert emit_bar_chart(rows, "cumulative_f1", variant=variant) == \
            emit_bar_chart(rows, "cumulative_f1", variant=variant,
                           summaries=all_task_summaries(rows, variant=variant))
    assert emit_bar_chart(rows, "cumulative_f1", variant="detected") != \
        emit_bar_chart(rows, "cumulative_f1")
    for metric in CHART_METRICS:
        for chart_rows in (rows, []):
            with pytest.raises(ConfigError, match="variant"):
                emit_bar_chart(chart_rows, metric, variant="median")


def test_chart_stamp_and_metric_validation():
    rows = [_row("t", "title", 0.5)]
    svg = emit_bar_chart(rows, "acc", stamp="build 7")
    assert "<!-- build 7 -->" in svg
    with pytest.raises(ConfigError):
        emit_bar_chart(rows, "f2")
    for metric in CHART_METRICS:
        emit_bar_chart(rows, metric)


def test_chart_escapes_markup_in_names():
    rows = [_row('evil"<tool>', "title", 0.5)]
    svg = emit_bar_chart(rows, "f1")
    assert "<tool>" not in svg
    assert "&lt;tool&gt;" in svg


def test_chart_writes_file(tmp_path: Path):
    out = tmp_path / "chart.svg"
    svg = emit_bar_chart([_row("t", "title", 0.5)], "f1", out=out)
    assert out.read_text(encoding="utf-8") == svg
    assert svg.startswith("<svg ")
    assert svg.endswith("</svg>\n")
