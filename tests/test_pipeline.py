from __future__ import annotations

import contextlib
import dataclasses
import gc
import json
import logging
import multiprocessing
import os
import pickle
import random
import re
import signal
import subprocess
import sys
import tracemalloc
from collections import Counter
from concurrent.futures.process import BrokenProcessPool
from multiprocessing.connection import wait
from pathlib import Path
from typing import Callable

import pytest

import docbench
from docbench import pipeline
from docbench.corpus import PageKey, index_corpus
from docbench.errors import ConfigError
from docbench.interchange import (SELECTOR_MISS, AdapterConfig,
                                  load_adapter_config)
from docbench.metrics import DocumentScores, MatchConfig
from docbench.pipeline import (STATUS_ERROR, STATUS_MISSING, STATUS_SCORED,
                               EvaluationUnit, RunConfig, UnitResult,
                               config_hash, evaluate_run, journal_header,
                               read_journal, resolve_output,
                               score_unit, unit_result_to_line,
                               worker_count, zero_score_labels)
from docbench.report import aggregate, all_task_summaries, emit_report
from oracles import journal_reference

GOLDEN_LABELS = ("abstract", "author", "paragraph", "reference",
                 "section", "table", "title")


def _golden_config(golden_dir: Path, tool: str, **overrides) -> RunConfig:
    defaults = dict(
        output_root=golden_dir / "out" / tool,
        adapter=load_adapter_config(golden_dir / "adapters" / f"{tool}.json"),
        labels=GOLDEN_LABELS,
        gt_root=golden_dir / "gt",
    )
    defaults.update(overrides)
    return RunConfig(**defaults)


def test_run_config_validation(golden_dir: Path):
    with pytest.raises(ConfigError):
        _golden_config(golden_dir, "perfect", labels=())
    with pytest.raises(ConfigError):
        _golden_config(golden_dir, "perfect", labels=("Title",))
    with pytest.raises(ConfigError):
        _golden_config(golden_dir, "perfect", labels=("margin",))
    with pytest.raises(ConfigError):
        _golden_config(golden_dir, "perfect", parallelism=0)


def test_config_hash_is_stable_and_sensitive(golden_dir: Path):
    base = _golden_config(golden_dir, "partial")
    assert config_hash(base) == config_hash(_golden_config(golden_dir, "partial"))
    assert len(config_hash(base)) == 12

    # score-irrelevant knobs leave the hash alone
    moved = dataclasses.replace(base, output_root=Path("/elsewhere"),
                                gt_root=Path("/other"), parallelism=8)
    assert config_hash(moved) == config_hash(base)

    # score-relevant knobs change it
    assert config_hash(dataclasses.replace(
        base, match=MatchConfig(threshold=0.6))) != config_hash(base)
    assert config_hash(dataclasses.replace(
        base, match=MatchConfig(substitution_cost=1))) != config_hash(base)
    assert config_hash(dataclasses.replace(
        base, labels=("title",))) != config_hash(base)
    assert config_hash(dataclasses.replace(
        base, sample=("1401", "1402"))) != config_hash(base)
    other_adapter = load_adapter_config(
        golden_dir / "adapters" / "perfect.json")
    assert config_hash(dataclasses.replace(
        base, adapter=other_adapter)) != config_hash(base)


def _planned(index, config: RunConfig) -> list[EvaluationUnit]:
    """Every unit of a fresh run, the way a scoring task plans its pages."""
    return pipeline._plan_pages(pipeline._page_plans(index, config), config,
                                index.vocabulary, ())


def test_plan_units_golden_population(golden_dir: Path):
    config = _golden_config(golden_dir, "perfect")
    index = index_corpus(golden_dir / "gt")
    units = _planned(index, config)
    identities = [(str(u.key), u.label) for u in units]
    assert identities == [
        ("1401.0001:0", "paragraph"),
        ("1401.0001:0", "title"),
        ("1401.0001:1", "reference"),
        ("1402.0042:0", "abstract"),
        ("1402.0042:0", "author"),
        ("1402.0042:0", "title"),
        ("1403.0777:0", "table"),
        ("1403.0777:2", "paragraph"),
        ("1403.0777:2", "section"),
    ]
    # ground-truth token counts ride along on each unit
    by_identity = {(str(u.key), u.label): u for u in units}
    assert len(by_identity[("1401.0001:1", "reference")].gt_tokens) == 13
    assert by_identity[("1402.0042:0", "author")].gt_tokens == (
        "Yuta", "Hamada", "Gary", "Shiu")


def test_plan_units_label_subset(golden_dir: Path):
    config = _golden_config(golden_dir, "perfect", labels=("title",))
    index = index_corpus(golden_dir / "gt")
    units = _planned(index, config)
    assert [(str(u.key), u.label) for u in units] == [
        ("1401.0001:0", "title"), ("1402.0042:0", "title")]


def test_plan_units_respects_sample(golden_dir: Path):
    config = _golden_config(golden_dir, "perfect", sample=("1401", "1402"))
    index = index_corpus(golden_dir / "gt")
    units = _planned(index, config)
    docs = {u.key.document_id for u in units}
    assert docs == {"1401.0001", "1402.0042"}
    assert len(units) == 6


def test_resolve_output_statuses(golden_dir: Path, tmp_path: Path):
    config = _golden_config(golden_dir, "partial")
    unit_present = EvaluationUnit(PageKey("1401.0001", 0), "title",
                                  ("Deep", "Unsupervised", "Parsing"))
    record, status = resolve_output(unit_present, config)
    assert status == STATUS_SCORED
    assert record is not None and record.tokens

    unit_absent = EvaluationUnit(PageKey("1403.0777", 0), "table",
                                 ("Model", "Acc"))
    record, status = resolve_output(unit_absent, config)
    assert status == STATUS_MISSING
    assert record is None


def test_resolve_output_label_outside_run_labels(golden_dir: Path):
    config = _golden_config(golden_dir, "partial", labels=("abstract",))
    title = EvaluationUnit(PageKey("1401.0001", 0), "title",
                           ("Deep", "Unsupervised", "Parsing"))
    cache: dict = {}
    assert resolve_output(title, config, cache) == \
        resolve_output(title, _golden_config(golden_dir, "partial"))
    margin = EvaluationUnit(PageKey("1401.0001", 0), "margin", ("x",))
    record, status = resolve_output(margin, config, cache)
    assert status == STATUS_SCORED
    assert record is not None and SELECTOR_MISS in record.flags


def test_resolve_output_error_artifact(golden_dir: Path, tmp_path: Path):
    adapter = AdapterConfig("broken", "xml", {"title": "docTitle"})
    (tmp_path / "1401.0001_0.xml").write_text("<a><b></a>", encoding="utf-8")
    config = RunConfig(output_root=tmp_path, adapter=adapter,
                       labels=("title",), gt_root=golden_dir / "gt")
    unit = EvaluationUnit(PageKey("1401.0001", 0), "title", ("Deep",))
    record, status = resolve_output(unit, config)
    assert status == STATUS_ERROR
    assert record is None
    # the unit still scores, as zeros
    result = score_unit(unit, config)
    assert result.status == STATUS_ERROR
    assert result.scores.f1 == 0.0
    assert result.scores.n == 1


def test_resolve_output_custom_template(golden_dir: Path, tmp_path: Path):
    nested = tmp_path / "run7" / "1401.0001"
    nested.mkdir(parents=True)
    (nested / "page0.txt").write_text("Deep Unsupervised Parsing\n",
                                      encoding="utf-8")
    adapter = AdapterConfig("custom", "text", {"title": "1"},
                            path_template="run7/{doc}/page{page}.txt")
    config = RunConfig(output_root=tmp_path, adapter=adapter,
                       labels=("title",), gt_root=golden_dir / "gt")
    unit = EvaluationUnit(PageKey("1401.0001", 0), "title",
                          ("Deep", "Unsupervised", "Parsing"))
    result = score_unit(unit, config)
    assert result.status == STATUS_SCORED
    assert result.scores.f1 == 1.0


def test_document_scope_restricts_to_page(golden_dir: Path, tmp_path: Path):
    # one document-wide file; page ground truth covers only part of it
    (tmp_path / "1401.0001.txt").write_text(
        "Deep Unsupervised Parsing\n"
        "unrelated rambling prose that matches nothing at all\n"
        "The model learns tree structures\n",
        encoding="utf-8")
    adapter = AdapterConfig("docwide", "text", {"title": "*"},
                            scope="document")
    config = RunConfig(output_root=tmp_path, adapter=adapter,
                       labels=("title",), gt_root=golden_dir / "gt")
    unit = EvaluationUnit(PageKey("1401.0001", 0), "title",
                          ("Deep", "Unsupervised", "Parsing"))
    record, status = resolve_output(unit, config)
    assert status == STATUS_SCORED
    # only the line the title ground truth covers survives restriction
    assert record.units == (("Deep", "Unsupervised", "Parsing"),)
    result = score_unit(unit, config)
    assert result.scores.precision == 1.0
    assert result.scores.recall == 1.0


def test_unit_result_line_shape_and_rounding():
    scores = DocumentScores(precision=0.0078125, recall=1.0 / 3.0, f1=0.2,
                            accuracy=0.9999995, m=128, n=3)
    result = UnitResult(PageKey("1401.0001", 2), "table", STATUS_SCORED, scores)
    line = unit_result_to_line(result)
    payload = json.loads(line)
    assert payload["doc"] == "1401.0001"
    assert payload["page"] == 2
    assert payload["label"] == "table"
    assert payload["status"] == "scored"
    assert payload["m"] == 128 and payload["n"] == 3
    # %-formatting rounds half to even at six decimals
    assert '"p":0.007812' in line
    assert '"r":0.333333' in line
    assert '"acc":1.000000' in line



def _json_dumps_line(result: UnitResult) -> str:
    """The journal line as json.dumps writes its strings: the reference."""
    s = result.scores
    return (
        '{"doc":%s,"page":%d,"label":%s,"status":%s,'
        '"p":%.6f,"r":%.6f,"f1":%.6f,"acc":%.6f,"m":%d,"n":%d}' % (
            json.dumps(result.key.document_id, ensure_ascii=False),
            result.key.page_index,
            json.dumps(result.label, ensure_ascii=False),
            json.dumps(result.status, ensure_ascii=False),
            s.precision, s.recall, s.f1, s.accuracy, s.m, s.n))


def test_unit_result_line_encodes_strings_as_json_dumps():
    awkward = ('say "hi"', "back\\slash\\", "\x00\x01\x1f\x7f\t\n\r\b\f",
               "line\u2028sep\u2029", "\U0001d518\U0001f600", "\u0661\u0662\uff13",
               "caf\u00e9 e\u0301", "/<>&'", "")
    scores = DocumentScores(0.5, 0.25, 1.0 / 3.0, 1.0, 2, 3)
    for text in awkward:
        for document_id, label, status in ((text or "d", "title", STATUS_SCORED),
                                           ("1401.0001", text, STATUS_MISSING),
                                           ("1401.0001", "table", text)):
            result = UnitResult(PageKey(document_id, 7), label, status, scores)
            assert unit_result_to_line(result) == _json_dumps_line(result)


def test_journal_header_shape(golden_dir: Path):
    config = _golden_config(golden_dir, "partial")
    payload = json.loads(journal_header(config))
    assert payload["kind"] == "header"
    assert payload["format_version"] == 1
    assert payload["harness"] == "docbench"
    assert payload["tool"] == "partial"
    assert payload["config"] == config_hash(config)


def test_evaluate_run_matches_expected_journal(golden_dir: Path, tmp_path: Path):
    config = _golden_config(golden_dir, "partial")
    journal = tmp_path / "partial.jsonl"
    results = list(evaluate_run(config, journal_path=journal))
    assert len(results) == 9
    expected = (golden_dir / "expected" / "partial.jsonl").read_bytes()
    assert journal.read_bytes() == expected


def test_evaluate_run_without_journal(golden_dir: Path):
    config = _golden_config(golden_dir, "perfect")
    results = list(evaluate_run(config))
    assert len(results) == 9
    assert all(r.status == STATUS_SCORED for r in results)
    assert all(r.scores.f1 == 1.0 for r in results)
    assert all(r.scores.accuracy == 1.0 for r in results)


def test_evaluate_run_resumes_after_interruption(golden_dir: Path,
                                                 tmp_path: Path):
    config = _golden_config(golden_dir, "partial")
    journal = tmp_path / "partial.jsonl"
    full = tmp_path / "full.jsonl"
    list(evaluate_run(config, journal_path=full))

    # simulate a crash after four scored units
    lines = full.read_text(encoding="utf-8").splitlines(keepends=True)
    journal.write_text("".join(lines[:5]), encoding="utf-8")

    results = list(evaluate_run(config, journal_path=journal))
    assert len(results) == 9
    assert journal.read_bytes() == full.read_bytes()

    # a complete journal is a no-op rerun
    before = journal.read_bytes()
    results = list(evaluate_run(config, journal_path=journal))
    assert len(results) == 9
    assert journal.read_bytes() == before


def test_evaluate_run_rejects_foreign_journal(golden_dir: Path,
                                              tmp_path: Path):
    journal = tmp_path / "partial.jsonl"
    list(evaluate_run(_golden_config(golden_dir, "partial"),
                      journal_path=journal))
    other = _golden_config(golden_dir, "partial",
                           match=MatchConfig(threshold=0.5))
    with pytest.raises(ConfigError):
        list(evaluate_run(other, journal_path=journal))


def test_evaluate_run_parallel_identical_bytes(golden_dir: Path,
                                               tmp_path: Path):
    sequential = tmp_path / "seq.jsonl"
    threaded = tmp_path / "par.jsonl"
    list(evaluate_run(_golden_config(golden_dir, "partial"),
                      journal_path=sequential))
    list(evaluate_run(_golden_config(golden_dir, "partial", parallelism=4),
                      journal_path=threaded))
    assert sequential.read_bytes() == threaded.read_bytes()


def test_evaluate_run_rejects_headerless_journal_with_units(golden_dir: Path,
                                                         tmp_path: Path):
    golden = golden_dir / "expected" / "partial.jsonl"
    units_only = golden.read_bytes().split(b"\n", 1)[1]
    journal = tmp_path / "partial.jsonl"
    journal.write_bytes(units_only)
    with pytest.raises(ConfigError, match="no header"):
        list(evaluate_run(_golden_config(golden_dir, "partial"),
                          journal_path=journal))
    assert journal.read_bytes() == units_only


def test_evaluate_run_rewrites_journal_cut_in_its_header(golden_dir: Path,
                                                        tmp_path: Path):
    golden = (golden_dir / "expected" / "partial.jsonl").read_bytes()
    journal = tmp_path / "partial.jsonl"
    journal.write_bytes(golden[:golden.index(b"\n") // 2])
    list(evaluate_run(_golden_config(golden_dir, "partial"),
                      journal_path=journal))
    assert journal.read_bytes() == golden


def test_resume_from_every_cut_offset_gives_the_clean_bytes(golden_dir: Path,
                                                           tmp_path: Path):
    golden = (golden_dir / "expected" / "partial.jsonl").read_bytes()
    report = (golden_dir / "expected" / "partial_report.csv") \
        .read_text(encoding="utf-8").split("\n", 1)[1]
    config = _golden_config(golden_dir, "partial")
    index = index_corpus(golden_dir / "gt")
    journal = tmp_path / "partial.jsonl"
    bad = []
    for offset in range(len(golden) + 1):
        journal.write_bytes(golden[:offset])
        list(evaluate_run(config, index, journal))
        _, results = read_journal(journal)
        rows = aggregate(results, tool="partial")
        text = emit_report(rows, all_task_summaries(rows), fmt="csv")
        if journal.read_bytes() != golden or text != report:
            bad.append(offset)
    assert bad == []


@pytest.mark.parametrize("blank, partial", [
    (b"", b'{"doc":"1401.0001","page":' + b"9" * 5000),
    (b"\n\n", b""),
    (b"\n \n", b'{"doc":' + "\u00e9".encode() * 3000),
])
def test_resume_cuts_only_the_partial_last_line(golden_dir: Path,
                                                tmp_path: Path,
                                                blank: bytes, partial: bytes):
    """A partial last line longer than 4096 bytes goes whole; blank lines
    that end the whole lines stay, and the missing units follow them."""
    golden_path = golden_dir / "expected" / "partial.jsonl"
    header, *lines = golden_path.read_bytes().splitlines(keepends=True)
    kept = header + b"".join(lines[:4]) + blank
    journal = tmp_path / "partial.jsonl"
    journal.write_bytes(kept + partial)
    list(evaluate_run(_golden_config(golden_dir, "partial"), journal_path=journal))
    assert journal.read_bytes() == kept + b"".join(lines[4:])
    assert read_journal(journal) == read_journal(golden_path)


def _shut_pool() -> None:
    if pipeline._pool is not None:
        pipeline._pool[1].shutdown()
        pipeline._pool = None


@pytest.fixture
def count_gt_parses(monkeypatch, tmp_path: Path):
    """Returns start(): from then on, every ground-truth page parsed is
    counted, in this process or in a pool worker, and start() returns a
    reader of the page keys in the order their parses ended.

    The keys go to a file, which workers can append to. start() shuts the
    pool down, so the next parallel run forks one under the patch; the pool
    is shut down again after the test, so no later test inherits it.
    """
    record = tmp_path / "parsed.txt"

    def start() -> Callable[[], list[str]]:
        _shut_pool()
        record.write_text("", encoding="utf-8")
        parse = pipeline.parse_gt_page

        def counted(*args, **kwargs):
            page = parse(*args, **kwargs)
            with open(record, "a", encoding="utf-8") as handle:
                handle.write(f"{page.key}\n")
            return page

        monkeypatch.setattr(pipeline, "parse_gt_page", counted)
        return lambda: record.read_text(encoding="utf-8").split()

    yield start
    _shut_pool()


def _lines(results) -> list[str]:
    return [unit_result_to_line(r) for r in results]


@pytest.mark.parametrize("jobs", (1, 2))
def test_fresh_run_parses_every_planned_page_once(golden_dir: Path,
                                                  count_gt_parses, jobs: int):
    parsed = count_gt_parses()
    list(evaluate_run(_golden_config(golden_dir, "partial", parallelism=jobs)))
    # Two workers parse their documents at the same time, in no set order.
    keys = parsed() if jobs == 1 else sorted(parsed())
    assert keys == ["1401.0001:0", "1401.0001:1", "1402.0042:0",
                    "1403.0777:0", "1403.0777:2"]


@pytest.mark.parametrize("jobs", (1, 2))
@pytest.mark.parametrize("dropped", ((), ("1402.0042:0",), ("1403.0777:2",)))
def test_resume_parses_only_the_pages_with_pending_units(golden_dir: Path,
                                                         tmp_path: Path,
                                                         count_gt_parses,
                                                         jobs: int,
                                                         dropped: tuple):
    golden = (golden_dir / "expected" / "partial.jsonl").read_bytes()
    header, *lines = golden.splitlines(keepends=True)
    on_pages = [line for line in lines
                if "%(doc)s:%(page)d" % json.loads(line) in dropped]
    kept = [line for line in lines if line not in on_pages]
    journal = tmp_path / "partial.jsonl"
    journal.write_bytes(header + b"".join(kept))
    config = _golden_config(golden_dir, "partial", parallelism=jobs)
    clean = list(evaluate_run(config))
    parsed = count_gt_parses()
    results = list(evaluate_run(config, journal_path=journal))
    assert parsed() == list(dropped)
    assert _lines(results) == _lines(clean)
    # The missing lines are appended: with none missing, or only the last
    # page's, the journal equals the clean run's.
    assert journal.read_bytes() == header + b"".join(kept + on_pages)
    if dropped in ((), ("1403.0777:2",)):
        assert journal.read_bytes() == golden


@pytest.mark.skipif(worker_count(2) < 2, reason="a worker pool needs 2 CPUs")
def test_parent_parses_no_ground_truth_at_two_jobs(golden_dir: Path,
                                                   tmp_path: Path,
                                                   monkeypatch):
    config = _golden_config(golden_dir, "partial", parallelism=2)
    list(evaluate_run(config))  # the pool forks here, before the patch
    parsed = []
    parse = pipeline.parse_gt_page

    def counted(*args, **kwargs):
        parsed.append(args[0])
        return parse(*args, **kwargs)

    monkeypatch.setattr(pipeline, "parse_gt_page", counted)
    two, one = tmp_path / "jobs2.jsonl", tmp_path / "jobs1.jsonl"
    list(evaluate_run(config, journal_path=two))
    assert parsed == []
    list(evaluate_run(dataclasses.replace(config, parallelism=1),
                      journal_path=one))
    assert len(parsed) == 5
    assert two.read_bytes() == one.read_bytes()


def test_read_journal_skips_a_line_cut_inside_a_character(golden_dir: Path,
                                                         tmp_path: Path,
                                                         caplog):
    # The default key pattern's \d accepts Arabic-Indic digits, two UTF-8
    # bytes each: 9 and 11 bytes into the line fall inside one.
    doc = "\u0662\u0661\u0660\u0661.\u0660\u0660\u0660\u0660\u0661"
    golden = (golden_dir / "expected" / "partial.jsonl").read_bytes()
    header, first, *_ = golden.splitlines(keepends=True)
    line = first.replace(b"1401.0001", doc.encode("utf-8"))
    for cut in (9, 11):
        journal = tmp_path / f"cut{cut}.jsonl"
        journal.write_bytes(header + line + line[:cut])
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="docbench.pipeline"):
            _, results = read_journal(journal)
        assert [r.key.document_id for r in results] == [doc]
        assert "malformed journal line 3" in caplog.text


# A document id of Arabic-Indic digits, two UTF-8 bytes each, which the
# default key pattern's \d accepts: cutting its line at every offset cuts
# inside a character too.
_WIDE_DOC = "\u0662\u0661\u0660\u0661.\u0660\u0660\u0660\u0660\u0661"


def _line_variants(line: bytes) -> list[bytes]:
    """Malformed, odd and still valid versions of one unit line."""
    payload = json.loads(line)
    variants = [line[:cut] for cut in range(len(line))]
    variants += [b"\xef\xbb\xbf" + line, b"\x0c" + line + b"\x0c",
                 line + b"x", line + b"{}", b"{}{}", b"\xff" + line,
                 line.replace(b'"', b'"\xff', 1), line[:8] + b"\xc3" + line[8:],
                 b"[1, 2]", b'"line"', b"3", b"null", b"true", b"NaN", b"{}"]
    variants += [json.dumps({k: v for k, v in payload.items() if k != field})
                 .encode() for field in payload]
    changes = [("m", "5"), ("m", True), ("m", 2.5), ("m", float("nan")),
               ("p", "0.5"), ("p", False), ("p", float("nan")),
               ("f1", "NaN"), ("acc", float("inf")), ("r", None),
               ("page", "1"), ("page", True), ("page", 1.5), ("page", -1),
               ("page", "x"), ("doc", ""), ("doc", 7), ("doc", None),
               ("doc", ["x"]), ("label", ["x"]), ("status", {}),
               ("status", 3), ("label", "title"), ("page", 2)]
    variants += [json.dumps(dict(payload, **{field: value})).encode()
                 for field, value in changes]
    # One change from the shape unit_result_to_line writes, so read as
    # JSON: other number forms, spacing, key order and keys, escapes, a raw
    # control character, Arabic-Indic digits and an empty label.
    score = re.compile(rb'"p":[^,]*')
    variants += [score.sub(b'"p":' + value, line) for value in
                 (b"1.0", b"1e0", b"0.5000000", b"-0.000000",
                  "٠.٥٠٠٠٠٠".encode())]
    variants += [line.replace(b'","page":', end + b'","page":')
                 for end in (b'\\"', b"\\u00e9", b"\t")]
    variants += [line.replace(b'":', b'": ', 1), line[:-1] + b',"x":1}',
                 json.dumps(dict(reversed(payload.items())),
                            separators=(",", ":"), ensure_ascii=False).encode(),
                 re.sub(rb'"page":[0-9]+', '"page":١'.encode(), line),
                 re.sub(rb'"label":"[^"]*"', b'"label":""', line)]
    return variants


def _read_like_the_oracle(journal: Path, caplog) -> tuple:
    """read_journal's (header, records, warning counts) in journal_reference's
    shape; records as reprs, so NaN scores compare."""
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="docbench.pipeline"):
        header, results = read_journal(journal)
    warnings = {"malformed": 0, "repeated unit": 0, "repeated header": 0}
    for record in caplog.records:
        [kind] = [kind for kind in warnings if kind in record.getMessage()]
        warnings[kind] += 1
    return header, [repr((r.key.document_id, r.key.page_index, r.label,
                          r.status, r.scores.precision, r.scores.recall,
                          r.scores.f1, r.scores.accuracy, r.scores.m,
                          r.scores.n)) for r in results], warnings


def test_read_journal_agrees_with_the_reference_reader(golden_dir: Path,
                                                       tmp_path: Path,
                                                       caplog):
    golden = (golden_dir / "expected" / "partial.jsonl").read_bytes()
    header, *lines = golden.splitlines(keepends=True)
    doc = json.loads(lines[3])["doc"].encode()
    lines[3] = lines[3].replace(doc, _WIDE_DOC.encode("utf-8"))
    other = dict(json.loads(header), config="aaaaaaaaaaaa")
    other_header = json.dumps(other).encode() + b"\n"
    journal = tmp_path / "fuzz.jsonl"
    variants = [_line_variants(line.rstrip(b"\n")) for line in lines]
    # Every variant of the wide line, in its place.
    journals = [header + b"".join(lines[:3]) + variant + b"\n"
                + b"".join(lines[4:]) for variant in variants[3]]
    # Seeded mixes: variants of any lines, repeated units and headers.
    rng = random.Random(20231018)
    for _ in range(300):
        mixed = [header, *lines]
        for _ in range(rng.randint(1, 5)):
            at = rng.randrange(1, len(mixed) + 1)
            kind = rng.randrange(6)
            if kind < 3:
                mixed.insert(at, rng.choice(rng.choice(variants)) + b"\n")
            elif kind == 3:
                mixed.insert(at, rng.choice(lines))
            elif kind == 4:
                mixed.insert(at, rng.choice((header, b"\n", b"  \r\n")))
            elif at < len(mixed):
                del mixed[at]
        if rng.random() < 0.05:
            mixed.insert(rng.randrange(1, len(mixed) + 1), other_header)
        journals.append(b"".join(mixed))
    refused = 0
    for data in journals:
        journal.write_bytes(data)
        try:
            expected, records, warnings = journal_reference(journal)
        except ValueError:
            refused += 1
            with pytest.raises(ConfigError, match="aaaaaaaaaaaa"):
                read_journal(journal)
            continue
        assert _read_like_the_oracle(journal, caplog) \
            == (expected, [repr(record) for record in records], warnings), data
    assert 0 < refused < len(journals) // 10


def test_read_journal_decodes_only_the_header_of_a_written_journal(
        golden_dir: Path, tmp_path: Path, monkeypatch):
    # Every unit line evaluate_run writes, a non-ASCII document id's too,
    # is read from the pattern of the writer's own format.
    journal = tmp_path / "partial.jsonl"
    results = list(evaluate_run(_golden_config(golden_dir, "partial"),
                                journal_path=journal))
    wide = results[0]._replace(key=PageKey(_WIDE_DOC, 0))
    with open(journal, "a", encoding="utf-8") as handle:
        handle.write(unit_result_to_line(wide) + "\n")
    decoded = []
    decode = pipeline._decode

    def counted(text):
        decoded.append(text)
        return decode(text)

    monkeypatch.setattr(pipeline, "_decode", counted)
    header, journalled = read_journal(journal)
    first, *lines = journal.read_text(encoding="utf-8").splitlines()
    assert decoded == [first]
    assert header == json.loads(first)
    assert [unit_result_to_line(r) for r in journalled] == lines
    assert len(lines) == len(results) + 1


def test_read_journal_refuses_a_second_header_with_another_config(
        golden_dir: Path, tmp_path: Path):
    golden = (golden_dir / "expected" / "partial.jsonl").read_bytes()
    header, *lines = golden.splitlines(keepends=True)
    other = json.dumps(dict(json.loads(header), config="aaaaaaaaaaaa"),
                       separators=(",", ":")).encode() + b"\n"
    journal = tmp_path / "partial.jsonl"
    mixed = other + b"".join(lines[:2]) + header + b"".join(lines[2:4])
    journal.write_bytes(mixed)
    with pytest.raises(ConfigError, match="line 4 .*'40a363383a7b'.*"
                                          "line 1 .*'aaaaaaaaaaaa'"):
        read_journal(journal)
    with pytest.raises(ConfigError, match="line 4"):
        list(evaluate_run(_golden_config(golden_dir, "partial"),
                          journal_path=journal))
    assert journal.read_bytes() == mixed


def test_read_journal_skips_a_repeated_header(golden_dir: Path,
                                              tmp_path: Path, caplog):
    golden = golden_dir / "expected" / "partial.jsonl"
    header, *lines = golden.read_bytes().splitlines(keepends=True)
    journal = tmp_path / "partial.jsonl"
    journal.write_bytes(header + b"".join(lines[:2]) + header
                        + b"".join(lines[2:]))
    with caplog.at_level(logging.WARNING, logger="docbench.pipeline"):
        assert read_journal(journal) == read_journal(golden)
    assert [r.getMessage() for r in caplog.records] \
        == ["skipping repeated header on journal line 4"]


@pytest.mark.parametrize("jobs", (1, 2))
@pytest.mark.parametrize("kept", ("every line", "every other line"))
def test_resume_yields_records_equal_to_the_journal(golden_dir: Path,
                                                    tmp_path: Path,
                                                    jobs: int, kept: str):
    golden = (golden_dir / "expected" / "partial.jsonl").read_bytes()
    header, *lines = golden.splitlines(keepends=True)
    if kept == "every other line":
        lines = lines[::2]
    journal = tmp_path / "partial.jsonl"
    journal.write_bytes(header + b"".join(lines))
    _, journalled = read_journal(journal)
    config = _golden_config(golden_dir, "partial", parallelism=jobs)
    results = list(evaluate_run(config, journal_path=journal))
    assert len(results) == 9
    for result in results:
        assert type(result) is UnitResult
        assert type(result.key) is PageKey
        assert type(result.scores) is DocumentScores
    units = {(r.key, r.label) for r in journalled}
    resumed = [r for r in results if (r.key, r.label) in units]
    assert [r._asdict() for r in resumed] == [r._asdict() for r in journalled]
    if kept == "every line":
        assert journal.read_bytes() == golden


def test_unit_result_pickles_by_class_reference():
    scores = DocumentScores(0.5, 0.25, 1.0 / 3.0, 0.9, 4, 8,
                            ("EmptyGroundTruth",))
    result = UnitResult(PageKey("1401.0001", 2), "table", STATUS_SCORED, scores)
    data = pickle.dumps(result)
    assert b"docbench.pipeline" in data and b"UnitResult" in data
    again = pickle.loads(data)
    assert again == result
    assert type(again) is UnitResult
    assert type(again.key) is PageKey
    assert type(again.scores) is DocumentScores


def test_read_journal_memory_per_unit(tmp_path: Path):
    """A journal's records stay small: 20K units retain under 560 B each."""
    rng = random.Random(7)
    statuses = (STATUS_SCORED, STATUS_SCORED, STATUS_MISSING, STATUS_ERROR)
    lines = ['{"doc":"2101.%05d","page":%d,"label":"%s","status":"%s",'
             '"p":%.6f,"r":%.6f,"f1":%.6f,"acc":%.6f,"m":%d,"n":%d}' % (
                 doc, page, label, rng.choice(statuses), rng.random(),
                 rng.random(), rng.random(), rng.random(), rng.randrange(40),
                 rng.randrange(40))
             for doc in range(2500) for page in range(2)
             for label in ("author", "paragraph", "section", "title")]
    journal = tmp_path / "big.jsonl"
    journal.write_text('{"kind":"header","config":"0"}\n'
                       + "".join(line + "\n" for line in lines),
                       encoding="utf-8")
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        _, results = read_journal(journal)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(results) == 20_000
    assert retained / len(results) < 560


def test_worker_count_is_capped_at_cpu_count(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert worker_count(10_000) == 4
    assert worker_count(3) == 3
    assert worker_count(1) == 1
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert worker_count(10_000) == 1


def _doc_scope_corpus(root: Path) -> dict:
    """Four two-page documents with document-wide JSON output: two whole,
    one without an output file and one whose JSON is cut short."""
    gt_root, out_root = root / "gt", root / "out"
    gt_root.mkdir()
    out_root.mkdir()
    statuses = ("scored", "missing", "scored", "truncated")
    for d, status in enumerate(statuses):
        doc = f"2101.{d:05d}"
        blocks = []
        for page in range(2):
            title = [f"Title{d}x{page}", "of", "page"]
            words = [f"w{d}{page}{i}" for i in range(12)]
            lines = [f"{t}\t0\t0\t1\t1\t0\t0\t0\tF\ttitle" for t in title]
            lines += [f"{t}\t0\t0\t1\t1\t0\t0\t0\tF\tparagraph"
                      for t in words]
            (gt_root / f"{doc}_{page}.txt").write_text(
                "\n".join(lines) + "\n", encoding="utf-8")
            blocks += [" ".join(title), " ".join(words[:6]),
                       " ".join(words[6:11] + ["noise"])]
        text = json.dumps({"titles": blocks[::3],
                           "blocks": [{"text": b} for b in blocks]})
        if status == "truncated":
            text = text[:len(text) // 2]
        if status != "missing":
            (out_root / f"{doc}.json").write_text(text, encoding="utf-8")
    return dict(output_root=out_root, gt_root=gt_root,
                labels=("paragraph", "title"),
                adapter=AdapterConfig("scopetool", "json",
                                      {"paragraph": "blocks.text",
                                       "title": "titles"},
                                      scope="document"))


def test_each_output_file_is_read_once_in_both_scopes(golden_dir: Path,
                                                      tmp_path: Path,
                                                      monkeypatch):
    runs = {
        "page": (_golden_config(golden_dir, "partial"),
                 {p.name for p in (golden_dir / "out" / "partial").iterdir()}),
        "document": (RunConfig(**_doc_scope_corpus(tmp_path)),
                     {f"2101.{d:05d}.json" for d in (0, 2, 3)}),
    }
    read = pipeline.read_records
    for scope, (config, files) in runs.items():
        calls: Counter = Counter()

        def counted(path, adapter, labels):
            calls[path.name] += 1
            return read(path, adapter, labels)

        journals = {}
        for jobs in (1, 2, 3):
            journal = tmp_path / f"{scope}{jobs}.jsonl"
            # Patched at one job only: a pool forked now would keep the patch.
            with monkeypatch.context() as patch:
                if jobs == 1:
                    patch.setattr(pipeline, "read_records", counted)
                results = list(evaluate_run(
                    dataclasses.replace(config, parallelism=jobs),
                    journal_path=journal))
            journals[jobs] = journal.read_bytes()
        assert journals[1] == journals[2] == journals[3]
        assert calls == Counter(files), scope
    assert Counter(r.status for r in results) == {
        STATUS_SCORED: 8, STATUS_MISSING: 4, STATUS_ERROR: 4}


def test_each_output_file_is_looked_up_once_per_document(golden_dir: Path,
                                                         tmp_path: Path,
                                                         monkeypatch):
    # The null tool has no output file, so a missing file is looked up once
    # for a page's two or three labels; the third document of the document
    # scope corpus has none for its four units.
    runs = {
        "page": _golden_config(golden_dir, "partial"),
        "page, no output": _golden_config(golden_dir, "null"),
        "document": RunConfig(**_doc_scope_corpus(tmp_path)),
    }
    is_file, read = Path.is_file, pipeline.read_records
    for scope, config in runs.items():
        looked: Counter = Counter()
        parsed: Counter = Counter()

        def counted_is_file(path):
            if path.parent == Path(config.output_root):
                looked[path.name] += 1
            return is_file(path)

        def counted_read(path, adapter, labels):
            parsed[path.name] += 1
            return read(path, adapter, labels)

        monkeypatch.setattr(Path, "is_file", counted_is_file)
        monkeypatch.setattr(pipeline, "read_records", counted_read)
        results = list(evaluate_run(config))
        monkeypatch.undo()
        names = {config.adapter.output_path(r.key.document_id, r.key.page_index)
                 for r in results}
        assert len(names) < len(results), scope
        assert looked == Counter(names), scope
        assert parsed == Counter(name for name in names
                                 if (Path(config.output_root) / name).is_file())


def _one_page_corpus(root: Path, tokens: dict[str, str]) -> Path:
    """Ground truth for page 2101.00000_0: one token per label."""
    gt_root = root / "gt"
    gt_root.mkdir()
    (gt_root / "2101.00000_0.txt").write_text("".join(
        f"{text}\t0\t0\t1\t1\t0\t0\t0\tF\t{label}\n"
        for label, text in tokens.items()), encoding="utf-8")
    return gt_root


def test_csv_output_scores_only_the_table_label(tmp_path: Path):
    gt_root = _one_page_corpus(tmp_path, {"paragraph": "Intro", "table": "Acc"})
    (tmp_path / "2101.00000_0.csv").write_text("Intro,Acc\n", encoding="utf-8")
    config = RunConfig(output_root=tmp_path, gt_root=gt_root,
                       adapter=AdapterConfig("tab", "csv"),
                       labels=("paragraph", "table"))
    paragraph, table = evaluate_run(config)
    assert (paragraph.label, paragraph.status) == ("paragraph", STATUS_SCORED)
    assert (paragraph.scores.precision, paragraph.scores.recall) == (0.0, 0.0)
    assert paragraph.scores.m == 0
    assert (table.scores.precision, table.scores.recall) == (0.5, 1.0)
    record, _ = resolve_output(EvaluationUnit(paragraph.key, "paragraph",
                                              ("Intro",)), config)
    assert record.units == () and record.flags == ("SelectorMiss",)


FORMAT_OUTPUTS = {
    "xml": ({"paragraph": "body/p", "title": "title"}, "{doc}_{page}.xml",
            "<doc><title>{title}</title><body><p>{paragraph}</p>"
            "<p>noise</p></body></doc>"),
    "json": ({"paragraph": "blocks.text", "title": "meta.title"},
             "{doc}_{page}.json",
             '{{"meta": {{"title": "{title}"}}, "blocks": '
             '[{{"text": "{paragraph}"}}, {{"text": "noise"}}]}}'),
    "csv": ({}, "{doc}_{page}.csv", "{table}\nnoise,{title}\n"),
}


@pytest.mark.skipif(worker_count(2) < 2, reason="a worker pool needs 2 CPUs")
@pytest.mark.parametrize("fmt", FORMAT_OUTPUTS)
def test_pool_journal_equals_the_inline_one_in_every_format(tmp_path: Path,
                                                            fmt: str):
    """Each pool task pickles the config, its compiled selectors too."""
    selectors, template, body = FORMAT_OUTPUTS[fmt]
    gt_root, out_root = tmp_path / "gt", tmp_path / "out"
    gt_root.mkdir()
    out_root.mkdir()
    for d in range(2):
        doc = f"2101.{d:05d}"
        words = {"paragraph": f"Intro{d} text", "table": f"Acc{d},0.9{d}",
                 "title": f"Deep{d} Parsing"}
        (gt_root / f"{doc}_0.txt").write_text("".join(
            f"{token}\t0\t0\t1\t1\t0\t0\t0\tF\t{label}\n"
            for label, text in words.items()
            for token in text.replace(",", " ").split()), encoding="utf-8")
        (out_root / template.format(doc=doc, page=0)).write_text(
            body.format(**words), encoding="utf-8")
    config = RunConfig(output_root=out_root, gt_root=gt_root,
                       adapter=AdapterConfig("t", fmt, selectors),
                       labels=("paragraph", "table", "title"))
    journals = []
    for jobs in (1, 2):
        journal = tmp_path / f"jobs{jobs}.jsonl"
        results = list(evaluate_run(dataclasses.replace(config, parallelism=jobs),
                                    journal_path=journal))
        journals.append(journal.read_bytes())
    assert journals[0] == journals[1]
    assert len(results) == 6
    assert all(r.status == STATUS_SCORED for r in results)
    assert any(r.scores.f1 > 0 for r in results)


def test_unreadable_file_is_logged_once(tmp_path: Path, caplog):
    labels = {"author": "Shiu", "paragraph": "Intro", "title": "Deep"}
    gt_root = _one_page_corpus(tmp_path, labels)
    (tmp_path / "2101.00000_0.json").write_text('{"title": "De',
                                                encoding="utf-8")
    config = RunConfig(output_root=tmp_path, gt_root=gt_root,
                       adapter=AdapterConfig("js", "json",
                                             {label: label for label in labels}),
                       labels=tuple(labels))
    journal = tmp_path / "run.jsonl"
    with caplog.at_level(logging.WARNING, logger="docbench.pipeline"):
        list(evaluate_run(config, journal_path=journal))
    [warning] = caplog.records
    assert "2101.00000_0.json" in warning.getMessage()
    _, results = read_journal(journal)
    assert [r.status for r in results] == [STATUS_ERROR] * 3


def _one_worker_peaks(tmp_path: Path, sizes: tuple[int, ...], tokens: int):
    """tracemalloc's peak over a one-worker run of each corpus, of that many
    two-page documents with that many distinct paragraph tokens a page and
    no tool output; and the last corpus's config and index."""
    peaks = []
    for documents in sizes:
        root = tmp_path / f"gt{len(peaks)}"
        root.mkdir()
        for d in range(documents):
            for page in range(2):
                (root / f"2101.{d:05d}_{page}.txt").write_text("".join(
                    f"w{d}p{page}t{i}\t0\t0\t1\t1\t0\t0\t0\tF\tparagraph\n"
                    for i in range(tokens)), encoding="utf-8")
        config = RunConfig(output_root=root / "none", gt_root=root,
                           labels=("paragraph",), adapter=AdapterConfig("t", "text"))
        index = index_corpus(root)
        gc.collect()
        tracemalloc.start()
        try:
            for _ in evaluate_run(config, index):
                pass
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return peaks, config, index


def test_one_worker_memory_is_bounded_by_the_run(tmp_path: Path, monkeypatch,
                                                 count_gt_parses):
    """A corpus four times larger peaks no higher: one run's units are held
    at a time, and the first result waits for one run's parses only."""
    monkeypatch.setattr(pipeline, "_RUN_PAGES", 2)
    # the first pass loads what scoring imports
    peaks, config, index = _one_worker_peaks(tmp_path, (8, 8, 32), 300)
    _, small, large = peaks
    # One page's tokens alone take ~20 KB.
    assert large - small < 24 * 1024, peaks
    parsed = count_gt_parses()
    results = evaluate_run(config, index)
    next(results)
    assert parsed() == ["2101.00000:0", "2101.00000:1"]
    results.close()


def test_one_worker_takes_page_plans_run_by_run(tmp_path: Path, monkeypatch):
    """A corpus four times larger peaks no higher: with one worker each
    page's plan is made when its run is taken, not for the whole corpus
    before the first run. Both corpora are large enough that the
    interpreter's free lists, which tracemalloc counts, have filled."""
    monkeypatch.setattr(pipeline, "_RUN_PAGES", 2)
    peaks, _, _ = _one_worker_peaks(tmp_path, (8, 128, 512), 1)
    _, small, large = peaks
    # Holding the 768 added pages' plans at once took ~145 KB.
    assert large - small < 4 * 1024, peaks


@pytest.mark.parametrize("run_pages", (1, 2))
def test_runs_of_whole_documents_give_the_clean_bytes(golden_dir: Path,
                                                     tmp_path: Path,
                                                     monkeypatch,
                                                     run_pages: int):
    """With runs of one page, each of the three documents is a run; with two,
    the first document is one and the other two the next. A run cut after
    any unit, at a run boundary (after the third unit, and with runs of one
    page the sixth) or inside a run, resumes to the clean bytes."""
    monkeypatch.setattr(pipeline, "_RUN_PAGES", run_pages)
    golden = (golden_dir / "expected" / "partial.jsonl").read_bytes()
    config = _golden_config(golden_dir, "partial")
    for jobs in (1, 2):
        journal = tmp_path / f"jobs{jobs}.jsonl"
        list(evaluate_run(dataclasses.replace(config, parallelism=jobs),
                          journal_path=journal))
        assert journal.read_bytes() == golden, jobs
    header, *lines = golden.splitlines(keepends=True)
    journal = tmp_path / "cut.jsonl"
    for taken in range(1, len(lines) + 1):
        journal.unlink(missing_ok=True)
        results = evaluate_run(config, journal_path=journal)
        for _ in zip(range(taken), results):
            pass
        results.close()
        assert journal.read_bytes() == header + b"".join(lines[:taken])
        list(evaluate_run(config, journal_path=journal))
        assert journal.read_bytes() == golden, taken


def test_one_worker_run_loads_no_process_pool_modules(golden_dir: Path):
    script = f"""
import sys
from pathlib import Path
import docbench
from docbench.interchange import load_adapter_config
from docbench.pipeline import RunConfig, evaluate_run
golden = Path({str(golden_dir)!r})
config = RunConfig(output_root=golden / "out" / "partial",
                   adapter=load_adapter_config(golden / "adapters" / "partial.json"),
                   labels={GOLDEN_LABELS!r}, gt_root=golden / "gt")
assert len(list(evaluate_run(config))) == 9
print(sorted({{"multiprocessing", "concurrent.futures.process"}} & set(sys.modules)))
"""
    src = str(Path(docbench.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@contextlib.contextmanager
def _deadline(seconds: int):
    def expire(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.skipif(worker_count(2) < 2, reason="a worker pool needs 2 CPUs")
def test_killed_worker_breaks_one_run_then_a_fresh_pool_serves(
        golden_dir: Path, tmp_path: Path):
    sequential = tmp_path / "seq.jsonl"
    list(evaluate_run(_golden_config(golden_dir, "partial"),
                      journal_path=sequential))
    config = _golden_config(golden_dir, "partial", parallelism=2)
    list(evaluate_run(config))
    victim = multiprocessing.active_children()[0]
    os.kill(victim.pid, signal.SIGKILL)
    assert wait([victim.sentinel], timeout=30)
    parallel = tmp_path / "par.jsonl"
    with _deadline(60):
        with pytest.raises(BrokenProcessPool):
            list(evaluate_run(config))
        list(evaluate_run(config, journal_path=parallel))
    assert parallel.read_bytes() == sequential.read_bytes()


def test_pool_is_replaced_when_the_worker_count_changes(golden_dir: Path,
                                                       tmp_path: Path,
                                                       monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    sequential = tmp_path / "seq.jsonl"
    list(evaluate_run(_golden_config(golden_dir, "partial"),
                      journal_path=sequential))
    for jobs in (3, 2):
        journal = tmp_path / f"jobs{jobs}.jsonl"
        list(evaluate_run(_golden_config(golden_dir, "partial",
                                         parallelism=jobs),
                          journal_path=journal))
        assert journal.read_bytes() == sequential.read_bytes()
        assert len(multiprocessing.active_children()) == jobs


def test_evaluate_run_accepts_prebuilt_index(golden_dir: Path):
    config = _golden_config(golden_dir, "perfect", gt_root=None)
    with pytest.raises(ConfigError):
        list(evaluate_run(config))
    index = index_corpus(golden_dir / "gt")
    results = list(evaluate_run(config, index=index))
    assert len(results) == 9


def test_read_journal_round_trip_and_resilience(golden_dir: Path,
                                                tmp_path: Path):
    config = _golden_config(golden_dir, "partial")
    journal = tmp_path / "partial.jsonl"
    emitted = list(evaluate_run(config, journal_path=journal))
    header, recovered = read_journal(journal)
    assert header is not None
    assert header["config"] == config_hash(config)
    assert [(r.key, r.label, r.status) for r in recovered] \
        == [(r.key, r.label, r.status) for r in emitted]
    for loaded, original in zip(recovered, emitted):
        assert loaded.scores.m == original.scores.m
        assert loaded.scores.n == original.scores.n
        assert abs(loaded.scores.f1 - original.scores.f1) < 5e-7

    # a malformed line is skipped, not fatal
    with open(journal, "a", encoding="utf-8") as handle:
        handle.write("{truncated\n")
    _, again = read_journal(journal)
    assert len(again) == len(recovered)


def test_read_journal_counts_a_repeated_unit_once(golden_dir: Path,
                                                  tmp_path: Path, caplog):
    golden = golden_dir / "expected" / "partial.jsonl"
    lines = golden.read_text(encoding="utf-8").splitlines()
    repeat = json.loads(lines[1])
    repeat["p"] = 0.1  # a later line for the same unit does not override
    journal = tmp_path / "partial.jsonl"
    journal.write_text("\n".join(lines + [lines[1], json.dumps(repeat)]) + "\n",
                       encoding="utf-8")
    with caplog.at_level(logging.WARNING, logger="docbench.pipeline"):
        _, results = read_journal(journal)
    assert results == read_journal(golden)[1]
    assert sum("repeated unit" in r.message for r in caplog.records) == 2
    [row] = [r for r in aggregate(results, tool="partial")
             if r.label == "paragraph"]
    assert (row.detected, row.processed) == (2, 2)


def test_zero_score_labels_partial_tool(golden_dir: Path):
    config = _golden_config(golden_dir, "partial")
    results = list(evaluate_run(config))
    assert zero_score_labels(results) == frozenset({"reference", "table"})


def test_zero_score_labels_mixed_units():
    zero = DocumentScores(0.0, 0.0, 0.0, 0.0, 0, 3)
    hit = DocumentScores(1.0, 1.0, 1.0, 1.0, 2, 2)
    results = [
        UnitResult(PageKey("d", 0), "table", STATUS_MISSING, zero),
        UnitResult(PageKey("d", 1), "table", STATUS_SCORED, hit),
        UnitResult(PageKey("d", 0), "figure", STATUS_MISSING, zero),
    ]
    assert zero_score_labels(results) == frozenset({"figure"})
