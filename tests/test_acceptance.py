"""Acceptance gate: nine criteria, one printed PASS/FAIL line each.

Each test prints its verdict through the capture bypass so the lines are
visible in any pytest run. Tolerances are pinned inside each criterion.
A time floor for document-scope restriction follows criterion 9.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from docbench.corpus import PageKey
from docbench.interchange import (AdapterConfig, load_adapter_config,
                                  restrict_units)
from docbench.metrics import (DocumentScores, MatchConfig, SimilarityMatrix,
                              edit_distance, f1, lev_ratio, precision, recall,
                              score_document, similarity_matrix)
from docbench.journal import STATUS_MISSING, UnitResult, read_journal
from docbench.pipeline import RunConfig, evaluate_run
from docbench.report import (AggregateRow, aggregate, cumulative_f1,
                             round_half_even)

from oracles import distance_via_lcs, prf_bruteforce

GOLDEN = Path(__file__).parent / "fixtures" / "golden"
GOLDEN_LABEL_ARG = "abstract,author,paragraph,reference,section,table,title"

_WORDS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"


@contextmanager
def criterion(capsys, num: int, name: str):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"ACCEPTANCE {num} {name}: FAIL")
        raise
    with capsys.disabled():
        print(f"ACCEPTANCE {num} {name}: PASS")


def _word(rng: random.Random, low: int = 0, high: int = 12) -> str:
    return "".join(rng.choice(_WORDS) for _ in range(rng.randint(low, high)))


def test_criterion_1_worked_example(capsys):
    with criterion(capsys, 1, "worked example"):
        authors = ["Yuta", "Hamada", "Gary", "Shiu"]
        best = float("inf")
        for _ in range(10):
            started = time.perf_counter()
            distance = edit_distance("Gary", "Yuta", 2)
            ratio = lev_ratio("Gary", "Yuta")
            matrix = similarity_matrix(authors, authors)
            best = min(best, time.perf_counter() - started)
        assert distance == 6
        assert ratio == 0.25
        assert np.array_equal(np.diag(matrix.values), np.ones(4))
        assert best < 0.001, f"worked example took {best * 1000:.3f} ms"


def test_criterion_2_cumulative_f1(capsys):
    with criterion(capsys, 2, "cumulative f1"):
        def row(label, value):
            return AggregateRow(tool="t", label=label, detected=1, processed=1,
                                acc=value, f1=value, p=value, r=value,
                                acc_detected=value, f1_detected=value,
                                p_detected=value, r_detected=value)
        rows = [row("title", 0.91), row("abstract", 0.82), row("author", 0.52)]
        summary = cumulative_f1(rows, "metadata")
        assert summary.cumulative_f1 == 2.25
        assert summary.max_possible == 3


def test_criterion_3_rounded_f1_presentation(capsys):
    with criterion(capsys, 3, "rounded f1 presentation"):
        assert round_half_even(f1(0.45, 0.49), 2) == 0.47
        assert round_half_even(f1(0.91, 0.92), 2) == 0.91


def test_criterion_4_oracle_equivalence(capsys):
    with criterion(capsys, 4, "oracle equivalence"):
        started = time.perf_counter()
        rng = random.Random(20140817)

        # cost-2 distance against the LCS identity
        for _ in range(1000):
            a, b = _word(rng), _word(rng)
            assert edit_distance(a, b, 2) == distance_via_lcs(a, b)

        # precision/recall against explicit row/column loops
        for case in range(1000):
            m, n = rng.randint(0, 10), rng.randint(0, 10)
            values = np.zeros((m, n), dtype=np.float64)
            for i in range(m):
                for j in range(n):
                    values[i, j] = round(rng.random(), 3)
            threshold = rng.choice([0.0, 0.25, 0.5, 0.7, 1.0])
            if m and n and case % 3 == 0:
                values[rng.randrange(m), rng.randrange(n)] = threshold
            matrix = SimilarityMatrix(values)
            expected_p, expected_r, _, _, _ = prf_bruteforce(
                [list(row) for row in values], threshold)
            assert precision(matrix, threshold) == expected_p
            assert recall(matrix, threshold) == expected_r

        # aggregate means against the correctly rounded sum over the count
        results = []
        labels = ("title", "table", "reference", "paragraph")
        for i in range(1000):
            value = round(rng.random(), 4) if rng.random() > 0.3 else 0.0
            scores = DocumentScores(precision=value, recall=value, f1=value,
                                    accuracy=value, m=1, n=1)
            results.append(UnitResult(PageKey("1401.0001", i),
                                      rng.choice(labels), "scored", scores))
        rows = aggregate(results, tool="t")
        for row in rows:
            units = [r for r in results if r.label == row.label]
            hits = [r.scores.f1 for r in units if r.scores.f1 > 0.0]
            assert row.detected == len(units)
            assert row.processed == len(hits)
            assert row.f1 == (math.fsum(hits) / len(hits) if hits else 0.0)
            everything = [r.scores.f1 for r in units]
            assert row.f1_detected == math.fsum(everything) / len(everything)

        elapsed = time.perf_counter() - started
        assert elapsed < 30.0, f"oracle suite took {elapsed:.1f} s"


def test_criterion_5_metric_invariants(capsys):
    with criterion(capsys, 5, "metric invariants"):
        rng = random.Random(20140818)
        assert f1(0.0, 0.0) == 0.0

        for _ in range(1000):
            a, b = _word(rng), _word(rng)
            assert lev_ratio(a, b) == lev_ratio(b, a)
            assert lev_ratio(a, a) == 1.0

        zero_threshold = MatchConfig(threshold=0.0)
        for _ in range(1000):
            extracted = [_word(rng, 1, 6) for _ in range(rng.randint(1, 6))]
            gt = [_word(rng, 1, 6) for _ in range(rng.randint(1, 6))]

            scores = score_document(extracted, gt)
            for value in (scores.precision, scores.recall,
                          scores.f1, scores.accuracy):
                assert 0.0 <= value <= 1.0

            floor = score_document(extracted, gt, zero_threshold)
            assert floor.precision == 1.0 and floor.recall == 1.0

            shuffled = gt[:]
            rng.shuffle(shuffled)
            scrambled = score_document(extracted, shuffled)
            assert scrambled.precision == scores.precision
            assert scrambled.recall == scores.recall
            assert scrambled.f1 == scores.f1


def _cli(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "docbench.cli", *argv],
                          capture_output=True, text=True, timeout=120)


def test_criterion_6_golden_end_to_end(capsys, tmp_path):
    with criterion(capsys, 6, "golden end-to-end"):
        started = time.perf_counter()
        for tool in ("perfect", "null", "partial"):
            journal = tmp_path / f"{tool}.jsonl"
            proc = _cli("eval",
                        "--gt-root", str(GOLDEN / "gt"),
                        "--tool-output", str(GOLDEN / "out" / tool),
                        "--adapter-config",
                        str(GOLDEN / "adapters" / f"{tool}.json"),
                        "--journal", str(journal),
                        "--labels", GOLDEN_LABEL_ARG)
            assert proc.returncode == 0, proc.stderr
            expected = (GOLDEN / "expected" / f"{tool}.jsonl").read_bytes()
            assert journal.read_bytes() == expected, f"{tool} journal differs"
        for tool in ("null", "partial"):
            out = tmp_path / f"{tool}_report.csv"
            proc = _cli("report", "--journal", str(tmp_path / f"{tool}.jsonl"),
                        "--out", str(out))
            assert proc.returncode == 0, proc.stderr
            expected = (GOLDEN / "expected" / f"{tool}_report.csv").read_bytes()
            assert out.read_bytes() == expected, f"{tool} report differs"
        elapsed = time.perf_counter() - started
        assert elapsed < 5.0, f"golden run took {elapsed:.1f} s"


def test_criterion_7_detected_vs_processed(capsys):
    with criterion(capsys, 7, "detected vs processed"):
        _, results = read_journal(GOLDEN / "expected" / "null.jsonl")
        assert len(results) == 9
        assert all(r.status == STATUS_MISSING for r in results)
        rows = aggregate(results, tool="null")
        assert sum(row.detected for row in rows) == 9
        assert all(row.processed == 0 for row in rows)
        assert all(row.f1 == 0.0 for row in rows)


def test_criterion_8_corpus_scale_procedure(capsys, tmp_path):
    with criterion(capsys, 8, "corpus-scale procedure"):
        readme = (Path(__file__).parent.parent / "README.md") \
            .read_text(encoding="utf-8")
        assert "Evaluating stored tool output" in readme

        config = RunConfig(
            output_root=GOLDEN / "out" / "partial",
            adapter=load_adapter_config(GOLDEN / "adapters" / "partial.json"),
            labels=tuple(GOLDEN_LABEL_ARG.split(",")),
            gt_root=GOLDEN / "gt",
        )
        first = tmp_path / "first.jsonl"
        second = tmp_path / "second.jsonl"
        results = list(evaluate_run(config, journal_path=first))
        list(evaluate_run(config, journal_path=second))
        assert first.read_bytes() == second.read_bytes()
        for result in results:
            s = result.scores
            for value in (s.precision, s.recall, s.f1, s.accuracy):
                assert 0.0 <= value <= 1.0


@pytest.mark.usefixtures("run_per_document")  # 125 runs: on the pool at 4 jobs
def test_criterion_9_performance_and_parallel_determinism(capsys, tmp_path):
    with criterion(capsys, 9, "performance and parallel determinism"):
        rng = random.Random(20140819)
        extracted = ["".join(rng.choice(_WORDS) for _ in range(8))
                     for _ in range(500)]
        gt = ["".join(rng.choice(_WORDS) for _ in range(8))
              for _ in range(500)]
        similarity_matrix(extracted[:4], gt[:4])  # settle the dispatch path
        best = float("inf")
        for _ in range(3):
            started = time.perf_counter()
            matrix = similarity_matrix(extracted, gt)
            best = min(best, time.perf_counter() - started)
        assert matrix.values.shape == (500, 500)
        assert best < 0.100, f"500x500 matrix took {best * 1000:.1f} ms"

        # 1000 synthetic units: parallel journal bytes equal sequential
        labels = ("abstract", "author", "caption", "equation",
                  "figure", "footer", "list", "paragraph")
        gt_root = tmp_path / "gt"
        out_root = tmp_path / "out"
        gt_root.mkdir()
        out_root.mkdir()
        for doc in range(125):
            doc_id = f"1405.{doc:04d}"
            gt_lines = []
            out_lines = []
            for label in labels:
                tokens = [_word(rng, 3, 9) for _ in range(3)]
                gt_lines.extend(
                    f"{t}\t1\t2\t3\t4\t0\t0\t0\tf\t{label}" for t in tokens)
                noisy = list(tokens)
                if rng.random() < 0.3:
                    noisy[0] = _word(rng, 3, 9)
                out_lines.append(" ".join(noisy))
            (gt_root / f"{doc_id}_0.txt").write_text(
                "\n".join(gt_lines) + "\n", encoding="utf-8")
            (out_root / f"{doc_id}_0.txt").write_text(
                "\n".join(out_lines) + "\n", encoding="utf-8")

        adapter = AdapterConfig("synthetic", "text", {
            label: str(i + 1) for i, label in enumerate(labels)})
        journals = {}
        for jobs in (1, 4):
            config = RunConfig(output_root=out_root, adapter=adapter,
                               labels=labels, gt_root=gt_root,
                               parallelism=jobs)
            journal = tmp_path / f"jobs{jobs}.jsonl"
            results = list(evaluate_run(config, journal_path=journal))
            assert len(results) == 1000
            journals[jobs] = journal.read_bytes()
        assert journals[1] == journals[4]


def test_restrict_units_performance_floor():
    # one document-scope unit: 150 reference-like items against a page of
    # 300 ground-truth tokens, half the items noisy copies of a window
    rng = random.Random(20140820)
    gt = tuple(_word(rng, 3, 9) for _ in range(300))
    items = []
    for i in range(150):
        width = rng.randint(4, 12)
        if i % 2:
            start = rng.randrange(len(gt) - width)
            item = list(gt[start:start + width])
            item[rng.randrange(width)] = _word(rng, 3, 9)
        else:
            item = [_word(rng, 3, 9) for _ in range(width)]
        items.append(tuple(item))
    for cost in (2, 1):
        config = MatchConfig(substitution_cost=cost)
        best = float("inf")
        for _ in range(2):
            started = time.perf_counter()
            kept = restrict_units(tuple(items), gt, config)
            best = min(best, time.perf_counter() - started)
        assert len(kept) == 75
        assert best < 1.5, f"restrict_units at cost {cost} took {best:.2f} s"
