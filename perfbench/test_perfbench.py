"""Tests of the benchmark itself: generator determinism, small-size smoke runs
of every workload, and the correctness gate rejecting planted faults.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import corpora
import gate
import run

ROOT = run.ROOT
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
sys.path.insert(0, str(ROOT / "src"))


def _tree(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.fixture
def small(monkeypatch):
    """Shrink every workload to a few pages, keeping every planted status."""
    monkeypatch.setattr(corpora, "DENSE_PAGES", 1)
    monkeypatch.setattr(corpora, "DENSE_LABELS",
                        (("section", 3), ("paragraph", 20), ("equation", 5),
                         ("reference", 6), ("caption", 4), ("list", 4),
                         ("footer", 2)))
    monkeypatch.setattr(corpora, "SCOPE_DOCS", 1)
    monkeypatch.setattr(corpora, "SCOPE_PAGES_PER_DOC", 2)
    monkeypatch.setattr(corpora, "SCOPE_GT_TOKENS", 16)
    monkeypatch.setattr(corpora, "SCOPE_JUNK_PER_DOC", 2)
    monkeypatch.setattr(corpora, "SCOPE_BROKEN_PAGES", 1)
    monkeypatch.setattr(corpora, "SPARSE_PAGES", 12)
    monkeypatch.setattr(corpora, "SPARSE_MISSING", 1)
    monkeypatch.setattr(corpora, "SPARSE_ERROR", 1)


@pytest.mark.parametrize("workload", sorted(corpora.WORKLOADS))
def test_same_seed_same_bytes(workload, tmp_path):
    a = corpora.generate(workload, tmp_path / "a", 7)
    b = corpora.generate(workload, tmp_path / "b", 7)
    c = corpora.generate(workload, tmp_path / "c", 8)
    assert _tree(tmp_path / "a") == _tree(tmp_path / "b")
    assert _tree(tmp_path / "a") != _tree(tmp_path / "c")
    assert [(u.doc, u.page, u.label, u.status) for u in a.units] == \
        [(u.doc, u.page, u.label, u.status) for u in b.units]
    # Fixed input size: the seed changes contents, never the unit population
    # or the statuses planted.
    assert [(u.doc, u.page, u.label) for u in a.units] == \
        [(u.doc, u.page, u.label) for u in c.units]
    assert sorted(u.status for u in a.units) == sorted(u.status for u in c.units)


@pytest.mark.parametrize("workload", sorted(corpora.WORKLOADS))
def test_every_planted_status_occurs(workload, tmp_path):
    manifest = corpora.generate(workload, tmp_path, 3)
    statuses = {u.status for u in manifest.units}
    assert corpora.SCORED in statuses and corpora.MISSING in statuses
    # A text adapter cannot fail to parse, so page_dense plants no errors.
    assert (corpora.ERROR in statuses) == (workload != "page_dense")


def _last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(corpora.WORKLOADS))
def test_smoke(workload, trace, small, capsys, tmp_path):
    code = run.main(["--workload", workload, "--seed", "5", "--seconds", "1",
                     "--trace", str(trace)])
    out = _last_json(capsys.readouterr().out)
    assert code == 0
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0
    assert out["attempted"] == len(corpora.generate(workload, tmp_path, 5).units)
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == \
        {name: m["unit"] for name, m in out["metrics"].items()}


def _journal(manifest, path: Path) -> Path:
    from docbench import corpus, interchange, pipeline
    config = pipeline.RunConfig(
        output_root=manifest.output_root,
        adapter=interchange.load_adapter_config(manifest.adapter_path),
        labels=manifest.labels)
    index = corpus.index_corpus(manifest.gt_root)
    results = list(pipeline.evaluate_run(config, index, path))
    lines = path.parent / "resume_lines.txt"
    lines.write_text("".join(
        gate.result_line(r.key.document_id, r.key.page_index, r.label,
                         r.status, r.scores.precision, r.scores.recall,
                         r.scores.f1, r.scores.accuracy, r.scores.m,
                         r.scores.n) + "\n"
        for r in results), encoding="utf-8")
    return path


def _tamper(path: Path, how: str, target: tuple) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    out = []
    for line in lines:
        record = json.loads(line)
        key = (record.get("doc"), record.get("page"), record.get("label"))
        if key != target:
            out.append(line)
        elif how == "status":
            record["status"] = ("tool_output_missing"
                                if record["status"] == "scored" else "scored")
            out.append(json.dumps(record))
        elif how == "score":
            record["acc"] = round(record["acc"] - 0.000001, 6)
            out.append(json.dumps(record))
        elif how == "duplicate":
            out += [line, line]
        elif how == "malformed":
            out.append(line[:-5])
        # "drop": leave the line out
    path.write_text("\n".join(out) + "\n", encoding="utf-8")


@pytest.mark.parametrize("how", ["status", "score", "duplicate", "drop",
                                 "malformed"])
@pytest.mark.parametrize("workload", sorted(corpora.WORKLOADS))
def test_gate_rejects_planted_fault(workload, how, small, tmp_path):
    manifest = corpora.generate(workload, tmp_path / "corpus", 11)
    journal = _journal(manifest, tmp_path / "journal.jsonl")
    oracles = gate.load_oracles(ROOT / "tests" / "oracles.py")
    resume = tmp_path / "resume_lines.txt"
    verdict = gate.check(manifest, journal, journal, resume, {}, oracles, 11)
    assert verdict.correct and verdict.failed == 0

    target = sorted(gate._sample(manifest, 11))[0]
    tampered = tmp_path / "tampered.jsonl"
    shutil.copy(journal, tampered)
    _tamper(tampered, how, target)
    verdict = gate.check(manifest, tampered, tampered, resume, {}, oracles, 11)
    assert not verdict.correct
    assert verdict.failed_units == {target}
    # And the journals now differ from the untouched parallelism=2 one.
    verdict = gate.check(manifest, tampered, journal, resume, {}, oracles, 11)
    assert "parallelism=1 and parallelism=2 journals differ" in verdict.problems


def test_run_exits_nonzero_on_planted_fault(small, monkeypatch, capsys):
    real = run.run_child

    def tampering(mode, spec, work):
        result = real(mode, spec, work)
        if mode == "eval":
            journal = work / "journal_p1.jsonl"
            target = json.loads(journal.read_text().splitlines()[1])
            _tamper(journal, "status",
                    (target["doc"], target["page"], target["label"]))
        return result
    monkeypatch.setattr(run, "run_child", tampering)
    code = run.main(["--workload", "pages_sparse", "--seed", "2",
                     "--seconds", "1", "--trace", "0"])
    out = _last_json(capsys.readouterr().out)
    assert code == 1
    assert out["correct"] is False and out["failed"] == 1


def test_refuses_without_docbench_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "page_dense",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
