"""Correctness gate: checks a run's journals against the generator's manifest.

A unit fails when it is missing from the journal or appears twice, when its
status differs from the one the generator planted, when a unit that was not
scored carries a non-zero score, or, on a seeded sample of scored units, when
its p/r/f1/acc at six decimals or its token counts differ from a textbook
recomputation with tests/oracles.py. For document scope the recomputation
also redoes the window rule of restrict_units on `ratio_reference`.

The gate also fails as a whole when the parallelism=1 and parallelism=2
journals differ by one byte, when the resume yielded other results than the
journal holds, or when a check the worker made during the run failed.

The gate reads journals with json alone and never imports docbench.
"""

from __future__ import annotations

import importlib.util
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

from corpora import SCORED, Manifest, Unit

THRESHOLD = 0.7
# Scored units recomputed per label. The oracles use full-table dynamic
# programming in pure Python, ~3 s for one 250-token paragraph unit.
SAMPLE_PER_LABEL = {"page_dense": 1, "doc_scope": 2, "pages_sparse": 25}


@dataclass
class GateResult:
    attempted: int = 0
    failed_units: set = field(default_factory=set)
    problems: list[str] = field(default_factory=list)
    sampled: int = 0

    @property
    def failed(self) -> int:
        return len(self.failed_units)

    @property
    def correct(self) -> bool:
        return not self.problems


def load_oracles(path: Path):
    spec = importlib.util.spec_from_file_location("docbench_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def result_line(doc, page, label, status, p, r, f1, acc, m, n) -> str:
    """One unit's result at journal precision, for comparing result streams."""
    return "%s\t%d\t%s\t%s\t%.6f\t%.6f\t%.6f\t%.6f\t%d\t%d" % (
        doc, page, label, status, p, r, f1, acc, m, n)


FIELDS = ("doc", "page", "label", "status", "p", "r", "f1", "acc", "m", "n")


def read_journal_lines(path: Path) -> tuple[dict | None, list[dict], int]:
    """(header, unit records, count of lines that are not a valid record)."""
    header = None
    records = []
    malformed = 0
    for line in path.read_text(encoding="utf-8").splitlines():
        try:
            payload = json.loads(line)
        except json.JSONDecodeError:
            malformed += 1
            continue
        if not isinstance(payload, dict):
            malformed += 1
        elif payload.get("kind") == "header":
            header = payload
        elif all(name in payload for name in FIELDS):
            records.append(payload)
        else:
            malformed += 1
    return header, records, malformed


def restrict_reference(oracles, items, gt) -> list[tuple[str, ...]]:
    """The window rule: keep an item when its collated text reaches the
    threshold against some window of equally many ground-truth tokens."""
    kept = []
    for item in items:
        width = min(len(item), len(gt))
        text = " ".join(item)
        best = max(oracles.ratio_reference(text, " ".join(gt[s:s + width]))
                   for s in range(len(gt) - width + 1))
        if best >= THRESHOLD:
            kept.append(item)
    return kept


def expected_scores(oracles, manifest: Manifest, unit: Unit):
    items = unit.items
    if manifest.scope == "document":
        items = restrict_reference(oracles, items, unit.gt)
    tokens = [t for item in items for t in item]
    gt = list(unit.gt)
    p, r, f1, _, _ = oracles.prf_bruteforce(
        oracles.matrix_reference(tokens, gt), THRESHOLD)
    acc = oracles.accuracy_reference(tokens, gt)
    return p, r, f1, acc, len(tokens), len(gt)


def _sample(manifest: Manifest, seed: int) -> set:
    rng = random.Random(f"gate:{manifest.workload}:{seed}")
    per_label = SAMPLE_PER_LABEL.get(manifest.workload, 1)
    picked = set()
    for label in manifest.labels:
        scored = [u for u in manifest.units
                  if u.label == label and u.status == SCORED]
        for unit in rng.sample(scored, min(per_label, len(scored))):
            picked.add((unit.doc, unit.page, unit.label))
    return picked


def check(manifest: Manifest, journal_p1: Path, journal_p2: Path,
          resume_lines: Path, worker_checks: dict, oracles, seed: int) -> GateResult:
    result = GateResult()
    for name, ok in worker_checks.items():
        if not ok:
            result.problems.append(f"worker check failed: {name}")
    if journal_p1.read_bytes() != journal_p2.read_bytes():
        result.problems.append("parallelism=1 and parallelism=2 journals differ")

    header, records, malformed = read_journal_lines(journal_p1)
    if header is None:
        result.problems.append("journal has no header line")
    if malformed:
        result.problems.append(f"{malformed} malformed journal lines")
    seen: dict[tuple, list[dict]] = {}
    for record in records:
        key = (record["doc"], int(record["page"]), record["label"])
        seen.setdefault(key, []).append(record)

    journal_lines = [result_line(r["doc"], r["page"], r["label"], r["status"], r["p"],
                          r["r"], r["f1"], r["acc"], r["m"], r["n"])
                     for r in records]
    if resume_lines.read_text(encoding="utf-8").splitlines() != journal_lines:
        result.problems.append("resume yielded results other than the journal's")

    expected = {(u.doc, u.page, u.label): u for u in manifest.units}
    sample = _sample(manifest, seed)
    result.sampled = len(sample)
    result.attempted = len(expected.keys() | seen.keys())
    for key in seen.keys() - expected.keys():
        result.failed_units.add(key)
    for key, unit in expected.items():
        got = seen.get(key, [])
        if len(got) != 1:
            result.failed_units.add(key)
            continue
        record = got[0]
        if record["status"] != unit.status or record["n"] != len(unit.gt):
            result.failed_units.add(key)
            continue
        scores = (record["p"], record["r"], record["f1"], record["acc"], record["m"])
        if unit.status != SCORED:
            if any(scores):
                result.failed_units.add(key)
            continue
        if manifest.scope == "page" and \
                record["m"] != sum(len(item) for item in unit.items):
            result.failed_units.add(key)
        elif key in sample:
            want = expected_scores(oracles, manifest, unit)
            if _six(want) != _six((*scores, record["n"])):
                result.failed_units.add(key)
    if result.failed_units:
        result.problems.append(f"{result.failed} of {result.attempted} units "
                               "failed the gate")
    return result


def _six(values) -> tuple:
    return tuple("%.6f" % v for v in values)
