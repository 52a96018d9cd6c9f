"""Corpus-scale evaluation runs.

A run walks the ground-truth index, plans one evaluation unit per
(page, label) pair present in the ground truth, locates the corresponding
tool output file, scores it, and appends one JSON line per unit to a journal.
Reruns skip units already journalled, so an interrupted run resumes where it
stopped. Unit order is deterministic (sorted by page key, then label) and
independent of the worker count. The parent turns the index into page plans,
which are planned and scored in runs of whole documents: with one worker, by
the parent one run at a time, so it holds one run's plans and units however
large the corpus is; with more, by pool workers, which parse their own
ground-truth pages, while the parent writes their results in unit order.
"""

from __future__ import annotations

import atexit
import hashlib
import json
import logging
import os
import re
from collections import deque
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import chain, groupby
from pathlib import Path
from typing import Container, Iterable, Iterator, Mapping, NamedTuple

from . import __version__ as HARNESS_VERSION
from .corpus import (DEFAULT_KEY_PATTERN, DEFAULT_LABELS, CorpusIndex,
                     PageKey, index_corpus, parse_gt_page, sample_by_month,
                     validate_label)
from .errors import AdapterError, ConfigError, PathTypeError
from .interchange import (AdapterConfig, ExtractionRecord, read_records,
                          restrict_units)
from .metrics import DEFAULT_MATCH, DocumentScores, MatchConfig, score_document

logger = logging.getLogger(__name__)

HARNESS_NAME = "docbench"
JOURNAL_FORMAT_VERSION = 1

STATUS_SCORED = "scored"
STATUS_MISSING = "tool_output_missing"
STATUS_ERROR = "tool_error_artifact"


@dataclass(frozen=True)
class RunConfig:
    output_root: Path
    adapter: AdapterConfig
    labels: tuple[str, ...]
    gt_root: Path | None = None
    match: MatchConfig = DEFAULT_MATCH
    vocabulary: frozenset[str] = DEFAULT_LABELS
    key_pattern: str = DEFAULT_KEY_PATTERN
    sample: tuple[str, str] | None = None
    parallelism: int = 1

    def __post_init__(self):
        if not self.labels:
            raise ConfigError("no labels selected")
        for label in self.labels:
            validate_label(label)
            if label not in self.vocabulary:
                raise ConfigError(f"label outside vocabulary: {label!r}")
        if self.parallelism < 1:
            raise ConfigError(f"parallelism must be >= 1: {self.parallelism}")


@dataclass(frozen=True)
class EvaluationUnit:
    key: PageKey
    label: str
    gt_tokens: tuple[str, ...]


class UnitResult(NamedTuple):
    key: PageKey
    label: str
    status: str
    scores: DocumentScores


def config_hash(config: RunConfig) -> str:
    """Fingerprint of everything that can change scores.

    Filesystem roots and the worker count are deliberately excluded: moving
    a corpus or changing --jobs must not invalidate a journal.
    """
    payload = {
        "labels": sorted(config.labels),
        "threshold": config.match.threshold,
        "substitution_cost": config.match.substitution_cost,
        "case_sensitive": config.match.case_sensitive,
        "normalize_nfc": config.match.normalize_nfc,
        "adapter": {
            "tool": config.adapter.tool,
            "format": config.adapter.format,
            "scope": config.adapter.scope,
            "selectors": dict(sorted(config.adapter.selector_map.items())),
            "path_template": config.adapter.effective_path_template,
        },
        "sample": list(config.sample) if config.sample else None,
        "key_pattern": config.key_pattern,
    }
    digest = hashlib.sha256(
        json.dumps(payload, sort_keys=True, ensure_ascii=False).encode("utf-8"))
    return digest.hexdigest()[:12]


UnitKey = tuple[str, int, str]
PagePlan = tuple[PageKey, str, tuple[str, ...]]


def _unit_keys(key: PageKey, labels: Iterable[str]) -> list[UnitKey]:
    return [(*key, label) for label in labels]


def _page_plans(index: CorpusIndex, config: RunConfig) -> Iterator[PagePlan]:
    """(key, path, the wanted labels the index lists) per page, in the key
    order of the index's entries. Each plan is made as it is taken, so a run
    that takes them one run of documents at a time never holds them all."""
    wanted = sorted(set(config.labels))
    for label in wanted:
        if label not in index.vocabulary:
            logger.warning("label %r is outside the index vocabulary; "
                           "no units will be planned for it", label)
    presence = [(label, index.pages_with_label(label)) for label in wanted]
    sampled = sample_by_month(index, *config.sample) if config.sample else None
    for key, path in index.entries.items():
        labels = tuple([label for label, pages in presence if key in pages])
        if labels and (sampled is None or key in sampled):
            yield key, str(path), labels


def _plan_pages(pages: Iterable[PagePlan], config: RunConfig,
                vocabulary: frozenset[str],
                journalled: Container[UnitKey]) -> list[EvaluationUnit | UnitKey]:
    """The units of these pages in order, a journalled one as its key. A unit
    exists exactly when the page has tokens for the label.

    A page is not parsed when every label its plan lists is journalled. This
    is exact: a unit needs a valid token line whose label the index's label
    pass also saw, so a page's units are a subset of its index labels. (A
    page whose lines for some indexed label are all malformed is parsed on
    every resume.) If the ground truth changed after the journal was
    written, a skipped page yields the journal's lines, which `report` counts.
    """
    wanted = sorted(set(config.labels))
    units: list[EvaluationUnit | UnitKey] = []
    for key, path, labels in pages:
        listed = _unit_keys(key, labels)
        if all(unit in journalled for unit in listed):
            units.extend(listed)
            continue
        page = parse_gt_page(path, vocabulary, config.key_pattern,
                             strict=False, nfc=config.match.normalize_nfc)
        for unit, label in zip(_unit_keys(key, wanted), wanted):
            gt_tokens = page.tokens_for_label(label)
            if gt_tokens:
                units.append(unit if unit in journalled
                             else EvaluationUnit(key, label, gt_tokens))
    return units


def resolve_output(
    unit: EvaluationUnit,
    config: RunConfig,
    cache: dict[str, dict[str, ExtractionRecord | AdapterError] | None] | None = None,
) -> tuple[ExtractionRecord | None, str]:
    """Locate and parse the tool's output for a unit.

    Returns (record, status). The record is None unless status is 'scored'.
    The file is read once for every label of the run. A cache maps each
    output file's name relative to the output root to its records by label
    (each an ExtractionRecord or AdapterError), or to None when the file is
    missing, so a file is looked up and read at most once while the cache
    lives. A file that does not parse is logged once, when it is read.
    Document-scope output is restricted to the items this unit's page-level
    ground truth covers.
    """
    adapter = config.adapter
    name = adapter.output_path(unit.key.document_id, unit.key.page_index)
    fresh = cache is None or name not in cache
    if fresh:
        path = Path(config.output_root, name)
        records = (read_records(path, adapter, config.labels)
                   if path.is_file() else None)
        if cache is not None:
            cache[name] = records
    else:
        records = cache[name]
    if records is None:
        return None, STATUS_MISSING
    record = records.get(unit.label)
    if record is None:  # a label outside config.labels
        record = read_records(Path(config.output_root, name), adapter,
                              [unit.label])[unit.label]
    if isinstance(record, AdapterError):
        if isinstance(record, PathTypeError):
            logger.warning("unreadable tool output for %s/%s: %s",
                           unit.key, unit.label, record)
        elif fresh:
            logger.warning("unreadable tool output %s: %s", path, record)
        return None, STATUS_ERROR
    if adapter.scope == "document":
        record = replace(record, units=restrict_units(
            record.units, unit.gt_tokens, config.match))
    return record, STATUS_SCORED


def score_unit(unit: EvaluationUnit, config: RunConfig,
               cache: dict | None = None) -> UnitResult:
    record, status = resolve_output(unit, config, cache)
    tokens: tuple[str, ...] = record.tokens if record is not None else ()
    scores = score_document(tokens, unit.gt_tokens, config.match)
    return UnitResult(unit.key, unit.label, status, scores)


def _evaluate_pages(pages: list[PagePlan], config: RunConfig,
                    vocabulary: frozenset[str], journalled: Container[UnitKey],
                    ) -> Iterator[UnitResult | UnitKey]:
    """Plan and score a run of whole documents: results in unit order, with
    the key of each journalled unit standing in for it. Every page of the run
    is planned before its first result; each document's units share a
    tool-output cache."""
    cache, document = {}, None
    for unit in _plan_pages(pages, config, vocabulary, journalled):
        if isinstance(unit, tuple):
            yield unit
            continue
        if unit.key.document_id != document:
            cache, document = {}, unit.key.document_id
        yield score_unit(unit, config, cache)


def _evaluate_task(*args) -> list[UnitResult | UnitKey]:
    """The task a pool worker runs: _evaluate_pages over whole documents."""
    return list(_evaluate_pages(*args))


def worker_count(parallelism: int) -> int:
    """Worker processes for a run: at most the machine's CPU count."""
    return 1 if parallelism < 2 else min(parallelism, os.cpu_count() or 1)


# Documents per pool task, at most. A task costs the pool a fixed ~0.4 ms of
# hand-offs between the parent's threads and a worker (2-core x86-64 VM,
# Python 3.11), about half a small page's scoring time, so one-document tasks
# made two workers slower than one on corpora of short pages. Sixteen spread
# that cost, and keep the results a task holds and the work an interrupt
# loses small.
_TASK_DOCUMENTS = 16

# Pages per run scored in the parent, at least: a run closes at the first
# document boundary from here on, so only one run's units are held at a time.
# Each run's planning lands in one gap between results. On 1000 two-page
# documents (2-core x86-64 VM), runs of 128, 256 and 512 pages raised the p99
# gap by ~11%, ~3.5% (inside the noise) and none, and cut peak RSS by ~1.3,
# ~1.1 and ~0.8 MB.
_RUN_PAGES = 256

# (worker count, executor): the pool of the last parallel run, reused by the
# next one in this process.
_pool = None


def _worker_pool(workers: int):
    """The shared pool with this many workers, created on first use.

    Its modules are imported here, so a run with one worker never loads
    them. Workers are forked: they inherit the imported modules, so a pool
    starts in milliseconds; only page plans, config and results are pickled.
    They keep the modules as they were at the fork. numpy, which metrics
    loads only at a unit's first numpy kernel, is imported before the fork:
    the workers then share its pages, and none pays its import at its first
    large unit. They ignore SIGINT, which reaches the whole process group:
    the parent alone handles an interrupt, and workers finish their task
    and exit with the pool.
    """
    global _pool
    if _pool is not None and _pool[0] != workers:
        _pool[1].shutdown()
        _pool = None
    if _pool is None:
        import multiprocessing
        import signal
        from concurrent.futures import ProcessPoolExecutor

        import numpy  # noqa: F401  (shared with the forked workers)
        _pool = (workers, ProcessPoolExecutor(
            workers, mp_context=multiprocessing.get_context("fork"),
            initializer=signal.signal, initargs=(signal.SIGINT, signal.SIG_IGN)))
    return _pool[1]


@atexit.register
def _release_pool() -> None:
    """Shut the shared pool down at exit, while the modules its executor's
    callbacks use are still loaded."""
    global _pool
    if _pool is not None:
        _pool[1].shutdown()
        _pool = None


def _evaluate_documents(pages: Iterable[PagePlan], config: RunConfig,
                        vocabulary: frozenset[str], done: Mapping[UnitKey, UnitResult],
                        ) -> Iterator[UnitResult | UnitKey]:
    """_evaluate_pages over every page, in runs of whole documents: here,
    one run of at least _RUN_PAGES pages at a time, with one worker (which
    takes the plans from pages run by run, so it holds one run's plans) or
    fewer than two documents with a pending unit; else each run of at most
    _TASK_DOCUMENTS documents (at least four pending ones per worker where
    there are enough) is a pool task, sent the run's page plans and
    journalled unit keys. At most two tasks per worker are in flight;
    closing the generator cancels those not started. A pool that lost a
    worker raises BrokenProcessPool once and is replaced on the next run."""
    global _pool
    workers = worker_count(config.parallelism)
    documents = (list(group) for _, group in groupby(
        pages, key=lambda page: page[0].document_id))
    pending = 0
    if workers > 1:
        documents = list(documents)
        pending = sum(not all(unit in done for key, _, labels in document
                              for unit in _unit_keys(key, labels))
                      for document in documents)
    if pending < 2:
        run: list[PagePlan] = []
        for document in documents:
            run += document
            if len(run) >= _RUN_PAGES:
                yield from _evaluate_pages(run, config, vocabulary, done)
                run = []
        if run:
            yield from _evaluate_pages(run, config, vocabulary, done)
        return
    from concurrent.futures.process import BrokenProcessPool
    size = min(_TASK_DOCUMENTS, -(-pending // (4 * workers)))
    pool = _worker_pool(workers)
    in_flight: deque = deque()
    try:
        for start in range(0, len(documents), size):
            if len(in_flight) == 2 * workers:
                yield from in_flight.popleft().result()
            run = list(chain.from_iterable(documents[start:start + size]))
            journalled = {unit for key, _, _ in run
                          for unit in _unit_keys(key, config.labels) if unit in done}
            in_flight.append(pool.submit(_evaluate_task, run, config,
                                         vocabulary, journalled))
        while in_flight:
            yield from in_flight.popleft().result()
    except BrokenProcessPool:
        pool.shutdown(wait=False)
        _pool = None
        raise
    finally:
        for future in in_flight:
            future.cancel()


# json.dumps(s, ensure_ascii=False) for a str, with one shared encoder.
_encode = json.JSONEncoder(ensure_ascii=False).encode

# _encode for labels and statuses, each encoded once: labels are validated
# names from a run's config and there are three statuses, so it stays small.
_encode_name = lru_cache(maxsize=None)(_encode)

# The unit line's format, and from it the pattern of the lines it writes
# whose strings json encodes as themselves: non-empty, with no '"', no '\'
# and no control character. json reads a line the pattern matches in full
# as the groups' strings and the groups' int() and float() values, so
# _read_journal reads such a line from its groups, and any other as JSON.
_UNIT_LINE = ('{"doc":%s,"page":%d,"label":%s,"status":%s,'
              '"p":%.6f,"r":%.6f,"f1":%.6f,"acc":%.6f,"m":%d,"n":%d}')
_match_unit_line = re.compile(
    re.escape(_UNIT_LINE).replace("%s", r'"([^"\\\x00-\x1f]+)"')
    .replace("%d", "(0|[1-9][0-9]*)").replace(r"%\.6f", r"([0-9]\.[0-9]{6})")
).fullmatch


def unit_result_to_line(result: UnitResult) -> str:
    """One journal line; score fields carry exactly six decimals."""
    s = result.scores
    return _UNIT_LINE % (
        _encode(result.key.document_id), result.key.page_index,
        _encode_name(result.label), _encode_name(result.status),
        s.precision, s.recall, s.f1, s.accuracy, s.m, s.n)


def journal_header(config: RunConfig) -> str:
    return json.dumps({
        "kind": "header",
        "format_version": JOURNAL_FORMAT_VERSION,
        "harness": HARNESS_NAME,
        "version": HARNESS_VERSION,
        "tool": config.adapter.tool,
        "config": config_hash(config),
    }, ensure_ascii=False, separators=(",", ":"))


# A namedtuple from all its fields, without its generated Python __new__.
_new = tuple.__new__

# On a stripped line, raw_decode with its end at the line's end accepts and
# rejects exactly what json.loads does, without json.loads' extra calls.
_decode = json.JSONDecoder().raw_decode


def read_journal(path: str | Path) -> tuple[dict | None, list[UnitResult]]:
    """Parse a journal; returns (header or None, results in file order).

    A line that is not a complete unit record is skipped with a warning, and
    so is a repeat of a unit already read: the first line of a unit counts.
    Each line is decoded on its own, so a line cut inside a multi-byte
    character is one malformed line. The first header counts; a later one
    with another config raises ConfigError, and a repeat of it is skipped
    with a warning. The units of a page share one PageKey.
    """
    header, results, _ = _read_journal(path, whole_lines=False)
    return header, list(results.values())


def _read_journal(path: str | Path, whole_lines: bool,
                  ) -> tuple[dict | None, dict[UnitKey, UnitResult], int]:
    """read_journal's header and results by unit key, and the byte length of
    the lines read. With whole_lines, a last line without a newline, which
    an interrupted write leaves, is not read."""
    header, header_line, length = None, 0, 0
    results: dict[UnitKey, UnitResult] = {}
    keys: dict[tuple[str, int], PageKey] = {}
    names: dict[str, str] = {}  # one copy of each label and status
    with open(path, "rb") as handle:
        for line_no, line in enumerate(handle, start=1):
            if whole_lines and line[-1] != 10:  # no b"\n"
                break
            length += len(line)
            line = line.strip()
            if not line:
                continue
            try:
                text = line.decode("utf-8")
                fields = _match_unit_line(text)
                if fields is not None:
                    doc, page, label, status, p, r, f1, acc, m, n = fields.groups()
                else:
                    payload, end = _decode(text)
                    if end != len(text):
                        raise ValueError("extra data")
                    if isinstance(payload, dict) and payload.get("kind") == "header":
                        if header is None:
                            header, header_line = payload, line_no
                        elif payload.get("config") != header.get("config"):
                            raise ConfigError(
                                f"journal {path} line {line_no} is a header "
                                f"with config {payload.get('config')!r}, but "
                                f"its header on line {header_line} has config "
                                f"{header.get('config')!r}")
                        else:
                            logger.warning("skipping repeated header on "
                                           "journal line %d", line_no)
                        continue
                    doc, page, label, status, p, r, f1, acc, m, n = (
                        payload["doc"], payload["page"], payload["label"],
                        payload["status"], payload["p"], payload["r"],
                        payload["f1"], payload["acc"], payload["m"], payload["n"])
                scores = _new(DocumentScores, (float(p), float(r), float(f1),
                                               float(acc), int(m), int(n), ()))
                page = (doc, int(page))
                key = keys.get(page)
                if key is None:
                    key = keys[page] = PageKey(*page)
                label = names.setdefault(label, label)
                status = names.setdefault(status, status)
            except (KeyError, TypeError, ValueError):
                logger.warning("skipping malformed journal line %d", line_no)
                continue
            unit = (*key, label)
            if unit in results:
                logger.warning("skipping repeated unit %s/%s on journal line %d",
                               key, label, line_no)
                continue
            results[unit] = _new(UnitResult, (key, label, status, scores))
    return header, results, length


def evaluate_run(
    config: RunConfig,
    index: CorpusIndex | None = None,
    journal_path: str | Path | None = None,
) -> Iterator[UnitResult]:
    """Score every planned unit, yielding results in deterministic unit order.

    With a journal path, journalled units are not recomputed and new results
    are appended as they complete; the stream always covers all units. Only
    pages with a pending unit are parsed, where they are scored: with one
    worker here, a run of whole documents of at least _RUN_PAGES pages before
    that run's first result; with more, each worker parses its own documents.
    Worker count changes neither results nor bytes.
    """
    if index is None:
        if config.gt_root is None:
            raise ConfigError("need either an index or a ground-truth root")
        index = index_corpus(config.gt_root, config.vocabulary, config.key_pattern)

    done: dict[UnitKey, UnitResult] = {}
    journal_file = None
    expected_hash = config_hash(config)
    if journal_path is not None:
        journal_path = Path(journal_path)
        header = None
        if journal_path.exists():
            header, done, length = _read_journal(journal_path, whole_lines=True)
            if header is None and done:
                raise ConfigError(
                    f"journal {journal_path} holds unit lines but no header, "
                    f"so its config cannot be checked")
            if header is not None and header.get("config") != expected_hash:
                raise ConfigError(
                    f"journal {journal_path} was written with config "
                    f"{header.get('config')!r}, current config is "
                    f"{expected_hash!r}")
            # Cut the part of a line an interrupted write left: appended to,
            # it would merge with the next line and lose that unit.
            if length < journal_path.stat().st_size:
                os.truncate(journal_path, length)
        # A new journal, or one cut before its first unit line, is rewritten.
        journal_file = open(journal_path, "a" if header else "w", encoding="utf-8")
        if header is None:
            journal_file.write(journal_header(config) + "\n")
            journal_file.flush()

    results = _evaluate_documents(_page_plans(index, config), config,
                                  index.vocabulary, done)
    try:
        for result in results:
            if not isinstance(result, UnitResult):  # a journalled unit's key
                yield done[result]
                continue
            if journal_file is not None:
                journal_file.write(unit_result_to_line(result) + "\n")
                journal_file.flush()
            yield result
    finally:
        results.close()
        if journal_file is not None:
            journal_file.close()


def zero_score_labels(results: Iterable[UnitResult]) -> frozenset[str]:
    """Labels whose every unit scored zero F1.

    Intended for a two-phase workflow: evaluate a small sample, drop the
    labels this reports, then run the full corpus on the rest.
    """
    seen: dict[str, bool] = {}
    for result in results:
        nonzero = result.scores.f1 > 0.0
        seen[result.label] = seen.get(result.label, False) or nonzero
    return frozenset(label for label, any_hit in seen.items() if not any_hit)
