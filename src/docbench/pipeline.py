"""Corpus-scale evaluation runs.

A run walks the ground-truth index, plans one evaluation unit per
(page, label) pair present in the ground truth, locates the corresponding
tool output file, scores it, and appends one JSON line per unit to a journal.
Reruns skip units already journalled, so an interrupted run resumes where it
stopped. Unit order is deterministic (sorted by page key, then label) and
independent of the worker count. The parent cuts the index's page plans into
runs of whole documents as it takes them, so it never holds every plan. With
one worker, or a plan of one run, it plans and scores one run at a time; with
more, each run is a pool task, whose worker parses its own ground-truth
pages. Workers log nothing: a unit's warning comes back just before its
result, and the parent writes the results and logs the warnings in unit order.
"""

from __future__ import annotations

import atexit
import errno
import hashlib
import json
import logging
import os
import unicodedata
from collections import deque
from dataclasses import dataclass, replace
from itertools import chain, groupby, islice
from pathlib import Path
from stat import S_ISREG
from typing import Container, Iterable, Iterator, Mapping, NamedTuple

from .corpus import (DEFAULT_KEY_PATTERN, DEFAULT_LABELS, CorpusIndex,
                     PageKey, index_corpus, parse_gt_page, sample_by_month,
                     validate_label, validate_months)
from .errors import AdapterError, ConfigError, PathTypeError
from .interchange import (AdapterConfig, ExtractionRecord, read_records,
                          restrict_units)
from .journal import (STATUS_ERROR, STATUS_MISSING, STATUS_SCORED, UnitKey,
                      UnitResult, resume_journal, unit_result_to_line)
from .journal import read_journal  # noqa: F401  (the name perfbench calls)
from .metrics import DEFAULT_MATCH, MatchConfig, score_document

logger = logging.getLogger(__name__)


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
        if self.sample is not None:  # before a journal takes its fingerprint
            validate_months(*self.sample)
        if self.parallelism < 1:
            raise ConfigError(f"parallelism must be >= 1: {self.parallelism}")


class EvaluationUnit(NamedTuple):
    """One (page, label) unit to score. A NamedTuple, so it is built as a
    tuple, and _evaluate_pages tells it from a journalled unit's key, a
    plain tuple, by its type."""
    key: PageKey
    label: str
    gt_tokens: tuple[str, ...]


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
    if not config.match.case_sensitive or config.match.normalize_nfc:
        # casefold and NFC follow the interpreter's Unicode tables
        payload["unicode"] = unicodedata.unidata_version
    digest = hashlib.sha256(
        json.dumps(payload, sort_keys=True, ensure_ascii=False).encode("utf-8"))
    return digest.hexdigest()[:12]


PagePlan = tuple[PageKey, str, tuple[str, ...]]


def _journalled_units(key: PageKey, labels: Iterable[str],
                      journalled: Container[UnitKey]) -> list[UnitKey] | None:
    listed = [(*key, label) for label in labels]
    return listed if all(unit in journalled for unit in listed) else None


def _page_plans(index: CorpusIndex, config: RunConfig) -> Iterator[PagePlan]:
    """(key, path, the wanted labels the index lists) per page, in the key
    order of the index's entries. Each plan is made as it is taken, so a run
    that takes them one run of documents at a time never holds them all."""
    wanted = set(config.labels)
    for label in sorted(wanted):
        if label not in index.vocabulary:
            logger.warning("label %r is outside the index vocabulary; "
                           "no units will be planned for it", label)
    sampled = sample_by_month(index, *config.sample) if config.sample else None
    for key, (path, listed) in index.entries.items():
        labels = tuple([label for label in listed if label in wanted])
        if labels and (sampled is None or key in sampled):
            yield key, path, labels


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
        listed = _journalled_units(key, labels, journalled)
        if listed is not None:
            units.extend(listed)
            continue
        page = parse_gt_page(path, vocabulary, config.key_pattern,
                             strict=False, nfc=config.match.normalize_nfc)
        for label in wanted:
            gt_tokens = page.tokens_for_label(label)
            if gt_tokens:
                units.append((*key, label) if (*key, label) in journalled
                             else EvaluationUnit(key, label, gt_tokens))
    return units


# The errors Path.is_file reads as "not a file"; any other OSError is raised.
_NOT_A_FILE = frozenset((errno.ENOENT, errno.ENOTDIR, errno.EBADF, errno.ELOOP))


def _is_file(path: str) -> bool:
    """Path(path).is_file() in one stat of the string: False for an absent
    path and for any path that is not a regular file."""
    try:
        return S_ISREG(os.stat(path).st_mode)
    except ValueError:  # a NUL byte or a path the filesystem cannot encode
        return False
    except OSError as exc:
        if exc.errno in _NOT_A_FILE:
            return False
        raise


def _resolve(unit: EvaluationUnit, config: RunConfig, cache: dict | None,
             ) -> tuple[ExtractionRecord | None, str, str | None]:
    """resolve_output's record and status, and the warning it logs, if any."""
    adapter = config.adapter
    name = adapter.output_path(unit.key.document_id, unit.key.page_index)
    fresh = cache is None or name not in cache
    if fresh:
        path = os.path.join(config.output_root, name)
        records = (read_records(path, adapter, config.labels)
                   if _is_file(path) else None)
        if cache is not None:
            cache[name] = records
    else:
        records = cache[name]
    if records is None:
        return None, STATUS_MISSING, None
    record = records.get(unit.label)
    if record is None:  # a label outside config.labels
        record = read_records(os.path.join(config.output_root, name),
                              adapter, [unit.label])[unit.label]
    if isinstance(record, AdapterError):
        if isinstance(record, PathTypeError):
            warning = f"unreadable tool output for {unit.key}/{unit.label}: {record}"
        else:
            warning = f"unreadable tool output {path}: {record}" if fresh else None
        return None, STATUS_ERROR, warning
    if adapter.scope == "document":
        record = replace(record, units=restrict_units(
            record.units, unit.gt_tokens, config.match))
    return record, STATUS_SCORED, None


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
    lives. The path is joined as a string and looked up with one stat: an
    absent path and any path that is not a regular file are missing, any
    other OS error is raised. A file that does not parse is an error
    artifact, logged once, when it is read.
    Document-scope output is restricted to the items this unit's page-level
    ground truth covers.
    """
    record, status, warning = _resolve(unit, config, cache)
    if warning is not None:
        logger.warning(warning)
    return record, status


def _scored(unit: EvaluationUnit, record: ExtractionRecord | None, status: str,
            config: RunConfig) -> UnitResult:
    tokens: tuple[str, ...] = record.tokens if record is not None else ()
    scores = score_document(tokens, unit.gt_tokens, config.match)
    return UnitResult(unit.key, unit.label, status, scores)


def score_unit(unit: EvaluationUnit, config: RunConfig,
               cache: dict | None = None) -> UnitResult:
    return _scored(unit, *resolve_output(unit, config, cache), config)


def _evaluate_pages(pages: list[PagePlan], config: RunConfig,
                    vocabulary: frozenset[str], journalled: Container[UnitKey],
                    ) -> Iterator[UnitResult | UnitKey | str]:
    """Plan and score a run of whole documents: results in unit order, the
    key of a journalled unit standing in for it, a unit's warning just
    before its result. Every page of the run is planned before its first
    result; each document's units share a tool-output cache."""
    cache, document = {}, None
    for unit in _plan_pages(pages, config, vocabulary, journalled):
        if type(unit) is tuple:  # a journalled unit's key
            yield unit
            continue
        if unit.key.document_id != document:
            cache, document = {}, unit.key.document_id
        record, status, warning = _resolve(unit, config, cache)
        if warning is not None:
            yield warning
        yield _scored(unit, record, status, config)


def _evaluate_task(*args) -> list[UnitResult | UnitKey | str]:
    """The task a pool worker runs: _evaluate_pages over one run."""
    return list(_evaluate_pages(*args))


def worker_count(parallelism: int) -> int:
    """Worker processes for a run: at most the machine's CPU count."""
    return 1 if parallelism < 2 else min(parallelism, os.cpu_count() or 1)


# Pages per run, at least: a run closes at the first document boundary from
# here on. The parent plans and scores one run at a time, so it holds one
# run's units, and a pool task is one run. On 1000 two-page documents (2-core
# x86-64 VM), runs of 128, 256 and 512 pages raised the p99 gap between
# results by ~11%, ~3.5% (inside the noise) and none, as each run's planning
# lands in one gap, and cut peak RSS by ~1.3, ~1.1 and ~0.8 MB. A pool task
# costs a fixed ~0.4 ms of hand-offs with a worker, about half a small page's
# scoring time, which a run spreads over its pages.
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
        _release_pool()
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


def _runs(pages: Iterable[PagePlan]) -> Iterator[list[PagePlan]]:
    """The page plans in runs of whole documents, each closed at the first
    document boundary from _RUN_PAGES pages on, cut as they are taken."""
    run: list[PagePlan] = []
    for _, document in groupby(pages, key=lambda page: page[0].document_id):
        run += document
        if len(run) >= _RUN_PAGES:
            yield run
            run = []
    if run:
        yield run


def _evaluate_documents(pages: Iterable[PagePlan], config: RunConfig,
                        vocabulary: frozenset[str], done: Mapping[UnitKey, UnitResult],
                        ) -> Iterator[UnitResult | UnitKey | str]:
    """_evaluate_pages over the runs of _runs, each taken from pages when it
    is needed. With one worker, or a plan of one run, the parent scores them;
    else each run is a pool task, sent its page plans and journalled unit
    keys, with at most two per worker in flight. A run whose every listed
    unit is journalled is a finished future of their keys, so the pool forks
    at the first run to score. Closing the generator cancels the tasks not
    started; a pool that lost a worker raises BrokenProcessPool once and is
    replaced on the next run."""
    global _pool
    workers = worker_count(config.parallelism)
    runs = _runs(pages)
    ahead = list(islice(runs, 2 if workers > 1 else 0))
    runs = chain(ahead, runs)
    if len(ahead) < 2:
        for run in runs:
            yield from _evaluate_pages(run, config, vocabulary, done)
            del run  # freed before the next run is cut
        return
    del ahead  # runs alone holds the two runs taken ahead
    from concurrent.futures import BrokenExecutor, Future
    in_flight: deque = deque()
    try:
        for run in runs:
            if len(in_flight) == 2 * workers:
                yield from in_flight.popleft().result()
            listed = [_journalled_units(key, labels, done) for key, _, labels in run]
            if None not in listed:
                future = Future()
                future.set_result(list(chain.from_iterable(listed)))
            else:
                journalled = done.keys() & [(*key, label) for key, _, _ in run
                                            for label in config.labels]
                pool = _worker_pool(workers)
                future = pool.submit(_evaluate_task, run, config, vocabulary,
                                     journalled)
            in_flight.append(future)
        while in_flight:
            yield from in_flight.popleft().result()
    except BrokenExecutor:  # the pool's BrokenProcessPool
        pool.shutdown(wait=False)
        _pool = None
        raise
    finally:
        for future in in_flight:
            future.cancel()


def evaluate_run(
    config: RunConfig,
    index: CorpusIndex | None = None,
    journal_path: str | Path | None = None,
) -> Iterator[UnitResult]:
    """Score every planned unit, yielding results in deterministic unit order.

    With a journal path, journalled units are not recomputed and new results
    are appended as they complete; the stream always covers all units. Only
    pages with a pending unit are parsed, each run of whole documents (see
    _evaluate_documents) before its first result, by whoever scores the run.
    Worker count changes neither results nor bytes.
    """
    if index is None:
        if config.gt_root is None:
            raise ConfigError("need either an index or a ground-truth root")
        index = index_corpus(config.gt_root, config.vocabulary, config.key_pattern)

    done: dict[UnitKey, UnitResult] = {}
    journal_file = None
    if journal_path is not None:
        done, journal_file = resume_journal(journal_path, config.adapter.tool,
                                            config_hash(config))

    results = _evaluate_documents(_page_plans(index, config), config,
                                  index.vocabulary, done)
    try:
        for result in results:
            if type(result) is str:  # the one log site of every worker count
                logger.warning(result)
                continue
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
