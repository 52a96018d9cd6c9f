"""Spans around docbench's module-level functions, recorded from outside.

The tracer replaces functions in docbench's modules with wrappers. docbench
looks its own module-level names up at call time, so a wrapper placed on
`docbench.metrics.similarity_matrix` sees every call `score_document` makes.
Each wrapper records (span id, parent id, name, start, end) in memory; the
spans are written out once, when the run ends. Some wrappers also count work
(cells of dynamic programming, items kept) at the same boundary.

Self time of a span is its duration minus that of its direct children. It is
only meaningful for single-threaded runs, so the traced passes use
parallelism=1.
"""

from __future__ import annotations

import importlib
import itertools
import json
import threading
from collections import defaultdict
from pathlib import Path
from time import perf_counter

# (module, attribute, span name). The module is the one whose global the
# caller looks up, which is not always where the function is defined.
WRAPPED = (
    ("docbench.corpus", "index_corpus", "corpus.index"),
    ("docbench.pipeline", "parse_gt_page", "corpus.parse_gt"),
    ("docbench.pipeline", "plan_units", "pipeline.plan"),
    ("docbench.pipeline", "read_journal", "pipeline.read_journal"),
    ("docbench.pipeline", "resolve_output", "pipeline.resolve"),
    ("docbench.pipeline", "parse_xml_extraction", "interchange.adapter_parse"),
    ("docbench.pipeline", "parse_json_extraction", "interchange.adapter_parse"),
    ("docbench.pipeline", "parse_table_csv", "interchange.adapter_parse"),
    ("docbench.pipeline", "parse_plaintext", "interchange.adapter_parse"),
    ("docbench.pipeline", "restrict_units", "interchange.restrict"),
    ("docbench.pipeline", "score_document", "metrics.score"),
    ("docbench.metrics", "similarity_matrix", "metrics.matrix"),
    ("docbench.metrics", "accuracy", "metrics.accuracy"),
    ("docbench.report", "aggregate", "report.aggregate"),
    ("docbench.report", "emit_report", "report.emit_report"),
    ("docbench.report", "emit_bar_chart", "report.chart"),
)

# Counted but not spanned: one call per window position, thousands per unit.
COUNTED = (("docbench.interchange", "lev_ratio", "interchange.window"),)


def _chars(tokens) -> int:
    return sum(len(t) for t in tokens)


def _matrix_cells(args, result) -> int:
    return _chars(args[0]) * _chars(args[1])


def _pair_cells(args, result) -> int:
    return len(args[0]) * len(args[1])


def _restrict_offered(args, result) -> int:
    return len(args[0])


def _restrict_kept(args, result) -> int:
    return len(result)


# Extra counters per span name: counter name -> function(args, result).
COUNTERS = {
    "metrics.matrix": {"cells": _matrix_cells},
    "metrics.accuracy": {"cells": _pair_cells},
    "interchange.window": {"cells": _pair_cells},
    "interchange.restrict": {"offered": _restrict_offered,
                             "kept": _restrict_kept},
}


class Tracer:
    """Installs wrappers, records spans and counts, and removes the wrappers."""

    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.wrapped: list[str] = []
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._originals: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str):
        return _Span(self, name)

    def _wrap(self, fn, name: str, spanned: bool):
        counters = COUNTERS.get(name, {})
        counts = self.counts

        def wrapper(*args, **kwargs):
            # A call that raises (an unreadable tool output) still counts.
            counts[name + ".calls"] += 1
            if spanned:
                with self.span(name):
                    result = fn(*args, **kwargs)
            else:
                result = fn(*args, **kwargs)
            for counter, measure in counters.items():
                counts[f"{name}.{counter}"] += measure(args, result)
            return result
        return wrapper

    def install(self) -> None:
        self.wrapped, self.missing = [], []
        for entries, spanned in ((WRAPPED, True), (COUNTED, False)):
            for module_name, attr, name in entries:
                module = importlib.import_module(module_name)
                original = getattr(module, attr, None)
                label = f"{module_name}.{attr}"
                if original is None:
                    self.missing.append(label)
                    continue
                self._originals.append((module, attr, original))
                setattr(module, attr, self._wrap(original, name, spanned))
                self.wrapped.append(label)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    def totals(self) -> tuple[dict[str, float], dict[str, float]]:
        """Total and self seconds per span name."""
        total: dict[str, float] = defaultdict(float)
        child: dict[int, float] = defaultdict(float)
        for _, parent, _, start, end in self.spans:
            if parent:
                child[parent] += end - start
        own: dict[str, float] = defaultdict(float)
        for span_id, _, name, start, end in self.spans:
            total[name] += end - start
            own[name] += end - start - child[span_id]
        return total, own

    def write(self, path: Path) -> None:
        """Dump every span as one JSON line: id, parent, name, start, end."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"wrapped": self.wrapped,
                                     "missing": self.missing}) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


class _Span:
    __slots__ = ("tracer", "name", "id", "parent", "start")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        stack = self.tracer._stack()
        self.parent = stack[-1] if stack else 0
        self.id = next(self.tracer._ids)
        stack.append(self.id)
        self.start = perf_counter()
        return self

    def __exit__(self, *exc):
        end = perf_counter()
        self.tracer._stack().pop()
        self.tracer.spans.append((self.id, self.parent, self.name,
                                  self.start, end))
        return False
