"""docbench: token-level evaluation of PDF extraction output.

Scores what an extraction tool produced for a page against DocBank-style
token-level ground truth, using Levenshtein-ratio matching for
order-insensitive precision/recall/F1 and a collated-text ratio for
order-sensitive accuracy.

The names below are imported from their submodule on first access (PEP 562),
so `import docbench` loads no submodule, and importing one submodule loads
only what that submodule imports.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the public names it defines
_EXPORTS = {
    "corpus": ("DEFAULT_KEY_PATTERN", "DEFAULT_LABELS", "CorpusIndex",
               "GroundTruthPage", "PageKey", "index_corpus", "load_index",
               "parse_gt_page", "parse_gt_record", "parse_page_key",
               "sample_by_month", "save_index"),
    "errors": (),
    "interchange": ("AdapterConfig", "ExtractionRecord", "load_adapter_config",
                    "read_records", "tokenize"),
    "metrics": ("DocumentScores", "MatchConfig", "SimilarityMatrix", "accuracy",
                "collate", "edit_distance", "f1", "lev_ratio", "precision",
                "recall", "score_document", "similarity_matrix"),
    "pipeline": ("EvaluationUnit", "RunConfig", "UnitResult", "config_hash",
                 "evaluate_run", "read_journal", "resolve_output", "score_unit",
                 "zero_score_labels"),
    "report": ("TASKS", "AggregateRow", "TaskSummary", "aggregate",
               "all_task_summaries", "cumulative_f1", "emit_bar_chart",
               "emit_report", "round_half_even"),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_ORIGIN, *_EXPORTS]


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_ORIGIN[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
