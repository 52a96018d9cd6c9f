"""docbench: token-level evaluation of PDF extraction output.

Scores what an extraction tool produced for a page against DocBank-style
token-level ground truth, using Levenshtein-ratio matching for
order-insensitive precision/recall/F1 and a collated-text ratio for
order-sensitive accuracy.
"""

from .corpus import (DEFAULT_KEY_PATTERN, DEFAULT_LABELS, CorpusIndex,
                     GroundTruthPage, PageKey, index_corpus, load_index,
                     parse_gt_page, parse_gt_record, parse_page_key,
                     sample_by_month, save_index)
from .interchange import (AdapterConfig, ExtractionRecord, load_adapter_config,
                          read_records, tokenize)
from .metrics import (DocumentScores, MatchConfig, SimilarityMatrix, accuracy,
                      collate, edit_distance, f1, lev_ratio, precision, recall,
                      score_document, similarity_matrix)
from .pipeline import (EvaluationUnit, RunConfig, UnitResult, config_hash,
                       evaluate_run, read_journal, resolve_output,
                       score_unit, zero_score_labels)
from .report import (TASKS, AggregateRow, TaskSummary, aggregate,
                     all_task_summaries, cumulative_f1, emit_bar_chart,
                     emit_report, round_half_even)

__version__ = "0.1.0"
