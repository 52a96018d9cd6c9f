"""Command-line interface.

Exit codes: 0 success, 1 I/O failure, 2 configuration error, 3 validation
findings, 130 interrupted (Ctrl-C). Individual unit failures during eval
(missing or unreadable tool output) are recorded in the journal, not turned
into a non-zero exit.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__
from .corpus import (DEFAULT_KEY_PATTERN, DEFAULT_LABELS, index_corpus,
                     load_index, parse_gt_page, parse_page_key, save_index)
from .errors import (AdapterError, ConfigError, DocbenchError, KeyParseError,
                     PathTypeError)

if TYPE_CHECKING:
    from .interchange import AdapterConfig

# Each command imports the modules it uses when it runs, so `index` and
# `validate --gt-root` load corpus and errors alone.

EXIT_OK = 0
EXIT_IO = 1
EXIT_CONFIG = 2
EXIT_FINDINGS = 3
EXIT_INTERRUPTED = 130


def _split_labels(raw: str) -> tuple[str, ...]:
    labels = tuple(part.strip() for part in raw.split(",") if part.strip())
    if not labels:
        raise ConfigError(f"no labels in {raw!r}")
    return labels


def _vocabulary(args: argparse.Namespace, *labels: str) -> frozenset[str]:
    """The default labels, the given ones and those of --extra-labels."""
    vocabulary = frozenset(DEFAULT_LABELS).union(labels)
    if args.extra_labels:
        vocabulary |= frozenset(_split_labels(args.extra_labels))
    return vocabulary


def _parse_sample(raw: str) -> tuple[str, str]:
    if ":" not in raw:
        raise ConfigError(f"sample must look like YYMM:YYMM, got {raw!r}")
    from_month, to_month = raw.split(":", 1)
    return from_month.strip(), to_month.strip()


def _printable(text: str) -> str:
    """text with each filename byte that is not UTF-8 shown as \\xNN, so a
    strict UTF-8 stdout can print it."""
    return os.fsencode(text).decode("utf-8", "backslashreplace")


def cmd_index(args: argparse.Namespace) -> int:
    index = index_corpus(args.gt_root, _vocabulary(args), args.pattern)
    save_index(index, args.out)
    print(f"[INFO] indexed {len(index)} pages under {_printable(args.gt_root)}")
    if index.skipped_files:
        print(f"[WARN] skipped {len(index.skipped_files)} files with "
              "unrecognized or non-UTF-8 names")
    for label in sorted(index.label_presence):
        print(f"[INFO]   {label}: {len(index.label_presence[label])} pages")
    return EXIT_OK


def cmd_eval(args: argparse.Namespace) -> int:
    from .interchange import load_adapter_config
    from .metrics import MatchConfig
    from .pipeline import STATUS_SCORED, RunConfig, config_hash, evaluate_run
    if not 0.0 <= args.threshold <= 1.0:
        raise ConfigError(f"threshold must be within [0, 1]: {args.threshold}")
    match = MatchConfig(threshold=args.threshold,
                        substitution_cost=args.sub_cost,
                        case_sensitive=not args.ignore_case,
                        normalize_nfc=args.nfc)
    adapter = load_adapter_config(args.adapter_config)
    labels = _split_labels(args.labels)
    vocabulary = _vocabulary(args, *labels)
    sample = _parse_sample(args.sample) if args.sample else None

    index = None
    if args.index:
        index = load_index(args.index)
    elif not args.gt_root:
        raise ConfigError("need --index or --gt-root")

    config = RunConfig(
        output_root=Path(args.tool_output),
        adapter=adapter,
        labels=labels,
        gt_root=Path(args.gt_root) if args.gt_root else None,
        match=match,
        vocabulary=vocabulary,
        key_pattern=args.pattern,
        sample=sample,
        parallelism=args.jobs,
    )
    print(f"[INFO] tool={adapter.tool} config={config_hash(config)}")
    counts: dict[str, int] = {}
    for result in evaluate_run(config, index=index, journal_path=args.journal):
        counts[result.status] = counts.get(result.status, 0) + 1
    total = sum(counts.values())
    scored = counts.get(STATUS_SCORED, 0)
    print(f"[INFO] {total} units evaluated ({scored} scored, "
          f"{total - scored} without usable tool output)")
    print(f"[INFO] journal written to {_printable(args.journal)}")
    return EXIT_OK


def _collect_rows(args: argparse.Namespace):
    from .pipeline import HARNESS_NAME, HARNESS_VERSION, read_journal
    from .report import aggregate
    rows = []
    hashes = []
    for journal in args.journal:
        header, results = read_journal(journal)
        tool = args.tool or (header or {}).get("tool") or "unknown"
        rows.extend(aggregate(results, tool=tool))
        hashes.append((header or {}).get("config", "-"))
    rows.sort(key=lambda row: (row.tool, row.label))
    stamp = (f"{HARNESS_NAME} {HARNESS_VERSION} "
             f"tool={','.join(sorted({r.tool for r in rows})) or 'none'} "
             f"config={','.join(hashes)}")
    return rows, stamp


def cmd_report(args: argparse.Namespace) -> int:
    from .report import all_task_summaries, emit_report
    rows, stamp = _collect_rows(args)
    summaries = all_task_summaries(rows, variant=args.variant)
    text = emit_report(rows, summaries, fmt=args.format,
                       out=args.out or None, stamp=stamp, variant=args.variant)
    if args.out:
        print(f"[INFO] report written to {_printable(args.out)}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_chart(args: argparse.Namespace) -> int:
    from .report import emit_bar_chart
    rows, stamp = _collect_rows(args)
    emit_bar_chart(rows, args.metric, out=args.out, stamp=stamp,
                   variant=args.variant)
    print(f"[INFO] chart written to {_printable(args.out)}")
    return EXIT_OK


def _validate_gt_root(args: argparse.Namespace, findings: list[str]) -> None:
    root = Path(args.gt_root)
    if not root.is_dir():
        raise NotADirectoryError(f"not a directory: {root}")
    vocabulary = _vocabulary(args)
    for path in sorted(root.rglob("*.txt")):
        try:
            parse_page_key(path, args.pattern)
        except KeyParseError as exc:  # names the file by repr
            findings.append(f"{path.parent}: {exc}")
            continue
        page = parse_gt_page(path, vocabulary, args.pattern, strict=False)
        for issue in page.issues:
            findings.append(f"{path}:{issue.line_no}: [{issue.kind}] {issue.message}")


def _validate_adapter_config(path: str, findings: list[str]) -> AdapterConfig | None:
    from .interchange import load_adapter_config
    try:
        return load_adapter_config(path)
    except ConfigError as exc:
        findings.append(f"{path}: {exc}")
        return None


def _validate_tool_output(args: argparse.Namespace, findings: list[str]) -> None:
    from .interchange import SELECTOR_MISS, read_records
    if not args.adapter_config:
        raise ConfigError("--tool-output validation needs --adapter-config")
    adapter = _validate_adapter_config(args.adapter_config, findings)
    if adapter is None:
        return
    root = Path(args.tool_output)
    if not root.is_dir():
        raise NotADirectoryError(f"not a directory: {root}")
    labels = sorted(adapter.compiled)
    if not labels:
        findings.append(f"{args.adapter_config}: selector map is empty")
        return
    # The files of the template's literal extension; all if it holds a field.
    suffix = Path(adapter.effective_path_template).suffix
    if "{" in suffix or "}" in suffix:
        suffix = ""
    for path in sorted(root.rglob("*")):
        if not path.name.endswith(suffix) or not path.is_file():
            continue
        for label, record in read_records(path, adapter, labels).items():
            if isinstance(record, PathTypeError):  # this label's path alone
                findings.append(f"{path}: label {label!r}: {record}")
            elif isinstance(record, AdapterError):  # the file, every label
                findings.append(f"{path}: {record}")
                break
            elif SELECTOR_MISS in record.flags:
                findings.append(f"{path}: selector miss for label {label!r}")


def cmd_validate(args: argparse.Namespace) -> int:
    targets = [bool(args.gt_root), bool(args.tool_output),
               bool(args.adapter_config and not args.tool_output)]
    if sum(targets) != 1:
        raise ConfigError("pass exactly one of --gt-root, --adapter-config, "
                          "or --tool-output (with its --adapter-config)")
    findings: list[str] = []
    if args.gt_root:
        _validate_gt_root(args, findings)
    elif args.tool_output:
        _validate_tool_output(args, findings)
    else:
        _validate_adapter_config(args.adapter_config, findings)
    for finding in findings:
        print(f"[FINDING] {_printable(finding)}")
    if findings:
        print(f"[INFO] {len(findings)} findings")
        return EXIT_FINDINGS
    print("[INFO] clean")
    return EXIT_OK


class _ChartMetrics:
    """report.CHART_METRICS as --metric's choices, imported when argparse
    first iterates them: to check a chart's --metric or to print help."""

    def __iter__(self):
        from .report import CHART_METRICS
        return iter(CHART_METRICS)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="docbench",
        description="Token-level evaluation of PDF extraction output against "
                    "DocBank-style ground truth.",
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    fmt = argparse.ArgumentDefaultsHelpFormatter
    ground_truth = argparse.ArgumentParser(add_help=False)
    ground_truth.add_argument(
        "--pattern", default=DEFAULT_KEY_PATTERN,
        help="ground-truth filename pattern with (?P<doc>) and (?P<page>)")
    ground_truth.add_argument(
        "--extra-labels", default="",
        help="comma-separated labels beyond the default twelve")
    journals = argparse.ArgumentParser(add_help=False)
    journals.add_argument("--journal", action="append", required=True,
                          help="journal path (repeat for several tools)")
    journals.add_argument("--variant", choices=("processed", "detected"),
                          default="processed",
                          help="which mean to show: over processed units or "
                               "over all detected units")
    journals.add_argument("--tool", default="",
                          help="override the tool name from the journal")

    p_index = sub.add_parser("index", formatter_class=fmt, parents=[ground_truth],
                             help="scan a ground-truth tree into a JSON index")
    p_index.add_argument("--gt-root", default=os.environ.get("DOCBENCH_GT_ROOT"),
                         required="DOCBENCH_GT_ROOT" not in os.environ,
                         help="ground-truth corpus root")
    p_index.add_argument("--out", required=True, help="index JSON path")
    p_index.set_defaults(func=cmd_index)

    p_eval = sub.add_parser("eval", formatter_class=fmt, parents=[ground_truth],
                            help="score one tool's output against ground truth")
    p_eval.add_argument("--index", help="index JSON from 'docbench index'")
    p_eval.add_argument("--gt-root", default=os.environ.get("DOCBENCH_GT_ROOT"),
                        help="ground-truth root (alternative to --index)")
    p_eval.add_argument("--tool-output",
                        default=os.environ.get("DOCBENCH_TOOL_OUTPUT"),
                        required="DOCBENCH_TOOL_OUTPUT" not in os.environ,
                        help="root of the tool's output files")
    p_eval.add_argument("--adapter-config", required=True,
                        help="adapter config JSON")
    p_eval.add_argument("--journal", required=True,
                        help="JSONL journal to append results to")
    p_eval.add_argument("--labels", default=",".join(sorted(DEFAULT_LABELS)),
                        help="comma-separated labels to evaluate")
    p_eval.add_argument("--threshold", type=float, default=0.7,
                        help="similarity threshold for token matches")
    p_eval.add_argument("--sub-cost", type=int, choices=(1, 2), default=2,
                        help="substitution cost in the edit distance")
    p_eval.add_argument("--ignore-case", action="store_true",
                        help="casefold before comparing")
    p_eval.add_argument("--nfc", action="store_true",
                        help="NFC-normalize text before comparing")
    p_eval.add_argument("--sample", default="",
                        help="restrict to documents in a YYMM:YYMM range")
    p_eval.add_argument("--jobs", type=int, default=1,
                        help="worker processes (at most the CPU count)")
    p_eval.set_defaults(func=cmd_eval)

    p_report = sub.add_parser("report", formatter_class=fmt, parents=[journals],
                              help="aggregate journals into a CSV/JSON report")
    p_report.add_argument("--format", choices=("csv", "json"), default="csv")
    p_report.add_argument("--out", default="", help="output path (default stdout)")
    p_report.set_defaults(func=cmd_report)

    p_chart = sub.add_parser("chart", formatter_class=fmt, parents=[journals],
                             help="render a grouped SVG bar chart")
    p_chart.add_argument("--metric", choices=_ChartMetrics(), metavar="METRIC",
                         required=True, help="one of %(choices)s")
    p_chart.add_argument("--out", required=True, help="SVG output path")
    p_chart.set_defaults(func=cmd_chart)

    p_validate = sub.add_parser("validate", formatter_class=fmt,
                                parents=[ground_truth],
                                help="strict checks on ground truth, adapter "
                                     "configs, or tool output")
    p_validate.add_argument("--gt-root", default="")
    p_validate.add_argument("--adapter-config", default="")
    p_validate.add_argument("--tool-output", default="")
    p_validate.set_defaults(func=cmd_validate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"[ERROR] configuration: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"[ERROR] i/o: {exc}", file=sys.stderr)
        return EXIT_IO
    except DocbenchError as exc:
        print(f"[ERROR] {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except KeyboardInterrupt:
        print("[ERROR] interrupted; rerun the same command to resume",
              file=sys.stderr)
        return EXIT_INTERRUPTED


if __name__ == "__main__":
    sys.exit(main())
