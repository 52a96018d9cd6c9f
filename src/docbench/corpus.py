"""Ground-truth corpus handling for DocBank-style annotation files.

A corpus is a directory tree of UTF-8 plaintext files, one token per line.
Each line carries at least ten tab-separated fields:

    token  x0  y0  x1  y1  R  G  B  font  label

Extra trailing fields are ignored. Page identity (document id, page index) is
derived from the filename through a configurable regular expression.
"""

from __future__ import annotations

import functools
import json
import logging
import math
import os
import re
import unicodedata
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

from .errors import ConfigError, KeyParseError, MalformedRecord, UnknownLabel

logger = logging.getLogger(__name__)

DEFAULT_LABELS: frozenset[str] = frozenset({
    "abstract", "author", "caption", "equation", "figure", "footer",
    "list", "paragraph", "reference", "section", "table", "title",
})

# Annotation filenames embed a shard prefix, an arXiv-style id, the source
# name, and a trailing page index, e.g. 2.tar_1801.00617.gz_main_4.txt.
# The pattern is configurable because naming schemes vary between dumps.
DEFAULT_KEY_PATTERN = r"(?P<doc>\d{4}\.\d{4,5})(?:\D[^\t]*?)?_(?P<page>\d+)\.txt$"

GT_FIELD_COUNT = 10

_LABEL_RE = re.compile(r"^[a-z][a-z0-9_-]*$")
_MONTH_RE = re.compile(r"^\d{4}$")
_NEW_STYLE_ID_RE = re.compile(r"^(\d{4})\.")

INDEX_FORMAT_VERSION = 1

# str(i) -> i over the box and colour values a DocBank page holds. int(s)
# equals _SMALL_INTS[s] for every key, so parse_gt_page reads a line's seven
# numeric fields by lookup; a value outside the table (1024, " 12 ", "007",
# "1.5", ...) sends its line to parse_gt_record.
_SMALL_INTS: dict[str, int] = {str(i): i for i in range(1024)}


def validate_label(label: str) -> str:
    """Check label syntax (lowercase identifier); returns the label unchanged."""
    if not _LABEL_RE.match(label):
        raise ConfigError(f"invalid label syntax: {label!r}")
    return label


class _PageKeyFields(NamedTuple):
    document_id: str
    page_index: int


class PageKey(_PageKeyFields):
    """A page's (document id, page index): a tuple, so hashing, equality,
    ordering and pickling run as the tuple's C code, and a key equals its
    plain tuple. Constructing one, unpickling too, checks both fields;
    _make and _replace do not."""

    __slots__ = ()

    def __new__(cls, document_id: str, page_index: int):
        if not document_id:
            raise ValueError("document_id must be non-empty")
        if page_index < 0:
            raise ValueError("page_index must be >= 0")
        return tuple.__new__(cls, (document_id, page_index))

    def __str__(self) -> str:
        return f"{self.document_id}:{self.page_index}"


@dataclass(frozen=True)
class ParseIssue:
    line_no: int
    kind: str  # "malformed" | "unknown-label" | "fractional-coordinate" | "decode"
    message: str


@dataclass(frozen=True)
class GroundTruthPage:
    key: PageKey
    texts: dict[str, tuple[str, ...]]  # label -> token texts, in file order
    issues: tuple[ParseIssue, ...] = ()

    @property
    def labels(self) -> frozenset[str]:
        return frozenset(self.texts)

    def tokens_for_label(self, label: str) -> tuple[str, ...]:
        """Token texts carrying the given label, in file order."""
        return self.texts.get(label, ())


def _parse_coordinate(raw: str, name: str, line_no: int) -> tuple[int, ParseIssue | None]:
    raw = raw.strip()
    try:
        return int(raw), None
    except ValueError:
        pass
    try:
        value = float(raw)
    except ValueError:
        raise MalformedRecord(f"non-numeric {name}: {raw!r}", line_no) from None
    if not math.isfinite(value):
        raise MalformedRecord(f"non-finite {name}: {raw!r}", line_no)
    issue = ParseIssue(line_no, "fractional-coordinate",
                       f"{name}={raw} truncated to {int(value)}")
    return int(value), issue


def parse_gt_record(
    line: str,
    vocabulary: frozenset[str] = DEFAULT_LABELS,
    line_no: int = 0,
    nfc: bool = False,
) -> tuple[str, str, tuple[ParseIssue, ...]]:
    """Parse one annotation line into (label, token text, non-fatal warnings).

    Coordinates, colours and font are checked but not kept. Raises
    MalformedRecord for structural problems and UnknownLabel for a label
    outside the vocabulary; both carry the line number.
    """
    fields = line.rstrip("\n").split("\t")
    if len(fields) < GT_FIELD_COUNT:
        raise MalformedRecord(
            f"expected >= {GT_FIELD_COUNT} fields, got {len(fields)}", line_no)
    text = fields[0].strip()
    if not text:
        raise MalformedRecord("empty token text", line_no)
    if nfc:
        text = unicodedata.normalize("NFC", text)
    issues: list[ParseIssue] = []
    coords = []
    for raw, name in zip(fields[1:5], ("x0", "y0", "x1", "y1")):
        value, issue = _parse_coordinate(raw, name, line_no)
        coords.append(value)
        if issue:
            issues.append(issue)
    x0, y0, x1, y1 = coords
    if x0 > x1 or y0 > y1:
        raise MalformedRecord(f"inverted bbox ({x0},{y0},{x1},{y1})", line_no)
    for raw, name in zip(fields[5:8], ("R", "G", "B")):
        try:
            channel = int(raw.strip())
        except ValueError:
            raise MalformedRecord(f"non-integer {name}: {raw!r}",
                                  line_no) from None
        if not 0 <= channel <= 255:
            raise MalformedRecord(f"{name} out of range: {channel}", line_no)
    label = fields[9].strip()
    if label not in vocabulary:
        raise UnknownLabel(label, line_no)
    return label, text, tuple(issues)


@functools.lru_cache(maxsize=64)
def _compiled_key_pattern(pattern: str) -> re.Pattern[str]:
    # Accept .NET-style (?<name>...) groups as well; translate to Python
    # syntax, leaving lookbehinds (?<= and (?<! alone.
    translated = re.sub(r"\(\?<(?![=!])", "(?P<", pattern)
    try:
        compiled = re.compile(translated)
    except re.error as exc:
        raise ConfigError(f"invalid key pattern: {exc}") from None
    for group in ("doc", "page"):
        if group not in compiled.groupindex:
            raise ConfigError(f"key pattern lacks a (?P<{group}>...) group")
    return compiled


def parse_page_key(filename: str | Path, pattern: str = DEFAULT_KEY_PATTERN) -> PageKey:
    """Derive (document id, page index) from an annotation filename.

    The whole of filename, directories too, must be valid UTF-8: a byte the
    filesystem name held that is not reaches it as a surrogate, which no
    index (it holds the path) or journal (the document id) can hold.
    """
    name = os.path.basename(filename)
    match = _compiled_key_pattern(pattern).search(name)
    if not match:
        raise KeyParseError(f"filename does not match key pattern: {name!r}")
    path = os.fspath(filename)
    try:
        path.encode("utf-8")
    except UnicodeEncodeError:
        raise KeyParseError(f"path {path!r} is not valid UTF-8, so no index "
                            "or journal can hold it") from None
    doc, page = match.group("doc", "page")
    try:
        return PageKey(doc, int(page))
    except (TypeError, ValueError):  # an empty or absent group, a bad page
        raise KeyParseError(f"filename {name!r} gives no page key: document "
                            f"{doc!r}, page {page!r}") from None


def parse_gt_page(
    path: str | Path,
    vocabulary: frozenset[str] = DEFAULT_LABELS,
    pattern: str = DEFAULT_KEY_PATTERN,
    strict: bool = False,
    nfc: bool = False,
) -> GroundTruthPage:
    """Parse one annotation file.

    Lenient mode (default) skips malformed lines and records them as issues
    on the returned page; strict mode raises on the first problem.
    """
    key = parse_page_key(path, pattern)
    with open(path, "rb") as handle:
        data = handle.read()
    issues: list[ParseIssue] = []
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        if strict:
            raise
        text = data.decode("utf-8", errors="replace")
        issues.append(ParseIssue(0, "decode", f"lossy UTF-8 decode: {exc}"))

    texts: dict[str, list[str]] = {}
    small_int = _SMALL_INTS.get
    for line_no, line in enumerate(text.split("\n"), start=1):
        # A line parse_gt_record accepts with no warning, checked inline with
        # its numbers read from _SMALL_INTS; every other line, blank or
        # broken, goes to parse_gt_record, which owns the issue it reports.
        fields = line.split("\t")
        if len(fields) >= GT_FIELD_COUNT:
            token, label = fields[0].strip(), fields[9].strip()
            x0, y0, x1, y1, r, g, b = map(small_int, fields[1:8])
            try:
                valid = (token and label in vocabulary and x0 <= x1 and y0 <= y1
                         and r < 256 and g < 256 and b < 256)
            except TypeError:  # a field outside the table, read as None
                valid = False
            if valid:
                if nfc:
                    token = unicodedata.normalize("NFC", token)
                if label in texts:
                    texts[label].append(token)
                else:
                    texts[label] = [token]
                continue
        if not line.strip():
            continue
        try:
            label, token, warnings = parse_gt_record(line, vocabulary, line_no, nfc)
        except MalformedRecord as exc:
            if strict:
                raise
            issues.append(ParseIssue(exc.line_no, "malformed", str(exc)))
            continue
        except UnknownLabel as exc:
            if strict:
                raise
            issues.append(ParseIssue(exc.line_no, "unknown-label", str(exc)))
            continue
        texts.setdefault(label, []).append(token)
        issues.extend(warnings)
    return GroundTruthPage(key, {label: tuple(tokens) for label, tokens in texts.items()},
                           tuple(issues))


@dataclass(frozen=True)
class CorpusIndex:
    entries: dict[PageKey, Path]  # in key order, which runs plan in
    label_presence: dict[str, frozenset[PageKey]]
    vocabulary: frozenset[str] = DEFAULT_LABELS
    skipped_files: tuple[str, ...] = ()

    def __len__(self) -> int:
        return len(self.entries)

    def pages_with_label(self, label: str) -> frozenset[PageKey]:
        return self.label_presence.get(label, frozenset())


def index_corpus(
    root: str | Path,
    vocabulary: frozenset[str] = DEFAULT_LABELS,
    pattern: str = DEFAULT_KEY_PATTERN,
) -> CorpusIndex:
    """Walk a corpus tree and record which labels occur on which pages.

    This is a fast pass over the label field only; it does not validate
    coordinates or colours. Files whose names do not match the key pattern,
    or whose paths are not valid UTF-8, are skipped with a warning.
    """
    root = Path(root)
    if not root.is_dir():
        raise NotADirectoryError(f"corpus root is not a directory: {root}")
    found: dict[PageKey, Path] = {}
    presence: dict[str, set[PageKey]] = {}
    skipped: list[str] = []
    for path in sorted(root.rglob("*.txt")):
        try:
            key = parse_page_key(path, pattern)
        except KeyParseError as exc:
            skipped.append(path.name)
            logger.warning("skipping a ground-truth file: %s", exc)
            continue
        found[key] = path
        with open(path, "rb") as handle:
            text = handle.read().decode("utf-8", errors="replace")
        # "\n" ends any invalid UTF-8 sequence, so each line decodes here as
        # it would alone, and as parse_gt_page reads it.
        labels = set()
        for line in text.split("\n"):
            fields = line.split("\t")
            if len(fields) >= GT_FIELD_COUNT:
                labels.add(fields[9].strip())
        for label in labels & vocabulary:
            presence.setdefault(label, set()).add(key)
    entries = {key: found[key] for key in sorted(found)}
    label_presence = {label: frozenset(keys) for label, keys in sorted(presence.items())}
    return CorpusIndex(entries, label_presence, vocabulary, tuple(skipped))


def sample_by_month(index: CorpusIndex, from_month: str, to_month: str) -> frozenset[PageKey]:
    """Pages of documents whose id starts with a YYMM prefix inside the range.

    Document ids that do not follow the new-style arXiv convention
    (four leading digits, then a dot) are excluded with a warning.
    """
    for value in (from_month, to_month):
        if not _MONTH_RE.match(value) or not 1 <= int(value[2:]) <= 12:
            raise ConfigError(f"invalid YYMM month: {value!r}")
    if from_month > to_month:
        raise ConfigError(f"month range is inverted: {from_month} > {to_month}")
    keep: set[PageKey] = set()
    warned: set[str] = set()
    for key in index.entries:
        match = _NEW_STYLE_ID_RE.match(key.document_id)
        if not match:
            if key.document_id not in warned:
                warned.add(key.document_id)
                logger.warning("document id without YYMM prefix excluded "
                               "from sample: %s", key.document_id)
            continue
        if from_month <= match.group(1) <= to_month:
            keep.add(key)
    return frozenset(keep)


def save_index(index: CorpusIndex, path: str | Path) -> None:
    """Write the index to a versioned, compact JSON cache."""
    labels: dict[PageKey, list[str]] = {key: [] for key in index.entries}
    for label in sorted(index.label_presence):
        for key in index.label_presence[label]:
            if key in labels:
                labels[key].append(label)
    payload = {
        "format_version": INDEX_FORMAT_VERSION,
        "vocabulary": sorted(index.vocabulary),
        "entries": [{"doc": key.document_id, "page": key.page_index,
                     "path": str(page_path), "labels": labels[key]}
                    for key, page_path in index.entries.items()],
    }
    # No indent, so json encodes with its C encoder.
    Path(path).write_text(json.dumps(payload, ensure_ascii=False,
                                     separators=(",", ":")) + "\n",
                          encoding="utf-8")


def _strings(value: object) -> bool:
    return isinstance(value, list) and all(isinstance(item, str) for item in value)


def load_index(path: str | Path) -> CorpusIndex:
    """Load a JSON cache produced by save_index. A cache that is not UTF-8
    JSON of that shape raises ConfigError."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # UnicodeDecodeError, JSONDecodeError
        raise ConfigError(f"index cache {path} is not UTF-8 JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise ConfigError(f"index cache {path} is not a JSON object")
    if payload.get("format_version") != INDEX_FORMAT_VERSION:
        raise ConfigError(
            f"unsupported index format_version: {payload.get('format_version')!r}")
    listed = payload.get("entries")
    if not isinstance(listed, list) or not _strings(payload.get("vocabulary")):
        raise ConfigError(f"index cache {path} lacks a list of entries or "
                          "of vocabulary strings")
    entries: dict[PageKey, Path] = {}
    presence: dict[str, set[PageKey]] = {}
    for number, entry in enumerate(listed):
        try:
            doc, page, labels = entry["doc"], entry["page"], entry["labels"]
            if not (isinstance(doc, str) and type(page) is int
                    and isinstance(entry["path"], str) and _strings(labels)):
                raise TypeError
            key = PageKey(doc, page)
        except (KeyError, TypeError, ValueError):
            raise ConfigError(f"index cache {path}: entry {number} is not a "
                              "page key with a path and labels") from None
        entries[key] = Path(entry["path"])
        for label in labels:
            presence.setdefault(label, set()).add(key)
    entries = {key: entries[key] for key in sorted(entries)}
    label_presence = {label: frozenset(keys) for label, keys in sorted(presence.items())}
    return CorpusIndex(entries, label_presence, frozenset(payload["vocabulary"]))
