"""Adapters that normalize tool output files into extraction records.

Every supported output format (XML, JSON, CSV, plaintext) funnels through the
same mechanism: an adapter config maps each label to a selector, the selector
picks items out of the file, and each item becomes one unit of whitespace-
split tokens. Formats differ only in what a selector means:

  xml    a '/'-separated path of element local names (namespace-ignoring),
         matched as descendants of the root; each matched element is one
         item, its text content concatenated in document order. Selectors
         starting with '.' or '/' pass through as raw ElementPath.
  json   a '.'-separated path of object keys; lists encountered along the
         way are mapped over, so 'authors.name' visits every author. The
         path must end at a string, a number, or a list of those; each leaf
         is one item.
  csv    no selector (the whole table is the item set, one item per row,
         cells flattened row-major); only the 'table' label may be mapped.
  text   a 1-based line rule: 'N', 'N-M', 'N-' or '*' / empty for the whole
         file; each selected line is one item.
"""

from __future__ import annotations

import csv
import io
import json
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from pathlib import Path

from .corpus import DocumentKey, PageKey, validate_label
from .errors import (ConfigError, CsvParseError, JsonParseError,
                     PathTypeError, XmlParseError)
from .metrics import DEFAULT_MATCH, MatchConfig, collate, similarity_matrix

SELECTOR_MISS = "SelectorMiss"
LOSSY_DECODE = "LossyDecode"

FORMATS = ("xml", "json", "csv", "text")
SCOPES = ("page", "document")

ADAPTER_FORMAT_VERSION = 1

_EXTENSIONS = {"xml": ".xml", "json": ".json", "csv": ".csv", "text": ".txt"}


def tokenize(text: str) -> tuple[str, ...]:
    """Split on Unicode whitespace runs; never yields empty tokens."""
    return tuple(text.split())


@dataclass(frozen=True)
class ExtractionRecord:
    """One tool's output for one label on one scope unit (page or document).

    units preserves item boundaries (one matched element, one JSON leaf, one
    CSV row, one text line); tokens is the flattened view used for scoring.
    """

    tool: str
    key: PageKey | DocumentKey | None
    label: str
    units: tuple[tuple[str, ...], ...]
    source_path: Path | None = None
    flags: tuple[str, ...] = ()

    @property
    def tokens(self) -> tuple[str, ...]:
        return tuple(token for unit in self.units for token in unit)


@dataclass(frozen=True)
class AdapterConfig:
    tool: str
    format: str
    selector_map: dict[str, str] = field(default_factory=dict)
    scope: str = "page"
    path_template: str | None = None

    def __post_init__(self):
        if not self.tool:
            raise ConfigError("adapter tool name must be non-empty")
        if self.format not in FORMATS:
            raise ConfigError(f"unsupported adapter format: {self.format!r}")
        if self.scope not in SCOPES:
            raise ConfigError(f"unsupported adapter scope: {self.scope!r}")
        for label in self.selector_map:
            validate_label(label)
        if self.format == "csv" and set(self.selector_map) - {"table"}:
            raise ConfigError("csv adapters may only map the 'table' label")
        seen: dict[str, str] = {}
        for label, selector in sorted(self.selector_map.items()):
            if selector in seen:
                raise ConfigError(
                    f"selector {selector!r} is mapped to both "
                    f"{seen[selector]!r} and {label!r}")
            seen[selector] = label

    @property
    def effective_path_template(self) -> str:
        """Where a scope unit's output file lives, relative to the output root."""
        if self.path_template:
            return self.path_template
        ext = _EXTENSIONS[self.format]
        if self.scope == "document":
            return "{doc}" + ext
        return "{doc}_{page}" + ext


def load_adapter_config(path: str | Path) -> AdapterConfig:
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"adapter config is not valid JSON: {exc}") from None
    version = payload.get("format_version", ADAPTER_FORMAT_VERSION)
    if version != ADAPTER_FORMAT_VERSION:
        raise ConfigError(f"unsupported adapter format_version: {version!r}")
    for key in ("tool", "format"):
        if key not in payload:
            raise ConfigError(f"adapter config lacks required field {key!r}")
    return AdapterConfig(
        tool=payload["tool"],
        format=payload["format"],
        selector_map=dict(payload.get("selectors", {})),
        scope=payload.get("scope", "page"),
        path_template=payload.get("path_template"),
    )


def save_adapter_config(config: AdapterConfig, path: str | Path) -> None:
    payload = {
        "format_version": ADAPTER_FORMAT_VERSION,
        "tool": config.tool,
        "format": config.format,
        "scope": config.scope,
        "selectors": dict(sorted(config.selector_map.items())),
    }
    if config.path_template:
        payload["path_template"] = config.path_template
    Path(path).write_text(json.dumps(payload, indent=2, ensure_ascii=False) + "\n",
                          encoding="utf-8")


def _read_lossy(path: Path) -> tuple[str, tuple[str, ...]]:
    data = path.read_bytes()
    try:
        return data.decode("utf-8"), ()
    except UnicodeDecodeError:
        return data.decode("utf-8", errors="replace"), (LOSSY_DECODE,)


def _xml_element_path(selector: str) -> str:
    if selector.startswith((".", "/")):
        return selector
    parts = [p for p in selector.split("/") if p]
    if not parts:
        raise ConfigError("empty xml selector")
    return ".//" + "/".join(
        p if p.startswith("{") or p == "*" else "{*}" + p for p in parts)


def parse_xml_extraction(
    path: str | Path,
    config: AdapterConfig,
    label: str,
    key: PageKey | DocumentKey | None = None,
) -> list[ExtractionRecord]:
    """One record per scope unit; each element matching the selector is an item."""
    path = Path(path)
    text, flags = _read_lossy(path)
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise XmlParseError(f"{path.name}: {exc}") from None
    selector = config.selector_map.get(label)
    if selector is None:
        return [ExtractionRecord(config.tool, key, label, (), path,
                                 flags + (SELECTOR_MISS,))]
    matches = root.findall(_xml_element_path(selector))
    if not matches:
        flags = flags + (SELECTOR_MISS,)
    units = []
    for element in matches:
        unit = tokenize(" ".join(element.itertext()))
        if unit:
            units.append(unit)
    return [ExtractionRecord(config.tool, key, label, tuple(units), path, flags)]


def _json_leaves(value, trail: str) -> list[str]:
    if isinstance(value, str):
        return [value]
    if isinstance(value, bool) or value is None:
        raise PathTypeError(f"path {trail!r} ends at {type(value).__name__}")
    if isinstance(value, (int, float)):
        return [str(value)]
    if isinstance(value, list):
        out = []
        for item in value:
            if isinstance(item, (dict, list)):
                raise PathTypeError(
                    f"path {trail!r} ends at a list of {type(item).__name__}s; "
                    "extend the path to a text field")
            out.extend(_json_leaves(item, trail))
        return out
    raise PathTypeError(f"path {trail!r} ends at an object; "
                        "extend the path to a text field")


def _json_walk(value, parts: list[str], trail: str) -> list[str] | None:
    """Resolve a dotted path; returns None when the path is absent."""
    if isinstance(value, list):
        collected = []
        hit = False
        for item in value:
            got = _json_walk(item, parts, trail)
            if got is not None:
                hit = True
                collected.extend(got)
        return collected if hit else None
    if not parts:
        return _json_leaves(value, trail)
    head, rest = parts[0], parts[1:]
    if not isinstance(value, dict) or head not in value:
        return None
    return _json_walk(value[head], rest, trail)


def parse_json_extraction(
    path: str | Path,
    config: AdapterConfig,
    label: str,
    key: PageKey | DocumentKey | None = None,
) -> list[ExtractionRecord]:
    """One record per scope unit; each string leaf under the path is an item."""
    path = Path(path)
    text, flags = _read_lossy(path)
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise JsonParseError(f"{path.name}: {exc}") from None
    selector = config.selector_map.get(label)
    if selector is None:
        return [ExtractionRecord(config.tool, key, label, (), path,
                                 flags + (SELECTOR_MISS,))]
    leaves = _json_walk(payload, [p for p in selector.split(".") if p], selector)
    if leaves is None:
        leaves = []
        flags = flags + (SELECTOR_MISS,)
    units = tuple(unit for unit in (tokenize(leaf) for leaf in leaves) if unit)
    return [ExtractionRecord(config.tool, key, label, units, path, flags)]


def parse_table_csv(
    path: str | Path,
    tool: str = "",
    key: PageKey | DocumentKey | None = None,
) -> list[ExtractionRecord]:
    """Flatten a CSV table row-major; always labelled 'table', one item per row."""
    path = Path(path)
    text, flags = _read_lossy(path)
    units = []
    try:
        for row in csv.reader(io.StringIO(text)):
            unit = tuple(token for cell in row for token in tokenize(cell))
            if unit:
                units.append(unit)
    except csv.Error as exc:
        raise CsvParseError(f"{path.name}: {exc}") from None
    return [ExtractionRecord(tool, key, "table", tuple(units), path, flags)]


def _parse_line_rule(rule: str, line_count: int) -> range:
    rule = rule.strip()
    if rule in ("", "*"):
        return range(1, line_count + 1)
    try:
        if "-" in rule:
            start_raw, end_raw = rule.split("-", 1)
            start = int(start_raw)
            end = int(end_raw) if end_raw else line_count
        else:
            start = end = int(rule)
    except ValueError:
        raise ConfigError(f"invalid line rule: {rule!r}") from None
    if start < 1 or end < start:
        raise ConfigError(f"invalid line rule: {rule!r}")
    return range(start, min(end, line_count) + 1)


def parse_plaintext(
    path: str | Path,
    config: AdapterConfig,
    label: str,
    key: PageKey | DocumentKey | None = None,
) -> list[ExtractionRecord]:
    """One record per scope unit; each selected line is an item.

    The selector is a 1-based inclusive line rule ('2', '2-3', '4-', '*').
    """
    path = Path(path)
    text, flags = _read_lossy(path)
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    rule = config.selector_map.get(label)
    if rule is None:
        return [ExtractionRecord(config.tool, key, label, (), path,
                                 flags + (SELECTOR_MISS,))]
    selected = _parse_line_rule(rule, len(lines))
    if len(selected) == 0:
        flags = flags + (SELECTOR_MISS,)
    units = []
    for line_no in selected:
        unit = tokenize(lines[line_no - 1])
        if unit:
            units.append(unit)
    return [ExtractionRecord(config.tool, key, label, tuple(units), path, flags)]


def restrict_units(
    units: tuple[tuple[str, ...], ...],
    gt_tokens: tuple[str, ...],
    config: MatchConfig = DEFAULT_MATCH,
) -> tuple[tuple[str, ...], ...]:
    """Keep items whose text best aligns with the ground truth.

    An item qualifies when the ratio between its collated text and the
    best-matching window of equally many ground-truth tokens reaches the
    threshold. Used to pare document-wide output down to the part a
    page-partial ground truth actually covers.

    Items of one width share their windows: one similarity matrix per width
    packs every window into the lanes of one integer (the multiple-pattern
    scheme of Hyyrö, Fredriksson & Navarro 2005) and takes row maxima.
    """
    if not gt_tokens:
        return ()
    by_width: dict[int, list[int]] = {}
    for position, unit in enumerate(units):
        by_width.setdefault(min(len(unit), len(gt_tokens)), []).append(position)
    keep = [False] * len(units)
    for width, positions in by_width.items():
        windows = [collate(gt_tokens[start:start + width])
                   for start in range(len(gt_tokens) - width + 1)]
        matrix = similarity_matrix([collate(units[p]) for p in positions],
                                   windows, config)
        for position, best in zip(positions, matrix.values.max(axis=1)):
            keep[position] = best >= config.threshold
    return tuple(unit for unit, kept in zip(units, keep) if kept)
