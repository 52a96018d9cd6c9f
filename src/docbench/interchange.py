"""Adapters that normalize tool output files into extraction records.

Every supported output format (XML, JSON, CSV, plaintext) funnels through the
same mechanism: an adapter config maps each label to a selector, the selector
picks items out of the file, and each item becomes one unit of whitespace-
split tokens. Formats differ only in what a selector means:

  xml    a '/'-separated path of element local names (namespace-ignoring),
         matched as descendants of the root; each matched element is one
         item, its text content concatenated in document order. Selectors
         starting with '.' pass through as raw ElementPath. An element search
         cannot take an absolute path, so a selector starting with '/', like
         one ElementPath cannot compile, is refused when the config loads.
  json   a '.'-separated path of object keys; lists encountered along the
         way are mapped over, so 'authors.name' visits every author. The
         path must end at a string, a number, or a list of those; each leaf
         is one item.
  csv    no selector (the whole table is the item set of the 'table' label,
         one item per row, cells flattened row-major); only 'table' may be
         mapped, and any other label is a selector miss.
  text   a 1-based line rule: 'N', 'N-M', 'N-' or '*' / empty for the whole
         file; each selected line is one item. A rule of another form, or
         one that starts at 0 or ends before it starts, is refused on load.
"""

from __future__ import annotations

import csv
import io
import json
import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Iterable

from .corpus import validate_label
from .errors import (AdapterError, ConfigError, CsvParseError, JsonParseError,
                     PathTypeError, XmlParseError)
from .metrics import DEFAULT_MATCH, MatchConfig, _qualified_texts, collate

SELECTOR_MISS = "SelectorMiss"
LOSSY_DECODE = "LossyDecode"

FORMATS = ("xml", "json", "csv", "text")
SCOPES = ("page", "document")

ADAPTER_FORMAT_VERSION = 1

# The keys an adapter config file may hold.
ADAPTER_KEYS = ("format_version", "tool", "format", "scope", "selectors",
                "path_template")

EXTENSIONS = {"xml": ".xml", "json": ".json", "csv": ".csv", "text": ".txt"}


def tokenize(text: str) -> tuple[str, ...]:
    """Split on Unicode whitespace runs; never yields empty tokens."""
    return tuple(text.split())


@dataclass(frozen=True)
class ExtractionRecord:
    """A tool's output for one label in one output file (page or document).

    units preserves item boundaries (one matched element, one JSON leaf, one
    CSV row, one text line); tokens is the flattened view used for scoring.
    """

    label: str
    units: tuple[tuple[str, ...], ...]
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
        if not isinstance(self.tool, str) or not self.tool:
            raise ConfigError("adapter tool name must be a non-empty string")
        if not isinstance(self.path_template, (str, type(None))):
            raise ConfigError("adapter path_template must be a string")
        if not isinstance(self.selector_map, dict):
            raise ConfigError("adapter selectors must be an object")
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
            if not isinstance(selector, str):
                raise ConfigError(f"selector of {label!r} must be a string")
            if selector in seen:
                raise ConfigError(
                    f"selector {selector!r} is mapped to both "
                    f"{seen[selector]!r} and {label!r}")
            seen[selector] = label
        # Each label's select arguments, checked and built once as plain data
        # (a config pickles); csv's table is 'table' whatever the map says.
        object.__setattr__(self, "compiled", {"table": ()} if self.format == "csv"
                           else {label: _compile(self.format, label, selector)
                                 for selector, label in seen.items()})
        fields = {"doc": "1401.0001"}  # a sample document id
        if self.scope == "page":
            fields["page"] = 0
        try:
            self.effective_path_template.format(**fields)
        except (AttributeError, IndexError, KeyError, TypeError,
                ValueError) as exc:
            raise ConfigError(
                f"path_template {self.effective_path_template!r} must format "
                f"with {' and '.join(fields)} alone: {exc!r}") from None

    @property
    def effective_path_template(self) -> str:
        """Where a scope unit's output file lives, relative to the output root."""
        if self.path_template:
            return self.path_template
        ext = EXTENSIONS[self.format]
        if self.scope == "document":
            return "{doc}" + ext
        return "{doc}_{page}" + ext

    def output_path(self, document_id: str, page_index: int) -> str:
        """The output file of a page, relative to the output root; under
        document scope, that of its document."""
        return self.effective_path_template.format(doc=document_id,
                                                   page=page_index)


def load_adapter_config(path: str | Path) -> AdapterConfig:
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ConfigError(f"adapter config is not valid UTF-8: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"adapter config is not valid JSON: {exc}") from None
    # A JSON escape can spell a lone surrogate, which no journal header or
    # config hash can encode.
    try:
        json.dumps(payload, ensure_ascii=False).encode("utf-8")
    except UnicodeEncodeError as exc:
        raise ConfigError("adapter config holds a string UTF-8 cannot encode: "
                          f"{exc.object[exc.start:exc.end]!r}") from None
    if not isinstance(payload, dict):
        raise ConfigError("adapter config must be a JSON object")
    unknown = sorted(set(payload) - set(ADAPTER_KEYS))
    if unknown:
        raise ConfigError(f"adapter config has unknown keys {unknown}; "
                          f"the known keys are {list(ADAPTER_KEYS)}")
    version = payload.get("format_version", ADAPTER_FORMAT_VERSION)
    if version != ADAPTER_FORMAT_VERSION:
        raise ConfigError(f"unsupported adapter format_version: {version!r}")
    for key in ("tool", "format"):
        if key not in payload:
            raise ConfigError(f"adapter config lacks required field {key!r}")
    return AdapterConfig(
        tool=payload["tool"],
        format=payload["format"],
        selector_map=payload.get("selectors", {}),
        scope=payload.get("scope", "page"),
        path_template=payload.get("path_template"),
    )


# A selector that ElementPath reads as one tag name (no path, wildcard,
# namespace, predicate or leading '.'); read_records matches it by local name.
_XML_NAME = re.compile(r"[^./{}*\[\]()@!=\s][^/{}*\[\]()@!=\s]*")


def _compile(fmt: str, label: str, selector: str) -> tuple:
    """The arguments a selector gives its format's select function."""
    if fmt == "xml":
        return selector, _xml_path(label, selector)
    if fmt == "json":
        return tuple(p for p in selector.split(".") if p), selector
    return _line_span(label, selector)


def _xml_path(label: str, selector: str) -> str | None:
    """The ElementPath path of an xml selector, checked to compile; None for
    a plain name."""
    if _XML_NAME.fullmatch(selector):
        return None
    path = selector
    if not selector.startswith((".", "/")):
        parts = [p for p in selector.split("/") if p]
        if not parts:
            raise ConfigError(f"xml selector of {label!r} is empty")
        path = ".//" + "/".join(
            p if p.startswith("{") or p == "*" else "{*}" + p for p in parts)
    try:
        ET.Element("_").findall(path)
    except (KeyError, SyntaxError, TypeError) as exc:
        raise ConfigError(f"xml selector {selector!r} of {label!r} is not a "
                          f"valid element path: {exc}") from None
    return path


def _xml_select(root: ET.Element):
    """A select function over one parsed tree. A plain name reads the
    elements of that local name, bucketed in one walk of the tree that skips
    the root, in document order: what ElementPath's './/{*}name' finds."""
    named: dict[str, list[ET.Element]] = {}
    walk = root.iter()
    next(walk)
    for element in walk:
        named.setdefault(element.tag.rpartition("}")[2], []).append(element)

    def select(name: str, path: str | None) -> list[str] | None:
        found = named.get(name, ()) if path is None else root.findall(path)
        return [" ".join(element.itertext()) for element in found] or None
    return select


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


def _json_walk(value, parts: tuple[str, ...], trail: str) -> list[str] | None:
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


def _csv_rows(text: str) -> list[str]:
    return [" ".join(row) for row in csv.reader(io.StringIO(text))]


def _text_lines(text: str) -> list[str]:
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    return lines


def _line_span(label: str, rule: str) -> tuple[int, int | None]:
    """A line rule's 1-based (start, end) lines; end None for the last."""
    rule = rule.strip()
    if rule in ("", "*"):
        return 1, None
    error = ConfigError(f"invalid line rule {rule!r} of {label!r}")
    try:
        if "-" in rule:
            start_raw, end_raw = rule.split("-", 1)
            start, end = int(start_raw), int(end_raw) if end_raw else None
        else:
            start = end = int(rule)
    except ValueError:
        raise error from None
    if start < 1 or (end is not None and end < start):
        raise error
    return start, end


def _line_items(lines: list[str], start: int, end: int | None) -> list[str] | None:
    return lines[start - 1:end] or None


def read_records(
    path: str | Path,
    adapter: AdapterConfig,
    labels: Iterable[str],
) -> dict[str, ExtractionRecord | AdapterError]:
    """Every label's record from one output file, which is read and parsed once.

    Each item text is split into one unit of tokens; items without tokens
    are dropped. A label with no selector, or whose selector finds nothing,
    gets an empty record flagged SELECTOR_MISS. A CSV file is the item set of
    the 'table' label alone, one item per row, and never a miss. A file that
    does not parse gives its AdapterError for every label, and a JSON path
    that ends at an unusable value its PathTypeError for that label only;
    the caller names the file. AdapterConfig checks every selector when it
    loads, so no selector fails here.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        text, flags = data.decode("utf-8"), ()
    except UnicodeDecodeError:
        text, flags = data.decode("utf-8", errors="replace"), (LOSSY_DECODE,)
    try:
        if adapter.format == "xml":
            select = _xml_select(ET.fromstring(text))
        elif adapter.format == "json":
            select = partial(_json_walk, json.loads(text))
        elif adapter.format == "csv":
            select = partial(lambda rows: rows, _csv_rows(text))
        else:
            select = partial(_line_items, _text_lines(text))
    except (ET.ParseError, json.JSONDecodeError, csv.Error) as exc:
        error = {"xml": XmlParseError, "json": JsonParseError,
                 "csv": CsvParseError}[adapter.format]
        return dict.fromkeys(labels, error(str(exc)))
    records: dict[str, ExtractionRecord | AdapterError] = {}
    for label in labels:
        arguments = adapter.compiled.get(label)
        try:
            items = None if arguments is None else select(*arguments)
        except PathTypeError as exc:
            records[label] = exc
            continue
        if items is None:
            records[label] = ExtractionRecord(label, (), flags + (SELECTOR_MISS,))
        else:
            units = tuple(unit for unit in map(tokenize, items) if unit)
            records[label] = ExtractionRecord(label, units, flags)
    return records


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

    Items of one width share their windows: one kernel pass per width
    packs every window into the lanes of one integer (the multiple-pattern
    scheme of Hyyrö, Fredriksson & Navarro 2005) and reads which rows reach
    the threshold. An item equal to one of its windows needs no kernel row.
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
        texts, _, found = _qualified_texts(
            [collate(units[p]) for p in positions], windows, config,
            columns=False)
        for position, text in zip(positions, texts):
            keep[position] = text in found
    return tuple(unit for unit, kept in zip(units, keep) if kept)
