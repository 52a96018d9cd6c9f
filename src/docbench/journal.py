"""Journals: a header line, then one JSON line per evaluation unit. Reading
one loads neither the adapters nor the pipeline."""

from __future__ import annotations

import errno
import json
import logging
import os
import re
from functools import lru_cache
from stat import S_ISREG
from typing import BinaryIO, Iterator, NamedTuple, TextIO

from . import __version__ as HARNESS_VERSION
from .corpus import PageKey
from .errors import ConfigError
from .metrics import DocumentScores

logger = logging.getLogger(__name__)

HARNESS_NAME = "docbench"
JOURNAL_FORMAT_VERSION = 1

STATUS_SCORED = "scored"
STATUS_MISSING = "tool_output_missing"
STATUS_ERROR = "tool_error_artifact"

UnitKey = tuple[str, int, str]


class UnitResult(NamedTuple):
    key: PageKey
    label: str
    status: str
    scores: DocumentScores


# json.dumps(s, ensure_ascii=False) for a str, with one shared encoder.
_encode = json.JSONEncoder(ensure_ascii=False).encode

# _encode for labels and statuses, each encoded once: labels are validated
# names from a run's config and there are three statuses, so it stays small.
_encode_name = lru_cache(maxsize=None)(_encode)

# The unit line's format, and from it the pattern of the lines it writes
# whose strings json encodes as themselves: non-empty, with no '"', no '\'
# and no control character, and whose scores lie in [0, 1]. json reads a
# line the pattern matches in full as the groups' strings and the groups'
# int() and float() values, so read_units reads such a line from its
# groups, and any other as JSON.
_UNIT_LINE = ('{"doc":%s,"page":%d,"label":%s,"status":%s,'
              '"p":%.6f,"r":%.6f,"f1":%.6f,"acc":%.6f,"m":%d,"n":%d}')
_match_unit_line = re.compile(
    re.escape(_UNIT_LINE).replace("%s", r'"([^"\\\x00-\x1f]+)"')
    .replace("%d", "(0|[1-9][0-9]*)").replace(r"%\.6f", r"(0\.[0-9]{6}|1\.000000)")
).fullmatch


def unit_result_to_line(result: UnitResult) -> str:
    """One journal line; score fields carry exactly six decimals."""
    s = result.scores
    return _UNIT_LINE % (
        _encode(result.key.document_id), result.key.page_index,
        _encode_name(result.label), _encode_name(result.status),
        s.precision, s.recall, s.f1, s.accuracy, s.m, s.n)


def journal_header(tool: str, fingerprint: str) -> str:
    return json.dumps({
        "kind": "header",
        "format_version": JOURNAL_FORMAT_VERSION,
        "harness": HARNESS_NAME,
        "version": HARNESS_VERSION,
        "tool": tool,
        "config": fingerprint,
    }, ensure_ascii=False, separators=(",", ":"))


def open_journal(path: str | os.PathLike[str]) -> BinaryIO:
    """A journal opened for binary reading without blocking. Anything but a
    regular file (a FIFO, a device) raises OSError, so no read can hang."""
    journal = open(path, "rb",
                   opener=lambda name, flags: os.open(name, flags | os.O_NONBLOCK))
    if not S_ISREG(os.fstat(journal.fileno()).st_mode):
        journal.close()
        raise OSError(errno.EINVAL, "Not a regular file", journal.name)
    return journal


# A namedtuple from all its fields, without its generated Python __new__.
_new = tuple.__new__

# On a stripped line, raw_decode with its end at the line's end accepts and
# rejects exactly what json.loads does, without json.loads' extra calls.
_decode = json.JSONDecoder().raw_decode


def read_units(journal: BinaryIO, whole_lines: bool = False,
               seen: dict[UnitKey, UnitResult] | None = None,
               ) -> Iterator[dict | None | UnitResult]:
    """Stream an open journal: its header (None if it has none), then its
    results in file order, those read before the header held until then.

    A line that is not a complete unit record, has a score outside [0, 1]
    (NaN too) or a name that is not a string (a unit's doc, label or status,
    a header's tool or config) is skipped with a warning, and so is a
    repeat of a unit already read: the first line of a unit counts.
    Each result read is stored in seen (a new dict unless given) by its unit
    key, and a unit already in seen counts as read. Each line is decoded on
    its own, so a line cut inside a multi-byte character is one malformed
    line. The first header counts; a later one with another config raises
    ConfigError, and a repeat of it is skipped with a warning. The units of
    a page share one PageKey, and units with equal uniform scores one
    DocumentScores. With whole_lines, a last line without a newline, which
    an interrupted write leaves, is not read, and the journal is left at its
    start.
    """
    header, header_line = None, 0
    early: list[UnitResult] | None = []  # the results before the header
    seen = {} if seen is None else seen
    keys: dict[tuple[str, int], PageKey] = {}
    names: dict[str, str] = {}  # one copy of each label and status
    # One record per (score, m, n) of the pattern-read lines whose four scores
    # are one string: the ones of exact units, the zeros of empty ones.
    uniform: dict[tuple[str, str, str], DocumentScores] = {}
    for line_no, line in enumerate(journal, start=1):
        if whole_lines and line[-1] != 10:  # no b"\n"
            journal.seek(-len(line), os.SEEK_CUR)
            break
        line = line.strip()
        if not line:
            continue
        try:
            text = line.decode("utf-8")
            fields, scores = _match_unit_line(text), None
            if fields is not None:
                doc, page, label, status, p, r, f1, acc, m, n = fields.groups()
                if p == r == f1 == acc:
                    scores = uniform.get((p, m, n))
                    if scores is None:
                        scores = uniform[p, m, n] = _new(DocumentScores, (
                            float(p),) * 4 + (int(m), int(n), ()))
            else:
                payload, end = _decode(text)
                if end != len(text):
                    raise ValueError("extra data")
                if isinstance(payload, dict) and payload.get("kind") == "header":
                    if {type(payload.get(name, "")) for name in ("tool", "config")} != {str}:
                        raise TypeError("a header's tool or config is not a string")
                    if header is None:
                        header, header_line = payload, line_no
                    elif payload.get("config") != header.get("config"):
                        raise ConfigError(
                            f"journal {journal.name} line {line_no} is a header "
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
                if {type(doc), type(label), type(status)} != {str}:
                    raise TypeError("a doc, label or status that is not a string")
            if scores is None:
                scores = _new(DocumentScores, (float(p), float(r), float(f1),
                                               float(acc), int(m), int(n), ()))
                if fields is None and not all(0.0 <= s <= 1.0 for s in scores[:4]):
                    raise ValueError("a score outside [0, 1]")
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
        if unit in seen:
            logger.warning("skipping repeated unit %s/%s on journal line %d",
                           key, label, line_no)
            continue
        result = seen[unit] = _new(UnitResult, (key, label, status, scores))
        if early is not None:
            if header is None:
                early.append(result)
                continue
            yield header
            yield from early
            early = None
        yield result
    if early is not None:
        yield header
        yield from early


def read_journal(path: str | os.PathLike[str],
                 ) -> tuple[dict | None, list[UnitResult]]:
    """A journal's header (None if it has none) and its results in file
    order, as read_units reads them."""
    with open_journal(path) as journal:
        units = read_units(journal)
        return next(units), list(units)


def resume_journal(path: str | os.PathLike[str], tool: str, fingerprint: str,
                   ) -> tuple[dict[UnitKey, UnitResult], TextIO]:
    """A journal's results by unit key, and the journal open to append to.
    One that is absent or holds neither header nor unit line is written
    afresh; one with unit lines but no header, or with another fingerprint,
    raises and is left as it was. Else the part of a line an interrupted
    write left is cut: appended to, it would merge with the next line and
    lose that unit."""
    header, done = None, {}
    if os.path.exists(path):
        with open_journal(path) as journal:
            units = read_units(journal, whole_lines=True, seen=done)
            header = next(units)
            for _ in units:  # each result goes into done
                pass
            length, size = journal.tell(), os.fstat(journal.fileno()).st_size
        if header is None and done:
            raise ConfigError(f"journal {path} holds unit lines but no header, "
                              f"so its config cannot be checked")
        if header is not None and header.get("config") != fingerprint:
            raise ConfigError(f"journal {path} was written with config "
                              f"{header.get('config')!r}, current config is "
                              f"{fingerprint!r}")
        if length < size:
            os.truncate(path, length)
    journal_file = open(path, "a" if header else "w", encoding="utf-8")
    if header is None:
        journal_file.write(journal_header(tool, fingerprint) + "\n")
        journal_file.flush()
    return done, journal_file
