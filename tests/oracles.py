"""Independent reference implementations used to derive expected test values.

Everything here is written in the most literal textbook style possible and
must stay free of imports from docbench: these functions are the oracle side
of dual-route checks, so they cannot share code with the paths they verify.
"""

from __future__ import annotations

import json
import math
import unicodedata


def lcs_length(a: str, b: str) -> int:
    """Longest common subsequence length, full-table DP."""
    rows = len(a) + 1
    cols = len(b) + 1
    table = [[0] * cols for _ in range(rows)]
    for i in range(1, rows):
        for j in range(1, cols):
            if a[i - 1] == b[j - 1]:
                table[i][j] = table[i - 1][j - 1] + 1
            else:
                table[i][j] = max(table[i - 1][j], table[i][j - 1])
    return table[-1][-1]


def distance_via_lcs(a: str, b: str) -> int:
    # Identity holds only for substitution cost 2 (a substitution is then
    # never cheaper than delete+insert).
    return len(a) + len(b) - 2 * lcs_length(a, b)


def distance_full_table(a: str, b: str, substitution_cost: int) -> int:
    """Wagner-Fischer with a full (m+1)x(n+1) table."""
    m, n = len(a), len(b)
    table = [[0] * (n + 1) for _ in range(m + 1)]
    for i in range(m + 1):
        table[i][0] = i
    for j in range(n + 1):
        table[0][j] = j
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            sub = 0 if a[i - 1] == b[j - 1] else substitution_cost
            table[i][j] = min(
                table[i - 1][j] + 1,
                table[i][j - 1] + 1,
                table[i - 1][j - 1] + sub,
            )
    return table[m][n]


def ratio_reference(a: str, b: str, substitution_cost: int = 2) -> float:
    if not a and not b:
        return 1.0
    return 1.0 - distance_full_table(a, b, substitution_cost) / (len(a) + len(b))


def restrict_reference(units, gt, config) -> tuple:
    """Items whose collated text reaches config.threshold against some
    window of min(len(item), len(gt)) consecutive ground-truth tokens.

    config is read by attribute only (threshold, substitution_cost,
    case_sensitive, normalize_nfc); both texts are casefolded, then
    NFC-normalized, when the config asks for it.
    """
    def prepare(text):
        if not config.case_sensitive:
            text = text.casefold()
        if config.normalize_nfc:
            text = unicodedata.normalize("NFC", text)
        return text

    if not gt:
        return ()
    kept = []
    for unit in units:
        width = min(len(unit), len(gt))
        text = prepare(" ".join(unit))
        best = 0.0
        for start in range(len(gt) - width + 1):
            window = prepare(" ".join(gt[start:start + width]))
            ratio = ratio_reference(text, window, config.substitution_cost)
            if ratio > best:
                best = ratio
        if best >= config.threshold:
            kept.append(unit)
    return tuple(kept)


def matrix_reference(extracted: list[str], gt: list[str], substitution_cost: int = 2) -> list[list[float]]:
    return [[ratio_reference(e, g, substitution_cost) for g in gt] for e in extracted]


def prf_bruteforce(matrix: list[list[float]], threshold: float) -> tuple[float, float, float, int, int]:
    """Precision, recall, f1 plus qualifying row/column counts, by explicit loops."""
    m = len(matrix)
    n = len(matrix[0]) if m else 0
    good_rows = 0
    for row in matrix:
        best = 0.0
        for value in row:
            if value > best:
                best = value
        if row and best >= threshold:
            good_rows += 1
    good_cols = 0
    for j in range(n):
        best = 0.0
        for i in range(m):
            if matrix[i][j] > best:
                best = matrix[i][j]
        if m and best >= threshold:
            good_cols += 1
    precision = good_rows / m if m else 0.0
    recall = good_cols / n if n else 0.0
    f1 = 0.0
    if precision + recall > 0:
        f1 = 2 * precision * recall / (precision + recall)
    return precision, recall, f1, good_rows, good_cols


def accuracy_reference(extracted: list[str], gt: list[str], substitution_cost: int = 2) -> float:
    return ratio_reference(" ".join(extracted), " ".join(gt), substitution_cost)


def journal_reference(path) -> tuple:
    """A journal read line by line with json.loads: (header, records,
    warnings).

    Blank lines are skipped. A header whose tool or config is present but
    not a string is one "malformed" warning. The first other header counts;
    a later header with another config raises ValueError, and a repeat of it
    is one "repeated header" warning. A unit record has doc, page, label,
    status, p, r, f1, acc, m and n: page, m and n pass int(), the scores
    float() into [0, 1], doc must be truthy, page >= 0, and doc, label and
    status strings. Any other line is one "malformed" warning, and a record
    whose (doc, page, label) was already read is one "repeated unit"
    warning. records are (doc, page, label, status, p, r, f1, acc, m, n)
    tuples in file order.
    """
    header = None
    records = {}
    warnings = {"malformed": 0, "repeated unit": 0, "repeated header": 0}
    with open(path, "rb") as handle:
        lines = handle.read().split(b"\n")
    for raw in lines:
        line = raw.strip()
        if not line:
            continue
        try:
            payload = json.loads(line.decode("utf-8"))
        except ValueError:
            warnings["malformed"] += 1
            continue
        if isinstance(payload, dict) and payload.get("kind") == "header":
            if any(name in payload and not isinstance(payload[name], str)
                   for name in ("tool", "config")):
                warnings["malformed"] += 1
            elif header is None:
                header = payload
            elif payload.get("config") != header.get("config"):
                raise ValueError("a second header with another config")
            else:
                warnings["repeated header"] += 1
            continue
        try:
            record = (payload["doc"], int(payload["page"]), payload["label"],
                      payload["status"], float(payload["p"]),
                      float(payload["r"]), float(payload["f1"]),
                      float(payload["acc"]), int(payload["m"]),
                      int(payload["n"]))
            if not all(isinstance(name, str) for name in
                       (record[0], record[2], record[3])):
                raise TypeError("doc, label or status is not a string")
            if not record[0] or record[1] < 0:
                raise ValueError("empty doc or negative page")
            if not all(0.0 <= score <= 1.0 for score in record[4:8]):
                raise ValueError("a score outside [0, 1]")
        except (KeyError, TypeError, ValueError):
            warnings["malformed"] += 1
            continue
        if record[:3] in records:
            warnings["repeated unit"] += 1
            continue
        records[record[:3]] = record
    return header, list(records.values()), warnings


class _RejectedLine(Exception):
    def __init__(self, exc_type: str, kind: str, message: str):
        super().__init__(message)
        self.exc_type, self.kind, self.message = exc_type, kind, message


def _gt_line_reference(line: str, vocabulary, line_no: int, nfc: bool) -> tuple:
    """One annotation line checked field by field: (label, text, warnings),
    or _RejectedLine naming the first rule it breaks."""
    def malformed(message):
        return _RejectedLine("MalformedRecord", "malformed", message)

    fields = line.split("\t")
    if len(fields) < 10:
        raise malformed(f"expected >= 10 fields, got {len(fields)}")
    text = fields[0].strip()
    if text == "":
        raise malformed("empty token text")
    if nfc:
        text = unicodedata.normalize("NFC", text)
    warnings = []
    box = []
    for position, name in ((1, "x0"), (2, "y0"), (3, "x1"), (4, "y1")):
        raw = fields[position].strip()
        if any(ord(char) > 127 for char in raw):
            raise malformed(f"non-numeric {name}: {raw!r}")
        try:
            box.append(int(raw))
            continue
        except ValueError:
            pass
        try:
            value = float(raw)
        except ValueError:
            raise malformed(f"non-numeric {name}: {raw!r}") from None
        if math.isnan(value) or math.isinf(value):
            raise malformed(f"non-finite {name}: {raw!r}")
        box.append(math.trunc(value))
        warnings.append((line_no, "fractional-coordinate",
                         f"{name}={raw} truncated to {math.trunc(value)}"))
    x0, y0, x1, y1 = box
    if x0 > x1 or y0 > y1:
        raise malformed(f"inverted bbox ({x0},{y0},{x1},{y1})")
    for position, name in ((5, "R"), (6, "G"), (7, "B")):
        raw = fields[position]
        if any(ord(char) > 127 for char in raw.strip()):
            raise malformed(f"non-integer {name}: {raw!r}")
        try:
            channel = int(raw.strip())
        except ValueError:
            raise malformed(f"non-integer {name}: {raw!r}") from None
        if channel < 0 or channel > 255:
            raise malformed(f"{name} out of range: {channel}")
    label = fields[9].strip()
    if label not in vocabulary:
        raise _RejectedLine("UnknownLabel", "unknown-label",
                            f"unknown label: {label!r}")
    return label, text, warnings


def gt_page_reference(data: bytes, vocabulary, nfc: bool = False) -> tuple:
    """An annotation file's bytes parsed one field at a time: (texts, issues,
    strict_error).

    texts maps each label to its token texts in file order. issues are
    (line_no, kind, message) in the order met: a lossy UTF-8 decode (line
    0), then per line either the first broken rule or its fractional
    coordinates. Lines are split on "\n" only and blank lines skipped. A
    coordinate is an int, or a finite float truncated toward zero with a
    warning; nan and inf are malformed. Numbers are ASCII: a code point
    above 127 left after stripping makes the line malformed. strict_error
    is (exception type name, message) of the first problem, what strict
    mode raises, or None.
    """
    texts = {}
    issues = []
    strict_error = None
    try:
        decoded = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        strict_error = ("UnicodeDecodeError", str(exc))
        decoded = data.decode("utf-8", errors="replace")
        issues.append((0, "decode", f"lossy UTF-8 decode: {exc}"))
    for line_no, line in enumerate(decoded.split("\n"), start=1):
        if line.strip() == "":
            continue
        try:
            label, text, warnings = _gt_line_reference(line, vocabulary, line_no, nfc)
        except _RejectedLine as exc:
            if strict_error is None:
                strict_error = (exc.exc_type, exc.message)
            issues.append((line_no, exc.kind, exc.message))
            continue
        texts.setdefault(label, []).append(text)
        issues.extend(warnings)
    return {label: tuple(found) for label, found in texts.items()}, issues, strict_error
