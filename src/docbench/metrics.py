"""Token and text matching scores.

The matching procedure works on two views of an extraction result: the token
sequence (order-insensitive scores via a pairwise similarity matrix) and the
collated text, i.e. tokens joined by single spaces (order-sensitive score).

Similarity between two strings is the Levenshtein ratio

    ratio(a, b) = 1 - distance(a, b) / (len(a) + len(b))

where insertions and deletions cost 1 and a substitution costs 2 by default,
making a substitution exactly as expensive as a delete plus an insert.
Cost 1 is available as a configuration option.

numpy is imported by the functions that use it, on their first call: the
similarity matrix, and a unit's kernel pass or match masks from the size
cutoffs below on. Indexing, validation, reports, charts and units that stay
below both cutoffs never load it.
"""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, NamedTuple, Sequence

if TYPE_CHECKING:
    import numpy as np

EMPTY_EXTRACTION = "EmptyExtraction"
EMPTY_GROUND_TRUTH = "EmptyGroundTruth"

# Unpacked lane bits per block of matrix rows. The per-lane sums cast every
# unpacked bit to int64, so a block holds ~9 bytes per bit in temporaries;
# larger blocks raise peak memory and save no time.
_BLOCK_BITS = 1 << 15

# Texts at least this long get their match masks from one numpy pass; the
# per-character loop is faster below it (measured crossover ~330 characters
# on a 62-letter alphabet; a larger alphabet moves it up).
_MASKS_CUTOFF = 384

# Kernel rows x lanes below which _lane_hits reads each lane with int
# popcounts: numpy's fixed cost, some 20 us a unit, outweighs its speed per
# cell there (measured crossover ~115 cells at cost 1 and ~135 at cost 2 on
# words of 2-9 letters, the pattern built outside the timing; 2-core x86-64
# VM, Python 3.11, numpy 2.4).
_SMALL_CELLS = 126

# One-pass kernel rows x lanes from which a unit whose lone lanes trail runs
# its lead rows against the lone lanes alone first (_qualified_texts).
# Below it the second pattern and pass cost more than the narrower rows
# save: score_document on perturbed units of 40-250 tokens, the narrow pass
# forced on over off, took 1.05x at ~650 cells, 1.00x at ~4200 and 0.89x at
# ~15000 at cost 2; at cost 1 it breaks even near 1600 (2-core x86-64 VM,
# Python 3.11, numpy 2.4).
_SPLIT_CELLS = 4000

TokenSequence = Sequence[str]


@dataclass(frozen=True)
class MatchConfig:
    threshold: float = 0.7
    substitution_cost: int = 2
    case_sensitive: bool = True
    normalize_nfc: bool = False

    def __post_init__(self):
        if not 0.0 <= self.threshold <= 1.0:
            raise ValueError(f"threshold must be within [0, 1]: {self.threshold}")
        if self.substitution_cost not in (1, 2):
            raise ValueError(
                f"substitution_cost must be 1 or 2: {self.substitution_cost}")


DEFAULT_MATCH = MatchConfig()


@dataclass(frozen=True)
class SimilarityMatrix:
    """Pairwise ratios, extracted tokens as rows, ground-truth tokens as columns."""

    values: np.ndarray

    @property
    def m(self) -> int:
        return self.values.shape[0]

    @property
    def n(self) -> int:
        return self.values.shape[1]


class DocumentScores(NamedTuple):
    """The scores of one unit; a tuple, so a journal builds one cheaply."""

    precision: float
    recall: float
    f1: float
    accuracy: float
    m: int
    n: int
    flags: tuple[str, ...] = ()


def collate(tokens: TokenSequence) -> str:
    """Single-space join; the order-sensitive view of a token sequence."""
    return " ".join(tokens)


def _prepare(text: str, config: MatchConfig) -> str:
    if not config.case_sensitive:
        text = text.casefold()
    if config.normalize_nfc:
        text = unicodedata.normalize("NFC", text)
    return text


def _masks(text: str) -> dict[str, int]:
    """Match masks of text: bit i of masks[c] is set where text[i] == c.

    Two builders, chosen by length. Below _MASKS_CUTOFF the loop ORs each
    position into its mask, which copies an int as wide as the position, so
    it grows with the square of the text but has no fixed cost. From the
    cutoff on, numpy compares the code points with each distinct character,
    a block of characters at a time so the bool temporary stays near
    8 * _BLOCK_BITS bytes, and packs each row into one int: linear in the
    text times its alphabet. utf-32 with surrogatepass gives every code
    point, lone surrogates too, one 32-bit unit.
    """
    masks: dict[str, int] = {}
    if len(text) < _MASKS_CUTOFF:
        for position, char in enumerate(text):
            masks[char] = masks.get(char, 0) | 1 << position
        return masks
    import numpy as np
    codes = np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype="<u4")
    chars = sorted(set(text))  # np.unique's hashing raised peak RSS ~1 MB
    keys = np.fromiter(map(ord, chars), dtype="<u4", count=len(chars))
    width = (len(text) + 7) // 8
    step = max(1, 8 * _BLOCK_BITS // len(text))
    for lo in range(0, len(chars), step):
        rows = np.packbits(codes == keys[lo:lo + step, None], axis=1,
                           bitorder="little").tobytes()
        for at, char in enumerate(chars[lo:lo + step]):
            masks[char] = int.from_bytes(rows[at * width:(at + 1) * width], "little")
    return masks


def _deltas(text: str, masks: dict[str, int], full: int, starts: int,
            substitution_cost: int) -> tuple[int, ...]:
    """Run the recurrence over text against the lanes of a pattern.

    Every step clears the guard bit above each lane with `& full`, so the
    masks are never read there; starts has the first bit of each non-empty
    lane. Cost 2 is bit-parallel LCS (Allison & Dix 1986, Hyyrö 2004): it
    returns (V,), a one per unmatched pattern position, and within a lane
    distance(text, token) = len(text) - len(token) + 2 ones(V). Cost 1 is
    Myers's bit-vector Levenshtein (Myers 1999, Hyyrö 2001): it returns the
    +1/-1 vertical deltas (Pv, Mv) of the last column, whose top row is
    len(text), and distance = len(text) + ones(Pv) - ones(Mv).
    """
    if substitution_cost == 2:
        v = full
        for char in text:
            u = v & masks.get(char, 0)
            # u lies within v, so v - u never borrows across a lane
            v = ((v + u) | (v - u)) & full
        return (v,)
    pv, mv = full, 0
    for char in text:
        eq = masks.get(char, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | (full & ~(xh | pv))
        mh = pv & xh
        # the top row's horizontal delta is +1: shift a one into each lane
        ph = ((ph << 1) & full) | starts
        mh = (mh << 1) & full
        pv = mh | (full & ~(xv | ph))
        mv = ph & xv
    return pv, mv


def _distance(text: str, pattern: str, masks: dict[str, int], cost: int) -> int:
    """distance(text, pattern), the pattern packed as one lane with its masks."""
    if text == pattern:
        return 0
    full = (1 << len(pattern)) - 1
    ones = [v.bit_count() for v in _deltas(text, masks, full, full & 1, cost)]
    if cost == 2:
        return len(text) - len(pattern) + 2 * ones[0]
    return len(text) + ones[0] - ones[1]


def edit_distance(a: str, b: str, substitution_cost: int = 2) -> int:
    """Levenshtein distance; insertions and deletions cost 1."""
    if substitution_cost not in (1, 2):
        raise ValueError(f"substitution_cost must be 1 or 2: {substitution_cost}")
    if len(a) > len(b):
        a, b = b, a  # the longer string as pattern: fewer interpreted steps
    return _distance(a, b, _masks(b), substitution_cost)


def lev_ratio(a: str, b: str, config: MatchConfig = DEFAULT_MATCH) -> float:
    """Normalized similarity in [0, 1]; two empty strings count as identical."""
    a = _prepare(a, config)
    b = _prepare(b, config)
    if not a and not b:
        return 1.0
    return 1.0 - _distance(a, b, _masks(b), config.substitution_cost) / (len(a) + len(b))


def similarity_matrix(
    extracted: TokenSequence,
    gt: TokenSequence,
    config: MatchConfig = DEFAULT_MATCH,
) -> SimilarityMatrix:
    """All pairwise ratios between extracted and ground-truth tokens.

    Either side may be empty; the matrix then has a zero dimension.
    """
    import numpy as np
    ex = [_prepare(t, config) for t in extracted]
    gx = [_prepare(t, config) for t in gt]
    values = np.empty((len(ex), len(gx)), dtype=np.float64)
    if ex and gx:
        lo = 0
        for block in _lane_ratios(ex, _Pattern(gx), config.substitution_cost):
            values[lo:lo + len(block)] = block
            lo += len(block)
    return SimilarityMatrix(values)


class _Pattern:
    """Prepared lanes packed in one integer, each where it sits in their
    collated text, with the space after it as guard bit; a unit's kernel
    rows and its accuracy read the one set of masks. spans holds each
    lane's (first bit, bit mask, length), in lane order; full has every
    lane's bits and starts the first bit of each non-empty lane."""

    __slots__ = ("text", "masks", "full", "starts", "spans")

    def __init__(self, lanes: TokenSequence):
        self.text = " ".join(lanes)
        self.masks = _masks(self.text)
        self.spans = spans = []
        full = at = 0
        for t in lanes:
            n = len(t)
            mask = (1 << n) - 1
            spans.append((at, mask, n))
            full |= mask << at
            at += n + 1
        self.full = full
        self.starts = full & ~(full << 1)  # the lowest bit of each lane's run


def _lane_ratios(ex: list[str], pattern: _Pattern, cost: int) -> Iterator[np.ndarray]:
    """Ratios of prepared rows ex against the pattern's lanes, in row
    blocks; the recurrence runs once per row. Neither side is empty."""
    import numpy as np
    offsets = [at for at, _, _ in pattern.spans]
    gt_len = np.array([n for _, _, n in pattern.spans], dtype=np.int64)
    nbytes = (len(pattern.text) + 8) // 8  # every lane and its guard bit
    per_row = 1 if cost == 2 else 2  # the vectors _deltas returns
    step = max(1, _BLOCK_BITS // (8 * per_row * nbytes))
    for lo in range(0, len(ex), step):
        rows = ex[lo:lo + step]
        # the vectors of each row in turn: one popcount pass per block
        ones = _lane_ones([v for t in rows for v in _deltas(
            t, pattern.masks, pattern.full, pattern.starts, cost)], nbytes, offsets)
        ex_len = np.array([len(t) for t in rows], dtype=np.int64)[:, None]
        if cost == 2:
            dist = ex_len - gt_len + 2 * ones
        else:
            dist = ex_len + ones[0::2] - ones[1::2]
        # both tokens empty: distance 0 over 1 gives ratio 1
        yield 1.0 - dist / np.maximum(ex_len + gt_len, 1)


def _lane_ones(vectors: list[int], nbytes: int, lanes: list[int]) -> np.ndarray:
    """Set bits per lane: one row per vector, one column per lane start."""
    import numpy as np
    raw = b"".join(v.to_bytes(nbytes, "little") for v in vectors)
    bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8).reshape(len(vectors), nbytes),
                         axis=1, bitorder="little")
    return np.add.reduceat(bits, lanes, axis=1, dtype=np.int64)


def _lane_hits(ex: TokenSequence, pattern: _Pattern, config: MatchConfig) -> list[int]:
    """For each prepared row of ex, the pattern's lanes it reaches the
    threshold against, as a bitmask: bit j for lane j. Neither side is empty.

    Below _SMALL_CELLS rows x lanes, each lane's distance is read from the
    row's vectors with a popcount of the lane's bits. Those are the integers
    _lane_ones sums, and numpy converts them and the length sums (all below
    2**53) to float64 exactly, so the correctly rounded division gives the
    same ratio bit for bit. From the cutoff on, _lane_ratios' numpy pass is
    faster.
    """
    threshold, cost = config.threshold, config.substitution_cost
    if len(ex) * len(pattern.spans) >= _SMALL_CELLS:
        import numpy as np
        hits = []
        for block in _lane_ratios(ex, pattern, cost):
            packed = np.packbits(block >= threshold, axis=1, bitorder="little")
            width, raw = packed.shape[1], packed.tobytes()
            hits += [int.from_bytes(raw[at:at + width], "little")
                     for at in range(0, len(raw), width)]
        return hits
    masks, full, starts = pattern.masks, pattern.full, pattern.starts
    spans = pattern.spans[::-1]  # the last lane first: its bit ends up highest
    hits = []
    for text in ex:
        size, hit = len(text), 0
        if cost == 2:
            v, = _deltas(text, masks, full, starts, cost)
            for at, mask, n in spans:
                dist = size - n + 2 * (v >> at & mask).bit_count()
                # both tokens empty: distance 0 over 1 gives ratio 1
                hit = hit << 1 | (1.0 - dist / (size + n or 1) >= threshold)
        else:
            pv, mv = _deltas(text, masks, full, starts, cost)
            for at, mask, n in spans:
                dist = size + (pv >> at & mask).bit_count() - (mv >> at & mask).bit_count()
                hit = hit << 1 | (1.0 - dist / (size + n or 1) >= threshold)
        hits.append(hit)
    return hits


def _qualified_texts(rows: TokenSequence, lanes: TokenSequence, config: MatchConfig,
                     columns: bool = True
                     ) -> tuple[TokenSequence, TokenSequence, set[str], _Pattern | None]:
    """The prepared rows and lanes, the set of their texts that qualify (a
    row text that reaches the threshold against some lane and, with
    columns, a lane text that reaches it against some row), and the lanes'
    pattern if the kernel ran.

    A row text equal to a lane text (a twin) qualifies with no kernel call.
    The kernel runs once against every lane in order: each lead row (a
    distinct row text) qualifies, with the lanes it reaches, when it reaches
    some lane. The cheaper exact pass settles the lanes: the twins lead too,
    or each lone lane text trails and is read at the twins' lanes (the ratio
    is symmetric). So no more rows run against every lane than there are
    distinct row texts.

    Where lone lanes trail, there are no more lead rows than lone lanes and
    that pass would cover _SPLIT_CELLS rows x lanes, the lead rows first
    meet the distinct lone lanes alone, a narrow pattern: a lead row that
    reaches one qualifies, and so does each lone lane one reaches. Only the
    lead rows that reached none and the lone lanes that none reached go on
    to the full-width pass, which reads them as above. A near miss of a
    lost token tends to reach that token, so most lead rows settle in the
    narrow pass; with more lead rows than lone lanes, junk and split pieces
    make up much of them and the narrow pass would mostly miss.

    Under a case-sensitive config without NFC, preparing is the identity,
    so rows and lanes are returned as they are.
    """
    if config.case_sensitive and not config.normalize_nfc:
        rx, lx = rows, lanes
    else:
        rx = [_prepare(t, config) for t in rows]
        lx = [_prepare(t, config) for t in lanes]
    found = set(rx).intersection(lx)
    lone_lanes = [t for t in dict.fromkeys(lx) if t not in found] if columns else []
    read_lanes = len(lone_lanes) < len(found)
    kernel_rows = [t for t in dict.fromkeys(rx) if not (read_lanes and t in found)]
    lead = len(kernel_rows)
    kernel_rows += lone_lanes if read_lanes else []
    if not kernel_rows or not lx:
        return rx, lx, found, None
    pattern, qualified = _Pattern(lx), []
    if read_lanes and 0 < lead <= len(lone_lanes) and (
            len(kernel_rows) * len(lx) >= _SPLIT_CELLS):
        hits = _lane_hits(kernel_rows[:lead], _Pattern(lone_lanes), config)
        reached, rest = 0, []
        for t, hit in zip(kernel_rows, hits):
            reached |= hit
            (qualified if hit else rest).append(t)
        lead = len(rest)
        for j, t in enumerate(lone_lanes):
            (qualified if reached >> j & 1 else rest).append(t)
        if not rest:
            found.update(qualified)
            return rx, lx, found, pattern
        kernel_rows = rest
    hits = _lane_hits(kernel_rows, pattern, config)
    qualified += [t for t, hit in zip(kernel_rows, hits[:lead]) if hit]
    if columns:  # the lanes the lead rows reach; trailing rows read the twins'
        reached = twins = 0
        for hit in hits[:lead]:
            reached |= hit
        for j, t in enumerate(lx):
            if t in found:
                twins |= 1 << j
            elif reached >> j & 1:
                qualified.append(t)
        qualified += [t for t, hit in zip(kernel_rows[lead:], hits[lead:]) if hit & twins]
    found.update(qualified)
    return rx, lx, found, pattern


def _qualifying(matrix: SimilarityMatrix, threshold: float) -> tuple[int, int]:
    """Counts of rows and columns whose best entry reaches the threshold."""
    if matrix.m == 0 or matrix.n == 0:
        return 0, 0
    rows = int((matrix.values.max(axis=1) >= threshold).sum())
    cols = int((matrix.values.max(axis=0) >= threshold).sum())
    return rows, cols


def precision(matrix: SimilarityMatrix, threshold: float = 0.7) -> float:
    """Fraction of extracted tokens with some ground-truth match (row maxima)."""
    if matrix.m == 0:
        return 0.0
    rows, _ = _qualifying(matrix, threshold)
    return min(1.0, rows / matrix.m)


def recall(matrix: SimilarityMatrix, threshold: float = 0.7) -> float:
    """Fraction of ground-truth tokens with some extracted match (column maxima)."""
    if matrix.n == 0:
        return 0.0
    _, cols = _qualifying(matrix, threshold)
    return min(1.0, cols / matrix.n)


def f1(p: float, r: float) -> float:
    """Harmonic mean; zero when both inputs are zero."""
    if p + r == 0.0:
        return 0.0
    return 2.0 * p * r / (p + r)


def accuracy(
    extracted_text: str,
    gt_text: str,
    config: MatchConfig = DEFAULT_MATCH,
) -> float:
    """Ratio over collated texts; the order-sensitive score."""
    return lev_ratio(extracted_text, gt_text, config)


def score_document(
    extracted,
    gt_tokens: TokenSequence,
    config: MatchConfig = DEFAULT_MATCH,
) -> DocumentScores:
    """Full score set for one evaluation unit.

    extracted may be an extraction record (anything with a .tokens attribute)
    or a bare token sequence. A non-empty extraction equal to the ground
    truth, token for token, scores 1 on every score with no preparation or
    kernel: each token is its own twin at any threshold and cost, and equal
    collated texts have distance 0. Any other unit, one equal only after
    case folding or NFC included, takes the counting path.
    """
    tokens = getattr(extracted, "tokens", extracted)
    if tokens and tuple(tokens) == tuple(gt_tokens):
        return DocumentScores(1.0, 1.0, 1.0, 1.0, len(tokens), len(tokens), ())
    ex, gx, found, pattern = _qualified_texts(tokens, gt_tokens, config)
    m, n = len(ex), len(gx)
    p = min(1.0, sum(t in found for t in ex) / m) if m else 0.0
    r = min(1.0, sum(t in found for t in gx) / n) if n else 0.0
    # the pattern read as one lane: casefold maps each character alone and
    # NFC composes nothing with a space, so collating commutes with preparing
    text, pattern = collate(ex), pattern or _Pattern(gx)
    distance = _distance(text, pattern.text, pattern.masks, config.substitution_cost)
    acc = 1.0 - distance / (len(text) + len(pattern.text) or 1)
    flags = []
    if m == 0:
        flags.append(EMPTY_EXTRACTION)
    if n == 0:
        flags.append(EMPTY_GROUND_TRUTH)
    return DocumentScores(p, r, f1(p, r), acc, m, n, tuple(flags))
