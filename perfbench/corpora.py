"""Seeded synthetic corpora for the three benchmark workloads.

Each generator writes a ground-truth tree, a tool-output tree and an adapter
config under a directory, and returns a manifest: the units the ground truth
defines, the status each unit must get, the ground-truth tokens and the
extracted items per unit. The correctness gate recomputes scores from the
manifest alone, so it never reads docbench's own parsers.

Sizes are fixed per workload, so two commits are always measured on the same
amount of work; the seed only changes the characters, their order and where
noise, deleted files and corrupted files land. Token lengths come from a fixed
profile and noise operations come in fixed proportions, so the kernel work
(cells of dynamic programming) moves little from seed to seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

SCORED = "scored"
MISSING = "tool_output_missing"
ERROR = "tool_error_artifact"

# Lengths of DocBank-like tokens: short function words, mid-size words, a
# few long ones. Every unit draws its lengths by cycling this list, so the
# character count of a unit depends only on its token count.
LENGTH_PROFILE = (1, 2, 2, 3, 3, 3, 4, 4, 4, 5, 5, 5, 6, 6, 7, 7, 8, 9, 10, 12)
LETTERS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"


@dataclass
class Unit:
    doc: str
    page: int
    label: str
    status: str
    gt: tuple[str, ...]
    # Extracted items as the tool wrote them (one tuple of tokens per item).
    # For document scope these are every item of the document, before the
    # window rule pares them down to the page.
    items: tuple[tuple[str, ...], ...] = ()


@dataclass
class Manifest:
    workload: str
    gt_root: Path
    output_root: Path
    adapter_path: Path
    labels: tuple[str, ...]
    scope: str
    units: list[Unit] = field(default_factory=list)

    @property
    def pages(self) -> int:
        return len({(u.doc, u.page) for u in self.units})


def _word(rng: random.Random, length: int) -> str:
    return "".join(rng.choice(LETTERS) for _ in range(length))


def _tokens(rng: random.Random, count: int) -> list[str]:
    lengths = [LENGTH_PROFILE[i % len(LENGTH_PROFILE)] for i in range(count)]
    rng.shuffle(lengths)
    return [_word(rng, n) for n in lengths]


def _count(rng: random.Random, rate: float, n: int) -> int:
    # Expected value rate*n; the fractional part is a coin flip.
    return int(rate * n + rng.random())


def perturb(rng: random.Random, tokens: list[str], *, sub=0.06, drop=0.02,
            split=0.02, merge=0.02, at_least_one_sub=False) -> list[str]:
    """Noisy copy of a token list: substituted characters, dropped, split
    and merged tokens, as an extraction tool would produce them."""
    out = list(tokens)
    n_sub = _count(rng, sub, len(out))
    if at_least_one_sub:
        n_sub = max(n_sub, 1)
    for i in rng.sample(range(len(out)), min(n_sub, len(out))):
        word = out[i]
        pos = rng.randrange(len(word))
        repl = rng.choice([c for c in LETTERS if c != word[pos]])
        out[i] = word[:pos] + repl + word[pos + 1:]
    for _ in range(min(_count(rng, drop, len(tokens)), len(out) - 1)):
        del out[rng.randrange(len(out))]
    for _ in range(_count(rng, split, len(tokens))):
        candidates = [i for i, w in enumerate(out) if len(w) >= 2]
        if not candidates:
            break
        i = rng.choice(candidates)
        cut = rng.randrange(1, len(out[i]))
        out[i:i + 1] = [out[i][:cut], out[i][cut:]]
    for _ in range(min(_count(rng, merge, len(tokens)), len(out) - 1)):
        i = rng.randrange(len(out) - 1)
        out[i:i + 2] = [out[i] + out[i + 1]]
    return out


def _write_gt(path: Path, labelled: list[tuple[str, str]]) -> None:
    lines = []
    for i, (token, label) in enumerate(labelled):
        x0 = 40 + (i % 12) * 45
        y0 = 60 + (i // 12) * 14
        lines.append(f"{token}\t{x0}\t{y0}\t{x0 + 40}\t{y0 + 10}\t0\t0\t0\t"
                     f"Times-Roman\t{label}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_adapter(path: Path, tool: str, fmt: str, scope: str,
                   selectors: dict[str, str]) -> None:
    path.write_text(json.dumps({"format_version": 1, "tool": tool,
                                "format": fmt, "scope": scope,
                                "selectors": selectors}, indent=2) + "\n",
                    encoding="utf-8")


def _layout(root: Path) -> tuple[Path, Path, Path]:
    gt_root = root / "gt"
    out_root = root / "out"
    gt_root.mkdir(parents=True)
    out_root.mkdir(parents=True)
    return gt_root, out_root, root / "adapter.json"


def _doc_id(i: int) -> str:
    return f"2101.{i:05d}"


# page_dense: one DocBank-shaped body page of 400 ground-truth tokens. The
# paragraph unit dominates: the similarity matrix grows with the square of
# the token count and collated accuracy with the square of the characters.
# Three mid-size units of 30 tokens keep the median unit away from a jump
# between unit sizes. The last page of the document holds a single footer
# and its output file is deleted, so one unit is tool_output_missing.
DENSE_PAGES = 1
DENSE_LABELS = (("section", 6), ("paragraph", 250), ("equation", 30),
                ("reference", 50), ("caption", 30), ("list", 30), ("footer", 4))


def page_dense(root: Path, seed: int) -> Manifest:
    rng = random.Random(f"page_dense:{seed}")
    gt_root, out_root, adapter = _layout(root)
    labels = tuple(label for label, _ in DENSE_LABELS)
    _write_adapter(adapter, "densetool", "text", "page",
                   {label: str(line) for line, label in enumerate(labels, 1)})
    manifest = Manifest("page_dense", gt_root, out_root, adapter, labels, "page")
    doc = _doc_id(0)
    for page in range(DENSE_PAGES):
        labelled: list[tuple[str, str]] = []
        lines = []
        for label, size in DENSE_LABELS:
            gt = _tokens(rng, size)
            labelled.extend((t, label) for t in gt)
            extracted = perturb(rng, gt)
            lines.append(" ".join(extracted))
            manifest.units.append(Unit(doc, page, label, SCORED, tuple(gt),
                                       (tuple(extracted),)))
        _write_gt(gt_root / f"{doc}_{page}.txt", labelled)
        (out_root / f"{doc}_{page}.txt").write_text("\n".join(lines) + "\n",
                                                    encoding="utf-8")
    gt = _tokens(rng, 4)
    _write_gt(gt_root / f"{doc}_{DENSE_PAGES}.txt", [(t, "footer") for t in gt])
    manifest.units.append(Unit(doc, DENSE_PAGES, "footer", MISSING, tuple(gt)))
    return manifest


# doc_scope: one JSON file per document holding every page's paragraph
# chunks plus junk chunks that match no page. Every unit runs the sliding
# window of restrict_units over all items of its document, so window ratios
# do nearly all the work. Every item carries at least one substitution so no
# window reaches ratio 1.0 and cuts the scan short at a seed-dependent point.
SCOPE_DOCS = 3
SCOPE_PAGES_PER_DOC = 2
SCOPE_GT_TOKENS = 32
SCOPE_CHUNK = 8
SCOPE_JUNK_PER_DOC = 6
# Extra documents: one whose JSON is deleted, one whose JSON is corrupted.
# They sort last, so the first unit of a pass, which unit latency leaves out,
# is always a scored one.
SCOPE_BROKEN_PAGES = 1


def doc_scope(root: Path, seed: int) -> Manifest:
    rng = random.Random(f"doc_scope:{seed}")
    gt_root, out_root, adapter = _layout(root)
    _write_adapter(adapter, "scopetool", "json", "document",
                   {"paragraph": "blocks.text"})
    manifest = Manifest("doc_scope", gt_root, out_root, adapter,
                        ("paragraph",), "document")
    statuses = [SCORED] * SCOPE_DOCS + [MISSING, ERROR]
    for d, status in enumerate(statuses):
        doc = _doc_id(d)
        pages = SCOPE_PAGES_PER_DOC if status == SCORED else SCOPE_BROKEN_PAGES
        gts = []
        items: list[tuple[str, ...]] = []
        for page in range(pages):
            gt = _tokens(rng, SCOPE_GT_TOKENS)
            gts.append(gt)
            _write_gt(gt_root / f"{doc}_{page}.txt",
                      [(t, "paragraph") for t in gt])
            for start in range(0, SCOPE_GT_TOKENS, SCOPE_CHUNK):
                chunk = gt[start:start + SCOPE_CHUNK]
                items.append(tuple(perturb(rng, chunk, at_least_one_sub=True)))
        for _ in range(SCOPE_JUNK_PER_DOC):
            items.append(tuple(_tokens(rng, SCOPE_CHUNK)))
        rng.shuffle(items)
        for page, gt in enumerate(gts):
            manifest.units.append(Unit(doc, page, "paragraph", status,
                                       tuple(gt), tuple(items)))
        path = out_root / f"{doc}.json"
        if status == MISSING:
            continue
        text = json.dumps({"doc": doc, "blocks": [{"text": " ".join(item)}
                                                  for item in items]})
        if status == ERROR:
            text = text[:len(text) // 2]
        path.write_text(text, encoding="utf-8")
    return manifest


# pages_sparse: a thousand front-matter pages with a few short units each.
# Per-unit scoring is tiny, so the cost is spread over corpus indexing,
# ground-truth parsing and planning, ElementTree parsing (once per unit, as
# page scope has no cache), per-call kernel overhead, journal writes, resume
# and report.
SPARSE_PAGES = 1000
SPARSE_MISSING = 10
SPARSE_ERROR = 10
SPARSE_LABELS = ("title", "author", "section", "footer")


def pages_sparse(root: Path, seed: int) -> Manifest:
    rng = random.Random(f"pages_sparse:{seed}")
    gt_root, out_root, adapter = _layout(root)
    _write_adapter(adapter, "sparsetool", "xml", "page",
                   {label: label for label in SPARSE_LABELS})
    manifest = Manifest("pages_sparse", gt_root, out_root, adapter,
                        SPARSE_LABELS, "page")
    broken = rng.sample(range(SPARSE_PAGES), SPARSE_MISSING + SPARSE_ERROR)
    status_of = {p: MISSING for p in broken[:SPARSE_MISSING]}
    status_of.update({p: ERROR for p in broken[SPARSE_MISSING:]})
    for p in range(SPARSE_PAGES):
        doc, page = _doc_id(p // 2), p % 2
        status = status_of.get(p, SCORED)
        labelled: list[tuple[str, str]] = []
        elements = []
        for label in SPARSE_LABELS:
            # Two authors per page: the author unit has two items.
            copies = 2 if label == "author" else 1
            gt: list[str] = []
            items = []
            for _ in range(copies):
                part = _tokens(rng, rng.randint(2, 6 // copies))
                gt.extend(part)
                item = perturb(rng, part)
                items.append(tuple(item))
                elements.append(f"<{label}>{' '.join(item)}</{label}>")
            labelled.extend((t, label) for t in gt)
            manifest.units.append(Unit(doc, page, label, status, tuple(gt),
                                       tuple(items)))
        _write_gt(gt_root / f"{doc}_{page}.txt", labelled)
        if status == MISSING:
            continue
        text = "<page>" + "".join(elements) + "</page>"
        if status == ERROR:
            text = text[:-len("</page>")]
        (out_root / f"{doc}_{page}.xml").write_text(text, encoding="utf-8")
    return manifest


WORKLOADS = {"page_dense": page_dense, "doc_scope": doc_scope,
             "pages_sparse": pages_sparse}


def generate(workload: str, root: Path, seed: int) -> Manifest:
    return WORKLOADS[workload](Path(root), seed)
