from __future__ import annotations

import errno
import json
import logging
import os
import pickle
import random
import re
import threading
import time
import tracemalloc
from pathlib import Path

import pytest

from docbench.corpus import (DEFAULT_KEY_PATTERN, DEFAULT_LABELS, CorpusIndex,
                             PageKey, find_files, index_corpus, load_index,
                             parse_gt_page, parse_gt_record, parse_page_key,
                             read_bytes, sample_by_month, save_index,
                             validate_label, write_text)
from docbench.errors import (ConfigError, KeyParseError, MalformedRecord,
                             UnknownLabel)
from oracles import gt_page_reference

GOOD_LINE = "Transformers\t72\t100\t210\t112\t0\t0\t0\tNimbusRomNo9L-Medi\ttitle"


def test_parse_record_field_mapping():
    label, text, issues = parse_gt_record(GOOD_LINE, DEFAULT_LABELS, 1)
    assert issues == ()
    assert text == "Transformers"
    assert label == "title"


def test_parse_record_ignores_extra_fields():
    line = GOOD_LINE + "\textra\tfields\there"
    label, text, issues = parse_gt_record(line, DEFAULT_LABELS, 1)
    assert issues == ()
    assert (label, text) == ("title", "Transformers")


def test_parse_record_rejects_short_lines():
    with pytest.raises(MalformedRecord) as excinfo:
        parse_gt_record("word\t1\t2\t3\t4\t0\t0\t0\tfont", DEFAULT_LABELS, 7)
    assert excinfo.value.line_no == 7


def test_parse_record_rejects_bad_geometry_and_color():
    bad_bbox = "w\t50\t50\t10\t60\t0\t0\t0\tf\ttitle"
    with pytest.raises(MalformedRecord):
        parse_gt_record(bad_bbox, DEFAULT_LABELS, 1)
    bad_rgb = "w\t1\t2\t3\t4\t0\t300\t0\tf\ttitle"
    with pytest.raises(MalformedRecord):
        parse_gt_record(bad_rgb, DEFAULT_LABELS, 1)
    not_a_number = "w\tx\t2\t3\t4\t0\t0\t0\tf\ttitle"
    with pytest.raises(MalformedRecord):
        parse_gt_record(not_a_number, DEFAULT_LABELS, 1)
    empty_token = "\t1\t2\t3\t4\t0\t0\t0\tf\ttitle"
    with pytest.raises(MalformedRecord):
        parse_gt_record(empty_token, DEFAULT_LABELS, 1)


def test_parse_gt_page_skips_non_finite_coordinates(tmp_path: Path):
    path = tmp_path / "1401.0006_0.txt"
    path.write_text("\n".join([
        GOOD_LINE,
        "word\tinf\t2\t3\t4\t0\t0\t0\tf\ttitle",
        "word\t1\tnan\t3\t4\t0\t0\t0\tf\ttitle",
        "word\t1\t2\t1e999\t4\t0\t0\t0\tf\ttitle",
    ]) + "\n", encoding="utf-8")
    page = parse_gt_page(path)
    assert page.texts == {"title": ("Transformers",)}
    assert [(i.line_no, i.kind, i.message) for i in page.issues] == [
        (2, "malformed", "non-finite x0: 'inf'"),
        (3, "malformed", "non-finite y0: 'nan'"),
        (4, "malformed", "non-finite x1: '1e999'")]
    with pytest.raises(MalformedRecord, match="non-finite x0") as excinfo:
        parse_gt_page(path, strict=True)
    assert excinfo.value.line_no == 2


def test_ground_truth_numbers_are_ascii(tmp_path: Path, non_ascii_numbers):
    # int() reads "\u0661" as 1 on every Python; the line is malformed anyway
    assert int("\u0661") == 1
    path = tmp_path / "1401.0007_0.txt"
    lines, messages = non_ascii_numbers
    path.write_text("\n".join([GOOD_LINE, *lines]) + "\n", encoding="utf-8")
    page = parse_gt_page(path)
    assert page.texts == {"title": ("Transformers",)}
    assert [(i.line_no, i.kind, i.message) for i in page.issues] == [
        (line_no, "malformed", message)
        for line_no, message in enumerate(messages, start=2)]
    for line, message in zip(lines, messages):
        with pytest.raises(MalformedRecord, match=message):
            parse_gt_record(line, DEFAULT_LABELS, 1)


def test_parse_record_unknown_label():
    line = "w\t1\t2\t3\t4\t0\t0\t0\tf\tmystery"
    with pytest.raises(UnknownLabel) as excinfo:
        parse_gt_record(line, DEFAULT_LABELS, 5)
    assert excinfo.value.label == "mystery"
    assert excinfo.value.line_no == 5
    # a widened vocabulary admits it
    label, _, _ = parse_gt_record(line, DEFAULT_LABELS | {"mystery"}, 1)
    assert label == "mystery"


def test_parse_record_truncates_fractional_coordinates():
    line = "w\t12.7\t2\t30.2\t40\t0\t0\t0\tf\ttitle"
    label, text, issues = parse_gt_record(line, DEFAULT_LABELS, 3)
    assert (label, text) == ("title", "w")
    assert [i.message for i in issues] == ["x0=12.7 truncated to 12",
                                           "x1=30.2 truncated to 30"]
    assert all(i.kind == "fractional-coordinate" for i in issues)
    assert all(i.line_no == 3 for i in issues)


def test_validate_label():
    assert validate_label("table") == "table"
    assert validate_label("ref_list-2") == "ref_list-2"
    with pytest.raises(ConfigError):
        validate_label("Table")
    with pytest.raises(ConfigError):
        validate_label("")
    with pytest.raises(ConfigError):
        validate_label("has space")


def test_page_key_ordering_and_validation():
    a = PageKey("1401.0001", 0)
    b = PageKey("1401.0001", 2)
    c = PageKey("1402.0042", 0)
    assert sorted([c, b, a]) == [a, b, c]
    with pytest.raises(ValueError):
        PageKey("", 0)
    with pytest.raises(ValueError):
        PageKey("1401.0001", -1)


def test_page_key_is_its_plain_tuple():
    key = PageKey("1401.0001", 2)
    assert (str(key), repr(key)) == (
        "1401.0001:2", "PageKey(document_id='1401.0001', page_index=2)")
    again = pickle.loads(pickle.dumps(key))
    assert (type(again), again) == (PageKey, key)
    # Unpickling checks the fields as construction does.
    for fields in (("", 0), ("1401.0001", -1)):
        forged = pickle.dumps(tuple.__new__(PageKey, fields))
        with pytest.raises(ValueError):
            pickle.loads(forged)
    rng = random.Random(20261019)
    plain = [(rng.choice(("1401.0001", "1401.00010", "1402.0042", "a", "é")),
              rng.randrange(12)) for _ in range(500)]
    keys = [PageKey(*fields) for fields in plain]
    assert sorted(keys) == sorted(plain)
    assert [hash(key) for key in keys] == [hash(fields) for fields in plain]
    assert keys == plain and set(keys) == set(plain)


def test_save_index_bytes(golden_dir: Path, tmp_path: Path):
    path = tmp_path / "index.json"
    save_index(index_corpus(golden_dir / "gt"), path)
    entries = [("1401.0001", 0, "7.tar_1401.0001.gz_alpha_0.txt",
                '"paragraph","title"'),
               ("1401.0001", 1, "7.tar_1401.0001.gz_alpha_1.txt", '"reference"'),
               ("1402.0042", 0, "8.tar_1402.0042.gz_beta_0.txt",
                '"abstract","author","title"'),
               ("1403.0777", 0, "9.tar_1403.0777.gz_gamma_0.txt", '"table"'),
               ("1403.0777", 2, "9.tar_1403.0777.gz_gamma_2.txt",
                '"paragraph","section"')]
    vocabulary = ",".join(f'"{label}"' for label in sorted(DEFAULT_LABELS))
    assert path.read_text(encoding="utf-8") == (
        '{"format_version":1,"vocabulary":[%s],"entries":[%s]}\n' % (
            vocabulary, ",".join(
                '{"doc":"%s","page":%d,"path":%s,"labels":[%s]}' % (
                    doc, page, json.dumps(str(golden_dir / "gt" / name)),
                    labels)
                for doc, page, name, labels in entries)))


def test_parse_page_key_default_pattern():
    key = parse_page_key("2.tar_1801.00617.gz_idempotents_arxiv_4.txt")
    assert key == PageKey("1801.00617", 4)
    key = parse_page_key("1401.0001_0.txt")
    assert key == PageKey("1401.0001", 0)
    # zero-padded page numbers parse as integers
    key = parse_page_key("7.tar_1401.0001.gz_alpha_007.txt")
    assert key.page_index == 7


def test_default_pattern_takes_only_ascii_digits(tmp_path: Path):
    # A Tangsa digit (Unicode 14), which a Unicode \d accepts from 3.11 on
    # but not on 3.10: the pattern's classes are ASCII on every interpreter.
    name = "2101.00001_\U00016AC1.txt"
    with pytest.raises(KeyParseError, match="does not match"):
        parse_page_key(name)
    (tmp_path / name).write_text(GOOD_LINE + "\n", encoding="utf-8")
    (tmp_path / "2101.00001_0.txt").write_text(GOOD_LINE + "\n",
                                               encoding="utf-8")
    index = index_corpus(tmp_path)
    assert list(index.entries) == [PageKey("2101.00001", 0)]
    assert index.skipped_files == (name,)


def test_parse_page_key_failures():
    with pytest.raises(KeyParseError):
        parse_page_key("notes.txt")
    with pytest.raises(KeyParseError):
        parse_page_key("readme_1.txt")
    # the surrogate a filename byte that is not UTF-8 decodes to
    with pytest.raises(KeyParseError, match="not valid UTF-8"):
        parse_page_key("doc\udcff_0.txt", r"(?P<doc>.+)_(?P<page>\d+)\.txt$")


@pytest.mark.parametrize("name, pattern", [
    ("_3.txt", r"(?P<doc>[a-z]*)_(?P<page>\d+)\.txt$"),  # empty document id
    ("_3.txt", r"(?:(?P<doc>[a-z]+))?_(?P<page>\d+)\.txt$"),  # doc group absent
    ("doc_x.txt", r"(?P<doc>[a-z]+)_(?P<page>[a-z0-9]+)\.txt$"),  # not a number
    ("doc_-3.txt", r"(?P<doc>[a-z]+)_(?P<page>-?\d+)\.txt$"),  # negative page
    ("doc.txt", r"(?P<doc>[a-z]+)(?:_(?P<page>\d+))?\.txt$"),  # page group absent
])
def test_custom_pattern_match_without_a_page_key(name: str, pattern: str):
    with pytest.raises(KeyParseError, match=re.escape(repr(name))):
        parse_page_key(name, pattern)


def test_custom_key_pattern_dotnet_syntax():
    # group syntax used by .NET-style configs is translated transparently
    pattern = r"(?<doc>.+)_p(?<page>\d+)\.txt$"
    key = parse_page_key("mydoc_p12.txt", pattern)
    assert key == PageKey("mydoc", 12)


def test_custom_key_pattern_requires_named_groups():
    with pytest.raises(ConfigError):
        parse_page_key("x_1.txt", r"(.+)_(\d+)\.txt$")
    with pytest.raises(ConfigError):
        parse_page_key("x_1.txt", r"(?P<doc>.+)\.txt$")
    with pytest.raises(ConfigError):
        parse_page_key("x_1.txt", r"(?P<doc>.+(\.txt$")


def test_parse_gt_page_lenient_vs_strict(tmp_path: Path):
    lines = [GOOD_LINE] * 4
    lines.insert(2, "broken line without tabs")
    lines.append("w\t1\t2\t3\t4\t0\t0\t0\tf\tcartoon")
    path = tmp_path / "7.tar_1401.9999.gz_x_0.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    page = parse_gt_page(path)
    assert page.texts == {"title": ("Transformers",) * 4}
    kinds = sorted(issue.kind for issue in page.issues)
    assert kinds == ["malformed", "unknown-label"]
    assert page.key == PageKey("1401.9999", 0)

    with pytest.raises(MalformedRecord):
        parse_gt_page(path, strict=True)


def test_parse_gt_page_blank_lines_skipped(tmp_path: Path):
    path = tmp_path / "1401.0002_0.txt"
    path.write_text(GOOD_LINE + "\n\n" + GOOD_LINE + "\n", encoding="utf-8")
    page = parse_gt_page(path)
    assert page.texts == {"title": ("Transformers",) * 2}
    assert page.issues == ()


def test_page_accessors(tmp_path: Path):
    body = "\n".join([
        "A\t1\t2\t3\t4\t0\t0\t0\tf\ttitle",
        "B\t1\t2\t3\t4\t0\t0\t0\tf\tparagraph",
        "C\t1\t2\t3\t4\t0\t0\t0\tf\tparagraph",
    ])
    path = tmp_path / "1401.0003_0.txt"
    path.write_text(body + "\n", encoding="utf-8")
    page = parse_gt_page(path)
    assert page.labels == frozenset({"paragraph", "title"})
    assert page.tokens_for_label("paragraph") == ("B", "C")
    assert page.tokens_for_label("footer") == ()


def test_index_corpus_golden(golden_dir: Path):
    index = index_corpus(golden_dir / "gt")
    assert len(index) == 5
    keys = list(index.entries)
    assert keys == sorted(keys)
    assert {key: labels for key, (_, labels) in index.entries.items()} == {
        PageKey("1401.0001", 0): ("paragraph", "title"),
        PageKey("1401.0001", 1): ("reference",),
        PageKey("1402.0042", 0): ("abstract", "author", "title"),
        PageKey("1403.0777", 0): ("table",),
        PageKey("1403.0777", 2): ("paragraph", "section")}
    assert index.skipped_files == ()


def test_index_corpus_deterministic(golden_dir: Path):
    first = index_corpus(golden_dir / "gt")
    second = index_corpus(golden_dir / "gt")
    assert list(first.entries.items()) == list(second.entries.items())


def test_index_corpus_skips_unparseable_names(tmp_path: Path, caplog):
    (tmp_path / "1401.0001_0.txt").write_text(GOOD_LINE + "\n", encoding="utf-8")
    (tmp_path / "scratch.txt").write_text("junk\n", encoding="utf-8")
    with caplog.at_level(logging.WARNING, logger="docbench.corpus"):
        index = index_corpus(tmp_path)
    assert len(index) == 1
    assert index.skipped_files == ("scratch.txt",)
    assert any("scratch.txt" in record.message for record in caplog.records)


def test_index_corpus_rejects_missing_root(tmp_path: Path):
    with pytest.raises(NotADirectoryError):
        index_corpus(tmp_path / "absent")


def test_walk_lists_what_sorted_rglob_lists(tmp_path: Path, monkeypatch):
    gt = tmp_path / "gt"
    # a-b/ sorts before a/ as a string but after it by path parts; both hold
    # page 1401.0001_0, so the index keeps the path under a/.
    for name in ("a-b/1401.0001_0.txt", "a/1401.0001_0.txt",
                 "a/b/c/1401.0002_0.txt", ".hidden/1401.0003_0.txt",
                 ".1401.0004_0.txt", "a.b/1401.0005_0.txt", "Z/1401.0006_0.txt",
                 "1401.0007_1.txt", "notes.md", "scratch.txt"):
        (gt / name).parent.mkdir(parents=True, exist_ok=True)
        (gt / name).write_text(GOOD_LINE + "\n", encoding="utf-8")
    (tmp_path / "elsewhere").mkdir()
    (tmp_path / "elsewhere" / "1401.0008_0.txt").write_text(GOOD_LINE + "\n",
                                                            encoding="utf-8")
    (gt / "1401.0009_0.txt").symlink_to(gt / "Z" / "1401.0006_0.txt")
    (gt / "linked").symlink_to(tmp_path / "elsewhere", target_is_directory=True)
    for here, root in ((".", "gt"), (".", "gt/"), (".", "./gt"),
                       (".", str(gt)), ("gt", ".")):
        monkeypatch.chdir(tmp_path / here)
        listed = [str(path) for path in sorted(Path(root).rglob("*.txt"))]
        assert find_files(root, ".txt") == (listed, []), root
        parent = {}  # the first path of each key in the rglob walk
        for path in listed:
            if os.path.basename(path) != "scratch.txt":
                parent.setdefault(parse_page_key(path), path)
        index = index_corpus(root)
        assert [(key, path) for key, (path, _) in index.entries.items()] == \
            sorted(parent.items()), root
        assert index.entries[PageKey("1401.0001", 0)][0].endswith(
            os.path.join("a", "1401.0001_0.txt"))
        assert PageKey("1401.0008", 0) not in index.entries
        saved = tmp_path / "index.json"
        save_index(index, saved)
        assert [entry["path"] for entry in json.loads(
            saved.read_text(encoding="utf-8"))["entries"]] == [
            path for _, path in sorted(parent.items())]


def test_index_keeps_the_first_file_of_a_page_key(tmp_path: Path, caplog,
                                                  capsys):
    # a/ comes before a-b/ in walk order. The later file is skipped, its
    # labels are not the page's, and validate names the pair.
    from docbench import cli
    first = tmp_path / "a" / "1401.0001_0.txt"
    later = tmp_path / "a-b" / "1401.0001_0.txt"
    for path, labels in ((first, ("title", "author")), (later, ("section",))):
        path.parent.mkdir()
        path.write_text("".join(GOOD_LINE.replace("title", label) + "\n"
                                for label in labels), encoding="utf-8")
    with caplog.at_level(logging.WARNING, logger="docbench.corpus"):
        index = index_corpus(tmp_path)
    key = PageKey("1401.0001", 0)
    assert index.entries == {key: (str(first), ("author", "title"))}
    assert index.skipped_files == ("1401.0001_0.txt",)
    [warning] = caplog.records
    assert f"{str(later)!r}: page 1401.0001:0 is {str(first)!r}" in warning.message
    assert cli.main(["validate", "--gt-root", str(tmp_path)]) == 3
    assert capsys.readouterr().out.splitlines() == [
        f"[FINDING] {later}: page 1401.0001:0 is already {first}, so index "
        "skips this file", "[INFO] 1 findings"]


@pytest.mark.parametrize("data", [
    b"", b"x", bytes(range(256)) * 256, bytes(range(256)) * 256 + b"!",
    random.Random(1).randbytes(1 << 20), b"tok\xff\xfe\tx\n\xc3"],
    ids=["0", "1", "65536", "65537", "1MB", "invalid-utf8"])
def test_read_bytes_reads_what_open_reads(tmp_path: Path, data: bytes):
    path = tmp_path / "page.txt"
    path.write_bytes(data)
    with open(path, "rb") as handle:
        assert read_bytes(str(path)) == handle.read() == data


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs here")
def test_read_bytes_refuses_what_is_not_a_regular_file(tmp_path: Path,
                                                      deadline):
    with pytest.raises(FileNotFoundError):
        read_bytes(str(tmp_path / "absent.txt"))
    os.mkfifo(tmp_path / "fifo.txt")
    for path in (tmp_path, tmp_path / "fifo.txt"):
        with deadline(30), pytest.raises(OSError, match="Not a regular file"):
            read_bytes(str(path))


def test_write_text_writes_what_path_write_text_writes(tmp_path: Path):
    text = "Transformers\tcafé \U0001d400\n" * 5000
    for name, write in (("plain", lambda path: path.write_text(text, encoding="utf-8")),
                        ("here", lambda path: write_text(str(path), text))):
        write(tmp_path / f"{name}.new")
        (tmp_path / f"{name}.old").write_bytes(b"x" * 200_000)
        write(tmp_path / f"{name}.old")  # truncated first
    for suffix in ("new", "old"):
        here, plain = tmp_path / f"here.{suffix}", tmp_path / f"plain.{suffix}"
        assert here.read_bytes() == plain.read_bytes()
        assert os.stat(here).st_mode == os.stat(plain).st_mode


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs here")
def test_write_text_refuses_a_fifo_without_a_reader(tmp_path: Path, deadline):
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    with deadline(5), pytest.raises(OSError) as excinfo:
        write_text(fifo, "x")
    assert excinfo.value.errno == errno.ENXIO
    # With a reader, writes past the pipe's buffer block until it drains.
    text = "é" * (1 << 19)
    got: list[bytes] = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()),
                              daemon=True)
    reader.start()
    try:
        with deadline(30):
            while True:  # until the reader has opened its end
                try:
                    write_text(fifo, text)
                    break
                except OSError as exc:
                    if exc.errno != errno.ENXIO:
                        raise
                    time.sleep(0.01)
    finally:
        reader.join(30)
    assert not reader.is_alive() and got == [text.encode("utf-8")]


def test_load_index_holds_few_bytes_a_page(tmp_path: Path):
    # 1000 pages of 500 two-page documents, four labels each. Each entry
    # holds its key and a (path string, labels) pair; the pages of a
    # document share one id string, and pages with the same labels one tuple.
    path = tmp_path / "index.json"
    path.write_text(json.dumps({
        "format_version": 1, "vocabulary": sorted(DEFAULT_LABELS),
        "entries": [{"doc": f"2101.{p // 2:05d}", "page": p % 2,
                     "path": f"corpus/gt/2101.{p // 2:05d}_{p % 2}.txt",
                     "labels": ["author", "footer", "section", "title"]}
                    for p in range(1000)]}), encoding="utf-8")
    load_index(path)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        index = load_index(path)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held <= 260 * len(index) and len(index) == 1000
    assert all(type(page_path) is str for page_path, _ in index.entries.values())
    assert len({id(labels) for _, labels in index.entries.values()}) == 1
    keys = list(index.entries)
    assert all(first.document_id is second.document_id
               for first, second in zip(keys[::2], keys[1::2]))


def test_sample_by_month(golden_dir: Path):
    index = index_corpus(golden_dir / "gt")
    january = sample_by_month(index, "1401", "1401")
    assert all(k.document_id.startswith("1401.") for k in january)
    assert len(january) == 2
    wide = sample_by_month(index, "1401", "1403")
    assert len(wide) == 5
    empty = sample_by_month(index, "1501", "1512")
    assert empty == frozenset()


def test_sample_by_month_validation(golden_dir: Path):
    index = index_corpus(golden_dir / "gt")
    with pytest.raises(ConfigError):
        sample_by_month(index, "140", "1401")
    with pytest.raises(ConfigError):
        sample_by_month(index, "1403", "1401")
    with pytest.raises(ConfigError):
        sample_by_month(index, "1413", "1414")
    with pytest.raises(ConfigError):
        sample_by_month(index, "1400", "1401")


def test_sample_by_month_skips_nonconforming_ids(tmp_path: Path, caplog):
    (tmp_path / "1401.0001_0.txt").write_text(GOOD_LINE + "\n", encoding="utf-8")
    (tmp_path / "mydoc_0.txt").write_text(GOOD_LINE + "\n", encoding="utf-8")
    index = index_corpus(tmp_path, pattern=r"(?P<doc>.+)_(?P<page>\d+)\.txt$")
    assert len(index) == 2
    with caplog.at_level(logging.WARNING, logger="docbench.corpus"):
        picked = sample_by_month(index, "1401", "1401")
    assert picked == frozenset({PageKey("1401.0001", 0)})
    assert any("mydoc" in record.message for record in caplog.records)


def test_index_save_load_round_trip(golden_dir: Path, tmp_path: Path):
    index = index_corpus(golden_dir / "gt", DEFAULT_LABELS | {"sidebar"})
    path = tmp_path / "index.json"
    save_index(index, path)
    text = path.read_text(encoding="utf-8")
    assert text.count("\n") == 1 and ", " not in text  # compact
    payload = json.loads(text)
    assert [entry["labels"] for entry in payload["entries"]] == [
        sorted(labels) for _, labels in index.entries.values()]
    indented = tmp_path / "indented.json"  # as earlier versions wrote it
    indented.write_text(json.dumps(payload, indent=2, ensure_ascii=False) + "\n",
                        encoding="utf-8")
    for cache in (path, indented):
        assert load_index(cache) == index


def test_load_index_sorts_and_dedupes_each_page_labels(tmp_path: Path):
    # A hand-written cache: entries out of key order, a page's labels
    # unsorted, repeated, empty or outside the vocabulary.
    cache, saved = tmp_path / "cache.json", tmp_path / "saved.json"
    cache.write_text(json.dumps({
        "format_version": 1, "vocabulary": ["title", "author"],
        "entries": [
            {"doc": "1401.0002", "page": 0, "path": "b.txt",
             "labels": ["title", "author", "title"]},
            {"doc": "1401.0001", "page": 3, "path": "a3.txt", "labels": []},
            {"doc": "1401.0001", "page": 1, "path": "a1.txt",
             "labels": ["sidebar", "author"]}]}), encoding="utf-8")
    index = load_index(cache)
    assert index.entries[PageKey("1401.0002", 0)] == ("b.txt", ("author", "title"))
    save_index(index, saved)
    assert saved.read_text(encoding="utf-8") == (
        '{"format_version":1,"vocabulary":["author","title"],"entries":['
        '{"doc":"1401.0001","page":1,"path":"a1.txt","labels":["author","sidebar"]},'
        '{"doc":"1401.0001","page":3,"path":"a3.txt","labels":[]},'
        '{"doc":"1401.0002","page":0,"path":"b.txt","labels":["author","title"]}]}\n')


def test_load_index_refuses_a_page_key_listed_twice(tmp_path: Path):
    cache = tmp_path / "cache.json"
    entries = [{"doc": "1401.0001", "page": page, "path": f"a{page}.txt",
                "labels": ["title"]} for page in (0, 1, 0)]
    cache.write_text(json.dumps({"format_version": 1, "vocabulary": ["title"],
                                 "entries": entries}), encoding="utf-8")
    with pytest.raises(ConfigError, match="entry 2 repeats page 1401.0001:0"):
        load_index(cache)


def test_index_load_rejects_unknown_version(tmp_path: Path):
    path = tmp_path / "index.json"
    path.write_text('{"format_version": 99}', encoding="utf-8")
    with pytest.raises(ConfigError):
        load_index(path)
    path.write_text("not json at all", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_index(path)


def test_default_pattern_names():
    assert "(?P<doc>" in DEFAULT_KEY_PATTERN
    assert "(?P<page>" in DEFAULT_KEY_PATTERN


def test_token_is_frozen(tmp_path: Path):
    record = parse_gt_record(GOOD_LINE, DEFAULT_LABELS, 1)
    assert record == ("title", "Transformers", ())
    with pytest.raises(TypeError):
        record[1] = "other"
    path = tmp_path / "1401.0005_0.txt"
    path.write_text(GOOD_LINE + "\n", encoding="utf-8")
    page = parse_gt_page(path)
    assert page.tokens_for_label("title") == ("Transformers",)
    with pytest.raises(AttributeError):
        page.texts = {}


def test_lossy_decode_surfaces_issue(tmp_path: Path):
    path = tmp_path / "1401.0004_0.txt"
    raw = GOOD_LINE.encode("utf-8") + b"\n" \
        + b"bad\xff\t1\t2\t3\t4\t0\t0\t0\tf\ttitle\n"
    path.write_bytes(raw)
    page = parse_gt_page(path)
    assert any(issue.kind == "decode" for issue in page.issues)
    assert page.texts == {"title": ("Transformers", "bad\ufffd")}
    with pytest.raises(UnicodeDecodeError):
        parse_gt_page(path, strict=True)


def test_nfc_flag_normalizes_token_text():
    decomposed = "café\t1\t2\t3\t4\t0\t0\t0\tf\ttitle"
    _, text, _ = parse_gt_record(decomposed, DEFAULT_LABELS, 1, nfc=True)
    assert text == "café"
    _, text, _ = parse_gt_record(decomposed, DEFAULT_LABELS, 1)
    assert text == "café"


def test_label_presence_layout(golden_dir: Path):
    index = index_corpus(golden_dir / "gt")
    assert isinstance(index, CorpusIndex)
    path, labels = index.entries[PageKey("1402.0042", 0)]
    assert path == str(golden_dir / "gt" / "8.tar_1402.0042.gz_beta_0.txt")
    assert labels == ("abstract", "author", "title")


# Field values the fuzzed pages draw from, by field position: valid and
# broken alike, on both sides of parse_gt_page's number table ("1023" and
# "1024"), and values int() reads that the table does not hold ("007").
_FUZZ_COORDS = ("0", "12", " 12 ", "\u200312", "\x1c7", "1_0", "\u0661\u0662",
                "0x1f", "12.7", "-0.5", "1e2", "2.5e1", "nan", "inf", "-inf",
                "1e999", "9" * 5000, "abc", "", "1__0", "1023", "1024", "600",
                "007", "+5", "-0", "1000000")
_FUZZ_CHANNELS = ("0", "255", " 7 ", "-1", "256", "1_0", "\u0663", "x", "3.0", "",
                  "0255", "+7", "-0", "1023")
_FUZZ_FIELDS = (
    ("w", "cafe\u0301", "caf\u00e9", " padded ", "\U0001d400", "x\u00a0", "", "   "),
    *[_FUZZ_COORDS] * 4,
    *[_FUZZ_CHANNELS] * 3,
    ("font", "", " f "),
    ("title", " title ", "author\r", "", "mystery", "Title"),
)


def _fuzz_page(rng: random.Random) -> bytes:
    """Up to eight lines: blank ones, and valid lines with up to two fields
    replaced, an inverted box, too few or extra fields, or a \r ending;
    one page in twenty carries an invalid UTF-8 sequence."""
    lines = []
    for _ in range(rng.randint(0, 8)):
        if rng.random() < 0.08:
            lines.append(rng.choice(["", "  ", "\r"]))
            continue
        x0, y0 = rng.randint(0, 25), rng.randint(0, 25)
        fields = [rng.choice(["w", "Transformers", "cafe\u0301"]),
                  str(x0), str(y0), str(x0 + rng.randint(0, 25)),
                  str(y0 + rng.randint(0, 25)), "0", "0", "0", "font",
                  rng.choice(["title", "abstract", "author", "paragraph"])]
        for _ in range(rng.choice((0, 0, 1, 1, 2))):
            position = rng.randrange(10)
            fields[position] = rng.choice(_FUZZ_FIELDS[position])
        if rng.random() < 0.05:
            fields[1], fields[3] = fields[3], fields[1]
        if rng.random() < 0.05:
            fields = fields[:rng.randint(1, 9)]
        elif rng.random() < 0.05:
            fields += ["extra"] * rng.randint(1, 3)
        lines.append("\t".join(fields) + ("\r" if rng.random() < 0.1 else ""))
    data = "\n".join(lines).encode("utf-8") + (b"\n" if rng.random() < 0.8 else b"")
    if data and rng.random() < 0.05:
        cut = rng.randrange(len(data))
        data = data[:cut] + rng.choice([b"\xff", b"\xe2\x82", b"\xc3"]) + data[cut:]
    return data


def test_parse_gt_page_agrees_with_the_reference_parser(tmp_path: Path):
    """Fuzzed pages: tokens per label, every issue, and what strict mode
    raises, with and without NFC; and the index lists every label the
    parser yields, which _plan_pages relies on to skip journalled pages."""
    rng = random.Random(9)
    pages = {}
    for number in range(2000):
        path = tmp_path / f"1401.{number:05d}_0.txt"
        pages[path] = _fuzz_page(rng)
        path.write_bytes(pages[path])
    index = index_corpus(tmp_path)
    listed = {key: labels for key, (_, labels) in index.entries.items()}
    assert len({id(labels) for labels in listed.values()}) == len(set(listed.values()))
    for path, data in pages.items():
        for nfc in (False, True):
            texts, issues, strict_error = gt_page_reference(data, DEFAULT_LABELS, nfc)
            page = parse_gt_page(path, nfc=nfc)
            assert page.texts == texts, path.name
            assert [(i.line_no, i.kind, i.message) for i in page.issues] == issues
            assert page.labels <= set(listed[page.key])
            if strict_error is None:
                assert parse_gt_page(path, strict=True, nfc=nfc) == page
                continue
            with pytest.raises(Exception) as excinfo:
                parse_gt_page(path, strict=True, nfc=nfc)
            assert (type(excinfo.value).__name__, str(excinfo.value)) == strict_error
