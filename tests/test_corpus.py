from __future__ import annotations

import json
import logging
import pickle
import random
import re
from pathlib import Path

import pytest

from docbench.corpus import (DEFAULT_KEY_PATTERN, DEFAULT_LABELS, CorpusIndex,
                             PageKey, index_corpus, load_index, parse_gt_page,
                             parse_gt_record, parse_page_key, sample_by_month,
                             save_index, validate_label)
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
    assert index.pages_with_label("title") == frozenset(
        {PageKey("1401.0001", 0), PageKey("1402.0042", 0)})
    assert index.pages_with_label("reference") == frozenset({PageKey("1401.0001", 1)})
    assert index.pages_with_label("footer") == frozenset()
    assert index.skipped_files == ()


def test_index_corpus_deterministic(golden_dir: Path):
    first = index_corpus(golden_dir / "gt")
    second = index_corpus(golden_dir / "gt")
    assert list(first.entries) == list(second.entries)
    assert first.label_presence == second.label_presence


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
        sorted(label for label, keys in index.label_presence.items() if key in keys)
        for key in index.entries]
    indented = tmp_path / "indented.json"  # as earlier versions wrote it
    indented.write_text(json.dumps(payload, indent=2, ensure_ascii=False) + "\n",
                        encoding="utf-8")
    for cache in (path, indented):
        assert load_index(cache) == index


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
    key = PageKey("1402.0042", 0)
    assert key in index.entries
    labels = {label for label, keys in index.label_presence.items() if key in keys}
    assert labels == {"abstract", "author", "title"}


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
    listed = {key: set() for key in index.entries}
    for label, keys in index.label_presence.items():
        for key in keys:
            listed[key].add(label)
    for path, data in pages.items():
        for nfc in (False, True):
            texts, issues, strict_error = gt_page_reference(data, DEFAULT_LABELS, nfc)
            page = parse_gt_page(path, nfc=nfc)
            assert page.texts == texts, path.name
            assert [(i.line_no, i.kind, i.message) for i in page.issues] == issues
            assert page.labels <= listed[page.key]
            if strict_error is None:
                assert parse_gt_page(path, strict=True, nfc=nfc) == page
                continue
            with pytest.raises(Exception) as excinfo:
                parse_gt_page(path, strict=True, nfc=nfc)
            assert (type(excinfo.value).__name__, str(excinfo.value)) == strict_error
