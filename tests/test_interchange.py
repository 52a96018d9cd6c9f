from __future__ import annotations

import json
import pickle
import random
import sys
import unicodedata
import xml.etree.ElementPath as ElementPath
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from docbench import interchange, metrics
from docbench.errors import (ConfigError, CsvParseError, JsonParseError,
                             PathTypeError, XmlParseError)
from docbench.interchange import (LOSSY_DECODE, SELECTOR_MISS, AdapterConfig,
                                  ExtractionRecord, load_adapter_config,
                                  read_records, restrict_units, tokenize)
from docbench.metrics import MatchConfig

from oracles import ratio_reference, restrict_reference


def _record(path: Path, config: AdapterConfig, label: str):
    """One label's record, or the AdapterError in its place."""
    return read_records(path, config, [label])[label]


def test_tokenize_unicode_whitespace():
    assert tokenize("a  b\tc\nd") == ("a", "b", "c", "d")
    assert tokenize("  leading trailing  ") == ("leading", "trailing")
    assert tokenize("non\u00a0breaking") == ("non", "breaking")
    assert tokenize("") == ()
    assert tokenize("   ") == ()


# The code points str.isspace accepts on Python 3.11 (Unicode 14.0.0). The
# same table drives str.split() in tokenize and str.strip() in the
# ground-truth parser under every config, and config_hash does not
# fingerprint it: a Python whose table differs would split tokens, and so
# score, differently under one fingerprint.
UNICODE_WHITESPACE = (0x09, 0x0A, 0x0B, 0x0C, 0x0D, 0x1C, 0x1D, 0x1E, 0x1F,
                      0x20, 0x85, 0xA0, 0x1680, *range(0x2000, 0x200B),
                      0x2028, 0x2029, 0x202F, 0x205F, 0x3000)


def test_unicode_whitespace_is_the_same_on_every_supported_python():
    assert [code for code in range(sys.maxunicode + 1)
            if chr(code).isspace()] == list(UNICODE_WHITESPACE)
    spaces = [chr(code) for code in UNICODE_WHITESPACE]
    assert tokenize("".join(f"t{i}{space}" for i, space in enumerate(spaces))) \
        == tuple(f"t{i}" for i in range(29))
    assert "".join(spaces).strip() == ""


def test_record_tokens_flatten_units():
    record = ExtractionRecord("table", (("a", "b"), ("c",)))
    assert record.tokens == ("a", "b", "c")
    empty = ExtractionRecord("table", ())
    assert empty.tokens == ()


def test_adapter_config_validation():
    AdapterConfig("mytool", "xml", {"title": "docTitle"})
    with pytest.raises(ConfigError):
        AdapterConfig("", "xml")
    with pytest.raises(ConfigError):
        AdapterConfig("t", "yaml")
    with pytest.raises(ConfigError):
        AdapterConfig("t", "xml", scope="paragraph")
    with pytest.raises(ConfigError):
        AdapterConfig("t", "xml", {"Title": "x"})
    with pytest.raises(ConfigError):
        AdapterConfig("t", "csv", {"title": "x"})
    AdapterConfig("t", "csv", {"table": ""})
    with pytest.raises(ConfigError):
        AdapterConfig("t", "xml", {"title": "head", "section": "head"})
    for fields in ({"tool": 5}, {"tool": ["t"]}, {"format": ["xml"]},
                   {"scope": None}, {"path_template": 5},
                   {"path_template": ["{doc}.xml"]},
                   {"selector_map": ["title"]}, {"selector_map": None},
                   {"selector_map": {"title": 5}},
                   {"selector_map": {"title": None}}):
        with pytest.raises(ConfigError):
            AdapterConfig(**{"tool": "t", "format": "xml", **fields})


def test_output_path_formats_the_effective_template():
    assert AdapterConfig("t", "xml").output_path("1401.0001", 3) == \
        "1401.0001_3.xml"
    doc_scope = AdapterConfig("t", "json", scope="document")
    assert doc_scope.output_path("1401.0001", 3) == "1401.0001.json"
    sharded = AdapterConfig("t", "xml", path_template="{doc[0]}/{doc}-{page:03d}.xml")
    assert sharded.output_path("1401.0001", 3) == "1/1401.0001-003.xml"


@pytest.mark.parametrize("scope, template", [
    ("page", "{doc}_{pg}.xml"), ("page", "{doc_{page}.xml"),
    ("page", "{doc}}.xml"), ("page", "{0}.xml"), ("page", "{}.xml"),
    ("page", "{page[0]}.xml"), ("page", "{doc.name}.xml"),
    ("page", "{page:s}.xml"), ("document", "{page}.xml"),
    ("document", "{doc}_{page}.xml"),
])
def test_bad_path_template_is_a_config_error(scope: str, template: str):
    with pytest.raises(ConfigError, match="path_template"):
        AdapterConfig("t", "xml", scope=scope, path_template=template)


def test_effective_path_template():
    assert AdapterConfig("t", "xml").effective_path_template == "{doc}_{page}.xml"
    assert AdapterConfig("t", "json").effective_path_template == "{doc}_{page}.json"
    doc_scope = AdapterConfig("t", "text", scope="document")
    assert doc_scope.effective_path_template == "{doc}.txt"
    custom = AdapterConfig("t", "xml", path_template="out/{doc}/p{page}.xml")
    assert custom.effective_path_template == "out/{doc}/p{page}.xml"


def test_adapter_config_json_round_trip(tmp_path: Path):
    path = tmp_path / "adapter.json"
    path.write_text(json.dumps({
        "format_version": 1,
        "tool": "mytool",
        "format": "json",
        "scope": "document",
        "path_template": "{doc}.json",
        "selectors": {"title": "meta.title"},
    }), encoding="utf-8")
    assert load_adapter_config(path) == AdapterConfig(
        "mytool", "json", {"title": "meta.title"},
        scope="document", path_template="{doc}.json")


def test_adapter_config_load_errors(tmp_path: Path):
    path = tmp_path / "adapter.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_adapter_config(path)
    path.write_text('{"format_version": 9, "tool": "t", "format": "xml"}',
                    encoding="utf-8")
    with pytest.raises(ConfigError):
        load_adapter_config(path)
    path.write_text('{"tool": "t"}', encoding="utf-8")
    with pytest.raises(ConfigError):
        load_adapter_config(path)
    for payload in ("[]", "null", '"xml"', "5",
                    '{"tool": "t", "format": "xml", "selectors": [["title", "x"]]}'):
        path.write_text(payload, encoding="utf-8")
        with pytest.raises(ConfigError):
            load_adapter_config(path)


def test_adapter_config_unknown_key_is_named(tmp_path: Path):
    # a misspelt "selectors" would leave every label a selector miss
    path = tmp_path / "adapter.json"
    path.write_text(json.dumps({"tool": "t", "format": "text",
                                "selector": {"title": "1"}}), encoding="utf-8")
    with pytest.raises(ConfigError, match="'selector'"):
        load_adapter_config(path)


TEI_LIKE = """<TEI xmlns="http://example.org/ns">
  <teiHeader>
    <titleStmt><title>Deep Parsing</title></titleStmt>
  </teiHeader>
  <text>
    <body>
      <p>First <hi>body</hi> paragraph.</p>
      <p>Second paragraph here.</p>
      <listBibl>
        <biblStruct><note>Smith 2019 Parsing</note></biblStruct>
        <biblStruct><note>Jones 2020 Trees</note></biblStruct>
      </listBibl>
    </body>
  </text>
</TEI>
"""

XML_CONFIG = AdapterConfig("grob", "xml", {
    "title": "titleStmt/title",
    "paragraph": "body/p",
    "reference": "listBibl/biblStruct",
})


def test_xml_adapter_namespace_ignoring(tmp_path: Path):
    path = tmp_path / "1401.0001_0.xml"
    path.write_text(TEI_LIKE, encoding="utf-8")
    record = _record(path, XML_CONFIG, "title")
    assert record.units == (("Deep", "Parsing"),)
    assert record.flags == ()
    assert record.label == "title"

    record = _record(path, XML_CONFIG, "paragraph")
    # nested markup text is concatenated in document order, one unit per match
    assert record.units == (("First", "body", "paragraph."),
                            ("Second", "paragraph", "here."))

    record = _record(path, XML_CONFIG, "reference")
    assert record.units == (("Smith", "2019", "Parsing"),
                            ("Jones", "2020", "Trees"))


def test_xml_adapter_raw_elementpath_passthrough(tmp_path: Path):
    path = tmp_path / "1401.0001_0.xml"
    path.write_text(TEI_LIKE, encoding="utf-8")
    config = AdapterConfig("grob", "xml", {
        "title": ".//{http://example.org/ns}title",
    })
    record = _record(path, config, "title")
    assert record.units == (("Deep", "Parsing"),)


def test_xml_adapter_selector_miss(tmp_path: Path):
    path = tmp_path / "1401.0001_0.xml"
    path.write_text(TEI_LIKE, encoding="utf-8")
    config = AdapterConfig("grob", "xml", {"table": "figure/table"})
    # mapped selector, zero matches
    record = _record(path, config, "table")
    assert record.units == ()
    assert SELECTOR_MISS in record.flags
    # label absent from the map entirely
    record = _record(path, config, "footer")
    assert record.units == ()
    assert SELECTOR_MISS in record.flags


def test_xml_adapter_rejects_malformed(tmp_path: Path):
    path = tmp_path / "1401.0001_0.xml"
    path.write_text("<a><b></a>", encoding="utf-8")
    config = AdapterConfig("grob", "xml", {"title": "b"})
    assert isinstance(_record(path, config, "title"), XmlParseError)


def test_bad_xml_selector_is_a_config_error():
    for selector in ("/title", "//title", ".//title[", "title[", "title[0]",
                     "title]", "title(", "@type", ".//p:title", ""):
        with pytest.raises(ConfigError, match="'title'"):
            AdapterConfig("grob", "xml", {"title": selector})


WALK_NAMES = ("title", "p", "sec", "a.b", "x-y")


def _random_xml(rng: random.Random) -> str:
    """A tree of WALK_NAMES elements, some nested in their own name, under a
    root that may bear one of them: unprefixed, prefixed and default
    namespace tags mixed, with text, tail text and empty elements."""
    def words() -> str:
        return " ".join(rng.choice(("alpha", "b", "c d", "\u00e9t\u00e9", ""))
                        for _ in range(rng.randint(0, 2)))

    def element(depth: int) -> str:
        name = rng.choice(WALK_NAMES)
        form = rng.randrange(4)
        tag = f"{rng.choice('pq')}:{name}" if form == 1 else name
        attributes = (' xmlns="urn:d"' if form == 2 else
                      ' xmlns=""' if form == 3 else "")
        if rng.random() < 0.3:
            attributes += ' type="main"'
        if depth > 3 or rng.random() < 0.25:
            return f"<{tag}{attributes}/>" + words()
        children = "".join(element(depth + 1)
                           for _ in range(rng.randint(0, 3)))
        return f"<{tag}{attributes}>{words()}{children}</{tag}>{words()}"

    root = rng.choice(WALK_NAMES)
    body = "".join(element(1) for _ in range(rng.randint(0, 4)))
    return (f'<{root} xmlns:p="urn:p" xmlns:q="urn:q">'
            f"{words()}{body}</{root}>")


def test_xml_walk_matches_elementpath(monkeypatch):
    """A plain name is read from one walk of the tree, which finds what
    ElementPath's './/{*}name' finds; every other selector runs ElementPath."""
    paths = {"*": ".//*", "sec/title": ".//{*}sec/{*}title",
             "{urn:p}title": ".//{urn:p}title",
             "title[@type='main']": ".//{*}title[@type='main']",
             ".//title": ".//title", ".//{urn:d}p/..": ".//{urn:d}p/.."}
    # A prefix is resolved by the parser, so no local name holds one.
    plain = (*WALK_NAMES, "p:title")
    configs = [AdapterConfig("grob", "xml", {"title": selector})
               for selector in (*plain, *paths)]
    findall = ElementPath.findall
    calls: list[str] = []

    def counted(element, path, namespaces=None):
        calls.append(path)
        return findall(element, path, namespaces)

    monkeypatch.setattr(ElementPath, "findall", counted)
    rng = random.Random(20231)
    for _ in range(300):
        root = ET.fromstring(_random_xml(rng))
        for config in configs:
            selector = config.selector_map["title"]
            calls.clear()
            got = interchange._xml_select(root)(*config.compiled["title"])
            path = paths.get(selector, ".//{*}" + selector)
            assert calls == ([] if selector in plain else [path])
            expected = [" ".join(element.itertext())
                        for element in findall(root, path)]
            assert got == (expected or None), selector


JSON_DOC = {
    "meta": {
        "title": "Deep Parsing",
        "authors": [{"name": "Yuta Hamada"}, {"name": "Gary Shiu"}],
        "year": 2014,
    },
    "sections": ["Intro", "Methods"],
    "missing_leaf": None,
}

JSON_CONFIG = AdapterConfig("pars", "json", {
    "title": "meta.title",
    "author": "meta.authors.name",
    "section": "sections",
    "footer": "meta.year",
})


def test_json_adapter_paths(tmp_path: Path):
    path = tmp_path / "1401.0001_0.json"
    path.write_text(json.dumps(JSON_DOC), encoding="utf-8")
    record = _record(path, JSON_CONFIG, "title")
    assert record.units == (("Deep", "Parsing"),)

    # a list along the path is mapped over
    record = _record(path, JSON_CONFIG, "author")
    assert record.units == (("Yuta", "Hamada"), ("Gary", "Shiu"))

    # a list of strings at the leaf: one item per string
    record = _record(path, JSON_CONFIG, "section")
    assert record.units == (("Intro",), ("Methods",))

    # numbers stringify
    record = _record(path, JSON_CONFIG, "footer")
    assert record.units == (("2014",),)


def test_json_adapter_absent_path_is_a_miss(tmp_path: Path):
    path = tmp_path / "1401.0001_0.json"
    path.write_text(json.dumps(JSON_DOC), encoding="utf-8")
    config = AdapterConfig("pars", "json", {"abstract": "meta.abstract"})
    record = _record(path, config, "abstract")
    assert record.units == ()
    assert SELECTOR_MISS in record.flags


def test_json_adapter_bad_leaf_types(tmp_path: Path):
    path = tmp_path / "1401.0001_0.json"
    path.write_text(json.dumps(JSON_DOC), encoding="utf-8")
    # ends at an object
    config = AdapterConfig("pars", "json", {"author": "meta.authors"})
    assert isinstance(_record(path, config, "author"), PathTypeError)
    # ends at null
    config = AdapterConfig("pars", "json", {"footer": "missing_leaf"})
    assert isinstance(_record(path, config, "footer"), PathTypeError)


def test_json_adapter_rejects_malformed(tmp_path: Path):
    path = tmp_path / "1401.0001_0.json"
    path.write_text("{broken", encoding="utf-8")
    config = AdapterConfig("pars", "json", {"title": "t"})
    assert isinstance(_record(path, config, "title"), JsonParseError)


def test_json_adapter_empty_list_is_a_miss_blank_leaves_are_not(tmp_path: Path):
    path = tmp_path / "1401.0001_0.json"
    config = AdapterConfig("pars", "json", {"section": "sections"})
    # an empty list has no leaf: the path matches nothing
    path.write_text('{"sections": []}', encoding="utf-8")
    assert _record(path, config, "section").flags == (SELECTOR_MISS,)
    # blank leaves are matched items without tokens
    path.write_text('{"sections": ["", " "]}', encoding="utf-8")
    assert _record(path, config, "section") == ExtractionRecord("section", ())


CSV_CONFIG = AdapterConfig("tab", "csv")


def test_csv_adapter_flattens_row_major(tmp_path: Path):
    path = tmp_path / "1401.0001_0.csv"
    path.write_text('Model,Acc\nOurs,"0.91 est"\nBase,0.85\n', encoding="utf-8")
    record = _record(path, CSV_CONFIG, "table")
    assert record.label == "table"
    assert record.units == (("Model", "Acc"), ("Ours", "0.91", "est"),
                            ("Base", "0.85"))
    assert record.tokens == ("Model", "Acc", "Ours", "0.91", "est",
                             "Base", "0.85")
    assert record.flags == ()


def test_csv_adapter_skips_blank_rows(tmp_path: Path):
    path = tmp_path / "1401.0001_0.csv"
    path.write_text("a,b\n\n,,\nc,d\n", encoding="utf-8")
    record = _record(path, CSV_CONFIG, "table")
    assert record.units == (("a", "b"), ("c", "d"))


def test_csv_adapter_rejects_unreadable(tmp_path: Path):
    path = tmp_path / "1401.0001_0.csv"
    path.write_text('a,"b\nnever closed', encoding="utf-8")
    record = _record(path, CSV_CONFIG, "table")
    # csv module versions differ on this input: an error, or a record
    assert isinstance(record, (CsvParseError, ExtractionRecord))


def test_csv_adapter_gives_the_table_to_its_label_only(tmp_path: Path):
    path = tmp_path / "1401.0001_0.csv"
    path.write_text("a,b\nc,d\n", encoding="utf-8")
    records = read_records(path, CSV_CONFIG, ["paragraph", "table", "title"])
    assert records["table"] == ExtractionRecord("table", (("a", "b"), ("c", "d")))
    for label in ("paragraph", "title"):
        assert records[label] == ExtractionRecord(label, (), (SELECTOR_MISS,))


TEXT_FILE = "Line one here\nLine two\nLine three\nLine four\nLine five\n"

TEXT_CONFIG = AdapterConfig("plain", "text", {
    "title": "1",
    "paragraph": "2-4",
    "reference": "5-",
    "abstract": "*",
})


def test_text_adapter_line_rules(tmp_path: Path):
    path = tmp_path / "1401.0001_0.txt"
    path.write_text(TEXT_FILE, encoding="utf-8")
    record = _record(path, TEXT_CONFIG, "title")
    assert record.units == (("Line", "one", "here"),)

    record = _record(path, TEXT_CONFIG, "paragraph")
    assert record.units == (("Line", "two"), ("Line", "three"), ("Line", "four"))

    record = _record(path, TEXT_CONFIG, "reference")
    assert record.units == (("Line", "five"),)

    record = _record(path, TEXT_CONFIG, "abstract")
    assert len(record.units) == 5


def test_text_adapter_range_beyond_eof(tmp_path: Path):
    path = tmp_path / "1401.0001_0.txt"
    path.write_text("only one line\n", encoding="utf-8")
    config = AdapterConfig("plain", "text", {"reference": "3-9", "title": "1-5"})
    record = _record(path, config, "reference")
    assert record.units == ()
    assert SELECTOR_MISS in record.flags
    # a rule that starts in range is clamped, not a miss
    record = _record(path, config, "title")
    assert record.units == (("only", "one", "line"),)
    assert SELECTOR_MISS not in record.flags


def test_text_adapter_unmapped_label(tmp_path: Path):
    path = tmp_path / "1401.0001_0.txt"
    path.write_text(TEXT_FILE, encoding="utf-8")
    config = AdapterConfig("plain", "text", {"title": "1"})
    record = _record(path, config, "footer")
    assert record.units == ()
    assert SELECTOR_MISS in record.flags


def test_text_adapter_invalid_rules():
    for rule in ("0", "4-2", "x", "1-2-3"):
        with pytest.raises(ConfigError, match="'title'"):
            AdapterConfig("plain", "text", {"title": rule})


def _plain_data(value) -> bool:
    if isinstance(value, (tuple, list)):
        return all(map(_plain_data, value))
    return value is None or type(value) in (str, int)


@pytest.mark.parametrize("config, name, text", (
    (XML_CONFIG, "page.xml", TEI_LIKE),
    (JSON_CONFIG, "page.json", json.dumps(JSON_DOC)),
    (CSV_CONFIG, "page.csv", "a,b\nc,d\n"),
    (TEXT_CONFIG, "page.txt", TEXT_FILE),
), ids=("xml", "json", "csv", "text"))
def test_config_pickles_to_one_that_reads_the_same_records(tmp_path: Path,
                                                           config, name, text):
    # Every pool task pickles its config, compiled selectors and all.
    assert all(map(_plain_data, config.compiled.values()))
    copy = pickle.loads(pickle.dumps(config))
    assert copy == config
    assert copy.compiled == config.compiled
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    labels = sorted({*config.selector_map, "footnote", "table"})
    records = read_records(path, copy, labels)
    assert records == read_records(path, config, labels)
    assert any(record.units for record in records.values())


def test_lossy_decode_flag(tmp_path: Path):
    path = tmp_path / "1401.0001_0.txt"
    path.write_bytes(b"good line\nbad \xff byte\n")
    config = AdapterConfig("plain", "text", {"title": "*"})
    record = _record(path, config, "title")
    assert LOSSY_DECODE in record.flags
    assert record.units[0] == ("good", "line")


@pytest.mark.parametrize("config, name, text", (
    (XML_CONFIG, "page.xml", TEI_LIKE),
    (JSON_CONFIG, "page.json", json.dumps(JSON_DOC)),
    (TEXT_CONFIG, "page.txt", TEXT_FILE),
), ids=("xml", "json", "text"))
def test_one_call_equals_single_label_calls(tmp_path: Path, config, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    # every mapped label, one unmapped label, and a repeated label
    labels = sorted(config.selector_map) + ["footnote", "title"]
    assert len(config.selector_map) >= 3
    records = read_records(path, config, labels)
    assert list(records) == sorted(set(labels), key=labels.index)
    for label in labels:
        assert records[label] == _record(path, config, label)
    assert SELECTOR_MISS in records["footnote"].flags


def test_json_path_type_error_is_its_label_only(tmp_path: Path):
    path = tmp_path / "1401.0001_0.json"
    path.write_text(json.dumps(JSON_DOC), encoding="utf-8")
    config = AdapterConfig("pars", "json", {"author": "meta.authors",
                                            "title": "meta.title",
                                            "section": "sections"})
    records = read_records(path, config, ["author", "section", "title"])
    assert isinstance(records["author"], PathTypeError)
    assert records["section"].units == (("Intro",), ("Methods",))
    assert records["title"].units == (("Deep", "Parsing"),)


def test_parse_error_is_every_label_value(tmp_path: Path):
    path = tmp_path / "1401.0001_0.xml"
    path.write_text("<a><b></a>", encoding="utf-8")
    records = read_records(path, XML_CONFIG, ["paragraph", "title", "table"])
    assert len({id(error) for error in records.values()}) == 1
    assert isinstance(records["title"], XmlParseError)
    # The caller names the file; the error itself does not repeat it.
    assert "1401.0001_0.xml" not in str(records["title"])


def test_restrict_units_keeps_covered_items():
    gt = tokenize("Smith 2019 Parsing with neural networks")
    units = (
        tokenize("Smith 2019 Parsing"),        # covered exactly
        tokenize("Totally unrelated citation"),  # not covered
        tokenize("with neurol networks"),       # covered with small noise
    )
    kept = restrict_units(units, gt)
    assert kept == (units[0], units[2])


def test_restrict_units_identity_when_all_match():
    gt = tokenize("a b c d e f")
    units = (tokenize("a b"), tokenize("c d"), tokenize("e f"))
    assert restrict_units(units, gt) == units


def test_restrict_units_empty_ground_truth():
    assert restrict_units((tokenize("anything"),), ()) == ()


def test_restrict_units_threshold_controls_keep():
    gt = tokenize("alpha beta gamma")
    units = (tokenize("alpha bexa"),)  # one substitution against "alpha beta"
    assert ratio_reference("alpha bexa", "alpha beta") == 0.9
    assert restrict_units(units, gt, MatchConfig(threshold=0.9)) == units
    assert restrict_units(units, gt, MatchConfig(threshold=0.95)) == ()


def test_restrict_units_long_document_scenario():
    # thirty reference items of dissimilar text, a page covering only twelve
    import random
    rng = random.Random(1401)
    alphabet = "abcdefghijklmnopqrstuvwxyz0123456789"
    refs = [" ".join("".join(rng.choice(alphabet) for _ in range(8))
                     for _ in range(5))
            for _ in range(30)]
    gt_tokens = tokenize(" ".join(refs[9:21]))
    units = tuple(tokenize(r) for r in refs)
    kept = restrict_units(units, gt_tokens)
    assert kept == units[9:21]


# casefold maps "ß" to "ss" and NFC composes "e\u0301" into "é", so both
# options change string lengths; the last two are outside the BMP
_RESTRICT_ALPHABET = ("a", "b", "c", "A", "B", "ß", "é", "e\u0301",
                      "\U0001d518", "\U0001f600")


def _restrict_token(rng) -> str:
    return "".join(rng.choice(_RESTRICT_ALPHABET)
                   for _ in range(rng.randint(1, 4)))


def test_restrict_units_matches_window_oracle(monkeypatch):
    # every kernel through numpy, then none
    for cells in (0, 1 << 40):
        monkeypatch.setattr(metrics, "_SMALL_CELLS", cells)
        _check_restrict_units_against_window_oracle()


def _check_restrict_units_against_window_oracle():
    import random
    rng = random.Random(20231014)
    thresholds = (0.0, 0.5, 0.7, 0.8, 0.9, 1.0)
    outcomes = set()
    folded_kept = 0
    for case in range(240):
        config = MatchConfig(threshold=thresholds[case % len(thresholds)],
                             substitution_cost=1 + case % 2,
                             case_sensitive=case % 3 != 0,
                             normalize_nfc=case % 4 == 0)
        gt = tuple(_restrict_token(rng) for _ in range(rng.randint(0, 9)))
        start = rng.randrange(len(gt) or 1)
        exact = gt[start:start + rng.randint(1, 3)] or ("a",)
        extra = tuple(_restrict_token(rng) for _ in range(2))
        units = [
            exact,  # an exact window: ratio 1.0
            # longer than the ground truth: its window is all of it
            gt + extra if rng.random() < 0.5 else extra + gt[1:] + extra,
        ]
        for _ in range(rng.randint(0, 4)):
            noisy = list(gt[rng.randrange(len(gt) or 1):][:rng.randint(1, 4)]
                         or ("b",))
            noisy[rng.randrange(len(noisy))] = _restrict_token(rng)
            units.append(tuple(noisy))
        units.insert(rng.randrange(len(units) + 1), exact)  # an equal item
        # equal to a window once casefolded and NFC-normalized
        folded = tuple(unicodedata.normalize("NFD", t.swapcase()) for t in exact)
        units.append(folded)
        rng.shuffle(units)
        units = tuple(units)
        kept = restrict_units(units, gt, config)
        assert kept == restrict_reference(units, gt, config), (case, units, gt)
        if gt:
            assert kept.count(exact) == units.count(exact) >= 2
            outcomes.add(len(kept) == len(units))
            if not config.case_sensitive and config.normalize_nfc:
                assert folded in kept
                folded_kept += folded != exact
    assert outcomes == {True, False}
    assert folded_kept > 0


@pytest.mark.parametrize("cost", (1, 2))
def test_restrict_units_matches_window_oracle_past_the_mask_cutoff(monkeypatch, cost):
    # Tokens of 78-84 letters make the lanes of widths 5 and 6 (two windows
    # and one) longer than metrics._MASKS_CUTOFF, so their masks come from
    # the numpy builder.
    import random
    rng = random.Random(2005 + cost)
    config = MatchConfig(threshold=0.8, substitution_cost=cost,
                         case_sensitive=False, normalize_nfc=True)

    def token():
        return "".join(rng.choice(_RESTRICT_ALPHABET)
                       for _ in range(rng.randint(78, 84)))

    gt = tuple(token() for _ in range(6))
    exact = gt[1:]
    noisy = gt[:2] + (token(),) + gt[3:5]
    # equal to the ground truth once casefolded and NFC-normalized
    folded = tuple(unicodedata.normalize("NFD", t.swapcase()) for t in gt)
    junk = tuple(token() for _ in range(6))
    units = (exact, noisy, junk, folded)
    built = []
    masks = metrics._masks

    def recording(text):
        built.append(len(text))
        return masks(text)

    monkeypatch.setattr(metrics, "_masks", recording)
    kept = restrict_units(units, gt, config)
    assert kept == restrict_reference(units, gt, config) == (exact, noisy, folded)
    assert len(built) == 2 and min(built) >= metrics._MASKS_CUTOFF


def test_restrict_units_keeps_window_equal_items_without_kernel_rows(monkeypatch):
    texts = []
    deltas = metrics._deltas

    def counting(text, *args):
        texts.append(text)
        return deltas(text, *args)

    monkeypatch.setattr(metrics, "_deltas", counting)
    gt = tokenize("one two three four five six")
    units = (("two", "three"), ("TWO", "THREE"), ("four",), ("six",) * 2)
    kept = restrict_units(units, gt)
    assert kept == (("two", "three"), ("four",))
    assert texts == ["TWO THREE", "six six"]
    texts.clear()
    folding = MatchConfig(case_sensitive=False)
    assert restrict_units(units[:3], gt, folding) == units[:3]
    assert texts == []
