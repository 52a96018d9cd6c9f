"""End-to-end CLI tests. Every case runs the real interpreter, but the
interrupt and the runs of one page, which call main() in this process."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Callable

import pytest

GOLDEN_LABEL_ARG = "abstract,author,paragraph,reference,section,table,title"


def _run(*argv: str, env: dict[str, str] | None = None,
         cwd: Path | None = None) -> subprocess.CompletedProcess:
    merged = dict(os.environ)
    if env:
        merged.update(env)
    return subprocess.run(
        [sys.executable, "-m", "docbench.cli", *argv],
        capture_output=True, text=True, env=merged, cwd=cwd, timeout=120)


def _eval_args(golden_dir: Path, tool: str, journal: Path) -> list[str]:
    return [
        "eval",
        "--gt-root", str(golden_dir / "gt"),
        "--tool-output", str(golden_dir / "out" / tool),
        "--adapter-config", str(golden_dir / "adapters" / f"{tool}.json"),
        "--journal", str(journal),
        "--labels", GOLDEN_LABEL_ARG,
    ]


def test_version_flag():
    proc = _run("--version")
    assert proc.returncode == 0
    assert proc.stdout.strip() == "docbench 0.1.0"


def test_no_command_is_usage_error():
    proc = _run()
    assert proc.returncode == 2


def test_unknown_metric_rejected_by_argparse(tmp_path: Path):
    proc = _run("chart", "--journal", str(tmp_path / "x.jsonl"),
                "--metric", "f2", "--out", str(tmp_path / "x.svg"))
    assert proc.returncode == 2


def test_eval_threshold_out_of_range(golden_dir: Path, tmp_path: Path):
    proc = _run(*_eval_args(golden_dir, "perfect", tmp_path / "j.jsonl"),
                "--threshold", "1.5")
    assert proc.returncode == 2
    assert "threshold" in proc.stderr


def test_eval_interrupted_exits_130(golden_dir: Path, tmp_path: Path,
                                    monkeypatch, capsys):
    from docbench import cli, pipeline

    def interrupted(*args, **kwargs):  # a generator, as evaluate_run is
        raise KeyboardInterrupt
        yield

    monkeypatch.setattr(pipeline, "evaluate_run", interrupted)  # cmd_eval's import
    code = cli.main(_eval_args(golden_dir, "perfect", tmp_path / "j.jsonl"))
    assert code == 130
    assert capsys.readouterr().err == (
        "[ERROR] interrupted; rerun the same command to resume\n")


def test_eval_bad_sample_syntax(golden_dir: Path, tmp_path: Path):
    proc = _run(*_eval_args(golden_dir, "perfect", tmp_path / "j.jsonl"),
                "--sample", "1401-1402")
    assert proc.returncode == 2
    assert "YYMM" in proc.stderr


def test_eval_missing_adapter_config(golden_dir: Path, tmp_path: Path):
    proc = _run("eval",
                "--gt-root", str(golden_dir / "gt"),
                "--tool-output", str(golden_dir / "out" / "perfect"),
                "--adapter-config", str(tmp_path / "absent.json"),
                "--journal", str(tmp_path / "j.jsonl"))
    assert proc.returncode == 1


def test_eval_missing_gt_root(golden_dir: Path, tmp_path: Path):
    proc = _run("eval",
                "--gt-root", str(tmp_path / "no-such-dir"),
                "--tool-output", str(golden_dir / "out" / "perfect"),
                "--adapter-config", str(golden_dir / "adapters" / "perfect.json"),
                "--journal", str(tmp_path / "j.jsonl"))
    assert proc.returncode == 1


def test_report_missing_journal(tmp_path: Path):
    proc = _run("report", "--journal", str(tmp_path / "absent.jsonl"))
    assert proc.returncode == 1


def test_report_skips_record_missing_a_field(golden_dir: Path, tmp_path: Path):
    lines = (golden_dir / "expected" / "partial.jsonl") \
        .read_text(encoding="utf-8").splitlines()
    payload = json.loads(lines[1])
    del payload["acc"]
    lines[1] = json.dumps(payload)
    journal = tmp_path / "partial.jsonl"
    journal.write_text("\n".join(lines) + "\n", encoding="utf-8")
    proc = _run("report", "--journal", str(journal))
    assert proc.returncode == 0
    assert "Traceback" not in proc.stderr
    assert "malformed journal line 2" in proc.stderr
    # the other paragraph unit is still counted
    assert "\npartial,paragraph,1,1," in proc.stdout


def test_index_command(golden_dir: Path, tmp_path: Path):
    out = tmp_path / "index.json"
    proc = _run("index", "--gt-root", str(golden_dir / "gt"),
                "--out", str(out))
    assert proc.returncode == 0
    assert "[INFO] indexed 5 pages" in proc.stdout
    assert "title: 2 pages" in proc.stdout
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["format_version"] == 1
    assert len(payload["entries"]) == 5



def test_document_id_that_utf8_cannot_encode_is_skipped(tmp_path: Path):
    """A filename byte that is not UTF-8 reaches the document id as a
    surrogate, which no journal or index can hold: the file is skipped."""
    gt_root = tmp_path / "gt"
    gt_root.mkdir()
    line = b"Deep\t0\t0\t1\t1\t0\t0\t0\tF\ttitle\n"
    (gt_root / "good_0.txt").write_bytes(line)
    with open(os.path.join(os.fsencode(gt_root), b"doc\xff_0.txt"), "wb") as f:
        f.write(line)
    adapter = tmp_path / "adapter.json"
    adapter.write_text('{"tool": "t", "format": "text", "selectors": '
                       '{"title": "1"}}', encoding="utf-8")
    pattern = ["--pattern", r"(?P<doc>.+)_(?P<page>\d+)\.txt$"]
    # A strict stdout, as under a UTF-8 locale, refuses to print a surrogate.
    env = {"PYTHONIOENCODING": "utf-8:strict"}
    index = tmp_path / "index.json"
    proc = _run("index", "--gt-root", str(gt_root), "--out", str(index),
                *pattern, env=env)
    assert (proc.returncode, "Traceback" in proc.stderr) == (0, False)
    assert "[WARN] skipped 1 files" in proc.stdout
    assert [entry["doc"] for entry in json.loads(
        index.read_text(encoding="utf-8"))["entries"]] == ["good"]
    proc = _run("validate", "--gt-root", str(gt_root), *pattern, env=env)
    assert (proc.returncode, "Traceback" in proc.stderr) == (3, False)
    assert proc.stdout.count("[FINDING]") == 1
    assert "not valid UTF-8" in proc.stdout
    journal = tmp_path / "j.jsonl"
    proc = _run("eval", "--gt-root", str(gt_root), "--tool-output",
                str(tmp_path), "--adapter-config", str(adapter), "--journal",
                str(journal), "--labels", "title", *pattern, env=env)
    assert (proc.returncode, "Traceback" in proc.stderr) == (0, False)
    assert [json.loads(line).get("doc") for line in
            journal.read_text(encoding="utf-8").splitlines()] == [None, "good"]


def test_path_that_utf8_cannot_encode_is_skipped(tmp_path: Path):
    """A non-UTF-8 byte anywhere in a ground-truth path, not only in the
    document id, skips the file in index and eval and is a finding of
    validate, all printable on a strict UTF-8 stdout."""
    gt_root = tmp_path / "gt"
    (gt_root / "sub").mkdir(parents=True)
    line = b"Deep\t0\t0\t1\t1\t0\t0\t0\tF\ttitle\n"
    (gt_root / "1401.0001_main_0.txt").write_bytes(line)
    root = os.fsencode(gt_root)
    with open(os.path.join(root, b"1401.0002_m\xffain_0.txt"), "wb") as f:
        f.write(line + b"bad line\n")
    os.mkdir(os.path.join(root, b"sub\xfe"))
    with open(os.path.join(root, b"sub\xfe", b"1401.0003_0.txt"), "wb") as f:
        f.write(line)
    env = {"PYTHONIOENCODING": "utf-8:strict"}
    index = tmp_path / "index.json"
    proc = _run("index", "--gt-root", str(gt_root), "--out", str(index), env=env)
    assert (proc.returncode, "Traceback" in proc.stderr) == (0, False)
    assert "[WARN] skipped 2 files" in proc.stdout
    assert [entry["doc"] for entry in json.loads(
        index.read_text(encoding="utf-8"))["entries"]] == ["1401.0001"]
    proc = _run("validate", "--gt-root", str(gt_root), env=env)
    assert (proc.returncode, "Traceback" in proc.stderr) == (3, False)
    assert proc.stdout.count("[FINDING]") == 2
    assert "m\\udcffain_0.txt' is not valid UTF-8" in proc.stdout  # by repr
    assert "/sub\\xfe: path" in proc.stdout  # the directory, printed as is
    adapter = tmp_path / "adapter.json"
    adapter.write_text('{"tool": "t", "format": "text", "selectors": '
                       '{"title": "1"}}', encoding="utf-8")
    journal = tmp_path / "j.jsonl"
    proc = _run("eval", "--gt-root", str(gt_root), "--tool-output",
                str(tmp_path), "--adapter-config", str(adapter), "--journal",
                str(journal), "--labels", "title", env=env)
    assert (proc.returncode, "Traceback" in proc.stderr) == (0, False)
    assert [json.loads(line).get("doc") for line in
            journal.read_text(encoding="utf-8").splitlines()] == [None, "1401.0001"]


@pytest.mark.parametrize("command", ["index", "eval", "validate"])
def test_custom_pattern_match_without_a_page_key_is_skipped(tmp_path: Path,
                                                            command: str):
    """A pattern that matches a name without giving a document id and a
    page number skips the file in index and eval; validate names it."""
    gt_root = tmp_path / "gt"
    gt_root.mkdir()
    line = "Deep\t0\t0\t1\t1\t0\t0\t0\tF\ttitle\n"
    for name in ("good_0.txt", "_3.txt", "doc_x.txt"):
        (gt_root / name).write_text(line, encoding="utf-8")
    pattern = ["--pattern", r"(?P<doc>[a-z]*)_(?P<page>[a-z0-9]+)\.txt$"]
    out = tmp_path / "out.json"
    if command == "index":
        proc = _run("index", "--gt-root", str(gt_root), "--out", str(out),
                    *pattern)
        assert (proc.returncode, proc.stderr.count("Traceback")) == (0, 0)
        assert "[WARN] skipped 2 files" in proc.stdout
        assert [entry["doc"] for entry in json.loads(
            out.read_text(encoding="utf-8"))["entries"]] == ["good"]
    elif command == "eval":
        adapter = tmp_path / "adapter.json"
        adapter.write_text('{"tool": "t", "format": "text", "selectors": '
                           '{"title": "1"}}', encoding="utf-8")
        proc = _run("eval", "--gt-root", str(gt_root), "--tool-output",
                    str(tmp_path), "--adapter-config", str(adapter),
                    "--journal", str(out), "--labels", "title", *pattern)
        assert (proc.returncode, proc.stderr.count("Traceback")) == (0, 0)
        assert [json.loads(line).get("doc") for line in
                out.read_text(encoding="utf-8").splitlines()] == [None, "good"]
    else:
        proc = _run("validate", "--gt-root", str(gt_root), *pattern)
        assert (proc.returncode, proc.stderr.count("Traceback")) == (3, 0)
        findings = [line for line in proc.stdout.splitlines()
                    if line.startswith("[FINDING]")]
        assert len(findings) == 2
        assert "'_3.txt'" in findings[0] and "'doc_x.txt'" in findings[1]


def test_validate_tool_output_reads_the_template_extension(tmp_path: Path):
    out = tmp_path / "out"
    (out / "sub.tei").mkdir(parents=True)  # a directory is no output file
    (out / "1401.0001_0.tei").write_text("<TEI><title>Deep", encoding="utf-8")
    (out / "1401.0001_1.tei").write_text("<TEI><title>Deep</title></TEI>",
                                         encoding="utf-8")
    (out / "notes.xml").write_text("<notes>", encoding="utf-8")
    adapter = tmp_path / "adapter.json"
    for template, named in (("{doc}_{page}.tei", ["1401.0001_0.tei"]),
                            ("{doc}.p{page}", ["1401.0001_0.tei", "notes.xml"])):
        adapter.write_text(json.dumps({
            "tool": "grob", "format": "xml", "path_template": template,
            "selectors": {"title": "title"}}), encoding="utf-8")
        proc = _run("validate", "--tool-output", str(out),
                    "--adapter-config", str(adapter))
        assert (proc.returncode, proc.stderr.count("Traceback")) == (3, 0)
        findings = [line for line in proc.stdout.splitlines()
                    if line.startswith("[FINDING]")]
        assert [Path(line.split(": ")[0]).name for line in findings] == named


def test_validate_tool_output_prints_a_non_utf8_path(tmp_path: Path):
    out = os.path.join(os.fsencode(tmp_path), b"out\xff")
    os.mkdir(out)
    with open(os.path.join(out, b"1401.0001_0.json"), "wb") as f:
        f.write(b'{"title": ')
    adapter = tmp_path / "adapter.json"
    adapter.write_text('{"tool": "t", "format": "json", "selectors": '
                       '{"title": "title"}}', encoding="utf-8")
    proc = _run("validate", "--tool-output", os.fsdecode(out),
                "--adapter-config", str(adapter),
                env={"PYTHONIOENCODING": "utf-8:strict"})
    assert (proc.returncode, "Traceback" in proc.stderr) == (3, False)
    assert proc.stdout.count("[FINDING]") == 1
    assert "out\\xff" in proc.stdout


def test_validate_tool_output_reports_every_label_of_a_file(tmp_path: Path):
    # One label's path error stops neither the other labels' findings nor
    # eval, which journals each label on its own.
    gt, out = tmp_path / "gt", tmp_path / "out"
    gt.mkdir()
    out.mkdir()
    (gt / "1401.0001_0.txt").write_text("".join(
        f"{label}\t1\t1\t2\t2\t0\t0\t0\tfont\t{label}\n"
        for label in ("author", "title", "section")), encoding="utf-8")
    (out / "1401.0001_0.json").write_text(
        json.dumps({"a": {"x": 1}, "b": {"y": 2}}), encoding="utf-8")
    adapter = tmp_path / "adapter.json"
    adapter.write_text(json.dumps({
        "tool": "js", "format": "json",
        "selectors": {"author": "a", "title": "b", "section": "zz"},
    }), encoding="utf-8")
    proc = _run("validate", "--tool-output", str(out),
                "--adapter-config", str(adapter))
    assert (proc.returncode, proc.stderr.count("Traceback")) == (3, 0)
    findings = [line.split(": ", 2)[1:] for line in proc.stdout.splitlines()
                if line.startswith("[FINDING]")]
    assert findings == [
        ["label 'author'", "path 'a' ends at an object; extend the path to a "
                           "text field"],
        ["selector miss for label 'section'"],
        ["label 'title'", "path 'b' ends at an object; extend the path to a "
                          "text field"]]

    journal = tmp_path / "js.jsonl"
    proc = _run("eval", "--gt-root", str(gt), "--tool-output", str(out),
                "--adapter-config", str(adapter), "--journal", str(journal),
                "--labels", "author,section,title")
    assert proc.returncode == 0, proc.stderr
    units = [json.loads(line) for line in
             journal.read_text(encoding="utf-8").splitlines()[1:]]
    assert [(unit["label"], unit["status"], unit["m"]) for unit in units] == [
        ("author", "tool_error_artifact", 0), ("section", "scored", 0),
        ("title", "tool_error_artifact", 0)]


def test_gt_root_env_override(golden_dir: Path, tmp_path: Path):
    out = tmp_path / "index.json"
    proc = _run("index", "--out", str(out),
                env={"DOCBENCH_GT_ROOT": str(golden_dir / "gt")})
    assert proc.returncode == 0
    assert out.exists()


@pytest.mark.parametrize("tool", ["perfect", "null", "partial"])
def test_eval_reproduces_expected_journal(golden_dir: Path, tmp_path: Path,
                                          tool: str):
    journal = tmp_path / f"{tool}.jsonl"
    proc = _run(*_eval_args(golden_dir, tool, journal))
    assert proc.returncode == 0, proc.stderr
    assert "[INFO] 9 units evaluated" in proc.stdout
    expected = (golden_dir / "expected" / f"{tool}.jsonl").read_bytes()
    assert journal.read_bytes() == expected


def test_eval_rerun_is_a_no_op(golden_dir: Path, tmp_path: Path):
    journal = tmp_path / "partial.jsonl"
    assert _run(*_eval_args(golden_dir, "partial", journal)).returncode == 0
    before = journal.read_bytes()
    proc = _run(*_eval_args(golden_dir, "partial", journal))
    assert proc.returncode == 0
    assert journal.read_bytes() == before


def test_eval_rejects_journal_from_other_config(golden_dir: Path,
                                                tmp_path: Path):
    journal = tmp_path / "partial.jsonl"
    assert _run(*_eval_args(golden_dir, "partial", journal)).returncode == 0
    proc = _run(*_eval_args(golden_dir, "partial", journal),
                "--threshold", "0.5")
    assert proc.returncode == 2
    assert "config" in proc.stderr


def test_eval_rejects_headerless_journal(golden_dir: Path, tmp_path: Path):
    golden = golden_dir / "expected" / "partial.jsonl"
    journal = tmp_path / "partial.jsonl"
    journal.write_bytes(golden.read_bytes().split(b"\n", 1)[1])
    proc = _run(*_eval_args(golden_dir, "partial", journal))
    assert proc.returncode == 2
    assert "no header" in proc.stderr


@pytest.mark.parametrize("refusal", ["other config", "two configs", "no header"])
def test_refused_journal_is_not_cut(golden_dir: Path, tmp_path: Path,
                                    refusal: str):
    """A refused journal keeps every byte, even the cut line an interrupted
    write left at its end."""
    journal = tmp_path / "partial.jsonl"
    args = _eval_args(golden_dir, "partial", journal)
    golden = (golden_dir / "expected" / "partial.jsonl").read_bytes()
    if refusal == "other config":
        journal.write_bytes(golden)
        args.extend(["--threshold", "0.5"])
    elif refusal == "two configs":
        _two_config_journal(golden_dir, journal)
    else:
        journal.write_bytes(golden.split(b"\n", 1)[1])
    data = journal.read_bytes() + golden.splitlines()[1][:22]
    journal.write_bytes(data)
    proc = _run(*args)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert journal.read_bytes() == data


def _two_config_journal(golden_dir: Path, journal: Path) -> bytes:
    """A journal whose first header carries another config, two unit lines,
    then the current header (line 4) and two more unit lines."""
    golden = (golden_dir / "expected" / "partial.jsonl").read_bytes()
    header, *lines = golden.splitlines(keepends=True)
    other = json.dumps(dict(json.loads(header), config="aaaaaaaaaaaa"),
                       separators=(",", ":")).encode() + b"\n"
    data = other + b"".join(lines[:2]) + header + b"".join(lines[2:4])
    journal.write_bytes(data)
    return data


def test_journal_with_two_configs_is_refused(golden_dir: Path,
                                             tmp_path: Path):
    journal = tmp_path / "partial.jsonl"
    data = _two_config_journal(golden_dir, journal)
    commands = {
        "eval": _eval_args(golden_dir, "partial", journal),
        "report": ["report", "--journal", str(journal)],
        "chart": ["chart", "--journal", str(journal), "--metric", "f1",
                  "--out", str(tmp_path / "f1.svg")],
    }
    for name, argv in commands.items():
        proc = _run(*argv)
        assert proc.returncode == 2, name
        assert "Traceback" not in proc.stderr
        assert "line 4" in proc.stderr and "aaaaaaaaaaaa" in proc.stderr, name
    assert journal.read_bytes() == data
    assert not (tmp_path / "f1.svg").exists()


def test_eval_parallel_bytes_match(golden_dir: Path, tmp_path: Path):
    seq = tmp_path / "seq.jsonl"
    par = tmp_path / "par.jsonl"
    assert _run(*_eval_args(golden_dir, "partial", seq)).returncode == 0
    assert _run(*_eval_args(golden_dir, "partial", par),
                "--jobs", "4").returncode == 0
    assert seq.read_bytes() == par.read_bytes()


def test_eval_via_prebuilt_index(golden_dir: Path, tmp_path: Path):
    index = tmp_path / "index.json"
    assert _run("index", "--gt-root", str(golden_dir / "gt"),
                "--out", str(index)).returncode == 0
    journal = tmp_path / "partial.jsonl"
    proc = _run("eval",
                "--index", str(index),
                "--tool-output", str(golden_dir / "out" / "partial"),
                "--adapter-config", str(golden_dir / "adapters" / "partial.json"),
                "--journal", str(journal),
                "--labels", GOLDEN_LABEL_ARG)
    assert proc.returncode == 0, proc.stderr
    expected = (golden_dir / "expected" / "partial.jsonl").read_bytes()
    assert journal.read_bytes() == expected


def _lines_before_a_page_gone(golden_dir: Path, tmp_path: Path, jobs: str,
                              run: Callable[[list[str]], tuple[int, str]]) -> int:
    """Runs eval through run(args), which gives its exit code and stderr,
    over an index of a golden copy whose last page is then deleted, and
    checks its one [ERROR]. Then puts the page back and checks that a rerun
    resumes to the clean bytes. Returns the journal's lines after the error."""
    gt_root = tmp_path / "gt"
    shutil.copytree(golden_dir / "gt", gt_root)
    index = tmp_path / "index.json"
    assert _run("index", "--gt-root", str(gt_root),
                "--out", str(index)).returncode == 0
    page = gt_root / "9.tar_1403.0777.gz_gamma_2.txt"
    saved = page.read_bytes()
    page.unlink()
    journal = tmp_path / "partial.jsonl"
    args = ["eval", "--index", str(index),
            "--tool-output", str(golden_dir / "out" / "partial"),
            "--adapter-config", str(golden_dir / "adapters" / "partial.json"),
            "--journal", str(journal), "--labels", GOLDEN_LABEL_ARG,
            "--jobs", jobs]
    code, stderr = run(args)
    assert code == 1
    assert "Traceback" not in stderr
    [error] = [line for line in stderr.splitlines()
               if line.startswith("[ERROR]")]
    assert page.name in error
    lines = len(journal.read_bytes().splitlines())
    page.write_bytes(saved)
    assert _run(*args).returncode == 0
    expected = (golden_dir / "expected" / "partial.jsonl").read_bytes()
    assert journal.read_bytes() == expected
    return lines


def _run_process(args: list[str]) -> tuple[int, str]:
    proc = _run(*args)
    return proc.returncode, proc.stderr


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_eval_with_a_ground_truth_page_gone(golden_dir: Path, tmp_path: Path,
                                            jobs: str):
    # The golden corpus fits in one run, so one worker plans every page
    # before the first result. Two plan their own documents, so the first
    # two documents' results are journalled before the third document's
    # error reaches the parent.
    inline = jobs == "1" or (os.cpu_count() or 1) < 2
    assert _lines_before_a_page_gone(golden_dir, tmp_path, jobs,
                                     _run_process) == (1 if inline else 7)


def test_eval_journals_earlier_runs_before_a_page_gone(golden_dir: Path,
                                                       tmp_path: Path,
                                                       monkeypatch, capsys):
    """With runs of one page, one worker scores each document before it
    plans the next, so the first two documents are journalled."""
    from docbench import cli, pipeline
    monkeypatch.setattr(pipeline, "_RUN_PAGES", 1)

    def run_here(args: list[str]) -> tuple[int, str]:
        return cli.main(args), capsys.readouterr().err

    assert _lines_before_a_page_gone(golden_dir, tmp_path, "1", run_here) == 7


@pytest.mark.parametrize("tool", ["null", "partial"])
def test_report_reproduces_expected_csv(golden_dir: Path, tmp_path: Path,
                                        tool: str):
    journal = tmp_path / f"{tool}.jsonl"
    assert _run(*_eval_args(golden_dir, tool, journal)).returncode == 0
    out = tmp_path / "report.csv"
    proc = _run("report", "--journal", str(journal), "--out", str(out))
    assert proc.returncode == 0
    expected = (golden_dir / "expected" / f"{tool}_report.csv").read_bytes()
    assert out.read_bytes() == expected


def test_report_stdout_equals_file(golden_dir: Path, tmp_path: Path):
    journal = tmp_path / "partial.jsonl"
    assert _run(*_eval_args(golden_dir, "partial", journal)).returncode == 0
    to_stdout = _run("report", "--journal", str(journal))
    assert to_stdout.returncode == 0
    expected = (golden_dir / "expected" / "partial_report.csv") \
        .read_text(encoding="utf-8")
    assert to_stdout.stdout == expected


def test_report_json_format(golden_dir: Path, tmp_path: Path):
    journal = tmp_path / "partial.jsonl"
    assert _run(*_eval_args(golden_dir, "partial", journal)).returncode == 0
    proc = _run("report", "--journal", str(journal), "--format", "json")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert {row["label"] for row in payload["rows"]} == {
        "abstract", "author", "paragraph", "reference",
        "section", "table", "title"}
    assert len(payload["summaries"]) == 4


def test_report_merges_multiple_journals(golden_dir: Path, tmp_path: Path):
    journals = []
    for tool in ("perfect", "partial"):
        journal = tmp_path / f"{tool}.jsonl"
        assert _run(*_eval_args(golden_dir, tool, journal)).returncode == 0
        journals.append(journal)
    proc = _run("report",
                "--journal", str(journals[0]),
                "--journal", str(journals[1]))
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    tools = {line.split(",")[0] for line in lines[2:] if not line.startswith("#")}
    assert tools == {"perfect", "partial"}


def test_chart_command(golden_dir: Path, tmp_path: Path):
    journal = tmp_path / "partial.jsonl"
    assert _run(*_eval_args(golden_dir, "partial", journal)).returncode == 0
    out = tmp_path / "chart.svg"
    proc = _run("chart", "--journal", str(journal), "--metric", "f1",
                "--out", str(out))
    assert proc.returncode == 0
    svg = out.read_text(encoding="utf-8")
    assert svg.count('class="bar"') == 7
    cumulative = tmp_path / "cumulative.svg"
    proc = _run("chart", "--journal", str(journal),
                "--metric", "cumulative_f1", "--out", str(cumulative))
    assert proc.returncode == 0
    assert 'data-group="metadata"' in cumulative.read_text(encoding="utf-8")


def test_validate_clean_gt(golden_dir: Path):
    proc = _run("validate", "--gt-root", str(golden_dir / "gt"))
    assert proc.returncode == 0
    assert "[INFO] clean" in proc.stdout


def test_validate_gt_findings(tmp_path: Path):
    root = tmp_path / "gt"
    root.mkdir()
    (root / "1401.0001_0.txt").write_text(
        "ok\t1\t2\t3\t4\t0\t0\t0\tf\ttitle\n"
        "short line\n"
        "w\t1\t2\t3\t4\t0\t0\t0\tf\tbogus\n",
        encoding="utf-8")
    (root / "unkeyed.txt").write_text("x\n", encoding="utf-8")
    proc = _run("validate", "--gt-root", str(root))
    assert proc.returncode == 3
    assert proc.stdout.count("[FINDING]") == 3
    assert "[INFO] 3 findings" in proc.stdout


def test_validate_extra_labels_widen_the_vocabulary(tmp_path: Path):
    # the vocabulary index and eval accept with the same --extra-labels
    root = tmp_path / "gt"
    root.mkdir()
    (root / "1401.0001_0.txt").write_text(
        "ok\t1\t2\t3\t4\t0\t0\t0\tf\ttitle\n"
        "aside\t1\t2\t3\t4\t0\t0\t0\tf\tsidebar\n",
        encoding="utf-8")
    proc = _run("validate", "--gt-root", str(root), "--extra-labels", "sidebar")
    assert proc.returncode == 0
    assert "[INFO] clean" in proc.stdout
    proc = _run("validate", "--gt-root", str(root))
    assert proc.returncode == 3
    assert proc.stdout.count("[FINDING]") == 1
    assert "[unknown-label]" in proc.stdout


def _gt_with_a_non_finite_coordinate(golden_dir: Path, tmp_path: Path) -> Path:
    root = tmp_path / "gt"
    shutil.copytree(golden_dir / "gt", root)
    with open(root / "7.tar_1401.0001.gz_alpha_0.txt", "a", encoding="utf-8") as page:
        page.write("word\tinf\t2\t3\t4\t0\t0\t0\tf\ttitle\n")
    return root


def test_validate_names_a_non_finite_coordinate(golden_dir: Path, tmp_path: Path):
    root = _gt_with_a_non_finite_coordinate(golden_dir, tmp_path)
    proc = _run("validate", "--gt-root", str(root))
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    assert proc.stdout.count("[FINDING]") == 1
    assert "[malformed] non-finite x0: 'inf'" in proc.stdout


def test_eval_skips_a_non_finite_coordinate(golden_dir: Path, tmp_path: Path):
    journal = tmp_path / "partial.jsonl"
    args = _eval_args(golden_dir, "partial", journal)
    args[args.index("--gt-root") + 1] = str(
        _gt_with_a_non_finite_coordinate(golden_dir, tmp_path))
    proc = _run(*args)
    assert proc.returncode == 0, proc.stderr
    expected = (golden_dir / "expected" / "partial.jsonl").read_bytes()
    assert journal.read_bytes() == expected


def test_validate_adapter_config(golden_dir: Path, tmp_path: Path):
    good = golden_dir / "adapters" / "partial.json"
    proc = _run("validate", "--adapter-config", str(good))
    assert proc.returncode == 0

    bad = tmp_path / "dup.json"
    bad.write_text(json.dumps({
        "tool": "t", "format": "text",
        "selectors": {"title": "1", "section": "1"},
    }), encoding="utf-8")
    proc = _run("validate", "--adapter-config", str(bad))
    assert proc.returncode == 3
    assert "[FINDING]" in proc.stdout


MALFORMED_ADAPTERS = {
    "not an object": None,
    "null selectors": {"selectors": None},
    "list selectors": {"selectors": ["title"]},
    "non-string selector": {"selectors": {"title": 5}},
    "unknown template field": {"path_template": "{doc}_{pg}.txt"},
    "unbalanced brace": {"path_template": "{doc_{page}.txt"},
    "positional field": {"path_template": "{0}.txt"},
    "page under document scope": {"scope": "document",
                                  "path_template": "{doc}_{page}.txt"},
    "unknown key": {"selector": {"title": "1"}},
    "absolute xml selector": {"format": "xml", "selectors": {"title": "/title"}},
    "unclosed xml predicate": {"format": "xml",
                               "selectors": {"title": ".//title["}},
    "bad line rule": {"selectors": {"title": "abc"}},
    "lone surrogate in tool": {"tool": "t\udcff"},
    "lone surrogate in template": {"path_template": "{doc}_{page}\ud800.txt"},
}


@pytest.mark.parametrize("name", MALFORMED_ADAPTERS)
def test_malformed_adapter_config_is_a_config_error(golden_dir: Path,
                                                    tmp_path: Path, name: str):
    """Each change to a good config (None: a JSON list instead) exits 2 from
    eval before a journal exists, and is a finding of validate."""
    payload = json.loads((golden_dir / "adapters" / "partial.json")
                         .read_text(encoding="utf-8"))
    changes = MALFORMED_ADAPTERS[name]
    adapter = tmp_path / "adapter.json"
    adapter.write_text(json.dumps([] if changes is None
                                  else {**payload, **changes}),
                       encoding="utf-8")
    journal = tmp_path / "j.jsonl"
    args = _eval_args(golden_dir, "partial", journal)
    args[args.index("--adapter-config") + 1] = str(adapter)
    proc = _run(*args)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.count("[ERROR]") == 1
    assert proc.stderr.startswith("[ERROR] configuration: ")
    assert not journal.exists()
    proc = _run("validate", "--adapter-config", str(adapter))
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    assert proc.stdout.count("[FINDING]") == 1


def test_adapter_config_that_is_not_utf8_is_a_config_error(golden_dir: Path,
                                                          tmp_path: Path):
    adapter = tmp_path / "adapter.json"
    adapter.write_bytes(b'{"tool": "t\xff", "format": "text"}')
    journal = tmp_path / "j.jsonl"
    args = _eval_args(golden_dir, "partial", journal)
    args[args.index("--adapter-config") + 1] = str(adapter)
    proc = _run(*args)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "not valid UTF-8" in proc.stderr
    assert not journal.exists()
    proc = _run("validate", "--adapter-config", str(adapter))
    assert proc.returncode == 3
    assert proc.stdout.count("[FINDING]") == 1


_ENTRY = {"doc": "1401.0001", "page": 0, "path": "p.txt", "labels": ["title"]}


@pytest.mark.parametrize("content", [
    b"\xff",
    b'{"format_version": 1}',
    b"[]",
    json.dumps({"format_version": 1, "entries": [_ENTRY]}).encode(),
    *[json.dumps({"format_version": 1, "vocabulary": ["title"],
                  "entries": [{**_ENTRY, **change}]}).encode()
      for change in ({"doc": ""}, {"page": -1}, {"page": "0"}, {"path": None},
                     {"labels": "title"})],
    json.dumps({"format_version": 1, "vocabulary": ["title"],
                "entries": [_ENTRY, ["1401.0001", 1]]}).encode(),
], ids=["not-utf8", "no-entries", "array", "no-vocabulary", "empty-doc",
        "negative-page", "string-page", "no-path", "string-labels", "array-entry"])
def test_eval_with_an_unreadable_index_is_a_config_error(golden_dir: Path,
                                                         tmp_path: Path,
                                                         content: bytes):
    index = tmp_path / "index.json"
    index.write_bytes(content)
    journal = tmp_path / "j.jsonl"
    args = _eval_args(golden_dir, "partial", journal)
    args[args.index("--gt-root"):args.index("--gt-root") + 2] = ["--index", str(index)]
    proc = _run(*args)
    assert proc.returncode == 2
    assert proc.stderr.startswith("[ERROR] configuration: ")
    assert proc.stderr.count("\n") == 1, proc.stderr
    assert not journal.exists()


def test_validate_tool_output(golden_dir: Path, tmp_path: Path):
    proc = _run("validate",
                "--tool-output", str(golden_dir / "out" / "partial"),
                "--adapter-config",
                str(golden_dir / "adapters" / "partial.json"))
    # the partial tool has files with fewer lines than the selectors expect
    assert proc.returncode == 3
    assert "selector miss" in proc.stdout

    # a file covering every mapped line rule validates clean
    covered = tmp_path / "out"
    covered.mkdir()
    (covered / "1401.0001_0.txt").write_text(
        "".join(f"line {n}\n" for n in range(1, 8)), encoding="utf-8")
    proc = _run("validate",
                "--tool-output", str(covered),
                "--adapter-config",
                str(golden_dir / "adapters" / "perfect.json"))
    assert proc.returncode == 0, proc.stdout
    assert "[INFO] clean" in proc.stdout


def test_validate_tool_output_needs_adapter(golden_dir: Path):
    proc = _run("validate",
                "--tool-output", str(golden_dir / "out" / "partial"))
    assert proc.returncode == 2


def test_validate_requires_exactly_one_target():
    proc = _run("validate")
    assert proc.returncode == 2


def test_corrupt_tool_output_is_named_once(golden_dir: Path, tmp_path: Path):
    out = tmp_path / "out"
    out.mkdir()
    corrupt = out / "1401.0001_0.json"
    corrupt.write_text('{"title": "De', encoding="utf-8")
    adapter = tmp_path / "json.json"
    adapter.write_text(json.dumps({
        "tool": "js", "format": "json", "selectors": {"title": "title"},
    }), encoding="utf-8")
    proc = _run("validate", "--tool-output", str(out),
                "--adapter-config", str(adapter))
    assert proc.returncode == 3
    [finding] = [line for line in proc.stdout.splitlines()
                 if line.startswith("[FINDING]")]
    assert finding.count(corrupt.name) == 1

    proc = _run("eval", "--gt-root", str(golden_dir / "gt"),
                "--tool-output", str(out), "--adapter-config", str(adapter),
                "--journal", str(tmp_path / "js.jsonl"), "--labels", "title")
    assert proc.returncode == 0, proc.stderr
    [warning] = [line for line in proc.stderr.splitlines()
                 if "unreadable tool output" in line]
    assert warning.count(corrupt.name) == 1
