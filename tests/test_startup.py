"""Start-up loads only what is used: numpy on first use, not on import, and
a docbench submodule only when a name or command needs it.

Each check runs in a fresh interpreter, since this test process has numpy
and every submodule loaded already. A blocked import
(sys.modules["numpy"] = None) makes any import of numpy raise, so a command
that succeeds there never needed it.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from pathlib import Path

from docbench import metrics
from docbench.metrics import MatchConfig, score_document

BLOCK_NUMPY = "import sys; sys.modules['numpy'] = None\n"

# the tree this process imported docbench from, for children in other cwds
SOURCE = str(Path(metrics.__file__).resolve().parents[1])


def _python(code: str, stdin: str = "", cwd: Path | None = None,
            argv: tuple[str, ...] = ()) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SOURCE, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code, *argv], input=stdin,
                          capture_output=True, text=True, cwd=cwd, env=env,
                          timeout=120)


def test_import_leaves_numpy_unloaded_until_a_unit_needs_it():
    proc = _python(
        "import sys\n"
        "import docbench\n"
        "from docbench import metrics\n"
        "loaded = ['numpy' in sys.modules]\n"
        "lanes = [f'g{j}' for j in range(14)]\n"
        "cut = metrics._SMALL_CELLS\n"
        "metrics._lane_hits([f'r{i}' for i in range(cut // 14 - 1)], lanes,\n"
        "                   metrics.DEFAULT_MATCH)\n"
        "loaded.append('numpy' in sys.modules)\n"
        "metrics._lane_hits([f'r{i}' for i in range(cut // 14)], lanes,\n"
        "                   metrics.DEFAULT_MATCH)\n"
        "loaded.append('numpy' in sys.modules)\n"
        "print(loaded)\n")
    assert metrics._SMALL_CELLS % 14 == 0
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[False, False, True]"


def test_long_text_masks_load_numpy():
    proc = _python(
        "import sys\n"
        "from docbench import metrics\n"
        "cut = metrics._MASKS_CUTOFF\n"
        "metrics._masks('ab' * (cut // 2 - 1) + 'c')\n"
        "loaded = ['numpy' in sys.modules]\n"
        "metrics._masks('ab' * (cut // 2))\n"
        "loaded.append('numpy' in sys.modules)\n"
        "print(loaded)\n")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[False, True]"


def _small_units(seed: int, count: int) -> list[tuple[list[str], list[str]]]:
    """Units whose kernel stays below metrics._SMALL_CELLS and whose
    collated ground truth stays below metrics._MASKS_CUTOFF."""
    rng = random.Random(seed)
    vocabulary = ["".join(rng.choice("abcdeAEé\U0001d400")
                          for _ in range(rng.randint(1, 9))) for _ in range(30)]
    units = []
    for _ in range(count):
        gt = [rng.choice(vocabulary) for _ in range(rng.randint(0, 6))]
        ex = [rng.choice(vocabulary + gt) for _ in range(rng.randint(0, 5))]
        units.append((ex, gt))
    return units


def test_small_units_score_without_numpy():
    units = _small_units(1616, 300)
    for ex, gt in units:  # rows (distinct ex, lone gt) x lanes; masks' text
        assert (len(set(ex)) + len(set(gt))) * len(gt) < metrics._SMALL_CELLS
        assert len(" ".join(gt)) < metrics._MASKS_CUTOFF
    configs = [MatchConfig(), MatchConfig(substitution_cost=1),
               MatchConfig(threshold=0.5, case_sensitive=False, normalize_nfc=True)]
    proc = _python(
        BLOCK_NUMPY
        + "import json\n"
          "from docbench.metrics import MatchConfig, score_document\n"
          "units, configs = json.load(sys.stdin)\n"
          "configs = [MatchConfig(**c) for c in configs]\n"
          "print(repr([tuple(score_document(ex, gt, c)) for c in configs\n"
          "            for ex, gt in units]))\n",
        stdin=json.dumps([units, [c.__dict__ for c in configs]]))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == repr([tuple(score_document(ex, gt, c))
                                        for c in configs for ex, gt in units])


def _cli(cwd: Path, block: bool, *argv: str) -> subprocess.CompletedProcess:
    cwd.mkdir(exist_ok=True)
    return _python((BLOCK_NUMPY if block else "import sys\n")
                   + "from docbench.cli import main\nsys.exit(main())\n",
                   cwd=cwd, argv=argv)


def test_index_validate_report_and_chart_run_without_numpy(golden_dir: Path,
                                                           tmp_path: Path):
    expected = golden_dir / "expected"
    journals = [arg for tool in ("null", "partial", "perfect")
                for arg in ("--journal", str(expected / f"{tool}.jsonl"))]
    commands = [
        ("index", "--gt-root", str(golden_dir / "gt"), "--out", "index.json"),
        ("validate", "--gt-root", str(golden_dir / "gt")),
        ("validate", "--tool-output", str(golden_dir / "out" / "partial"),
         "--adapter-config", str(golden_dir / "adapters" / "partial.json")),
        ("report", *journals),
        ("report", *journals, "--format", "json", "--variant", "detected",
         "--out", "report.json"),
        ("chart", *journals, "--metric", "f1", "--out", "f1.svg"),
        ("chart", *journals, "--metric", "cumulative_f1", "--out", "cf1.svg"),
    ]
    for at, argv in enumerate(commands):
        runs = []
        for side in ("blocked", "normal"):
            cwd = tmp_path / f"{side}{at}"
            proc = _cli(cwd, side == "blocked", *argv)
            runs.append((proc.returncode, proc.stdout, proc.stderr,
                         sorted((p.name, p.read_bytes()) for p in cwd.iterdir())))
        assert runs[0][0] in (0, 3) and "Traceback" not in runs[0][2], runs[0][2]
        assert runs[0] == runs[1], argv[0]
    for tool in ("null", "partial"):
        cwd = tmp_path / tool
        assert _cli(cwd, True, "report", "--journal", str(expected / f"{tool}.jsonl"),
                    "--out", "report.csv").returncode == 0
        assert (cwd / "report.csv").read_bytes() == \
            (expected / f"{tool}_report.csv").read_bytes()


# What `import docbench` has exported: each name by the submodule defining it.
EXPORTED = {
    "corpus": ["DEFAULT_KEY_PATTERN", "DEFAULT_LABELS", "CorpusIndex",
               "GroundTruthPage", "PageKey", "index_corpus", "load_index",
               "parse_gt_page", "parse_gt_record", "parse_page_key",
               "sample_by_month", "save_index"],
    "interchange": ["AdapterConfig", "ExtractionRecord", "load_adapter_config",
                    "read_records", "tokenize"],
    "metrics": ["DocumentScores", "MatchConfig", "SimilarityMatrix", "accuracy",
                "collate", "edit_distance", "f1", "lev_ratio", "precision",
                "recall", "score_document", "similarity_matrix"],
    "pipeline": ["EvaluationUnit", "RunConfig", "UnitResult", "config_hash",
                 "evaluate_run", "read_journal", "resolve_output", "score_unit",
                 "zero_score_labels"],
    "report": ["TASKS", "AggregateRow", "TaskSummary", "aggregate",
               "all_task_summaries", "cumulative_f1", "emit_bar_chart",
               "emit_report", "round_half_even"],
}

# prints the docbench submodules loaded, on one line
LOADED = "print(*sorted(m for m in sys.modules if m.startswith('docbench.')))"


def _loaded_after(code: str) -> list[str]:
    proc = _python(f"import sys\n{code}\n{LOADED}\n")
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_import_loads_no_submodule():
    assert _loaded_after("import docbench") == []


def test_one_submodule_loads_only_its_imports():
    assert _loaded_after("import docbench\nfrom docbench import corpus") == \
        ["docbench.corpus", "docbench.errors"]
    assert _loaded_after("import docbench\ndocbench.DEFAULT_LABELS") == \
        ["docbench.corpus", "docbench.errors"]


def test_every_exported_name_resolves_to_its_module():
    proc = _python(
        "import importlib, json, sys\n"
        "import docbench\n"
        "exported = json.load(sys.stdin)\n"
        "star = {}\n"
        "exec('from docbench import *', star)\n"
        "for module, names in exported.items():\n"
        "    source = importlib.import_module('docbench.' + module)\n"
        "    assert star[module] is source is getattr(docbench, module), module\n"
        "    for name in names:\n"
        "        assert star[name] is getattr(source, name), name\n"
        "        assert getattr(docbench, name) is getattr(source, name), name\n"
        "        assert name in dir(docbench), name\n"
        "print('ok')\n",
        stdin=json.dumps(EXPORTED))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"


def test_unknown_name_raises_attribute_error():
    proc = _python(
        "import docbench\n"
        "try:\n"
        "    docbench.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(exc)\n"
        "try:\n"
        "    from docbench import no_such_name\n"
        "except ImportError:\n"
        "    print('ImportError')\n")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ("module 'docbench' has no attribute 'no_such_name'\n"
                           "ImportError\n")


def test_index_and_ground_truth_validation_load_corpus_alone(golden_dir: Path,
                                                             tmp_path: Path):
    gt = str(golden_dir / "gt")
    for argv in (("index", "--gt-root", gt, "--out", "index.json"),
                 ("validate", "--gt-root", gt)):
        proc = _python("import sys\nfrom docbench.cli import main\n"
                       f"code = main()\n{LOADED}\nsys.exit(code)\n",
                       cwd=tmp_path, argv=argv)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1].split() == \
            ["docbench.cli", "docbench.corpus", "docbench.errors"], argv
