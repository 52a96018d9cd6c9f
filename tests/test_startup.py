"""numpy is loaded on first use, not on import.

Each check runs in a fresh interpreter, since this test process has numpy
loaded already. A blocked import (sys.modules["numpy"] = None) makes any
import of numpy raise, so a command that succeeds there never needed it.
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
