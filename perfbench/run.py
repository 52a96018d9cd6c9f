"""docbench benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload page_dense --seed 1 --seconds 30 --trace 0

Run from the root of a docbench source tree. The run generates a seeded
synthetic corpus, runs docbench's public API over it in fresh interpreters
(see worker.py), checks the outputs with the correctness gate (gate.py) and
prints its metrics. Comment lines starting with '#' describe the machine and
the run; the last line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 they are
the per-layer ones from a traced run, whose spans are also written under
.perfbench/traces/. The exit code is 0 when the gate passes, 1 when it
fails, 2 when docbench's sources are not there.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import corpora  # noqa: E402
import gate  # noqa: E402
from worker import REF_TABLES  # noqa: E402

# Fresh interpreters timed for setup_s; the median is reported.
SETUP_REPEATS = 6
CHILD_TIMEOUT_S = 150
# Every reported time is scaled to a machine on which worker.reference()
# (REF_TABLES tables of worker.probe()) takes this long: a time measured in
# tables, next to it or over the run (see worker.py), times
# REF_NOMINAL_S / REF_TABLES. Raw times are printed on a '#' line.
REF_NOMINAL_S = 0.008


# personality(2) flag: map the child's stack, heap and libraries at the same
# addresses in every run.
ADDR_NO_RANDOMIZE = 0x0040000


def _fixed_layout() -> None:
    """Turn off address-space randomisation for the child about to be
    exec'd. Where the layout is random, small phases (a report pass is under
    a millisecond) run at a speed that differs from one interpreter to the
    next. The flag belongs to the child process only; where the call is not
    allowed the child runs with a random layout."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        persona = libc.personality(0xFFFFFFFF)
        if persona != -1:
            libc.personality(persona | ADDR_NO_RANDOMIZE)
    except (OSError, AttributeError):
        pass


def run_child(mode: str, spec: dict, work: Path) -> dict:
    """Run worker.py in a fresh interpreter and return what it wrote."""
    spec = dict(spec, result_path=str(work / f"{mode}_result.json"))
    spec_path = work / f"{mode}_spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    log_path = work / f"{mode}.log"
    with open(log_path, "wb") as log:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), mode,
                               str(spec_path)], env=env, stdout=log,
                              stderr=subprocess.STDOUT, timeout=CHILD_TIMEOUT_S,
                              preexec_fn=_fixed_layout)
    if proc.returncode != 0:
        tail = log_path.read_text(encoding="utf-8", errors="replace")[-4000:]
        raise RuntimeError(f"worker {mode} exited {proc.returncode}:\n{tail}")
    return json.loads(Path(spec["result_path"]).read_text(encoding="utf-8"))


def end_to_end(setups: list[dict], res: dict, normalize: bool = True) -> dict:
    """Metrics with times scaled to the nominal machine, or raw. Set-up and
    parallelism=2 passes are scaled by the median reference() of their
    interpreter; parallelism=1 passes, unit gaps, resumes and reports by the
    probes next to them (worker.Prober), whose tables count
    REF_NOMINAL_S / REF_TABLES each."""
    def scale(ref_s: float) -> float:
        return REF_NOMINAL_S / ref_s if normalize else 1.0

    table_s = REF_NOMINAL_S / REF_TABLES

    def probed(name: str) -> float:
        if normalize:
            return median(res[name + "_tables"]) * table_s
        return median(res[name + "_walls"])

    def unit_ms(which: str) -> float:
        if normalize:
            return res[f"unit_{which}_tables"] * table_s * 1e3
        return res[f"unit_{which}_ms"]

    pages = res["pages"]
    return {
        "setup_s": (median(c["setup_s"] * scale(c["ref_s"]) for c in setups), "s"),
        "eval_pages_per_s": (pages / probed("p1"), "pages/s"),
        "eval_pages_per_s_j2":
            (pages / (median(res["p2_walls"]) * scale(res["ref_s"])), "pages/s"),
        "unit_p50_ms": (unit_ms("p50"), "ms"),
        "unit_tail_ms": (unit_ms("tail"), "ms"),
        "resume_s": (probed("resume"), "s"),
        "report_s": (probed("report"), "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }


def per_layer(res: dict, scale: float) -> dict:
    """Per-layer metrics over one traced fresh evaluation (parallelism=1),
    one resume over its journal, one report and one index."""
    total, own, count = res["totals"], res["self"], res["counts"]

    def ms(name):
        return total.get(name, 0.0) * 1e3 * scale, "ms"

    def self_ms(name):
        return own.get(name, 0.0) * 1e3 * scale, "ms"

    def calls(name):
        return count.get(name + ".calls", 0), "count"

    def ratio(a, b, unit="ratio"):
        return (a / b if b else 0.0), unit

    matrix_cells = count.get("metrics.matrix.cells", 0)
    accuracy_cells = count.get("metrics.accuracy.cells", 0)
    document_units = (count.get("pipeline.resolve.calls", 0)
                      if res["scope"] == "document" else 0)
    parses = count.get("interchange.adapter_parse.calls", 0)
    untraced = median(res["untraced_walls"])
    traced = median(res["traced_walls"])
    eval_wall = res["eval_wall"]
    return {
        "corpus.index_ms": ms("corpus.index"),
        "corpus.parse_gt_ms": ms("corpus.parse_gt"),
        "corpus.parse_gt_calls": calls("corpus.parse_gt"),
        "pipeline.plan_self_ms": self_ms("pipeline.plan"),
        "pipeline.resolve_self_ms": self_ms("pipeline.resolve"),
        "pipeline.eval_self_ms": self_ms("pipeline.evaluate_run"),
        "pipeline.read_journal_ms": ms("pipeline.read_journal"),
        "pipeline.doc_cache_hit_ratio":
            ((1.0 - parses / document_units) if document_units else 0.0, "ratio"),
        "pipeline.j2_cpu_per_wall": (res["j2_cpu_per_wall"], "ratio"),
        "interchange.adapter_parse_ms": ms("interchange.adapter_parse"),
        "interchange.adapter_parse_calls": calls("interchange.adapter_parse"),
        "interchange.restrict_ms": ms("interchange.restrict"),
        "interchange.restrict_windows": calls("interchange.window"),
        "interchange.restrict_cells":
            (count.get("interchange.window.cells", 0), "count"),
        "interchange.restrict_kept_ratio":
            ratio(count.get("interchange.restrict.kept", 0),
                  count.get("interchange.restrict.offered", 0)),
        "interchange.restrict_eval_share":
            ratio(total.get("interchange.restrict", 0.0), eval_wall),
        "metrics.matrix_ms": ms("metrics.matrix"),
        "metrics.matrix_calls": calls("metrics.matrix"),
        "metrics.matrix_cells": (matrix_cells, "count"),
        "metrics.matrix_ns_per_cell":
            ratio(total.get("metrics.matrix", 0.0) * 1e9 * scale, matrix_cells,
                  "ns"),
        "metrics.accuracy_ms": ms("metrics.accuracy"),
        "metrics.accuracy_cells": (accuracy_cells, "count"),
        "metrics.accuracy_ns_per_cell":
            ratio(total.get("metrics.accuracy", 0.0) * 1e9 * scale,
                  accuracy_cells, "ns"),
        "metrics.score_self_ms": self_ms("metrics.score"),
        "metrics.eval_share": ratio(total.get("metrics.score", 0.0), eval_wall),
        "report.aggregate_ms": ms("report.aggregate"),
        "report.emit_report_ms": ms("report.emit_report"),
        "report.chart_ms": ms("report.chart"),
        "trace.overhead_pct": ((traced / untraced - 1.0) * 100.0, "%"),
    }


def _comment(label: str, value) -> None:
    text = value if isinstance(value, str) else json.dumps(value, sort_keys=True)
    print(f"# {label}: {text}")


def measure(args: argparse.Namespace, work: Path) -> int:
    oracles = gate.load_oracles(ROOT / "tests" / "oracles.py")
    manifest = corpora.generate(args.workload, work / "corpus", args.seed)
    spec = {"gt_root": str(manifest.gt_root),
            "output_root": str(manifest.output_root),
            "adapter_path": str(manifest.adapter_path),
            "labels": list(manifest.labels),
            "index_path": str(work / "index.json"),
            "work": str(work), "seconds": args.seconds,
            "trace_path": str(ROOT / ".perfbench" / "traces" /
                              f"{args.workload}-{args.seed}.jsonl")}
    # Half the set-up runs go before the measured phase and half after, so
    # the median does not rest on one spell of the machine's speed.
    repeats = 1 if args.trace else SETUP_REPEATS // 2
    setups = [run_child("setup", spec, work) for _ in range(repeats)]
    res = run_child("trace" if args.trace else "eval", spec, work)
    if not args.trace:
        setups += [run_child("setup", spec, work)
                   for _ in range(SETUP_REPEATS - repeats)]
    scale = REF_NOMINAL_S / res["ref_s"]

    checks = dict(res.get("checks", {}))
    src = (ROOT / "src").resolve()
    checks["docbench was imported from this tree's src/"] = \
        Path(res["docbench"]).resolve().is_relative_to(src)
    verdict = gate.check(manifest, work / "journal_p1.jsonl",
                         work / "journal_p2.jsonl", work / "resume_lines.txt",
                         checks, oracles, args.seed)

    _comment("workload", f"{args.workload} seed={args.seed} "
             f"pages={res['pages']} trace={args.trace}")
    _comment("machine", res["machine"])
    _comment("speed", f"reference loop median {res['ref_s'] * 1e3:.2f} ms, "
             f"nominal {REF_NOMINAL_S * 1e3:g} ms; times scaled by {scale:.4f}")
    if args.trace:
        metrics = per_layer(res, scale)
        _comment("wrapped", " ".join(res["wrapped"]))
        if res["missing"]:
            _comment("not found, not wrapped", " ".join(res["missing"]))
        _comment("spans", f"{res['spans']} written to {res['trace_path']}")
    else:
        metrics = end_to_end(setups, res)
        _comment("raw", {name: value for name, (value, _) in
                         end_to_end(setups, res, normalize=False).items()})
        _comment("unit latency", f"{res['unit_samples']} samples; tail is "
                 f"p{res['unit_tail_pct']:g}")
        _comment("passes", {"rounds": res["rounds"], "p1": len(res["p1_walls"]),
                            "p2": len(res["p2_walls"]),
                            "resume": len(res["resume_walls"]),
                            "report": len(res["report_walls"]),
                            "setup": len(setups)})
    _comment("gate", f"{verdict.sampled} sampled units recomputed with "
             f"tests/oracles.py; unit_fail_ratio="
             f"{verdict.failed / verdict.attempted:g}")
    for problem in verdict.problems:
        _comment("FAILED", problem)
    print(json.dumps({
        "correct": verdict.correct,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if verdict.correct else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(corpora.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    missing = [path for path in (ROOT / "src" / "docbench" / "__init__.py",
                                 ROOT / "tests" / "oracles.py")
               if not path.is_file()]
    if missing:
        print("perfbench: run from a docbench source tree; not found: " +
              ", ".join(str(path) for path in missing), file=sys.stderr)
        return 2
    work = ROOT / ".perfbench" / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        return measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
