"""One benchmark phase, run in a fresh interpreter.

    python3 worker.py {setup|eval|trace} SPEC.json

SPEC.json names the generated inputs and where to write the result. The
orchestrator (run.py) starts this script with docbench's source tree on
PYTHONPATH, so import time and peak RSS belong to the phase alone.

- setup: import docbench, index the ground truth and save the index.
- eval: untraced passes over the corpus with parallelism 1 and 2, resumes
  over the finished journal, and reports, in rounds until the run's seconds
  are spent, with probes of the machine's speed between them (Prober).
- trace: the same calls with spans around docbench's functions, for the
  per-layer metrics and the tracing overhead.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import sys
import time
from pathlib import Path
from statistics import median
from time import perf_counter

# An untraced run repeats rounds of one fresh pass at parallelism 1, one at
# parallelism 2, then resumes and reports until each has taken its share of
# the round, until --seconds are spent; at least MIN_ROUNDS rounds.
MIN_ROUNDS = 6
RESUME_SHARE = 0.125
REPORT_SHARE = 0.125
# Candidate tail percentiles, highest first; the tail is the first one with
# at least TAIL_BEYOND samples above it. p99.9 is left out: on a shared VM it
# measured the host's scheduling jitter (0.32-0.74 ms across seeds on
# pages_sparse), not docbench.
TAIL_LADDER = (99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10
EVAL_SPAN = "pipeline.evaluate_run"


# The machine this runs on is shared. Its speed switches between a fast and
# a slow state (about 2x apart) every ~20 ms, and the share of time spent in
# the slow state drifts over minutes. Every phase therefore also times this
# fixed pure-Python loop (edit-distance tables over two fixed strings) and
# run.py expresses times in tables of it. The loop lives here, not in
# docbench, so no change to docbench can move it.
_REF_A = "the quick brown fox jumps over the lazy dog while 12 cats nap"
_REF_B = "a quick brown dog jumped over a lazy fox as twelve cats slept"
# Long passes (parallelism 2, set-up) are scaled by the run's median of
# reference(): seconds per REF_TABLES tables over a batch of at least
# REF_BATCH_S, long enough to span both states, so the median moves smoothly
# with the slow share instead of jumping from one state to the other.
REF_TABLES = 6
REF_BATCH_S = 0.05
# Segments between yields of a parallelism=1 pass, resumes and reports are
# scaled by the probes run next to them; see Prober.
PROBE_EVERY_S = 0.02
PROBE_SHARE = 0.1


def probe() -> float:
    """Seconds taken by one edit-distance table over the fixed strings."""
    start = perf_counter()
    prev = list(range(len(_REF_B) + 1))
    for i in range(1, len(_REF_A) + 1):
        cur = [i] + [0] * len(_REF_B)
        ca = _REF_A[i - 1]
        for j in range(1, len(_REF_B) + 1):
            best = prev[j - 1] + (0 if ca == _REF_B[j - 1] else 2)
            best = min(best, prev[j] + 1, cur[j - 1] + 1)
            cur[j] = best
        prev = cur
    return perf_counter() - start


def reference() -> float:
    """Seconds per REF_TABLES tables, over a batch of at least REF_BATCH_S."""
    spent, tables = 0.0, 0
    while spent < REF_BATCH_S:
        spent += probe()
        tables += 1
    return spent / tables * REF_TABLES


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _percentile(ordered: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(count: int) -> float:
    for q in TAIL_LADDER:
        if count - math.ceil(q / 100.0 * count) >= TAIL_BEYOND:
            return q
    return 50.0


def _line(result) -> str:
    """gate.result_line of a UnitResult. Not imported from gate: set-up times
    docbench's imports, and gate's would warm some of them."""
    s = result.scores
    return "%s\t%d\t%s\t%s\t%.6f\t%.6f\t%.6f\t%.6f\t%d\t%d" % (
        result.key.document_id, result.key.page_index, result.label,
        result.status, s.precision, s.recall, s.f1, s.accuracy, s.m, s.n)


def machine() -> dict:
    """Interpreter, numpy and kernel path: every metrics.* number depends on
    whether the compiled (numba) kernels or the interpreted fallback ran."""
    import numpy  # not at module level: setup times its own imports
    try:
        fastpath = importlib.import_module("docbench._fastpath")
        have_numba = bool(getattr(fastpath, "HAVE_NUMBA", False))
    except ImportError:
        have_numba = None
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "have_numba": have_numba,
            "platform": platform.platform()}


def setup(spec: dict) -> dict:
    start = perf_counter()
    import docbench  # noqa: F401  (import time is part of set-up)
    from docbench import corpus
    index = corpus.index_corpus(spec["gt_root"])
    corpus.save_index(index, spec["index_path"])
    setup_s = perf_counter() - start
    return {"setup_s": setup_s, "pages": len(index),
            "ref_s": median(reference() for _ in range(3))}


class Session:
    """The loaded index and run configs shared by every pass of a phase."""

    def __init__(self, spec: dict):
        import docbench
        from docbench import corpus, interchange, pipeline, report
        self.docbench_file = docbench.__file__
        self.corpus, self.pipeline, self.report = corpus, pipeline, report
        self.work = Path(spec["work"])
        self.index = corpus.load_index(spec["index_path"])
        adapter = interchange.load_adapter_config(spec["adapter_path"])
        self.configs = {
            p: pipeline.RunConfig(output_root=Path(spec["output_root"]),
                                  adapter=adapter, labels=tuple(spec["labels"]),
                                  parallelism=p)
            for p in (1, 2)}
        self.j1 = self.work / "journal_p1.jsonl"
        self.j2 = self.work / "journal_p2.jsonl"
        self.reports: set[tuple[str, str]] = set()

    def fresh(self, parallelism: int, journal: Path, tracer=None,
              prober: "Prober | None" = None):
        """One evaluate_run over a new journal: (wall s, gaps).

        gaps[i] is the time from the previous yield (or the start) to yield
        i. With a prober, probes run between yields and the wall leaves
        their time out. Results are dropped as they arrive, as a streaming
        consumer would, so peak RSS is docbench's own; the journal is what
        the gate checks.
        """
        journal.unlink(missing_ok=True)
        gaps: list[float] = []
        with tracer.span(EVAL_SPAN) if tracer else contextlib.nullcontext():
            start = last = perf_counter()
            for _ in self.pipeline.evaluate_run(self.configs[parallelism],
                                                self.index, journal):
                now = perf_counter()
                gaps.append(now - last)
                last = now
                if prober and prober.after(gaps):
                    last = perf_counter()
            end = perf_counter()
        return sum(gaps) + (end - last), gaps

    def resume(self):
        start = perf_counter()
        results = list(self.pipeline.evaluate_run(self.configs[1], self.index,
                                                  self.j1))
        return perf_counter() - start, [_line(r) for r in results]

    def write_resume_lines(self, lines: list[str]) -> None:
        (self.work / "resume_lines.txt").write_text(
            "".join(line + "\n" for line in lines), encoding="utf-8")

    def report_pass(self) -> float:
        """read_journal, aggregate, then the csv report and the f1 chart
        rendered to text. The text is not written to a file: a write of a
        few kilobytes took most of a small report's time and its latency
        drifted by half over minutes on the shared VM, for reasons outside
        docbench."""
        start = perf_counter()
        header, results = self.pipeline.read_journal(self.j1)
        rows = self.report.aggregate(results, tool=header["tool"])
        csv = self.report.emit_report(rows, fmt="csv")
        svg = self.report.emit_bar_chart(rows, "f1")
        wall = perf_counter() - start
        self.reports.add((csv, svg))
        return wall


class Prober:
    """Probes run between timed segments, and each segment measured in
    probe tables.

    The machine's state flips every ~20 ms, so a segment of a few
    milliseconds runs in one state, and a probe right next to it most likely
    ran in the same one: the segment's time over the probe's time does not
    depend on the state. After a segment, when at least PROBE_EVERY_S have
    passed since the last probes, probes run for PROBE_SHARE of that time
    (at least one table). A segment is scaled by the mean time of the tables
    next to it, on either side, that ran within its own duration of it (at
    least one on each side that has any): one table for a short segment, a
    sample spanning both states for a long one.
    """

    def __init__(self):
        # (segments before the probes, their table times in order)
        self.marks: list[tuple[int, list[float]]] = []
        self.last = perf_counter()

    def after(self, segments: list, force: bool = False) -> bool:
        """Probe if it is time to, or if forced; True when probes ran."""
        since = perf_counter() - self.last
        if since < PROBE_EVERY_S and not force:
            return False
        times: list[float] = []
        while not times or sum(times) < PROBE_SHARE * since:
            times.append(probe())
        self.marks.append((len(segments), times))
        self.last = perf_counter()
        return True

    def tables(self, segments: list[float], first: int = 0) -> list[float]:
        """segments[first:], each in tables of the probes next to it."""
        if not self.marks or self.marks[-1][0] < len(segments):
            self.after(segments, force=True)
        out, k = [], 0
        for i in range(first, len(segments)):
            # marks[k] is the first probe after segment i.
            while self.marks[k][0] <= i:
                k += 1
            near = _within(self.marks[k][1], segments[i])
            if k:
                near += _within(self.marks[k - 1][1][::-1], segments[i])
            out.append(segments[i] * len(near) / sum(near))
        return out


def _within(times: list[float], span: float) -> list[float]:
    """The leading times that together first reach span (at least one)."""
    taken, spent = [], 0.0
    for t in times:
        taken.append(t)
        spent += t
        if spent >= span:
            break
    return taken


def _fill(walls: list, tables: list, fn, target: float) -> None:
    """Call fn until its calls add up to target seconds (at least once),
    with probes between them; append each call's seconds to walls and its
    tables to tables."""
    calls: list[float] = []
    prober = Prober()
    spent = 0.0
    while not calls or spent < target:
        calls.append(fn())
        spent += calls[-1]
        prober.after(calls)
    walls.extend(calls)
    tables.extend(prober.tables(calls))


def run_eval(spec: dict) -> dict:
    s = Session(spec)
    walls: dict[str, list[float]] = {"p1": [], "p2": [], "resume": [], "report": []}
    tables: dict[str, list[float]] = {"resume": [], "report": []}
    p1_digests: list[str] = []
    p2_digests: list[str] = []
    pass_gaps: list[list[float]] = []
    pass_tables: list[list[float]] = []
    p1_tables: list[float] = []
    resume_outputs: list[list[str]] = []
    refs: list[float] = []

    def p1_pass():
        refs.append(reference())
        prober = Prober()
        wall, gaps = s.fresh(1, s.j1, prober=prober)
        walls["p1"].append(wall)
        p1_digests.append(_digest(s.j1))
        # The first yield of a pass also carries planning and is left out of
        # the unit latencies; the pass in tables also counts what runs after
        # the last yield.
        pass_gaps.append(gaps[1:])
        segment_tables = prober.tables(gaps + [wall - sum(gaps)])
        pass_tables.append(segment_tables[1:-1])
        p1_tables.append(sum(segment_tables))

    def resume_pass():
        wall, lines = s.resume()
        if lines not in resume_outputs:
            resume_outputs.append(lines)
        return wall

    # Peak RSS of import, index load and one parallelism=1 pass, before any
    # parallelism=2 pass can raise it.
    p1_pass()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # Rounds interleave the phases, so a slow spell of a shared machine hits
    # every metric's samples alike instead of one phase's.
    start = perf_counter()
    rounds = 0
    while True:
        round_start = perf_counter()
        if rounds:
            p1_pass()
        refs.append(reference())
        wall = s.fresh(2, s.j2)[0]
        walls["p2"].append(wall)
        p2_digests.append(_digest(s.j2))
        scored = walls["p1"][-1] + wall
        refs.append(reference())
        _fill(walls["resume"], tables["resume"], resume_pass,
              scored * RESUME_SHARE)
        refs.append(reference())
        _fill(walls["report"], tables["report"], s.report_pass,
              scored * REPORT_SHARE)
        rounds += 1
        elapsed = perf_counter() - start
        if rounds >= MIN_ROUNDS and \
                elapsed + (perf_counter() - round_start) > spec["seconds"]:
            break
    s.write_resume_lines(resume_outputs[0])

    raw = sorted(gap for gaps in pass_gaps for gap in gaps)
    unit_tables = sorted(t for pass_ in pass_tables for t in pass_)
    # The percentile follows from the fewest samples a run can have, so it
    # stays the same when a faster commit fits more rounds into the run.
    tail_q = tail_percentile(MIN_ROUNDS * len(pass_gaps[0]))
    return {
        "machine": machine(), "docbench": s.docbench_file,
        "pages": len(s.index), "rounds": rounds,
        "p1_walls": walls["p1"], "p2_walls": walls["p2"], "p1_tables": p1_tables,
        "resume_walls": walls["resume"], "report_walls": walls["report"],
        "resume_tables": tables["resume"], "report_tables": tables["report"],
        "unit_p50_tables": _percentile(unit_tables, 50.0),
        "unit_tail_tables": _percentile(unit_tables, tail_q),
        "unit_p50_ms": _percentile(raw, 50.0) * 1e3,
        "unit_tail_ms": _percentile(raw, tail_q) * 1e3,
        "unit_tail_pct": tail_q, "unit_samples": len(raw),
        "peak_rss_mb": peak_rss_mb, "ref_s": median(refs),
        "checks": {
            "every parallelism=1 pass wrote the same journal":
                len(set(p1_digests)) == 1,
            "every parallelism=2 pass wrote the same journal":
                len(set(p2_digests)) == 1,
            "resume left the journal unchanged":
                _digest(s.j1) == p1_digests[-1],
            "every resume yielded the same results": len(resume_outputs) == 1,
            "every report rendered the same csv and chart":
                len(s.reports) == 1,
        },
    }


def run_trace(spec: dict) -> dict:
    from tracing import Tracer
    s = Session(spec)
    budget = 0.8 * spec["seconds"]
    untraced: list[float] = []
    traced: list[float] = []
    refs: list[float] = []
    start = perf_counter()
    # Alternate untraced and traced passes so drift in machine speed hits
    # both sides of the overhead ratio alike.
    while len(traced) < MIN_ROUNDS or \
            perf_counter() - start + untraced[-1] + traced[-1] < budget:
        refs.append(reference())
        untraced.append(s.fresh(1, s.j1)[0])
        refs.append(reference())
        tracer = Tracer()
        tracer.install()
        try:
            traced.append(s.fresh(1, s.j1, tracer)[0])
        finally:
            tracer.uninstall()
    eval_wall = tracer.totals()[0][EVAL_SPAN]

    # The last tracer goes on to record one resume, one report and one index.
    tracer.install()
    try:
        with tracer.span(EVAL_SPAN):
            _, resume_lines = s.resume()
        s.report_pass()
        index = s.corpus.index_corpus(spec["gt_root"])
        s.corpus.save_index(index, s.work / "index_traced.json")
    finally:
        tracer.uninstall()

    s.write_resume_lines(resume_lines)

    wall_start, cpu_start = perf_counter(), time.process_time()
    s.fresh(2, s.j2)
    cpu_per_wall = (time.process_time() - cpu_start) / (perf_counter() - wall_start)

    totals, own = tracer.totals()
    trace_path = Path(spec["trace_path"])
    tracer.write(trace_path)
    return {
        "machine": machine(), "docbench": s.docbench_file,
        "pages": len(s.index), "scope": s.configs[1].adapter.scope,
        "wrapped": tracer.wrapped, "missing": tracer.missing,
        "spans": len(tracer.spans), "trace_path": str(trace_path),
        "untraced_walls": untraced, "traced_walls": traced,
        "eval_wall": eval_wall, "totals": totals, "self": own,
        "counts": dict(tracer.counts),
        "j2_cpu_per_wall": cpu_per_wall, "ref_s": median(refs),
    }


def main(argv: list[str]) -> int:
    mode, spec_path = argv
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    result = {"setup": setup, "eval": run_eval, "trace": run_trace}[mode](spec)
    Path(spec["result_path"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
