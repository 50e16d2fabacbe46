"""Offline replay benchmark for tablex.

    python3 perfbench/run.py --workload small-replay --seed 1 --seconds 35 --trace 0

Set-up builds a seeded corpus (``corpus.py``) and records its transcript
cache through ``RecordingBackend`` with the corrupting generator
(``generator.py``) as the live backend. The timed part runs the real
``tablex bench --replay --report --outputs`` CLI in-process over that
cache, repeatedly, and checks every task's outcome against the plan and
the report's byte-identity across repeats (and, in the traced run, across
``--parallel 1`` and ``2``).

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run plus the layer sweep. The last stdout
line is one JSON object: correct, attempted, failed, metrics. The exit
code is 0 only when every check held.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import importlib
import io
import json
import math
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import corpus  # noqa: E402
from generator import CorruptingGenerator  # noqa: E402
from spans import Tracer, install_layer_wrappers, install_record_wrappers  # noqa: E402

MIN_SETUPS = 3
SETUP_SHARE = 0.5  # before each pass, set-ups repeat until they fill this share of the run so far
MIN_PASSES = 3
TRACED_PASSES = 2
P2_PASSES = 2
UNCOVERED_SHARE = 0.05  # at most this share of the traced wall may lie outside every layer span
NEGATIVE_SELF_S = 1e-6  # a span whose children outlast it by more than this is mis-parented

END_TO_END = {
    "tasks_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "bench.ingest_s": "s",
    "bench.outputs_s": "s",
    "bench.p2_speedup": "ratio",
    "pipeline.self_s": "s",
    "pipeline.iterations": "count",
    "pipeline.converged_ratio": "ratio",
    "pipeline.task_p50_s": "s",
    "pipeline.task_p90_s": "s",
    "gateway.calls": "count",
    "gateway.complete_s": "s",
    "gateway.render_s": "s",
    "gateway.record_s": "s",
    "gateway.misses": "count",
    "model.parse_calls": "count",
    "model.parse_s": "s",
    "model.parse_retry_useful_ratio": "ratio",
    "checker.calls": "count",
    "checker.cells": "count",
    "checker.check_s": "s",
    "checker.hallucination_s": "s",
    "checker.coverage_s": "s",
    "checker.rules_s": "s",
    "metrics.evaluate_s": "s",
    "metrics.source_scores_s": "s",
    "metrics.ted_calls": "count",
    "metrics.ted_s": "s",
    "metrics.ted_node_pairs": "count",
    "trace.overhead_ratio": "ratio",
    "trace.uncovered_ratio": "ratio",
}
SWEEP_ROWS = (10, 100, 1000, 5000)
SWEEP_TED_ROWS = (30, 60, 120)
for _rows in SWEEP_ROWS:
    for _name in ("check_s", "hallucination_s", "parse_s"):
        PER_LAYER[f"sweep.{_name}.r{_rows}"] = "s"
for _rows in SWEEP_TED_ROWS:
    PER_LAYER[f"sweep.ted_s.r{_rows}"] = "s"


class BenchmarkError(Exception):
    """The program's output disagrees with the plan."""


def load_tablex():
    src = ROOT / "src"
    if not (src / "tablex" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no tablex sources under {src}")
    sys.path.insert(0, str(src))
    import tablex

    for name in ("bench", "checker", "cli", "errors", "gateway", "metrics", "model", "pipeline"):
        importlib.import_module(f"tablex.{name}")
    return tablex


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# Set-up: corpus generation and cache recording
# ---------------------------------------------------------------------------


@dataclass
class Prepared:
    plans: list[corpus.TaskPlan]
    corpus_dir: Path
    cache_dir: Path
    seconds: float


def set_up(tablex, plans: list[corpus.TaskPlan], directory: Path, tracer: Tracer | None = None) -> Prepared:
    """Write the corpus and record its cache; the plans are built once per
    run, outside the timing, so set-up time does not depend on the seed."""
    started = time.perf_counter()
    corpus.write_corpus(plans, directory / "corpus")
    gateway = tablex.gateway
    generator = CorruptingGenerator(plans, gateway)
    if tracer is not None:
        install_record_wrappers(tracer, tablex, generator)
    try:
        config = gateway.BackendConfig()  # what the CLI builds when given no config
        recorder = gateway.RecordingBackend(
            config, gateway.TranscriptStore(directory / "cache"), live=generator
        )
        cfg = tablex.pipeline.PipelineConfig(generator=recorder, critic=recorder)
        for plan in plans:
            try:
                tablex.pipeline.run_ten(tablex.model.SourceText(plan.source), cfg)
            except tablex.errors.TablexError as exc:
                if plan.expect.error != type(exc).__name__:
                    raise BenchmarkError(f"set-up: task {plan.id} raised {exc!r}") from exc
    finally:
        if tracer is not None:
            tracer.unwrap_all()
    return Prepared(plans, directory / "corpus", directory / "cache", time.perf_counter() - started)


# ---------------------------------------------------------------------------
# One bench pass through the CLI
# ---------------------------------------------------------------------------


def bench_pass(tablex, prep: Prepared, out: Path, parallel: int, tracer: Tracer | None = None):
    """Run ``tablex bench --replay`` once; return (wall seconds, exit code,
    report bytes). The outputs directory is emptied first, outside the timing."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    report = out / "report.json"
    argv = [
        "bench", str(prep.corpus_dir), "--format", "paired-text",
        "--replay", "--cache-dir", str(prep.cache_dir),
        "--report", str(report), "--outputs", str(out / "tasks"),
        "--parallel", str(parallel),
    ]  # fmt: skip
    with contextlib.redirect_stderr(io.StringIO()):
        if tracer is None:
            started = time.perf_counter()
            code = tablex.cli.cli(argv)
            wall = time.perf_counter() - started
        else:
            install_layer_wrappers(tracer, tablex)
            try:
                started = time.perf_counter()
                with tracer.span("bench.cli"):
                    code = tablex.cli.cli(argv)
                wall = time.perf_counter() - started
            finally:
                tracer.unwrap_all()
    return wall, code, report.read_bytes() if report.exists() else b""


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def _csv_grid(path: Path) -> list[list[str]]:
    return list(csv.reader(io.StringIO(path.read_bytes().decode("utf-8"), newline="")))


def verify(prep: Prepared, out: Path, code: int, report_bytes: bytes) -> dict[str, list[str]]:
    """Compare every task's outcome with its plan; return problems by task."""
    problems: dict[str, list[str]] = {}
    try:
        report = json.loads(report_bytes)
        per_task = {entry["task_id"]: entry for entry in report["per_task"]}
    except (ValueError, KeyError, TypeError) as exc:
        return {"<report>": [f"unreadable report: {exc}"]}
    expected_errors = sum(1 for plan in prep.plans if plan.expect.error)
    if code != (1 if expected_errors else 0):
        problems["<exit>"] = [f"exit code {code}, expected {1 if expected_errors else 0}"]
    if report.get("aggregates", {}).get("errored") != expected_errors:
        problems["<aggregates>"] = [f"errored != {expected_errors}"]
    tasks = out / "tasks"
    for plan in prep.plans:
        exp, got, found = plan.expect, per_task.get(plan.id), []
        if got is None:
            problems[plan.id] = ["missing from the report"]
            continue
        if exp.error:
            if not (got["error"] or "").startswith(exp.error + ":"):
                found.append(f"error {got['error']!r}, expected {exp.error}")
        else:
            metrics = got["metrics"] or {}
            if got["error"] is not None:
                found.append(f"unexpected error {got['error']!r}")
            if got["iterations_used"] != exp.iterations:
                found.append(f"iterations {got['iterations_used']}, expected {exp.iterations}")
            if got["converged"] != exp.converged:
                found.append(f"converged {got['converged']}, expected {exp.converged}")
            if metrics.get("em") != exp.em:
                found.append(f"em {metrics.get('em')}, expected {exp.em}")
            ted = metrics.get("ted")
            if exp.em == 1 and ted != 0.0:
                found.append(f"ted {ted} on an exact match")
            low, high = exp.ted_range
            if exp.em == 0 and not (isinstance(ted, float) and low < ted <= high):
                found.append(f"ted {ted} outside ({low}, {high}]")
            try:
                grid = _csv_grid(tasks / f"{plan.id}.csv")
                if grid != exp.final:
                    found.append("final table differs from the planned one")
                for suffix in (".html", ".trace.json"):
                    if not (tasks / f"{plan.id}{suffix}").is_file():
                        found.append(f"no {suffix} output")
            except OSError as exc:
                found.append(f"outputs unreadable: {exc}")
        if found:
            problems[plan.id] = found
    return problems


def retry_counts(prep: Prepared, out: Path) -> int:
    """Parse retries that yielded a table, from the per-task traces."""
    useful = 0
    for plan in prep.plans:
        path = out / "tasks" / f"{plan.id}.trace.json"
        if path.is_file():
            for step in json.loads(path.read_text(encoding="utf-8"))["traces"]:
                if step["parse_failures"] and step["candidate_html"] is not None:
                    useful += 1
    return useful


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


class Run:
    def __init__(self, tablex, workload: str, seed: int, seconds: float, work: Path):
        self.tablex = tablex
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.work = work
        self.problems: dict[str, list[str]] = {}
        self.notes: list[str] = []
        self.first_report: bytes | None = None
        self.attempted = 0

    def fail(self, key: str, message: str) -> None:
        self.problems.setdefault(key, []).append(message)

    def check_pass(self, prep: Prepared, out: Path, code: int, report: bytes, label: str) -> None:
        if self.first_report is None:
            self.first_report = report
            self.problems.update(verify(prep, out, code, report))
        elif report != self.first_report:
            self.fail("<determinism>", f"report of {label} differs from the first pass")

    def passes(self, prep: Prepared, parallel: int, count: int, label: str) -> list[float]:
        walls: list[float] = []
        out = self.work / "out"
        for i in range(count):
            wall, code, report = bench_pass(self.tablex, prep, out, parallel)
            walls.append(wall)
            self.check_pass(prep, out, code, report, f"{label} pass {i + 1}")
        return walls

    def untraced(self) -> dict[str, float]:
        """Set-ups and --parallel 1 passes interleaved over the whole run, so
        both medians sample the same stretch of machine time, whose speed
        drifts. (The traced run compares --parallel 2 reports with these.)"""
        plans = corpus.WORKLOADS[self.workload](self.seed)
        setups: list[float] = []
        walls: list[float] = []
        prep = peak_kb = None
        out = self.work / "out"
        started = time.perf_counter()
        while len(walls) < MIN_PASSES or time.perf_counter() - started < self.seconds:
            while len(setups) < MIN_SETUPS or sum(setups) < SETUP_SHARE * (time.perf_counter() - started):
                if prep is not None:
                    shutil.rmtree(prep.corpus_dir.parent, ignore_errors=True)
                prep = set_up(self.tablex, plans, self.work / f"setup{len(setups)}")
                setups.append(prep.seconds)
            wall, code, report = bench_pass(self.tablex, prep, out, 1)
            walls.append(wall)
            self.check_pass(prep, out, code, report, f"--parallel 1 pass {len(walls)}")
            if peak_kb is None:  # three set-ups and one pass: the same work in every run
                peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        self.attempted = tasks = len(prep.plans)
        pass_s, setup_s = statistics.median(walls), statistics.median(setups)
        self.notes.append(
            f"{tasks} tasks; {len(walls)} passes at --parallel 1, median {pass_s:.4f} s; "
            f"{len(setups)} set-ups, median {setup_s:.4f} s"
        )
        return {
            "tasks_per_s": tasks / pass_s,
            "setup_s": setup_s,
            "peak_rss_mb": peak_kb / 1024.0,
        }

    def traced(self) -> dict[str, float]:
        record_tracer = Tracer()
        plans = corpus.WORKLOADS[self.workload](self.seed)
        prep = set_up(self.tablex, plans, self.work / "setup", record_tracer)
        self.attempted = len(prep.plans)
        self.passes(prep, 1, 1, "warm-up")
        # untraced and traced passes alternate, so the overhead ratio compares
        # neighbouring stretches of machine time
        out = self.work / "out"
        p1: list[float] = []
        per_pass: list[dict[str, float]] = []
        for i in range(TRACED_PASSES):
            p1 += self.passes(prep, 1, 1, "untraced --parallel 1")
            tracer = Tracer()
            wall, code, report = bench_pass(self.tablex, prep, out, 1, tracer)
            self.check_pass(prep, out, code, report, f"traced pass {i + 1}")
            per_pass.append(self.layer_metrics(tracer, wall, report, prep, out))
        p1 += self.passes(prep, 1, 1, "untraced --parallel 1")
        p2 = self.passes(prep, 2, P2_PASSES, "--parallel 2")
        metrics = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
        metrics["bench.p2_speedup"] = statistics.median(p1) / statistics.median(p2)
        metrics["trace.overhead_ratio"] = metrics.pop("_traced_wall") / statistics.median(p1) - 1.0
        metrics["gateway.record_s"] = record_tracer.self_time("gateway.record_complete")
        metrics["gateway.misses"] = record_tracer.calls("generator.complete")
        self.notes.append(
            f"bench.p2_speedup base: {len(prep.plans) / statistics.median(p1):.3f} tasks/s at --parallel 1, "
            f"{len(prep.plans) / statistics.median(p2):.3f} tasks/s at --parallel 2"
        )
        ted_calls = metrics["metrics.ted_calls"]
        if self.workload == "large-check" and ted_calls != 0:
            self.fail("<trace>", f"metrics.ted_calls is {ted_calls} on large-check, expected 0")
        if self.workload == "ted-eval" and ted_calls <= 0:
            self.fail("<trace>", "metrics.ted_calls is 0 on ted-eval")
        metrics.update(sweep(self.tablex))
        return metrics

    def layer_metrics(self, tracer: Tracer, wall: float, report: bytes, prep: Prepared, out: Path) -> dict:
        # Every span's children must fit inside it, and the layer spans must
        # cover the traced wall but for CLI glue and the report write: the
        # root span's self time.
        own = tracer.self_times()
        worst = min(own)
        if worst < -NEGATIVE_SELF_S:
            name = tracer.spans[own.index(worst)][0]
            self.fail("<trace>", f"span {name} has self time {worst:.6f} s: its children overlap or outlast it")
        uncovered = tracer.self_time("bench.cli") / wall
        if uncovered > UNCOVERED_SHARE:
            self.fail("<trace>", f"{uncovered:.2%} of the traced wall is outside every layer span")
        runtime = json.loads(report)["runtime"]
        tasks = sorted(tracer.per_task("pipeline.run_ten", "metrics.evaluate").values())
        renders = tracer.calls("gateway.render_prompt")
        retries = tracer.calls("gateway.complete") - renders
        useful = retry_counts(prep, out)
        self.notes.append(
            f"trace: smallest span self time {worst:.2e} s; {uncovered:.2%} of wall outside layer spans; "
            f"parse retries {retries}, of which yielded a table {useful}"
        )
        check_s = tracer.total("checker.run_sanity_check")
        hallucination_s = tracer.total("checker.compute_hallucination")
        coverage_s = tracer.total("checker.compute_coverage")
        return {
            "_traced_wall": wall,
            "trace.uncovered_ratio": uncovered,
            "bench.ingest_s": tracer.total("bench.ingest_dataset"),
            "bench.outputs_s": tracer.total("bench.write_task_outputs"),
            "pipeline.self_s": tracer.self_time("pipeline.run_ten"),
            "pipeline.iterations": runtime["total_iterations"],
            "pipeline.converged_ratio": runtime["converged"] / runtime["tasks"],
            "pipeline.task_p50_s": _nearest_rank(tasks, 0.5),
            "pipeline.task_p90_s": _nearest_rank(tasks, 0.9),
            "gateway.calls": tracer.calls("gateway.complete"),
            "gateway.complete_s": tracer.total("gateway.complete"),
            "gateway.render_s": tracer.total("gateway.render_prompt"),
            "model.parse_calls": tracer.calls("model.parse_extraction_json", "model.parse_html_table"),
            "model.parse_s": tracer.total(
                "model.parse_extraction_json", "model.parse_html_table",
                "model.concat_partial_tables", "model.normalize_rectangular",
            ),  # fmt: skip
            "model.parse_retry_useful_ratio": useful / retries if retries else 0.0,
            "checker.calls": tracer.calls("checker.run_sanity_check"),
            "checker.cells": tracer.counts.get("checker.cells", 0),
            "checker.check_s": check_s,
            "checker.hallucination_s": hallucination_s,
            "checker.coverage_s": coverage_s,
            "checker.rules_s": check_s - hallucination_s - coverage_s,
            "metrics.evaluate_s": tracer.total("metrics.evaluate"),
            "metrics.source_scores_s": tracer.total("metrics.compute_hallucination", "metrics.compute_coverage"),
            "metrics.ted_calls": tracer.calls("metrics.tree_edit_distance"),
            "metrics.ted_s": tracer.total("metrics.tree_edit_distance"),
            "metrics.ted_node_pairs": tracer.counts.get("metrics.ted_node_pairs", 0),
        }


def _nearest_rank(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


# ---------------------------------------------------------------------------
# Layer sweep
# ---------------------------------------------------------------------------


def _repeats(rows: int) -> int:
    return 5 if rows <= 100 else 3 if rows <= 1000 else 1


def sweep(tablex) -> dict[str, float]:
    """Check, hallucination and parse at 10..5,000 rows; TED with one
    dropped row and one edited cell at 30..120 rows. Median of repeats."""
    model = tablex.model
    results: dict[str, float] = {}
    for rows in SWEEP_ROWS:
        grid = corpus.sweep_table(rows)
        table = model.Table.from_rows(header=grid[:1], body=grid[1:])
        source = model.SourceText(corpus.flatten_ocr(grid))
        response = json.dumps({"tables": [{"html_output": corpus.to_html(grid, 1)}]})
        checks, hallucinations, parses = [], [], []
        for _ in range(_repeats(rows)):
            tracer = Tracer()
            tracer.wrap(tablex.checker, "compute_hallucination", "checker.compute_hallucination")
            try:
                started = time.perf_counter()
                tablex.checker.run_sanity_check(source, table)
                checks.append(time.perf_counter() - started)
            finally:
                tracer.unwrap_all()
            hallucinations.append(tracer.total("checker.compute_hallucination"))
            started = time.perf_counter()
            model.normalize_rectangular(model.concat_partial_tables(model.parse_extraction_json(response)))
            parses.append(time.perf_counter() - started)
        results[f"sweep.check_s.r{rows}"] = statistics.median(checks)
        results[f"sweep.hallucination_s.r{rows}"] = statistics.median(hallucinations)
        results[f"sweep.parse_s.r{rows}"] = statistics.median(parses)
    for rows in SWEEP_TED_ROWS:
        grid = corpus.sweep_table(rows)
        pred = [list(r) for r in grid]
        del pred[1 + rows // 2]
        pred[1][0] = "zephyr"
        gold_table = model.Table.from_rows(header=grid[:1], body=grid[1:])
        pred_table = model.Table.from_rows(header=pred[:1], body=pred[1:])
        times = []
        for _ in range(1 if rows > 30 else 3):
            started = time.perf_counter()
            tablex.metrics.tree_edit_distance(pred_table, gold_table)
            times.append(time.perf_counter() - started)
        results[f"sweep.ted_s.r{rows}"] = statistics.median(times)
    return results


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def src_line_count() -> int:
    return sum(len(p.read_bytes().splitlines()) for p in sorted((ROOT / "src" / "tablex").rglob("*.py")))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(corpus.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    tablex = load_tablex()
    work_root = HERE / ".work"
    work_root.mkdir(exist_ok=True)
    work = work_root / f"{args.workload}-{args.seed}-{time.time_ns()}"
    run = Run(tablex, args.workload, args.seed, args.seconds, work)
    try:
        values = run.traced() if args.trace else run.untraced()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = PER_LAYER if args.trace else END_TO_END
    for note in run.notes:
        print(f"# {note}")
    print(f"# src/tablex: {src_line_count()} lines (informational)")
    for name, unit in units.items():
        print(f"{args.workload} {name} = {values[name]:.6g} {unit}")
    failed_tasks = [key for key in run.problems if not key.startswith("<")]
    for key, found in sorted(run.problems.items()):
        for message in found:
            log(f"perfbench: FAIL {key}: {message}")
    print(f"# failed_ratio = {len(failed_tasks)}/{run.attempted}")
    result = {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": len(failed_tasks),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
