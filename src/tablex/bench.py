"""Benchmark harness: dataset ingestion, parallel pipeline runs, scoring
and report emission.

Reports are deterministic for a fixed replay store and configuration:
tasks are processed in id order for aggregation regardless of worker
scheduling, and the runtime section holds counters rather than wall-clock
values.
"""

from __future__ import annotations

import csv
import json
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

from .errors import HtmlParseFailure, NoTasksFound, TaskTimeout, UnreadableFile
from .gateway import Backend
from .metrics import MetricReport, evaluate
from .model import (
    SourceText,
    Table,
    flatten_table,
    normalize_rectangular,
    parse_csv_table,
    parse_html_table,
    serialize_csv,
    serialize_html,
)
from .pipeline import PipelineConfig, PipelineResult, run_ten

SCHEMA_VERSION = 1
DATASET_FORMATS = ("html", "csv", "paired-text")


@dataclass(frozen=True)
class Task:
    id: str
    source: SourceText
    gold: Table
    provenance: str


@dataclass
class TaskOutcome:
    task_id: str
    metrics: MetricReport | None
    iterations_used: int
    converged: bool
    error: str | None = None
    result: PipelineResult | None = None

    def to_dict(self) -> dict:
        return {
            "task_id": self.task_id,
            "metrics": None if self.metrics is None else self.metrics.to_dict(),
            "iterations_used": self.iterations_used,
            "converged": self.converged,
            "error": self.error,
        }


@dataclass
class BenchReport:
    per_task: list[TaskOutcome]
    aggregates: dict
    runtime: dict

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "per_task": [outcome.to_dict() for outcome in self.per_task],
            "aggregates": self.aggregates,
            "runtime": self.runtime,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def read_text(path: str | Path) -> str:
    """A UTF-8 file's text; a read or decode failure is ``UnreadableFile``."""
    # bytes + decode: universal-newline translation must not rewrite CRLF
    # sources, which would shift coverage and replay fingerprints
    try:
        return Path(path).read_bytes().decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise UnreadableFile(str(path), str(exc)) from exc


def load_table(path: str | Path) -> Table:
    """A normalized table from a ``.csv`` file, or from HTML for any other
    suffix; a file that cannot be read or parsed is ``UnreadableFile``."""
    text = read_text(path)
    try:
        if Path(path).suffix.lower() == ".csv":
            return parse_csv_table(text)
        return normalize_rectangular(parse_html_table(text))
    except (csv.Error, HtmlParseFailure) as exc:
        raise UnreadableFile(str(path), f"cannot parse table: {exc}") from exc


def ingest_dataset(directory: str | Path, fmt: str) -> list[Task]:
    """Load benchmark tasks from a directory.

    ``html``/``csv`` load gold tables and synthesize the input by
    flattening them; ``paired-text`` loads (<id>.txt, <id>.html) pairs
    as-is. Tasks come back sorted by id; two files that give one id (such
    as ``t1.html`` and ``t1.htm``) are ``UnreadableFile``.
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise UnreadableFile(str(directory), "not a directory")
    if fmt not in DATASET_FORMATS:
        raise ValueError(f"unknown dataset format {fmt!r}")

    tasks: list[Task] = []
    if fmt in ("html", "csv"):
        suffixes = (".html", ".htm") if fmt == "html" else (".csv",)
        for path in sorted(directory.iterdir()):
            if path.suffix.lower() not in suffixes:
                continue
            gold = load_table(path)
            source = flatten_table(gold)
            tasks.append(Task(id=path.stem, source=source, gold=gold, provenance=str(path)))
    else:
        for path in sorted(directory.glob("*.txt")):
            gold_path = path.with_suffix(".html")
            if not gold_path.exists():
                raise UnreadableFile(str(path), "no matching gold .html file")
            tasks.append(
                Task(
                    id=path.stem,
                    source=SourceText(read_text(path)),
                    gold=load_table(gold_path),
                    provenance=str(path),
                )
            )

    if not tasks:
        raise NoTasksFound(f"no {fmt} tasks under {directory}")
    tasks.sort(key=lambda task: task.id)
    for first, second in zip(tasks, tasks[1:]):
        if first.id == second.id:
            raise UnreadableFile(second.provenance, f"gives task id {second.id!r}, as {first.provenance} does")
    return tasks


class _DeadlineBackend:
    """A backend that refuses every call made after its task's deadline."""

    def __init__(self, backend: Backend, deadline: float):
        self.backend = backend
        self.deadline = deadline

    def complete(self, prompt: str) -> str:
        if time.monotonic() > self.deadline:
            raise TaskTimeout("the task's deadline passed before a backend call")
        return self.backend.complete(prompt)


def _run_task(task: Task, cfg: PipelineConfig, timeout: float | None) -> TaskOutcome:
    """Run and score one task; any failure becomes the task's outcome. The
    ``timeout`` counts from here, when a worker starts the task."""
    try:
        if timeout is not None:
            deadline = time.monotonic() + timeout
            cfg = replace(
                cfg,
                generator=_DeadlineBackend(cfg.generator, deadline),
                critic=_DeadlineBackend(cfg.critic, deadline),
            )
        result = run_ten(task.source, cfg)
        # the checker already scored the final table against the source
        metrics = replace(
            evaluate(result.final, task.gold),
            coverage=result.report.coverage,
            hallucination=result.report.hallucination_rate,
        )
    except TaskTimeout:
        return TaskOutcome(task.id, None, 0, False, error="timeout")
    except Exception as exc:
        return TaskOutcome(task.id, None, 0, False, error=f"{type(exc).__name__}: {exc}")
    return TaskOutcome(
        task_id=task.id,
        metrics=metrics,
        iterations_used=result.iterations_used,
        converged=result.converged,
        result=result,
    )


def _mean(values: list[float]) -> float | None:
    return sum(values) / len(values) if values else None


def run_bench(
    tasks: list[Task],
    cfg: PipelineConfig,
    parallelism: int = 1,
    per_task_timeout: float | None = None,
) -> BenchReport:
    """Run the pipeline over every task with a bounded worker pool.

    Per-task failures (transport errors, replay misses, timeouts) are
    recorded on the task and never abort the batch; they score EM 0 and are
    excluded from the other metric means. ``per_task_timeout`` counts from
    when a worker starts the task; a backend call made after it fails the
    task, while a call already in progress runs to its end.
    """
    if parallelism < 1:
        raise ValueError("parallelism must be >= 1")

    started = time.perf_counter()
    by_id = sorted(tasks, key=lambda t: t.id)
    with ThreadPoolExecutor(max_workers=parallelism) as executor:
        ordered = list(executor.map(lambda task: _run_task(task, cfg, per_task_timeout), by_id))
    elapsed = time.perf_counter() - started
    print(f"bench: {len(tasks)} tasks in {elapsed:.2f}s", file=sys.stderr)

    scored = [o.metrics for o in ordered if o.metrics is not None]
    aggregates = {
        "tasks": len(ordered),
        "errored": sum(1 for o in ordered if o.error is not None),
        "em_percent": sum(m.em for m in scored) / len(ordered) * 100.0 if ordered else 0.0,
        "mean_ted": _mean([m.ted for m in scored]),
        "mean_cvm": _mean([m.cvm for m in scored]),
        "mean_colvm": _mean([m.colvm for m in scored]),
        "mean_coverage": _mean([m.coverage for m in scored if m.coverage is not None]),
        "mean_hallucination": _mean([m.hallucination for m in scored if m.hallucination is not None]),
    }
    runtime = {
        "tasks": len(ordered),
        "errored": aggregates["errored"],
        "converged": sum(1 for o in ordered if o.converged),
        "total_iterations": sum(o.iterations_used for o in ordered),
    }
    return BenchReport(per_task=ordered, aggregates=aggregates, runtime=runtime)


def write_task_outputs(outcomes: list[TaskOutcome], directory: str | Path) -> None:
    """Emit the per-task trace JSON plus standalone HTML and CSV tables."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for outcome in outcomes:
        if outcome.result is None:
            continue
        # appended, not with_suffix: tasks "t.1" and "t.2" must not both write "t.html"
        base = str(directory / outcome.task_id)
        Path(base + ".trace.json").write_text(outcome.result.to_json(task_id=outcome.task_id), encoding="utf-8")
        Path(base + ".html").write_text(serialize_html(outcome.result.final), encoding="utf-8")
        Path(base + ".csv").write_text(serialize_csv(outcome.result.final), encoding="utf-8")
