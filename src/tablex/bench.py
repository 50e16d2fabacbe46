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
from dataclasses import dataclass, replace
from functools import partial
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
)
from .pipeline import PipelineConfig, PipelineResult, run_ten

SCHEMA_VERSION = 1
DATASET_FORMATS = {"html": (".html", ".htm"), "csv": (".csv",), "paired-text": (".txt",)}
TASK_FILE_SUFFIXES = (".trace.json", ".html", ".csv")  # each task's files under --outputs: <id><suffix>


@dataclass(frozen=True)
class Task:
    id: str
    source: SourceText
    gold: Table
    files: tuple[str, ...]  # the files ingest read: the gold table's, or the input text's and then the gold's


@dataclass
class TaskOutcome:
    """One task's row of the report."""

    task_id: str
    metrics: MetricReport | None
    error: str | None = None
    iterations_used: int = 0
    converged: bool = False

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
    """A UTF-8 file's text less one leading byte-order mark (U+FEFF); a read or decode failure is ``UnreadableFile``.
    The CLI reads every file through it: dataset files, tables, inputs, ``--source``, ``--config`` and ``--patterns``."""
    # bytes + decode: universal-newline translation must not rewrite CRLF
    # sources, which would shift coverage and replay fingerprints
    try:
        return Path(path).read_bytes().decode("utf-8").removeprefix("\ufeff")
    except OSError as exc:
        raise UnreadableFile(str(path), exc.strerror or str(exc)) from exc
    except UnicodeDecodeError as exc:
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
    """Load benchmark tasks from a directory, one per file whose suffix, in any case, ``DATASET_FORMATS[fmt]``
    lists. ``html``/``csv`` flatten the gold table into the input; ``paired-text`` reads <id>.txt's gold from
    <id>.html (its suffix in any case), then the text, both through ``read_text``. Tasks come back sorted by
    id; two files that give one id (such as ``t1.html`` and ``t1.htm``, or two golds ``t1.html`` and
    ``t1.HTML``) are ``UnreadableFile``.
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise UnreadableFile(str(directory), "not a directory")
    if fmt not in DATASET_FORMATS:
        raise ValueError(f"unknown dataset format {fmt!r}")

    paired = fmt == "paired-text"
    entries = sorted(directory.iterdir())
    golds: dict[str, list[Path]] = {}  # each id's .html files, in any case: a paired-text task's gold
    for path in entries:
        if path.suffix.lower() == ".html":
            golds.setdefault(path.stem, []).append(path)
    tasks: list[Task] = []
    for path in entries:
        if path.suffix.lower() not in DATASET_FORMATS[fmt]:
            continue
        gold_paths = golds.get(path.stem, []) if paired else [path]
        if not gold_paths:
            raise UnreadableFile(str(path), "no matching gold .html file")
        if len(gold_paths) > 1:
            raise UnreadableFile(str(gold_paths[1]), f"gives task id {path.stem!r}, as {gold_paths[0]} does")
        gold_path = gold_paths[0]
        gold = load_table(gold_path)
        source = SourceText(read_text(path)) if paired else flatten_table(gold)
        files = (str(path), str(gold_path)) if paired else (str(path),)
        tasks.append(Task(id=path.stem, source=source, gold=gold, files=files))

    if not tasks:
        raise NoTasksFound(f"no {fmt} tasks under {directory}")
    tasks.sort(key=lambda task: task.id)
    for first, second in zip(tasks, tasks[1:]):
        if first.id == second.id:
            raise UnreadableFile(second.files[0], f"gives task id {second.id!r}, as {first.files[0]} does")
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


def _run_task(task: Task, cfg: PipelineConfig, timeout: float | None, outputs: str | Path | None) -> TaskOutcome:
    """Run, score and, with ``outputs``, write one task; any failure, a write's
    too, becomes its outcome. The ``timeout`` counts from when a worker starts it.
    The loop reads a fresh ``SourceText`` of the task's text, so the token caches
    its checks fill die with the task rather than stay on ``task.source``."""
    try:
        if timeout is not None:
            deadline = time.monotonic() + timeout
            cfg = replace(
                cfg,
                generator=_DeadlineBackend(cfg.generator, deadline),
                critic=_DeadlineBackend(cfg.critic, deadline),
            )
        result = run_ten(SourceText(task.source.raw), cfg)
        if timeout is not None and time.monotonic() > deadline:
            raise TaskTimeout("the task's deadline passed before scoring")
        # the checker already scored the final table against the source
        metrics = replace(
            evaluate(result.final, task.gold),
            coverage=result.report.coverage,
            hallucination=result.report.hallucination_rate,
        )
        if outputs is not None:
            write_task_outputs([(task.id, result)], outputs)
    except TaskTimeout:
        return TaskOutcome(task.id, None, error="timeout")
    except Exception as exc:
        return TaskOutcome(task.id, None, error=f"{type(exc).__name__}: {exc}")
    return TaskOutcome(task.id, metrics, iterations_used=result.iterations_used, converged=result.converged)


def _mean(values: list[float]) -> float | None:
    return sum(values) / len(values) if values else None


def run_bench(
    tasks: list[Task],
    cfg: PipelineConfig,
    parallelism: int = 1,
    per_task_timeout: float | None = None,
    outputs: str | Path | None = None,
) -> BenchReport:
    """Run the pipeline over every task: in id order on the calling thread
    with one worker, in a pool of ``parallelism`` threads with more.

    Per-task failures (transport errors, replay misses, timeouts) are
    recorded on the task and never abort the batch; they score EM 0 and are
    excluded from the other metric means. ``per_task_timeout`` counts from
    when a worker starts the task; a backend call or scoring begun after it
    fails the task, while a call or a check in progress runs to its end.

    A task's ``PipelineResult`` and its source's token caches live only in
    the worker that runs it, so the batch holds one of each per running task,
    not one per task. With ``outputs``, which is made before any task starts,
    the worker that scored a task then writes its files there through
    ``write_task_outputs``; a failed task writes none. A write that fails
    fails its task like any other error, and the files written before it stay.
    """
    if parallelism < 1:
        raise ValueError("parallelism must be >= 1")
    if outputs is not None:
        write_task_outputs([], outputs)  # made even when every task fails
    started = time.perf_counter()
    by_id = sorted(tasks, key=lambda t: t.id)
    run = partial(_run_task, cfg=cfg, timeout=per_task_timeout, outputs=outputs)
    if parallelism == 1:  # no pool: its worker thread would get a malloc arena of its own
        ordered = [run(task) for task in by_id]
    else:
        from concurrent.futures import ThreadPoolExecutor  # here, so a one-worker run never imports it

        with ThreadPoolExecutor(max_workers=parallelism) as executor:
            ordered = list(executor.map(run, by_id))
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


def write_task_outputs(results: list[tuple[str, PipelineResult]], directory: str | Path) -> None:
    """Emit each (task id, result) pair's trace JSON plus standalone HTML and
    CSV tables into ``directory``, which is made first, even for no pairs."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for task_id, result in results:
        # appended, not with_suffix: tasks "t.1" and "t.2" must not both write "t.html"
        trace_path, html_path, csv_path = (str(directory / task_id) + suffix for suffix in TASK_FILE_SUFFIXES)
        payload = result.to_dict(task_id=task_id)
        with open(trace_path, "w", encoding="utf-8") as trace_file:
            # PipelineResult.to_json's text, written as it is encoded rather than built whole
            json.dump(payload, trace_file, indent=2, sort_keys=True)
        final_html = payload["final_html"]  # rendered once, for the trace and the .html file
        del payload
        Path(html_path).write_text(final_html, encoding="utf-8")
        Path(csv_path).write_text(serialize_csv(result.final), encoding="utf-8")
