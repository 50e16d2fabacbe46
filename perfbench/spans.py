"""In-memory spans around each layer's public functions.

A span is (name, start, end, parent, task). Wrappers are installed on the
name where the caller looks the function up (``bench.run_ten`` for the
harness, ``pipeline.run_sanity_check`` for the loop, ``metrics``' own
binding of ``compute_hallucination`` for scoring) and removed afterwards,
so the program itself is unchanged and untraced runs pay nothing.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager

_clock = time.perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, task id]
        self.counts: dict[str, int] = {}
        self.task_of_source: dict[str, str] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._adopt: int | None = None  # parent for spans opened on worker threads
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, task: str | None = None, adopt: bool = False):
        stack = self._stack()
        parent = stack[-1] if stack else self._adopt
        if task is None:
            task = getattr(self._local, "task", None)
        record = [name, 0.0, 0.0, parent, task]
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        previous_task = getattr(self._local, "task", None)
        previous_adopt = self._adopt
        self._local.task = task
        if adopt:
            self._adopt = index
        record[1] = _clock()
        try:
            yield
        finally:
            record[2] = _clock()
            stack.pop()
            self._local.task = previous_task
            if adopt:
                self._adopt = previous_adopt

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + n

    # -- wrappers ------------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, task_arg=None, on_call=None, adopt=False) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``task_arg(args)`` returns the task id the call belongs to;
        ``on_call(args, result)`` records counters after the span closes.
        A missing attribute raises, so a renamed or inlined function stops
        the traced run instead of silently reading 0.
        """
        original = getattr(owner, attr, None)
        if original is None:
            raise AttributeError(f"perfbench: cannot trace {name}: {owner!r} has no attribute {attr!r}")
        tracer = self

        def wrapper(*args, **kwargs):
            task = task_arg(args) if task_arg is not None else None
            with tracer.span(name, task, adopt):
                result = original(*args, **kwargs)
            if on_call is not None:
                on_call(args, result)
            return result

        wrapper.__wrapped__ = original
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def unwrap_all(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis ------------------------------------------------------------

    def total(self, *names: str) -> float:
        return sum(s[2] - s[1] for s in self.spans if s[0] in names)

    def calls(self, *names: str) -> int:
        return sum(1 for s in self.spans if s[0] in names)

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] is not None:
                own[s[3]] -= s[2] - s[1]
        return own

    def self_time(self, name: str) -> float:
        own = self.self_times()
        return sum(t for t, s in zip(own, self.spans) if s[0] == name)

    def per_task(self, *names: str) -> dict[str, float]:
        totals: dict[str, float] = {}
        for s in self.spans:
            if s[0] in names and s[4] is not None:
                totals[s[4]] = totals.get(s[4], 0.0) + s[2] - s[1]
        return totals


def _cells(table) -> int:
    return sum(len(row) for row in table.body_rows)


def _nodes(table) -> int:
    return 1 + len(table.rows) + sum(len(row) for row in table.rows)


def install_layer_wrappers(tracer: Tracer, tablex) -> None:
    """Spans at every layer boundary the replay bench crosses."""
    bench, pipeline, gateway = tablex.bench, tablex.pipeline, tablex.gateway
    checker, metrics = tablex.checker, tablex.metrics

    def by_source(args):
        return tracer.task_of_source.get(args[0].raw)

    def by_eval_source(args):
        return tracer.task_of_source.get(args[2].raw) if len(args) > 2 and args[2] is not None else None

    def remember_tasks(args, tasks):
        tracer.task_of_source.update({task.source.raw: task.id for task in tasks})

    def count_cells(args, report):
        tracer.count("checker.cells", _cells(args[1]))

    def count_pairs(args, result):
        tracer.count("metrics.ted_node_pairs", _nodes(args[0]) * _nodes(args[1]))

    # bench: the CLI looks these up on the bench module
    tracer.wrap(bench, "ingest_dataset", "bench.ingest_dataset", on_call=remember_tasks)
    tracer.wrap(bench, "run_bench", "bench.run_bench", adopt=True)
    tracer.wrap(bench, "write_task_outputs", "bench.write_task_outputs")
    tracer.wrap(bench, "run_ten", "pipeline.run_ten", task_arg=by_source)
    tracer.wrap(bench, "evaluate", "metrics.evaluate", task_arg=by_eval_source)
    tracer.wrap(bench, "parse_html_table", "model.parse_html_table")
    tracer.wrap(bench, "normalize_rectangular", "model.normalize_rectangular")
    # pipeline's own bindings
    tracer.wrap(pipeline, "render_prompt", "gateway.render_prompt")
    tracer.wrap(pipeline, "table_as_rows_text", "pipeline.table_as_rows_text")
    tracer.wrap(pipeline, "findings_as_bullets", "pipeline.findings_as_bullets")
    tracer.wrap(pipeline, "parse_extraction_json", "model.parse_extraction_json")
    tracer.wrap(pipeline, "concat_partial_tables", "model.concat_partial_tables")
    tracer.wrap(pipeline, "normalize_rectangular", "model.normalize_rectangular")
    tracer.wrap(pipeline, "run_sanity_check", "checker.run_sanity_check", on_call=count_cells)
    # gateway read path
    tracer.wrap(gateway.ReplayBackend, "complete", "gateway.complete")
    tracer.wrap(gateway, "request_fingerprint", "gateway.request_fingerprint")
    tracer.wrap(gateway.TranscriptStore, "get", "gateway.store_get")
    # checker internals, through the checker module's bindings
    tracer.wrap(checker, "compute_hallucination", "checker.compute_hallucination")
    tracer.wrap(checker, "compute_coverage", "checker.compute_coverage")
    # metrics' own bindings
    tracer.wrap(metrics, "tree_edit_distance", "metrics.tree_edit_distance", on_call=count_pairs)
    tracer.wrap(metrics, "compute_hallucination", "metrics.compute_hallucination")
    tracer.wrap(metrics, "compute_coverage", "metrics.compute_coverage")


def install_record_wrappers(tracer: Tracer, tablex, generator) -> None:
    """Spans on the gateway's write path during set-up."""
    gateway = tablex.gateway
    tracer.wrap(gateway.RecordingBackend, "complete", "gateway.record_complete")
    tracer.wrap(generator, "complete", "generator.complete")
