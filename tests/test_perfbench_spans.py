"""The benchmark's tracer (``perfbench/spans.py``) wraps functions by the
names their callers look them up under. This test installs every wrapper
against the package, so renaming or inlining a traced binding fails here
and not only in a benchmark run. The file is read, never imported, so no
bytecode is written next to it."""

from __future__ import annotations

import types
from pathlib import Path

import tablex
import tablex.bench  # noqa: F401  (the tracer wraps names on this module)
from tablex.model import SourceText, Table

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans() -> types.ModuleType:
    module = types.ModuleType("perfbench_spans")
    exec(compile(SPANS.read_text(encoding="utf-8"), str(SPANS), "exec"), module.__dict__)
    return module


class StubGenerator:
    def complete(self, prompt: str) -> str:
        return ""


def test_trace_wrappers_find_every_binding():
    spans = load_spans()
    tracer = spans.Tracer()
    traced = (tablex.pipeline, "run_sanity_check"), (tablex.checker, "compute_hallucination")
    originals = [getattr(owner, name) for owner, name in traced]
    try:
        spans.install_layer_wrappers(tracer, tablex)
        spans.install_record_wrappers(tracer, tablex, StubGenerator())
        table = Table.from_rows(body=[["a", "1"]])
        tablex.pipeline.run_sanity_check(SourceText("a 1"), table)
        # tables that differ, since evaluate skips TED on an exact match
        tablex.bench.evaluate(table, Table.from_rows(body=[["a", "2"]]))
    finally:
        tracer.unwrap_all()
    assert [getattr(owner, name) for owner, name in traced] == originals
    # run_sanity_check reaches the scores through the checker's own bindings
    for name in ("checker.run_sanity_check", "checker.compute_hallucination", "checker.compute_coverage"):
        assert tracer.calls(name) == 1, name
    # evaluate reaches TED through the metrics module's binding, which the traced ted-eval run counts
    for name in ("metrics.evaluate", "metrics.tree_edit_distance"):
        assert tracer.calls(name) == 1, name
