"""The iterative reconstruction loop.

generate -> symbolic check -> converged? -> critique -> regenerate, with a
full per-iteration trace. One run is sequential; many runs may share the
same backends concurrently.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable

from .checker import ConvergenceThresholds, ValidationReport, is_converged, run_sanity_check
from .errors import EmptyExtraction, HtmlParseFailure, MalformedJson, MissingTablesKey, NoCandidateProduced
from .errors import check_fields
from .gateway import Backend, PromptKind, render_prompt
from .model import SourceText, Table, concat_partial_tables, parse_extraction_json, serialize_html
from .model import normalize_rectangular  # noqa: F401  (perfbench/spans.py traces this name)

GENERATION_KINDS = (
    PromptKind.STRUCTURAL_DECOMPOSITION,
    PromptKind.BASELINE,
    PromptKind.CHAIN_OF_THOUGHT,
)


@dataclass
class PipelineConfig:
    generator: Backend
    critic: Backend
    max_iterations: int = field(default=5, metadata={"min": 1})
    thresholds: ConvergenceThresholds = field(default_factory=ConvergenceThresholds)
    generation_prompt: PromptKind = PromptKind.STRUCTURAL_DECOMPOSITION
    parse_retry_limit: int = field(default=1, metadata={"min": 0})
    # True restores the literal return-the-last-candidate behavior on
    # exhaustion; by default the best-scoring candidate wins instead,
    # because a late critique round can regress the table.
    keep_last_iteration: bool = False

    def __post_init__(self) -> None:
        check_fields(self)
        if self.generation_prompt not in GENERATION_KINDS:
            raise ValueError(f"{self.generation_prompt} is not a generation prompt")


@dataclass
class IterationTrace:
    index: int
    prompt_kind: PromptKind
    raw_response: str
    candidate: Table | None = None
    report: ValidationReport | None = None
    critique: str | None = None
    parse_failures: int = 0
    parse_errors: list[str] = field(default_factory=list)  # "ClassName: message" per failed parse

    def to_dict(self, render_html: Callable[[Table], str]) -> dict:
        """The trace as JSON-ready data, its candidate rendered by ``render_html``."""
        return {
            "index": self.index,
            "prompt_kind": self.prompt_kind.value,
            "raw_response": self.raw_response,
            "candidate_html": None if self.candidate is None else render_html(self.candidate),
            "report": None if self.report is None else self.report.to_dict(),
            "critique": self.critique,
            "parse_failures": self.parse_failures,
            "parse_errors": self.parse_errors,
        }


@dataclass
class PipelineResult:
    final: Table
    traces: list[IterationTrace]
    converged: bool
    report: ValidationReport  # the checker's report on ``final``

    @property
    def iterations_used(self) -> int:
        return len(self.traces)

    def to_dict(self, task_id: str | None = None) -> dict:
        """The run as JSON-ready data. Each distinct table is rendered once:
        ``final`` is the very candidate object of the trace that produced it."""
        rendered: dict[int, str] = {}  # id(table) -> HTML; every table stays alive meanwhile

        def render(table: Table) -> str:
            if id(table) not in rendered:
                rendered[id(table)] = serialize_html(table)
            return rendered[id(table)]

        payload = {
            "converged": self.converged,
            "iterations": self.iterations_used,
            "final_html": render(self.final),
            "traces": [trace.to_dict(render) for trace in self.traces],
        }
        if task_id is not None:
            payload = {"task_id": task_id, **payload}
        return payload

    def to_json(self, task_id: str | None = None) -> str:
        return json.dumps(self.to_dict(task_id), indent=2, sort_keys=True)


def table_as_rows_text(table: Table) -> str:
    """Pipe-separated row rendering used inside the critique and
    regeneration prompts."""
    return "\n".join(" | ".join(cell.text for cell in row) for row in table.rows)


def findings_as_bullets(report: ValidationReport) -> str:
    if not report.violations:
        return "- (no findings)"
    lines = []
    for violation in report.violations:
        where = []
        if violation.row is not None:
            where.append(f"row {violation.row}")
        if violation.col is not None:
            where.append(f"column {violation.col}")
        location = " at " + ", ".join(where) if where else ""
        lines.append(f"- {violation.rule.value}{location}: {violation.detail}")
    return "\n".join(lines)


def request_critique(candidate: Table, report: ValidationReport, backend: Backend) -> str:
    """Ask the critic to turn checker findings into repair guidance. The
    prompt shows only the table and the rule-based signals, not the source."""
    prompt = render_prompt(
        PromptKind.CRITIQUE,
        {
            "Table Rows": table_as_rows_text(candidate),
            "Checker Findings": findings_as_bullets(report),
        },
    )
    return backend.complete(prompt)


def _try_parse(raw: str) -> Table | str:
    """The table ``raw`` holds, or why it holds none as "ClassName: message"."""
    try:
        return concat_partial_tables(parse_extraction_json(raw))
    except (MalformedJson, MissingTablesKey, HtmlParseFailure, EmptyExtraction) as exc:
        return f"{type(exc).__name__}: {exc}"


def _complete_and_parse(
    backend: Backend, prompt: str, retry_budget: int
) -> tuple[str, Table | None, list[str]]:
    """Ask ``backend`` for ``prompt`` and parse the answer; on failure re-send
    the same prompt up to ``retry_budget`` more times. Returns (last raw,
    table or None, one reason per failed parse)."""
    errors: list[str] = []
    while True:
        raw = backend.complete(prompt)
        parsed = _try_parse(raw)
        if isinstance(parsed, Table):
            return raw, parsed, errors
        errors.append(parsed)
        if len(errors) > retry_budget:
            return raw, None, errors


def run_ten(source: SourceText, cfg: PipelineConfig) -> PipelineResult:
    """Run the full loop on one input.

    Iteration 1 renders the configured generation prompt with no feedback;
    later iterations render the regeneration prompt with the critique and
    candidate of the latest trace that holds one. The loop stops at
    convergence or after ``max_iterations``; the critic is only consulted
    when another iteration will actually run.
    """
    traces: list[IterationTrace] = []
    last: IterationTrace | None = None
    best: IterationTrace | None = None

    for index in range(1, cfg.max_iterations + 1):
        if last is None:
            kind = cfg.generation_prompt
            prompt = render_prompt(kind, {"Input Text": source.raw})
        else:
            kind = PromptKind.REGENERATION
            prompt = render_prompt(
                kind,
                {"Critique": last.critique, "Original Table": table_as_rows_text(last.candidate)},
            )
        raw, candidate, errors = _complete_and_parse(cfg.generator, prompt, cfg.parse_retry_limit)
        trace = IterationTrace(
            index=index, prompt_kind=kind, raw_response=raw, parse_failures=len(errors), parse_errors=errors
        )
        traces.append(trace)
        if candidate is None:
            continue

        trace.candidate = candidate
        trace.report = run_sanity_check(source, candidate)
        last = trace
        # ties go to the later trace
        score = trace.report.goodness_score - trace.report.badness_score
        if best is None or score >= best.report.goodness_score - best.report.badness_score:
            best = trace

        if is_converged(trace.report, cfg.thresholds):
            return PipelineResult(final=candidate, traces=traces, converged=True, report=trace.report)
        if index < cfg.max_iterations:
            trace.critique = request_critique(candidate, trace.report, cfg.critic)

    if last is None:
        raise NoCandidateProduced(
            f"no iteration produced a parseable table in {len(traces)} attempts"
        )
    chosen = last if cfg.keep_last_iteration else best
    return PipelineResult(final=chosen.candidate, traces=traces, converged=False, report=chosen.report)
