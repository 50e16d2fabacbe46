"""The iterative reconstruction loop.

generate -> symbolic check -> converged? -> critique -> regenerate, with a
full per-iteration trace. One run is sequential; many runs may share the
same backends concurrently.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .checker import ConvergenceThresholds, ValidationReport, is_converged, run_sanity_check
from .errors import EmptyExtraction, HtmlParseFailure, MalformedJson, MissingTablesKey, NoCandidateProduced
from .gateway import Backend, PromptKind, render_prompt
from .model import SourceText, Table, concat_partial_tables, normalize_rectangular, parse_extraction_json, serialize_html

_GENERATION_KINDS = (
    PromptKind.STRUCTURAL_DECOMPOSITION,
    PromptKind.BASELINE,
    PromptKind.CHAIN_OF_THOUGHT,
)


@dataclass
class PipelineConfig:
    generator: Backend
    critic: Backend
    max_iterations: int = 5
    thresholds: ConvergenceThresholds = field(default_factory=ConvergenceThresholds)
    generation_prompt: PromptKind = PromptKind.STRUCTURAL_DECOMPOSITION
    parse_retry_limit: int = 1
    # True restores the literal return-the-last-candidate behavior on
    # exhaustion; by default the best-scoring candidate wins instead,
    # because a late critique round can regress the table.
    keep_last_iteration: bool = False

    def __post_init__(self) -> None:
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.parse_retry_limit < 0:
            raise ValueError("parse_retry_limit must be >= 0")
        if self.generation_prompt not in _GENERATION_KINDS:
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

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "prompt_kind": self.prompt_kind.value,
            "raw_response": self.raw_response,
            "candidate_html": None if self.candidate is None else serialize_html(self.candidate),
            "report": None if self.report is None else self.report.to_dict(),
            "critique": self.critique,
            "parse_failures": self.parse_failures,
        }


@dataclass
class PipelineResult:
    final: Table
    traces: list[IterationTrace]
    converged: bool
    iterations_used: int

    def to_dict(self, task_id: str | None = None) -> dict:
        payload = {
            "converged": self.converged,
            "iterations": self.iterations_used,
            "final_html": serialize_html(self.final),
            "traces": [trace.to_dict() for trace in self.traces],
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


def _try_parse(raw: str) -> Table | None:
    try:
        extraction = parse_extraction_json(raw)
        return normalize_rectangular(concat_partial_tables(extraction))
    except (MalformedJson, MissingTablesKey, HtmlParseFailure, EmptyExtraction):
        return None


def _parse_with_retries(
    raw: str,
    retry_budget: int,
    backend: Backend,
    prompt: str,
) -> tuple[str, Table | None, int]:
    """Parse ``raw``; on failure re-ask the backend with the same prompt up
    to ``retry_budget`` more times. Returns (last raw, table or None,
    failure count)."""
    failures = 0
    while True:
        table = _try_parse(raw)
        if table is not None:
            return raw, table, failures
        failures += 1
        if failures > retry_budget:
            return raw, None, failures
        raw = backend.complete(prompt)


def run_ten(source: SourceText, cfg: PipelineConfig) -> PipelineResult:
    """Run the full loop on one input.

    Iteration 1 renders the configured generation prompt with no feedback;
    later iterations render the regeneration prompt with the previous
    critique and candidate. The loop stops at convergence or after
    ``max_iterations``; the critic is only consulted when another
    iteration will actually run.
    """
    traces: list[IterationTrace] = []
    critique: str | None = None
    last_candidate: Table | None = None
    best: tuple[float, int, Table] | None = None
    converged = False
    final: Table | None = None

    for index in range(1, cfg.max_iterations + 1):
        if critique is None or last_candidate is None:
            kind = cfg.generation_prompt
            prompt = render_prompt(kind, {"Input Text": source.raw})
        else:
            kind = PromptKind.REGENERATION
            prompt = render_prompt(
                kind,
                {"Critique": critique, "Original Table": table_as_rows_text(last_candidate)},
            )
        raw = cfg.generator.complete(prompt)
        raw, candidate, failures = _parse_with_retries(
            raw, cfg.parse_retry_limit, cfg.generator, prompt
        )
        trace = IterationTrace(index=index, prompt_kind=kind, raw_response=raw, parse_failures=failures)
        traces.append(trace)
        if candidate is None:
            continue

        trace.candidate = candidate
        last_candidate = candidate
        report = run_sanity_check(source, candidate)
        trace.report = report
        score = report.goodness_score - report.badness_score
        if best is None or score >= best[0]:
            best = (score, index, candidate)

        if is_converged(report, cfg.thresholds):
            converged = True
            final = candidate
            break
        if index < cfg.max_iterations:
            critique = request_critique(candidate, report, cfg.critic)
            trace.critique = critique

    if final is None:
        if last_candidate is None:
            raise NoCandidateProduced(
                f"no iteration produced a parseable table in {len(traces)} attempts"
            )
        final = last_candidate if cfg.keep_last_iteration else best[2]

    return PipelineResult(
        final=final,
        traces=traces,
        converged=converged,
        iterations_used=len(traces),
    )
