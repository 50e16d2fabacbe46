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
            prompt = self.generation_prompt
            value = prompt.value if isinstance(prompt, PromptKind) else prompt  # as the config spells it
            raise ValueError(f"{value!r} is not a generation prompt")


@dataclass
class IterationTrace:
    index: int
    prompt_kind: PromptKind
    raw_response: str
    candidate: Table | None = None
    report: ValidationReport | None = None
    critique: str | None = None
    parse_errors: list[str] = field(default_factory=list)  # "ClassName: message" per failed parse

    @property
    def parse_failures(self) -> int:
        return len(self.parse_errors)

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "prompt_kind": self.prompt_kind.value,
            "raw_response": self.raw_response,
            "candidate_html": None if self.candidate is None else serialize_html(self.candidate),
            "report": None if self.report is None else self.report.to_dict(),
            "critique": self.critique,
            "parse_failures": self.parse_failures,
            "parse_errors": self.parse_errors,
        }


@dataclass
class PipelineResult:
    traces: list[IterationTrace]
    chosen: IterationTrace  # the checked trace whose candidate the run returns
    converged: bool

    @property
    def final(self) -> Table:
        return self.chosen.candidate

    @property
    def report(self) -> ValidationReport:
        """The checker's report on ``final``."""
        return self.chosen.report

    @property
    def iterations_used(self) -> int:
        return len(self.traces)

    def to_dict(self, task_id: str | None = None) -> dict:
        """The run as JSON-ready data; each trace's candidate is rendered once,
        and ``final_html`` is the chosen trace's rendering."""
        traces = [trace.to_dict() for trace in self.traces]
        payload = {
            "converged": self.converged,
            "iterations": self.iterations_used,
            "final_html": traces[self.traces.index(self.chosen)]["candidate_html"],
            "traces": traces,
        }
        if task_id is not None:
            payload["task_id"] = task_id
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


def _generate(backend: Backend, prompt: str, retry_budget: int, index: int, kind: PromptKind) -> IterationTrace:
    """Iteration ``index``'s trace: ask ``backend`` for ``prompt`` and parse the
    answer; on failure re-send the same prompt up to ``retry_budget`` more
    times. The trace keeps the last raw answer and one reason per failed parse."""
    trace = IterationTrace(index=index, prompt_kind=kind, raw_response="")
    while True:
        trace.raw_response = backend.complete(prompt)
        try:
            trace.candidate = concat_partial_tables(parse_extraction_json(trace.raw_response))
            return trace
        except (MalformedJson, MissingTablesKey, HtmlParseFailure, EmptyExtraction) as exc:
            trace.parse_errors.append(f"{type(exc).__name__}: {exc}")
        if trace.parse_failures > retry_budget:
            return trace


def run_ten(source: SourceText, cfg: PipelineConfig) -> PipelineResult:
    """Run the full loop on one input.

    Iteration 1 renders the configured generation prompt with no feedback;
    later iterations render the regeneration prompt with the critique and
    candidate of the latest trace that holds one. The loop stops at
    convergence or after ``max_iterations``; the critic is only consulted
    when another iteration will actually run. On exhaustion the run returns
    the checked candidate with the highest goodness - badness, the later one
    on a tie, or the last checked one under ``keep_last_iteration``.
    """
    traces: list[IterationTrace] = []
    last: IterationTrace | None = None

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
        trace = _generate(cfg.generator, prompt, cfg.parse_retry_limit, index, kind)
        traces.append(trace)
        if trace.candidate is None:
            continue

        trace.report = run_sanity_check(source, trace.candidate)
        last = trace
        if is_converged(trace.report, cfg.thresholds):
            return PipelineResult(traces, chosen=trace, converged=True)
        if index < cfg.max_iterations:
            trace.critique = request_critique(trace.candidate, trace.report, cfg.critic)

    if last is None:
        raise NoCandidateProduced(
            f"no iteration produced a parseable table in {len(traces)} attempts"
        )
    # reversed: of equal scores, max keeps the first it sees, so the later trace wins
    checked = [trace for trace in reversed(traces) if trace.report is not None]
    best = max(checked, key=lambda trace: trace.report.goodness_score - trace.report.badness_score)
    return PipelineResult(traces, chosen=last if cfg.keep_last_iteration else best, converged=False)
