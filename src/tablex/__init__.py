"""Reconstruct explicit tables from flattened text and score the results.

The package couples an LLM-driven generator with a symbolic sanity checker
in an iterative critique loop, and ships the evaluation metrics and
benchmark harness used to measure reconstructions against gold tables.
"""

from .checker import (
    ConvergenceThresholds,
    EntityType,
    Rule,
    Signature,
    ValidationReport,
    Violation,
    compute_coverage,
    compute_hallucination,
    is_converged,
    run_sanity_check,
)
from .errors import TablexError
from .gateway import BackendConfig, PromptKind, render_prompt
from .metrics import MetricReport, evaluate, exact_match, tree_edit_distance
from .model import (
    Cell,
    SourceText,
    Table,
    concat_partial_tables,
    flatten_table,
    normalize_rectangular,
    parse_extraction_json,
    parse_html_table,
    serialize_html,
)
from .pipeline import PipelineConfig, PipelineResult, run_ten

__version__ = "0.1.0"

__all__ = [
    "BackendConfig",
    "Cell",
    "ConvergenceThresholds",
    "EntityType",
    "MetricReport",
    "PipelineConfig",
    "PipelineResult",
    "PromptKind",
    "Rule",
    "Signature",
    "SourceText",
    "Table",
    "TablexError",
    "ValidationReport",
    "Violation",
    "compute_coverage",
    "compute_hallucination",
    "concat_partial_tables",
    "evaluate",
    "exact_match",
    "flatten_table",
    "is_converged",
    "normalize_rectangular",
    "parse_extraction_json",
    "parse_html_table",
    "render_prompt",
    "run_sanity_check",
    "run_ten",
    "serialize_html",
    "tree_edit_distance",
]
