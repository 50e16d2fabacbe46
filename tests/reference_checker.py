# Reference implementation for test_checker_equivalence.py: tablex.checker
# as it was before the single column pass, unchanged but for its import.
"""Symbolic validation of a candidate table against its source text.

Six rule families (empty rows, entity consistency, signature analysis,
merged cells, delimiter errors, bracket matching) plus four scores:
coverage, hallucination rate, goodness and badness. Header rows are exempt
from the rules (headers legitimately mix formats) but participate in
coverage; all functions here are pure and safe for concurrent use.
"""

from __future__ import annotations

import json
import re
import string
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from importlib import resources
from pathlib import Path
from typing import Sequence

from tablex.model import SourceText, Table

DEFAULT_CONSISTENCY_THRESHOLD = 0.8

_EDGE_PUNCT = string.punctuation
_BRACKET_PAIRS = {")": "(", "]": "[", "}": "{"}
_OPENERS = set(_BRACKET_PAIRS.values())
_DANGLING_RE = re.compile(r"\d[,.]$")


class Rule(Enum):
    EMPTY_ROW = "Empty Row"
    INCONSISTENT_COLUMN = "Inconsistent Column"
    MERGED_CELL = "Merged Cell"
    UNBALANCED_BRACKETS = "Unbalanced Brackets"
    DELIMITER_ERROR = "Delimiter Error"


@dataclass(frozen=True)
class EntityType:
    """A named cell-content category backed by a regular expression."""

    kind: str
    pattern: str

    def matches(self, text: str) -> bool:
        return _compiled(self.pattern).fullmatch(text.strip()) is not None


@lru_cache(maxsize=None)
def _compiled(pattern: str) -> re.Pattern:
    return re.compile(pattern)


@lru_cache(maxsize=1)
def default_entity_patterns() -> tuple[EntityType, ...]:
    data = resources.files("tablex").joinpath("data/entity_patterns.json").read_text()
    return _patterns_from_json(data)


def load_entity_patterns(path: str | Path) -> tuple[EntityType, ...]:
    """Load an entity pattern set (priority-ordered JSON array) from disk."""
    return _patterns_from_json(Path(path).read_text())


def _patterns_from_json(data: str) -> tuple[EntityType, ...]:
    entries = json.loads(data)
    return tuple(EntityType(kind=e["kind"], pattern=e["pattern"]) for e in entries)


@dataclass(frozen=True)
class Signature:
    """Syntactic fingerprint of a cell: which character classes occur."""

    has_digits: bool = False
    has_letters: bool = False
    has_punct: bool = False
    has_whitespace: bool = False

    @classmethod
    def of_text(cls, text: str) -> "Signature":
        return cls(
            has_digits=any(ch.isdigit() for ch in text),
            has_letters=any(ch.isalpha() for ch in text),
            has_punct=any(not ch.isalnum() and not ch.isspace() for ch in text),
            has_whitespace=any(ch.isspace() for ch in text),
        )


@dataclass(frozen=True)
class Violation:
    """One rule hit. ``row`` is a body-row index; exactly the location
    fields appropriate for the rule are set (row for Empty Row, col for
    Inconsistent Column, both for the per-cell rules)."""

    rule: Rule
    row: int | None
    col: int | None
    detail: str

    def to_dict(self) -> dict:
        return {"rule": self.rule.value, "row": self.row, "col": self.col, "detail": self.detail}


@dataclass(frozen=True)
class ConvergenceThresholds:
    """Bounds for accepting a candidate. Setting a bound to its vacuous
    value (0.0 for minima, 1.0 for maxima) disables that check."""

    min_coverage: float = 0.90
    max_hallucination: float = 0.20
    max_badness: float = 0.30
    min_goodness: float = 0.50


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]
    coverage: float
    hallucination_rate: float
    goodness_score: float
    badness_score: float
    consistent_cells: int
    violating_cells: int
    total_cells: int
    max_column_badness: float = 0.0

    def to_dict(self) -> dict:
        return {
            "violations": [v.to_dict() for v in self.violations],
            "coverage": self.coverage,
            "hallucination_rate": self.hallucination_rate,
            "goodness_score": self.goodness_score,
            "badness_score": self.badness_score,
            "consistent_cells": self.consistent_cells,
            "violating_cells": self.violating_cells,
            "total_cells": self.total_cells,
            "max_column_badness": self.max_column_badness,
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)


# ---------------------------------------------------------------------------
# Rule families
# ---------------------------------------------------------------------------


def detect_empty_rows(table: Table) -> list[Violation]:
    """Flag body rows whose every cell is empty or whitespace."""
    violations = []
    for r, row in enumerate(table.body_rows):
        if row and all(cell.text.strip() == "" for cell in row):
            violations.append(
                Violation(Rule.EMPTY_ROW, row=r, col=None, detail=f"body row {r} is blank")
            )
    return violations


def detect_entity_type(
    column: Sequence[str],
    patterns: Sequence[EntityType] | None = None,
    threshold: float = DEFAULT_CONSISTENCY_THRESHOLD,
) -> EntityType | None:
    """Pick the entity type matched by >= ``threshold`` of the non-empty
    cells; ``patterns`` order doubles as the tie-break priority."""
    patterns = patterns or default_entity_patterns()
    values = [v for v in column if v.strip()]
    if not values:
        return None
    for entity in patterns:
        hits = sum(1 for v in values if entity.matches(v))
        if hits / len(values) >= threshold:
            return entity
    return None


def _entity_findings(
    texts: Sequence[str],
    col: int,
    entity: EntityType,
) -> tuple[list[Violation], set[tuple[int, int]], set[tuple[int, int]]]:
    consistent: set[tuple[int, int]] = set()
    mismatched: list[tuple[int, str]] = []
    for r, text in enumerate(texts):
        if not text.strip():
            continue
        if entity.matches(text):
            consistent.add((r, col))
        else:
            mismatched.append((r, text))
    violations = []
    if mismatched:
        where = "; ".join(f"row {r}: {text!r}" for r, text in mismatched)
        violations.append(
            Violation(
                Rule.INCONSISTENT_COLUMN,
                row=None,
                col=col,
                detail=f"column {col} reads as {entity.kind} but mismatches {where}",
            )
        )
    return violations, consistent, {(r, col) for r, _ in mismatched}


def _signature_findings(
    texts: Sequence[str],
    col: int,
    threshold: float,
) -> tuple[list[Violation], set[tuple[int, int]], set[tuple[int, int]]]:
    present = [(r, text, Signature.of_text(text)) for r, text in enumerate(texts) if text.strip()]
    if not present:
        return [], set(), set()
    counts: dict[Signature, int] = {}
    for _, _, sig in present:
        counts[sig] = counts.get(sig, 0) + 1
    majority_sig, majority = max(counts.items(), key=lambda kv: kv[1])
    if majority / len(present) < threshold:
        return [], set(), set()
    consistent = {(r, col) for r, _, sig in present if sig == majority_sig}
    outliers = [(r, text) for r, text, sig in present if sig != majority_sig]
    violations = []
    if outliers:
        where = "; ".join(f"row {r}: {text!r}" for r, text in outliers)
        violations.append(
            Violation(
                Rule.INCONSISTENT_COLUMN,
                row=None,
                col=col,
                detail=f"column {col} signature outliers {where}",
            )
        )
    return violations, consistent, {(r, col) for r, _ in outliers}


def check_entity_consistency(
    table: Table,
    patterns: Sequence[EntityType] | None = None,
    threshold: float = DEFAULT_CONSISTENCY_THRESHOLD,
) -> tuple[list[Violation], int]:
    """Entity-typed column analysis over the table body.

    Columns with a detected type contribute their matching cells to the
    consistent count and flag mismatching cells; untyped columns are left to
    signature analysis.
    """
    violations, consistent, _ = _column_analysis(table, patterns, threshold)
    return [v for v in violations if v.rule is Rule.INCONSISTENT_COLUMN], len(consistent)


def signature_analysis(
    column: Sequence[str],
    column_index: int = 0,
    threshold: float = DEFAULT_CONSISTENCY_THRESHOLD,
) -> list[Violation]:
    """Flag signature outliers in a column that has no detected entity type."""
    violations, _, _ = _signature_findings(list(column), column_index, threshold)
    return violations


def _column_analysis(
    table: Table,
    patterns: Sequence[EntityType] | None,
    threshold: float,
) -> tuple[list[Violation], set[tuple[int, int]], set[tuple[int, int]]]:
    patterns = patterns or default_entity_patterns()
    violations: list[Violation] = []
    consistent: set[tuple[int, int]] = set()
    violating: set[tuple[int, int]] = set()
    for col, texts in enumerate(table.body_columns()):
        entity = detect_entity_type(texts, patterns, threshold)
        if entity is not None:
            found, good, bad = _entity_findings(texts, col, entity)
        else:
            found, good, bad = _signature_findings(texts, col, threshold)
        violations.extend(found)
        consistent |= good
        violating |= bad
    return violations, consistent, violating


def _strip_edges(token: str) -> str:
    return token.strip(_EDGE_PUNCT)


def _numeric_pattern(patterns: Sequence[EntityType]) -> EntityType | None:
    for entity in patterns:
        if entity.kind == "number":
            return entity
    return None


def _is_numeric_token(token: str, number: EntityType | None) -> bool:
    core = _strip_edges(token)
    return bool(core) and number is not None and number.matches(core)


def detect_merged_cells(
    table: Table,
    patterns: Sequence[EntityType] | None = None,
    threshold: float = DEFAULT_CONSISTENCY_THRESHOLD,
) -> list[Violation]:
    """Flag body cells that look like several values collapsed into one:
    two or more numeric tokens (e.g. "102, 205"), or a numeric token mixed
    with words inside a column that reads as numbers (e.g. "Revenue 750")."""
    patterns = patterns or default_entity_patterns()
    number = _numeric_pattern(patterns)
    column_kinds = {
        col: (detect_entity_type(texts, patterns, threshold) or EntityType("", "")).kind
        for col, texts in enumerate(table.body_columns())
    }
    violations = []
    for r, row in enumerate(table.body_rows):
        for cell in row:
            tokens = cell.text.split()
            numeric = sum(1 for tok in tokens if _is_numeric_token(tok, number))
            alpha = sum(1 for tok in tokens if _strip_edges(tok).isalpha())
            in_number_column = column_kinds.get(cell.col) == "number"
            if numeric >= 2 or (numeric == 1 and alpha >= 1 and in_number_column):
                violations.append(
                    Violation(
                        Rule.MERGED_CELL,
                        row=r,
                        col=cell.col,
                        detail=f"cell {cell.text!r} holds {numeric} numeric tokens",
                    )
                )
    return violations


def detect_delimiter_errors(
    table: Table,
    patterns: Sequence[EntityType] | None = None,
) -> list[Violation]:
    """Flag adjacent body cells that look like one number split in two:
    a left cell ending in a dangling separator ("1,"), or a short digit
    group next to an exactly-three-digit group ("12" | "345")."""
    violations = []
    for r, row in enumerate(table.body_rows):
        for j in range(len(row) - 1):
            left = row[j].text.strip()
            right = row[j + 1].text.strip()
            if not left:
                continue
            dangling = _DANGLING_RE.search(left) is not None
            fragmented = (
                left.isdigit() and len(left) <= 3 and right.isdigit() and len(right) == 3
            )
            if dangling or fragmented:
                violations.append(
                    Violation(
                        Rule.DELIMITER_ERROR,
                        row=r,
                        col=row[j].col,
                        detail=f"cells {left!r} | {right!r} look like a split number",
                    )
                )
    return violations


def _has_unbalanced_brackets(text: str) -> bool:
    stack: list[str] = []
    for ch in text:
        if ch in _OPENERS:
            stack.append(ch)
        elif ch in _BRACKET_PAIRS:
            if not stack or stack.pop() != _BRACKET_PAIRS[ch]:
                return True
    return bool(stack)


def detect_unbalanced_brackets(table: Table) -> list[Violation]:
    """Flag body cells with unmatched or crossing (), [], {} pairs."""
    violations = []
    for r, row in enumerate(table.body_rows):
        for cell in row:
            if _has_unbalanced_brackets(cell.text):
                violations.append(
                    Violation(
                        Rule.UNBALANCED_BRACKETS,
                        row=r,
                        col=cell.col,
                        detail=f"cell {cell.text!r} has unbalanced brackets",
                    )
                )
    return violations


# ---------------------------------------------------------------------------
# Coverage and hallucination
# ---------------------------------------------------------------------------


def _alnum_len(text: str) -> int:
    return sum(1 for ch in text if ch.isalnum())


def compute_coverage(source: SourceText, table: Table) -> float:
    """Fraction of the source's alphanumeric characters preserved in the
    table: 1 - uncovered/total. A source token is covered while the table's
    token multiset still has an identical token to consume."""
    total = _alnum_len(source.raw)
    if total == 0:
        return 1.0
    table_tokens: dict[str, int] = {}
    for cell in table.cells():
        for tok in cell.text.split():
            table_tokens[tok] = table_tokens.get(tok, 0) + 1
    uncovered = 0
    source_counts: dict[str, int] = {}
    for tok in source.tokens:
        source_counts[tok] = source_counts.get(tok, 0) + 1
    for tok, count in source_counts.items():
        missing = count - min(count, table_tokens.get(tok, 0))
        uncovered += missing * _alnum_len(tok)
    return 1.0 - uncovered / total


def _cell_coverage(text: str, source: SourceText) -> float:
    """Alphanumeric-weighted fraction of the cell's tokens found in the
    source. Tokens are matched as substrings of the raw source so that any
    contiguous excerpt of the source scores 1, partial matches included."""
    denom = _alnum_len(text)
    if denom == 0:
        return 1.0
    matched = sum(_alnum_len(tok) for tok in text.split() if tok in source.raw)
    return matched / denom


def compute_hallucination(source: SourceText, table: Table) -> float:
    """Mean over body rows of the mean per-cell uncovered fraction."""
    rows = table.body_rows
    if not rows:
        return 0.0
    total = 0.0
    for row in rows:
        if not row:
            continue
        total += sum(1.0 - _cell_coverage(cell.text, source) for cell in row) / len(row)
    return total / len(rows)


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


def run_sanity_check(
    source: SourceText,
    table: Table,
    patterns: Sequence[EntityType] | None = None,
    threshold: float = DEFAULT_CONSISTENCY_THRESHOLD,
) -> ValidationReport:
    """Run every rule family and aggregate scores.

    A cell flagged by several rules counts once toward ``violating_cells``;
    empty cells count as consistent (they are structural padding) unless
    they sit in a flagged empty row. The consistent and violating cell sets
    are disjoint by construction.
    """
    patterns = patterns or default_entity_patterns()
    violations: list[Violation] = []
    violating: set[tuple[int, int]] = set()
    consistent: set[tuple[int, int]] = set()

    empty_rows = detect_empty_rows(table)
    violations.extend(empty_rows)
    for violation in empty_rows:
        row = table.body_rows[violation.row]
        violating |= {(violation.row, cell.col) for cell in row}

    column_violations, column_consistent, column_violating = _column_analysis(
        table, patterns, threshold
    )
    violations.extend(column_violations)
    consistent |= column_consistent
    violating |= column_violating

    for found in (
        detect_merged_cells(table, patterns, threshold),
        detect_unbalanced_brackets(table),
        detect_delimiter_errors(table, patterns),
    ):
        violations.extend(found)
        violating |= {(v.row, v.col) for v in found}

    for r, row in enumerate(table.body_rows):
        for cell in row:
            if cell.text.strip() == "":
                consistent.add((r, cell.col))
    consistent -= violating

    total = sum(len(row) for row in table.body_rows)
    goodness = len(consistent) / total if total else 0.0
    badness = len(violating) / total if total else 0.0

    column_sizes: dict[int, int] = {}
    column_bad: dict[int, int] = {}
    for r, row in enumerate(table.body_rows):
        for cell in row:
            column_sizes[cell.col] = column_sizes.get(cell.col, 0) + 1
            if (r, cell.col) in violating:
                column_bad[cell.col] = column_bad.get(cell.col, 0) + 1
    max_column_badness = max(
        (column_bad.get(col, 0) / size for col, size in column_sizes.items()),
        default=0.0,
    )

    return ValidationReport(
        violations=tuple(violations),
        coverage=compute_coverage(source, table),
        hallucination_rate=compute_hallucination(source, table),
        goodness_score=goodness,
        badness_score=badness,
        consistent_cells=len(consistent),
        violating_cells=len(violating),
        total_cells=total,
        max_column_badness=max_column_badness,
    )


def is_converged(report: ValidationReport, thresholds: ConvergenceThresholds) -> bool:
    return (
        report.coverage >= thresholds.min_coverage
        and report.hallucination_rate <= thresholds.max_hallucination
        and report.badness_score <= thresholds.max_badness
        and report.goodness_score >= thresholds.min_goodness
    )
