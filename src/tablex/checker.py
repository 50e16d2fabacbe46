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
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from importlib import resources
from pathlib import Path
from typing import Sequence

from .model import SourceText, Table

DEFAULT_CONSISTENCY_THRESHOLD = 0.8

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


def check_column(
    texts: Sequence[str],
    col: int,
    entity: EntityType | None,
    threshold: float = DEFAULT_CONSISTENCY_THRESHOLD,
) -> tuple[list[Violation], set[tuple[int, int]], set[tuple[int, int]]]:
    """Entity and signature consistency of one body column.

    A typed column flags the non-empty cells its entity type does not
    match. An untyped column flags the non-empty cells off the signature
    that at least ``threshold`` of them share, and flags nothing when no
    signature is that common. Returns the violations and the consistent
    and violating (row, col) positions.
    """
    present = [(r, text) for r, text in enumerate(texts) if text.strip()]
    if entity is not None:
        fits = [entity.matches(text) for _, text in present]
        claim = f"reads as {entity.kind} but mismatches"
    else:
        signatures = [Signature.of_text(text) for _, text in present]
        common = Counter(signatures).most_common(1)
        if not common or common[0][1] / len(present) < threshold:
            return [], set(), set()
        fits = [sig == common[0][0] for sig in signatures]
        claim = "signature outliers"
    consistent = {(r, col) for (r, _), fit in zip(present, fits) if fit}
    outliers = [(r, text) for (r, text), fit in zip(present, fits) if not fit]
    if not outliers:
        return [], consistent, set()
    where = "; ".join(f"row {r}: {text!r}" for r, text in outliers)
    violation = Violation(
        Rule.INCONSISTENT_COLUMN, row=None, col=col, detail=f"column {col} {claim} {where}"
    )
    return [violation], consistent, {(r, col) for r, _ in outliers}


def detect_merged_cells(
    table: Table,
    entities: Sequence[EntityType | None],
    patterns: Sequence[EntityType] | None = None,
) -> list[Violation]:
    """Flag body cells that look like several values collapsed into one:
    two or more numeric tokens (e.g. "102, 205"), or a numeric token mixed
    with words inside a column that reads as numbers (e.g. "Revenue 750").
    ``entities`` holds each body column's ``detect_entity_type`` result."""
    patterns = patterns or default_entity_patterns()
    number = next((e for e in patterns if e.kind == "number"), None)
    violations = []
    for r, row in enumerate(table.body_rows):
        for cell in row:
            cores = [tok.strip(string.punctuation) for tok in cell.text.split()]
            numeric = sum(1 for core in cores if core and number is not None and number.matches(core))
            alpha = sum(1 for core in cores if core.isalpha())
            entity = entities[cell.col]
            in_number_column = entity is not None and entity.kind == "number"
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


def detect_delimiter_errors(table: Table) -> list[Violation]:
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
    table_tokens = Counter(tok for cell in table.cells() for tok in cell.text.split())
    missing = Counter(source.tokens) - table_tokens
    uncovered = sum(count * _alnum_len(tok) for tok, count in missing.items())
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

    Each body column's entity type is detected once and shared by the
    column and merged-cell rules. A cell flagged by several rules counts
    once toward ``violating_cells``; empty cells count as consistent (they
    are structural padding) unless they sit in a flagged empty row. The
    consistent and violating cell sets are disjoint by construction.
    """
    patterns = patterns or default_entity_patterns()
    body = table.body_rows
    columns = table.body_columns()
    entities = [detect_entity_type(texts, patterns, threshold) for texts in columns]

    violations = detect_empty_rows(table)
    violating = {(v.row, cell.col) for v in violations for cell in body[v.row]}
    consistent = {(r, cell.col) for r, row in enumerate(body) for cell in row if not cell.text.strip()}
    for col, (texts, entity) in enumerate(zip(columns, entities)):
        found, good, bad = check_column(texts, col, entity, threshold)
        violations += found
        consistent |= good
        violating |= bad
    for found in (
        detect_merged_cells(table, entities, patterns),
        detect_unbalanced_brackets(table),
        detect_delimiter_errors(table),
    ):
        violations += found
        violating |= {(v.row, v.col) for v in found}
    consistent -= violating

    column_sizes = Counter(cell.col for row in body for cell in row)
    column_bad = Counter(col for _, col in violating)
    total = sum(column_sizes.values())
    return ValidationReport(
        violations=tuple(violations),
        coverage=compute_coverage(source, table),
        hallucination_rate=compute_hallucination(source, table),
        goodness_score=len(consistent) / total if total else 0.0,
        badness_score=len(violating) / total if total else 0.0,
        consistent_cells=len(consistent),
        violating_cells=len(violating),
        total_cells=total,
        max_column_badness=max(
            (column_bad[col] / size for col, size in column_sizes.items()), default=0.0
        ),
    )


def is_converged(report: ValidationReport, thresholds: ConvergenceThresholds) -> bool:
    return (
        report.coverage >= thresholds.min_coverage
        and report.hallucination_rate <= thresholds.max_hallucination
        and report.badness_score <= thresholds.max_badness
        and report.goodness_score >= thresholds.min_goodness
    )
