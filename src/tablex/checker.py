"""Symbolic validation of a candidate table against its source text.

Six rule families in two passes over the table body, plus four scores:
coverage, hallucination rate, goodness and badness. The column pass
(``check_column``) types each column by entity pattern and judges its
cells from the same matches: entity consistency, or signature analysis
when no pattern fits. The row pass in ``run_sanity_check`` applies the
empty-row, merged-cell, bracket and split-number (delimiter) rules. Header
rows are exempt from the rules (headers legitimately mix formats) but
participate in coverage; all functions here are pure and safe for
concurrent use.
"""

from __future__ import annotations

import json
import re
import string
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache
from importlib import resources
from pathlib import Path
from typing import Sequence

from .errors import check_fields
from .model import SourceText, Table

DEFAULT_CONSISTENCY_THRESHOLD = 0.8

_BRACKET_PAIRS = {")": "(", "]": "[", "}": "{"}
_OPENERS = set(_BRACKET_PAIRS.values())
_DANGLING_RE = re.compile(r"\d[,.]$")
_BRACKET_RE = re.compile(r"[()\[\]{}]")


class Rule(Enum):
    """The rule families, in the order a report lists their violations."""

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

    @cached_property
    def regex(self) -> re.Pattern:
        return re.compile(self.pattern)

    def matches(self, text: str) -> bool:
        return self.regex.fullmatch(text.strip()) is not None


@lru_cache(maxsize=1)
def default_entity_patterns() -> tuple[EntityType, ...]:
    data = resources.files("tablex").joinpath("data/entity_patterns.json").read_text()
    return _patterns_from_json(data)


def load_entity_patterns(path: str | Path) -> tuple[EntityType, ...]:
    """Load an entity pattern set (priority-ordered JSON array) from disk;
    a malformed set or a pattern that does not compile is a ``ValueError``."""
    return _patterns_from_json(Path(path).read_text())


def _patterns_from_json(data: str) -> tuple[EntityType, ...]:
    try:
        patterns = tuple(EntityType(e["kind"], e["pattern"]) for e in json.loads(data))
        for entity in patterns:
            entity.regex  # compile now, so a pattern that does not compile fails the load
        return patterns
    except (KeyError, TypeError) as exc:
        raise ValueError(f"not a list of kind/pattern objects: {exc!r}") from exc
    except re.error as exc:
        raise ValueError(f"invalid regex {exc.pattern!r}: {exc}") from exc


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
    value (0.0 for minima, 1.0 for maxima) disables that check. Any real
    number but NaN is accepted, infinities included: the scores lie in
    [0, 1], so past 0.0 or 1.0 a bound is unreachable or vacuous."""

    min_coverage: float = 0.90
    max_hallucination: float = 0.20
    max_badness: float = 0.30
    min_goodness: float = 0.50

    def __post_init__(self) -> None:
        check_fields(self)


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

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# Rules: one pass per column, one pass over the body rows
# ---------------------------------------------------------------------------


def check_column(
    texts: Sequence[str],
    col: int,
    patterns: Sequence[EntityType] | None = None,
    threshold: float = DEFAULT_CONSISTENCY_THRESHOLD,
) -> tuple[EntityType | None, list[Violation], set[tuple[int, int]], set[tuple[int, int]]]:
    """Type one body column and judge its cells from the same matches.

    The column's entity type is the first of ``patterns`` (their order is
    the tie-break priority) that matches at least ``threshold`` of the
    non-empty cells; it flags the non-empty cells it does not match. An
    untyped column flags the non-empty cells off the signature that at
    least ``threshold`` of them share, and judges nothing when no signature
    is that common. Returns the entity type, the violations and the
    consistent and violating (row, col) positions.

    A pattern stops being matched at the miss that puts the threshold out
    of its reach, so a losing pattern costs one match per cell only up to
    that miss; the winning pattern matches every non-empty cell once.
    """
    if patterns is None:
        patterns = default_entity_patterns()
    present = [(r, text) for r, text in enumerate(texts) if text.strip()]
    if not present:
        return None, [], set(), set()
    n = len(present)
    for entity in patterns:
        fits, misses = [], 0
        for _, text in present:
            fit = entity.matches(text)
            fits.append(fit)
            # the final share k / n is monotone in k, so once even all the
            # cells left cannot lift it to the threshold the pattern is out
            if not fit:
                misses += 1
                if (n - misses) / n < threshold:
                    break
        if (n - misses) / n >= threshold:
            claim = f"reads as {entity.kind} but mismatches"
            break
    else:
        entity = None
        signatures = [Signature.of_text(text) for _, text in present]
        common, count = Counter(signatures).most_common(1)[0]
        if count / len(present) < threshold:
            return None, [], set(), set()
        fits = [sig == common for sig in signatures]
        claim = "signature outliers"
    consistent = {(r, col) for (r, _), fit in zip(present, fits) if fit}
    outliers = [(r, text) for (r, text), fit in zip(present, fits) if not fit]
    if not outliers:
        return entity, [], consistent, set()
    where = "; ".join(f"row {r}: {text!r}" for r, text in outliers)
    violation = Violation(
        Rule.INCONSISTENT_COLUMN, row=None, col=col, detail=f"column {col} {claim} {where}"
    )
    return entity, [violation], consistent, {(r, col) for r, _ in outliers}


def _has_unbalanced_brackets(text: str) -> bool:
    """Whether ``text`` has an unmatched or crossing (), [] or {} pair."""
    if _BRACKET_RE.search(text) is None:
        return False
    stack: list[str] = []
    for ch in text:
        if ch in _OPENERS:
            stack.append(ch)
        elif ch in _BRACKET_PAIRS:
            if not stack or stack.pop() != _BRACKET_PAIRS[ch]:
                return True
    return bool(stack)


# ---------------------------------------------------------------------------
# Coverage and hallucination
# ---------------------------------------------------------------------------


def _alnum_len(text: str) -> int:
    return sum(1 for ch in text if ch.isalnum())


def compute_coverage(source: SourceText, table: Table) -> float:
    """Fraction of the source's alphanumeric characters preserved in the
    table: 1 - uncovered/total. A source token is covered while the table's
    token multiset still has an identical token to consume."""
    total = source.alnum_count
    if total == 0:
        return 1.0
    table_tokens = Counter(tok for cell in table.cells() for tok in cell.text.split())
    missing = Counter(source.tokens) - table_tokens
    uncovered = sum(count * _alnum_len(tok) for tok, count in missing.items())
    return 1.0 - uncovered / total


def compute_hallucination(source: SourceText, table: Table) -> float:
    """Mean over body rows of the mean per-cell uncovered fraction.

    A cell's coverage is the alphanumeric-weighted fraction of its tokens
    that occur as substrings of the raw source, so any contiguous excerpt
    of the source scores 1, partial matches included; a cell without
    alphanumerics counts as covered. A token holds no whitespace, so it
    occurs in the raw source exactly when it occurs in one source token.
    A token equal to a source token is answered from their set, and each
    other distinct token scans the raw source once per call: the cost is
    linear in the source and the table, plus O(|source|) per such token.
    Only a cell with a token not found is weighed: one whose tokens are all
    found scores 0 whatever its alphanumerics, so they go uncounted.
    """
    rows = table.body_rows
    if not rows:
        return 0.0
    in_source = dict.fromkeys(source.tokens, True)

    def found(tok: str) -> bool:
        hit = in_source.get(tok)
        if hit is None:
            hit = in_source[tok] = tok in source.raw
        return hit

    def uncovered(text: str) -> float:
        missed = [tok for tok in text.split() if not found(tok)]
        if not missed:
            return 0.0  # as 1.0 - denom / denom, or a cell without alphanumerics
        denom = _alnum_len(text)
        if denom == 0:
            return 0.0
        # whitespace is never alphanumeric, so ``denom`` sums the tokens' weights
        matched = denom - sum(_alnum_len(tok) for tok in missed)
        return 1.0 - matched / denom

    total = 0.0
    for row in rows:
        if not row:
            continue
        total += sum(uncovered(cell.text) for cell in row) / len(row)
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
    """Run every rule and aggregate scores in one walk of the body.

    The column pass types each body column and judges its cells
    (``check_column``). The row pass then applies the empty-row,
    merged-cell, bracket and split-number rules, stripping each cell once;
    the merged-cell rule reads which columns the column pass typed as
    numbers. Violations are reported in ``Rule`` order, each rule's in row
    order.

    A cell flagged by several rules counts once toward ``violating_cells``;
    empty cells count as consistent (they are structural padding) unless
    they sit in a flagged empty row. The consistent and violating cell sets
    are disjoint by construction.
    """
    if patterns is None:
        patterns = default_entity_patterns()
    number = next((e for e in patterns if e.kind == "number"), None)
    found: dict[Rule, list[Violation]] = {rule: [] for rule in Rule}
    number_columns: set[int] = set()
    consistent: set[tuple[int, int]] = set()
    violating: set[tuple[int, int]] = set()
    for col, texts in enumerate(table.body_columns()):
        entity, flagged, good, bad = check_column(texts, col, patterns, threshold)
        found[Rule.INCONSISTENT_COLUMN] += flagged
        consistent |= good
        violating |= bad
        if entity is not None and entity.kind == "number":
            number_columns.add(col)

    def flag(rule: Rule, r: int, col: int | None, detail: str) -> None:
        found[rule].append(Violation(rule, row=r, col=col, detail=detail))
        if col is not None:
            violating.add((r, col))

    body = table.body_rows
    for r, row in enumerate(body):
        stripped = [cell.text.strip() for cell in row]
        if row and not any(stripped):
            flag(Rule.EMPTY_ROW, r, None, f"body row {r} is blank")
            violating |= {(r, cell.col) for cell in row}
        for j, (cell, text) in enumerate(zip(row, stripped)):
            if not text:
                consistent.add((r, cell.col))
                continue
            # merged: several numeric tokens ("102, 205"), or a number and
            # a word in a column that reads as numbers ("Revenue 750")
            cores = [tok.strip(string.punctuation) for tok in text.split()]
            labelled = cell.col in number_columns and any(core.isalpha() for core in cores)
            numeric = 0  # one unlabelled token cannot fire the rule, whatever it matches
            if number is not None and (len(cores) >= 2 or labelled):
                numeric = sum(1 for core in cores if core and number.matches(core))
            if numeric >= 2 or (numeric == 1 and labelled):
                flag(Rule.MERGED_CELL, r, cell.col,
                     f"cell {cell.text!r} holds {numeric} numeric tokens")
            if _has_unbalanced_brackets(text):
                flag(Rule.UNBALANCED_BRACKETS, r, cell.col,
                     f"cell {cell.text!r} has unbalanced brackets")
            # one number split over this cell and the next: a dangling
            # separator ("1,") or a short digit group before three digits
            if j + 1 < len(row):
                right = stripped[j + 1]
                fragmented = text.isdigit() and len(text) <= 3 and right.isdigit() and len(right) == 3
                if fragmented or _DANGLING_RE.search(text) is not None:
                    flag(Rule.DELIMITER_ERROR, r, cell.col,
                         f"cells {text!r} | {right!r} look like a split number")
    consistent -= violating

    column_sizes = Counter(cell.col for row in body for cell in row)
    column_bad = Counter(col for _, col in violating)
    total = sum(column_sizes.values())
    return ValidationReport(
        violations=tuple(v for hits in found.values() for v in hits),
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
