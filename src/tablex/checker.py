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
from array import array
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass, fields
from enum import Enum
from functools import cached_property, lru_cache
from importlib import resources
from itertools import accumulate, chain, compress, count, repeat
from operator import add, attrgetter, itemgetter, not_
from typing import Iterable, NamedTuple, Sequence

from .errors import check_fields
from .model import SourceText, Table

DEFAULT_CONSISTENCY_THRESHOLD = 0.8

_BRACKET_PAIRS = {")": "(", "]": "[", "}": "{"}
_OPENERS = set(_BRACKET_PAIRS.values())
_DANGLING_RE = re.compile(r"\d[,.]$")
_BRACKET_RE = re.compile(r"[()\[\]{}]")
# What the row pass looks for in the "\x00"-joined body, with ``str.find``
# (a regex character class scans many times slower): the brackets, the
# separators that end a cell as ``_DANGLING_RE`` needs, and every character
# for which ``str.isspace`` holds, which are those ``str.split`` splits on.
_BRACKETS = tuple("()[]{}")
_DANGLING = (",\x00", ".\x00")
_SPACES = tuple(
    "\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f \x85\xa0\u1680\u2000\u2001\u2002\u2003\u2004\u2005"
    "\u2006\u2007\u2008\u2009\u200a\u2028\u2029\u202f\u205f\u3000"
)


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
    data = resources.files("tablex").joinpath("data/entity_patterns.json").read_text(encoding="utf-8")
    return parse_entity_patterns(data)


def parse_entity_patterns(text: str) -> tuple[EntityType, ...]:
    """A pattern set from its JSON text, a priority-ordered array of kind/pattern objects (the CLI
    reads a ``--patterns`` file with ``bench.read_text``, so this module reads no user file); a
    malformed set or a pattern that does not compile is a ``ValueError``."""
    try:
        patterns = tuple(EntityType(e["kind"], e["pattern"]) for e in json.loads(text))
        for entity in patterns:
            entity.regex  # compile now, so a pattern that does not compile fails the load
        return patterns
    except (KeyError, TypeError) as exc:
        raise ValueError(f"not a list of kind/pattern objects: {exc!r}") from exc
    except re.error as exc:
        raise ValueError(f"invalid regex {exc.pattern!r}: {exc}") from exc
    except RecursionError as exc:  # JSON nested deeper than the decoder recurses
        raise ValueError(f"not valid JSON: {exc}") from exc


class Signature(NamedTuple):
    """Syntactic fingerprint of a cell: which character classes occur."""

    has_digits: bool = False
    has_letters: bool = False
    has_punct: bool = False
    has_whitespace: bool = False

    @classmethod
    def of_text(cls, text: str) -> "Signature":
        return cls(
            any(map(str.isdigit, text)),
            any(map(str.isalpha, text)),
            any(not ch.isalnum() and not ch.isspace() for ch in text),
            any(map(str.isspace, text)),
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
        scores = {field.name: getattr(self, field.name) for field in fields(self)}
        return {**scores, "violations": [v.to_dict() for v in self.violations]}

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
) -> tuple[EntityType | None, list[Violation], list[int]]:
    """Type one body column and judge its cells from the same matches.

    The column's entity type is the first of ``patterns`` (their order is
    the tie-break priority) that matches at least ``threshold`` of the
    non-empty cells; it flags the non-empty cells it does not match. An
    untyped column flags the non-empty cells off the signature that at
    least ``threshold`` of them share, and judges nothing when no signature
    is that common. Returns the entity type, its violations and the rows of
    the non-empty cells that do not fit (or are unjudged).

    Each distinct stripped text is matched once per pattern, and a miss
    counts as many cells as hold that text. A pattern stops being matched
    at the miss that puts the threshold out of its reach, so a losing
    pattern costs one match per distinct text only up to that miss. A
    signature is taken once per distinct raw text, since its whitespace
    flag reads the text's surrounding whitespace. Only a column with
    outliers walks its cells again, to list their rows.
    """
    if patterns is None:
        patterns = default_entity_patterns()
    stripped = list(map(str.strip, texts))
    counts = Counter(stripped)
    n = len(stripped) - counts.pop("", 0)
    if not n:
        return None, [], []
    for entity in patterns:
        missed, misses = set(), 0
        for text, k in counts.items():
            if not entity.matches(text):
                missed.add(text)
                misses += k
                # the final share is monotone in the misses, so once even
                # all the texts left cannot lift it the pattern is out
                if (n - misses) / n < threshold:
                    break
        if (n - misses) / n >= threshold:
            claim = f"reads as {entity.kind} but mismatches"
            keys = stripped
            break
    else:
        entity = None
        raw = Counter(compress(texts, stripped))
        signatures: dict[str, Signature] = {}
        shares: dict[Signature, int] = {}
        for text, k in raw.items():
            signatures[text] = sig = Signature.of_text(text)
            shares[sig] = shares.get(sig, 0) + k
        common, share = max(shares.items(), key=itemgetter(1))  # the first of the most common
        if share / n < threshold:
            return None, [], list(compress(count(), stripped))
        missed = {text for text, sig in signatures.items() if sig != common}
        claim = "signature outliers"
        keys = texts
    if not missed:
        return entity, [], []
    rows = list(compress(count(), map(missed.__contains__, keys)))
    where = "; ".join(f"row {r}: {texts[r]!r}" for r in rows)
    violation = Violation(Rule.INCONSISTENT_COLUMN, row=None, col=col, detail=f"column {col} {claim} {where}")
    return entity, [violation], rows


def _has_unbalanced_brackets(text: str) -> bool:
    """Whether ``text`` has an unmatched or crossing (), [] or {} pair; a
    text without a bracket costs one regex search."""
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


def _cells_holding(texts: Sequence[str], joined: str, needles: Iterable[str]) -> set[int]:
    """Indices of the ``texts`` in whose span of ``joined``, their
    "\x00"-join, one of ``needles`` starts: one ``str.find`` per such text
    and needle, so the cost in Python grows with the hits only."""
    cells: set[int] = set()
    ends = None
    for needle in needles:
        at = joined.find(needle)
        while at >= 0:
            if ends is None:  # where each text's "\x00" sits
                ends = array("q", map(add, accumulate(map(len, texts)), count()))
            i = bisect_left(ends, at)
            cells.add(i)
            at = joined.find(needle, ends[i] + 1)
    return cells


# ---------------------------------------------------------------------------
# Coverage and hallucination
# ---------------------------------------------------------------------------


def _alnum_len(text: str) -> int:
    return sum(map(str.isalnum, text))


def compute_coverage(source: SourceText, table: Table) -> float:
    """Fraction of the source's alphanumeric characters preserved in the
    table: 1 - uncovered/total. A source token is covered while the table's
    token multiset still has an identical token to consume. Each table text
    is split once, with ``str.split``, into that multiset."""
    total = source.alnum_count
    if total == 0:
        return 1.0
    texts = map(attrgetter("text"), chain.from_iterable(table.rows))
    table_tokens = Counter(chain.from_iterable(map(str.split, texts)))
    source_tokens = Counter(source.tokens)
    if source_tokens.items() <= table_tokens.items():  # the table holds each source token as often
        return 1.0
    missing = source_tokens - table_tokens
    uncovered = sum(count * _alnum_len(tok) for tok, count in missing.items())
    return 1.0 - uncovered / total


def compute_hallucination(source: SourceText, table: Table) -> float:
    """Mean over body rows of the mean per-cell uncovered fraction.

    A cell's coverage is the alphanumeric-weighted fraction of its tokens
    that occur as substrings of the raw source, so any contiguous excerpt
    of the source scores 1, partial matches included; a cell without
    alphanumerics counts as covered. A token holds no whitespace, so it
    occurs in the raw source exactly when it occurs in one source token.
    Only a cell with a token not found is weighed: one whose tokens are all
    found scores 0 whatever its alphanumerics, and so does a row whose
    tokens are all source tokens, which one set test of the row finds.
    Each other distinct token scans the raw source once per call: the cost
    is linear in the source and the table, plus O(|source|) per such token.
    """
    rows = table.body_rows
    if not rows:
        return 0.0
    in_source = set(source.tokens)
    scanned: dict[str, bool] = {}  # whether the raw source holds a token outside ``in_source``

    def found(tok: str) -> bool:
        hit = tok in in_source or scanned.get(tok)
        if hit is None:
            hit = scanned[tok] = tok in source.raw
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

    # a row whose tokens are all source tokens, an empty one included, scores 0
    row_texts = map(map, repeat(attrgetter("text")), rows)
    clean = map(in_source.issuperset, map(str.split, map(" ".join, row_texts)))
    total = 0.0
    for row in compress(rows, map(not_, clean)):
        total += sum(map(uncovered, map(attrgetter("text"), row))) / len(row)
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
    """Run every rule and aggregate scores.

    The column pass types each body column and judges its cells
    (``check_column``). The row pass then applies the empty-row,
    merged-cell, bracket and split-number rules, stripping each cell once;
    the merged-cell rule reads which columns the column pass typed as
    numbers. A row is walked cell by cell only where a scan of the whole
    body finds a cell in which one of those rules can fire: a bracket, a
    "," or "." that ends a cell, a blank inside a cell, two neighbouring
    digit cells, or a letter in a number column. In such a row, every
    non-empty cell is tested by the bracket and the dangling-separator
    filters. Violations are reported in ``Rule`` order, each rule's in row
    order. A cell flagged by several rules counts once toward
    ``violating_cells``; a body cell is consistent when it is neither unfit
    for its column nor violating.
    """
    if patterns is None:
        patterns = default_entity_patterns()
    number = next((e for e in patterns if e.kind == "number"), None)
    found: dict[Rule, list[Violation]] = {rule: [] for rule in Rule}
    number_columns: set[int] = set()
    unfit: set[tuple[int, int]] = set()
    violating: set[tuple[int, int]] = set()
    columns = table.body_columns()
    for col, column in enumerate(columns):
        entity, flagged, unfit_rows = check_column(column, col, patterns, threshold)
        found[Rule.INCONSISTENT_COLUMN] += flagged
        unfit.update((r, col) for r in unfit_rows)
        if flagged:
            violating.update((r, col) for r in unfit_rows)
        if entity is not None and entity.kind == "number":
            number_columns.add(col)

    def flag(rule: Rule, r: int, col: int | None, detail: str) -> None:
        found[rule].append(Violation(rule, row=r, col=col, detail=detail))
        if col is not None:
            violating.add((r, col))

    body = table.body_rows
    texts = list(map(str.strip, map(attrgetter("text"), chain.from_iterable(body))))
    bounds = array("q", accumulate(map(len, body), initial=0))  # row r holds texts[bounds[r]:bounds[r + 1]]
    if "" in texts:
        # the rows with cells, less those that a non-empty text sits in
        filled = compress(chain.from_iterable(map(repeat, count(), map(len, body))), texts)
        for r in sorted(set(compress(count(), body)).difference(filled)):
            flag(Rule.EMPTY_ROW, r, None, f"body row {r} is blank")
            violating.update((r, cell.col) for cell in body[r])
    # the cells in which a row rule can fire: a cell of several tokens holds
    # a blank, and a split digit group is a digit cell before another
    needles = _BRACKETS + _DANGLING + (_SPACES if number is not None else ())
    hits = _cells_holding(texts, "\x00".join(texts), needles)
    digit_cells = set(compress(count(), map(str.isdigit, texts)))
    hits.update(i for i in digit_cells if i + 1 in digit_cells and len(texts[i]) <= 3 and len(texts[i + 1]) == 3)
    rows = {bisect_right(bounds, i) - 1 for i in hits}
    for col in number_columns:  # a word that labels a number needs a letter
        joined = "\x00".join(columns[col])
        if not joined.isascii() or joined.upper() != joined.lower():  # ASCII letters are all cased
            letters = [ch for ch in set(joined) if ch.isalpha()]
            rows.update(_cells_holding(columns[col], joined, letters))
    for r in sorted(rows):
        row = body[r]
        stripped = texts[bounds[r] : bounds[r + 1]]
        for j, (cell, text) in enumerate(zip(row, stripped)):
            if not text:
                continue
            # merged: several numeric tokens ("102, 205"), or a number and
            # a word in a column that reads as numbers ("Revenue 750"); one
            # unlabelled token cannot fire the rule, whatever it matches
            tokens = text.split()
            if number is not None and (len(tokens) >= 2 or cell.col in number_columns):
                cores = [tok.strip(string.punctuation) for tok in tokens]
                labelled = cell.col in number_columns and any(core.isalpha() for core in cores)
                numeric = sum(1 for core in cores if core and number.matches(core)) if len(cores) >= 2 or labelled else 0
                if numeric >= 2 or (numeric == 1 and labelled):
                    flag(Rule.MERGED_CELL, r, cell.col, f"cell {cell.text!r} holds {numeric} numeric tokens")
            if _has_unbalanced_brackets(text):
                flag(Rule.UNBALANCED_BRACKETS, r, cell.col, f"cell {cell.text!r} has unbalanced brackets")
            # one number split over this cell and the next: a dangling
            # separator ("1,") or a short digit group before three digits
            if j + 1 < len(row):
                right = stripped[j + 1]
                fragmented = text.isdigit() and len(text) <= 3 and right.isdigit() and len(right) == 3
                if fragmented or _DANGLING_RE.search(text) is not None:
                    flag(Rule.DELIMITER_ERROR, r, cell.col, f"cells {text!r} | {right!r} look like a split number")

    consistent = len(texts) - len(unfit) - len(violating - unfit)
    column_sizes = Counter(map(attrgetter("col"), chain.from_iterable(body)))
    column_bad = Counter(col for _, col in violating)
    total = sum(column_sizes.values())
    return ValidationReport(
        violations=tuple(v for hits in found.values() for v in hits),
        coverage=compute_coverage(source, table),
        hallucination_rate=compute_hallucination(source, table),
        goodness_score=consistent / total if total else 0.0,
        badness_score=len(violating) / total if total else 0.0,
        consistent_cells=consistent,
        violating_cells=len(violating),
        total_cells=total,
        max_column_badness=max((column_bad[col] / size for col, size in column_sizes.items()), default=0.0),
    )


def is_converged(report: ValidationReport, thresholds: ConvergenceThresholds) -> bool:
    return (
        report.coverage >= thresholds.min_coverage
        and report.hallucination_rate <= thresholds.max_hallucination
        and report.badness_score <= thresholds.max_badness
        and report.goodness_score >= thresholds.min_goodness
    )
