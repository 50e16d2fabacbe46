"""Boundary cases for the work the checker skips: each report equals the
reference implementation's in ``reference_checker.py`` byte for byte.

The checker abandons a column's pattern at the miss that puts the
threshold out of reach, matches numbers in a cell only where the
merged-cell rule can fire, weighs only cells with a missed token for
hallucination, and scans for brackets only in text that holds one. Each
case below sits on the edge of one of those short-circuits.
"""

from __future__ import annotations

import itertools
import math

import pytest

import reference_checker
from tablex.checker import EntityType, run_sanity_check
from tablex.model import SourceText, Table, flatten_table

DIGITS_WORDS = (EntityType("digits", r"\d+"), EntityType("word", r"[A-Za-z]+"))
# a set whose "number" pattern matches words, so a single word is numeric
LETTER_NUMBERS = (EntityType("number", r"[a-z]+"), EntityType("code", r"[A-Z]\d"))


def assert_same_report(table: Table, patterns, threshold: float, source: SourceText | None = None) -> str:
    source = source or flatten_table(table)
    got = run_sanity_check(source, table, patterns, threshold).to_json()
    want = reference_checker.run_sanity_check(source, table, patterns, threshold).to_json()
    assert got == want, (table, patterns, threshold)
    return got


def column_table(n: int, missed: set[int]) -> Table:
    """A digits column whose cells at ``missed`` are words, beside a word column."""
    return Table.from_rows(body=[["zeta" if r in missed else "7", "word"] for r in range(n)])


@pytest.mark.parametrize(
    "threshold, n",
    [(0.75, 4), (0.75, 8), (0.8, 5), (0.8, 10), (1.0, 3), (float("nan"), 4), (1.5, 4)],
)
@pytest.mark.parametrize("below", [False, True], ids=["at", "below"])
def test_column_at_and_below_threshold(threshold, n, below):
    hits = n if math.isnan(threshold) or threshold > 1 else round(threshold * n)
    assert math.isnan(threshold) or threshold > 1 or hits / n == threshold
    hits -= below
    # the misses at every set of positions, first and last included
    for missed in itertools.combinations(range(n), n - hits):
        table = column_table(n, set(missed))
        for patterns in (DIGITS_WORDS, None):
            assert_same_report(table, patterns, threshold)


def test_exact_threshold_column_is_typed():
    table = column_table(4, {0})  # the miss comes first
    report = run_sanity_check(flatten_table(table), table, DIGITS_WORDS, 0.75)
    assert [v.detail for v in report.violations] == ["column 0 reads as digits but mismatches row 0: 'zeta'"]
    assert_same_report(table, DIGITS_WORDS, 0.75)


@pytest.mark.parametrize("threshold", [0.5, 0.8, 1.0])
def test_custom_number_pattern_matches_single_words(threshold):
    # column 0 reads as "number" under [a-z]+, so each lone lower-case word
    # is one numeric token in a labelled cell: a merged cell
    words = ["apple", "pear", "plum", "kiwi", "lime", "sloe", "date", "yuzu", "Fig", "fig 2"]
    codes = ["A1", "B2", "kiwi", "C3", "D4", "E5", "F6", "G7", "H8", "J9"]
    table = Table.from_rows(body=[list(pair) for pair in zip(words, codes)], header=[["fruit", "code"]])
    report = assert_same_report(table, LETTER_NUMBERS, threshold)  # 8 of 10 fruits match
    assert ('"Merged Cell"' in report) == (threshold <= 0.8)


@pytest.mark.parametrize("patterns", [None, DIGITS_WORDS, LETTER_NUMBERS], ids=["default", "digits", "letters"])
@pytest.mark.parametrize("threshold", [0.5, 0.8, 1.0])
def test_multi_token_cells_in_untyped_and_word_columns(patterns, threshold):
    table = Table.from_rows(
        body=[
            ["alpha", "102 205", "a-1", "x y"],
            ["beta", "gamma 7", "b-2", "(1, 2)"],
            ["Cost 750", "delta", "12 ab cd", "3 4 5"],
            ["gamma", "eta", "c-3", "one"],
        ]
    )
    assert_same_report(table, patterns, threshold)


@pytest.mark.parametrize(
    "source",
    ["-- a b c", "a b c", "a -- b", "a b c ++", "a 1 b -- c 2 d"],
    ids=["found-alone", "missed", "found-inside", "other-symbol", "digits-forgotten"],
)
def test_cells_without_alphanumerics(source):
    table = Table.from_rows(
        body=[["--", "a"], ["-- --", "b"], ["--", "c d"], ["+", "-- a"], ["", "--"]],
        header=[["h", "k"]],
    )
    for threshold in (0.5, 0.8):
        assert_same_report(table, None, threshold, SourceText(source))


def test_bracket_only_at_the_end_of_a_long_cell():
    long = "word " * 200
    table = Table.from_rows(
        body=[[long + ")", long + "]"], [long + "(x)", long + "{"], ["x" * 1000 + "}", "y" * 1000]]
    )
    report = assert_same_report(table, None, 0.8)
    assert report.count('"Unbalanced Brackets"') == 4
