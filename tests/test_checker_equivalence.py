"""The checker's reports equal those of the reference implementation in
``reference_checker.py`` byte for byte: on the corpus fixtures, the
balance sheet and seeded random tables with spans, ragged rows and blank
cells, at several consistency thresholds and entity pattern sets."""

from __future__ import annotations

import random

import reference_checker
from tablex.checker import EntityType, default_entity_patterns, run_sanity_check
from tablex.model import SourceText, Table, flatten_table

THRESHOLDS = (0.5, 0.8, 1.0)
RANDOM_TABLES = 5000

# Cell texts by the kind of column they are drawn for; every rule family
# has triggers here (merged values, split numbers, brackets, blanks).
VOCAB = {
    "number": ["1", "12", "345", "2.5", "-3", "1,234", "42%", "95±15.97", "7", "300"],
    "date": ["2021-03-01", "3/4/2021", "Mar 3, 2021", "2022/07/14"],
    "word": ["alpha", "beta", "Revenue", "Cost", "gamma", "Total"],
    "mixed": ["a-1", "x7", "b-2", "(GO:0006412)", "10:30", "a@b.com", "www.x.org", "--"],
    "fault": ["102, 205", "Revenue 750", "(1, 2", "(a", "ok)", "[a(b]", "1,", "hello world", "12"],
    "blank": ["", " ", "\t"],
}
KINDS = ["number", "date", "word", "mixed"]

PATTERN_SETS = (
    None,
    (EntityType("digits", r"\d+"), EntityType("word", r"[A-Za-z]+")),  # no "number" kind
    tuple(sorted(default_entity_patterns(), key=lambda e: e.kind != "number")),
)


def assert_same_reports(source: SourceText, table: Table, patterns=None) -> None:
    for threshold in THRESHOLDS:
        got = run_sanity_check(source, table, patterns, threshold).to_json()
        want = reference_checker.run_sanity_check(source, table, patterns, threshold).to_json()
        assert got == want, (table, patterns, threshold)


def random_cell(rng: random.Random, kind: str):
    pool = rng.choices([kind, "fault", "blank", rng.choice(KINDS)], weights=(70, 15, 10, 5))[0]
    text = rng.choice(VOCAB[pool])
    if rng.random() < 0.08:
        return (text, rng.randint(1, 2), rng.randint(1, 2))
    return text


def random_table(rng: random.Random) -> Table:
    kinds = [rng.choice(KINDS) for _ in range(rng.randint(1, 5))]
    body = []
    for _ in range(rng.randint(0, 8)):
        width = len(kinds) if rng.random() < 0.7 else rng.randint(0, len(kinds) + 1)
        body.append([random_cell(rng, kinds[c % len(kinds)]) for c in range(width)])
    header = [[rng.choice(VOCAB["word"]) for _ in kinds]] if rng.random() < 0.5 else []
    return Table.from_rows(body=body, header=header, normalized=rng.random() < 0.6)


def test_matches_reference_on_corpus_fixtures(corrupted_corpus):
    for fx in corrupted_corpus:
        table = Table.from_rows(body=fx["rows"], header=fx["header"])
        assert_same_reports(flatten_table(table), table)


def test_matches_reference_on_balance_sheet(balance_sheet_source, balance_sheet_gold):
    assert_same_reports(balance_sheet_source, balance_sheet_gold)


def test_matches_reference_on_random_tables():
    rng = random.Random(20240917)
    for index in range(RANDOM_TABLES):
        table = random_table(rng)
        source = flatten_table(table)
        if rng.random() < 0.3:
            source = SourceText(source.raw + " " + " ".join(rng.choice(VOCAB["word"]) for _ in range(3)))
        assert_same_reports(source, table, PATTERN_SETS[index % len(PATTERN_SETS)])
