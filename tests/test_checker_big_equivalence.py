"""The checker's reports equal the reference's on long tables: 1,000 to
1,200 rows of 8 to 10 columns, with every rule family planted, spans,
ragged and blank rows, a column that nothing judges, and a source that
has dropped, extended and invented tokens."""

from __future__ import annotations

import random

from tablex.checker import Rule, check_column, run_sanity_check
from tablex.model import SourceText, Table, flatten_table

from test_checker_equivalence import THRESHOLDS, VOCAB, assert_same_reports

# The column kinds, in order; "unjudged" cells rotate through five
# signatures that no entity pattern matches, so no signature reaches even
# the 0.5 threshold and the column is judged by nothing.
KINDS = ("number", "date", "word", "mixed", "number", "word", "date", "number", "unjudged", "word")
UNJUDGED = ["a-1", "x7", "--", "p q", "7!"]
# more split-number and bracket faults: a dangling period, crossed brackets
FAULTS = VOCAB["fault"] + ["7.", "3.5.", "[1)", "{a}}"]


def big_table(rng: random.Random, rows: int, width: int, normalized: bool) -> Table:
    """A long table with every rule family planted, spans and blank rows,
    and in some rows a token unique to the row."""
    body = []
    for r in range(rows):
        if rng.random() < 0.02:
            body.append([rng.choice(VOCAB["blank"]) for _ in range(width)])
            continue
        row = []
        for kind in KINDS[:width]:
            if kind == "unjudged":
                text = UNJUDGED[r % len(UNJUDGED)]
            elif kind == "word" and rng.random() < 0.05:
                text = f"q{r}z"
            else:
                pool = rng.choices([VOCAB[kind], FAULTS, VOCAB["blank"]], weights=(88, 8, 4))[0]
                text = rng.choice(pool)
            row.append((text, rng.randint(1, 3), rng.randint(1, 2)) if rng.random() < 0.01 else text)
        body.append(row)
    header = [[f"H{c}" for c in range(width)]]
    return Table.from_rows(body=body, header=header, normalized=normalized)


def drifted_source(rng: random.Random, table: Table) -> SourceText:
    """The table's text with tokens dropped, some extended so that only a
    substring of them survives, and invented tokens added."""
    tokens = []
    for tok in flatten_table(table).raw.split():
        roll = rng.random()
        if roll < 0.05:
            continue
        tokens.append(tok + "s" if roll < 0.08 else tok)
        if rng.random() < 0.02:
            tokens.append(f"invented{len(tokens)}")
    return SourceText(" ".join(tokens))


def test_matches_reference_on_big_tables():
    rng = random.Random(20261019)
    for rows, width, normalized in ((1000, 10, True), (1100, 9, False), (1200, 8, True)):
        table = big_table(rng, rows, width, normalized)
        source = drifted_source(rng, table)
        assert_same_reports(source, table)
        report = run_sanity_check(source, table)
        assert {v.rule for v in report.violations} == set(Rule)
        assert report.coverage < 1.0 and report.hallucination_rate > 0.0
        if width > KINDS.index("unjudged"):
            col = KINDS.index("unjudged")
            texts = table.body_columns()[col]
            for threshold in THRESHOLDS:
                entity, flagged, unfit_rows = check_column(texts, col, None, threshold)
                assert (entity, flagged) == (None, []) and len(unfit_rows) > rows // 2
