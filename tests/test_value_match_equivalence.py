"""``column_value_match`` in ``tablex.metrics``, the multiset intersection
of normalized body columns, against the greedy first-unused matching it
replaced (``tests/reference_value_match.py``).

Exact ``==`` on seeded table pairs. Columns are drawn from a small pool, so
gold and prediction often repeat a column, and a prediction is built from
its gold's columns: reordered, duplicated, dropped, re-spaced (equal after
normalization) or edited. Tables may be ragged (``normalized=False``),
carry row and column spans, have no body rows, or have no cells at all.
"""

from __future__ import annotations

import random

from tablex.metrics import column_value_match
from tablex.model import Table

from reference_value_match import column_value_match as reference_value_match

PAIRS = 20_000

TEXTS = ["a", "b", "1", "a b", "", "x"]
SPACED = {"a": [" a", "a ", "\ta\n"], "a b": ["a  b", " a\tb ", "a\xa0b"], "": [" ", "\n"], "1": ["1 "]}


def _respace(rng: random.Random, column: list[str]) -> list[str]:
    return [rng.choice(SPACED[text]) if text in SPACED and rng.random() < 0.5 else text for text in column]


def _column_pool(rng: random.Random, height: int) -> list[list[str]]:
    return [[rng.choice(TEXTS) for _ in range(height)] for _ in range(rng.randint(1, 3))]


def _pred_columns(rng: random.Random, gold: list[list[str]], pool: list[list[str]]) -> list[list[str]]:
    columns = [column for column in gold if rng.random() < 0.85]
    columns += [rng.choice(gold or pool) for _ in range(rng.choice([0, 0, 1, 2]))]  # duplicates
    rng.shuffle(columns)
    edited = []
    for column in columns:
        roll = rng.random()
        if roll < 0.2:
            column = _respace(rng, column)
        elif roll < 0.3 and column:
            column = list(column)
            column[rng.randrange(len(column))] = rng.choice(TEXTS)
        edited.append(column)
    return edited


def _table(rng: random.Random, columns: list[list[str]], height: int) -> Table:
    body = [[column[r] for column in columns] for r in range(height)]
    if rng.random() < 0.2:  # ragged rows
        body = [row[: rng.randint(0, len(row))] for row in body]
    if rng.random() < 0.15:  # spans
        for row in body:
            if row and rng.random() < 0.3:
                i = rng.randrange(len(row))
                row[i] = (row[i], rng.randint(1, 3), rng.randint(1, 2))
    header = [[f"h{i}" for i in range(len(columns))]] if rng.random() < 0.3 else []
    return Table.from_rows(body=body, header=header, normalized=rng.random() < 0.6)


def _pair(rng: random.Random) -> tuple[Table, Table]:
    height = rng.choice([0, 1, 1, 2, 3, 4])
    pool = _column_pool(rng, height)
    gold = [rng.choice(pool) for _ in range(rng.choice([0, 1, 2, 3, 4, 5]))]
    pred = _pred_columns(rng, gold, pool)
    pred_height = height if rng.random() < 0.9 else rng.choice([0, 1, 2, 3, 4])
    if pred_height != height:
        pred = [(column + [""] * pred_height)[:pred_height] for column in pred]
    return _table(rng, pred, pred_height), _table(rng, gold, height)


def test_matches_reference_on_random_pairs():
    rng = random.Random(20261018)
    mismatches = []
    for index in range(PAIRS):
        pred, gold = _pair(rng)
        for a, b in ((pred, gold), (gold, pred)):
            if column_value_match(a, b) != reference_value_match(a, b):
                mismatches.append((index, a, b))
    assert mismatches == []


def test_matches_reference_on_empty_tables():
    empty, header_only = Table.from_rows(), Table.from_rows(header=[["h"]])
    one = Table.from_rows(body=[["a"]])
    for pred in (empty, header_only, one):
        for gold in (empty, header_only, one):
            assert column_value_match(pred, gold) == reference_value_match(pred, gold), (pred, gold)


def test_matches_reference_on_balance_sheet(balance_sheet_gold):
    body = [[cell.text for cell in row] for row in balance_sheet_gold.body_rows]
    for pred in (balance_sheet_gold, Table.from_rows(body=[row[::-1] for row in body]), Table.from_rows(body=body[1:])):
        assert column_value_match(pred, balance_sheet_gold) == reference_value_match(pred, balance_sheet_gold)
        assert column_value_match(balance_sheet_gold, pred) == reference_value_match(balance_sheet_gold, pred)
