"""The tree edit distance's label-count lower bound and row-script upper
bound (``tablex.metrics``) against the row-forest DP that runs when they
differ, and against the keyroot reference (``tests/ted_reference.py``).

The seeded pairs are edits that move cells between rows, which the lower
bound cannot see, so the DP runs: a row split in two, two rows merged, two
rows swapped, a cell moved to the next row. Pairs with a ragged row, an
empty row or a spanning cell, where the bounds meet and no DP runs, ride
along. Small pairs are checked against the keyroot reference; both-ends
pairs of 100-200 rows, where nothing can be stripped, against the DP run
on the whole grids.
"""

from __future__ import annotations

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tablex.metrics as metrics
from tablex.metrics import _grid, _label_bound, _row_forest_distance, _row_script_cost, table_node_count
from tablex.metrics import tree_edit_distance
from tablex.model import Table

from ted_reference import tree_edit_distance as keyroot_tree_edit_distance
from test_acceptance import _ted_smoke_grid

EDITS = ("split", "merge", "swap", "move", "ragged", "empty", "span")
MOVES = EDITS[:4]  # edits that move cells between rows


def _edited(rng: random.Random, rows: list[list], kind: str, at: int) -> list[list]:
    """A copy of ``rows`` with one edit of ``kind`` at row ``at`` (and the row after it)."""
    rows = [list(row) for row in rows]
    row, after = rows[at], rows[at + 1] if at + 1 < len(rows) else []
    if kind == "split":
        cut = rng.randint(0, len(row))
        rows[at : at + 1] = [row[:cut], row[cut:]]
    elif kind == "merge":
        rows[at : at + 2] = [row + after]
    elif kind == "swap":
        rows[at : at + 2] = [after, row] if at + 1 < len(rows) else [row]
    elif kind == "move" and row and at + 1 < len(rows):
        rows[at + 1].insert(0, rows[at].pop())
    elif kind == "ragged" and row:
        del rows[at][rng.randrange(len(row))]
    elif kind == "empty":
        rows.insert(at, [])
    elif kind == "span" and row:
        rows[at][0] = (row[0], rng.randint(1, 2), rng.randint(2, 3))
    else:
        rows[at].append("new")
    return rows


def _table(rows: list[list], kind: str) -> Table:
    """Spans are placed and padded around; other edits keep their ragged rows."""
    return Table.from_rows(body=rows, normalized=kind == "span")


def _rows(rng: random.Random, n: int, width: int, alphabet: str) -> list[list[str]]:
    return [[f"{rng.choice(alphabet)}{rng.randint(0, 3)}" for _ in range(width)] for _ in range(n)]


def _dp_calls(monkeypatch) -> list[int]:
    """Record the node count of the A side of every DP that ``tree_edit_distance`` runs."""
    calls: list[int] = []

    def counted(rows_a, rows_b):
        calls.append(sum(map(len, rows_a)) + len(rows_a))
        return _row_forest_distance(rows_a, rows_b)

    monkeypatch.setattr(metrics, "_row_forest_distance", counted)
    return calls


def _dp_distance(pred: Table, gold: Table) -> float:
    """The normalized distance by the DP alone, on the whole grids."""
    return _row_forest_distance(_grid(pred), _grid(gold)) / max(table_node_count(pred), table_node_count(gold))


def test_small_edited_pairs_match_keyroot_reference(monkeypatch):
    calls = _dp_calls(monkeypatch)
    rng = random.Random(35)
    pairs = by_bound = 0
    for i in range(700):
        kind = EDITS[i % len(EDITS)]
        gold = _rows(rng, rng.randint(1, 7), rng.randint(1, 4), "ab")
        pred = _edited(rng, gold, kind, rng.randrange(len(gold)))
        if rng.random() < 0.5:
            pred = _edited(rng, pred, EDITS[rng.randrange(len(EDITS))], rng.randrange(len(pred)))
        a, b = _table(pred, kind), _table(gold, kind)
        before = len(calls)
        for x, y in ((a, b), (b, a)):
            assert tree_edit_distance(x, y) == keyroot_tree_edit_distance(x, y), (kind, pred, gold)
            pairs += 1
        by_bound += len(calls) == before
    assert pairs == 1400
    assert len(calls) >= 300, len(calls)  # the bounds differed, and the DP ran
    assert by_bound >= 100, by_bound  # the bounds met, and no DP ran


@pytest.mark.parametrize("kind", EDITS)
def test_both_ends_pairs(monkeypatch, kind):
    """Edited near the first and the last row, so stripping removes almost
    nothing, on 100-200 rows. Lost cells, a relabelled span and an added
    empty row leave the bounds equal, and their distance is the DP's; cells
    that change rows escape the lower bound, so the DP runs."""
    rng = random.Random(kind)
    n = 100 + 50 * EDITS.index(kind) % 150
    gold = _rows(rng, n, 3, "abcdef")
    pred = _edited(rng, _edited(rng, gold, kind, 1), kind, n - 3)
    a, b = _table(pred, kind), _table(gold, kind)
    calls = _dp_calls(monkeypatch)
    for x, y in ((a, b), (b, a)):
        assert tree_edit_distance(x, y) == _dp_distance(x, y)
    assert bool(calls) == (kind in MOVES), (kind, calls)


_labelled_rows = st.lists(st.lists(st.sampled_from(["a", "b", "c", "", "d1"]), max_size=4), max_size=6)


@settings(max_examples=300, deadline=None)
@given(_labelled_rows, _labelled_rows)
def test_bounds_hold_the_distance(rows_a, rows_b):
    """_label_bound <= distance <= _row_script_cost on any two grids, not
    only on stripped middles; the distance is the normalized TED times the
    larger node count."""
    a, b = Table.from_rows(body=rows_a, normalized=False), Table.from_rows(body=rows_b, normalized=False)
    assert (_grid(a), _grid(b)) == (rows_a, rows_b)
    distance = round(tree_edit_distance(a, b) * max(table_node_count(a), table_node_count(b)))
    assert distance == _row_forest_distance(rows_a, rows_b)
    assert _label_bound(rows_a, rows_b) <= distance <= _row_script_cost(rows_a, rows_b)


def test_thousand_rows_one_dropped_one_edited_is_width_plus_two(monkeypatch):
    """Dropping a 10-cell row costs 11, relabelling one cell 1. Both bounds
    give 12, and no DP runs."""
    calls = _dp_calls(monkeypatch)
    gold = _ted_smoke_grid(1000)
    pred = [list(row) for row in gold]
    del pred[1 + 1000 // 2]
    pred[1][0] = "zephyr"
    pred_table = Table.from_rows(header=pred[:1], body=pred[1:])
    gold_table = Table.from_rows(header=gold[:1], body=gold[1:])
    started = time.perf_counter()
    ted = tree_edit_distance(pred_table, gold_table)
    elapsed = time.perf_counter() - started
    assert ted == 12 / table_node_count(gold_table)
    assert elapsed < 0.5, f"tree_edit_distance took {elapsed:.2f}s"
    assert calls == []
