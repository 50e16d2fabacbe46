"""The row-level tree edit distance in ``tablex.metrics`` against the
keyroot Zhang-Shasha reference it replaced (``tests/ted_reference.py``).

Exact ``==`` on the normalized distance over seeded pairs: independent
random tables, edited copies of a table (so identical edge rows get
stripped), and a few 30-60-row pairs edited at both ends, where nothing
can be stripped. The tables have zero-cell rows, ragged rows, spans,
repeated labels, whitespace variants of one label and no rows at all.
"""

from __future__ import annotations

import random

from tablex.metrics import _grid, tree_edit_distance
from tablex.model import Table

from ted_reference import tree_edit_distance as reference_tree_edit_distance

# "a", " a", "a " and "a  b" / "a b" normalize to the same labels
LABELS = ["a", "a", " a", "a ", "b", "a b", "a  b", "", " ", "7", "1,0", "x"]


def _cell(rng: random.Random):
    text = rng.choice(LABELS)
    if rng.random() < 0.12:
        return (text, rng.randint(1, 3), rng.randint(1, 3))
    return text


def _row(rng: random.Random, width: int) -> list:
    if rng.random() < 0.1:
        return []
    return [_cell(rng) for _ in range(max(0, width + rng.choice((0, 0, 0, -1, 1))))]


def _rows(rng: random.Random, max_rows: int) -> list[list]:
    width = rng.randint(1, 4)
    return [_row(rng, width) for _ in range(rng.randint(0, max_rows))]


def _edited(rng: random.Random, rows: list[list], max_width: int = 4) -> list[list]:
    rows = [list(row) for row in rows]
    for _ in range(rng.randint(1, 3)):
        kind = rng.randrange(6)
        r = rng.randrange(len(rows)) if rows else None
        if r is None or kind == 0:
            rows.insert(rng.randint(0, len(rows)), _row(rng, rng.randint(0, max_width)))
        elif kind == 1:
            del rows[r]
        elif kind == 2:
            rows.insert(r, list(rows[r]))  # a repeated row
        elif kind == 3 and rows[r]:
            rows[r][rng.randrange(len(rows[r]))] = _cell(rng)
        elif kind == 4 and rows[r]:
            del rows[r][rng.randrange(len(rows[r]))]
        else:
            rows[r].insert(rng.randint(0, len(rows[r])), _cell(rng))
    return rows


def _table(rng: random.Random, rows: list[list]) -> Table:
    header = rng.randint(0, min(1, len(rows)))
    return Table.from_rows(header=rows[:header], body=rows[header:], normalized=rng.random() < 0.5)


def _pairs(rng: random.Random, count: int):
    for i in range(count):
        a = _rows(rng, 5)
        b = _edited(rng, a) if i % 2 else _rows(rng, 5)
        yield _table(rng, a), _table(rng, b)


def _features(table: Table) -> set[str]:
    found = set()
    if not table.rows:
        found.add("empty")
    if any(not row for row in table.rows):
        found.add("zero-cell row")
    if len({len(row) for row in table.rows}) > 1:
        found.add("ragged")
    if any(cell.rowspan > 1 or cell.colspan > 1 for cell in table.cells()):
        found.add("span")
    texts = [cell.text for cell in table.cells()]
    if len(set(texts)) < len(texts):
        found.add("repeated label")
    if any(text != " ".join(text.split()) for text in texts):
        found.add("whitespace variant")
    return found


def test_ted_matches_keyroot_reference_on_seeded_pairs():
    rng = random.Random(20160)
    seen: dict[str, int] = {}
    stripped = mismatches = pairs = 0
    for pred, gold in _pairs(rng, 6000):
        for feature in _features(pred) | _features(gold):
            seen[feature] = seen.get(feature, 0) + 1
        a, b = _grid(pred), _grid(gold)
        stripped += bool(a and b and a != b and (a[0] == b[0] or a[-1] == b[-1]))
        if tree_edit_distance(pred, gold) != reference_tree_edit_distance(pred, gold):
            mismatches += 1
        pairs += 1
    assert pairs >= 5000
    assert mismatches == 0, f"{mismatches} of {pairs} pairs differ from the reference"
    assert stripped >= 1000, stripped
    for feature in ("empty", "zero-cell row", "ragged", "span", "repeated label", "whitespace variant"):
        assert seen.get(feature, 0) >= 200, (feature, seen)


def _long_rows(rng: random.Random, n: int, width: int) -> list[list[str]]:
    return [[f"{rng.choice('abc')}{rng.randint(0, 9)}" for _ in range(width)] for _ in range(n)]


def test_ted_matches_keyroot_reference_when_both_end_rows_differ():
    rng = random.Random(7)
    for n in (30, 45, 60):
        gold = _long_rows(rng, n, 4)
        pred = [list(row) for row in gold]
        pred[0][rng.randrange(4)] = "first"
        pred[-1][rng.randrange(4)] = "last"
        del pred[n // 2]
        pred.insert(n // 3, list(gold[n // 3 + 1]))
        a, b = Table.from_rows(body=pred), Table.from_rows(body=gold)
        assert tree_edit_distance(a, b) == reference_tree_edit_distance(a, b), n
        assert tree_edit_distance(b, a) == reference_tree_edit_distance(b, a), n
