"""Gold-referenced evaluation of reconstructed tables.

Exact match, normalized ordered tree edit distance, cell value match and
column value match, plus the source-referenced coverage/hallucination
scores re-exported from the checker.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from operator import eq, itemgetter
from typing import Sequence

from .checker import compute_coverage, compute_hallucination
from .model import SourceText, Table

__all__ = [
    "MetricReport",
    "exact_match",
    "tree_edit_distance",
    "cell_value_match",
    "column_value_match",
    "evaluate",
    "table_node_count",
    "compute_coverage",
    "compute_hallucination",
]


def _norm(text: str) -> str:
    """Metric text normalization: trim and collapse whitespace runs."""
    return " ".join(text.split())


def _grid(table: Table) -> list[list[str]]:
    """All rows (header first) as normalized cell texts."""
    return [[_norm(cell.text) for cell in row] for row in table.rows]


_Grids = tuple[list[list[str]], list[list[str]]]  # (_grid(pred), _grid(gold))
_layout = itemgetter(1, 2, 3)  # a Cell's (col, rowspan, colspan)


def table_node_count(table: Table) -> int:
    """Nodes of the table tree: one root, one node per row, one per cell."""
    return 1 + len(table.rows) + sum(len(row) for row in table.rows)


# ---------------------------------------------------------------------------
# Tree edit distance
# ---------------------------------------------------------------------------

def _levenshtein(a: Sequence[str], b: Sequence[str]) -> int:
    """Unit-cost edit distance of two cell sequences: the tree distance of
    two rows, whose row nodes map to each other."""
    if set(a).isdisjoint(b):
        return max(len(a), len(b))  # no equal pair: relabel the shorter, insert the rest
    line = list(range(len(b) + 1))
    for i, x in enumerate(a, 1):
        diag, line[0] = line[0], i
        for j, y in enumerate(b, 1):
            diag, line[j] = line[j], min(line[j] + 1, line[j - 1] + 1, diag + (x != y))
    return line[-1]


def _row_forest_distance(rows_a: Sequence[Sequence[str]], rows_b: Sequence[Sequence[str]]) -> int:
    """Ordered edit distance between two forests of rows, unit costs.
    Row nodes share one label, which no cell leaf (labelled by its text) has.

    One Zhang-Shasha forest DP over the postorder prefixes (each row's
    cells, then the row node): fd[x][y] = min(fd[x-1][y] + 1,
    fd[x][y-1] + 1, fd[left(x)-1][left(y)-1] + td(x, y)), where left(x) is
    the first node of x's subtree. td has a closed form per pair of node
    kinds: [labels differ] for two cells; k + [label not among the row's
    cells] for a cell against a row of k cells (the cell maps to the row's
    best node, the rest is inserted), either way round; the Levenshtein
    distance of the cells for two rows. One DP line per A node, ``last``
    being fd[x][y-1]; ``base`` is the line at the last A row boundary,
    which an A row node reads as fd[left(x)-1].
    """
    b_rows, start = [], 0
    for row in rows_b:
        b_rows.append((row, start, len(row), set(row)))
        start += len(row) + 1
    prev = base = list(range(start + 1))
    for row_a in rows_a:
        for text in row_a:
            line = [prev[0] + 1]
            append, last = line.append, line[0]
            for row, start, width, members in b_rows:
                corner = diag = prev[start]
                for label, up in zip(row, prev[start + 1 : start + width + 1]):
                    last = (up if up < last else last) + 1
                    diag += text != label  # cell/cell
                    last = diag if diag < last else last
                    append(last)
                    diag = up
                up = prev[start + width + 1]
                last = (up if up < last else last) + 1
                corner += width + (text not in members)  # cell/row
                last = corner if corner < last else last
                append(last)
            prev = line
        width_a, members_a = len(row_a), set(row_a)
        line = [prev[0] + 1]
        append, last = line.append, line[0]
        for row, start, width, members in b_rows:
            for label, up, diag in zip(row, prev[start + 1 : start + width + 1], base[start : start + width]):
                last = (up if up < last else last) + 1
                diag += width_a + (label not in members_a)  # row/cell
                last = diag if diag < last else last
                append(last)
            up = prev[start + width + 1]
            last = (up if up < last else last) + 1
            corner = base[start] + _levenshtein(row_a, row)  # row/row
            last = corner if corner < last else last
            append(last)
        prev = base = line
    return prev[-1]


def _row_script_cost(rows_a: Sequence[Sequence[str]], rows_b: Sequence[Sequence[str]]) -> int:
    """An upper bound, the cost of a valid mapping by rows: equal rows are free, a row that the other side's
    next row equals is dropped, other pairs cost their Levenshtein distance, rows left over their cells + 1."""
    i = j = cost = 0
    while i < len(rows_a) and j < len(rows_b):
        row_a, row_b = rows_a[i], rows_b[j]
        if row_a != row_b and rows_a[i + 1 : i + 2] == [row_b]:
            cost, i = cost + len(row_a) + 1, i + 1
        elif row_a != row_b and rows_b[j + 1 : j + 2] == [row_a]:
            cost, j = cost + len(row_b) + 1, j + 1
        else:
            cost, i, j = cost + (row_a != row_b and _levenshtein(row_a, row_b)), i + 1, j + 1
    return cost + sum(len(row) + 1 for row in chain(rows_a[i:], rows_b[j:]))


def _label_bound(rows_a: Sequence[Sequence[str]], rows_b: Sequence[Sequence[str]]) -> int:
    """A lower bound on the distance: a mapping with m pairs, z of them between equal labels, costs
    nA + nB - m - z, where m <= min(nA, nB) and z <= the cell labels shared as multisets + min(row counts)."""
    sizes = [sum(map(len, rows)) + len(rows) for rows in (rows_a, rows_b)]
    labels_a, labels_b = (Counter(chain.from_iterable(rows)) for rows in (rows_a, rows_b))
    return max(sizes) - (labels_a & labels_b).total() - min(len(rows_a), len(rows_b))


def tree_edit_distance(pred: Table, gold: Table, *, grids: _Grids | None = None) -> float:
    """Normalized ordered tree edit distance between two table trees.

    Unit insert/delete/relabel costs; normalized by the larger tree's node
    count, so the result lies in [0, 1] and is 0 exactly for identical grids.
    ``grids`` is ``(_grid(pred), _grid(gold))`` when the caller has built them.

    Whole rows equal at the start of both grids, and then at the end, are
    stripped before the DP; this keeps the distance exact. The roots map to
    each other, which is optimal because both are labelled "table". Let the
    first rows A1 = B1 be identical k-node subtrees and M an optimal mapping.
    Order preservation means M cannot both send nodes of A1 into later
    B-subtrees and send later A-nodes into B1, so the pairs of M that touch
    A1 or B1 number at most k. Restricting M to the rest drops 2k nodes and
    at most k pairs, each pair worth 2 in the cost, so it costs no more.
    The reverse inequality holds by adding the identity on A1 and B1. The
    last row follows by symmetry.
    """
    rows_a, rows_b = grids or (_grid(pred), _grid(gold))
    shorter, head, tail = min(len(rows_a), len(rows_b)), 0, 0
    while head < shorter and rows_a[head] == rows_b[head]:
        head += 1
    while tail < shorter - head and rows_a[-1 - tail] == rows_b[-1 - tail]:
        tail += 1
    rows_a, rows_b = rows_a[head : len(rows_a) - tail], rows_b[head : len(rows_b) - tail]
    distance = _row_script_cost(rows_a, rows_b)
    if distance > _label_bound(rows_a, rows_b):
        distance = _row_forest_distance(rows_a, rows_b)
    return distance / max(table_node_count(pred), table_node_count(gold))


# ---------------------------------------------------------------------------
# Content metrics
# ---------------------------------------------------------------------------


def exact_match(pred: Table, gold: Table, *, grids: _Grids | None = None) -> int:
    """1 iff the full grids (headers included) agree in shape and in every
    normalized cell text, and every cell also has its counterpart's column,
    rowspan and colspan. ``grids`` is ``(_grid(pred), _grid(gold))`` when
    the caller has built them."""
    rows_pred, rows_gold = grids or (_grid(pred), _grid(gold))
    # equal grids give both tables the same cells in row order; only then are their layouts compared
    layouts = (map(_layout, chain.from_iterable(table.rows)) for table in (pred, gold))
    return int(rows_pred == rows_gold and all(map(eq, *layouts)))


def cell_value_match(pred: Table, gold: Table) -> float:
    """Percentage of gold cells whose normalized text is reproduced
    somewhere in the prediction (multiset intersection, position-free)."""
    return _cell_value_match(_grid(pred), _grid(gold))


def _cell_value_match(rows_pred: list[list[str]], rows_gold: list[list[str]]) -> float:
    gold_cells = Counter(chain.from_iterable(rows_gold))
    if not gold_cells:
        return 100.0 if rows_pred == rows_gold else 0.0
    matched = gold_cells & Counter(chain.from_iterable(rows_pred))
    return matched.total() / gold_cells.total() * 100.0


def column_value_match(pred: Table, gold: Table, *, grids: _Grids | None = None) -> float:
    """Percentage of gold columns whose ordered, normalized body-cell
    sequence is reproduced by a prediction column (multiset intersection,
    each prediction column matching once). ``grids`` is ``(_grid(pred),
    _grid(gold))`` when the caller has built them."""
    pred_columns, gold_columns = map(_body_columns, (pred, gold), grids or (_grid(pred), _grid(gold)))
    if not gold_columns:
        return 100.0 if not pred_columns else 0.0
    return (gold_columns & pred_columns).total() / gold_columns.total() * 100.0


def _body_columns(table: Table, grid: list[list[str]]) -> Counter:
    """The multiset of ``table.body_columns()`` normalized, read from the table's ``_grid``."""
    columns = [[""] * len(table.body_rows) for _ in range(table.width)]
    for r, (row, texts) in enumerate(zip(table.body_rows, grid[len(table.header_rows) :])):
        for cell, text in zip(row, texts):
            if cell.col < table.width:
                columns[cell.col][r] = text
    return Counter(map(tuple, columns))


@dataclass(frozen=True)
class MetricReport:
    em: int
    ted: float
    cvm: float
    colvm: float
    coverage: float | None = None
    hallucination: float | None = None

    def to_dict(self) -> dict:
        return dict(vars(self))  # numbers only, so no deep copy

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def evaluate(pred: Table, gold: Table, source: SourceText | None = None) -> MetricReport:
    """Score a prediction against its gold table (and source, if given);
    each table's cells are normalized once, for all four gold metrics."""
    grids = _grid(pred), _grid(gold)
    em = exact_match(pred, gold, grids=grids)
    return MetricReport(
        em=em,
        ted=0.0 if em else tree_edit_distance(pred, gold, grids=grids),
        cvm=_cell_value_match(*grids),
        colvm=column_value_match(pred, gold, grids=grids),
        coverage=None if source is None else compute_coverage(source, pred),
        hallucination=None if source is None else compute_hallucination(source, pred),
    )
