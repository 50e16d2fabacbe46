"""Gold-referenced evaluation of reconstructed tables.

Exact match, normalized ordered tree edit distance, cell value match and
column value match, plus the source-referenced coverage/hallucination
scores re-exported from the checker.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
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


def table_node_count(table: Table) -> int:
    """Nodes of the table tree: one root, one node per row, one per cell."""
    return 1 + len(table.rows) + sum(len(row) for row in table.rows)


# ---------------------------------------------------------------------------
# Tree edit distance
# ---------------------------------------------------------------------------

# A tree is (label, (child, child, ...)). Rows and the root carry structural
# labels; cells are leaves labeled by their normalized text.

_ROOT = ("table",)
_ROW = ("row",)


def _table_tree(table: Table) -> tuple:
    rows = tuple(
        (_ROW, tuple((("cell", text), ()) for text in row)) for row in _grid(table)
    )
    return (_ROOT, rows)


def _postorder(tree: tuple, labels: list, lefts: list) -> int:
    """Fill postorder label and leftmost-leaf-index arrays; return the root's
    postorder index."""
    first_leaf = None
    for child in tree[1]:
        idx = _postorder(child, labels, lefts)
        if first_leaf is None:
            first_leaf = lefts[idx]
    labels.append(tree[0])
    lefts.append(first_leaf if first_leaf is not None else len(labels) - 1)
    return len(labels) - 1


def _keyroots(lefts: Sequence[int]) -> list[int]:
    seen: dict[int, int] = {}
    for i, left in enumerate(lefts):
        seen[left] = i  # the last node with this leftmost leaf wins
    return sorted(seen.values())


def _ted_absolute(a: tuple, b: tuple) -> int:
    """Ordered tree edit distance with unit insert/delete/relabel costs
    (Zhang-Shasha keyroot decomposition)."""
    labels_a: list = []
    lefts_a: list[int] = []
    _postorder(a, labels_a, lefts_a)
    labels_b: list = []
    lefts_b: list[int] = []
    _postorder(b, labels_b, lefts_b)

    n, m = len(labels_a), len(labels_b)
    treedist = [[0] * m for _ in range(n)]

    for i in _keyroots(lefts_a):
        for j in _keyroots(lefts_b):
            li, lj = lefts_a[i], lefts_b[j]
            rows = i - li + 2
            cols = j - lj + 2
            fd = [[0] * cols for _ in range(rows)]
            for x in range(1, rows):
                fd[x][0] = fd[x - 1][0] + 1
            for y in range(1, cols):
                fd[0][y] = fd[0][y - 1] + 1
            for x in range(1, rows):
                for y in range(1, cols):
                    ai = x + li - 1
                    bj = y + lj - 1
                    if lefts_a[ai] == li and lefts_b[bj] == lj:
                        fd[x][y] = min(
                            fd[x - 1][y] + 1,
                            fd[x][y - 1] + 1,
                            fd[x - 1][y - 1] + (labels_a[ai] != labels_b[bj]),
                        )
                        treedist[ai][bj] = fd[x][y]
                    else:
                        p = lefts_a[ai] - li
                        q = lefts_b[bj] - lj
                        fd[x][y] = min(
                            fd[x - 1][y] + 1,
                            fd[x][y - 1] + 1,
                            fd[p][q] + treedist[ai][bj],
                        )
    return treedist[n - 1][m - 1]


def tree_edit_distance(pred: Table, gold: Table) -> float:
    """Normalized ordered tree edit distance between two table trees.

    Unit costs; normalized by the larger tree's node count, so the result
    lies in [0, 1] and is 0 exactly for identical grids.
    """
    if _grid(pred) == _grid(gold):
        return 0.0
    distance = _ted_absolute(_table_tree(pred), _table_tree(gold))
    return distance / max(table_node_count(pred), table_node_count(gold))


# ---------------------------------------------------------------------------
# Content metrics
# ---------------------------------------------------------------------------


def exact_match(pred: Table, gold: Table) -> int:
    """1 iff the full grids (headers included) agree in shape and in every
    normalized cell text."""
    return int(_grid(pred) == _grid(gold))


def cell_value_match(pred: Table, gold: Table) -> float:
    """Percentage of gold cells whose normalized text is reproduced
    somewhere in the prediction (multiset intersection, position-free)."""
    gold_cells: list[str] = [text for row in _grid(gold) for text in row]
    pred_counts: dict[str, int] = {}
    for row in _grid(pred):
        for text in row:
            pred_counts[text] = pred_counts.get(text, 0) + 1
    if not gold_cells:
        return 100.0 if exact_match(pred, gold) else 0.0
    matched = 0
    for text in gold_cells:
        if pred_counts.get(text, 0) > 0:
            pred_counts[text] -= 1
            matched += 1
    return matched / len(gold_cells) * 100.0


def _body_columns(table: Table) -> list[tuple[str, ...]]:
    return [tuple(_norm(v) for v in col) for col in table.body_columns()]


def column_value_match(pred: Table, gold: Table) -> float:
    """Percentage of gold columns whose ordered body-cell sequence is
    reproduced by some prediction column; each prediction column is usable
    once, assigned greedily left to right."""
    gold_columns = _body_columns(gold)
    pred_columns = _body_columns(pred)
    if not gold_columns:
        return 100.0 if not pred_columns else 0.0
    used = [False] * len(pred_columns)
    matched = 0
    for column in gold_columns:
        for i, candidate in enumerate(pred_columns):
            if not used[i] and candidate == column:
                used[i] = True
                matched += 1
                break
    return matched / len(gold_columns) * 100.0


@dataclass(frozen=True)
class MetricReport:
    em: int
    ted: float
    cvm: float
    colvm: float
    coverage: float | None = None
    hallucination: float | None = None

    def to_dict(self) -> dict:
        return {
            "em": self.em,
            "ted": self.ted,
            "cvm": self.cvm,
            "colvm": self.colvm,
            "coverage": self.coverage,
            "hallucination": self.hallucination,
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)


def evaluate(pred: Table, gold: Table, source: SourceText | None = None) -> MetricReport:
    """Score a prediction against its gold table (and source, if given)."""
    em = exact_match(pred, gold)
    return MetricReport(
        em=em,
        ted=0.0 if em else tree_edit_distance(pred, gold),
        cvm=cell_value_match(pred, gold),
        colvm=column_value_match(pred, gold),
        coverage=None if source is None else compute_coverage(source, pred),
        hallucination=None if source is None else compute_hallucination(source, pred),
    )
