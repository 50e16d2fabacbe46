"""The keyroot Zhang-Shasha tree edit distance that ``tablex.metrics``
used before its row-level forest DP, kept verbatim as the reference for
``tests/test_ted_equivalence.py`` and as the tree builder of
``tests/ted_oracle.py``.

It takes about 7·|A|·|B| steps and a new buffer per keyroot pair, so keep
it to small and medium tables.
"""

from __future__ import annotations

from typing import Sequence

from tablex.metrics import _grid, table_node_count
from tablex.model import Table

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

