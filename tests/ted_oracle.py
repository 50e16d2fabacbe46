"""Brute-force tree edit distance, the test oracle for
``tablex.metrics.tree_edit_distance``.

It minimizes the definitional forest recursion over all edit
decompositions, independent of the row-level forest DP and of the keyroot
reference, so its cost grows quickly with tree size: use it on small
tables only.
"""

from __future__ import annotations

from tablex.metrics import table_node_count
from tablex.model import Table

from ted_reference import _table_tree


def _tree_size(tree: tuple) -> int:
    return 1 + sum(_tree_size(child) for child in tree[1])


def _forest_size(forest: tuple) -> int:
    return sum(_tree_size(tree) for tree in forest)


def _forest_dist(forest_a: tuple, forest_b: tuple, memo: dict) -> int:
    """Definitional recursion over all edit decompositions of two ordered
    forests; exhaustively minimizes over every valid node mapping."""
    if not forest_a and not forest_b:
        return 0
    if not forest_a:
        return _forest_size(forest_b)
    if not forest_b:
        return _forest_size(forest_a)
    key = (forest_a, forest_b)
    cached = memo.get(key)
    if cached is not None:
        return cached
    tree_a, tree_b = forest_a[-1], forest_b[-1]
    delete = _forest_dist(forest_a[:-1] + tree_a[1], forest_b, memo) + 1
    insert = _forest_dist(forest_a, forest_b[:-1] + tree_b[1], memo) + 1
    match = (
        _forest_dist(tree_a[1], tree_b[1], memo)
        + _forest_dist(forest_a[:-1], forest_b[:-1], memo)
        + (tree_a[0] != tree_b[0])
    )
    result = min(delete, insert, match)
    memo[key] = result
    return result


def tree_edit_distance_bruteforce(pred: Table, gold: Table) -> float:
    """Brute-force normalized tree edit distance for small tables.

    Independent of the forest DP in ``tablex.metrics``: minimizes the definitional
    forest recursion over all edit decompositions. Intended as an oracle;
    cost grows quickly with tree size.
    """
    distance = _forest_dist((_table_tree(pred),), (_table_tree(gold),), {})
    return distance / max(table_node_count(pred), table_node_count(gold))
