"""The column value match that ``tablex.metrics`` computed before it took
the multiset intersection of columns, kept verbatim as the reference for
``tests/test_value_match_equivalence.py``.

Each gold column takes the first unused prediction column equal to it, so
it costs O(gold columns × prediction columns).
"""

from __future__ import annotations

from tablex.model import Table


def _norm(text: str) -> str:
    """Metric text normalization: trim and collapse whitespace runs."""
    return " ".join(text.split())


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
