"""The hallucination rate that ``tablex.checker`` computed before its
source-token index, kept verbatim as the reference for
``tests/test_hallucination_equivalence.py``.

It scans the whole raw source once per cell token, so it costs
O(cells × |source|): keep it to small and medium tables.
"""

from __future__ import annotations

from tablex.checker import _alnum_len
from tablex.model import SourceText, Table


def _cell_coverage(text: str, source: SourceText) -> float:
    """Alphanumeric-weighted fraction of the cell's tokens found in the
    source. Tokens are matched as substrings of the raw source so that any
    contiguous excerpt of the source scores 1, partial matches included."""
    denom = _alnum_len(text)
    if denom == 0:
        return 1.0
    matched = sum(_alnum_len(tok) for tok in text.split() if tok in source.raw)
    return matched / denom


def compute_hallucination(source: SourceText, table: Table) -> float:
    """Mean over body rows of the mean per-cell uncovered fraction."""
    rows = table.body_rows
    if not rows:
        return 0.0
    total = 0.0
    for row in rows:
        if not row:
            continue
        total += sum(1.0 - _cell_coverage(cell.text, source) for cell in row) / len(row)
    return total / len(rows)
