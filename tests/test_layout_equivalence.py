"""``_place`` and ``normalize_rectangular`` in ``tablex.model`` against the
one-pass layout they replaced (``tests/reference_layout.py``).

Exact ``==`` on seeded spec sets below the grid cap: ragged rows, zero-cell
rows, header/body splits, rowspans past the last row, spans at HTML's
maxima and colspans that overlap an earlier row's rowspan.
"""

from __future__ import annotations

import random

from tablex.model import _place, normalize_rectangular

from reference_layout import _layout as reference_layout

SPEC_SETS = 6_000


def _span(rng: random.Random, n_rows: int) -> tuple[int, int]:
    roll = rng.random()
    if roll < 0.70:
        return 1, 1
    if roll < 0.85:
        return rng.randint(2, 4), rng.randint(1, 3)  # often overlapped by a later colspan
    if roll < 0.93:
        return rng.randint(n_rows, n_rows + 5), 1  # past the last row
    if roll < 0.995:
        return 1, rng.randint(2, 4)
    return rng.choice([(65534, 1000), (65534, 1), (1, 1000)])  # HTML's maxima


def _spec_set(rng: random.Random):
    n_rows = rng.randint(0, 9)
    rows = [
        [(rng.choice("ab "), *_span(rng, n_rows)) for _ in range(rng.choice([0, 1, 2, 3, 4, 6]))]
        for _ in range(n_rows)
    ]
    n_header = rng.randint(0, min(2, n_rows))
    return rows[:n_header], rows[n_header:]


def test_place_and_pad_match_reference_layout():
    rng = random.Random(20240611)
    mismatches = []
    for index in range(SPEC_SETS):
        header, body = _spec_set(rng)
        placed = _place(header, body)
        if placed != reference_layout(header, body, pad=False):
            mismatches.append((index, "place"))
        if normalize_rectangular(placed) != reference_layout(header, body, pad=True):
            mismatches.append((index, "pad"))
    assert mismatches == []
