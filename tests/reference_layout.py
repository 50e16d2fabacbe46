"""The grid layout that ``tablex.model`` used before ``_place`` and
``normalize_rectangular`` split it, kept verbatim as the reference for
``tests/test_layout_equivalence.py``.

It marks every grid position a span covers in a dict, so a table of a few
cells with ``rowspan="65534" colspan="1000"`` costs millions of entries;
keep it to small tables.
"""

from __future__ import annotations

from typing import Sequence

from tablex.model import Cell, Table


def _layout(
    header_specs: Sequence[Sequence[tuple[str, int, int]]],
    body_specs: Sequence[Sequence[tuple[str, int, int]]],
    pad: bool,
) -> "Table":
    """Place cells on a grid, honoring row/column spans.

    Cells are placed left to right, skipping positions occupied by spans
    from earlier rows. With ``pad`` set, every row is right-padded with
    empty unit cells up to the widest effective row.
    """
    all_specs = list(header_specs) + list(body_specs)
    n_header = len(header_specs)

    occupied: dict[tuple[int, int], bool] = {}
    placed: list[list[Cell]] = []
    extents: list[int] = []
    for r, row in enumerate(all_specs):
        cells: list[Cell] = []
        col = 0
        for text, rowspan, colspan in row:
            while occupied.get((r, col)):
                col += 1
            cells.append(Cell(text, col, rowspan, colspan))
            for dr in range(min(rowspan, len(all_specs) - r)):
                for dc in range(colspan):
                    occupied[(r + dr, col + dc)] = True
            col += colspan
        while occupied.get((r, col)):
            col += 1
        placed.append(cells)
        extents.append(col)

    width = max(extents, default=0)
    if pad:
        for r, cells in enumerate(placed):
            col = extents[r]
            while col < width:
                if not occupied.get((r, col)):
                    cells.append(Cell("", col, 1, 1))
                col += 1

    rows = tuple(tuple(cells) for cells in placed)
    return Table(header_rows=rows[:n_header], body_rows=rows[n_header:], width=width)
