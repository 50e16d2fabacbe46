"""Canonical table representation and conversions.

Covers the grid model (cells with spans), parsing of model responses
(JSON envelope + HTML tables), rectangular normalization, HTML/CSV
serialization, and flattening of structured tables back into the
delimiter-free text used as benchmark input.
"""

from __future__ import annotations

import csv
import html as htmllib
import io
import json
import re
from dataclasses import dataclass
from enum import Enum
from html.parser import HTMLParser
from typing import Iterator, Sequence

from .errors import EmptyExtraction, HtmlParseFailure, MalformedJson, MissingTablesKey


@dataclass(frozen=True)
class SourceText:
    """A delimiter-free input text.

    ``tokens``, the whitespace-delimited chunks, is the view the coverage
    computation counts.
    """

    raw: str

    @property
    def tokens(self) -> tuple[str, ...]:
        return tuple(self.raw.split())


@dataclass(frozen=True)
class Cell:
    """One table cell anchored at grid position (row, col).

    ``text`` is stored verbatim; trimming and whitespace collapsing happen
    only in explicit normalization steps downstream. ``row`` counts header
    rows first, then body rows.
    """

    text: str
    row: int
    col: int
    rowspan: int = 1
    colspan: int = 1


def _as_spec(value) -> tuple[str, int, int]:
    if isinstance(value, str):
        return (value, 1, 1)
    text, rowspan, colspan = value
    return (str(text), int(rowspan), int(colspan))


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
            cells.append(Cell(text, r, col, rowspan, colspan))
            for dr in range(rowspan):
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
                    cells.append(Cell("", r, col, 1, 1))
                col += 1

    rows = tuple(tuple(cells) for cells in placed)
    return Table(header_rows=rows[:n_header], body_rows=rows[n_header:], width=width)


@dataclass(frozen=True)
class Table:
    """A rectangular grid of cells with optional header rows."""

    header_rows: tuple[tuple[Cell, ...], ...] = ()
    body_rows: tuple[tuple[Cell, ...], ...] = ()
    width: int = 0

    @property
    def rows(self) -> tuple[tuple[Cell, ...], ...]:
        return self.header_rows + self.body_rows

    def cells(self) -> Iterator[Cell]:
        for row in self.rows:
            yield from row

    def body_columns(self) -> list[list[str]]:
        """Body cell texts by grid column; positions not anchored by a cell
        (covered by a span from a neighbor) appear as empty strings."""
        columns = [["" for _ in self.body_rows] for _ in range(self.width)]
        for r, row in enumerate(self.body_rows):
            for cell in row:
                if cell.col < self.width:
                    columns[cell.col][r] = cell.text
        return columns

    def row_specs(self) -> tuple[list[list[tuple[str, int, int]]], list[list[tuple[str, int, int]]]]:
        header = [[(c.text, c.rowspan, c.colspan) for c in row] for row in self.header_rows]
        body = [[(c.text, c.rowspan, c.colspan) for c in row] for row in self.body_rows]
        return header, body

    @classmethod
    def from_rows(
        cls,
        body: Sequence[Sequence] = (),
        header: Sequence[Sequence] = (),
        normalized: bool = True,
    ) -> "Table":
        """Build a table from row lists of cell specs (str or (text, rs, cs))."""
        header_specs = [[_as_spec(v) for v in row] for row in header]
        body_specs = [[_as_spec(v) for v in row] for row in body]
        return _layout(header_specs, body_specs, pad=normalized)


def normalize_rectangular(table: Table) -> Table:
    """Right-pad every row with empty cells to the table's effective width.

    Spanning cells are preserved, never split; positions they cover are not
    padded. Idempotent, and never alters any existing cell text.
    """
    header, body = table.row_specs()
    return _layout(header, body, pad=True)


# ---------------------------------------------------------------------------
# HTML table dialect
# ---------------------------------------------------------------------------

_STRUCTURAL_TAGS = {"table", "thead", "tbody", "tr", "th", "td"}


class _TableHtmlParser(HTMLParser):
    """Parser for the supported table dialect.

    Only the first <table> element is consumed. Cell text is collected
    verbatim (entity references decoded by the underlying parser); markup
    nested inside cells is ignored. <td> and <tr> are implicitly closed the
    way browsers close them, but <table>/<thead>/<tbody> left open at end of
    input are reported as parse failures.
    """

    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self.header_specs: list[list[tuple[str, int, int]]] = []
        self.body_specs: list[list[tuple[str, int, int]]] = []
        self.saw_table = False
        self._done = False
        self._in_table = False
        self._section: str | None = None  # "thead" | "tbody" | None
        self._row: list[tuple[str, int, int]] | None = None
        self._row_is_header = False
        self._cell: list[str] | None = None
        self._cell_span = (1, 1)
        self._open: list[str] = []

    # -- helpers -----------------------------------------------------------

    @staticmethod
    def _span(attrs: list[tuple[str, str | None]], name: str) -> int:
        for key, value in attrs:
            if key == name and value is not None:
                try:
                    return max(1, int(value))
                except ValueError:
                    return 1
        return 1

    def _flush_cell(self) -> None:
        if self._cell is not None and self._row is not None:
            rowspan, colspan = self._cell_span
            self._row.append(("".join(self._cell), rowspan, colspan))
        self._cell = None
        if self._open and self._open[-1] in ("td", "th"):
            self._open.pop()

    def _flush_row(self) -> None:
        self._flush_cell()
        if self._row is not None:
            if self._row_is_header:
                self.header_specs.append(self._row)
            else:
                self.body_specs.append(self._row)
        self._row = None
        if self._open and self._open[-1] == "tr":
            self._open.pop()

    # -- parser events -----------------------------------------------------

    def handle_starttag(self, tag, attrs):
        if self._done or tag not in _STRUCTURAL_TAGS:
            return
        if tag == "table":
            if self._in_table:
                return  # nested tables are not part of the dialect; ignore
            self._in_table = True
            self.saw_table = True
            self._open.append(tag)
            return
        if not self._in_table:
            return
        if tag in ("thead", "tbody"):
            self._flush_row()
            self._section = tag
            self._open.append(tag)
        elif tag == "tr":
            self._flush_row()
            self._row = []
            self._row_is_header = self._section == "thead"
            self._open.append(tag)
        elif tag in ("th", "td"):
            self._flush_cell()
            if self._row is None:
                self._row = []
                self._row_is_header = self._section == "thead"
                self._open.append("tr")
            self._cell = []
            self._cell_span = (self._span(attrs, "rowspan"), self._span(attrs, "colspan"))
            self._open.append(tag)

    def handle_endtag(self, tag):
        if self._done or not self._in_table or tag not in _STRUCTURAL_TAGS:
            return
        if tag in ("th", "td"):
            self._flush_cell()
        elif tag == "tr":
            self._flush_row()
        elif tag in ("thead", "tbody"):
            self._flush_row()
            if self._open and self._open[-1] == tag:
                self._open.pop()
            self._section = None
        elif tag == "table":
            self._flush_row()
            if self._open and self._open[-1] == "table":
                self._open.pop()
            self._in_table = False
            self._done = True

    def handle_data(self, data):
        if self._cell is not None:
            self._cell.append(data)

    def unbalanced(self) -> list[str]:
        return list(self._open)


def parse_html_table(html: str) -> Table:
    """Parse the first <table> element of ``html`` into an (unpadded) Table.

    <thead> rows become header rows, everything else body rows; <th> and
    <td> are both accepted in either section, and rowspan/colspan attributes
    are preserved on the cells.
    """
    parser = _TableHtmlParser()
    try:
        parser.feed(html)
        parser.close()
    except Exception as exc:  # pragma: no cover - html.parser rarely raises
        raise HtmlParseFailure(f"html parser error: {exc}") from exc
    if not parser.saw_table:
        raise HtmlParseFailure("no <table> element found")
    if parser.unbalanced():
        raise HtmlParseFailure(
            "unclosed structural tags: " + ", ".join(parser.unbalanced())
        )
    return _layout(parser.header_specs, parser.body_specs, pad=False)


def serialize_html(table: Table) -> str:
    """Render a normalized table back to the compact HTML dialect."""

    def cell_html(cell: Cell, tag: str) -> str:
        attrs = ""
        if cell.rowspan > 1:
            attrs += f' rowspan="{cell.rowspan}"'
        if cell.colspan > 1:
            attrs += f' colspan="{cell.colspan}"'
        return f"<{tag}{attrs}>{htmllib.escape(cell.text)}</{tag}>"

    def row_html(row: Sequence[Cell], tag: str) -> str:
        return "<tr>" + "".join(cell_html(c, tag) for c in row) + "</tr>"

    parts = ["<table>"]
    if table.header_rows:
        parts.append("<thead>")
        parts.extend(row_html(row, "th") for row in table.header_rows)
        parts.append("</thead>")
    parts.append("<tbody>")
    parts.extend(row_html(row, "td") for row in table.body_rows)
    parts.append("</tbody>")
    parts.append("</table>")
    return "".join(parts)


# ---------------------------------------------------------------------------
# Extraction JSON envelope
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PartialTable:
    starting_token: str | None
    table: Table


@dataclass(frozen=True)
class ExtractionResult:
    tables: tuple[PartialTable, ...]
    row_delimiter: str | None = None


_FENCE_RE = re.compile(r"```[a-zA-Z0-9_-]*\s*\n?(.*?)```", re.DOTALL)


def _locate_json_object(text: str) -> dict:
    """Find the first balanced JSON object in ``text``.

    Tries fenced code blocks first (the instructed response format), then the
    raw text, then the object starting at the first brace. A truncated outer
    object is malformed even if some nested object would parse.
    """
    candidates = [match.group(1) for match in _FENCE_RE.finditer(text)]
    candidates.append(text)
    decoder = json.JSONDecoder()
    for candidate in candidates:
        stripped = candidate.strip()
        if not stripped:
            continue
        try:
            obj = json.loads(stripped)
            if isinstance(obj, dict):
                return obj
        except json.JSONDecodeError:
            pass
        pos = candidate.find("{")
        if pos < 0:
            continue
        try:
            obj, _ = decoder.raw_decode(candidate, pos)
        except json.JSONDecodeError:
            continue
        if isinstance(obj, dict):
            return obj
    raise MalformedJson("no parseable JSON object in response")


def _entry_field(entry: dict, name: str):
    for key in (f"${name}$", name):
        if key in entry:
            return entry[key]
    return None


def parse_extraction_json(text: str) -> ExtractionResult:
    """Decode a model response into tables.

    Accepts both the dollar-quoted and bare spellings of the envelope keys,
    strips markdown code fences, and ignores prose around the JSON object.
    """
    obj = _locate_json_object(text)
    if "tables" not in obj:
        raise MissingTablesKey('extraction JSON has no "tables" key')
    entries = obj["tables"]
    if not isinstance(entries, list):
        raise MissingTablesKey('"tables" is not an array')

    tables: list[PartialTable] = []
    for index, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise HtmlParseFailure(f"entry {index} is not an object", entry_index=index)
        html = _entry_field(entry, "html_output")
        if not isinstance(html, str):
            raise HtmlParseFailure(f"entry {index} has no html_output", entry_index=index)
        token = _entry_field(entry, "starting_token")
        if token is not None and not isinstance(token, str):
            token = str(token)
        try:
            table = parse_html_table(html)
        except HtmlParseFailure as exc:
            raise HtmlParseFailure(f"entry {index}: {exc}", entry_index=index) from exc
        tables.append(PartialTable(starting_token=token, table=table))

    delimiter = _entry_field(obj, "row_delimiter")
    if delimiter is not None and not isinstance(delimiter, str):
        delimiter = str(delimiter)
    return ExtractionResult(tables=tuple(tables), row_delimiter=delimiter)


def concat_partial_tables(result: ExtractionResult) -> Table:
    """Stitch partial tables into one.

    The first table's header is kept. Every subsequent table contributes its
    starting token (when present) as a single-cell body row, followed by its
    own body rows; subsequent headers are dropped as repeats. The result is
    normalized rectangular.
    """
    if not result.tables:
        raise EmptyExtraction("extraction contained zero tables")
    first = result.tables[0]
    header, body = first.table.row_specs()
    for part in result.tables[1:]:
        if part.starting_token is not None:
            body.append([(part.starting_token, 1, 1)])
        _, part_body = part.table.row_specs()
        body.extend(part_body)
    return _layout(header, body, pad=True)


# ---------------------------------------------------------------------------
# Flattening and CSV
# ---------------------------------------------------------------------------


class FlattenStyle(Enum):
    OCR = "ocr"
    CSV = "csv"


def flatten_table(table: Table, style: FlattenStyle = FlattenStyle.OCR) -> SourceText:
    """Flatten a normalized table into delimiter-free benchmark text.

    ``OCR`` joins the non-empty cell texts of each row with single spaces
    and rows with CRLF, mimicking copy-paste output where empty cells leave
    no trace. ``CSV`` keeps every cell positionally, comma-joined with
    minimal quoting.
    """
    if style is FlattenStyle.OCR:
        lines = []
        for row in table.rows:
            lines.append(" ".join(cell.text for cell in row if cell.text != ""))
        return SourceText("\r\n".join(lines))
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\r\n")
    for row in table.rows:
        writer.writerow([cell.text for cell in row])
    return SourceText(buffer.getvalue().rstrip("\r\n"))


def serialize_csv(table: Table) -> str:
    return flatten_table(table, FlattenStyle.CSV).raw


def parse_csv_table(text: str, header_rows: int = 1) -> Table:
    """Load a table from RFC-4180 CSV text; the first row becomes the header."""
    rows = [list(row) for row in csv.reader(io.StringIO(text))]
    header_rows = min(header_rows, len(rows))
    return Table.from_rows(body=rows[header_rows:], header=rows[:header_rows])
