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
from functools import cached_property
from html.parser import HTMLParser
from typing import Iterator, NamedTuple, Sequence

from .errors import EmptyExtraction, HtmlParseFailure, MalformedJson, MissingTablesKey


@dataclass(frozen=True)
class SourceText:
    """A delimiter-free input text.

    ``tokens``, the whitespace-delimited chunks, is the view the coverage
    and hallucination computations read; it is split once per instance.
    ``alnum_count``, coverage's denominator, is likewise counted once.
    """

    raw: str

    @cached_property
    def tokens(self) -> tuple[str, ...]:
        return tuple(self.raw.split())

    @cached_property
    def alnum_count(self) -> int:
        return sum(map(str.isalnum, self.raw))


class Cell(NamedTuple):
    """One table cell anchored at grid column ``col`` of its row; its row is
    its position in ``Table.rows``, header rows first, then body rows.

    ``text`` is stored verbatim; trimming and whitespace collapsing happen
    only in explicit normalization steps downstream. A cell is a tuple of
    its four fields.
    """

    text: str
    col: int
    rowspan: int = 1
    colspan: int = 1


def _as_spec(value) -> tuple[str, int, int]:
    if isinstance(value, str):
        return (value, 1, 1)
    text, rowspan, colspan = value
    return (str(text), int(rowspan), int(colspan))


_Specs = Sequence[Sequence[tuple[str, int, int]]]  # rows of (text, rowspan, colspan)
_GRID_CAP = 1_000_000  # positions (rows × width): 20× a 5,001-row, 10-column table
_END = (float("inf"),) * 3  # ends a row's sorted spans


def _place(header_specs: _Specs, body_specs: _Specs) -> "Table":
    """Place cells left to right on a grid, without padding, skipping the
    columns that rowspans from earlier rows cover: ``(first col, end col,
    last row)`` intervals. A grid over ``_GRID_CAP`` positions (rows × width)
    is an ``HtmlParseFailure``, raised as soon as a row reaches that width."""
    all_specs = [*header_specs, *body_specs]
    spans: list[tuple[int, int, int]] = []
    placed, width, new = [], 0, tuple.__new__  # skips Cell.__new__'s argument handling
    for r, row in enumerate(all_specs):
        spans = [span for span in spans if span[2] >= r]
        covered, i, col, cells = sorted(spans) + [_END], 0, 0, []
        for text, rowspan, colspan in row:
            while covered[i][0] <= col:
                col, i = max(col, covered[i][1]), i + 1
            cells.append(new(Cell, (text, col, rowspan, colspan)))
            if rowspan > 1:
                spans.append((col, col + colspan, r + rowspan - 1))
            col += colspan
        while covered[i][0] <= col:
            col, i = max(col, covered[i][1]), i + 1
        width = max(width, col)
        if len(all_specs) * width > _GRID_CAP:
            raise HtmlParseFailure(f"{len(all_specs)} rows of {width}+ columns exceed {_GRID_CAP} grid positions")
        placed.append(tuple(cells))
    n_header = len(header_specs)
    return Table(tuple(placed[:n_header]), tuple(placed[n_header:]), width)


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
        table = _place(header_specs, body_specs)
        return normalize_rectangular(table) if normalized else table


def normalize_rectangular(table: Table) -> Table:
    """Right-pad every row of a placed table with empty cells to its width.

    Spanning cells are preserved, never split; positions they cover are not
    padded. Existing cells are kept as they are, so this is idempotent.
    """
    spans: list[tuple[int, int, int]] = []
    padded: list[tuple[Cell, ...]] = []
    for r, row in enumerate(table.rows):
        spans = [span for span in spans if span[2] >= r]
        col, pads = (row[-1].col + row[-1].colspan if row else 0), []
        for first, end, _ in sorted(spans) + [_END]:
            pads += [Cell("", c, 1, 1) for c in range(col, min(first, table.width))]
            col = max(col, end)
        spans += [(c.col, c.col + c.colspan, r + c.rowspan - 1) for c in row if c.rowspan > 1]
        padded.append(row + tuple(pads) if pads else row)
    n_header = len(table.header_rows)
    return Table(tuple(padded[:n_header]), tuple(padded[n_header:]), table.width)


# ---------------------------------------------------------------------------
# HTML table dialect
# ---------------------------------------------------------------------------

_SPAN_LIMITS = {"rowspan": 65534, "colspan": 1000}  # HTML's maxima
# A whole row of attribute-free cells, a whole cell, a text run, a start tag
# or an end tag of the plain dialect; a bare ``<`` opens anything else.
_STRUCTURAL = "table|thead|tbody|tr|th|td"
_ATTRS = '((?: [a-z]+="[^"&<>]*")*)'
_DIALECT_TOKEN = re.compile(
    r"<tr>((?:<t[hd]>[^<]*</t[hd]>)*)</tr>"
    rf"|<(t[hd]){_ATTRS}>([^<]*)</t[hd]>|([^<]+)|<({_STRUCTURAL}){_ATTRS}>|</({_STRUCTURAL})>|<",
    re.ASCII | re.IGNORECASE,
)
_PLAIN_CELL_TEXT = re.compile("<t[hd]>([^<]*)</t[hd]>", re.ASCII | re.IGNORECASE)
_DIALECT_ATTR = re.compile(r' ([a-z]+)="([^"]*)"', re.ASCII | re.IGNORECASE)


class _TableHtmlParser(HTMLParser):
    """Parser for the supported table dialect.

    Only the first <table> element is consumed. Cell text is collected
    verbatim (entity references decoded by the underlying parser); markup
    nested inside cells is ignored. <td> and <tr> are implicitly closed the
    way browsers close them, but <table>/<thead>/<tbody> left open at end of
    input are reported as parse failures.

    ``feed_dialect`` tokenizes the plain dialect that ``serialize_html``
    writes with one regex: text runs, and tags of the six structural names
    in any ASCII case whose attributes are ASCII-letter names, each after
    one space, with double-quoted values free of ``"&<>``. A <th> or <td>
    start tag, its text and a </th> or </td> end tag make one whole-cell
    token, handled as the three events it stands for; a <tr> start tag,
    such cells without attributes and a </tr> end tag make one whole-row
    token, handled as the events of its separate tokens. It stops at any
    other markup, and the input then goes whole to a fresh parser's
    ``feed``. Both call the handlers below with the same events.
    """

    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self.header_specs: list[list[tuple[str, int, int]]] = []
        self.body_specs: list[list[tuple[str, int, int]]] = []
        self.stage = "before"  # of the first <table>: "before" | "inside" | "done"
        self._sections: list[str] = []  # <thead>/<tbody> not yet closed by their own end tag
        self._section: str | None = None  # "thead" | "tbody" | None; each change flushes the row
        self._row: list[tuple[str, int, int]] | None = None
        self._cell: list[str] | None = None
        self._cell_start = ("td", 1, 1)  # the open cell's (tag, rowspan, colspan)

    # -- helpers -----------------------------------------------------------

    @staticmethod
    def _span(attrs: list[tuple[str, str | None]], name: str) -> int:
        for key, value in attrs:
            if key == name and value is not None:
                try:
                    span = max(1, int(value))
                except ValueError:
                    # a decimal past int()'s digit limit is a huge span, not junk
                    if value.strip().removeprefix("+").isdecimal():
                        raise HtmlParseFailure(f"{name} has more than 4300 digits") from None
                    return 1
                if span > _SPAN_LIMITS[name]:
                    raise HtmlParseFailure(f"{name}={span} exceeds {_SPAN_LIMITS[name]}")
                return span
        return 1

    def _flush_cell(self) -> None:
        if self._cell is not None:
            _, rowspan, colspan = self._cell_start
            self._row.append(("".join(self._cell), rowspan, colspan))
            self._cell = None

    def _flush_row(self) -> None:
        self._flush_cell()
        if self._row is not None:
            (self.header_specs if self._section == "thead" else self.body_specs).append(self._row)
            self._row = None

    def feed_dialect(self, html: str) -> bool:
        """Feed all of ``html`` if it is in the plain dialect, and return
        True; return False at the first ``<`` that opens anything else,
        leaving this parser part-fed."""
        tokens = map(re.Match.groups, _DIALECT_TOKEN.finditer(html))
        for row, cell, cell_attrs, cell_text, text, start, attrs, end in tokens:
            if row is not None:
                if self.stage == "inside":  # <tr>, its cells and </tr> in one
                    self._flush_row()
                    texts = _PLAIN_CELL_TEXT.findall(row)
                    if "&" in row:
                        texts = map(htmllib.unescape, texts)
                    self._row = [(value, 1, 1) for value in texts]
                    self._flush_row()
            elif cell is not None:
                if self.stage == "inside":  # start tag, data and end tag in one
                    if self._cell is not None:
                        self._flush_cell()
                    if self._row is None:
                        self._row = []
                    rowspan = colspan = 1
                    if cell_attrs:
                        pairs = [(k.lower(), v) for k, v in _DIALECT_ATTR.findall(cell_attrs)]
                        rowspan, colspan = self._span(pairs, "rowspan"), self._span(pairs, "colspan")
                    self._row.append((htmllib.unescape(cell_text), rowspan, colspan))
            elif text is not None:
                self.handle_data(htmllib.unescape(text))  # as HTMLParser's convert_charrefs does
            elif start is not None:
                self.handle_starttag(start.lower(), [(k.lower(), v) for k, v in _DIALECT_ATTR.findall(attrs)])
            elif end is not None:
                self.handle_endtag(end.lower())
            else:
                return False
        return True

    # -- parser events -----------------------------------------------------

    def handle_starttag(self, tag, attrs):
        if tag == "table" and self.stage == "before":
            self.stage = "inside"
        elif self.stage != "inside" or tag == "table":
            return  # nested tables are not part of the dialect; ignore
        elif tag in ("thead", "tbody"):
            self._flush_row()
            self._section = tag
            self._sections.append(tag)
        elif tag == "tr":
            self._flush_row()
            self._row = []
        elif tag in ("th", "td"):
            self._flush_cell()
            if self._row is None:
                self._row = []
            self._cell = []
            self._cell_start = (tag, self._span(attrs, "rowspan"), self._span(attrs, "colspan"))

    def handle_endtag(self, tag):
        if self.stage != "inside":
            return
        if tag in ("th", "td"):
            self._flush_cell()
        elif tag in ("tr", "thead", "tbody", "table"):
            self._flush_row()
            if tag == "table":
                self.stage = "done"
            elif tag != "tr":
                if self._sections and self._sections[-1] == tag:
                    self._sections.pop()
                self._section = None

    def handle_data(self, data):
        if self._cell is not None:
            self._cell.append(data)

    def unbalanced(self) -> list[str]:
        # </table> closes the table only when no section is left open
        tags = ["table", *self._sections] if self.stage == "inside" or self._sections else []
        if self._row is not None:
            tags.append("tr")
        if self._cell is not None:
            tags.append(self._cell_start[0])
        return tags


def _parse_specs(html: str) -> tuple[_Specs, _Specs]:
    """The ``(text, rowspan, colspan)`` header and body rows of ``html``'s first <table>.

    Input with markup outside the plain dialect (a comment, another tag, an
    unquoted attribute, a stray or truncated ``<``) is parsed again from the
    start by ``HTMLParser``; both give the same rows or the same error."""
    parser = _TableHtmlParser()
    try:
        if not parser.feed_dialect(html):
            parser = _TableHtmlParser()
            parser.feed(html)
            parser.close()
    except HtmlParseFailure:
        raise
    except Exception as exc:  # html.parser's declaration scanner asserts on input such as "<![$x]>"
        if parser.stage != "done":  # markup after the first </table> is never read
            raise HtmlParseFailure(f"html parser error: {exc}") from exc
    if parser.stage == "before":
        raise HtmlParseFailure("no <table> element found")
    if parser.unbalanced():
        raise HtmlParseFailure("unclosed structural tags: " + ", ".join(parser.unbalanced()))
    return tuple(map(tuple, parser.header_specs)), tuple(map(tuple, parser.body_specs))


def parse_html_table(html: str) -> Table:
    """Parse the first <table> element of ``html`` into an unpadded Table.

    <thead> rows become header rows, everything else body rows; <th> and
    <td> are both accepted in either section, and rowspan/colspan attributes
    are preserved on the cells. A grid of more than 1,000,000 positions
    (rows × width) is an ``HtmlParseFailure``.
    """
    return _place(*_parse_specs(html))


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
    """One table of an extraction response, as the parser's ``(text,
    rowspan, colspan)`` header and body rows. It is not placed on its own:
    its rowspans may run on into the next part once the parts are stitched."""

    starting_token: str | None
    header: _Specs
    body: _Specs


_FENCE_RE = re.compile(r"```[a-zA-Z0-9_-]*\s*\n?(.*?)```", re.DOTALL)


def _locate_json_object(text: str) -> dict:
    """Find the first balanced JSON object in ``text``.

    Tries fenced code blocks first (the instructed response format), then the
    raw text, each decoded from its first brace; the first that decodes to an
    object wins. A truncated outer object is malformed even if some nested
    object would parse.
    """
    candidates = [match.group(1) for match in _FENCE_RE.finditer(text)]
    candidates.append(text)
    decoder = json.JSONDecoder()
    for candidate in candidates:
        pos = candidate.find("{")
        if pos < 0:
            continue
        try:
            obj, _ = decoder.raw_decode(candidate, pos)
        except (ValueError, RecursionError):  # bad JSON, an over-long integer or too deep a nesting
            continue
        if isinstance(obj, dict):
            return obj
    raise MalformedJson("no parseable JSON object in response")


def _entry_field(entry: dict, name: str):
    for key in (f"${name}$", name):
        if key in entry:
            return entry[key]
    return None


def parse_extraction_json(text: str) -> tuple[PartialTable, ...]:
    """Decode a model response into its partial tables.

    Accepts both the dollar-quoted and bare spellings of the envelope keys,
    strips markdown code fences, and ignores prose around the JSON object.
    Other keys, such as ``$row_delimiter$``, are ignored, and so is a blank
    starting token. Text that UTF-8 cannot encode, such as a lone surrogate,
    is an ``HtmlParseFailure``.
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
            raise HtmlParseFailure(f"entry {index} is not an object")
        html = _entry_field(entry, "html_output")
        if not isinstance(html, str):
            raise HtmlParseFailure(f"entry {index} has no html_output")
        token = _entry_field(entry, "starting_token")
        if token is not None and not isinstance(token, str):
            token = str(token)
        token = token if token and token.strip() else None  # a blank token marks no partition
        try:
            (html + (token or "")).encode("utf-8")  # a lone surrogate ("\ud800") cannot be written out
            header, body = _parse_specs(html)
        except (UnicodeEncodeError, HtmlParseFailure) as exc:
            raise HtmlParseFailure(f"entry {index}: {exc}") from exc
        tables.append(PartialTable(token, header, body))
    return tuple(tables)


def concat_partial_tables(parts: Sequence[PartialTable]) -> Table:
    """Stitch partial tables into one and place it once.

    The first table's header is kept. Every subsequent table contributes its
    starting token (when present) as a single-cell body row, followed by its
    own body rows; subsequent headers are dropped as repeats. Rowspans run
    across part boundaries. The result is normalized rectangular; a grid of
    more than 1,000,000 positions is an ``HtmlParseFailure``.
    """
    if not parts:
        raise EmptyExtraction("extraction contained zero tables")
    first, *rest = parts
    body = list(first.body)
    for part in rest:
        if part.starting_token is not None:
            body.append(((part.starting_token, 1, 1),))
        body.extend(part.body)
    return normalize_rectangular(_place(first.header, body))


# ---------------------------------------------------------------------------
# Flattening and CSV
# ---------------------------------------------------------------------------


def flatten_table(table: Table) -> SourceText:
    """Flatten a normalized table into delimiter-free benchmark text: the
    non-empty cell texts of each row joined with single spaces, and rows
    with CRLF, mimicking copy-paste output where empty cells leave no
    trace."""
    lines = []
    for row in table.rows:
        lines.append(" ".join(cell.text for cell in row if cell.text != ""))
    return SourceText("\r\n".join(lines))


def serialize_csv(table: Table) -> str:
    """One field per grid column, ``""`` where no cell is anchored (a span covers it),
    as ``Table.body_columns`` lays out the body; minimal quoting, CRLF rows."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\r\n")
    for row in table.rows:
        fields = [""] * table.width
        for cell in row:
            fields[cell.col] = cell.text
        writer.writerow(fields)
    return buffer.getvalue().rstrip("\r\n")


def parse_csv_table(text: str) -> Table:
    """Load a table from RFC-4180 CSV text; the first row becomes the header."""
    rows = [list(row) for row in csv.reader(io.StringIO(text))]
    return Table.from_rows(body=rows[1:], header=rows[:1])
