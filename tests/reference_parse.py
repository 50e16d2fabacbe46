"""The response parsing that ``tablex.model`` used before its HTML parser
derived its unclosed tags and ``_locate_json_object`` decoded each candidate
once, kept verbatim as the reference for ``tests/test_parse_equivalence.py``.

The parser stores ``saw_table``, ``_row_is_header`` and an ``_open`` stack
of every structural tag; the locator tries ``json.loads`` on each stripped
candidate before ``raw_decode`` from its first brace.
"""

from __future__ import annotations

import json
import re
from html.parser import HTMLParser
from typing import Sequence

from tablex.errors import HtmlParseFailure, MalformedJson

_Specs = Sequence[Sequence[tuple[str, int, int]]]  # rows of (text, rowspan, colspan)
_STRUCTURAL_TAGS = {"table", "thead", "tbody", "tr", "th", "td"}
_SPAN_LIMITS = {"rowspan": 65534, "colspan": 1000}  # HTML's maxima


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


def _parse_specs(html: str) -> tuple[_Specs, _Specs]:
    """The ``(text, rowspan, colspan)`` header and body rows of ``html``'s first <table>."""
    parser = _TableHtmlParser()
    try:
        parser.feed(html)
        parser.close()
    except HtmlParseFailure:
        raise
    except Exception as exc:  # pragma: no cover - html.parser rarely raises
        if not parser._done:  # markup after the first </table> is never read
            raise HtmlParseFailure(f"html parser error: {exc}") from exc
    if not parser.saw_table:
        raise HtmlParseFailure("no <table> element found")
    if parser.unbalanced():
        raise HtmlParseFailure("unclosed structural tags: " + ", ".join(parser.unbalanced()))
    return tuple(map(tuple, parser.header_specs)), tuple(map(tuple, parser.body_specs))



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
        except (ValueError, RecursionError):  # bad JSON, an over-long integer or too deep a nesting
            pass
        pos = candidate.find("{")
        if pos < 0:
            continue
        try:
            obj, _ = decoder.raw_decode(candidate, pos)
        except (ValueError, RecursionError):
            continue
        if isinstance(obj, dict):
            return obj
    raise MalformedJson("no parseable JSON object in response")

