"""The whole-cell and whole-row tokens of ``tablex.model``'s dialect
tokenizer: a <th> or <td> start tag, its text and a </th> or </td> end tag,
handled as one event equal to the three it stands for, and a <tr> of such
cells without attributes through its </tr>, equal to the events of its
separate tokens. Each edge input must parse as
``tests/reference_parse.py`` parses it (equal specs, or the same exception
type and message) and take the path it is listed with; and every table the
benchmark corpora hold must parse without ``HTMLParser.feed``.
"""

from __future__ import annotations

import sys
import types
from html.parser import HTMLParser
from pathlib import Path
from unittest import mock

from tablex.errors import MalformedJson
from tablex.model import _locate_json_object, _parse_specs

import reference_parse

CORPUS = Path(__file__).resolve().parents[1] / "perfbench" / "corpus.py"
DIALECT, FALLBACK = "dialect", "html.parser"
ROW = "<table><tr>{}</tr></table>"
EDGES = [  # (html, the path that must parse it)
    (ROW.format("<TD>a</TD><Th>b</tH><tD>c</Td>"), DIALECT),
    (ROW.format("<td></td><td> </td><td>x</td>"), DIALECT),
    (ROW.format("<td>x</th><th>y</td>"), DIALECT),
    (ROW.format("<td>a<td>b</td>"), DIALECT),  # the whole cell closes the open one
    (ROW.format("<td>a</td>b<td>c"), DIALECT),  # text between cells, a last cell left open
    ("<table><td>a</td><td>b</td></table>", DIALECT),  # a whole cell opens a row
    ('<td>pre</td><td rowspan="70000">x</td><table><tr><td>a</td></tr></table>', DIALECT),
    ('<table><tr><td>a</td></tr></table><td>post</td><td colspan="2000">z</td>', DIALECT),
    ('<table><tr><td>a</td></tr></table><table><tr><td>second</td></tr></table>', DIALECT),
    ("<table><thead><th>h1</th><th>h2</th></thead><tr><td>a</td></tr></table>", DIALECT),
    ("<table><thead><tr><th>h</th></tr><td>x</td></thead><tbody><td>b</td></tbody></table>", DIALECT),
    ("<table><thead><tr><th>h</th></tr></table>", DIALECT),  # </table> inside an open <thead>
    (ROW.format("<td>a &amp; b &lt;c&gt; &#233;&#x27;&quot;&nbsp;&amp &copy &bogus; &</td>"), DIALECT),
    (ROW.format('<td rowspan="2" colspan="3">a</td><td ROWSPAN="2" CLASS="k">b</td>'), DIALECT),
    (ROW.format('<td rowspan="0">a</td><td colspan="-4">b</td><td rowspan="x y">c</td>'), DIALECT),
    (ROW.format('<td rowspan="+2">a</td><td colspan=" 7 ">b</td><td title="">c</td>'), DIALECT),
    (ROW.format('<td colspan="1001">a</td>'), DIALECT),
    (ROW.format('<td rowspan="65535">a</td>'), DIALECT),
    (ROW.format('<td rowspan="' + "9" * 5000 + '">a</td>'), DIALECT),
    (ROW.format('<td rowspan="65535" colspan="1001">a</td>'), DIALECT),  # rowspan is read first
    (ROW.format('<td>a</td><td colspan="1001">b</td><td rowspan="65535">c</td>'), DIALECT),
    (ROW.format('<td colspan="1001">a'), DIALECT),  # a bad span on a start tag alone
    ("<table><tr><td>a</td>", DIALECT),  # unclosed tags
    ("<table><thead><tr><th>a</th>", DIALECT),
    ("<td>a</td>", DIALECT),  # no <table>
    # whole rows
    ("<table><TR><TD>a</TD><Th>b</tH></Tr><tr><td>c</td><td>d</td></tr></table>", DIALECT),
    ("<table><TR><TD>a", DIALECT),
    ("<table><tr></tr><tr><td>a</td></tr><tr></tr></table>", DIALECT),
    ("<table><tr></tr></table>", DIALECT),
    ("<table><tr><td>a &amp; b</td><td>&lt;c&gt; &#233;&amp</td><td>plain</td></tr></table>", DIALECT),
    ("<tr><td>pre</td></tr><table><tr><td>a</td></tr></table><tr><td>post</td></tr>", DIALECT),
    ("<tr><td>pre</td></tr><td>x</td>", DIALECT),  # no <table>
    ("<table><thead><tr><th>h</th></tr><tr><th>i</th></tr></thead><tr><td>a</td></tr></table>", DIALECT),
    ("<table><thead><tr><th>h</th></tr><tbody><tr><td>b</td></tr></tbody></table>", DIALECT),
    ("<table><thead><tr><th>h</th></tr><tr><td>x</td></tr></table>", DIALECT),  # <thead> left open
    ("<table><tr><td>x<tr><td>a</td></tr></table>", DIALECT),  # after an unclosed <td>
    ("<table><td>x<tr><td>a</td></tr><td>y</td></table>", DIALECT),
    ('<table><tr><td>a</td><td rowspan="2">b</td><td>c</td></tr><tr><td>d</td><td>e</td></tr></table>', DIALECT),
    ('<table><tr><td rowspan="2">a</td><td>b</td></tr><tr><td>c</td></tr></table>', DIALECT),
    ("<table><tr><td>a</td> <td>b</td></tr><tr> <td>c</td></tr ></table>", FALLBACK),
    ("<table><tr><td>a</td> <td>b</td>\n</tr></table>", DIALECT),  # text between cells
    ('<table><tr class="r"><td>a</td></tr></table>', DIALECT),
    (ROW.format("<td>a</td ><td>b</td>"), FALLBACK),
    (ROW.format("<td>a<b>c</td>"), FALLBACK),
    (ROW.format("<td>a<b>"), FALLBACK),
    (ROW.format("<td>a</td\n><td>b</td>"), FALLBACK),
    (ROW.format('<td rowspan="2&#48;">a</td>'), FALLBACK),
    (ROW.format("<td rowspan=2>a</td>"), FALLBACK),
    (ROW.format("<td >a</td>"), FALLBACK),
    (ROW.format("<td>a</td"), FALLBACK),
]


def _outcome(function, text: str):
    try:
        return "ok", function(text)
    except Exception as exc:  # the comparison is the point: any type, any message
        return type(exc).__name__, str(exc)


def test_whole_cell_edges_match_reference():
    real_feed, fed = HTMLParser.feed, []

    def feed(self, data):
        fed.append(data)
        return real_feed(self, data)

    kinds = set()
    for text, path in EDGES:
        expected = _outcome(reference_parse._parse_specs, text)
        fed.clear()
        with mock.patch.object(HTMLParser, "feed", feed):
            got = _outcome(_parse_specs, text)
        assert (got, FALLBACK if fed else DIALECT) == (expected, path), text
        kinds.add(expected[0])
    assert kinds == {"ok", "HtmlParseFailure"}


def _load_corpus() -> types.ModuleType:
    """``perfbench/corpus.py``, read and run, never imported, so no
    bytecode is written next to it. Its dataclasses look their module up in
    ``sys.modules`` while it runs."""
    module = types.ModuleType("perfbench_corpus")
    module.__file__ = str(CORPUS)
    with mock.patch.dict(sys.modules, {module.__name__: module}):
        exec(compile(CORPUS.read_text(encoding="utf-8"), str(CORPUS), "exec"), module.__dict__)
    return module


def _corpus_tables() -> list[str]:
    """Every gold table and every response's tables of each workload at seed 1."""
    tables = []
    for make in _load_corpus().WORKLOADS.values():
        for plan in make(1):
            tables.append(plan.gold_html)
            for response in plan.responses:
                try:
                    envelope = _locate_json_object(response)
                except MalformedJson:  # the "never" shape answers with prose alone
                    continue
                tables += [entry.get("html_output", entry.get("$html_output$")) for entry in envelope["tables"]]
    return tables


def test_corpus_tables_parse_without_html_parser():
    tables = _corpus_tables()
    assert len(tables) > 400 and sum(len(t) for t in tables) > 1_000_000
    expected = [_outcome(reference_parse._parse_specs, text) for text in tables]
    assert all(kind == "ok" for kind, _ in expected)
    with mock.patch.object(HTMLParser, "feed", side_effect=AssertionError("HTMLParser.feed called")):
        mismatches = [text[:80] for text, want in zip(tables, expected) if _outcome(_parse_specs, text) != want]
    assert mismatches[:3] == []
