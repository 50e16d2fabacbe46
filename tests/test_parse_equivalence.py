"""Response parsing in ``tablex.model``, whose HTML parser derives its
unclosed tags, tokenizes the plain table dialect with one regex and whose
JSON locator decodes each candidate once, against the parsing it replaced
(``tests/reference_parse.py``, which feeds everything to ``HTMLParser``).

Seeded inputs; each pair of calls must return equal specs or objects, or
raise the same exception type with the same message.

- HTML: tag soup over the structural tags, their end tags and self-closing
  forms, spans (valid, junk, negative, over HTML's maxima, 5,000 digits),
  nested tables, comments, ``<script>``/``<style>``, charrefs, doctypes and
  truncated tags; and near-well-formed tables with spans, nested tables and
  the same noise, with random end tags dropped and random truncation, so
  every shape of the unclosed-tag message appears.
- The dialect: ``serialize_html`` output of seeded tables with spans and
  cell texts holding ``&``, ``<``, quotes, CRLF, U+3000 and ``é``, and every
  HTML table in ``tests/fixtures``, all of which must parse without
  ``HTMLParser.feed``; then one-edit mutations at the dialect's edge
  (upper-case names; single-quoted, unquoted and valueless attributes;
  ``&`` in a value; whitespace and ``/>`` in tags; a stray ``<``, ``<br>``,
  a comment, ``<script>``; U+212A and U+017F in names; a truncated tag),
  each of which must take the path it is listed with.
- JSON: envelopes alone, fenced (with and without a language tag), wrapped
  in prose, after a stray brace, truncated, or as lists; ``NaN`` and
  ``Infinity``, a BOM, U+3000 and other non-JSON whitespace, 5,000-digit
  integers and 3,000-deep nesting.
"""

from __future__ import annotations

import json
import random
from html.parser import HTMLParser
from pathlib import Path
from unittest import mock

from tablex.model import Table, _locate_json_object, _parse_specs, serialize_html

import reference_parse

FIXTURES = Path(__file__).parent / "fixtures"

HTML_STRINGS = 10_000  # of each kind
JSON_STRINGS = 20_000


def _outcome(function, text: str):
    try:
        return "ok", function(text)
    except Exception as exc:  # the comparison is the point: any type, any message
        return type(exc).__name__, str(exc)


def _json_outcome(function, text: str):
    kind, value = _outcome(function, text)
    # repr, not ==: NaN is unequal to itself
    return (kind, repr(value)) if kind == "ok" else (kind, value)


# ---------------------------------------------------------------------------
# HTML
# ---------------------------------------------------------------------------

STRUCTURAL = ["table", "thead", "tbody", "tr", "th", "td"]
SPANS = ['"2"', "3", '"0"', '"-4"', '"abc"', '" 7 "', '"+2"', '"1000"']
BAD_SPANS = ['"65534"', '"65535"', '"1001"', '"' + "9" * 5000 + '"']  # over a maximum, or too many digits for int()
NOISE = [
    "x", " ", "a b", "&amp;", "&lt;td&gt;", "&#x41;", "&#65;", "&bogus;", "&", "<!-- </table> -->",
    "<script></td></table></script>", "<style><tr></style>", "<b>", "</b>", "<br/>", "<p>", "</p>",
    "<!DOCTYPE html>", "<![CDATA[<td>]]>", "<?pi?>", "<", "</", "<td", "</tr", "\n", "\u3000", "é",
]


def _start(rng: random.Random, tag: str) -> str:
    if rng.random() < 0.1:
        tag = tag.upper()
    attrs = ""
    if tag.lower() in ("td", "th") and rng.random() < 0.4:
        for name in rng.sample(["rowspan", "colspan", "ROWSPAN", "class"], rng.randint(1, 2)):
            value = rng.choice(BAD_SPANS if rng.random() < 0.05 else SPANS)
            attrs += f" {name}" if rng.random() < 0.05 else f" {name}={value}"
    return f"<{tag}{attrs}{'/' if rng.random() < 0.03 else ''}>"


def _tag_soup(rng: random.Random) -> str:
    parts = []
    for _ in range(rng.randint(0, 25)):
        roll = rng.random()
        if roll < 0.45:
            parts.append(_start(rng, rng.choice(STRUCTURAL)))
        elif roll < 0.8:
            parts.append(f"</{rng.choice(STRUCTURAL)}>")
        else:
            parts.append(rng.choice(NOISE))
    return "".join(parts)


def _table(rng: random.Random, depth: int = 0) -> list[str]:
    parts = [_start(rng, "table")]
    sections = rng.choice([[None], ["tbody"], ["thead", "tbody"], ["thead"], ["tbody", "thead", "tbody"]])
    for section in sections:
        if section:
            parts.append(_start(rng, section))
        for _ in range(rng.randint(0, 4)):
            parts.append(_start(rng, "tr"))
            for _ in range(rng.randint(0, 4)):
                tag = "th" if section == "thead" or rng.random() < 0.1 else "td"
                parts.append(_start(rng, tag))
                if depth < 2 and rng.random() < 0.05:
                    parts.extend(_table(rng, depth + 1))
                else:
                    text = rng.choice(NOISE[:16]) if rng.random() < 0.3 else rng.choice(["1", "Alpha", "2.5%", ""])
                    parts.append(text)
                parts.append(f"</{tag}>")
            parts.append("</tr>")
        if section:
            parts.append(f"</{section}>")
    parts.append("</table>")
    return parts


def _near_table(rng: random.Random) -> str:
    parts = _table(rng)
    drop = rng.random() * 0.3
    parts = [p for p in parts if not (p.startswith("</") and rng.random() < drop)]
    text = rng.choice(["", "prose ", "<p>intro</p>", "<!-- <table> -->"]) + "".join(parts)
    text += rng.choice(["", " tail", _start(rng, "table") + "<tr><td>second</td></tr></table>"])
    if rng.random() < 0.15:
        text = text[: rng.randint(0, len(text))]
    return text


def test_html_parse_matches_reference():
    rng = random.Random(20261018)
    mismatches, errors = [], set()
    for make in (_tag_soup, _near_table):
        for _ in range(HTML_STRINGS):
            text = make(rng)
            expected = _outcome(reference_parse._parse_specs, text)
            if _outcome(_parse_specs, text) != expected:
                mismatches.append(text)
            errors.add(expected[1].split(":")[0] if expected[0] != "ok" else "ok")
    assert mismatches[:5] == []
    # the inputs reach every outcome, unclosed tags included
    assert {"ok", "no <table> element found", "unclosed structural tags"} <= errors
    assert any(e.startswith("rowspan=") for e in errors) and "colspan has more than 4300 digits" in errors


# ---------------------------------------------------------------------------
# The dialect's regex tokenizer and its fallback to HTMLParser
# ---------------------------------------------------------------------------

CELL_CHARS = ["a", "Z", "7", " ", ".", "&", "<", ">", '"', "'", "\r\n", "\u3000", "é", "&amp;", ";"]


def _seeded_table(rng: random.Random) -> Table:
    text = lambda: "".join(rng.choice(CELL_CHARS) for _ in range(rng.randint(0, 6)))
    spec = lambda: (text(), rng.choice([1, 1, 1, 2, 3]), rng.choice([1, 1, 1, 2]))
    width = rng.randint(1, 5)
    header = [[spec() for _ in range(rng.randint(1, width))] for _ in range(rng.randint(0, 2))]
    body = [[spec() for _ in range(rng.randint(1, width))] for _ in range(rng.randint(0, 6))]
    return Table.from_rows(body=body, header=header)


def _dialect_tables() -> list[str]:
    rng = random.Random(20261020)
    tables = [serialize_html(_seeded_table(rng)) for _ in range(300)]
    tables.append((FIXTURES / "balance_sheet_gold.html").read_text(encoding="utf-8"))
    listing = json.loads((FIXTURES / "listing3.json").read_text(encoding="utf-8"))
    tables += [entry["html_output"] for entry in listing["tables"]]
    corpus = json.loads((FIXTURES / "corrupted_corpus.json").read_text(encoding="utf-8"))["fixtures"]
    tables += [serialize_html(Table.from_rows(body=f["rows"], header=f["header"])) for f in corpus]
    return tables


def test_dialect_tables_parse_without_html_parser():
    tables = _dialect_tables()
    expected = [_outcome(reference_parse._parse_specs, text) for text in tables]
    assert any("rowspan" in t for t in tables) and any("&#x27;" in t and "\r\n" in t for t in tables)
    with mock.patch.object(HTMLParser, "feed", side_effect=AssertionError("HTMLParser.feed called")):
        mismatches = [text for text, want in zip(tables, expected) if _outcome(_parse_specs, text) != want]
    assert mismatches[:3] == []


BASE = '<table><thead><tr><th rowspan="2">A</th><th>B &amp; C</th></tr></thead><tbody><tr><td>1</td></tr></tbody></table>'
DIALECT, FALLBACK = "dialect", "html.parser"
MUTATIONS = [  # (edit of BASE, the path that must parse it)
    (("<table>", "<TABLE>"), DIALECT),
    (("</td>", "</Td>"), DIALECT),
    (('rowspan="2"', 'ROWSPAN="2"'), DIALECT),
    (('rowspan="2"', 'rowspan="2" colspan="1001"'), DIALECT),  # fails in the dialect's handler
    (('rowspan="2"', 'rowspan="x y"'), DIALECT),
    (("<th>B", '<th class="">B'), DIALECT),
    (("</tr></thead>", "</thead>"), DIALECT),
    (("</table>", ""), DIALECT),
    (('rowspan="2"', "rowspan='2'"), FALLBACK),
    (('rowspan="2"', "rowspan=2"), FALLBACK),
    (('rowspan="2"', "rowspan"), FALLBACK),
    (('rowspan="2"', 'rowspan="2&#48;"'), FALLBACK),
    (('rowspan="2"', 'rowspan="2" title="a&amp;b"'), FALLBACK),
    (('rowspan="2"', ' rowspan="2"'), FALLBACK),
    (('rowspan="2"', 'rowspan = "2"'), FALLBACK),
    (("<th>B", "<th\n>B"), FALLBACK),
    (("<th>B", "<th >B"), FALLBACK),
    (("</td>", "</td >"), FALLBACK),
    (("</td>", "</td\n>"), FALLBACK),
    (("<td>1</td>", "<td/>"), FALLBACK),
    (("<td>1</td>", "<td>1</td/>"), FALLBACK),
    (("1", "1 < 2"), FALLBACK),
    (("1", "1<"), FALLBACK),
    (("1", "1<br>2"), FALLBACK),
    (("1", "1<!-- </table> -->"), FALLBACK),
    (("1", "<script></td></table></script>"), FALLBACK),
    (("<tbody>", "<!DOCTYPE html><tbody>"), FALLBACK),
    (("<tbody>", "<tfoot>"), FALLBACK),
    (('rowspan="2"', 'row\u017fpan="2"'), FALLBACK),
    (('rowspan="2"', '\u212a="2"'), FALLBACK),
    (("</table>", "</table"), FALLBACK),
    (("</table>", "</tab"), FALLBACK),
    (("</table>", "<"), FALLBACK),
]


def test_dialect_boundary_mutations_match_reference():
    real_feed, fed = HTMLParser.feed, []

    def feed(self, data):
        fed.append(data)
        return real_feed(self, data)

    kinds = set()
    for (old, new), path in MUTATIONS:
        text = BASE.replace(old, new, 1)
        expected = _outcome(reference_parse._parse_specs, text)
        fed.clear()
        with mock.patch.object(HTMLParser, "feed", feed):
            got = _outcome(_parse_specs, text)
        assert (got, FALLBACK if fed else DIALECT) == (expected, path), text
        kinds.add(expected[0])
    assert {path for _, path in MUTATIONS} == {DIALECT, FALLBACK}
    assert kinds == {"ok", "HtmlParseFailure"}


# ---------------------------------------------------------------------------
# JSON
# ---------------------------------------------------------------------------

ENVELOPES = [
    {"tables": [{"$starting_token$": None, "$html_output$": "<table><tr><td>1</td></tr></table>"}]},
    {"tables": []},
    {"tables": [], "row_delimiter": "\r\n"},
    {"other": {"tables": [1]}},
    {"nested": {"a": [1, 2, {"b": "}"}]}},
    {},
]
BLANKS = ["", " ", "\n", "\t", "\r\n", "\u3000", "\xa0", "\x1c", "\ufeff", "\u2028"]


def _json_value(rng: random.Random) -> str:
    roll = rng.random()
    if roll < 0.45:
        return json.dumps(rng.choice(ENVELOPES), indent=rng.choice([None, 2]))
    if roll < 0.55:
        return rng.choice(['{"tables": [NaN]}', '{"v": Infinity, "tables": []}', '{"v": -Infinity}', "[NaN, {}]"])
    if roll < 0.65:
        return rng.choice(["[1, 2]", '[{"tables": []}]', '"text"', "42", "null", "true"])
    if roll < 0.72:
        digits = "7" * rng.choice([10, 4300, 4301, 5000])
        return rng.choice([f'{{"n": {digits}}}', f"[{digits}]", f'{{"n": {digits}, "tables": []}}'])
    if roll < 0.8:
        depth = rng.choice([1, 5, 50, 3000])
        if rng.random() < 0.5:
            return '{"a": ' * depth + "1" + "}" * depth
        return '{"a": ' + "[" * depth + "]" * depth + "}"
    full = json.dumps(rng.choice(ENVELOPES))
    return full[: rng.randint(0, len(full))]  # truncated


def _json_text(rng: random.Random) -> str:
    blank = lambda: rng.choice(BLANKS)
    text = blank() + _json_value(rng) + blank()
    roll = rng.random()
    if roll < 0.3:
        text = f"```{rng.choice(['json', '', 'JSON', 'js-on'])}{rng.choice(['', chr(10), ' '])}{text}```"
    if roll < 0.15:
        text += rng.choice(["", "\n```\n" + _json_value(rng) + "\n```", " and ```{}```"])
    if rng.random() < 0.3:
        text = rng.choice(["Here it is: ", "a { stray brace ", "see {} then ", "[", "```", "x"]) + text
    if rng.random() < 0.3:
        text += rng.choice([" done.", " }", " {\"tables\": []}", "```", "\n"])
    return text


def test_json_locate_matches_reference():
    rng = random.Random(20261019)
    mismatches, kinds = [], set()
    for _ in range(JSON_STRINGS):
        text = _json_text(rng)
        expected = _json_outcome(reference_parse._locate_json_object, text)
        if _json_outcome(_locate_json_object, text) != expected:
            mismatches.append(text)
        kinds.add(expected[0])
    assert mismatches[:5] == []
    assert kinds == {"ok", "MalformedJson"}


if __name__ == "__main__":  # PYTHONPATH=src python tests/test_parse_equivalence.py
    import sys

    tests = [(name, test) for name, test in sorted(globals().items()) if name.startswith("test_")]
    for name, test in tests:
        test()
        print(f"{name} passed")
    print(f"{len(tests)} passed on Python {sys.version.split()[0]}")
