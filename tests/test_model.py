from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tablex.checker import compute_coverage
from tablex.errors import EmptyExtraction, HtmlParseFailure, MalformedJson, MissingTablesKey
from tablex.model import (
    ExtractionResult,
    FlattenStyle,
    PartialTable,
    SourceText,
    Table,
    concat_partial_tables,
    flatten_table,
    normalize_rectangular,
    parse_csv_table,
    parse_extraction_json,
    parse_html_table,
    serialize_csv,
    serialize_html,
)

MINIMAL = "<table><thead><tr><th>A</th></tr></thead><tbody><tr><td>1</td></tr></tbody></table>"


def texts(rows):
    return [[c.text for c in row] for row in rows]


# ---------------------------------------------------------------------------
# SourceText
# ---------------------------------------------------------------------------


def test_source_text_views():
    src = SourceText("Revenue 750, Cost: 320\r\nnext")
    # coverage weighs tokens by their alphanumeric characters: 21 here
    kept = Table.from_rows(body=[["Revenue", "750,"]])
    assert compute_coverage(src, kept) == pytest.approx(len("Revenue750") / len("Revenue750Cost320next"))
    assert src.tokens == ("Revenue", "750,", "Cost:", "320", "next")
    assert all(not any(ch.isspace() for ch in tok) for tok in src.tokens)


# ---------------------------------------------------------------------------
# parse_extraction_json
# ---------------------------------------------------------------------------


def test_parse_extraction_listing(listing_json):
    result = parse_extraction_json(listing_json)
    assert len(result.tables) == 2
    assert [t.starting_token for t in result.tables] == [
        "Biological Process",
        "Molecular Function",
    ]
    first = result.tables[0].table
    header = texts(first.header_rows)
    assert len(header) == 1 and len(header[0]) == 5
    assert header[0][0] == "GO Category"
    assert result.row_delimiter is None


def test_parse_extraction_empty():
    result = parse_extraction_json('{"tables": []}')
    assert result.tables == ()
    assert result.row_delimiter is None


def test_parse_extraction_truncated_is_malformed(listing_json):
    truncated = listing_json.rstrip().rstrip("}")
    with pytest.raises(MalformedJson):
        parse_extraction_json(truncated)


def test_parse_extraction_fenced_and_prose():
    wrapped = (
        "Sure, here is the table you asked for:\n```json\n"
        '{"tables": [{"$starting_token$": null, "$html_output$": "%s"}], "$row_delimiter$": "\\\\r\\\\n"}'
        "\n```\nLet me know if you need anything else." % MINIMAL.replace('"', '\\"')
    )
    result = parse_extraction_json(wrapped)
    assert len(result.tables) == 1
    assert result.tables[0].starting_token is None
    assert result.row_delimiter == "\\r\\n"


def test_parse_extraction_prose_without_fence(listing_json):
    result = parse_extraction_json("Model says:\n" + listing_json + "\nDone.")
    assert len(result.tables) == 2


def test_parse_extraction_missing_tables_key():
    with pytest.raises(MissingTablesKey):
        parse_extraction_json('{"rows": []}')


def test_parse_extraction_entry_failure_carries_index():
    payload = json.dumps(
        {"tables": [{"html_output": MINIMAL}, {"html_output": "<p>nope</p>"}]}
    )
    with pytest.raises(HtmlParseFailure) as err:
        parse_extraction_json(payload)
    assert err.value.entry_index == 1


# ---------------------------------------------------------------------------
# parse_html_table
# ---------------------------------------------------------------------------


def test_parse_html_minimal():
    table = parse_html_table(MINIMAL)
    assert texts(table.header_rows) == [["A"]]
    assert texts(table.body_rows) == [["1"]]


def test_parse_html_listing_first_table(listing_json):
    html = json.loads(listing_json)["tables"][0]["html_output"]
    table = parse_html_table(html)
    header = texts(table.header_rows)
    assert len(header[0]) == 5 and header[0][0] == "GO Category"
    assert len(table.body_rows) == 7
    assert texts(table.body_rows)[0] == ["Biological Process"]


def test_parse_html_decodes_entities(listing_json):
    html = json.loads(listing_json)["tables"][0]["html_output"]
    table = parse_html_table(html)
    assert [c.text for c in table.body_rows[1]][-1] == "<0.001"


def test_parse_html_colspan_counts_toward_width():
    html = (
        "<table><tbody>"
        '<tr><td colspan="2">wide</td></tr>'
        "<tr><td>a</td><td>b</td></tr>"
        "</tbody></table>"
    )
    table = normalize_rectangular(parse_html_table(html))
    assert table.width == 2
    wide = table.body_rows[0][0]
    assert wide.colspan == 2
    assert len(table.body_rows[0]) == 1  # span covers the row, no padding added


def test_parse_html_rowspan_occupies_next_row():
    html = (
        "<table><tbody>"
        '<tr><td rowspan="2">tall</td><td>r0</td></tr>'
        "<tr><td>r1</td></tr>"
        "</tbody></table>"
    )
    table = parse_html_table(html)
    assert table.body_rows[1][0].col == 1  # shifted right of the spanning cell


def test_parse_html_requires_table():
    with pytest.raises(HtmlParseFailure):
        parse_html_table("<div>just text</div>")


def test_parse_html_unclosed_table():
    with pytest.raises(HtmlParseFailure):
        parse_html_table("<table><tbody><tr><td>x</td></tr>")


def test_parse_html_cell_text_verbatim():
    table = parse_html_table("<table><tbody><tr><td> padded  text </td></tr></tbody></table>")
    assert table.body_rows[0][0].text == " padded  text "


# ---------------------------------------------------------------------------
# normalize_rectangular
# ---------------------------------------------------------------------------


def test_normalize_pads_short_rows():
    table = Table.from_rows(
        body=[["a", "b", "c"], ["d", "e"], ["f", "g", "h"]], normalized=False
    )
    normalized = normalize_rectangular(table)
    assert normalized.width == 3
    assert texts(normalized.body_rows)[1] == ["d", "e", ""]
    pad = normalized.body_rows[1][2]
    assert (pad.rowspan, pad.colspan) == (1, 1)


def test_normalize_idempotent_and_stable():
    table = Table.from_rows(body=[["a", "b"], ["c"]], normalized=False)
    once = normalize_rectangular(table)
    twice = normalize_rectangular(once)
    assert once == twice
    assert serialize_html(once) == serialize_html(twice)


def test_normalize_colspan_row_needs_no_padding():
    table = Table.from_rows(
        body=[[("span", 1, 2), "x"], ["a", "b", "c"]], normalized=False
    )
    normalized = normalize_rectangular(table)
    assert normalized.width == 3
    assert len(normalized.body_rows[0]) == 2  # colspan already fills the grid


def test_normalize_never_edits_text():
    table = Table.from_rows(body=[[" a ", "b"], ["c"]], normalized=False)
    normalized = normalize_rectangular(table)
    assert texts(normalized.body_rows)[0] == [" a ", "b"]


# ---------------------------------------------------------------------------
# concat_partial_tables
# ---------------------------------------------------------------------------


def test_concat_listing(listing_json):
    result = parse_extraction_json(listing_json)
    combined = concat_partial_tables(result)
    body = texts(combined.body_rows)
    assert len(body) == 15  # 7 + 7 body rows + 1 starting-token row
    assert body[0][0] == "Biological Process"
    assert body[7][0] == "Molecular Function"  # inserted token row
    assert body[8][0] == "Molecular Function"  # the partial table's own row
    assert combined.width == 5
    assert texts(combined.header_rows)[0][0] == "GO Category"


def test_concat_single_table_is_identity(listing_json):
    html = json.loads(listing_json)["tables"][0]["html_output"]
    table = parse_html_table(html)
    result = ExtractionResult(tables=(PartialTable(None, table),))
    assert concat_partial_tables(result) == normalize_rectangular(table)


def test_concat_pads_to_widest():
    small = Table.from_rows(body=[["a", "b"]], header=[["H1", "H2"]])
    wide = Table.from_rows(body=[["c", "d", "e"]])
    result = ExtractionResult(tables=(PartialTable(None, small), PartialTable("S", wide)))
    combined = concat_partial_tables(result)
    assert combined.width == 3
    assert texts(combined.body_rows) == [["a", "b", ""], ["S", "", ""], ["c", "d", "e"]]


def test_concat_empty_extraction():
    with pytest.raises(EmptyExtraction):
        concat_partial_tables(ExtractionResult(tables=()))


# ---------------------------------------------------------------------------
# serialize_html
# ---------------------------------------------------------------------------


def test_serialize_roundtrip_minimal():
    table = normalize_rectangular(parse_html_table(MINIMAL))
    assert parse_html_table(serialize_html(table)) == table


def test_serialize_escapes_specials():
    table = Table.from_rows(body=[["a<b & c>d"]])
    html = serialize_html(table)
    assert "a<b" not in html and "&lt;" in html
    assert parse_html_table(html).body_rows[0][0].text == "a<b & c>d"


def test_serialize_roundtrip_listing(listing_json):
    for entry in json.loads(listing_json)["tables"]:
        table = normalize_rectangular(parse_html_table(entry["html_output"]))
        assert parse_html_table(serialize_html(table)) == table


# ---------------------------------------------------------------------------
# flatten_table / CSV
# ---------------------------------------------------------------------------


def test_flatten_ocr_joins():
    table = Table.from_rows(body=[["a", "b"], ["c", "d"]])
    assert flatten_table(table, FlattenStyle.OCR).raw == "a b\r\nc d"


def test_flatten_csv_joins():
    table = Table.from_rows(body=[["a", "b"], ["c", "d"]])
    assert flatten_table(table, FlattenStyle.CSV).raw == "a,b\r\nc,d"


def test_flatten_ocr_skips_empty_cells():
    table = Table.from_rows(body=[["label", "", ""], ["x", "1", "2"]])
    assert flatten_table(table, FlattenStyle.OCR).raw == "label\r\nx 1 2"


def test_flatten_balance_sheet_excerpt(balance_sheet_gold):
    excerpt = Table.from_rows(
        header=[[c.text for c in row] for row in balance_sheet_gold.header_rows],
        body=[[c.text for c in row] for row in balance_sheet_gold.body_rows[:3]],
    )
    assert flatten_table(excerpt, FlattenStyle.OCR).raw == (
        "Particulars Note As at As at\r\n"
        "No. March 31,2024 March 31,2023\r\n"
        "A ASSETS\r\n"
        "Non-Current Assets\r\n"
        "(a) Property, Plant and Equipment 3 513.49 211.06"
    )


def test_flatten_balance_sheet_matches_input(balance_sheet_gold, balance_sheet_source):
    assert flatten_table(balance_sheet_gold, FlattenStyle.OCR).raw == balance_sheet_source.raw


def test_csv_roundtrip_with_quoting():
    table = Table.from_rows(header=[["H1", "H2"]], body=[["a,b", 'say "hi"'], ["c", "d"]])
    text = serialize_csv(table)
    parsed = parse_csv_table(text)
    assert texts(parsed.header_rows) == [["H1", "H2"]]
    assert texts(parsed.body_rows) == [["a,b", 'say "hi"'], ["c", "d"]]


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------

CELL_ALPHABET = st.text(
    alphabet="abcXYZ019 .,:;()[]&<>\"'%$#!-_/",
    max_size=12,
)


@st.composite
def tables(draw, max_rows=4, max_cols=4):
    width = draw(st.integers(1, max_cols))
    n_header = draw(st.integers(0, 2))
    n_body = draw(st.integers(0, max_rows))
    make_row = lambda: [draw(CELL_ALPHABET) for _ in range(width)]
    return Table.from_rows(
        header=[make_row() for _ in range(n_header)],
        body=[make_row() for _ in range(n_body)],
    )


@settings(max_examples=150, deadline=None)
@given(tables())
def test_property_html_roundtrip(table):
    assert parse_html_table(serialize_html(table)) == table


@settings(max_examples=150, deadline=None)
@given(tables())
def test_property_normalize_idempotent(table):
    assert normalize_rectangular(table) == table  # built normalized already
    renorm = normalize_rectangular(normalize_rectangular(table))
    assert renorm == table


@settings(max_examples=100, deadline=None)
@given(tables())
def test_property_flatten_charset(table):
    allowed = set("".join(c.text for c in table.cells())) | set(" \r\n")
    assert set(flatten_table(table, FlattenStyle.OCR).raw) <= allowed


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.one_of(st.none(), st.text("AB", min_size=1, max_size=3)), tables()), min_size=1, max_size=4))
def test_property_concat_row_count(parts):
    result = ExtractionResult(tables=tuple(PartialTable(tok, t) for tok, t in parts))
    combined = concat_partial_tables(result)
    body_rows = sum(len(t.body_rows) for _, t in parts)
    tokens = sum(1 for tok, _ in parts[1:] if tok is not None)
    assert len(combined.body_rows) == body_rows + tokens


def test_serialize_roundtrip_with_spans():
    table = Table.from_rows(
        body=[[("tall", 2, 1), "r0"], ["r1"], [("wide", 1, 2)]],
    )
    html = serialize_html(table)
    assert 'rowspan="2"' in html and 'colspan="2"' in html
    assert parse_html_table(serialize_html(table)) == table


def test_normalize_preserves_spans():
    table = Table.from_rows(body=[[("wide", 1, 2)], ["a", "b"]], normalized=False)
    normalized = normalize_rectangular(table)
    assert normalized.body_rows[0][0].colspan == 2
    assert len(normalized.body_rows[0]) == 1
