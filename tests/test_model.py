from __future__ import annotations

import json
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tablex.checker import compute_coverage
from tablex.errors import EmptyExtraction, HtmlParseFailure, MalformedJson, MissingTablesKey, TablexError
from tablex.model import (
    Cell,
    PartialTable,
    SourceText,
    Table,
    _parse_specs,
    concat_partial_tables,
    flatten_table,
    normalize_rectangular,
    parse_csv_table,
    parse_extraction_json,
    parse_html_table,
    serialize_csv,
    serialize_html,
)

import reference_parse

MINIMAL = "<table><thead><tr><th>A</th></tr></thead><tbody><tr><td>1</td></tr></tbody></table>"


def texts(rows):
    return [[c.text for c in row] for row in rows]


def spec_texts(rows):
    return [[text for text, _, _ in row] for row in rows]


def partial(token, table):
    """A PartialTable holding the cell specs of ``table``."""
    specs = lambda rows: tuple(tuple((c.text, c.rowspan, c.colspan) for c in row) for row in rows)
    return PartialTable(token, specs(table.header_rows), specs(table.body_rows))


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


def test_alnum_count_counts_what_isalnum_counts():
    for raw in ("", "café ² ٣ _ a\u3000b\r\nc", "x_1\u30002²\r\n٣é", "___ \r\n \u3000"):
        assert SourceText(raw).alnum_count == sum(1 for ch in raw if ch.isalnum())
    assert SourceText("é²٣_\u3000\r\n").alnum_count == 3


# ---------------------------------------------------------------------------
# Cell
# ---------------------------------------------------------------------------


def test_cell_is_slotted_frozen_and_hashable():
    cell = Cell("a", 1, 2, 1)
    assert not hasattr(cell, "__dict__")
    with pytest.raises(AttributeError):
        cell.text = "b"
    twin = Cell("a", 1, rowspan=2)
    assert twin == cell and hash(twin) == hash(cell) and len({cell, twin}) == 1
    assert Cell("a", 1) != cell and Cell("a", 1) == ("a", 1, 1, 1)


# ---------------------------------------------------------------------------
# parse_extraction_json
# ---------------------------------------------------------------------------


def test_parse_extraction_listing(listing_json):
    result = parse_extraction_json(listing_json)
    assert len(result) == 2
    assert [t.starting_token for t in result] == [
        "Biological Process",
        "Molecular Function",
    ]
    first = result[0]
    header = spec_texts(first.header)
    assert len(header) == 1 and len(header[0]) == 5
    assert header[0][0] == "GO Category"


def test_parse_extraction_empty():
    result = parse_extraction_json('{"tables": []}')
    assert result == ()


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
    assert len(result) == 1
    assert result[0].starting_token is None


def test_parse_extraction_prose_without_fence(listing_json):
    result = parse_extraction_json("Model says:\n" + listing_json + "\nDone.")
    assert len(result) == 2


def test_parse_extraction_missing_tables_key():
    with pytest.raises(MissingTablesKey):
        parse_extraction_json('{"rows": []}')


def test_parse_extraction_tables_not_an_array():
    with pytest.raises(MissingTablesKey):
        parse_extraction_json('{"tables": {}}')


@pytest.mark.parametrize(
    "html",
    [
        "<table><tr><td><![$x]>",
        "<![$x]><table><tr><td>a</td></tr></table>",
        "<table><tr><td>a</td></tr></table><![ x",
        "<table><tr><td>a<![if x]>b</td></tr></table>",
    ],
)
def test_parse_extraction_html_parser_error_is_html_parse_failure(html):
    """html.parser's declaration scanner raises on some ``<![`` markup (an
    AssertionError on Python 3.11.7). CPython patch releases have changed how
    it reads ``<![``, so either outcome is allowed, but no other exception."""
    try:
        [part] = parse_extraction_json(json.dumps({"tables": [{"html_output": html}]}))
    except HtmlParseFailure as exc:
        assert str(exc).startswith("entry 0: ")
    else:
        assert isinstance(part.body, tuple)


@pytest.mark.parametrize("tail", ["<![ x", "<![$x]>"])
def test_markup_after_the_first_table_never_fails_the_entry(tail):
    """Only the first <table> is read, so an html.parser error in what
    follows its </table> keeps its rows; the reference parser agrees. An
    error inside the table, or a section left open at </table>, still
    fails the entry."""
    table = "<table><tr><td>a</td></tr></table>"
    [part] = parse_extraction_json(json.dumps({"tables": [{"html_output": table + tail}]}))
    assert part.header == () and part.body == ((("a", 1, 1),),)
    assert reference_parse._parse_specs(table + tail) == (part.header, part.body)
    for html in ["<table><tr><td>a</td></tr>" + tail, "<table><thead><tr><td>a</td></tr></table>" + tail]:
        with pytest.raises(HtmlParseFailure, match="^entry 0: "):
            parse_extraction_json(json.dumps({"tables": [{"html_output": html}]}))


def test_parse_extraction_entry_failure_carries_index():
    payload = json.dumps(
        {"tables": [{"html_output": MINIMAL}, {"html_output": "<p>nope</p>"}]}
    )
    with pytest.raises(HtmlParseFailure) as err:
        parse_extraction_json(payload)
    assert str(err.value).startswith("entry 1")


def test_parse_extraction_entry_failure_message_is_exact():
    payload = json.dumps({"tables": [{"html_output": MINIMAL}, {"html_output": "<p>nope</p>"}]})
    with pytest.raises(HtmlParseFailure) as err:
        parse_extraction_json(payload)
    assert str(err.value) == "entry 1: no <table> element found"


@pytest.mark.parametrize(
    "entry",
    [
        {"html_output": "<table><tr><td>a \ud800</td></tr></table>"},
        {"html_output": "<table><tr><td>\udfff</td></tr></table>"},
        {"html_output": MINIMAL, "starting_token": "b\ud800"},
    ],
    ids=["html-high", "html-low", "starting-token"],
)
def test_parse_extraction_lone_surrogate_fails(entry):
    # json.loads turns the escape "\ud800" into a lone surrogate, which no output can encode
    payload = json.dumps({"tables": [{"html_output": MINIMAL}, entry]})
    assert "\\ud" in payload
    with pytest.raises(HtmlParseFailure, match=r"^entry 1: 'utf-8' codec can't encode") as err:
        parse_extraction_json(payload)
    assert str(err.value).startswith("entry 1")
    str(err.value).encode("utf-8")  # the message itself stays writable


@pytest.mark.parametrize(
    "text",
    [
        "[" * 100_000,
        '{"tables": ' + "[" * 100_000 + "]" * 100_000 + "}",
        "```json\n{\"tables\": " + "[" * 50_000 + "\n```",
        '{"tables": [], "n": ' + "7" * 5_000 + "}",  # beyond int()'s digit limit
    ],
    ids=["brackets", "deep-tables", "deep-fenced", "long-integer"],
)
def test_parse_extraction_deep_or_huge_json_is_malformed(text):
    with pytest.raises(MalformedJson):
        parse_extraction_json(text)


@pytest.mark.parametrize(
    "attr",
    [
        'rowspan="99999999"',
        'colspan="99999999"',
        'colspan="1001"',
        'rowspan="65535"',
        pytest.param('colspan="' + "9" * 5_000 + '"', id="colspan-5000-digits"),  # beyond int()'s digit limit
    ],
)
def test_parse_extraction_span_beyond_html_limit_fails(attr):
    payload = json.dumps({"tables": [{"html_output": f"<table><tr><td {attr}>x</td></tr></table>"}]})
    with pytest.raises(HtmlParseFailure) as err:
        parse_extraction_json(payload)
    assert str(err.value).startswith("entry 0")


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


def test_parse_html_span_at_html_limit_marks_only_existing_rows():
    table = parse_html_table(
        '<table><tr><td rowspan="65534" colspan="1000">x</td><td>y</td></tr><tr><td>z</td></tr></table>'
    )
    assert [(c.text, c.col) for row in table.rows for c in row] == [("x", 0), ("y", 1000), ("z", 1000)]
    assert table.width == 1001


def _tall_wide_response(rows: int) -> str:
    """One ``rowspan="65534" colspan="1000"`` cell per row: each row's cell
    lands 1,000 columns right of the last, so the grid is rows × rows·1,000."""
    html = "<table>" + '<tr><td rowspan="65534" colspan="1000">x</td></tr>' * rows + "</table>"
    return json.dumps({"tables": [{"html_output": html}]})


def test_grid_over_cap_fails_fast_and_small():
    response = _tall_wide_response(80)  # 80 × 80,000 positions, 4 KB
    tracemalloc.start()
    started = time.perf_counter()
    try:
        with pytest.raises(HtmlParseFailure, match="grid positions"):
            concat_partial_tables(parse_extraction_json(response))
        elapsed = time.perf_counter() - started
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert elapsed < 1.0
    assert peak < 20 * 2**20


def test_grid_under_cap_is_accepted():
    table = concat_partial_tables(parse_extraction_json(_tall_wide_response(20)))  # 400,000 positions
    assert (len(table.rows), table.width) == (20, 20_000)
    assert [c.col for row in table.rows for c in row if c.text == "x"] == [r * 1000 for r in range(20)]


def test_parse_html_grid_over_cap_fails():
    html = json.loads(_tall_wide_response(40))["tables"][0]["html_output"]
    with pytest.raises(HtmlParseFailure, match="grid positions"):
        parse_html_table(html)


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
    result = (partial(None, table),)
    assert concat_partial_tables(result) == normalize_rectangular(table)


def test_concat_pads_to_widest():
    small = Table.from_rows(body=[["a", "b"]], header=[["H1", "H2"]])
    wide = Table.from_rows(body=[["c", "d", "e"]])
    result = (partial(None, small), partial("S", wide))
    combined = concat_partial_tables(result)
    assert combined.width == 3
    assert texts(combined.body_rows) == [["a", "b", ""], ["S", "", ""], ["c", "d", "e"]]


def test_concat_spans_cross_part_boundaries():
    # "tall" runs from part 1's last row through the token row into part 2's
    # first row, where "wide" starts left of it and spans over its column
    part1 = (
        "<table><thead><tr><th>H1</th><th>H2</th><th>H3</th></tr></thead><tbody>"
        "<tr><td>a</td><td>b</td><td>c</td></tr>"
        '<tr><td>d</td><td rowspan="3">tall</td><td>e</td></tr>'
        "</tbody></table>"
    )
    part2 = (
        "<table><thead><tr><th>dropped</th></tr></thead><tbody>"
        '<tr><td colspan="2">wide</td><td>f</td></tr>'
        "<tr><td>g</td><td>h</td><td>i</td><td>j</td></tr>"
        "</tbody></table>"
    )
    payload = json.dumps(
        {"tables": [{"html_output": part1}, {"starting_token": "S", "html_output": part2}]}
    )
    combined = concat_partial_tables(parse_extraction_json(payload))
    assert combined.width == 4
    assert [[(c.text, r, c.col, c.rowspan, c.colspan) for c in row] for r, row in enumerate(combined.rows)] == [
        [("H1", 0, 0, 1, 1), ("H2", 0, 1, 1, 1), ("H3", 0, 2, 1, 1), ("", 0, 3, 1, 1)],
        [("a", 1, 0, 1, 1), ("b", 1, 1, 1, 1), ("c", 1, 2, 1, 1), ("", 1, 3, 1, 1)],
        [("d", 2, 0, 1, 1), ("tall", 2, 1, 3, 1), ("e", 2, 2, 1, 1), ("", 2, 3, 1, 1)],
        [("S", 3, 0, 1, 1), ("", 3, 2, 1, 1), ("", 3, 3, 1, 1)],
        [("wide", 4, 0, 1, 2), ("f", 4, 2, 1, 1), ("", 4, 3, 1, 1)],
        [("g", 5, 0, 1, 1), ("h", 5, 1, 1, 1), ("i", 5, 2, 1, 1), ("j", 5, 3, 1, 1)],
    ]
    assert len(combined.header_rows) == 1


def test_concat_empty_extraction():
    with pytest.raises(EmptyExtraction):
        concat_partial_tables(())


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
    assert flatten_table(table).raw == "a b\r\nc d"


def test_flatten_csv_joins():
    table = Table.from_rows(body=[["a", "b"], ["c", "d"]])
    assert serialize_csv(table) == "a,b\r\nc,d"


def test_flatten_ocr_skips_empty_cells():
    table = Table.from_rows(body=[["label", "", ""], ["x", "1", "2"]])
    assert flatten_table(table).raw == "label\r\nx 1 2"


def test_flatten_balance_sheet_excerpt(balance_sheet_gold):
    excerpt = Table.from_rows(
        header=[[c.text for c in row] for row in balance_sheet_gold.header_rows],
        body=[[c.text for c in row] for row in balance_sheet_gold.body_rows[:3]],
    )
    assert flatten_table(excerpt).raw == (
        "Particulars Note As at As at\r\n"
        "No. March 31,2024 March 31,2023\r\n"
        "A ASSETS\r\n"
        "Non-Current Assets\r\n"
        "(a) Property, Plant and Equipment 3 513.49 211.06"
    )


def test_flatten_balance_sheet_matches_input(balance_sheet_gold, balance_sheet_source):
    assert flatten_table(balance_sheet_gold).raw == balance_sheet_source.raw


def test_csv_roundtrip_with_quoting():
    table = Table.from_rows(header=[["H1", "H2"]], body=[["a,b", 'say "hi"'], ["c", "d"]])
    text = serialize_csv(table)
    parsed = parse_csv_table(text)
    assert texts(parsed.header_rows) == [["H1", "H2"]]
    assert texts(parsed.body_rows) == [["a,b", 'say "hi"'], ["c", "d"]]


def grid_texts(table: Table) -> dict[tuple[int, int], str]:
    """Each non-empty cell text by its (row, grid column)."""
    return {(r, cell.col): cell.text for r, row in enumerate(table.rows) for cell in row if cell.text}


def test_csv_writes_each_cell_at_its_grid_column():
    table = Table.from_rows(
        header=[["k", "v", "w"]], body=[[("A", 2, 1), "1", "2"], ["3", "4"], [("B", 1, 2), "5"]]
    )
    assert serialize_csv(table) == "k,v,w\r\nA,1,2\r\n,3,4\r\nB,,5"
    assert grid_texts(parse_csv_table(serialize_csv(table))) == grid_texts(table)


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
    assert set(flatten_table(table).raw) <= allowed


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.one_of(st.none(), st.text("AB", min_size=1, max_size=3)), tables()), min_size=1, max_size=4))
def test_property_concat_row_count(parts):
    result = tuple(partial(tok, t) for tok, t in parts)
    combined = concat_partial_tables(result)
    body_rows = sum(len(t.body_rows) for _, t in parts)
    tokens = sum(1 for tok, _ in parts[1:] if tok is not None)
    assert len(combined.body_rows) == body_rows + tokens


@st.composite
def spanned_tables(draw):
    cell = st.tuples(CELL_ALPHABET, st.integers(1, 3), st.integers(1, 3))
    rows = draw(st.lists(st.lists(cell, max_size=4), max_size=5))
    n_header = draw(st.integers(0, len(rows)))
    return Table.from_rows(header=rows[:n_header], body=rows[n_header:])


@settings(max_examples=150, deadline=None)
@given(spanned_tables())
def test_property_csv_roundtrip_keeps_grid_positions(table):
    assert grid_texts(parse_csv_table(serialize_csv(table))) == grid_texts(table)


SPAN_VALUES = st.one_of(
    st.integers(-2, 70_000).map(str),
    st.sampled_from(["", "x", "1.5", " 3 ", "0", "1000", "1001", "65534", "65535", "99999999"]),
)


@st.composite
def html_tables(draw):
    parts = [draw(st.sampled_from(["<table>", "<table><thead>", "<p>", ""]))]
    for _ in range(draw(st.integers(0, 4))):
        parts.append(draw(st.sampled_from(["<tr>", "<tbody><tr>", ""])))
        for _ in range(draw(st.integers(0, 4))):
            tag = draw(st.sampled_from(["td", "th"]))
            attrs = "".join(
                f' {name}="{draw(SPAN_VALUES)}"' for name in ("rowspan", "colspan") if draw(st.booleans())
            )
            parts.append(f"<{tag}{attrs}>{draw(CELL_ALPHABET)}" + draw(st.sampled_from([f"</{tag}>", ""])))
        parts.append(draw(st.sampled_from(["</tr>", "</thead>", "</tbody>", ""])))
    parts.append(draw(st.sampled_from(["</table>", "</tbody></table>", "<table>", ""])))
    return "".join(parts)


@settings(max_examples=300, deadline=None)
@given(html_tables())
def test_property_parse_specs_matches_reference(text):
    def outcome(parse):
        try:
            return "ok", parse(text)
        except HtmlParseFailure as exc:
            return "HtmlParseFailure", str(exc)

    assert outcome(_parse_specs) == outcome(reference_parse._parse_specs)


def _nested(draw, inner: str) -> str:
    depth = draw(st.one_of(st.just(0), st.integers(1, 5), st.integers(900, 3_000)))
    return "[" * depth + inner + "]" * depth


@st.composite
def envelopes(draw):
    entries = []
    for _ in range(draw(st.integers(0, 3))):
        key = draw(st.sampled_from(["$html_output$", "html_output", "html"]))
        token = draw(st.sampled_from(["null", '"A"', "7", '{"x": 1}', _nested(draw, "1")]))
        entries.append(f'{{"{key}": {json.dumps(draw(html_tables()))}, "$starting_token$": {token}}}')
    text = '{"tables": ' + _nested(draw, "[" + ", ".join(entries) + "]") + "}"
    if draw(st.booleans()):
        text = "```json\n" + text + draw(st.sampled_from(["\n```", ""]))
    return draw(st.text(max_size=8)) + text + draw(st.text(max_size=8))


def _parse_and_assemble(text: str) -> None:
    """The pipeline's route from a response to a candidate table; only
    package errors may leave it."""
    try:
        table = concat_partial_tables(parse_extraction_json(text))
    except TablexError:
        return
    assert normalize_rectangular(table) == table  # the pipeline lays a candidate out once


@settings(max_examples=300, deadline=None)
@given(st.text())
def test_property_arbitrary_text_raises_only_package_errors(text):
    _parse_and_assemble(text)


@settings(max_examples=300, deadline=None)
@given(envelopes())
def test_property_generated_envelopes_raise_only_package_errors(text):
    _parse_and_assemble(text)


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
