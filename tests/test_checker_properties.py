"""Property test: the checker's reports equal the reference's in
``reference_checker.py`` byte for byte on generated tables.

The cells are drawn from fragments that sit on the checker's shortcuts:
a digit that ``str.isdigit`` accepts but the regex class ``\\d`` does not
(U+00B2, superscript two), a non-ASCII digit (U+0663), whitespace beyond
ASCII (U+00A0, U+2003) and U+001C, which ``str.split`` splits on, the
"\\x00" that separates cells in the checker's scans, brackets, trailing "1,"
and "1.", repeated texts with and without surrounding whitespace, rowspans
that leave a row's neighbouring cells in non-adjacent columns, blank rows
and rows left with no cells.
"""

from __future__ import annotations

import sys

from hypothesis import given, settings
from hypothesis import strategies as st

import reference_checker
from tablex.checker import _SPACES, run_sanity_check
from tablex.model import SourceText, Table, flatten_table

from test_checker_equivalence import THRESHOLDS
from test_checker_shortcuts import DIGITS_WORDS, LETTER_NUMBERS

FRAGMENTS = (
    "1", "12", "345", "2.5", "1,234", "\u00b2", "\u0663", "\u0663\u0663\u0663", "a", "ab", "Q", "Revenue",
    " ", "\u00a0", "\u2003", "\x1c", "\x00", "(", ")", "[", "]", "{", "}",
    "1,", "1.", ",", ".", "-", "%", "2021-03-01", "a@b.com",
)  # fmt: skip

# runs of digits for str.isdigit: short groups before three-digit ones
digit_runs = st.text(alphabet="12\u00b2\u0663", min_size=1, max_size=4)
# two tokens for str.split, numbers in most pattern sets: a merged cell
spaced = st.tuples(digit_runs, st.sampled_from((" ", "\u00a0", "\u2003", "\x1c")), digit_runs).map("".join)
texts = st.one_of(st.lists(st.sampled_from(FRAGMENTS), max_size=4).map("".join), digit_runs, spaced)


@st.composite
def tables(draw) -> Table:
    # a few texts per table, so that texts repeat; some padded with whitespace
    pool = draw(st.lists(texts, min_size=1, max_size=6))
    pool += [draw(st.sampled_from(("", " ", "\u2003"))) + text + "\u00a0" for text in pool[:2]] + ["", " "]
    cell = st.sampled_from(pool)
    spanned = st.tuples(cell, st.integers(1, 3), st.integers(1, 2))
    row = st.lists(st.one_of(cell, cell, cell, spanned), max_size=5)
    blank = st.lists(st.sampled_from(("", " ", "\t")), max_size=4)
    digits = st.lists(digit_runs, min_size=2, max_size=4)
    body = draw(st.lists(st.one_of(row, row, st.just([]), blank, digits), max_size=7))
    header = draw(st.lists(st.lists(cell, min_size=1, max_size=3), max_size=1))
    return Table.from_rows(body=body, header=header, normalized=draw(st.booleans()))


@settings(max_examples=400, deadline=None)
@given(tables(), st.sampled_from((None, DIGITS_WORDS, LETTER_NUMBERS)), st.one_of(st.none(), texts))
def test_reports_match_reference(table, patterns, extra):
    source = flatten_table(table)
    if extra is not None:  # tokens the table lacks, and lacking tokens the table has
        source = SourceText(source.raw[: len(source.raw) // 2] + " " + extra)
    for threshold in THRESHOLDS:
        got = run_sanity_check(source, table, patterns, threshold).to_json()
        want = reference_checker.run_sanity_check(source, table, patterns, threshold).to_json()
        assert got == want, (table, patterns, threshold)


def test_row_pass_looks_for_every_space():
    # the row pass finds cells of several tokens by these characters alone
    every = "".join(filter(str.isspace, map(chr, range(sys.maxunicode + 1))))
    assert "".join(_SPACES) == every
    assert all(len(f"a{space}b".split()) == 2 for space in _SPACES)
