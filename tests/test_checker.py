from __future__ import annotations

import json
import random

import pytest

from tablex.bench import read_text
from tablex.checker import (
    ConvergenceThresholds,
    EntityType,
    Rule,
    Signature,
    ValidationReport,
    check_column,
    compute_coverage,
    compute_hallucination,
    default_entity_patterns,
    is_converged,
    parse_entity_patterns,
    run_sanity_check,
)
from tablex.model import SourceText, Table, flatten_table

import reference_checker
from independent_recount import coverage_recount, hallucination_recount


def table_of(body, header=()):
    return Table.from_rows(body=body, header=header)


def rule_set(violations):
    return {v.rule for v in violations}


def entity_of(texts, patterns=None):
    return check_column(texts, 0, patterns)[0]


def sanity(table):
    return run_sanity_check(flatten_table(table), table)


def hits(table, rule):
    return [v for v in sanity(table).violations if v.rule is rule]


# ---------------------------------------------------------------------------
# Empty rows
# ---------------------------------------------------------------------------


def test_empty_row_detected():
    violations = hits(table_of([["", "  "]]), Rule.EMPTY_ROW)
    assert [v.rule for v in violations] == [Rule.EMPTY_ROW]
    assert violations[0].row == 0 and violations[0].col is None


def test_partial_row_not_empty():
    assert hits(table_of([["", "x"]]), Rule.EMPTY_ROW) == []


def test_three_consecutive_empty_rows():
    table = table_of([["a", "b"], [" ", ""], ["", ""], ["\t", " "], ["c", "d"]])
    violations = hits(table, Rule.EMPTY_ROW)
    assert [v.row for v in violations] == [1, 2, 3]


def test_header_rows_exempt_from_empty_rule():
    table = table_of([["x", "y"]], header=[["", ""]])
    assert hits(table, Rule.EMPTY_ROW) == []


# ---------------------------------------------------------------------------
# Entity typing
# ---------------------------------------------------------------------------


def test_detect_dates():
    entity = entity_of(["2021-03-01", "2022-07-14", "2023-01-09"])
    assert entity is not None and entity.kind == "date"


def test_detect_emails():
    entity = entity_of(["a@b.com", "c@d.org"])
    assert entity is not None and entity.kind == "email"


def test_detect_nothing_below_threshold():
    assert entity_of(["12", "hello", "x7", "--", "9"]) is None


def test_detect_skips_empty_cells():
    entity = entity_of(["", "42", "", "17"])
    assert entity is not None and entity.kind == "number"


def test_all_empty_column_has_no_type():
    assert entity_of(["", "  ", ""]) is None


def test_number_matches_plus_minus_pairs_and_groups():
    number = next(e for e in default_entity_patterns() if e.kind == "number")
    for text in ("95±15.97", "11,605.75", "-12.5", "+3", "42%", "128734"):
        assert number.matches(text), text
    for text in ("1 & 2", "<0.001", "102, 205", "12,34"):
        assert not number.matches(text), text


def test_priority_order_is_pattern_order():
    kinds = [e.kind for e in default_entity_patterns()]
    assert kinds == ["email", "url", "date", "time", "number", "word"]


def test_load_entity_patterns_from_file(tmp_path):
    path = tmp_path / "patterns.json"
    path.write_text(json.dumps([{"kind": "digits", "pattern": r"\d+"}]))
    patterns = parse_entity_patterns(read_text(path))
    assert entity_of(["12", "7"], patterns).kind == "digits"


# ---------------------------------------------------------------------------
# Entity consistency / signature analysis
# ---------------------------------------------------------------------------


def test_consistent_number_column():
    report = sanity(table_of([["1"], ["2"], ["3"]]))
    assert report.violations == () and report.consistent_cells == 3


def test_inconsistent_number_column_names_the_cell():
    table = table_of([["1"], ["2"], ["oops"], ["4"], ["5"]])
    report = sanity(table)
    assert report.consistent_cells == 4
    violations = report.violations
    assert [v.rule for v in violations] == [Rule.INCONSISTENT_COLUMN]
    assert violations[0].col == 0
    assert "row 2" in violations[0].detail and "oops" in violations[0].detail


def test_empty_column_is_vacuous():
    report = sanity(table_of([[""], [""], [""]]))
    assert [v for v in report.violations if v.rule is Rule.INCONSISTENT_COLUMN] == []
    assert report.consistent_cells == 0


def test_signature_flags_intruder():
    entity, violations, _ = check_column(["3.5", "2.5", "9.5", "7.5", "abc"], 1, ())
    assert entity is None
    assert [v.rule for v in violations] == [Rule.INCONSISTENT_COLUMN]
    assert violations[0].col == 1 and "abc" in violations[0].detail


def test_signature_uniform_column_clean():
    assert check_column(["a-1", "b-2", "c-3"], 0, ())[1] == []


def test_signature_needs_majority():
    assert check_column(["abc", "1.5"], 0, ())[1] == []


def test_each_cell_matched_once_per_pattern(monkeypatch):
    # No "number" kind, so only the column pass matches: it types each
    # column and judges its cells from one set of matches, and drops a
    # pattern at the miss that puts the threshold out of its reach.
    patterns = (EntityType("digits", r"\d+"), EntityType("word", r"[A-Za-z]+"))
    seen = []
    matches = EntityType.matches

    def counting(entity, text):
        seen.append((entity.kind, text))
        return matches(entity, text)

    monkeypatch.setattr(EntityType, "matches", counting)
    table = table_of([["1", "alpha"], ["2", "beta"], ["3", ""], ["x", "gamma"]])
    report = run_sanity_check(flatten_table(table), table, patterns, 0.75)
    assert [v.col for v in report.violations] == [0]
    # column 0: 3 of 4 is exactly 0.75, so "x" is a flagged outlier;
    # column 1: 2 of 3 cells is below 0.75, so "digits" is out after "alpha"
    digits = [("digits", text) for text in ("1", "2", "3", "x")]
    words = [("digits", "alpha")] + [("word", text) for text in ("alpha", "beta", "gamma")]
    assert seen == digits + words


def test_signature_fields():
    sig = Signature.of_text("a 1,")
    assert (sig.has_letters, sig.has_digits, sig.has_punct, sig.has_whitespace) == (
        True,
        True,
        True,
        True,
    )
    assert Signature.of_text("") == Signature()


# ---------------------------------------------------------------------------
# Merged cells, delimiter errors, brackets
# ---------------------------------------------------------------------------


def test_merged_two_numeric_tokens():
    table = table_of([["102, 205"], ["300, 410"]])
    violations = hits(table, Rule.MERGED_CELL)
    assert {v.rule for v in violations} == {Rule.MERGED_CELL}
    assert {(v.row, v.col) for v in violations} == {(0, 0), (1, 0)}


def test_merged_label_in_numeric_column():
    table = table_of([["100"], ["200"], ["Revenue 750"], ["400"], ["500"]])
    violations = hits(table, Rule.MERGED_CELL)
    assert [(v.row, v.col) for v in violations] == [(2, 0)]


def test_merged_ignores_plain_words():
    table = table_of([["hello world"]])
    assert hits(table, Rule.MERGED_CELL) == []


def test_merged_ignores_plus_minus_values():
    table = table_of([["95±15.97"], ["88.36±21.97"], ["164.26±64.68"]])
    assert hits(table, Rule.MERGED_CELL) == []


def test_merged_word_outside_numeric_column_not_flagged():
    # "Revenue 750" only counts as merged when the column reads as numbers.
    table = table_of([["Revenue 750"], ["Cost summary"], ["Net totals"]])
    assert hits(table, Rule.MERGED_CELL) == []


def test_delimiter_fragmented_thousands():
    violations = hits(table_of([["12", "345"]]), Rule.DELIMITER_ERROR)
    assert [(v.row, v.col) for v in violations] == [(0, 0)]
    assert violations[0].rule is Rule.DELIMITER_ERROR


def test_delimiter_ignores_words():
    assert hits(table_of([["12", "apples"]]), Rule.DELIMITER_ERROR) == []


def test_delimiter_dangling_separator():
    violations = hits(table_of([["1,", "234"]]), Rule.DELIMITER_ERROR)
    assert [(v.row, v.col) for v in violations] == [(0, 0)]


def test_delimiter_needs_exact_three_digit_right():
    assert hits(table_of([["12", "34"]]), Rule.DELIMITER_ERROR) == []
    assert hits(table_of([["1234", "567"]]), Rule.DELIMITER_ERROR) == []


def test_brackets_balanced_go_id():
    assert hits(table_of([["(GO:0006412)"]]), Rule.UNBALANCED_BRACKETS) == []


def test_brackets_unclosed():
    violations = hits(table_of([["(a"]]), Rule.UNBALANCED_BRACKETS)
    assert [(v.row, v.col) for v in violations] == [(0, 0)]


def test_brackets_crossing_pair():
    violations = hits(table_of([["[a(b]"]]), Rule.UNBALANCED_BRACKETS)
    assert [v.rule for v in violations] == [Rule.UNBALANCED_BRACKETS]


# ---------------------------------------------------------------------------
# Coverage and hallucination
# ---------------------------------------------------------------------------


def test_coverage_full():
    source = SourceText("a b\r\nc d")
    table = table_of([["a", "b"], ["c", "d"]])
    assert compute_coverage(source, table) == 1.0


def test_coverage_empty_table():
    assert compute_coverage(SourceText("something here"), Table()) == 0.0


def test_coverage_empty_source_is_one():
    assert compute_coverage(SourceText("  \r\n "), table_of([["x"]])) == 1.0


def test_coverage_revenue_case_matches_recount():
    source = SourceText("Revenue 750 Cost 320")
    table = table_of([["Revenue", "750"], ["Cost", ""]])
    got = compute_coverage(source, table)
    assert got == pytest.approx(1 - 3 / 17, abs=1e-9)
    assert got == pytest.approx(coverage_recount(source.raw, ["Revenue", "750", "Cost"]), abs=1e-9)


def test_coverage_multiset_consumes_occurrences():
    source = SourceText("a a a")
    table = table_of([["a"]])
    assert compute_coverage(source, table) == pytest.approx(1 / 3)


def test_coverage_headers_count():
    source = SourceText("Name Qty")
    table = Table.from_rows(header=[["Name", "Qty"]], body=[])
    assert compute_coverage(source, table) == 1.0


def test_hallucination_zero_for_substrings():
    source = SourceText("alpha beta gamma 42")
    table = table_of([["alpha beta", "gamma"], ["42", "alpha"]])
    assert compute_hallucination(source, table) == 0.0


def test_hallucination_invented_cell():
    table = table_of([["xyzzy"]])
    assert compute_hallucination(SourceText("alpha beta"), table) == 1.0


def test_hallucination_formula_matches_recount():
    source = SourceText("alpha beta")
    table = table_of([["alpha", "beta zzzz"], ["alpha"]])
    got = compute_hallucination(source, table)
    assert got == pytest.approx(0.125, abs=1e-9)
    assert got == pytest.approx(hallucination_recount([[1.0, 0.5], [1.0, 1.0]]), abs=1e-9)


def test_hallucination_empty_table_zero():
    assert compute_hallucination(SourceText("abc"), Table()) == 0.0


def test_hallucination_partial_token_substring_counts():
    # a cell sliced mid-token still traces back to the source
    source = SourceText("hello world")
    table = table_of([["lo wor"]])
    assert compute_hallucination(source, table) == 0.0


# ---------------------------------------------------------------------------
# run_sanity_check aggregation
# ---------------------------------------------------------------------------


def clean_numeric_3x3():
    return table_of([["1", "2.5", "30"], ["4", "5.5", "60"], ["7", "8.5", "90"]])


def test_sanity_clean_table():
    table = clean_numeric_3x3()
    report = run_sanity_check(flatten_table(table), table)
    assert report.goodness_score == 1.0
    assert report.badness_score == 0.0
    assert report.violations == ()
    assert report.coverage == 1.0 and report.hallucination_rate == 0.0


def test_sanity_uneven_merged_fixture():
    # header plus three body rows, with two collapsed value cells
    table = Table.from_rows(
        header=[["Region", "FY21", "FY22"]],
        body=[["North", "102, 205", ""], ["South", "87", "93"], ["Total", "189, 298", ""]],
    )
    report = run_sanity_check(flatten_table(table), table)
    assert {v.rule for v in report.violations} == {Rule.MERGED_CELL}
    assert len(report.violations) == 2
    assert report.total_cells == 9
    assert report.violating_cells == 2
    assert report.consistent_cells == 6
    assert report.badness_score == pytest.approx(2 / 9)
    assert report.badness_score > 0


def test_sanity_ten_cell_arithmetic():
    table = table_of([["1", "a", "x", "(m", "102, 205"], ["2", "b", "y", "n", "hello world"]])
    report = run_sanity_check(flatten_table(table), table)
    assert report.total_cells == 10
    assert report.violating_cells == 2
    assert report.consistent_cells == 6
    assert report.goodness_score == pytest.approx(0.6)
    assert report.badness_score == pytest.approx(0.2)


def test_sanity_cell_flagged_by_many_rules_counts_once():
    # "(1, 2" is merged AND has unbalanced brackets
    table = table_of([["(1, 2"], ["(3, 4"]])
    report = run_sanity_check(flatten_table(table), table)
    kinds = {v.rule for v in report.violations}
    assert Rule.MERGED_CELL in kinds and Rule.UNBALANCED_BRACKETS in kinds
    assert report.violating_cells == 2


def test_sanity_union_of_individual_rules():
    table = Table.from_rows(
        header=[["Name", "Amount", "Note"]],
        body=[
            ["alpha", "102, 205", "(a"],
            ["beta", "1", "ok)"],
            ["gamma", "12", "345"],
            ["delta", "3", "fine"],
            ["42", "4", "fine"],
            ["", "", ""],
        ],
    )
    source = flatten_table(table)
    report = run_sanity_check(source, table)

    expected = reference_checker.detect_empty_rows(table)
    expected += reference_checker.check_entity_consistency(table)[0]
    expected += reference_checker.detect_merged_cells(table)
    expected += reference_checker.detect_unbalanced_brackets(table)
    expected += reference_checker.detect_delimiter_errors(table)

    as_key = lambda v: (v.rule.value, v.row, v.col, v.detail)
    assert sorted(map(as_key, report.violations)) == sorted(map(as_key, expected))
    assert list(map(as_key, report.violations)) == list(map(as_key, expected))


def test_sanity_row_permutation_invariance():
    body = [["a", "1"], ["b", "2"], ["(c", "oops"], ["d", "4"], ["e", "5"]]
    table = table_of(body)
    source = flatten_table(table)
    rng = random.Random(7)
    for _ in range(5):
        shuffled = body[:]
        rng.shuffle(shuffled)
        permuted = table_of(shuffled)
        original = run_sanity_check(source, table)
        relocated = run_sanity_check(source, permuted)
        assert relocated.coverage == pytest.approx(original.coverage)
        assert relocated.hallucination_rate == pytest.approx(original.hallucination_rate)
        assert sorted((v.rule.value, v.col) for v in relocated.violations) == sorted(
            (v.rule.value, v.col) for v in original.violations
        )
        assert relocated.violating_cells == original.violating_cells


def test_coverage_monotone_under_cell_addition():
    source = SourceText("alpha beta gamma delta")
    base_rows = [["alpha", "beta"]]
    base = table_of(base_rows)
    before = compute_coverage(source, base)
    grown = table_of(base_rows + [["gamma", "epsilon"]])
    assert compute_coverage(source, grown) >= before


def test_report_serializes_with_stable_fields():
    table = table_of([["102, 205"], ["300, 410"]])
    report = run_sanity_check(flatten_table(table), table)
    payload = json.loads(report.to_json())
    assert set(payload) == {
        "violations",
        "coverage",
        "hallucination_rate",
        "goodness_score",
        "badness_score",
        "consistent_cells",
        "violating_cells",
        "total_cells",
        "max_column_badness",
    }
    assert set(payload["violations"][0]) == {"rule", "row", "col", "detail"}
    assert payload["violations"][0]["rule"] == "Merged Cell"


def test_max_column_badness_prose_variant():
    table = table_of([["a", "102, 205"], ["b", "300, 410"]])
    report = run_sanity_check(flatten_table(table), table)
    assert report.max_column_badness == 1.0  # every cell of column 1 flagged
    assert report.badness_score == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# Convergence
# ---------------------------------------------------------------------------


def report_with(coverage, hallucination, goodness, badness):
    return ValidationReport(
        violations=(),
        coverage=coverage,
        hallucination_rate=hallucination,
        goodness_score=goodness,
        badness_score=badness,
        consistent_cells=0,
        violating_cells=0,
        total_cells=0,
    )


def test_converged_perfect_report():
    assert is_converged(report_with(1.0, 0.0, 1.0, 0.0), ConvergenceThresholds())


def test_not_converged_low_coverage():
    assert not is_converged(
        report_with(0.80, 0.0, 1.0, 0.0), ConvergenceThresholds(min_coverage=0.90)
    )


def test_converged_default_band():
    report = report_with(0.92, 0.15, 0.6, 0.25)
    assert is_converged(report, ConvergenceThresholds(0.90, 0.20, 0.30, 0.50))


def test_vacuous_bounds_disable_checks():
    report = report_with(0.0, 1.0, 0.0, 1.0)
    assert is_converged(report, ConvergenceThresholds(0.0, 1.0, 1.0, 0.0))


def test_violation_location_shape_matches_rule(corrupted_corpus):
    for fx in corrupted_corpus:
        table = Table.from_rows(body=fx["rows"], header=fx["header"])
        report = run_sanity_check(flatten_table(table), table)
        for v in report.violations:
            if v.rule is Rule.EMPTY_ROW:
                assert v.row is not None and v.col is None
            elif v.rule is Rule.INCONSISTENT_COLUMN:
                assert v.row is None and v.col is not None
            else:
                assert v.row is not None and v.col is not None
