from __future__ import annotations

import itertools
import json
import random

import pytest

import tablex.metrics
from tablex.bench import TaskOutcome
from tablex.metrics import (
    MetricReport,
    cell_value_match,
    column_value_match,
    evaluate,
    exact_match,
    table_node_count,
    tree_edit_distance,
)
from tablex.model import Table, flatten_table

from ted_oracle import tree_edit_distance_bruteforce


def table_of(body, header=()):
    return Table.from_rows(body=body, header=header)


GOLD_3X3 = table_of(body=[["1", "2", "3"], ["4", "5", "6"]], header=[["A", "B", "C"]])
PRED_ONE_WRONG = table_of(body=[["1", "2", "3"], ["4", "5", "9"]], header=[["A", "B", "C"]])


# ---------------------------------------------------------------------------
# Exact match
# ---------------------------------------------------------------------------


def test_em_identical():
    assert exact_match(GOLD_3X3, GOLD_3X3) == 1


def test_em_single_cell_differs():
    assert exact_match(PRED_ONE_WRONG, GOLD_3X3) == 0


def test_em_whitespace_runs_collapse():
    a = table_of([["a  b", " c "]])
    b = table_of([["a b", "c"]])
    assert exact_match(a, b) == 1


def test_em_shape_matters():
    assert exact_match(table_of([["a", "b"]]), table_of([["a"], ["b"]])) == 0


def test_em_sees_spans():
    """Equal grids whose cells sit in other columns or span otherwise are not
    an exact match; the cell texts alone still agree."""
    pred = table_of(body=[[("A", 2, 1), "1"], ["3"]], header=[["k", "v"]])
    gold = table_of(body=[["A", "1"], [("3", 1, 2)]], header=[["k", "v"]])
    assert exact_match(pred, gold) == exact_match(gold, pred) == 0
    report = evaluate(pred, gold)
    assert (report.em, report.ted, report.cvm, report.colvm) == (0, 0.0, 100.0, 0.0)
    assert exact_match(pred, table_of(body=[[("A ", 2, 1), " 1"], ["3"]], header=[["k", "v"]])) == 1


# ---------------------------------------------------------------------------
# Tree edit distance
# ---------------------------------------------------------------------------


def test_ted_identical_zero():
    assert tree_edit_distance(GOLD_3X3, GOLD_3X3) == 0.0


def test_ted_empty_pred_vs_gold():
    gold = table_of([["a", "b"], ["c", "d"]])
    expected = (table_node_count(gold) - 1) / table_node_count(gold)
    assert tree_edit_distance(Table(), gold) == pytest.approx(expected)


def test_ted_single_relabel_two_by_two():
    a = table_of([["a", "b"], ["c", "d"]])
    b = table_of([["a", "b"], ["c", "X"]])
    assert table_node_count(a) == 7
    assert tree_edit_distance(a, b) == pytest.approx(1 / 7)
    assert tree_edit_distance_bruteforce(a, b) == pytest.approx(1 / 7)


def test_ted_extra_row_costs_row_plus_cells():
    a = table_of([["a", "b"]])
    b = table_of([["a", "b"], ["c", "d"]])
    # inserting one row node and two cell nodes into a 4-node tree
    assert tree_edit_distance(a, b) == pytest.approx(3 / 7)


def random_table(rng, symbols="ab", max_rows=3, max_cols=3):
    rows = rng.randint(0, max_rows)
    cols = rng.randint(1, max_cols)
    return table_of([[rng.choice(symbols) for _ in range(cols)] for _ in range(rows)])


def test_ted_agrees_with_bruteforce_sample():
    rng = random.Random(42)
    for _ in range(120):
        a, b = random_table(rng), random_table(rng)
        assert tree_edit_distance(a, b) == pytest.approx(
            tree_edit_distance_bruteforce(a, b)
        ), (a, b)


def _levenshtein(xs, ys):
    dp = list(range(len(ys) + 1))
    for i, x in enumerate(xs, 1):
        prev, dp[0] = dp[0], i
        for j, y in enumerate(ys, 1):
            prev, dp[j] = dp[j], min(dp[j] + 1, dp[j - 1] + 1, prev + (x != y))
    return dp[-1]


def test_ted_single_row_reduces_to_edit_distance():
    # with one row on each side the optimal mapping keeps root and row, so
    # the tree distance is a plain sequence edit distance over cells
    rng = random.Random(9)
    for _ in range(60):
        xs = [rng.choice("abc") for _ in range(rng.randint(1, 4))]
        ys = [rng.choice("abc") for _ in range(rng.randint(1, 4))]
        a, b = table_of([xs]), table_of([ys])
        expected = _levenshtein(xs, ys) / max(table_node_count(a), table_node_count(b))
        assert tree_edit_distance(a, b) == pytest.approx(expected)
        assert tree_edit_distance_bruteforce(a, b) == pytest.approx(expected)


def test_ted_symmetry_and_triangle():
    trio = [
        table_of([["a", "b"], ["c", "d"]]),
        table_of([["a", "x"], ["c", "d"]]),
        table_of([["a"], ["c"]]),
    ]
    for a, b in itertools.permutations(trio, 2):
        assert tree_edit_distance(a, b) == pytest.approx(tree_edit_distance(b, a))
    # absolute distances satisfy the triangle inequality; check via the
    # normalized values scaled back to node counts
    def absolute(a, b):
        return tree_edit_distance(a, b) * max(table_node_count(a), table_node_count(b))

    for a, b, c in itertools.permutations(trio, 3):
        assert absolute(a, c) <= absolute(a, b) + absolute(b, c) + 1e-9


def test_ted_within_unit_interval():
    rng = random.Random(3)
    for _ in range(50):
        a, b = random_table(rng), random_table(rng)
        assert 0.0 <= tree_edit_distance(a, b) <= 1.0


# ---------------------------------------------------------------------------
# Cell / column value match
# ---------------------------------------------------------------------------


def test_cvm_identical():
    assert cell_value_match(GOLD_3X3, GOLD_3X3) == 100.0


def test_cvm_disjoint():
    assert cell_value_match(table_of([["x", "y"]]), table_of([["p", "q"]])) == 0.0


def test_cvm_three_of_four():
    gold = table_of([["a", "b"], ["c", "d"]])
    pred = table_of([["d", "c"], ["a", "zzz"]])  # positions don't matter
    assert cell_value_match(pred, gold) == pytest.approx(75.0)


def test_cvm_multiset_semantics():
    gold = table_of([["a", "a"]])
    pred = table_of([["a", "x"]])  # one "a" can only match once
    assert cell_value_match(pred, gold) == pytest.approx(50.0)


def test_colvm_identical():
    assert column_value_match(GOLD_3X3, GOLD_3X3) == 100.0


def test_colvm_permuted_columns():
    gold = table_of([["1", "x"], ["2", "y"]])
    pred = table_of([["x", "1"], ["y", "2"]])
    assert column_value_match(pred, gold) == 100.0


def test_colvm_one_of_three():
    gold = table_of([["1", "x", "p"], ["2", "y", "q"]])
    pred = table_of([["1", "no", "no"], ["2", "nope", "nope"]])
    assert column_value_match(pred, gold) == pytest.approx(100 / 3)


def test_colvm_each_pred_column_used_once():
    gold = table_of([["1", "1"], ["2", "2"]])
    pred = table_of([["1", "x"], ["2", "y"]])  # one matching column, two gold takers
    assert column_value_match(pred, gold) == pytest.approx(50.0)


def test_colvm_compares_body_only():
    gold = table_of(body=[["1"], ["2"]], header=[["Header"]])
    pred = table_of(body=[["1"], ["2"]], header=[["Different"]])
    assert column_value_match(pred, gold) == 100.0


def test_cvm_includes_header_cells():
    gold = table_of(body=[["1"]], header=[["H"]])
    pred = table_of(body=[["1"]], header=[["X"]])
    assert cell_value_match(pred, gold) == pytest.approx(50.0)


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------


def test_evaluate_perfect():
    source = flatten_table(GOLD_3X3)
    report = evaluate(GOLD_3X3, GOLD_3X3, source)
    assert (report.em, report.ted, report.cvm, report.colvm) == (1, 0.0, 100.0, 100.0)
    assert report.coverage == 1.0 and report.hallucination == 0.0


def test_evaluate_empty_pred():
    report = evaluate(Table(), GOLD_3X3)
    assert report.em == 0 and report.cvm == 0.0 and report.colvm == 0.0
    assert report.coverage is None and report.hallucination is None


def test_evaluate_one_wrong_cell_in_3x3():
    report = evaluate(PRED_ONE_WRONG, GOLD_3X3, flatten_table(GOLD_3X3))
    assert report.em == 0
    assert report.ted == pytest.approx(1 / 13)
    assert report.cvm == pytest.approx(8 / 9 * 100)
    assert report.colvm == pytest.approx(200 / 3)


def test_evaluate_normalizes_each_table_once(monkeypatch):
    calls = []
    real_grid = tablex.metrics._grid
    monkeypatch.setattr(tablex.metrics, "_grid", lambda table: calls.append(table) or real_grid(table))
    for pred, gold in ((PRED_ONE_WRONG, GOLD_3X3), (GOLD_3X3, GOLD_3X3), (table_of([]), GOLD_3X3)):
        calls.clear()
        report = evaluate(pred, gold)
        assert calls == [pred, gold]
        assert (report.em, report.ted, report.cvm, report.colvm) == (
            exact_match(pred, gold),
            tree_edit_distance(pred, gold),
            cell_value_match(pred, gold),
            column_value_match(pred, gold),
        )
    assert report.em == 0 and report.ted > 0


def test_evaluate_normalizes_each_cell_once(monkeypatch):
    # column value match reads the body columns from the grids EM, TED and
    # CVM share, instead of normalizing the body cells again
    calls = []
    real_norm = tablex.metrics._norm
    monkeypatch.setattr(tablex.metrics, "_norm", lambda text: calls.append(text) or real_norm(text))
    gold = table_of(body=[[("a  b", 2, 1), "1"], ["2"], [" c", ("3", 1, 2)]], header=[["H", " K "]])
    pred = table_of(body=[["a b", "1"], ["", "2"], ["c", "3"]], header=[["H", "K"]])
    report = evaluate(pred, gold)
    assert len(calls) == sum(1 for _ in pred.cells()) + sum(1 for _ in gold.cells())
    assert report.colvm == column_value_match(pred, gold) == pytest.approx(200 / 3)


def test_em_one_implies_other_identities():
    tables = [GOLD_3X3, table_of([["x"]]), Table()]
    for t in tables:
        report = evaluate(t, t)
        assert report.em == 1
        assert report.ted == 0.0 and report.cvm == 100.0 and report.colvm == 100.0


def test_report_serialization():
    report = MetricReport(em=1, ted=0.0, cvm=100.0, colvm=100.0, coverage=0.5, hallucination=0.25)
    payload = json.loads(report.to_json())
    assert payload["em"] == 1 and payload["coverage"] == 0.5
    row = TaskOutcome("task-1", report).to_dict()
    assert row["task_id"] == "task-1"
    assert len(row["metrics"]) == 6  # beside the task id


def test_row_permutation_keeps_cvm():
    gold = table_of([["a", "b"], ["c", "d"]])
    pred = table_of([["c", "d"], ["a", "b"]])
    assert cell_value_match(pred, gold) == 100.0


def test_percentages_bounded():
    rng = random.Random(5)
    for _ in range(200):
        a, b = random_table(rng, symbols="abc"), random_table(rng, symbols="abc")
        assert 0.0 <= cell_value_match(a, b) <= 100.0
        assert 0.0 <= column_value_match(a, b) <= 100.0
