"""Acceptance suite.

One test per criterion; each prints a PASS line once its assertions hold,
so a verbose run reads as a checklist. Tolerances are pinned here and
nowhere else.
"""

from __future__ import annotations

import itertools
import json
import random
import time

import pytest

from tablex.checker import (
    Rule,
    compute_coverage,
    compute_hallucination,
    run_sanity_check,
)
from tablex.cli import cli
from tablex.gateway import (
    BackendConfig,
    PromptKind,
    TranscriptStore,
    render_prompt,
)
from tablex.metrics import (
    cell_value_match,
    column_value_match,
    evaluate,
    exact_match,
    tree_edit_distance,
)
from tablex.model import (
    SourceText,
    Table,
    concat_partial_tables,
    flatten_table,
    normalize_rectangular,
    parse_extraction_json,
    parse_html_table,
    serialize_html,
)
from tablex.pipeline import PipelineConfig, run_ten

from independent_recount import coverage_recount, hallucination_recount
from scripted import ScriptedBackend
from ted_oracle import tree_edit_distance_bruteforce

MODEL = "replay-model"


def ok(number: int, name: str) -> None:
    print(f"ACCEPTANCE {number} ({name}): PASS")


def envelope(table: Table, token: str | None = None) -> str:
    return json.dumps(
        {"tables": [{"$starting_token$": token, "$html_output$": serialize_html(table)}]}
    )


# ---------------------------------------------------------------------------
# 1. Metric oracle equivalence
# ---------------------------------------------------------------------------


def _enumerated_tables() -> list[Table]:
    tables = [Table()]
    for rows in (1, 2):
        for cols in (1, 2):
            for combo in itertools.product("ab", repeat=rows * cols):
                grid = [list(combo[r * cols : (r + 1) * cols]) for r in range(rows)]
                tables.append(Table.from_rows(body=grid))
    rng = random.Random(2024)
    while len(tables) < 45:  # fill up to ~2,000 ordered pairs
        rows = rng.randint(1, 3)
        cols = rng.randint(1, 3)
        tables.append(
            Table.from_rows(body=[[rng.choice("ab") for _ in range(cols)] for _ in range(rows)])
        )
    return tables


def test_criterion_1_ted_oracle_equivalence():
    started = time.perf_counter()
    tables = _enumerated_tables()
    pairs = 0
    for a in tables:
        for b in tables:
            fast = tree_edit_distance(a, b)
            slow = tree_edit_distance_bruteforce(a, b)
            assert fast == pytest.approx(slow, abs=0), (a, b)
            pairs += 1
    elapsed = time.perf_counter() - started
    assert pairs >= 2000
    assert elapsed < 60.0, f"oracle sweep took {elapsed:.1f}s"
    ok(1, f"tree edit distance matches brute-force oracle on {pairs} pairs in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. Formula spot-checks
# ---------------------------------------------------------------------------


def test_criterion_2_formula_spot_checks():
    source = SourceText("Revenue 750 Cost 320")
    table = Table.from_rows(body=[["Revenue", "750"], ["Cost", ""]])
    coverage = compute_coverage(source, table)
    assert coverage == pytest.approx(1 - 3 / 17, abs=1e-9)
    assert coverage == pytest.approx(
        coverage_recount(source.raw, ["Revenue", "750", "Cost"]), abs=1e-9
    )

    halluc_source = SourceText("alpha beta")
    halluc_table = Table.from_rows(body=[["alpha", "beta zzzz"], ["alpha"]])
    hallucination = compute_hallucination(halluc_source, halluc_table)
    assert hallucination == pytest.approx(0.125, abs=1e-9)
    assert hallucination == pytest.approx(
        hallucination_recount([[1.0, 0.5], [1.0, 1.0]]), abs=1e-9
    )
    ok(2, "coverage 1-3/17 and hallucination 0.125 match the independent recount")


# ---------------------------------------------------------------------------
# 3. Checker rule precision on the corrupted corpus
# ---------------------------------------------------------------------------


def test_criterion_3_checker_rule_precision(corrupted_corpus):
    assert len(corrupted_corpus) == 30
    names = {fx["name"] for fx in corrupted_corpus}
    assert {"merged_numeric_pair", "merged_revenue_in_numeric_column", "delimiter_fragment_12_345"} <= names
    clean = 0
    for fx in corrupted_corpus:
        table = Table.from_rows(body=fx["rows"], header=fx["header"])
        source = flatten_table(table)
        report = run_sanity_check(source, table)
        got = sorted({v.rule.value for v in report.violations})
        want = sorted(fx["planted"])
        assert got == want, f"{fx['name']}: planted {want}, reported {got}"
        if not want:
            clean += 1
            assert report.badness_score == 0.0
    assert clean >= 6  # the corpus keeps a real control group
    ok(3, "30-fixture corpus reports exactly the planted rule kinds")


# ---------------------------------------------------------------------------
# 4. Score bounds property suite
# ---------------------------------------------------------------------------

_WORDS = ["alpha", "beta", "Revenue", "(net)", "x7", "12,345", "1,", "345", "a@b.com",
          "2021-03-01", "10:30", "95±15.97", "102, 205", "", " ", "-", "[a(b]", "total"]


def _random_table(rng: random.Random) -> Table:
    rows = rng.randint(1, 4)
    cols = rng.randint(1, 3)
    n_header = rng.randint(0, 1)
    make = lambda: [rng.choice(_WORDS) for _ in range(cols)]
    return Table.from_rows(
        header=[make() for _ in range(n_header)], body=[make() for _ in range(rows)]
    )


def _random_source(rng: random.Random, table: Table) -> SourceText:
    tokens = [tok for cell in table.cells() for tok in cell.text.split()]
    rng.shuffle(tokens)
    kept = tokens[: rng.randint(0, len(tokens))]
    extra = [rng.choice(_WORDS).strip() or "pad" for _ in range(rng.randint(0, 4))]
    return SourceText(" ".join(kept + extra))


def test_criterion_4_score_bounds_properties():
    started = time.perf_counter()
    rng = random.Random(1337)
    monotone_checked = 0
    for i in range(10_000):
        table = _random_table(rng)
        source = _random_source(rng, table)
        report = run_sanity_check(source, table)
        for value in (
            report.coverage,
            report.hallucination_rate,
            report.goodness_score,
            report.badness_score,
        ):
            assert 0.0 <= value <= 1.0, (source.raw, table)
        assert report.consistent_cells + report.violating_cells <= report.total_cells
        assert report.max_column_badness <= 1.0

        if i % 10 == 0:
            uncovered = set(source.tokens) - {
                tok for cell in table.cells() for tok in cell.text.split()
            }
            if uncovered:
                token = sorted(uncovered)[0]
                grown = Table.from_rows(
                    header=[[c.text for c in row] for row in table.header_rows],
                    body=[[c.text for c in row] for row in table.body_rows]
                    + [[token] * table.width],
                )
                assert compute_coverage(source, grown) >= report.coverage - 1e-12
                monotone_checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0, f"property sweep took {elapsed:.1f}s"
    assert monotone_checked > 100
    ok(4, f"10,000 randomized tables keep scores in [0,1] ({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 5. Pipeline replay determinism
# ---------------------------------------------------------------------------


def _record_generation(cache_dir, source_text: str, response: str) -> None:
    config = BackendConfig(model_id=MODEL)
    prompt = render_prompt(PromptKind.STRUCTURAL_DECOMPOSITION, {"Input Text": source_text})
    TranscriptStore(cache_dir).put(prompt, response, config)


def test_criterion_5_pipeline_replay_determinism(
    tmp_path, balance_sheet_source, balance_sheet_gold_html, go_source, listing_json
):
    data_dir = tmp_path / "data"
    cache_dir = tmp_path / "cache"
    data_dir.mkdir()

    (data_dir / "balance.txt").write_bytes(balance_sheet_source.raw.encode())
    (data_dir / "balance.html").write_text(balance_sheet_gold_html)
    _record_generation(
        cache_dir,
        balance_sheet_source.raw,
        envelope(normalize_rectangular(parse_html_table(balance_sheet_gold_html))),
    )

    go_gold = concat_partial_tables(parse_extraction_json(listing_json))
    (data_dir / "go.txt").write_bytes(go_source.raw.encode())
    (data_dir / "go.html").write_text(serialize_html(go_gold))
    _record_generation(cache_dir, go_source.raw, listing_json)

    args = [
        "bench", str(data_dir), "--format", "paired-text",
        "--replay", "--cache-dir", str(cache_dir), "--model", MODEL,
        "--parallel", "2",
    ]
    report_a = tmp_path / "a.json"
    report_b = tmp_path / "b.json"
    assert cli(args + ["--report", str(report_a)]) == 0
    assert cli(args + ["--report", str(report_b)]) == 0
    assert report_a.read_bytes() == report_b.read_bytes()

    payload = json.loads(report_a.read_text())
    by_id = {entry["task_id"]: entry for entry in payload["per_task"]}
    assert by_id["balance"]["converged"] and by_id["balance"]["metrics"]["em"] == 1
    assert by_id["go"]["converged"] and by_id["go"]["metrics"]["em"] == 1
    assert by_id["balance"]["iterations_used"] == 1

    # scripted two-step repair: merged cells flagged, critique, fixed table
    source = SourceText("Part Qty Price\r\nbolt 102 4.50\r\nnut 300 7.25")
    merged = Table.from_rows(
        header=[["Part", "Qty", "Price"]],
        body=[["bolt", "102, 4.50", ""], ["nut", "300, 7.25", ""]],
    )
    fixed = Table.from_rows(
        header=[["Part", "Qty", "Price"]],
        body=[["bolt", "102", "4.50"], ["nut", "300", "7.25"]],
    )
    result = run_ten(
        source,
        PipelineConfig(
            generator=ScriptedBackend([envelope(merged), envelope(fixed)]),
            critic=ScriptedBackend(["split the merged Qty/Price cells"]),
        ),
    )
    assert result.converged and result.iterations_used == 2
    assert Rule.MERGED_CELL in {v.rule for v in result.traces[0].report.violations}
    assert not result.traces[1].report.violations
    ok(5, "replay bench byte-identical; balance sheet and scripted repair converge")


# ---------------------------------------------------------------------------
# 6. Loop budget
# ---------------------------------------------------------------------------


def test_criterion_6_loop_budget():
    sparse = Table.from_rows(body=[["alpha"]])
    source = SourceText("alpha beta gamma delta epsilon zeta")
    generator = ScriptedBackend([envelope(sparse)] * 5)
    critic = ScriptedBackend(["feedback"] * 5)
    result = run_ten(
        source,
        PipelineConfig(generator=generator, critic=critic, max_iterations=5),
    )
    assert result.iterations_used == 5
    assert not result.converged
    assert len(generator.calls) == 5
    assert len(critic.calls) == 4
    ok(6, "never-converging N=5 run makes exactly 5 generator and 4 critic calls")


# ---------------------------------------------------------------------------
# 7. Metric identities
# ---------------------------------------------------------------------------


def test_criterion_7_metric_identities():
    rng = random.Random(7)

    def random_table():
        rows = rng.randint(0, 4)
        cols = rng.randint(1, 4)
        return Table.from_rows(
            body=[[rng.choice("abcd") for _ in range(cols)] for _ in range(rows)]
        )

    for _ in range(1000):
        table = random_table()
        assert exact_match(table, table) == 1
        assert tree_edit_distance(table, table) == 0.0
        assert cell_value_match(table, table) == 100.0
        assert column_value_match(table, table) == 100.0

    for _ in range(1000):
        a, b = random_table(), random_table()
        em = exact_match(a, b)
        ted = tree_edit_distance(a, b)
        assert (em == 1) == (ted == 0.0), (a, b)
    ok(7, "identity and em=1 <=> ted=0 hold on 1,000 random tables/pairs")


# ---------------------------------------------------------------------------
# 8. Parsing fidelity
# ---------------------------------------------------------------------------


def test_criterion_8_parsing_fidelity(listing_json, balance_sheet_gold_html, corrupted_corpus):
    result = parse_extraction_json(listing_json)
    assert len(result) == 2
    assert [t.starting_token for t in result] == [
        "Biological Process",
        "Molecular Function",
    ]
    header = [text for text, _, _ in result[0].header[0]]
    assert len(header) == 5 and header[0] == "GO Category"

    fixtures = [Table.from_rows(body=t.body, header=t.header) for t in result]
    fixtures.append(normalize_rectangular(parse_html_table(balance_sheet_gold_html)))
    fixtures.append(concat_partial_tables(result))
    for fx in corrupted_corpus:
        fixtures.append(Table.from_rows(body=fx["rows"], header=fx["header"]))
    for table in fixtures:
        assert parse_html_table(serialize_html(table)) == table
    ok(8, f"extraction JSON decoded; HTML round-trip holds on {len(fixtures)} fixtures")


# ---------------------------------------------------------------------------
# 9. Performance smoke
# ---------------------------------------------------------------------------


def test_criterion_9_performance_smoke():
    rng = random.Random(1)
    words = ["alpha", "beta", "gamma", "delta", "total", "net", "gross"]
    body = []
    for _ in range(1000):
        row = [rng.choice(words)]
        row += [f"{rng.randint(1, 999)}.{rng.randint(10, 99)}" for _ in range(9)]
        body.append(row)
    table = Table.from_rows(header=[[f"c{i}" for i in range(10)]], body=body)
    source = flatten_table(table)

    started = time.perf_counter()
    run_sanity_check(source, table)
    check_elapsed = time.perf_counter() - started
    assert check_elapsed < 1.0, f"run_sanity_check took {check_elapsed:.2f}s"

    started = time.perf_counter()
    report = evaluate(table, table, source)
    eval_elapsed = time.perf_counter() - started
    assert report.em == 1
    assert eval_elapsed < 5.0, f"evaluate took {eval_elapsed:.2f}s"
    ok(9, f"1,000x10 table: check {check_elapsed:.2f}s, evaluate {eval_elapsed:.2f}s")


def _ted_smoke_grid(rows: int) -> list[list[str]]:
    """A header and ``rows`` body rows of word, date and number columns."""
    rng = random.Random(rows)
    words = ["alpha", "beta", "gamma", "delta", "total", "net", "gross"]

    def value(col: int) -> str:
        if col in (0, 4):
            return rng.choice(words)
        if col in (2, 6):
            return f"20{rng.randint(10, 24)}-{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d}"
        return f"{rng.randint(1, 99999):,}.{rng.randint(0, 99):02d}"

    return [[f"c{i}" for i in range(10)]] + [[value(col) for col in range(10)] for _ in range(rows)]


@pytest.mark.parametrize(
    "edit, bound",
    [
        ("middle row dropped, row 1 edited", 3.0),
        ("first and last rows edited", 8.0),
    ],
)
def test_ted_performance_smoke_on_differing_tables(edit, bound):
    gold = _ted_smoke_grid(120)
    pred = [list(row) for row in gold]
    if edit.startswith("middle"):
        del pred[1 + 120 // 2]
        pred[1][0] = "zephyr"
    else:
        pred[0][3] = "zephyr"
        pred[-1][5] = "quokka"
    pred_table = Table.from_rows(header=pred[:1], body=pred[1:])
    gold_table = Table.from_rows(header=gold[:1], body=gold[1:])

    started = time.perf_counter()
    ted = tree_edit_distance(pred_table, gold_table)
    elapsed = time.perf_counter() - started
    assert 0.0 < ted < 0.05
    assert elapsed < bound, f"tree_edit_distance ({edit}) took {elapsed:.2f}s"


# ---------------------------------------------------------------------------
# 10. CLI contract
# ---------------------------------------------------------------------------


def test_criterion_10_cli_contract(tmp_path, capsys):
    gold = Table.from_rows(header=[["Name", "Qty"]], body=[["alpha", "1"], ["beta", "2"]])
    source = flatten_table(gold)
    cache_dir = tmp_path / "cache"
    _record_generation(cache_dir, source.raw, envelope(gold))

    gold_path = tmp_path / "gold.html"
    gold_path.write_text(serialize_html(gold))
    input_path = tmp_path / "input.txt"
    input_path.write_bytes(source.raw.encode())
    src_path = tmp_path / "src.txt"
    src_path.write_bytes(source.raw.encode())

    # extract happy path
    assert cli([
        "extract", str(input_path), "--replay", "--cache-dir", str(cache_dir),
        "--model", MODEL, "--out", "html", "--output", str(tmp_path / "pred.html"),
    ]) == 0
    # eval happy path
    assert cli(["eval", str(tmp_path / "pred.html"), str(gold_path), "--source", str(src_path)]) == 0
    assert json.loads(capsys.readouterr().out)["em"] == 1
    # check happy path
    assert cli(["check", str(gold_path), "--source", str(src_path)]) == 0
    capsys.readouterr()

    # bench happy path plus per-task isolation of a replay miss
    data_dir = tmp_path / "data"
    data_dir.mkdir()
    (data_dir / "good.txt").write_bytes(source.raw.encode())
    (data_dir / "good.html").write_text(serialize_html(gold))
    (data_dir / "missing.txt").write_bytes(b"never recorded text")
    (data_dir / "missing.html").write_text(serialize_html(gold))
    report_path = tmp_path / "report.json"
    code = cli([
        "bench", str(data_dir), "--format", "paired-text", "--replay",
        "--cache-dir", str(cache_dir), "--model", MODEL, "--report", str(report_path),
    ])
    assert code == 1  # task-level failure
    payload = json.loads(report_path.read_text())
    statuses = {entry["task_id"]: entry["error"] for entry in payload["per_task"]}
    assert statuses["good"] is None
    assert "ReplayMiss" in statuses["missing"]

    # usage errors
    assert cli(["no-such-command"]) == 2
    assert cli(["bench", str(data_dir), "--report", "x.json"]) == 2
    # missing files are task-level failures
    assert cli(["eval", str(tmp_path / "ghost.html"), str(gold_path)]) == 1
    capsys.readouterr()
    ok(10, "subcommand happy paths and exit codes 0/1/2 all hold")
