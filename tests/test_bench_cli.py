from __future__ import annotations

import json

import pytest

from tablex.bench import ingest_dataset, run_bench, write_task_outputs
from tablex.cli import cli
from tablex.errors import NoTasksFound, UnreadableFile
from tablex.gateway import (
    BackendConfig,
    ChatExchange,
    PromptKind,
    ReplayBackend,
    TranscriptStore,
    record_exchange,
    render_prompt,
    request_fingerprint,
)
from tablex.model import (
    FlattenStyle,
    Table,
    flatten_table,
    parse_csv_table,
    parse_html_table,
    serialize_csv,
    serialize_html,
)
from tablex.pipeline import PipelineConfig

MODEL = "replay-model"


def envelope(table: Table) -> str:
    return json.dumps(
        {"tables": [{"$starting_token$": None, "$html_output$": serialize_html(table)}]}
    )


def record_generation(cache_dir, source_text: str, response: str, model=MODEL) -> None:
    config = BackendConfig(model_id=model)
    prompt = render_prompt(PromptKind.STRUCTURAL_DECOMPOSITION, {"Input Text": source_text})
    record_exchange(
        TranscriptStore(cache_dir), ChatExchange.create(prompt, response, "seed", config)
    )


def generation_path(cache_dir, source_text: str, model=MODEL):
    prompt = render_prompt(PromptKind.STRUCTURAL_DECOMPOSITION, {"Input Text": source_text})
    params = BackendConfig(model_id=model).params
    return TranscriptStore(cache_dir).path(request_fingerprint(prompt, model, params))


def replay_config(cache_dir, model=MODEL, **kwargs) -> PipelineConfig:
    backend = ReplayBackend(BackendConfig(model_id=model), TranscriptStore(cache_dir))
    return PipelineConfig(generator=backend, critic=backend, **kwargs)


def simple_gold(word_a: str, word_b: str) -> Table:
    return Table.from_rows(header=[["Name", "Qty"]], body=[[word_a, "1"], [word_b, "2"]])


# ---------------------------------------------------------------------------
# ingest_dataset
# ---------------------------------------------------------------------------


def test_ingest_csv_dir(tmp_path):
    for name, word in (("a", "apple"), ("b", "berry"), ("c", "cherry")):
        (tmp_path / f"{name}.csv").write_text(f"Name,Qty\r\n{word},1\r\nother,2\r\n")
    tasks = ingest_dataset(tmp_path, "csv")
    assert [t.id for t in tasks] == ["a", "b", "c"]
    for task in tasks:
        assert task.source.raw == flatten_table(task.gold, FlattenStyle.OCR).raw


def test_ingest_html_dir(tmp_path):
    gold = simple_gold("apple", "berry")
    (tmp_path / "only.html").write_text(serialize_html(gold))
    tasks = ingest_dataset(tmp_path, "html")
    assert len(tasks) == 1
    assert tasks[0].gold == gold
    assert tasks[0].source.raw == "Name Qty\r\napple 1\r\nberry 2"


def test_ingest_paired_text_balance_sheet(tmp_path, balance_sheet_source, balance_sheet_gold_html):
    (tmp_path / "balance.txt").write_bytes(balance_sheet_source.raw.encode())
    (tmp_path / "balance.html").write_text(balance_sheet_gold_html)
    tasks = ingest_dataset(tmp_path, "paired-text")
    assert len(tasks) == 1
    assert tasks[0].source.raw.startswith("Particulars Note As at")


def test_ingest_empty_dir(tmp_path):
    with pytest.raises(NoTasksFound):
        ingest_dataset(tmp_path, "csv")


def test_ingest_orphan_text_fails(tmp_path):
    (tmp_path / "lonely.txt").write_text("no gold here")
    with pytest.raises(UnreadableFile):
        ingest_dataset(tmp_path, "paired-text")


def test_ingest_unparseable_gold_named(tmp_path):
    (tmp_path / "bad.html").write_text("<p>not a table</p>")
    with pytest.raises(UnreadableFile) as err:
        ingest_dataset(tmp_path, "html")
    assert "bad.html" in str(err.value)


# ---------------------------------------------------------------------------
# run_bench
# ---------------------------------------------------------------------------


def seed_dataset(tmp_path, with_errors=False):
    """Four CSV tasks; optionally two replay responses swap their numbers so
    the candidate still converges but misses exact match."""
    data_dir = tmp_path / "data"
    cache_dir = tmp_path / "cache"
    data_dir.mkdir()
    words = [("alpha", "beta"), ("gamma", "delta"), ("miso", "dashi"), ("ramen", "udon")]
    for i, (a, b) in enumerate(words):
        gold = simple_gold(a, b)
        (data_dir / f"t{i}.csv").write_text(serialize_csv(gold) + "\r\n")
        source = flatten_table(gold, FlattenStyle.OCR)
        if with_errors and i >= 2:
            swapped = Table.from_rows(header=[["Name", "Qty"]], body=[[a, "2"], [b, "1"]])
            record_generation(cache_dir, source.raw, envelope(swapped))
        else:
            record_generation(cache_dir, source.raw, envelope(gold))
    return data_dir, cache_dir


def test_bench_single_task_perfect(tmp_path):
    data_dir, cache_dir = seed_dataset(tmp_path)
    tasks = ingest_dataset(data_dir, "csv")[:1]
    report = run_bench(tasks, replay_config(cache_dir))
    assert report.aggregates["em_percent"] == 100.0
    assert report.aggregates["mean_ted"] == 0.0
    assert report.per_task[0].converged


def test_bench_half_wrong_em_fifty(tmp_path):
    data_dir, cache_dir = seed_dataset(tmp_path, with_errors=True)
    tasks = ingest_dataset(data_dir, "csv")
    report = run_bench(tasks, replay_config(cache_dir), parallelism=2)
    assert report.aggregates["tasks"] == 4
    assert report.aggregates["em_percent"] == 50.0
    per_em = [o.metrics.em for o in report.per_task]
    assert per_em == [1, 1, 0, 0]
    expected_cvm = sum(o.metrics.cvm for o in report.per_task) / 4
    assert report.aggregates["mean_cvm"] == pytest.approx(expected_cvm)


def test_bench_isolates_replay_miss(tmp_path):
    data_dir, cache_dir = seed_dataset(tmp_path)
    (data_dir / "zz-missing.csv").write_text("Name,Qty\r\nnovel,1\r\nwords,2\r\n")
    tasks = ingest_dataset(data_dir, "csv")
    report = run_bench(tasks, replay_config(cache_dir), parallelism=3)
    assert report.aggregates["tasks"] == 5
    assert report.aggregates["errored"] == 1
    failed = [o for o in report.per_task if o.error]
    assert len(failed) == 1 and failed[0].task_id == "zz-missing"
    assert "ReplayMiss" in failed[0].error
    assert all(o.metrics is not None for o in report.per_task if not o.error)


def test_bench_isolates_corrupt_transcript(tmp_path):
    data_dir, cache_dir = seed_dataset(tmp_path)
    tasks = ingest_dataset(data_dir, "csv")
    generation_path(cache_dir, tasks[1].source.raw).write_text('{"response": "trunc')
    report = run_bench(tasks, replay_config(cache_dir), parallelism=2)
    assert [o.task_id for o in report.per_task if o.error] == ["t1"]
    assert report.per_task[1].error.startswith("CorruptTranscript: ")
    assert all(o.metrics is not None for o in report.per_task if not o.error)


def test_bench_byte_identical_across_parallelism(tmp_path):
    data_dir, cache_dir = seed_dataset(tmp_path, with_errors=True)
    tasks = ingest_dataset(data_dir, "csv")
    serial = run_bench(tasks, replay_config(cache_dir), parallelism=1).to_json()
    threaded = run_bench(tasks, replay_config(cache_dir), parallelism=4).to_json()
    assert serial == threaded


def test_write_task_outputs(tmp_path):
    data_dir, cache_dir = seed_dataset(tmp_path)
    tasks = ingest_dataset(data_dir, "csv")[:1]
    report = run_bench(tasks, replay_config(cache_dir))
    out = tmp_path / "outputs"
    write_task_outputs(report.per_task, out)
    assert (out / "t0.trace.json").exists()
    assert (out / "t0.html").exists() and (out / "t0.csv").exists()
    html_table = parse_html_table((out / "t0.html").read_text())
    csv_table = parse_csv_table((out / "t0.csv").read_text())
    assert [c.text for c in html_table.body_rows[0]] == [c.text for c in csv_table.body_rows[0]]


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_eval_identical_tables(tmp_path, capsys):
    gold = simple_gold("alpha", "beta")
    path = tmp_path / "a.html"
    path.write_text(serialize_html(gold))
    code = cli(["eval", str(path), str(path)])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["em"] == 1 and payload["ted"] == 0.0


def test_cli_check_reports_merged_cell(tmp_path, capsys):
    table = Table.from_rows(header=[["Name", "Values"]], body=[["north", "102, 205"], ["south", "300, 410"]])
    (tmp_path / "bad.html").write_text(serialize_html(table))
    (tmp_path / "src.txt").write_text(flatten_table(table, FlattenStyle.OCR).raw)
    code = cli(["check", str(tmp_path / "bad.html"), "--source", str(tmp_path / "src.txt")])
    assert code == 0
    assert "Merged Cell" in capsys.readouterr().out


def test_cli_extract_replay_roundtrip(tmp_path, capsys):
    gold = simple_gold("alpha", "beta")
    source = flatten_table(gold, FlattenStyle.OCR)
    cache_dir = tmp_path / "cache"
    record_generation(cache_dir, source.raw, envelope(gold))
    input_path = tmp_path / "input.txt"
    input_path.write_text(source.raw)

    base = ["extract", str(input_path), "--replay", "--cache-dir", str(cache_dir), "--model", MODEL]
    html_out = tmp_path / "pred.html"
    csv_out = tmp_path / "pred.csv"
    assert cli(base + ["--out", "html", "--output", str(html_out)]) == 0
    assert cli(base + ["--out", "csv", "--output", str(csv_out)]) == 0
    assert cli(base + ["--out", "json"]) == 0
    trace = json.loads(capsys.readouterr().out)
    assert trace["converged"] is True

    # format round-trip: the CSV and HTML outputs describe the same table
    code = cli(["eval", str(csv_out), str(html_out)])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["em"] == 1


def test_cli_extract_replay_miss_is_task_failure(tmp_path, capsys):
    (tmp_path / "input.txt").write_text("never recorded")
    cache = tmp_path / "cache"
    cache.mkdir()
    code = cli(["extract", str(tmp_path / "input.txt"), "--replay", "--cache-dir", str(cache)])
    assert code == 1
    assert "fingerprint" in capsys.readouterr().err


@pytest.mark.parametrize("content", ['{"response": "trunc', '{"prompt": "no response"}'])
def test_cli_extract_corrupt_transcript_is_task_failure(tmp_path, capsys, content):
    (tmp_path / "input.txt").write_text("some words")
    cache = tmp_path / "cache"
    cache.mkdir()
    path = generation_path(cache, "some words")
    path.write_text(content)
    argv = ["extract", str(tmp_path / "input.txt"), "--replay", "--cache-dir", str(cache)]
    assert cli(argv + ["--model", MODEL]) == 1
    err = capsys.readouterr().err
    assert err.startswith("tablex: ") and err.count("\n") == 1
    assert str(path) in err


def bad_config_run(tmp_path, text: str) -> tuple[int, str]:
    (tmp_path / "input.txt").write_text("some words")
    config = tmp_path / "config.json"
    config.write_text(text)
    argv = ["extract", str(tmp_path / "input.txt"), "--replay", "--cache-dir", str(tmp_path / "c")]
    return cli(argv + ["--config", str(config)]), str(config)


def test_cli_malformed_config_is_usage_error(tmp_path, capsys):
    code, path = bad_config_run(tmp_path, '{"generator": {"model_id": ')
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"tablex: {path}: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "config, named",
    [
        ({"generator": {"modle_id": "x"}}, "modle_id"),
        ({"critic": {"modle_id": "x"}}, "modle_id"),
        ({"thresholds": {"min_coverag": 0.5}}, "min_coverag"),
        ({"pipeline": {"max_iteration": 3}}, "max_iteration"),
        ({"pipeline": {"generation_prompt": "zz"}}, "zz"),  # a bad value, not a bad key
    ],
)
def test_cli_unknown_config_key_is_usage_error(tmp_path, capsys, config, named):
    code, path = bad_config_run(tmp_path, json.dumps(config))
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"tablex: {path}: ") and err.count("\n") == 1
    assert repr(named) in err


def test_cli_bench_end_to_end(tmp_path, capsys):
    data_dir, cache_dir = seed_dataset(tmp_path, with_errors=True)
    report_path = tmp_path / "report.json"
    code = cli(
        [
            "bench",
            str(data_dir),
            "--format",
            "csv",
            "--replay",
            "--cache-dir",
            str(cache_dir),
            "--model",
            MODEL,
            "--parallel",
            "4",
            "--report",
            str(report_path),
        ]
    )
    assert code == 0
    payload = json.loads(report_path.read_text())
    assert payload["schema_version"] == 1
    assert len(payload["per_task"]) == 4
    assert payload["aggregates"]["em_percent"] == 50.0


def test_cli_bench_exit_one_on_task_failure(tmp_path):
    data_dir, cache_dir = seed_dataset(tmp_path)
    (data_dir / "zz-missing.csv").write_text("Name,Qty\r\nnovel,1\r\nwords,2\r\n")
    report_path = tmp_path / "report.json"
    code = cli(
        [
            "bench",
            str(data_dir),
            "--format",
            "csv",
            "--replay",
            "--cache-dir",
            str(cache_dir),
            "--model",
            MODEL,
            "--report",
            str(report_path),
        ]
    )
    assert code == 1
    payload = json.loads(report_path.read_text())
    assert payload["aggregates"]["errored"] == 1
    assert len(payload["per_task"]) == 5  # other tasks completed


def test_cli_usage_errors_exit_two(capsys):
    assert cli(["frobnicate"]) == 2
    assert cli(["bench", "somewhere", "--report", "r.json"]) == 2  # missing --format
    assert cli([]) == 2
    capsys.readouterr()


def test_cli_missing_file_exit_one(tmp_path, capsys):
    assert cli(["eval", str(tmp_path / "nope.html"), str(tmp_path / "nope.html")]) == 1
    assert cli(["bench", str(tmp_path / "void"), "--format", "csv", "--report", "r.json"]) == 1
    capsys.readouterr()


def test_cli_help_exits_zero(capsys):
    assert cli(["--help"]) == 0
    capsys.readouterr()


def test_cli_config_file_and_cache_env(tmp_path, capsys, monkeypatch):
    gold = simple_gold("alpha", "beta")
    source = flatten_table(gold, FlattenStyle.OCR)
    cache_dir = tmp_path / "cache"
    record_generation(cache_dir, source.raw, envelope(gold), model="configured-model")
    (tmp_path / "input.txt").write_text(source.raw)
    config_path = tmp_path / "config.json"
    config_path.write_text(
        json.dumps(
            {
                "generator": {"model_id": "configured-model"},
                "thresholds": {"min_coverage": 0.5},
                "pipeline": {"max_iterations": 3},
            }
        )
    )
    monkeypatch.setenv("TEN_CACHE_DIR", str(cache_dir))
    code = cli(
        ["extract", str(tmp_path / "input.txt"), "--replay", "--config", str(config_path), "--out", "html"]
    )
    assert code == 0
    assert "<table>" in capsys.readouterr().out


def test_cli_check_custom_patterns(tmp_path, capsys):
    table = Table.from_rows(body=[["AB-12"], ["CD-34"], ["EF-56"], ["GH-78"], ["99"]])
    (tmp_path / "t.html").write_text(serialize_html(table))
    (tmp_path / "src.txt").write_text(flatten_table(table, FlattenStyle.OCR).raw)
    patterns = tmp_path / "patterns.json"
    patterns.write_text(json.dumps([{"kind": "code", "pattern": "[A-Z]{2}-\\d{2}"}]))
    code = cli(
        [
            "check",
            str(tmp_path / "t.html"),
            "--source",
            str(tmp_path / "src.txt"),
            "--patterns",
            str(patterns),
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert any(v["rule"] == "Inconsistent Column" for v in payload["violations"])


def test_cli_extract_baseline_prompt(tmp_path, capsys):
    gold = simple_gold("alpha", "beta")
    source = flatten_table(gold, FlattenStyle.OCR)
    cache_dir = tmp_path / "cache"
    config = BackendConfig(model_id=MODEL)
    prompt = render_prompt(PromptKind.BASELINE, {"Input Text": source.raw})
    record_exchange(
        TranscriptStore(cache_dir), ChatExchange.create(prompt, envelope(gold), "seed", config)
    )
    (tmp_path / "input.txt").write_bytes(source.raw.encode())
    code = cli(
        [
            "extract",
            str(tmp_path / "input.txt"),
            "--prompt",
            "base",
            "--replay",
            "--cache-dir",
            str(cache_dir),
            "--model",
            MODEL,
        ]
    )
    assert code == 0
    assert "<table>" in capsys.readouterr().out


def test_cli_bench_outputs_dir(tmp_path):
    data_dir, cache_dir = seed_dataset(tmp_path)
    out_dir = tmp_path / "emitted"
    code = cli(
        [
            "bench",
            str(data_dir),
            "--format",
            "csv",
            "--replay",
            "--cache-dir",
            str(cache_dir),
            "--model",
            MODEL,
            "--report",
            str(tmp_path / "r.json"),
            "--outputs",
            str(out_dir),
        ]
    )
    assert code == 0
    for stem in ("t0", "t1", "t2", "t3"):
        assert (out_dir / f"{stem}.trace.json").exists()
        assert (out_dir / f"{stem}.html").exists()
        assert (out_dir / f"{stem}.csv").exists()
