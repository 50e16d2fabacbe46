from __future__ import annotations

import json
import re
import time
import weakref
from pathlib import Path
from types import SimpleNamespace

import pytest
import requests

import tablex.bench as bench
import tablex.cli as cli_module
import tablex.checker as checker
import tablex.metrics as metrics
from tablex.bench import ingest_dataset, run_bench, write_task_outputs
from tablex.cli import _pipeline_config, build_parser, cli
from tablex.errors import NoTasksFound, UnreadableFile
from tablex.gateway import (
    BackendConfig,
    PromptKind,
    ReplayBackend,
    TranscriptStore,
    render_prompt,
    request_fingerprint,
)
from tablex.model import (
    SourceText,
    Table,
    flatten_table,
    parse_csv_table,
    parse_html_table,
    serialize_csv,
    serialize_html,
)
from tablex.pipeline import PipelineConfig, run_ten

from scripted import ScriptedBackend

MODEL = "replay-model"
DEEP_JSON = "[" * 200_000 + "]" * 200_000  # nested deeper than the json module recurses


def envelope(table: Table) -> str:
    return json.dumps(
        {"tables": [{"$starting_token$": None, "$html_output$": serialize_html(table)}]}
    )


def record_generation(cache_dir, source_text: str, response: str, model=MODEL) -> None:
    config = BackendConfig(model_id=model)
    prompt = render_prompt(PromptKind.STRUCTURAL_DECOMPOSITION, {"Input Text": source_text})
    TranscriptStore(cache_dir).put(prompt, response, config)


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
        assert task.source.raw == flatten_table(task.gold).raw


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


def test_csv_byte_order_mark_is_not_header_text(tmp_path, capsys):
    gold = simple_gold("alpha", "beta")
    (tmp_path / "plain.csv").write_text(serialize_csv(gold), encoding="utf-8")
    (tmp_path / "bom.csv").write_text(serialize_csv(gold), encoding="utf-8-sig")
    assert cli(["eval", str(tmp_path / "bom.csv"), str(tmp_path / "plain.csv")]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["em"] == 1 and payload["ted"] == 0.0
    (tmp_path / "plain.csv").unlink()
    [task] = ingest_dataset(tmp_path, "csv")
    assert task.gold == gold
    assert task.source.raw == flatten_table(gold).raw


def test_ingest_paired_text_drops_a_byte_order_mark(tmp_path):
    gold = simple_gold("apple", "berry")
    (tmp_path / "t1.txt").write_text(flatten_table(gold).raw, encoding="utf-8-sig", newline="")
    (tmp_path / "t1.html").write_text(serialize_html(gold), encoding="utf-8-sig")
    [task] = ingest_dataset(tmp_path, "paired-text")
    assert task.source.raw == flatten_table(gold).raw and task.gold == gold


def test_ingest_paired_text_matches_txt_in_any_case(tmp_path):
    gold = simple_gold("apple", "berry")
    (tmp_path / "T1.TXT").write_text(flatten_table(gold).raw)
    (tmp_path / "T1.html").write_text(serialize_html(gold))
    [task] = ingest_dataset(tmp_path, "paired-text")
    assert task.id == "T1" and task.files == (str(tmp_path / "T1.TXT"), str(tmp_path / "T1.html"))


def test_ingest_paired_text_matches_the_gold_html_in_any_case(tmp_path):
    gold = simple_gold("apple", "berry")
    (tmp_path / "T1.TXT").write_text(flatten_table(gold).raw)
    (tmp_path / "T1.HTML").write_text(serialize_html(gold))
    [task] = ingest_dataset(tmp_path, "paired-text")
    assert task.gold == gold and task.files == (str(tmp_path / "T1.TXT"), str(tmp_path / "T1.HTML"))


def test_ingest_paired_text_two_golds_for_one_id_is_unreadable(tmp_path):
    gold = simple_gold("apple", "berry")
    (tmp_path / "T1.txt").write_text(flatten_table(gold).raw)
    (tmp_path / "T1.HTML").write_text(serialize_html(gold))
    (tmp_path / "T1.html").write_text(serialize_html(gold))
    with pytest.raises(UnreadableFile) as err:
        ingest_dataset(tmp_path, "paired-text")
    assert str(err.value) == f"{tmp_path / 'T1.html'}: gives task id 'T1', as {tmp_path / 'T1.HTML'} does"


def test_ingest_paired_text_reads_the_gold_first(tmp_path):
    (tmp_path / "t1.txt").write_bytes(b"\xff not UTF-8")
    (tmp_path / "t1.html").write_text("<p>not a table</p>")
    with pytest.raises(UnreadableFile) as err:
        ingest_dataset(tmp_path, "paired-text")
    assert str(err.value).startswith(f"{tmp_path / 't1.html'}: cannot parse table")


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


@pytest.mark.parametrize(
    "fmt, names", [("html", ["t1.html", "t1.htm"]), ("csv", ["t1.csv", "t1.CSV"])], ids=["html", "csv"]
)
def test_ingest_refuses_two_files_with_one_task_id(tmp_path, fmt, names):
    gold = simple_gold("apple", "berry")
    for name in names:
        (tmp_path / name).write_text(serialize_html(gold) if fmt == "html" else serialize_csv(gold))
    first, second = sorted(str(tmp_path / name) for name in names)
    with pytest.raises(UnreadableFile) as err:
        ingest_dataset(tmp_path, fmt)
    assert str(err.value) == f"{second}: gives task id 't1', as {first} does"


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
        source = flatten_table(gold)
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
    cfg = replay_config(cache_dir)
    report = run_bench(tasks, cfg, parallelism=2)
    assert report.aggregates["tasks"] == 4
    assert report.aggregates["em_percent"] == 50.0
    per_em = [o.metrics.em for o in report.per_task]
    assert per_em == [1, 1, 0, 0]
    expected_cvm = sum(o.metrics.cvm for o in report.per_task) / 4
    assert report.aggregates["mean_cvm"] == pytest.approx(expected_cvm)
    for outcome, task in zip(report.per_task, tasks):
        assert outcome.metrics == metrics.evaluate(run_ten(task.source, cfg).final, task.gold, task.source)


def test_bench_scores_each_candidate_once(tmp_path, monkeypatch):
    """The checker's report on the final table supplies the source scores;
    bench does not compute them a second time."""
    data_dir, cache_dir = seed_dataset(tmp_path, with_errors=True)
    scored = []
    for module in (checker, metrics):
        original = module.compute_hallucination

        def counting(source, table, original=original):
            scored.append(table)
            return original(source, table)

        monkeypatch.setattr(module, "compute_hallucination", counting)
    out = tmp_path / "outputs"
    run_bench(ingest_dataset(data_dir, "csv"), replay_config(cache_dir), parallelism=2, outputs=out)
    traces = [t for path in out.glob("*.trace.json") for t in json.loads(path.read_text())["traces"]]
    candidates = [t for t in traces if t["candidate_html"] is not None]
    assert len(candidates) == 4
    assert len(scored) == len(candidates)


def test_bench_isolates_replay_miss(tmp_path):
    data_dir, cache_dir = seed_dataset(tmp_path)
    (data_dir / "zz-missing.csv").write_text("Name,Qty\r\nnovel,1\r\nwords,2\r\n")
    tasks = ingest_dataset(data_dir, "csv")
    out = tmp_path / "outputs"
    report = run_bench(tasks, replay_config(cache_dir), parallelism=3, outputs=out)
    assert report.aggregates["tasks"] == 5
    assert report.aggregates["errored"] == 1
    failed = [o for o in report.per_task if o.error]
    assert len(failed) == 1 and failed[0].task_id == "zz-missing"
    assert "ReplayMiss" in failed[0].error
    assert all(o.metrics is not None for o in report.per_task if not o.error)
    row = failed[0].to_dict()
    assert (row["iterations_used"], row["converged"], row["metrics"]) == (0, False, None)
    assert len(list(out.iterdir())) == 12 and not list(out.glob("zz-missing*"))


def test_bench_isolates_corrupt_transcript(tmp_path):
    data_dir, cache_dir = seed_dataset(tmp_path)
    tasks = ingest_dataset(data_dir, "csv")
    generation_path(cache_dir, tasks[1].source.raw).write_text('{"response": "trunc')
    report = run_bench(tasks, replay_config(cache_dir), parallelism=2)
    assert [o.task_id for o in report.per_task if o.error] == ["t1"]
    assert report.per_task[1].error.startswith("CorruptTranscript: ")
    assert all(o.metrics is not None for o in report.per_task if not o.error)


def test_cli_extract_deeply_nested_transcript_is_corrupt(tmp_path, capsys):
    data_dir, cache_dir = seed_dataset(tmp_path)
    source = ingest_dataset(data_dir, "csv")[0].source.raw
    (tmp_path / "input.txt").write_text(source)
    generation_path(cache_dir, source).write_text(DEEP_JSON)
    argv = ["extract", str(tmp_path / "input.txt"), "--replay", "--cache-dir", str(cache_dir), "--model", MODEL]
    assert cli(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("tablex: unreadable transcript ") and err.count("\n") == 1


def test_cli_extract_deeply_nested_live_answer_is_transport_error(tmp_path, capsys, monkeypatch):
    """requests' Response.json() raises RecursionError on a body nested
    deeper than the json module recurses."""

    def deep_post(url, **kwargs):
        response = requests.models.Response()
        response.status_code, response._content, response.encoding = 200, DEEP_JSON.encode(), "utf-8"
        return response

    monkeypatch.setenv("TEN_API_KEY", "secret")
    monkeypatch.setattr(requests, "post", deep_post)
    (tmp_path / "input.txt").write_text("some words")
    assert cli(["extract", str(tmp_path / "input.txt"), "--model", MODEL]) == 1
    err = capsys.readouterr().err
    assert err.startswith("tablex: unexpected response shape: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_bench_byte_identical_across_parallelism(tmp_path):
    data_dir, cache_dir = seed_dataset(tmp_path, with_errors=True)
    tasks = ingest_dataset(data_dir, "csv")
    serial = run_bench(tasks, replay_config(cache_dir), parallelism=1).to_json()
    threaded = run_bench(tasks, replay_config(cache_dir), parallelism=4).to_json()
    assert serial == threaded


def test_bench_timeout_counts_from_task_start(tmp_path):
    """With one worker, a task stuck in a slow backend call times out alone:
    each queued task gets its own deadline when it starts, and succeeds."""
    data_dir, cache_dir = seed_dataset(tmp_path)
    tasks = ingest_dataset(data_dir, "csv")[:3]
    replay = replay_config(cache_dir).generator

    class SlowFirstTask:
        def complete(self, prompt: str) -> str:
            if tasks[0].source.raw in prompt:
                time.sleep(1.5)
                return "not json"  # the retry comes after the deadline
            return replay.complete(prompt)

    backend = SlowFirstTask()
    started = time.perf_counter()
    report = run_bench(tasks, PipelineConfig(generator=backend, critic=backend), per_task_timeout=0.5)
    assert time.perf_counter() - started < 2.0
    assert [o.error for o in report.per_task] == ["timeout", None, None]
    assert [o.converged for o in report.per_task] == [False, True, True]


def test_write_task_outputs(tmp_path):
    data_dir, cache_dir = seed_dataset(tmp_path)
    task = ingest_dataset(data_dir, "csv")[0]
    result = run_ten(task.source, replay_config(cache_dir))
    out = tmp_path / "outputs"
    write_task_outputs([(task.id, result)], out)
    assert (out / "t0.trace.json").exists()
    assert (out / "t0.html").exists() and (out / "t0.csv").exists()
    html_table = parse_html_table((out / "t0.html").read_text())
    csv_table = parse_csv_table((out / "t0.csv").read_text())
    assert [c.text for c in html_table.body_rows[0]] == [c.text for c in csv_table.body_rows[0]]
    # the .html file reuses the trace's render of the final table; both match their own writers
    assert (out / "t0.trace.json").read_bytes() == result.to_json(task_id="t0").encode("utf-8")
    assert (out / "t0.html").read_bytes() == serialize_html(result.final).encode("utf-8")


def test_write_task_outputs_dotted_ids(tmp_path):
    data_dir, cache_dir = seed_dataset(tmp_path)
    for index, path in enumerate(sorted(data_dir.glob("t*.csv"))[:2], 1):
        path.rename(data_dir / f"t.{index}.csv")
    tasks = [task for task in ingest_dataset(data_dir, "csv") if task.id.startswith("t.")]
    assert [task.id for task in tasks] == ["t.1", "t.2"]
    cfg = replay_config(cache_dir)
    out = tmp_path / "outputs"
    write_task_outputs([(task.id, run_ten(task.source, cfg)) for task in tasks], out)
    assert sorted(p.name for p in out.iterdir()) == [
        "t.1.csv", "t.1.html", "t.1.trace.json", "t.2.csv", "t.2.html", "t.2.trace.json",
    ]  # fmt: skip
    for task in tasks:
        assert parse_csv_table((out / f"{task.id}.csv").read_text()) == task.gold


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
    (tmp_path / "src.txt").write_text(flatten_table(table).raw)
    code = cli(["check", str(tmp_path / "bad.html"), "--source", str(tmp_path / "src.txt")])
    assert code == 0
    assert "Merged Cell" in capsys.readouterr().out


def test_cli_check_source_byte_order_mark_is_not_text(tmp_path, capsys):
    table = Table.from_rows(header=[["Name", "Age"]], body=[["Bob", "3"]])
    (tmp_path / "t.html").write_text(serialize_html(table))
    (tmp_path / "src.txt").write_bytes("\ufeffName Age\r\nBob 3".encode())
    assert cli(["check", str(tmp_path / "t.html"), "--source", str(tmp_path / "src.txt")]) == 0
    assert json.loads(capsys.readouterr().out)["coverage"] == 1.0


def test_cli_unreadable_file_is_named_once(tmp_path, capsys):
    (tmp_path / "t.html").write_text(serialize_html(simple_gold("apple", "berry")))
    missing = str(tmp_path / "missing.txt")
    assert cli(["check", str(tmp_path / "t.html"), "--source", missing]) == 1
    assert capsys.readouterr().err == f"tablex: {missing}: No such file or directory\n"


def test_cli_extract_output_is_made_ready_before_the_run(tmp_path, capsys, monkeypatch):
    gold = simple_gold("alpha", "beta")
    source = flatten_table(gold)
    cache_dir = tmp_path / "cache"
    record_generation(cache_dir, source.raw, envelope(gold))
    input_path = tmp_path / "input.txt"
    input_path.write_text(source.raw)
    runs = []
    monkeypatch.setattr(cli_module, "run_ten", lambda *args: runs.append(args) or run_ten(*args))
    base = ["extract", str(input_path), "--replay", "--cache-dir", str(cache_dir), "--model", MODEL, "--output"]
    assert cli(base + [str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"tablex: --output {tmp_path}: is a directory\n"
    assert runs == []
    nested = tmp_path / "nodir" / "x.html"
    assert cli(base + [str(nested)]) == 0
    assert nested.read_text() == serialize_html(gold) and len(runs) == 1


def test_cli_failed_output_write_is_one_line_task_failure(tmp_path, capsys, monkeypatch):
    gold = simple_gold("alpha", "beta")
    source = flatten_table(gold)
    cache_dir = tmp_path / "cache"
    record_generation(cache_dir, source.raw, envelope(gold))
    (tmp_path / "input.txt").write_text(source.raw)

    def full_disk(self, *args, **kwargs):
        raise OSError(28, "No space left on device", str(self))

    monkeypatch.setattr(Path, "write_text", full_disk)
    argv = ["extract", str(tmp_path / "input.txt"), "--replay", "--cache-dir", str(cache_dir), "--model", MODEL]
    assert cli(argv + ["--output", str(tmp_path / "out.html")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("tablex: [Errno 28] No space left on device") and err.count("\n") == 1


def test_cli_extract_replay_roundtrip(tmp_path, capsys):
    gold = simple_gold("alpha", "beta")
    source = flatten_table(gold)
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


def test_cli_extract_replay_creates_no_cache_dir(tmp_path, capsys):
    # replay only reads: a cache directory that does not exist is a miss, not made
    (tmp_path / "input.txt").write_text("never recorded")
    cache = tmp_path / "no" / "such"
    code = cli(["extract", str(tmp_path / "input.txt"), "--replay", "--cache-dir", str(cache)])
    assert code == 1
    assert "fingerprint" in capsys.readouterr().err
    assert not (tmp_path / "no").exists()


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


def test_cli_deeply_nested_config_is_usage_error(tmp_path, capsys):
    code, path = bad_config_run(tmp_path, DEEP_JSON)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"tablex: {path}: not valid JSON: ") and err.count("\n") == 1


def test_cli_config_that_is_not_an_object_is_usage_error(tmp_path, capsys):
    code, path = bad_config_run(tmp_path, '[{"generator": {}}]')
    assert code == 2
    assert capsys.readouterr().err == f"tablex: {path}: not a JSON object\n"


def test_cli_config_critique_generation_prompt_is_usage_error(tmp_path, capsys):
    """The critique template is a prompt kind, but not one that generates a table."""
    code, path = bad_config_run(tmp_path, json.dumps({"pipeline": {"generation_prompt": "critique"}}))
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"tablex: {path}: ") and err.endswith(" is not a generation prompt\n")
    assert err.count("\n") == 1


def test_cli_config_generation_prompt_error_names_the_config_value(tmp_path, capsys):
    bad_config_run(tmp_path, json.dumps({"pipeline": {"generation_prompt": "critique"}}))
    assert "'critique' is not a generation prompt" in capsys.readouterr().err


def test_cli_endpoint_reaches_the_generator(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"generator": {"endpoint": "http://localhost:1/from-config"}}))
    argv = ["extract", "input.txt", "--config", str(config_path), "--endpoint", "http://localhost:1/from-flag"]
    cfg = _pipeline_config(build_parser().parse_args(argv))
    assert cfg.generator.config.endpoint == "http://localhost:1/from-flag"


@pytest.mark.parametrize("flag, keep", [([], False), (["--last-iteration"], True)])
def test_cli_last_iteration_sets_keep_last_iteration(flag, keep):
    cfg = _pipeline_config(build_parser().parse_args(["extract", "input.txt", *flag]))
    assert cfg.keep_last_iteration is keep


@pytest.mark.parametrize("kind", ["missing", "directory"])
def test_cli_unreadable_config_is_usage_error(tmp_path, capsys, kind):
    (tmp_path / "input.txt").write_text("some words")
    config = tmp_path / "config.json"
    if kind == "directory":
        config.mkdir()
    argv = ["extract", str(tmp_path / "input.txt"), "--replay", "--cache-dir", str(tmp_path / "c")]
    assert cli(argv + ["--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"tablex: {config}: ") and err.count("\n") == 1


def test_cli_config_with_a_byte_order_mark_loads(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"pipeline": {"max_iterations": 3}}), encoding="utf-8-sig")
    cfg = _pipeline_config(build_parser().parse_args(["extract", "input.txt", "--config", str(config_path)]))
    assert cfg.max_iterations == 3


@pytest.mark.parametrize("flag", ["--config", "--cache-dir"])
def test_cli_empty_path_flag_is_usage_error(tmp_path, capsys, monkeypatch, flag):
    """An empty flag is refused, not read as no flag: ``--cache-dir ""`` would
    fall through to $TEN_CACHE_DIR, which this recorded cache would serve."""
    gold = simple_gold("alpha", "beta")
    source = flatten_table(gold)
    record_generation(tmp_path / "cache", source.raw, envelope(gold))
    (tmp_path / "input.txt").write_text(source.raw)
    monkeypatch.setenv("TEN_CACHE_DIR", str(tmp_path / "cache"))
    argv = ["extract", str(tmp_path / "input.txt"), "--replay", "--model", MODEL, flag, ""]
    assert cli(argv) == 2
    assert capsys.readouterr().err == f"tablex: {flag} must be a non-empty path\n"


@pytest.mark.parametrize(
    "command, flag",
    [("check", "--patterns"), ("eval", "--source"), ("extract", "--output"), ("bench", "--outputs")],
    ids=["check-patterns", "eval-source", "extract-output", "bench-outputs"],
)
def test_cli_empty_path_flag_of_a_command_is_usage_error(tmp_path, capsys, command, flag):
    """Each run would succeed without the flag; its empty value is refused
    before any file is read or written, not read as no flag."""
    data_dir, cache_dir = seed_dataset(tmp_path)
    gold, source = data_dir / "t0.csv", tmp_path / "source.txt"
    source.write_text(flatten_table(simple_gold("alpha", "beta")).raw)
    replay = ["--replay", "--cache-dir", str(cache_dir), "--model", MODEL]
    argv = {
        "check": ["check", str(gold), "--source", str(source)],
        "eval": ["eval", str(gold), str(gold)],
        "extract": ["extract", str(source), *replay],
        "bench": ["bench", str(data_dir), "--format", "csv", "--report", str(tmp_path / "report.json"), *replay],
    }[command]
    assert cli(argv) == 0
    capsys.readouterr()
    (tmp_path / "report.json").unlink(missing_ok=True)
    assert cli([*argv, flag, ""]) == 2
    assert capsys.readouterr() == ("", f"tablex: {flag} must be a non-empty path\n")
    assert not (tmp_path / "report.json").exists()


def test_cli_parser_is_built_once_and_keeps_no_state(tmp_path, capsys):
    """``bench``, ``check`` and ``bench`` again with other flags, through the
    one parser, give the exit codes, output and reports that a fresh parser
    gives each, and no flag of one call is a default of the next."""
    data_dir, cache_dir = seed_dataset(tmp_path, with_errors=True)
    source = tmp_path / "source.txt"
    source.write_text(flatten_table(simple_gold("alpha", "beta")).raw)
    replay = ["--replay", "--cache-dir", str(cache_dir), "--model", MODEL]
    calls = [
        ["bench", str(data_dir), "--format", "csv", "--report", str(tmp_path / "r1.json"), *replay,
         "--parallel", "2", "--timeout", "30", "--outputs", str(tmp_path / "tasks"), "--last-iteration"],
        ["check", str(data_dir / "t0.csv"), "--source", str(source)],
        ["bench", str(data_dir), "--format", "csv", "--report", str(tmp_path / "r2.json"), *replay],
        ["check", str(data_dir / "t0.csv")],  # --source is required: a usage error
    ]  # fmt: skip

    def run(fresh: bool) -> list:
        outcomes = []
        for argv in calls:
            if fresh:
                build_parser.cache_clear()
            namespace = vars(build_parser().parse_args(argv)) if argv[0] == "bench" else None
            code = cli(argv)
            reports = [path.read_bytes() for path in sorted(tmp_path.glob("r?.json"))]
            out, err = capsys.readouterr()
            outcomes.append((code, out, re.sub(r" in [0-9.]+s$", " in …s", err, flags=re.M), namespace, reports))
            for path in tmp_path.glob("r?.json"):
                path.unlink()
        return outcomes

    shared = run(fresh=False)
    assert build_parser() is build_parser()
    assert shared == run(fresh=True)
    assert [code for code, *_ in shared] == [0, 0, 0, 2]
    first, second = shared[0][3], shared[2][3]
    assert (first["parallel"], first["timeout"], first["last_iteration"]) == (2, 30.0, True)
    assert (second["parallel"], second["timeout"], second["outputs"], second["last_iteration"]) == (1, None, None, False)


@pytest.mark.parametrize(
    "config, named",
    [
        ({"generator": {"modle_id": "x"}}, "modle_id"),
        ({"critic": {"modle_id": "x"}}, "modle_id"),
        ({"thresholds": {"min_coverag": 0.5}}, "min_coverag"),
        ({"pipeline": {"max_iteration": 3}}, "max_iteration"),
        ({"pipeline": {"generation_prompt": "zz"}}, "zz"),  # a bad value, not a bad key
        ({"thresholdz": {"min_coverage": 0.5}}, "thresholdz"),
        ({"pipeline": [["max_iterations", 2]]}, "pipeline"),  # a section that is not an object
        ({"generator": [["model_id", "m"]]}, "generator"),
        ({"cache_dir": ""}, ""),  # an empty string would put transcripts in the working directory
    ],
)
def test_cli_unknown_config_key_is_usage_error(tmp_path, capsys, config, named):
    code, path = bad_config_run(tmp_path, json.dumps(config))
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"tablex: {path}: ") and err.count("\n") == 1
    assert repr(named) in err


@pytest.mark.parametrize("config, shared", [({}, True), ({"critic": {"model_id": "critic-model"}}, False)])
@pytest.mark.parametrize("mode", ["--replay", "--record"])
def test_cli_critic_shares_generator_backend(tmp_path, config, shared, mode):
    """Without a critic section the critic is the generator's backend object:
    one transcript store and, when recording, one in-flight limit."""
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    argv = ["extract", "input.txt", mode, "--cache-dir", str(tmp_path / "cache"), "--config", str(config_path)]
    cfg = _pipeline_config(build_parser().parse_args(argv))
    assert (cfg.critic is cfg.generator) is shared


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


def surrogate_dataset(tmp_path):
    """Two CSV tasks; the first one's recorded answer would converge, but its
    JSON holds the escape "\\ud800", a lone surrogate no output can encode."""
    data_dir, cache_dir = tmp_path / "data", tmp_path / "cache"
    data_dir.mkdir()
    for task_id, (a, b) in (("a-bad", ("alpha", "beta")), ("b-good", ("gamma", "delta"))):
        gold = simple_gold(a, b)
        (data_dir / f"{task_id}.csv").write_text(serialize_csv(gold) + "\r\n")
        response = envelope(gold)
        if task_id == "a-bad":
            html = serialize_html(gold).replace("<th>Name</th>", "<th>Name \ud800</th>")
            response = json.dumps({"tables": [{"$starting_token$": None, "$html_output$": html}]})
            assert response.isascii()
        record_generation(cache_dir, flatten_table(gold).raw, response)
    return data_dir, cache_dir


def test_cli_bench_lone_surrogate_answer_is_task_failure(tmp_path, capsys):
    data_dir, cache_dir = surrogate_dataset(tmp_path)
    report_path, out = tmp_path / "report.json", tmp_path / "outputs"
    argv = ["bench", str(data_dir), "--format", "csv", "--replay", "--cache-dir", str(cache_dir),
            "--model", MODEL, "--report", str(report_path), "--outputs", str(out)]  # fmt: skip
    assert cli(argv) == 1
    assert "Traceback" not in capsys.readouterr().err
    per_task = {task["task_id"]: task for task in json.loads(report_path.read_text())["per_task"]}
    assert per_task["a-bad"]["error"].startswith("NoCandidateProduced")
    assert per_task["b-good"]["error"] is None
    assert sorted(p.name for p in out.iterdir()) == ["b-good.csv", "b-good.html", "b-good.trace.json"]


def test_cli_extract_lone_surrogate_answer_is_task_failure(tmp_path, capsys):
    data_dir, cache_dir = surrogate_dataset(tmp_path)
    (tmp_path / "input.txt").write_text(flatten_table(simple_gold("alpha", "beta")).raw)
    argv = ["extract", str(tmp_path / "input.txt"), "--replay", "--cache-dir", str(cache_dir), "--model", MODEL]
    assert cli(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("tablex: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("command", ["extract", "bench"])
def test_cli_lone_surrogate_in_critique_is_replay_miss(tmp_path, capsys, command):
    """A recorded critique whose JSON holds the escape "\\ud800" puts a lone
    surrogate into the regeneration prompt, which replay then cannot find."""
    gold = simple_gold("alpha", "beta")
    data_dir, cache_dir = tmp_path / "data", tmp_path / "cache"
    data_dir.mkdir()
    (data_dir / "a.csv").write_text(serialize_csv(gold) + "\r\n")
    source = flatten_table(gold).raw
    (tmp_path / "input.txt").write_text(source)
    partial = envelope(Table.from_rows(header=[["Name", "Qty"]], body=[["alpha", "1"]]))  # coverage below 0.9
    script = ScriptedBackend([partial, "fix it \ud800", partial])
    run_ten(SourceText(source), PipelineConfig(generator=script, critic=script, max_iterations=2))
    # record the generation and the critique; the regeneration prompt stays unrecorded
    for prompt, response in zip(script.calls, script.responses[:2]):
        TranscriptStore(cache_dir).put(prompt, response, BackendConfig(model_id=MODEL))
    replay = ["--replay", "--cache-dir", str(cache_dir), "--model", MODEL]
    if command == "extract":
        assert cli(["extract", str(tmp_path / "input.txt")] + replay) == 1
        err = capsys.readouterr().err
        assert err.startswith("tablex: no recorded response for fingerprint ") and err.count("\n") == 1
    else:
        report_path = tmp_path / "report.json"
        assert cli(["bench", str(data_dir), "--format", "csv", "--report", str(report_path)] + replay) == 1
        [task] = json.loads(report_path.read_text())["per_task"]
        assert task["error"].startswith("ReplayMissError: no recorded response")


@pytest.mark.parametrize("command", ["extract", "bench"])
def test_cli_lone_surrogate_in_config_is_usage_error(tmp_path, capsys, command):
    data_dir, cache_dir = seed_dataset(tmp_path)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"generator": {"model_id": "m\ud800"}}))  # the escape, in ASCII
    report = tmp_path / "r.json"
    if command == "extract":
        (tmp_path / "input.txt").write_text(flatten_table(simple_gold("alpha", "beta")).raw)
        argv = ["extract", str(tmp_path / "input.txt")]
    else:
        argv = ["bench", str(data_dir), "--format", "csv", "--report", str(report)]
    assert cli(argv + ["--replay", "--cache-dir", str(cache_dir), "--config", str(config_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"tablex: {config_path}: model_id must be encodable as UTF-8")
    assert captured.err.count("\n") == 1
    assert not report.exists()


def bench_argv(data_dir, cache_dir, report, *extra, fmt="csv") -> list[str]:
    return ["bench", str(data_dir), "--format", fmt, "--replay", "--cache-dir", str(cache_dir), "--model", MODEL,
            "--report", str(report), *extra]  # fmt: skip


def test_cli_bench_report_into_missing_directory(tmp_path):
    data_dir, cache_dir = seed_dataset(tmp_path)
    report, out = tmp_path / "rep" / "missing" / "report.json", tmp_path / "rep" / "tasks"
    assert cli(bench_argv(data_dir, cache_dir, report, "--outputs", str(out))) == 0
    assert len(json.loads(report.read_text())["per_task"]) == 4
    assert len(list(out.iterdir())) == 12


def test_cli_bench_report_that_is_a_directory_is_usage_error(tmp_path, capsys, monkeypatch):
    data_dir, cache_dir = seed_dataset(tmp_path)
    report = tmp_path / "rep"
    report.mkdir()
    ran = []
    monkeypatch.setattr(bench, "_run_task", lambda *args, **kwargs: ran.append(args))
    assert cli(bench_argv(data_dir, cache_dir, report, "--outputs", str(tmp_path / "tasks"))) == 2
    err = capsys.readouterr().err
    assert err == f"tablex: --report {report}: is a directory\n"
    assert ran == [] and not (tmp_path / "tasks").exists()


def test_cli_bench_report_under_a_file_is_usage_error(tmp_path, capsys, monkeypatch):
    data_dir, cache_dir = seed_dataset(tmp_path)
    (tmp_path / "plain").write_text("")
    ran = []
    monkeypatch.setattr(bench, "_run_task", lambda *args, **kwargs: ran.append(args))
    assert cli(bench_argv(data_dir, cache_dir, tmp_path / "plain" / "report.json")) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"tablex: --report {tmp_path / 'plain' / 'report.json'}: cannot create its directory")
    assert err.count("\n") == 1 and ran == []


def test_cli_bench_outputs_that_is_a_file_is_usage_error(tmp_path, capsys, monkeypatch):
    data_dir, cache_dir = seed_dataset(tmp_path)
    report, out = tmp_path / "report.json", tmp_path / "outfile"
    out.write_text("")
    ran = []
    monkeypatch.setattr(bench, "_run_task", lambda *args, **kwargs: ran.append(args))
    assert cli(bench_argv(data_dir, cache_dir, report, "--outputs", str(out))) == 2
    err = capsys.readouterr().err
    assert err == f"tablex: --outputs {out}: cannot create its directory: File exists\n"
    assert ran == [] and not report.exists()


@pytest.mark.parametrize("under", ["", "tasks"], ids=["same-path", "under-report"])
def test_cli_bench_outputs_over_report_is_usage_error(tmp_path, capsys, monkeypatch, under):
    data_dir, cache_dir = seed_dataset(tmp_path)
    report = tmp_path / "run"
    out = report / under if under else report
    ran = []
    monkeypatch.setattr(bench, "_run_task", lambda *args, **kwargs: ran.append(args))
    assert cli(bench_argv(data_dir, cache_dir, report, "--outputs", str(out))) == 2
    err = capsys.readouterr().err
    assert err == f"tablex: --outputs {out}: would turn --report {report} into a directory\n"
    assert ran == [] and not report.exists()


def test_cli_bench_failing_early_keeps_existing_report(tmp_path, capsys):
    data_dir, cache_dir = seed_dataset(tmp_path)
    report = tmp_path / "report.json"
    report.write_text("previous report")
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"pipeline": {"max_iterations": 0}}))
    assert cli(bench_argv(data_dir, cache_dir, report, "--config", str(config_path))) == 2
    assert cli(bench_argv(tmp_path / "absent", cache_dir, report)) == 1
    capsys.readouterr()
    assert report.read_text() == "previous report"


def dataset_as(tmp_path, fmt):
    """seed_dataset's four tasks with their gold files in ``fmt``; the sources,
    and so the recorded cache, are the same in every format."""
    data_dir, cache_dir = seed_dataset(tmp_path)
    if fmt != "csv":
        for path in sorted(data_dir.glob("*.csv")):
            gold = parse_csv_table(path.read_text())
            path.unlink()
            path.with_suffix(".html").write_text(serialize_html(gold))
            if fmt == "paired-text":
                path.with_suffix(".txt").write_bytes(flatten_table(gold).raw.encode())
    return data_dir, cache_dir


def counting_runs(monkeypatch) -> list:
    ran = []
    original = bench.run_ten

    def counting(source, cfg):
        ran.append(source)
        return original(source, cfg)

    monkeypatch.setattr(bench, "run_ten", counting)
    return ran


@pytest.mark.parametrize("fmt", ["csv", "html", "paired-text"])
@pytest.mark.parametrize("spelling", ["same", "symlink"])
def test_cli_bench_outputs_that_is_the_dataset_is_usage_error(tmp_path, capsys, monkeypatch, fmt, spelling):
    """The task files would overwrite the gold files of the same name."""
    data_dir, cache_dir = dataset_as(tmp_path, fmt)
    out = data_dir
    if spelling == "symlink":
        out = tmp_path / "link"
        out.symlink_to(data_dir, target_is_directory=True)
    dataset = {path.name: path.read_bytes() for path in data_dir.iterdir()}
    ran = counting_runs(monkeypatch)
    report = tmp_path / "report.json"
    assert cli(bench_argv(data_dir, cache_dir, report, "--outputs", str(out), fmt=fmt)) == 2
    assert capsys.readouterr().err == f"tablex: --outputs {out}: is the dataset directory\n"
    assert ran == [] and not report.exists()
    assert {path.name: path.read_bytes() for path in data_dir.iterdir()} == dataset


@pytest.mark.parametrize(
    "fmt, name", [("csv", "t1.csv"), ("html", "t1.html"), ("paired-text", "t1.txt"), ("paired-text", "t1.html")]
)
def test_cli_bench_report_that_is_a_dataset_file_is_usage_error(tmp_path, capsys, monkeypatch, fmt, name):
    data_dir, cache_dir = dataset_as(tmp_path, fmt)
    dataset = {path.name: path.read_bytes() for path in data_dir.iterdir()}
    ran = counting_runs(monkeypatch)
    report = tmp_path / "sub" / ".." / "data" / name
    (tmp_path / "sub").mkdir()
    assert cli(bench_argv(data_dir, cache_dir, report, "--outputs", str(tmp_path / "tasks"), fmt=fmt)) == 2
    assert capsys.readouterr().err == f"tablex: --report {report}: is a file the dataset was read from\n"
    assert ran == [] and not (tmp_path / "tasks").exists()
    assert {path.name: path.read_bytes() for path in data_dir.iterdir()} == dataset
    # a report beside the dataset that it was not read from is written as before
    (data_dir / "report.json").write_text("previous report")
    assert cli(bench_argv(data_dir, cache_dir, data_dir / "report.json", fmt=fmt)) == 0
    assert len(json.loads((data_dir / "report.json").read_text())["per_task"]) == 4


@pytest.mark.parametrize("name", ["t0.trace.json", "t1.html", "t3.csv"])
@pytest.mark.parametrize("spelling", ["same", "symlink"])
def test_cli_bench_report_that_is_a_task_file_is_usage_error(tmp_path, capsys, monkeypatch, name, spelling):
    """The report would replace one of the files --outputs writes for a task."""
    data_dir, cache_dir = seed_dataset(tmp_path)
    out = tmp_path / "runs"
    if spelling == "symlink":
        (tmp_path / "real").mkdir()
        out.symlink_to(tmp_path / "real", target_is_directory=True)
    report = tmp_path / ("real" if spelling == "symlink" else "runs") / name
    ran = counting_runs(monkeypatch)
    assert cli(bench_argv(data_dir, cache_dir, report, "--outputs", str(out))) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"tablex: --report {report}: ") and err.count("\n") == 1
    assert ran == [] and not report.exists()
    # a report beside the task files that no task writes is written as before
    assert cli(bench_argv(data_dir, cache_dir, out / "t9.html", "--outputs", str(out))) == 0
    assert len(list(out.iterdir())) == 13


@pytest.mark.parametrize("parallel", ["1", "3"])
def test_cli_bench_output_write_failure_keeps_report(tmp_path, capsys, parallel):
    """A task whose files cannot all be written fails like any other task:
    its error is in the report, which lists every task, and the other tasks
    are scored and written."""
    data_dir, cache_dir = seed_dataset(tmp_path)
    report, out = tmp_path / "report.json", tmp_path / "outputs"
    for planted in ("t0.trace.json", "t2.html"):
        (out / planted).mkdir(parents=True)
    assert cli(bench_argv(data_dir, cache_dir, report, "--outputs", str(out), "--parallel", parallel)) == 1
    err = capsys.readouterr().err
    assert "bench: 2 task(s) failed\n" in err
    assert "tablex:" not in err and "Traceback" not in err
    payload = json.loads(report.read_text())
    per_task = {task["task_id"]: task for task in payload["per_task"]}
    assert list(per_task) == ["t0", "t1", "t2", "t3"]
    for failed in ("t0", "t2"):
        assert per_task[failed]["error"].startswith("IsADirectoryError:")
        assert per_task[failed]["metrics"] is None
    for scored in ("t1", "t3"):
        assert per_task[scored]["error"] is None and per_task[scored]["metrics"] is not None
    assert payload["aggregates"]["errored"] == 2
    # t2's trace was written before its .html failed, and stays
    assert (out / "t2.trace.json").is_file() and not (out / "t2.csv").exists()
    assert all((out / f"{task}{suffix}").is_file() for task in ("t1", "t3") for suffix in bench.TASK_FILE_SUFFIXES)


@pytest.mark.parametrize("outputs", [True, False], ids=["outputs", "no-outputs"])
def test_cli_bench_outputs_release_each_result(tmp_path, monkeypatch, outputs):
    """With or without --outputs, a task's PipelineResult is gone once the
    task is done (with --outputs, once its files are written): with one
    worker, before the next task starts."""
    data_dir, cache_dir = seed_dataset(tmp_path)
    refs, alive_at_start = [], []
    original = bench.run_ten

    def tracking(source, cfg):
        alive_at_start.append([ref() is not None for ref in refs])
        result = original(source, cfg)
        refs.append(weakref.ref(result))
        return result

    monkeypatch.setattr(bench, "run_ten", tracking)
    extra = ["--outputs", str(tmp_path / "tasks")] if outputs else []
    assert cli(bench_argv(data_dir, cache_dir, tmp_path / "r.json", *extra, "--parallel", "1")) == 0
    assert alive_at_start == [[], [False], [False, False], [False, False, False]]
    if outputs:
        assert len(list((tmp_path / "tasks").iterdir())) == 12


@pytest.mark.parametrize("parallel", ["1", "3"])
def test_cli_bench_outputs_match_write_task_outputs(tmp_path, parallel):
    """The files a bench run writes as its tasks finish are the files
    write_task_outputs writes from each scored task's run_ten result; the
    task that fails writes none."""
    data_dir, cache_dir = seed_dataset(tmp_path, with_errors=True)
    (data_dir / "zz-missing.csv").write_text("Name,Qty\r\nnovel,1\r\nwords,2\r\n")
    expected = tmp_path / "expected"
    cfg = replay_config(cache_dir)
    scored = [task for task in ingest_dataset(data_dir, "csv") if task.id != "zz-missing"]
    write_task_outputs([(task.id, run_ten(task.source, cfg)) for task in scored], expected)
    out = tmp_path / "outputs"
    assert cli(bench_argv(data_dir, cache_dir, tmp_path / "r.json", "--outputs", str(out), "--parallel", parallel)) == 1

    def files(directory):
        return {path.name: path.read_bytes() for path in directory.iterdir()}

    assert len(files(expected)) == 12
    assert files(out) == files(expected)


def test_cli_usage_errors_exit_two(capsys):
    assert cli(["frobnicate"]) == 2
    assert cli(["bench", "somewhere", "--report", "r.json"]) == 2  # missing --format
    assert cli([]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--parallel", "0"),
        ("--parallel", "-3"),
        ("--timeout", "0"),
        ("--timeout", "-1"),
        ("--timeout", "nan"),
        ("--timeout", "1e10"),  # above threading.TIMEOUT_MAX
        ("--timeout", "inf"),
    ],
)
def test_cli_bench_bad_parallel_or_timeout_is_usage_error(tmp_path, capsys, flag, value):
    data_dir, cache_dir = seed_dataset(tmp_path)
    argv = ["bench", str(data_dir), "--format", "csv", "--replay", "--cache-dir", str(cache_dir)]
    assert cli(argv + ["--model", MODEL, "--report", str(tmp_path / "r.json"), flag, value]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"tablex: {flag} must be ") and err.count("\n") == 1
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("pipeline", "max_iterations", 2.5),
        ("pipeline", "max_iterations", True),
        ("pipeline", "parse_retry_limit", 1.0),
        ("pipeline", "parse_retry_limit", False),
        ("thresholds", "min_coverage", "0.9"),
        ("thresholds", "max_badness", True),
        ("thresholds", "min_goodness", None),
        ("thresholds", "max_hallucination", float("nan")),
        ("generator", "retries", 1.5),
        ("generator", "retries", True),
        ("generator", "max_output_tokens", "4096"),
        ("critic", "max_output_tokens", 4096.0),
        ("generator", "timeout", True),
        ("critic", "temperature", float("nan")),
        ("pipeline", "keep_last_iteration", "no"),
        ("generator", "temperature", float("inf")),
        ("critic", "timeout", 1e10),
        ("generator", "timeout", float("inf")),
        ("generator", "api_key_env", 5),
        ("critic", "model_id", ""),
        ("generator", "endpoint", None),
        ("critic", "max_output_tokens", 0),
        pytest.param("generator", "timeout", 10**400, id="generator-timeout-10**400"),  # too large for a float
    ],
)
def test_cli_bench_mistyped_config_is_usage_error(tmp_path, capsys, section, key, value):
    data_dir, cache_dir = seed_dataset(tmp_path)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({section: {key: value}}))
    argv = ["bench", str(data_dir), "--format", "csv", "--replay", "--cache-dir", str(cache_dir), "--model", MODEL]
    assert cli(argv + ["--report", str(tmp_path / "r.json"), "--config", str(config_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"tablex: {config_path}: ") and err.count("\n") == 1
    assert not (tmp_path / "r.json").exists()


def test_cli_bench_duplicate_task_id_is_task_failure(tmp_path, capsys):
    gold = simple_gold("apple", "berry")
    for name in ("t1.html", "t1.htm"):
        (tmp_path / name).write_text(serialize_html(gold))
    report = tmp_path / "report.json"
    assert cli(["bench", str(tmp_path), "--format", "html", "--replay", "--cache-dir", str(tmp_path / "c"),
                "--report", str(report)]) == 1  # fmt: skip
    err = capsys.readouterr().err
    assert err.startswith("tablex: ") and "gives task id 't1'" in err and err.count("\n") == 1
    assert not report.exists()


def test_cli_missing_file_exit_one(tmp_path, capsys):
    assert cli(["eval", str(tmp_path / "nope.html"), str(tmp_path / "nope.html")]) == 1
    assert cli(["bench", str(tmp_path / "void"), "--format", "csv", "--report", "r.json"]) == 1
    capsys.readouterr()


def test_cli_help_exits_zero(capsys):
    assert cli(["--help"]) == 0
    capsys.readouterr()


def test_cli_config_file_and_cache_env(tmp_path, capsys, monkeypatch):
    gold = simple_gold("alpha", "beta")
    source = flatten_table(gold)
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
    (tmp_path / "src.txt").write_text(flatten_table(table).raw)
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


def test_cli_check_empty_patterns_type_no_column(tmp_path, capsys):
    """An explicit empty pattern set stays empty: no column reads as a
    number, so the checker falls back to signature analysis."""
    table = Table.from_rows(body=[["1"], ["2"], ["3"], ["4"], ["x"]])
    (tmp_path / "t.html").write_text(serialize_html(table))
    (tmp_path / "src.txt").write_text(flatten_table(table).raw)
    (tmp_path / "patterns.json").write_text("[]")
    argv = ["check", str(tmp_path / "t.html"), "--source", str(tmp_path / "src.txt")]
    assert cli(argv + ["--patterns", str(tmp_path / "patterns.json")]) == 0
    details = [v["detail"] for v in json.loads(capsys.readouterr().out)["violations"]]
    assert details == ["column 0 signature outliers row 4: 'x'"]


def test_cli_check_patterns_with_a_byte_order_mark_load(tmp_path, capsys):
    table = Table.from_rows(body=[["AB-12"], ["CD-34"], ["EF-56"], ["GH-78"], ["99"]])
    (tmp_path / "t.html").write_text(serialize_html(table))
    (tmp_path / "src.txt").write_text(flatten_table(table).raw)
    patterns = tmp_path / "patterns.json"
    patterns.write_text(json.dumps([{"kind": "code", "pattern": "[A-Z]{2}-\\d{2}"}]), encoding="utf-8-sig")
    argv = ["check", str(tmp_path / "t.html"), "--source", str(tmp_path / "src.txt")]
    assert cli(argv + ["--patterns", str(patterns)]) == 0
    details = [v["detail"] for v in json.loads(capsys.readouterr().out)["violations"]]
    assert details == ["column 0 reads as code but mismatches row 4: '99'"]


@pytest.mark.parametrize(
    "content",
    [None, "directory", json.dumps([{"kind": "code"}]), json.dumps([{"kind": "code", "pattern": "(["}]), DEEP_JSON],
    ids=["missing", "directory", "no-pattern", "bad-regex", "deep"],
)
def test_cli_bad_patterns_is_usage_error(tmp_path, capsys, content):
    table = Table.from_rows(body=[["AB-12"], ["CD-34"]])
    (tmp_path / "t.html").write_text(serialize_html(table))
    (tmp_path / "src.txt").write_text(flatten_table(table).raw)
    patterns = tmp_path / "patterns.json"
    if content == "directory":
        patterns.mkdir()
    elif content is not None:
        patterns.write_text(content)
    argv = ["check", str(tmp_path / "t.html"), "--source", str(tmp_path / "src.txt")]
    assert cli(argv + ["--patterns", str(patterns)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"tablex: {patterns}: ") and err.count("\n") == 1
    reasons = {None: "No such file or directory", "directory": "Is a directory"}  # the OS's, with the path once
    if content in reasons:
        assert err == f"tablex: {patterns}: {reasons[content]}\n"


BAD_INPUTS = {
    "undecodable-source": ("bad.txt", b"caf\xe9 1"),  # Latin-1, not UTF-8
    "undecodable-table": ("bad.html", b"<table><tr><td>caf\xe9</td></tr></table>"),
    # one field past csv's default 131,072-character limit
    "csv-field-over-limit": ("bad.csv", b'Name,Qty\r\n"' + b"x" * 200_000 + b'",1\r\n'),
}


@pytest.mark.parametrize("command", ["check", "eval"])
@pytest.mark.parametrize("bad", sorted(BAD_INPUTS))
def test_cli_unreadable_input_is_one_line_task_failure(tmp_path, capsys, command, bad):
    gold = simple_gold("alpha", "beta")
    table = tmp_path / "t.html"
    table.write_text(serialize_html(gold))
    source = tmp_path / "src.txt"
    source.write_text(flatten_table(gold).raw)
    name, content = BAD_INPUTS[bad]
    bad_file = tmp_path / name
    bad_file.write_bytes(content)
    if bad_file.suffix == ".txt":
        source = bad_file
    else:
        table = bad_file
    if command == "check":
        argv = ["check", str(table), "--source", str(source)]
    else:
        argv = ["eval", str(table), str(tmp_path / "t.html"), "--source", str(source)]
    assert cli(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"tablex: {bad_file}: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["check", "eval"])
def test_cli_table_over_grid_cap_is_one_line_task_failure(tmp_path, capsys, command):
    # each row's cell lands 1,000 columns right of the last: 40 × 40,000 positions
    huge = tmp_path / "huge.html"
    huge.write_text("<table>" + '<tr><td rowspan="65534" colspan="1000">x</td></tr>' * 40 + "</table>")
    source = tmp_path / "src.txt"
    source.write_text("x")
    if command == "check":
        argv = ["check", str(huge), "--source", str(source)]
    else:
        argv = ["eval", str(huge), str(huge)]
    assert cli(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"tablex: {huge}: cannot parse table: ") and err.count("\n") == 1


def test_cli_extract_record_then_replay(tmp_path, monkeypatch):
    """--record stores one transcript per distinct prompt; --replay then
    serves the same run offline, byte for byte."""
    merged = Table.from_rows(
        header=[["Part", "Qty", "Price"]], body=[["bolt", "102, 4.50", ""], ["nut", "300, 7.25", ""]]
    )
    fixed = Table.from_rows(header=[["Part", "Qty", "Price"]], body=[["bolt", "102", "4.50"], ["nut", "300", "7.25"]])
    answers = iter([envelope(merged), "Split the collapsed Qty/Price values.", envelope(fixed)])
    prompts = []

    def live_post(url, json=None, headers=None, timeout=None):
        prompts.append(json["messages"][0]["content"])
        content = next(answers)
        return SimpleNamespace(status_code=200, json=lambda: {"choices": [{"message": {"content": content}}]})

    monkeypatch.setenv("TEN_API_KEY", "secret")
    monkeypatch.setattr(requests, "post", live_post)
    (tmp_path / "input.txt").write_bytes(b"Part Qty Price\r\nbolt 102 4.50\r\nnut 300 7.25")
    cache = tmp_path / "cache"
    base = ["extract", str(tmp_path / "input.txt"), "--cache-dir", str(cache), "--model", MODEL, "--out", "json"]
    assert cli(base + ["--record", "--output", str(tmp_path / "recorded.json")]) == 0
    assert json.loads((tmp_path / "recorded.json").read_text())["converged"] is True

    params = BackendConfig(model_id=MODEL).params
    assert len(prompts) == len(set(prompts)) == 3  # generate, critique, regenerate
    fingerprints = {request_fingerprint(prompt, MODEL, params) for prompt in prompts}
    assert {path.stem for path in cache.glob("*.json")} == fingerprints

    def offline(*args, **kwargs):
        raise AssertionError("replay must not reach the network")

    monkeypatch.setattr(requests, "post", offline)
    assert cli(base + ["--replay", "--output", str(tmp_path / "replayed.json")]) == 0
    assert (tmp_path / "replayed.json").read_bytes() == (tmp_path / "recorded.json").read_bytes()


@pytest.mark.parametrize("config_file", [None, {"pipeline": {"generation_prompt": "sd"}}], ids=["no-config", "config-sd"])
def test_cli_extract_baseline_prompt(tmp_path, capsys, config_file):
    """``--prompt`` wins over the config file's ``generation_prompt``."""
    gold = simple_gold("alpha", "beta")
    source = flatten_table(gold)
    cache_dir = tmp_path / "cache"
    config = BackendConfig(model_id=MODEL)
    prompt = render_prompt(PromptKind.BASELINE, {"Input Text": source.raw})
    TranscriptStore(cache_dir).put(prompt, envelope(gold), config)
    (tmp_path / "input.txt").write_bytes(source.raw.encode())
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config_file))
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
        + ([] if config_file is None else ["--config", str(config_path)])
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
