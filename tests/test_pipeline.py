from __future__ import annotations

import dataclasses
import json
import typing

import pytest

import tablex.pipeline
from tablex.bench import TaskOutcome, write_task_outputs
from tablex.checker import ConvergenceThresholds, Rule, run_sanity_check
from tablex.errors import NoCandidateProduced, TransportError
from tablex.gateway import (
    BackendConfig,
    PromptKind,
    ReplayBackend,
    TranscriptStore,
    render_prompt,
)
from tablex.model import SourceText, Table, flatten_table, serialize_csv, serialize_html
from tablex.pipeline import (
    PipelineConfig,
    findings_as_bullets,
    request_critique,
    run_ten,
    table_as_rows_text,
)

from scripted import ScriptedBackend


def envelope(table: Table, token: str | None = None) -> str:
    entry = {"$starting_token$": token, "$html_output$": serialize_html(table)}
    return json.dumps({"tables": [entry]})


def config_for(generator, critic=None, **kwargs) -> PipelineConfig:
    return PipelineConfig(
        generator=generator,
        critic=critic if critic is not None else ScriptedBackend([]),
        **kwargs,
    )


MERGED_SOURCE = SourceText("Part Qty Price\r\nbolt 102 4.50\r\nnut 300 7.25")
MERGED_TABLE = Table.from_rows(
    header=[["Part", "Qty", "Price"]],
    body=[["bolt", "102, 4.50", ""], ["nut", "300, 7.25", ""]],
)
FIXED_TABLE = Table.from_rows(
    header=[["Part", "Qty", "Price"]],
    body=[["bolt", "102", "4.50"], ["nut", "300", "7.25"]],
)


# ---------------------------------------------------------------------------
# run_ten
# ---------------------------------------------------------------------------


def test_converges_first_iteration():
    table = Table.from_rows(header=[["A", "B"]], body=[["alpha", "1"], ["beta", "2"]])
    source = flatten_table(table)
    generator = ScriptedBackend([envelope(table)])
    critic = ScriptedBackend([])
    result = run_ten(source, config_for(generator, critic))
    assert result.converged and result.iterations_used == 1
    assert result.final == table
    assert result.report == run_sanity_check(source, result.final)
    assert result.traces[0].critique is None
    assert critic.calls == []  # no critique once converged


def test_two_step_merged_cell_repair():
    critique_text = "Split the collapsed Qty/Price values into their own columns."
    generator = ScriptedBackend([envelope(MERGED_TABLE), envelope(FIXED_TABLE)])
    critic = ScriptedBackend([critique_text])
    result = run_ten(MERGED_SOURCE, config_for(generator, critic))
    assert result.converged and result.iterations_used == 2
    trace1, trace2 = result.traces
    assert Rule.MERGED_CELL in {v.rule for v in trace1.report.violations}
    assert all(v.rule is not Rule.MERGED_CELL for v in trace2.report.violations)
    assert trace1.critique == critique_text
    assert trace2.critique is None
    assert result.final == FIXED_TABLE
    assert result.report == run_sanity_check(MERGED_SOURCE, result.final)
    # the regeneration prompt carried the critique and the old table
    regen_prompt = generator.calls[1]
    assert critique_text in regen_prompt
    assert "102, 4.50" in regen_prompt


def test_exhaustion_returns_iteration_three_candidate():
    sparse = Table.from_rows(body=[["alpha"]])
    source = SourceText("alpha beta gamma delta epsilon zeta")
    generator = ScriptedBackend([envelope(sparse)] * 3)
    critic = ScriptedBackend(["try again", "try again"])
    result = run_ten(source, config_for(generator, critic, max_iterations=3))
    assert not result.converged
    assert result.iterations_used == 3
    assert result.final == sparse
    assert result.traces[2].candidate == sparse
    assert result.report == run_sanity_check(source, result.final)


def test_iteration_one_prompt_has_no_feedback():
    generator = ScriptedBackend([envelope(MERGED_TABLE), envelope(FIXED_TABLE)])
    critic = ScriptedBackend(["do repairs"])
    run_ten(MERGED_SOURCE, config_for(generator, critic))
    first_prompt = generator.calls[0]
    assert first_prompt == render_prompt(
        PromptKind.STRUCTURAL_DECOMPOSITION, {"Input Text": MERGED_SOURCE.raw}
    )
    assert "critique" not in first_prompt.lower()


def test_loop_budget_five_generator_four_critic():
    sparse = Table.from_rows(body=[["alpha"]])
    source = SourceText("alpha beta gamma delta epsilon zeta")
    generator = ScriptedBackend([envelope(sparse)] * 5)
    critic = ScriptedBackend(["feedback"] * 5)
    result = run_ten(source, config_for(generator, critic, max_iterations=5))
    assert result.iterations_used == 5 and not result.converged
    assert len(generator.calls) == 5
    assert len(critic.calls) == 4  # never after the final iteration


def test_best_so_far_vs_last_iteration():
    source = SourceText("alpha beta gamma delta epsilon zeta eta theta 1 2")
    strong = Table.from_rows(body=[["alpha", "1"], ["beta", "2"]])
    weak = Table.from_rows(body=[["alpha", "102, 205"], ["beta", "300, 410"]])
    responses = [envelope(strong), envelope(weak)]

    best = run_ten(
        source,
        config_for(ScriptedBackend(responses), ScriptedBackend(["fix"]), max_iterations=2),
    )
    assert not best.converged and best.final == strong
    assert best.report == run_sanity_check(source, best.final)

    last = run_ten(
        source,
        config_for(
            ScriptedBackend(responses),
            ScriptedBackend(["fix"]),
            max_iterations=2,
            keep_last_iteration=True,
        ),
    )
    assert last.final == weak
    assert last.report == run_sanity_check(source, last.final)


def test_chosen_trace_need_not_be_the_last(tmp_path):
    """A strong candidate, an unparseable answer, then a weak candidate: the
    first trace's table is the result, in the trace and in bench's outputs."""
    source = SourceText("alpha beta gamma delta epsilon zeta eta theta 1 2")
    strong = Table.from_rows(body=[["alpha", "1"], ["beta", "2"]])
    weak = Table.from_rows(body=[["alpha", "102, 205"], ["beta", "300, 410"]])
    responses = [envelope(strong), "not json", envelope(weak)]

    def run(**kwargs):
        cfg = config_for(
            ScriptedBackend(responses), ScriptedBackend(["fix"]), max_iterations=3, parse_retry_limit=0, **kwargs
        )
        return run_ten(source, cfg)

    best = run()
    payload = best.to_dict()
    assert [trace["candidate_html"] is None for trace in payload["traces"]] == [False, True, False]
    assert best.chosen is best.traces[0] and best.final == strong
    assert payload["final_html"] == payload["traces"][0]["candidate_html"] == serialize_html(strong)
    write_task_outputs([TaskOutcome("t", None, result=best)], tmp_path)
    assert (tmp_path / "t.html").read_bytes().decode("utf-8") == payload["final_html"]
    assert (tmp_path / "t.csv").read_bytes().decode("utf-8") == serialize_csv(strong)

    last = run(keep_last_iteration=True).to_dict()
    assert last["final_html"] == last["traces"][2]["candidate_html"] == serialize_html(weak)


def test_no_candidate_produced():
    generator = ScriptedBackend(["garbage"] * 4)
    cfg = config_for(generator, ScriptedBackend([]), max_iterations=2, parse_retry_limit=1)
    with pytest.raises(NoCandidateProduced):
        run_ten(SourceText("a b"), cfg)
    assert len(generator.calls) == 4  # N * (1 + parse_retry_limit)


def test_parse_failure_then_recovery_uses_generation_prompt():
    table = Table.from_rows(body=[["alpha", "beta"]])
    source = SourceText("alpha beta")
    generator = ScriptedBackend(["not json", envelope(table)])
    cfg = config_for(generator, ScriptedBackend([]), max_iterations=2, parse_retry_limit=0)
    result = run_ten(source, cfg)
    assert result.converged and result.iterations_used == 2
    assert result.traces[0].candidate is None
    assert result.traces[0].parse_failures == 1
    assert generator.calls[0] == generator.calls[1]  # re-rendered generation prompt


def test_parse_errors_name_each_failed_parse_and_replay_identically():
    table = Table.from_rows(body=[["alpha", "beta"]])
    source = SourceText("alpha beta")

    def run() -> str:
        generator = ScriptedBackend(["not json", envelope(table)])
        return run_ten(source, config_for(generator, parse_retry_limit=1)).to_json(task_id="t")

    first = run()
    trace = json.loads(first)["traces"][0]
    assert trace["parse_failures"] == 1
    assert trace["parse_errors"] == ["MalformedJson: no parseable JSON object in response"]
    assert trace["candidate_html"] is not None
    assert run() == first


def test_backend_failure_propagates():
    generator = ScriptedBackend([])  # exhausted immediately
    with pytest.raises(TransportError):
        run_ten(SourceText("a"), config_for(generator, ScriptedBackend([])))


def test_replay_run_is_deterministic(tmp_path):
    config = BackendConfig(model_id="replay-model")
    store = TranscriptStore(tmp_path)
    table = Table.from_rows(header=[["A", "B"]], body=[["alpha", "1"], ["beta", "2"]])
    source = flatten_table(table)
    prompt = render_prompt(PromptKind.STRUCTURAL_DECOMPOSITION, {"Input Text": source.raw})
    store.put(prompt, envelope(table), config)

    def run_once():
        backend = ReplayBackend(config, TranscriptStore(tmp_path))
        return run_ten(source, config_for(backend, backend))

    assert run_once().to_json() == run_once().to_json()


# ---------------------------------------------------------------------------
# request_critique
# ---------------------------------------------------------------------------


def test_critique_no_findings_marker():
    table = Table.from_rows(body=[["alpha", "1"]])
    source = flatten_table(table)
    report = run_sanity_check(source, table)
    assert report.violations == ()
    critic = ScriptedBackend(["looks fine"])
    text = request_critique(table, report, critic)
    assert text == "looks fine"
    assert "- (no findings)" in critic.calls[0]


def test_critique_prompt_names_rules():
    table = Table.from_rows(
        body=[["1", "a"], ["2", "b"], ["oops", "102, 205"], ["4", "c"], ["5", "d"]]
    )
    source = flatten_table(table)
    report = run_sanity_check(source, table)
    kinds = {v.rule for v in report.violations}
    assert {Rule.INCONSISTENT_COLUMN, Rule.MERGED_CELL} <= kinds
    critic = ScriptedBackend(["advice"])
    request_critique(table, report, critic)
    prompt = critic.calls[0]
    assert "Inconsistent Column" in prompt and "Merged Cell" in prompt
    assert table_as_rows_text(table) in prompt


def test_critique_replay_returns_fixture_bytes(tmp_path):
    # record once, then replays serve the identical critique text
    table = Table.from_rows(
        header=[["Region", "FY21", "FY22"]],
        body=[["North", "102, 205", ""], ["South", "87", "93"], ["Total", "189, 298", ""]],
    )
    source = flatten_table(table)
    report = run_sanity_check(source, table)
    prompt = render_prompt(
        PromptKind.CRITIQUE,
        {"Table Rows": table_as_rows_text(table), "Checker Findings": findings_as_bullets(report)},
    )
    fixture = "The collapsed FY21 values must be separated into FY21 and FY22 columns.\n"
    config = BackendConfig(model_id="critic-model")
    store = TranscriptStore(tmp_path)
    store.put(prompt, fixture, config)
    backend = ReplayBackend(config, store)
    assert request_critique(table, report, backend) == fixture


# ---------------------------------------------------------------------------
# Candidate parsing inside run_ten
# ---------------------------------------------------------------------------


def first_candidate(responses, retry_budget):
    backend = ScriptedBackend(responses)
    cfg = config_for(backend, max_iterations=1, parse_retry_limit=retry_budget)
    return run_ten(SourceText("x"), cfg).traces[0].candidate, backend


def test_parse_candidate_listing(listing_json):
    table, _ = first_candidate([listing_json], 0)
    assert table is not None
    assert len(table.body_rows) == 15


def test_parse_candidate_retry_recovers():
    table = Table.from_rows(body=[["a"]])
    got, backend = first_candidate(["garbage", envelope(table)], 1)
    assert got == table
    assert len(backend.calls) == 2 and backend.calls[1] == backend.calls[0]  # same prompt re-sent


def test_parse_candidate_budget_zero():
    with pytest.raises(NoCandidateProduced):
        first_candidate(["garbage"], 0)


def test_parse_candidate_rejects_empty_extraction():
    with pytest.raises(NoCandidateProduced):
        first_candidate(['{"tables": []}'], 0)


# ---------------------------------------------------------------------------
# Config validation
# ---------------------------------------------------------------------------


def test_pipeline_config_validation():
    backend = ScriptedBackend([])
    with pytest.raises(ValueError):
        PipelineConfig(generator=backend, critic=backend, max_iterations=0)
    with pytest.raises(ValueError):
        PipelineConfig(generator=backend, critic=backend, parse_retry_limit=-1)
    with pytest.raises(ValueError):
        PipelineConfig(generator=backend, critic=backend, generation_prompt=PromptKind.CRITIQUE)


@pytest.mark.parametrize("value", ["no", 0, 1, None])
def test_pipeline_config_keep_last_iteration_must_be_bool(value):
    backend = ScriptedBackend([])
    with pytest.raises(TypeError, match="keep_last_iteration must be a bool"):
        PipelineConfig(generator=backend, critic=backend, keep_last_iteration=value)


@pytest.mark.parametrize("cls", [BackendConfig, PipelineConfig, ConvergenceThresholds])
def test_every_scalar_config_field_is_checked(cls):
    """Each field annotated int, float, str or bool refuses a value of no such
    kind, naming the field; ``get_type_hints`` resolves the annotation
    whether or not the module defers it as a string."""
    hints = typing.get_type_hints(cls)
    names = [f.name for f in dataclasses.fields(cls) if hints[f.name] in (int, float, str, bool)]
    assert len(names) >= 3
    backend = ScriptedBackend([])
    required = {"generator": backend, "critic": backend} if cls is PipelineConfig else {}
    for name in names:
        with pytest.raises(TypeError, match=f"^{name} must be "):
            cls(**required, **{name: object()})


def test_trace_serialization_shape():
    table = Table.from_rows(header=[["A", "B"]], body=[["alpha", "1"], ["beta", "2"]])
    source = flatten_table(table)
    result = run_ten(source, config_for(ScriptedBackend([envelope(table)]), ScriptedBackend([])))
    payload = json.loads(result.to_json(task_id="t1"))
    assert payload["task_id"] == "t1"
    assert payload["converged"] is True
    assert payload["iterations"] == 1
    trace = payload["traces"][0]
    assert set(trace) == {
        "index",
        "prompt_kind",
        "raw_response",
        "candidate_html",
        "report",
        "critique",
        "parse_failures",
        "parse_errors",
    }


def test_trace_renders_each_table_once(monkeypatch):
    generator = ScriptedBackend([envelope(MERGED_TABLE), envelope(FIXED_TABLE)])
    result = run_ten(MERGED_SOURCE, config_for(generator, ScriptedBackend(["split the values"])))
    first, last = (trace.candidate for trace in result.traces)
    assert result.final is last
    rendered = []
    real_serialize = tablex.pipeline.serialize_html
    monkeypatch.setattr(tablex.pipeline, "serialize_html", lambda t: rendered.append(t) or real_serialize(t))
    payload = result.to_dict(task_id="t1")
    assert sorted(map(id, rendered)) == sorted([id(first), id(last)])
    assert payload["final_html"] == payload["traces"][1]["candidate_html"] == serialize_html(FIXED_TABLE)
    assert payload["traces"][0]["candidate_html"] == serialize_html(MERGED_TABLE)
