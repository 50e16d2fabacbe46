from __future__ import annotations

import json
import threading

import pytest

import tablex.gateway as gateway
from tablex.errors import (
    AuthMissingError,
    BackendFailure,
    CorruptTranscript,
    MissingSlot,
    ReplayMissError,
    StoreWriteFailure,
    TransportError,
)
from tablex.gateway import (
    BackendConfig,
    ChatExchange,
    LiveBackend,
    PromptKind,
    RecordingBackend,
    ReplayBackend,
    ScriptedBackend,
    TranscriptStore,
    record_exchange,
    render_prompt,
    request_fingerprint,
    template_checksum,
    template_text,
)

CONFIG = BackendConfig(model_id="test-model", retries=2, api_key_env="TEN_API_KEY")

# Frozen digests: any template edit must be deliberate and show up here.
TEMPLATE_CHECKSUMS = {
    PromptKind.STRUCTURAL_DECOMPOSITION: "3d740eea21c8df185e63370796a1e10b6a41477dc5c389bdeb1ce3296f072ca7",
    PromptKind.CRITIQUE: "c3fb77410b361358fff98c38642203891003219e38ed14e528c667fee432a62f",
    PromptKind.REGENERATION: "ec47e8883bce9a7ff982274c8455313ffef468063fd372b773beeb8837eba0ea",
    PromptKind.BASELINE: "c69716d30b16743ac810bbb0f8dde16c7613a7abfbb431a04af4751d5b3e0c6b",
    PromptKind.CHAIN_OF_THOUGHT: "27c64462128311424e42e125b5b1ec90c2589abde3540b35fb976358ce333460",
}


# ---------------------------------------------------------------------------
# Templates and rendering
# ---------------------------------------------------------------------------


def test_template_checksums_frozen():
    for kind, digest in TEMPLATE_CHECKSUMS.items():
        assert template_checksum(kind) == digest, kind


def test_render_structural_decomposition():
    prompt = render_prompt(PromptKind.STRUCTURAL_DECOMPOSITION, {"Input Text": "a b"})
    assert "Identify the most appropriate row delimiter" in prompt
    assert prompt.rstrip().endswith("Input: a b")
    assert "{{" not in prompt


def test_render_critique_with_no_findings_marker():
    prompt = render_prompt(
        PromptKind.CRITIQUE,
        {"Table Rows": "a | b", "Checker Findings": "- (no findings)"},
    )
    assert "- (no findings)" in prompt
    assert "a | b" in prompt
    assert "expert in fixing messy tabular data" in prompt


def test_render_regeneration_missing_slot():
    with pytest.raises(MissingSlot) as err:
        render_prompt(PromptKind.REGENERATION, {"Original Table": "a | b"})
    assert err.value.slot == "Critique"


def test_render_baseline_and_cot():
    base = render_prompt(PromptKind.BASELINE, {"Input Text": "x"})
    cot = render_prompt(PromptKind.CHAIN_OF_THOUGHT, {"Input Text": "x"})
    assert "think step by step" not in base
    assert "Let's think step by step." in cot
    assert cot.replace("Let's think step by step.\n", "") == base


def test_render_is_pure_and_slot_sensitive():
    a = render_prompt(PromptKind.BASELINE, {"Input Text": "one"})
    b = render_prompt(PromptKind.BASELINE, {"Input Text": "two"})
    assert a != b
    assert a == render_prompt(PromptKind.BASELINE, {"Input Text": "one"})


def test_templates_keep_envelope_keys_verbatim():
    text = template_text(PromptKind.STRUCTURAL_DECOMPOSITION)
    assert '"$starting_token$"' in text and '"$html_output$"' in text
    assert '"$row_delimiter$"' in text


# ---------------------------------------------------------------------------
# Fingerprints
# ---------------------------------------------------------------------------


def test_fingerprint_stable():
    a = request_fingerprint("prompt", "m", {"temperature": 0.0})
    b = request_fingerprint("prompt", "m", {"temperature": 0.0})
    assert a == b and len(a) == 64


def test_fingerprint_varies_with_params():
    base = request_fingerprint("prompt", "m", {"temperature": 0.0})
    assert request_fingerprint("prompt", "m", {"temperature": 0.7}) != base
    assert request_fingerprint("prompt", "other", {"temperature": 0.0}) != base
    assert request_fingerprint("other", "m", {"temperature": 0.0}) != base


# ---------------------------------------------------------------------------
# Transcript store
# ---------------------------------------------------------------------------


def exchange_for(prompt: str, response: str) -> ChatExchange:
    return ChatExchange.create(prompt, response, "test", CONFIG)


def test_store_roundtrip(tmp_path):
    store = TranscriptStore(tmp_path)
    exchange = exchange_for("hello", "world")
    record_exchange(store, exchange)
    record = store.get(exchange.request_fingerprint)
    assert record["prompt"] == "hello" and record["response"] == "world"
    assert record["model_id"] == "test-model"
    assert set(record) == {"fingerprint", "prompt", "response", "model_id", "params", "timestamp"}


def test_store_idempotent_write(tmp_path):
    store = TranscriptStore(tmp_path)
    exchange = exchange_for("p", "r")
    record_exchange(store, exchange)
    first_bytes = store.path(exchange.request_fingerprint).read_bytes()
    record_exchange(store, exchange)
    assert store.path(exchange.request_fingerprint).read_bytes() == first_bytes
    assert len(list(tmp_path.glob("*.json"))) == 1


def test_store_distinct_params_distinct_entries(tmp_path):
    store = TranscriptStore(tmp_path)
    warm = BackendConfig(model_id="test-model", temperature=0.7)
    record_exchange(store, ChatExchange.create("p", "r", "t", CONFIG))
    record_exchange(store, ChatExchange.create("p", "r", "t", warm))
    assert len(list(tmp_path.glob("*.json"))) == 2


def test_store_leaves_no_temp_files(tmp_path):
    store = TranscriptStore(tmp_path)
    record_exchange(store, exchange_for("p", "r"))
    assert list(tmp_path.glob("*.tmp")) == []


def test_store_temp_name_is_private_to_the_write(tmp_path):
    # another writer's temp path for the same fingerprint must not collide
    store = TranscriptStore(tmp_path)
    exchange = exchange_for("p", "r")
    (tmp_path / f"{exchange.request_fingerprint}.tmp").mkdir()
    record_exchange(store, exchange)
    assert store.get(exchange.request_fingerprint)["response"] == "r"


def test_store_failed_write_removes_temp_file(tmp_path, monkeypatch):
    def refuse(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(gateway.os, "replace", refuse)
    store = TranscriptStore(tmp_path)
    with pytest.raises(StoreWriteFailure):
        record_exchange(store, exchange_for("p", "r"))
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "content", ['{"fingerprint": "x", "respon', '{"prompt": "p"}', '["r"]', b"\xff\xfe"]
)
def test_corrupt_transcript_is_a_backend_failure(tmp_path, content):
    store = TranscriptStore(tmp_path)
    path = store.path(request_fingerprint("p", CONFIG.model_id, CONFIG.params))
    path.write_bytes(content if isinstance(content, bytes) else content.encode())
    for backend in (ReplayBackend(CONFIG, store), RecordingBackend(CONFIG, store, live=FakeLive())):
        with pytest.raises(CorruptTranscript) as err:
            backend.complete("p")
        assert isinstance(err.value, BackendFailure)
        assert str(path) in str(err.value)


# ---------------------------------------------------------------------------
# Backends
# ---------------------------------------------------------------------------


def test_replay_hit(tmp_path):
    store = TranscriptStore(tmp_path)
    record_exchange(store, exchange_for("the prompt", "the answer"))
    backend = ReplayBackend(CONFIG, store)
    assert backend.complete("the prompt") == "the answer"


def test_replay_miss_names_fingerprint(tmp_path):
    backend = ReplayBackend(CONFIG, TranscriptStore(tmp_path))
    with pytest.raises(ReplayMissError) as err:
        backend.complete("unseen prompt")
    expected = request_fingerprint("unseen prompt", CONFIG.model_id, CONFIG.params)
    assert err.value.fingerprint == expected
    assert expected in str(err.value)


class FakeLive:
    backend_id = "fake"

    def __init__(self, response="live answer"):
        self.response = response
        self.calls = 0

    def complete(self, prompt):
        self.calls += 1
        return self.response


def test_record_then_serve_from_cache(tmp_path):
    store = TranscriptStore(tmp_path)
    live = FakeLive()
    backend = RecordingBackend(CONFIG, store, live=live)
    first = backend.complete("p")
    second = backend.complete("p")
    assert first == second == "live answer"
    assert live.calls == 1  # second call served from cache
    replay = ReplayBackend(CONFIG, TranscriptStore(tmp_path))
    assert replay.complete("p") == "live answer"


def test_scripted_backend_order_and_exhaustion():
    backend = ScriptedBackend(["one", "two"])
    assert backend.complete("a") == "one"
    assert backend.complete("b") == "two"
    assert backend.calls == ["a", "b"]
    with pytest.raises(TransportError):
        backend.complete("c")


# ---------------------------------------------------------------------------
# Live backend (transport mocked)
# ---------------------------------------------------------------------------


class FakeResponse:
    def __init__(self, status_code=200, payload=None, text=""):
        self.status_code = status_code
        self._payload = payload or {}
        self.text = text

    def json(self):
        return self._payload


def test_live_requires_api_key(monkeypatch):
    monkeypatch.delenv("TEN_API_KEY", raising=False)
    with pytest.raises(AuthMissingError):
        LiveBackend(CONFIG).complete("prompt")


def test_live_happy_path(monkeypatch):
    monkeypatch.setenv("TEN_API_KEY", "secret")
    seen = {}

    def fake_post(url, json=None, headers=None, timeout=None):
        seen.update(url=url, payload=json, headers=headers, timeout=timeout)
        return FakeResponse(payload={"choices": [{"message": {"content": "hi"}}]})

    monkeypatch.setattr(gateway.requests, "post", fake_post)
    assert LiveBackend(CONFIG).complete("prompt") == "hi"
    assert seen["headers"]["Authorization"] == "Bearer secret"
    assert seen["payload"]["model"] == "test-model"
    assert seen["payload"]["messages"][0]["content"] == "prompt"


def test_live_retries_then_succeeds(monkeypatch):
    monkeypatch.setenv("TEN_API_KEY", "secret")
    monkeypatch.setattr(gateway.time, "sleep", lambda _: None)
    responses = iter(
        [FakeResponse(status_code=500), FakeResponse(payload={"choices": [{"message": {"content": "ok"}}]})]
    )
    calls = []

    def fake_post(url, **kwargs):
        calls.append(url)
        return next(responses)

    monkeypatch.setattr(gateway.requests, "post", fake_post)
    assert LiveBackend(CONFIG).complete("prompt") == "ok"
    assert len(calls) == 2


def test_live_transport_after_retries(monkeypatch):
    monkeypatch.setenv("TEN_API_KEY", "secret")
    monkeypatch.setattr(gateway.time, "sleep", lambda _: None)
    calls = []

    def fake_post(url, **kwargs):
        calls.append(url)
        return FakeResponse(status_code=503)

    monkeypatch.setattr(gateway.requests, "post", fake_post)
    with pytest.raises(TransportError):
        LiveBackend(CONFIG).complete("prompt")
    assert len(calls) == CONFIG.retries + 1


def test_live_client_error_is_not_retried(monkeypatch):
    monkeypatch.setenv("TEN_API_KEY", "secret")
    calls = []

    def fake_post(url, **kwargs):
        calls.append(url)
        return FakeResponse(status_code=400, text="bad request")

    monkeypatch.setattr(gateway.requests, "post", fake_post)
    with pytest.raises(TransportError):
        LiveBackend(CONFIG).complete("prompt")
    assert len(calls) == 1


def test_backend_config_validation():
    with pytest.raises(ValueError):
        BackendConfig(retries=-1)
    with pytest.raises(ValueError):
        BackendConfig(timeout=0)


def test_store_concurrent_writers(tmp_path):
    store = TranscriptStore(tmp_path)
    exchanges = [exchange_for(f"p{i}", f"r{i}") for i in range(20)]
    threads = [threading.Thread(target=record_exchange, args=(store, e)) for e in exchanges]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(list(tmp_path.glob("*.json"))) == 20
    for e in exchanges:
        assert store.get(e.request_fingerprint)["response"] == e.response
