from __future__ import annotations

import hashlib
import json
import threading
from dataclasses import replace

import pytest
import requests

import tablex.gateway as gateway
from tablex.errors import (
    AuthMissingError,
    BackendFailure,
    CorruptTranscript,
    MissingSlot,
    ReplayMissError,
    StoreWriteFailure,
    TablexError,
    TransportError,
    UnreadableFile,
)
from tablex.gateway import (
    BackendConfig,
    LiveBackend,
    PromptKind,
    RecordingBackend,
    ReplayBackend,
    TranscriptStore,
    build_backend,
    render_prompt,
    request_fingerprint,
    template_text,
)

from scripted import ScriptedBackend

CONFIG = BackendConfig(model_id="test-model", retries=2, api_key_env="TEN_API_KEY")

# Frozen digests: any template edit must be deliberate and show up here.
TEMPLATE_CHECKSUMS = {
    PromptKind.STRUCTURAL_DECOMPOSITION: "3d740eea21c8df185e63370796a1e10b6a41477dc5c389bdeb1ce3296f072ca7",
    PromptKind.CRITIQUE: "c3fb77410b361358fff98c38642203891003219e38ed14e528c667fee432a62f",
    PromptKind.REGENERATION: "ec47e8883bce9a7ff982274c8455313ffef468063fd372b773beeb8837eba0ea",
    PromptKind.BASELINE: "c69716d30b16743ac810bbb0f8dde16c7613a7abfbb431a04af4751d5b3e0c6b",
    PromptKind.CHAIN_OF_THOUGHT: "27c64462128311424e42e125b5b1ec90c2589abde3540b35fb976358ce333460",
}


def _error_classes(cls=TablexError):
    yield cls
    for sub in cls.__subclasses__():
        yield from _error_classes(sub)


@pytest.mark.parametrize("cls", sorted(set(_error_classes()), key=lambda c: c.__name__), ids=lambda c: c.__name__)
def test_errors_hold_nothing_but_their_message(cls):
    exc = cls("data/t1.txt", "not a directory") if cls is UnreadableFile else cls("a message")
    assert vars(exc) == {}


# ---------------------------------------------------------------------------
# Templates and rendering
# ---------------------------------------------------------------------------


def test_template_checksums_frozen():
    for kind, digest in TEMPLATE_CHECKSUMS.items():
        assert hashlib.sha256(template_text(kind).encode("utf-8")).hexdigest() == digest, kind


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
    assert str(err.value) == "missing prompt slot: 'Critique'"


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


@pytest.mark.parametrize(
    "prompt",
    ["plain ASCII prompt", "caf\u00e9 \u2014 \U0001f600 \u8868", "a lone \ud800 surrogate", "", "x\u00e9|" * 50_000],
    ids=["ascii", "non-ascii", "lone-surrogate", "empty", "200kb"],
)
def test_fingerprint_is_hashlib_sha256_of_the_canonical_request(prompt):
    """The built-in SHA-256 gives hashlib's digest, so caches recorded with
    either replay under the other."""
    canonical = json.dumps(
        {"prompt": prompt, "model_id": "m", "params": {"temperature": 0.0, "max_output_tokens": 8}},
        sort_keys=True,
        ensure_ascii=False,
        separators=(",", ":"),
    )
    expected = hashlib.sha256(canonical.encode("utf-8", "surrogatepass")).hexdigest()
    assert request_fingerprint(prompt, "m", {"temperature": 0.0, "max_output_tokens": 8}) == expected


# ---------------------------------------------------------------------------
# Transcript store
# ---------------------------------------------------------------------------


def fingerprint_of(prompt: str) -> str:
    return request_fingerprint(prompt, CONFIG.model_id, CONFIG.params)


def test_store_roundtrip(tmp_path):
    store = TranscriptStore(tmp_path)
    store.put("hello", "world", CONFIG)
    record = store.get(fingerprint_of("hello"))
    assert record["fingerprint"] == fingerprint_of("hello")
    assert record["prompt"] == "hello" and record["response"] == "world"
    assert record["model_id"] == "test-model"
    assert set(record) == {"fingerprint", "prompt", "response", "model_id", "params", "timestamp"}


def test_store_idempotent_write(tmp_path):
    store = TranscriptStore(tmp_path)
    store.put("p", "r", CONFIG)
    first_bytes = store.path(fingerprint_of("p")).read_bytes()
    store.put("p", "r", CONFIG)
    assert store.path(fingerprint_of("p")).read_bytes() == first_bytes
    assert len(list(tmp_path.glob("*.json"))) == 1


def test_store_distinct_params_distinct_entries(tmp_path):
    store = TranscriptStore(tmp_path)
    warm = BackendConfig(model_id="test-model", temperature=0.7)
    store.put("p", "r", CONFIG)
    store.put("p", "r", warm)
    assert len(list(tmp_path.glob("*.json"))) == 2


def test_store_leaves_no_temp_files(tmp_path):
    store = TranscriptStore(tmp_path)
    store.put("p", "r", CONFIG)
    assert list(tmp_path.glob("*.tmp")) == []


def test_store_temp_name_is_private_to_the_write(tmp_path):
    # another writer's temp path for the same fingerprint must not collide
    store = TranscriptStore(tmp_path)
    (tmp_path / f"{fingerprint_of('p')}.tmp").mkdir()
    store.put("p", "r", CONFIG)
    assert store.get(fingerprint_of("p"))["response"] == "r"


def test_store_failed_write_removes_temp_file(tmp_path, monkeypatch):
    def refuse(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(gateway.os, "replace", refuse)
    store = TranscriptStore(tmp_path)
    with pytest.raises(StoreWriteFailure):
        store.put("p", "r", CONFIG)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "content", ['{"fingerprint": "x", "respon', '{"prompt": "p"}', '["r"]', b"\xff\xfe"]
)
def test_corrupt_transcript_is_a_backend_failure(tmp_path, content):
    store = TranscriptStore(tmp_path)
    path = store.path(fingerprint_of("p"))
    path.write_bytes(content if isinstance(content, bytes) else content.encode())
    for backend in (ReplayBackend(CONFIG, store), ReplayBackend(CONFIG, store, live=FakeLive())):
        with pytest.raises(CorruptTranscript) as err:
            backend.complete("p")
        assert isinstance(err.value, BackendFailure)
        assert str(path) in str(err.value)


# ---------------------------------------------------------------------------
# Backends
# ---------------------------------------------------------------------------


def test_replay_hit(tmp_path):
    store = TranscriptStore(tmp_path)
    store.put("the prompt", "the answer", CONFIG)
    backend = ReplayBackend(CONFIG, store)
    assert backend.complete("the prompt") == "the answer"


def test_replay_miss_names_fingerprint(tmp_path):
    backend = ReplayBackend(CONFIG, TranscriptStore(tmp_path))
    with pytest.raises(ReplayMissError) as err:
        backend.complete("unseen prompt")
    expected = request_fingerprint("unseen prompt", CONFIG.model_id, CONFIG.params)
    assert expected in str(err.value)


def test_replay_miss_message_is_exact(tmp_path):
    backend = ReplayBackend(CONFIG, TranscriptStore(tmp_path))
    with pytest.raises(ReplayMissError) as err:
        backend.complete("unseen prompt")
    fingerprint = request_fingerprint("unseen prompt", CONFIG.model_id, CONFIG.params)
    assert str(err.value) == f"no recorded response for fingerprint {fingerprint}"


class FakeLive:
    def __init__(self, response="live answer"):
        self.response = response
        self.calls = 0

    def complete(self, prompt):
        self.calls += 1
        return self.response


def test_record_then_serve_from_cache(tmp_path):
    store = TranscriptStore(tmp_path)
    live = FakeLive()
    backend = ReplayBackend(CONFIG, store, live=live)
    first = backend.complete("p")
    second = backend.complete("p")
    assert first == second == "live answer"
    assert live.calls == 1  # second call served from cache
    replay = ReplayBackend(CONFIG, TranscriptStore(tmp_path))
    assert replay.complete("p") == "live answer"


def test_record_hashes_each_exchange_once(tmp_path, monkeypatch):
    """A record-mode miss hands its fingerprint to the store's write; the
    store's own ``put(prompt, response, config)`` still hashes for itself."""
    hashed = []
    real = gateway.request_fingerprint
    monkeypatch.setattr(gateway, "request_fingerprint", lambda *args: hashed.append(args[0]) or real(*args))
    store = TranscriptStore(tmp_path)
    assert ReplayBackend(CONFIG, store, live=FakeLive()).complete("p") == "live answer"
    assert hashed == ["p"]
    store.put("q", "r", CONFIG)
    assert hashed == ["p", "q"]
    for prompt in "pq":
        fingerprint = real(prompt, CONFIG.model_id, CONFIG.params)
        assert store.get(fingerprint)["fingerprint"] == fingerprint
    assert len(list(tmp_path.iterdir())) == 2


@pytest.mark.parametrize("answer", [None, 42, ["text"]], ids=["null", "number", "list"])
def test_record_rejects_non_string_live_answer(tmp_path, answer):
    """Any live backend's non-string answer is a transport error and is
    never stored, so the next call asks again instead of reading a corrupt
    transcript."""
    backend = ReplayBackend(CONFIG, TranscriptStore(tmp_path), live=FakeLive(answer))
    for _ in range(2):
        with pytest.raises(TransportError):
            backend.complete("p")
    assert list(tmp_path.iterdir()) == []


def test_build_backend_modes(tmp_path):
    assert RecordingBackend is ReplayBackend  # one cached backend, two names
    assert isinstance(build_backend(CONFIG, "live"), LiveBackend)
    replay = build_backend(CONFIG, "replay", tmp_path)
    record = build_backend(CONFIG, "record", tmp_path)
    assert isinstance(replay, ReplayBackend) and replay.live is None
    assert isinstance(record, ReplayBackend) and isinstance(record.live, LiveBackend)


@pytest.mark.parametrize(
    "mode, cache_dir, message",
    [
        ("recrod", "cache", "unknown backend mode"),
        ("record", None, "needs a cache directory"),
        ("replay", None, "needs a cache directory"),
    ],
)
def test_build_backend_rejects_bad_mode_or_missing_cache(tmp_path, mode, cache_dir, message):
    with pytest.raises(ValueError, match=message):
        build_backend(CONFIG, mode, cache_dir and tmp_path / cache_dir)


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

    monkeypatch.setattr(requests, "post", fake_post)
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

    monkeypatch.setattr(requests, "post", fake_post)
    assert LiveBackend(CONFIG).complete("prompt") == "ok"
    assert len(calls) == 2


def test_live_transport_after_retries(monkeypatch):
    monkeypatch.setenv("TEN_API_KEY", "secret")
    monkeypatch.setattr(gateway.time, "sleep", lambda _: None)
    calls = []

    def fake_post(url, **kwargs):
        calls.append(url)
        return FakeResponse(status_code=503)

    monkeypatch.setattr(requests, "post", fake_post)
    with pytest.raises(TransportError):
        LiveBackend(CONFIG).complete("prompt")
    assert len(calls) == CONFIG.retries + 1


def test_live_client_error_is_not_retried(monkeypatch):
    monkeypatch.setenv("TEN_API_KEY", "secret")
    calls = []

    def fake_post(url, **kwargs):
        calls.append(url)
        return FakeResponse(status_code=400, text="bad request")

    monkeypatch.setattr(requests, "post", fake_post)
    with pytest.raises(TransportError):
        LiveBackend(CONFIG).complete("prompt")
    assert len(calls) == 1


def test_live_connection_error_is_retried_after_a_backoff(monkeypatch):
    monkeypatch.setenv("TEN_API_KEY", "secret")
    sleeps = []
    monkeypatch.setattr(gateway.time, "sleep", sleeps.append)
    ok = FakeResponse(payload={"choices": [{"message": {"content": "ok"}}]})
    answers = iter([requests.ConnectionError("refused"), ok])

    def fake_post(url, **kwargs):
        answer = next(answers)
        if isinstance(answer, Exception):
            raise answer
        return answer

    monkeypatch.setattr(requests, "post", fake_post)
    assert LiveBackend(CONFIG).complete("prompt") == "ok"
    assert sleeps == [0.5]


def test_live_answer_without_choices_is_transport_error(monkeypatch):
    monkeypatch.setenv("TEN_API_KEY", "secret")
    sleeps, calls = [], []
    monkeypatch.setattr(gateway.time, "sleep", sleeps.append)

    def fake_post(url, **kwargs):
        calls.append(url)
        return FakeResponse(payload={"choices": []})

    monkeypatch.setattr(requests, "post", fake_post)
    with pytest.raises(TransportError, match="^unexpected response shape: "):
        LiveBackend(CONFIG).complete("prompt")
    assert len(calls) == 1 and sleeps == []


@pytest.mark.parametrize("endpoint", ["not-a-url", "http://", "ftp://example.invalid/x"])
def test_live_malformed_endpoint_is_not_retried(monkeypatch, endpoint):
    """requests refuses these URLs before any I/O, so no retry could succeed:
    the call fails at once, without backoff sleeps."""
    monkeypatch.setenv("TEN_API_KEY", "secret")
    sleeps = []
    monkeypatch.setattr(gateway.time, "sleep", sleeps.append)
    with pytest.raises(TransportError):
        LiveBackend(replace(CONFIG, endpoint=endpoint)).complete("prompt")
    assert sleeps == []


@pytest.mark.parametrize("content", [None, 42, ["text"]], ids=["null", "number", "list"])
def test_record_rejects_non_string_content(tmp_path, monkeypatch, content):
    """A non-string answer is a transport error and is never stored, so it
    cannot poison its fingerprint for later reads."""
    monkeypatch.setenv("TEN_API_KEY", "secret")

    def fake_post(url, **kwargs):
        return FakeResponse(payload={"choices": [{"message": {"content": content}}]})

    monkeypatch.setattr(requests, "post", fake_post)
    backend = build_backend(CONFIG, "record", tmp_path)
    with pytest.raises(TransportError):
        backend.complete("prompt")
    assert list(tmp_path.iterdir()) == []


def test_backend_config_validation():
    with pytest.raises(ValueError):
        BackendConfig(retries=-1)
    with pytest.raises(ValueError):
        BackendConfig(timeout=0)
    assert BackendConfig(timeout=threading.TIMEOUT_MAX).timeout == threading.TIMEOUT_MAX


@pytest.mark.parametrize(
    "field, value", [("timeout", True), ("timeout", float("nan")), ("temperature", float("nan")), ("temperature", "0")]
)
def test_backend_config_rejects_non_real_numbers(field, value):
    with pytest.raises(TypeError, match=f"{field} must be a number"):
        BackendConfig(**{field: value})


@pytest.mark.parametrize(
    "field, value",
    [
        ("timeout", 1e10),  # above threading.TIMEOUT_MAX
        ("timeout", float("inf")),
        ("temperature", -0.5),
        ("temperature", float("inf")),
    ],
)
def test_backend_config_rejects_out_of_range_numbers(field, value):
    with pytest.raises(ValueError, match=f"{field} must be "):
        BackendConfig(**{field: value})


@pytest.mark.parametrize(
    "field, value",
    [("endpoint", ""), ("endpoint", None), ("model_id", ""), ("model_id", 4), ("api_key_env", 5), ("api_key_env", "")],
)
def test_backend_config_rejects_bad_strings(field, value):
    with pytest.raises(TypeError, match=f"{field} must be a non-empty string"):
        BackendConfig(**{field: value})


@pytest.mark.parametrize("field", ["endpoint", "model_id", "api_key_env"])
@pytest.mark.parametrize("value", ["m\ud800", "\udcff"])
def test_backend_config_rejects_strings_utf8_cannot_encode(field, value):
    # a lone surrogate would otherwise fail later, in request_fingerprint
    with pytest.raises(ValueError, match=f"{field} must be encodable as UTF-8"):
        BackendConfig(**{field: value})
    assert BackendConfig(**{field: "m\u00e9\U0001f600"}) is not None


@pytest.mark.parametrize("value", [0, -1])
def test_backend_config_rejects_non_positive_max_output_tokens(value):
    with pytest.raises(ValueError, match="max_output_tokens must be >= 1"):
        BackendConfig(max_output_tokens=value)
    assert BackendConfig(max_output_tokens=1).max_output_tokens == 1


def test_store_concurrent_writers(tmp_path):
    store = TranscriptStore(tmp_path)
    exchanges = [(f"p{i}", f"r{i}") for i in range(20)]
    threads = [threading.Thread(target=store.put, args=(p, r, CONFIG)) for p, r in exchanges]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
    assert not any(t.is_alive() for t in threads)
    assert len(list(tmp_path.glob("*.json"))) == 20
    for prompt, response in exchanges:
        assert store.get(fingerprint_of(prompt))["response"] == response
