"""Prompt rendering and chat-completion backends.

Five embedded prompt templates, a tiny slot renderer, request
fingerprinting, an on-disk transcript store, and four interchangeable
backends: live HTTP, record (live + cache), replay (cache only) and
scripted (ordered canned responses for tests and fixtures).
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import tempfile
import threading
import time
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from importlib import resources
from pathlib import Path
from typing import Protocol, Sequence

import requests

from .errors import AuthMissingError, CorruptTranscript, MissingSlot, ReplayMissError, StoreWriteFailure, TransportError


class PromptKind(Enum):
    STRUCTURAL_DECOMPOSITION = "sd"
    CRITIQUE = "critique"
    REGENERATION = "regeneration"
    BASELINE = "base"
    CHAIN_OF_THOUGHT = "cot"


_TEMPLATE_FILES = {
    PromptKind.STRUCTURAL_DECOMPOSITION: "structural_decomposition.txt",
    PromptKind.CRITIQUE: "critique.txt",
    PromptKind.REGENERATION: "regeneration.txt",
    PromptKind.BASELINE: "baseline.txt",
    PromptKind.CHAIN_OF_THOUGHT: "chain_of_thought.txt",
}

_PLACEHOLDER_RE = re.compile(r"\{\{([^{}]+)\}\}")


@lru_cache(maxsize=None)
def template_text(kind: PromptKind) -> str:
    return (
        resources.files("tablex")
        .joinpath(f"prompts/{_TEMPLATE_FILES[kind]}")
        .read_text(encoding="utf-8")
    )


def template_checksum(kind: PromptKind) -> str:
    return hashlib.sha256(template_text(kind).encode("utf-8")).hexdigest()


def render_prompt(kind: PromptKind, slots: dict[str, str]) -> str:
    """Substitute ``{{Name}}`` placeholders; the template text is otherwise
    reproduced byte for byte."""
    template = template_text(kind)

    def replace(match: re.Match) -> str:
        name = match.group(1)
        if name not in slots:
            raise MissingSlot(name)
        return slots[name]

    return _PLACEHOLDER_RE.sub(replace, template)


# ---------------------------------------------------------------------------
# Backend configuration and fingerprints
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BackendConfig:
    endpoint: str = "https://api.openai.com/v1/chat/completions"
    model_id: str = "gpt-4o"
    temperature: float = 0.0
    max_output_tokens: int = 4096
    timeout: float = 60.0
    retries: int = 2
    api_key_env: str = "TEN_API_KEY"

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ValueError("retries must be >= 0")
        if self.timeout <= 0:
            raise ValueError("timeout must be > 0")
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")

    @property
    def params(self) -> dict:
        return {"temperature": self.temperature, "max_output_tokens": self.max_output_tokens}


def request_fingerprint(prompt: str, model_id: str, params: dict) -> str:
    """Stable hash of (prompt, model, decoding params); the transcript key."""
    canonical = json.dumps(
        {"prompt": prompt, "model_id": model_id, "params": params},
        sort_keys=True,
        ensure_ascii=False,
        separators=(",", ":"),
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class ChatExchange:
    prompt: str
    response: str
    backend_id: str
    model_id: str
    request_fingerprint: str
    params: dict = field(default_factory=dict)

    @classmethod
    def create(cls, prompt: str, response: str, backend_id: str, config: BackendConfig) -> "ChatExchange":
        return cls(
            prompt=prompt,
            response=response,
            backend_id=backend_id,
            model_id=config.model_id,
            request_fingerprint=request_fingerprint(prompt, config.model_id, config.params),
            params=config.params,
        )


# ---------------------------------------------------------------------------
# Transcript store
# ---------------------------------------------------------------------------


class TranscriptStore:
    """One JSON file per request fingerprint under a cache directory.

    Writes are atomic (temp file + rename) and first-write-wins, so
    re-recording an identical exchange leaves the stored bytes untouched.
    Reads are lock-free; a lock serializes writers within this process.
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._write_lock = threading.Lock()

    def path(self, fingerprint: str) -> Path:
        return self.root / f"{fingerprint}.json"

    def get(self, fingerprint: str) -> dict | None:
        """The stored record, or None if never recorded; an unreadable
        record or one without a string ``response`` is corrupt."""
        path = self.path(fingerprint)
        if not path.exists():
            return None
        try:
            record = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise CorruptTranscript(f"unreadable transcript {path}: {exc}") from exc
        if not isinstance(record, dict) or not isinstance(record.get("response"), str):
            raise CorruptTranscript(f'transcript {path} has no "response" string')
        return record

    def put(self, record: dict) -> None:
        fingerprint = record["fingerprint"]
        target = self.path(fingerprint)
        with self._write_lock:
            if target.exists():
                return
            text = json.dumps(record, indent=2, sort_keys=True)
            tmp = None
            try:
                # a private temp name: concurrent writers never share one
                fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
                with open(fd, "w", encoding="utf-8") as handle:
                    handle.write(text)
                os.replace(tmp, target)
            except OSError as exc:
                if tmp is not None:
                    Path(tmp).unlink(missing_ok=True)
                raise StoreWriteFailure(f"cannot write transcript {target}: {exc}") from exc


def record_exchange(store: TranscriptStore, exchange: ChatExchange) -> None:
    """Persist an exchange under its fingerprint (idempotent)."""
    store.put(
        {
            "fingerprint": exchange.request_fingerprint,
            "prompt": exchange.prompt,
            "response": exchange.response,
            "model_id": exchange.model_id,
            "params": exchange.params,
            "timestamp": time.time(),
        }
    )


# ---------------------------------------------------------------------------
# Backends
# ---------------------------------------------------------------------------


class Backend(Protocol):
    backend_id: str

    def complete(self, prompt: str) -> str: ...


class LiveBackend:
    """Chat-completions HTTP backend: JSON POST, bearer auth, retries with
    exponential backoff on transient failures. A semaphore bounds in-flight
    requests when the backend is shared across workers."""

    backend_id = "live"

    def __init__(self, config: BackendConfig, max_in_flight: int = 8):
        self.config = config
        self._gate = threading.Semaphore(max_in_flight)

    def complete(self, prompt: str) -> str:
        if not prompt:
            raise TransportError("prompt is empty")
        key = os.environ.get(self.config.api_key_env)
        if not key:
            raise AuthMissingError(
                f"environment variable {self.config.api_key_env} is not set"
            )
        payload = {
            "model": self.config.model_id,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": self.config.temperature,
            "max_tokens": self.config.max_output_tokens,
        }
        headers = {"Authorization": f"Bearer {key}", "Content-Type": "application/json"}
        last_error: Exception | None = None
        for attempt in range(self.config.retries + 1):
            if attempt:
                time.sleep(0.5 * 2 ** (attempt - 1))
            try:
                with self._gate:
                    response = requests.post(
                        self.config.endpoint,
                        json=payload,
                        headers=headers,
                        timeout=self.config.timeout,
                    )
            except requests.RequestException as exc:
                last_error = exc
                continue
            if response.status_code == 429 or response.status_code >= 500:
                last_error = TransportError(f"HTTP {response.status_code}")
                continue
            if response.status_code < 200 or response.status_code >= 300:
                raise TransportError(f"HTTP {response.status_code}: {response.text[:200]}")
            try:
                return response.json()["choices"][0]["message"]["content"]
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                raise TransportError(f"unexpected response shape: {exc}") from exc
        raise TransportError(f"request failed after {self.config.retries + 1} attempts: {last_error}")


class ReplayBackend:
    """Serves recorded responses only; any unseen fingerprint is an error."""

    backend_id = "replay"

    def __init__(self, config: BackendConfig, store: TranscriptStore):
        self.config = config
        self.store = store

    def complete(self, prompt: str) -> str:
        fingerprint = request_fingerprint(prompt, self.config.model_id, self.config.params)
        record = self.store.get(fingerprint)
        if record is None:
            raise ReplayMissError(fingerprint)
        return record["response"]


class RecordingBackend:
    """Live backend with a write-through cache: cached fingerprints are
    served from the store byte-for-byte, misses hit the network and are
    persisted."""

    backend_id = "record"

    def __init__(self, config: BackendConfig, store: TranscriptStore, live: Backend | None = None):
        self.config = config
        self.store = store
        self.live = live if live is not None else LiveBackend(config)

    def complete(self, prompt: str) -> str:
        fingerprint = request_fingerprint(prompt, self.config.model_id, self.config.params)
        record = self.store.get(fingerprint)
        if record is not None:
            return record["response"]
        response = self.live.complete(prompt)
        record_exchange(self.store, ChatExchange.create(prompt, response, self.backend_id, self.config))
        return response


class ScriptedBackend:
    """Returns a fixed response sequence in call order and remembers the
    prompts it saw; the deterministic stand-in for scripted tests."""

    backend_id = "scripted"

    def __init__(self, responses: Sequence[str], model_id: str = "scripted"):
        self.responses = list(responses)
        self.model_id = model_id
        self.calls: list[str] = []
        self._lock = threading.Lock()

    def complete(self, prompt: str) -> str:
        with self._lock:
            index = len(self.calls)
            self.calls.append(prompt)
        if index >= len(self.responses):
            raise TransportError(f"script exhausted after {len(self.responses)} responses")
        return self.responses[index]


def build_backend(
    config: BackendConfig,
    mode: str = "live",
    cache_dir: str | Path | None = None,
) -> Backend:
    """Construct a backend for a CLI mode: live, record, or replay."""
    if mode == "live":
        return LiveBackend(config)
    if cache_dir is None:
        raise ValueError(f"mode {mode!r} needs a cache directory")
    store = TranscriptStore(cache_dir)
    if mode == "record":
        return RecordingBackend(config, store)
    if mode == "replay":
        return ReplayBackend(config, store)
    raise ValueError(f"unknown backend mode {mode!r}")
