"""Prompt rendering and chat-completion backends.

Five embedded prompt templates, a tiny slot renderer, request
fingerprinting, an on-disk transcript store, and two backends: live HTTP,
and a cached backend that records unseen requests through a live backend
(record mode) or refuses them (replay mode).
"""

from __future__ import annotations

import hashlib
import json
import math
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
from typing import Protocol

from .errors import AuthMissingError, CorruptTranscript, MissingSlot, ReplayMissError, StoreWriteFailure, TransportError
from .errors import check_fields


class PromptKind(Enum):
    STRUCTURAL_DECOMPOSITION = "sd"
    CRITIQUE = "critique"
    REGENERATION = "regeneration"
    BASELINE = "base"
    CHAIN_OF_THOUGHT = "cot"


_PLACEHOLDER_RE = re.compile(r"\{\{([^{}]+)\}\}")


@lru_cache(maxsize=None)
def template_text(kind: PromptKind) -> str:
    """The text of ``prompts/<kind name in lower case>.txt``."""
    return (
        resources.files("tablex")
        .joinpath(f"prompts/{kind.name.lower()}.txt")
        .read_text(encoding="utf-8")
    )


def render_prompt(kind: PromptKind, slots: dict[str, str]) -> str:
    """Substitute ``{{Name}}`` placeholders; the template text is otherwise
    reproduced byte for byte."""
    template = template_text(kind)

    def replace(match: re.Match) -> str:
        name = match.group(1)
        if name not in slots:
            raise MissingSlot(f"missing prompt slot: {name!r}")
        return slots[name]

    return _PLACEHOLDER_RE.sub(replace, template)


# ---------------------------------------------------------------------------
# Backend configuration and fingerprints
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BackendConfig:
    endpoint: str = "https://api.openai.com/v1/chat/completions"
    model_id: str = "gpt-4o"
    # an infinite temperature is not JSON, so no request body could carry it
    temperature: float = field(default=0.0, metadata={"min": 0, "below": math.inf})
    max_output_tokens: int = field(default=4096, metadata={"min": 1})
    # a socket timeout above threading.TIMEOUT_MAX (about 9.2e9 s) overflows
    timeout: float = field(default=60.0, metadata={"above": 0, "max": threading.TIMEOUT_MAX})
    retries: int = field(default=2, metadata={"min": 0})
    api_key_env: str = "TEN_API_KEY"

    def __post_init__(self) -> None:
        check_fields(self)

    @property
    def params(self) -> dict:
        return {"temperature": self.temperature, "max_output_tokens": self.max_output_tokens}


def request_fingerprint(prompt: str, model_id: str, params: dict) -> str:
    """Stable hash of (prompt, model, decoding params); the transcript key.
    A lone surrogate, which a model answer can carry into a later prompt,
    hashes as its own UTF-8-style bytes; every other prompt hashes as UTF-8."""
    canonical = json.dumps(
        {"prompt": prompt, "model_id": model_id, "params": params},
        sort_keys=True,
        ensure_ascii=False,
        separators=(",", ":"),
    )
    return hashlib.sha256(canonical.encode("utf-8", "surrogatepass")).hexdigest()


# ---------------------------------------------------------------------------
# Transcript store
# ---------------------------------------------------------------------------


class TranscriptStore:
    """One JSON file per request fingerprint under a cache directory.

    Writes are atomic (temp file + rename) and first-write-wins, so
    re-recording an identical exchange leaves the stored bytes untouched.
    Reads are lock-free; a lock serializes writers within this process.
    The directory is created by the first write, so replay creates nothing.
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self._write_lock = threading.Lock()

    def path(self, fingerprint: str) -> Path:
        return self.root / f"{fingerprint}.json"

    def get(self, fingerprint: str) -> dict | None:
        """The stored record, or None if never recorded; an unreadable
        record or one without a string ``response`` is corrupt."""
        path = self.path(fingerprint)
        try:
            with open(path, encoding="utf-8") as handle:
                record = json.load(handle)
        except FileNotFoundError:
            return None
        except (OSError, ValueError, RecursionError) as exc:  # RecursionError: too deep a nesting
            raise CorruptTranscript(f"unreadable transcript {path}: {exc}") from exc
        if not isinstance(record, dict) or not isinstance(record.get("response"), str):
            raise CorruptTranscript(f'transcript {path} has no "response" string')
        return record

    def put(self, prompt: str, response: str, config: BackendConfig) -> None:
        """Persist one exchange under its request fingerprint."""
        fingerprint = request_fingerprint(prompt, config.model_id, config.params)
        record = {
            "fingerprint": fingerprint,
            "prompt": prompt,
            "response": response,
            "model_id": config.model_id,
            "params": config.params,
            "timestamp": time.time(),
        }
        target = self.path(fingerprint)
        with self._write_lock:
            if target.exists():
                return
            text = json.dumps(record, indent=2, sort_keys=True)
            tmp = None
            try:
                self.root.mkdir(parents=True, exist_ok=True)
                # a private temp name: concurrent writers never share one
                fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
                with open(fd, "w", encoding="utf-8") as handle:
                    handle.write(text)
                os.replace(tmp, target)
            except OSError as exc:
                if tmp is not None:
                    Path(tmp).unlink(missing_ok=True)
                raise StoreWriteFailure(f"cannot write transcript {target}: {exc}") from exc


# ---------------------------------------------------------------------------
# Backends
# ---------------------------------------------------------------------------


class Backend(Protocol):
    def complete(self, prompt: str) -> str: ...


MAX_IN_FLIGHT = 8


class LiveBackend:
    """Chat-completions HTTP backend: JSON POST, bearer auth, retries with
    exponential backoff on transient failures. A semaphore bounds in-flight
    requests to ``MAX_IN_FLIGHT`` when the backend is shared across workers."""

    def __init__(self, config: BackendConfig):
        self.config = config
        self._gate = threading.Semaphore(MAX_IN_FLIGHT)

    def complete(self, prompt: str) -> str:
        import requests  # here, not at module scope: replay, check and eval never load the HTTP stack

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
                if isinstance(exc, ValueError):  # a malformed endpoint or header, found before any I/O
                    raise TransportError(f"request failed: {exc}") from exc
                last_error = exc
                continue
            if response.status_code == 429 or response.status_code >= 500:
                last_error = TransportError(f"HTTP {response.status_code}")
                continue
            if response.status_code < 200 or response.status_code >= 300:
                raise TransportError(f"HTTP {response.status_code}: {response.text[:200]}")
            try:  # RecursionError: a body nested deeper than the json module recurses
                content = response.json()["choices"][0]["message"]["content"]
            except (ValueError, KeyError, IndexError, TypeError, RecursionError) as exc:
                raise TransportError(f"unexpected response shape: {exc}") from exc
            if not isinstance(content, str):
                # a stored non-string would make every later read of its fingerprint corrupt
                raise TransportError(f"response content is {type(content).__name__}, not a string")
            return content
        raise TransportError(f"request failed after {self.config.retries + 1} attempts: {last_error}")


class ReplayBackend:
    """Serves recorded responses byte for byte. An unseen fingerprint is
    answered by ``live`` and stored, or is a ``ReplayMissError`` when there
    is no live backend."""

    def __init__(self, config: BackendConfig, store: TranscriptStore, live: Backend | None = None):
        self.config = config
        self.store = store
        self.live = live

    def complete(self, prompt: str) -> str:
        fingerprint = request_fingerprint(prompt, self.config.model_id, self.config.params)
        record = self.store.get(fingerprint)
        if record is not None:
            return record["response"]
        if self.live is None:
            raise ReplayMissError(f"no recorded response for fingerprint {fingerprint}")
        response = self.live.complete(prompt)
        if not isinstance(response, str):  # stored, it would make every later read corrupt
            raise TransportError(f"live backend answered {type(response).__name__}, not a string")
        self.store.put(prompt, response, self.config)
        return response


RecordingBackend = ReplayBackend  # the record-mode name, kept for existing callers


def build_backend(
    config: BackendConfig,
    mode: str = "live",
    cache_dir: str | Path | None = None,
) -> Backend:
    """Construct a backend for a CLI mode: live, record, or replay."""
    if mode == "live":
        return LiveBackend(config)
    if mode not in ("record", "replay"):
        raise ValueError(f"unknown backend mode {mode!r}")
    if cache_dir is None:
        raise ValueError(f"mode {mode!r} needs a cache directory")
    live = LiveBackend(config) if mode == "record" else None
    return ReplayBackend(config, TranscriptStore(cache_dir), live)
