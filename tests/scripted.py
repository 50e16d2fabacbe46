"""A scripted stand-in for a chat-completion backend, for tests."""

from __future__ import annotations

import threading
from typing import Sequence

from tablex.errors import TransportError


class ScriptedBackend:
    """Returns a fixed response sequence in call order and remembers the
    prompts it saw; the deterministic stand-in for scripted tests."""

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
