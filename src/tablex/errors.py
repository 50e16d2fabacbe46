"""Exception types shared across the package."""

from __future__ import annotations


class TablexError(Exception):
    """Base class for all errors raised by this package."""


class MalformedJson(TablexError):
    """The model response contains no parseable JSON object."""


class MissingTablesKey(TablexError):
    """The extraction JSON object lacks the required "tables" key."""


class HtmlParseFailure(TablexError):
    """An HTML table could not be parsed.

    ``entry_index`` identifies the offending entry when the failure happened
    while decoding an extraction result with several tables.
    """

    def __init__(self, message: str, entry_index: int | None = None):
        super().__init__(message)
        self.entry_index = entry_index


class EmptyExtraction(TablexError):
    """An extraction result contained zero tables."""


class MissingSlot(TablexError):
    """A prompt template placeholder was not supplied."""

    def __init__(self, slot: str):
        super().__init__(f"missing prompt slot: {slot!r}")
        self.slot = slot


class BackendFailure(TablexError):
    """Base class for LLM backend errors."""


class TransportError(BackendFailure):
    """A live request failed after exhausting its retry budget."""


class ReplayMissError(BackendFailure):
    """The replay store has no response recorded for a fingerprint."""

    def __init__(self, fingerprint: str):
        super().__init__(f"no recorded response for fingerprint {fingerprint}")
        self.fingerprint = fingerprint


class AuthMissingError(BackendFailure):
    """The API key environment variable for a live backend is unset."""


class CorruptTranscript(BackendFailure):
    """A stored transcript is unreadable, not JSON, or has no response."""


class UsageError(TablexError):
    """The command line or its config file is invalid (CLI exit code 2)."""


class StoreWriteFailure(TablexError):
    """A transcript could not be persisted."""


class NoCandidateProduced(TablexError):
    """Every pipeline iteration failed to parse a table candidate."""


class UnreadableFile(TablexError):
    """A dataset file could not be read or decoded."""

    def __init__(self, path: str, reason: str):
        super().__init__(f"{path}: {reason}")
        self.path = path
        self.reason = reason


class NoTasksFound(TablexError):
    """A dataset directory produced no benchmark tasks."""
