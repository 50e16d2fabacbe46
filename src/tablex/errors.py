"""Exception types shared across the package, and the check of a config value."""

from __future__ import annotations

import dataclasses
from operator import ge, gt, le, lt


class TablexError(Exception):
    """Base class for all errors raised by this package; one is its class and its message."""


class MalformedJson(TablexError):
    """The model response contains no parseable JSON object."""


class MissingTablesKey(TablexError):
    """The extraction JSON object lacks the required "tables" key."""


class HtmlParseFailure(TablexError):
    """An HTML table could not be parsed."""


class EmptyExtraction(TablexError):
    """An extraction result contained zero tables."""


class MissingSlot(TablexError):
    """A prompt template placeholder was not supplied."""


class BackendFailure(TablexError):
    """Base class for LLM backend errors."""


class TransportError(BackendFailure):
    """A live request failed: at once when no retry can mend it, else after
    exhausting its retry budget."""


class ReplayMissError(BackendFailure):
    """The replay store has no response recorded for a fingerprint."""


class AuthMissingError(BackendFailure):
    """The API key environment variable for a live backend is unset."""


class CorruptTranscript(BackendFailure):
    """A stored transcript is unreadable, not JSON, or has no response."""


class UsageError(TablexError):
    """The command line or its config file is invalid (CLI exit code 2)."""


class StoreWriteFailure(TablexError):
    """A transcript could not be persisted."""


class TaskTimeout(TablexError):
    """A task's deadline passed before one of its backend calls, or before its scoring."""


class NoCandidateProduced(TablexError):
    """Every pipeline iteration failed to parse a table candidate."""


class UnreadableFile(TablexError):
    """A dataset file could not be read or decoded."""

    def __init__(self, path: str, reason: str):
        super().__init__(f"{path}: {reason}")


class NoTasksFound(TablexError):
    """A dataset directory produced no benchmark tasks."""


_KINDS = {int: "an integer", float: "a number", str: "a non-empty string", bool: "a bool"}
_KIND_NAMES = {kind.__name__: kind for kind in _KINDS}  # annotations under `from __future__ import annotations`
_BOUNDS = {"min": (">=", ge), "above": (">", gt), "max": ("<=", le), "below": ("<", lt)}


def check_value(name: str, value: object, kind: type, **bounds: float) -> None:
    """Raise ``TypeError`` unless ``value`` is of ``kind`` (``int``: an int;
    ``float``: an int or float, not NaN; neither a bool; ``str``: non-empty;
    ``bool``), then ``ValueError`` for a ``str`` that UTF-8 cannot encode (a
    lone surrogate) or unless it meets each bound: ``min`` (>=), ``above``
    (>), ``max`` (<=), ``below`` (<)."""
    if kind is float:  # NaN is the one value unequal to itself; math.isnan overflows on a huge int
        ok = isinstance(value, (int, float)) and value == value
    else:
        ok = isinstance(value, kind) and value != ""
    if not ok or (kind is not bool and isinstance(value, bool)):
        raise TypeError(f"{name} must be {_KINDS[kind]}, not {value!r}")
    if kind is str:
        try:
            value.encode("utf-8")
        except UnicodeEncodeError:
            raise ValueError(f"{name} must be encodable as UTF-8, not {value!r}") from None
    if not all(_BOUNDS[bound][1](value, limit) for bound, limit in bounds.items()):
        wanted = " and ".join(f"{_BOUNDS[bound][0]} {limit:g}" for bound, limit in bounds.items())
        raise ValueError(f"{name} must be {wanted}, not {value!r}")


def check_fields(config: object) -> None:
    """``check_value`` on each dataclass field annotated ``int``, ``float``,
    ``str`` or ``bool``, with the bounds in the field's ``metadata``."""
    for field in dataclasses.fields(config):
        kind = _KIND_NAMES.get(field.type, field.type)
        if kind in _KINDS:
            check_value(field.name, getattr(config, field.name), kind, **field.metadata)
