"""One record layer for every on-disk JSON file the chassis keeps.

One rule covers every reader: a record is a JSON object that carries
the expected schema tag and holds only finite numbers (``NaN``,
``Infinity``, ``1e999`` and ints beyond the float range are rejected
while parsing).  What a missing or bad record means differs per kind
(docs/RESILIENCE.md, "On-disk records"); :data:`COUNTERS` names the
counter a skip of each kind increments.  Call sites spell each counter
as a literal, so lint rule R008 checks it against :mod:`repro.obs.names`.
"""

from __future__ import annotations

import json
import math
import os
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Any, NoReturn

from repro.obs import probe

#: :attr:`Skip.cause`: bad bytes, another schema tag, or an ``OSError``
#: (only the result cache tells them apart).
CORRUPT, FOREIGN, UNREADABLE = "corrupt", "foreign", "unreadable"


@dataclass(frozen=True)
class Skip:
    """A record a reader must not use, why, and its cause."""

    reason: str
    cause: str = CORRUPT


#: The registered counter a skip of each kind increments;
#: docs/RESILIENCE.md says what missing and bad mean per kind.
COUNTERS: dict[str, str] = {
    "cache entry": "exec.cache_corrupt",
    "broker job": "exec.broker_skips",
    "broker lease": "exec.broker_skips",
    "broker reclaim": "exec.broker_skips",
    "broker quarantine": "exec.broker_skips",
    "collector state": "telemetry.state_resets",
    "manifest line": "obs.torn_lines",
    "telemetry frame": "obs.torn_lines",
    "bench record": "bench.skipped_records",
}


def dumps(record: dict[str, Any], indent: int | None = None) -> str:
    """Serialize ``record`` (sorted keys; ``ValueError`` on NaN/inf)."""
    return json.dumps(record, sort_keys=True, indent=indent, allow_nan=False)


def write_atomic(path: Path, text: str) -> None:
    """Publish ``text`` at ``path`` via a temp file and ``os.replace``.

    The temp name ``<name>.tmp.<pid>.<thread-id>`` is unique per writer
    and matches the janitors' ``*.tmp.*`` sweeps.  On ``OSError`` the
    temp file is removed and the error re-raised for the caller.
    """
    tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}.{threading.get_ident()}")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    except OSError:
        tmp.unlink(missing_ok=True)
        raise


def _reject(text: str) -> NoReturn:
    raise ValueError(f"non-finite or oversized number {text[:32]}")


def _finite_float(text: str) -> float:
    value = float(text)
    return _reject(text) if math.isinf(value) else value


def _finite_int(text: str) -> int:
    # Up to 308 characters an int is below 1e308, so it fits a float.
    return _reject(text) if len(text) > 308 else int(text)


_DECODER = json.JSONDecoder(
    parse_float=_finite_float, parse_int=_finite_int, parse_constant=_reject
)


def parse_record(blob: bytes, schema: str | None) -> dict[str, Any] | Skip:
    """``blob`` as a record, or a :class:`Skip` unless it is UTF-8 JSON
    for an object of finite numbers tagged ``schema`` (any object when
    ``schema`` is ``None``)."""
    try:
        record = _DECODER.decode(blob.decode("utf-8"))
    except (ValueError, RecursionError) as error:
        return Skip(f"not JSON: {error}")
    if not isinstance(record, dict):
        return Skip(f"not a JSON object: {type(record).__name__}")
    tag = record.get("schema")
    if schema is not None and tag != schema:
        cause = FOREIGN if isinstance(tag, str) else CORRUPT
        return Skip(f"does not declare schema {schema!r} (found {tag!r})", cause)
    return record


def _load_text(path: Path) -> bytes:
    """Read one record file (module-level so tests can fake I/O faults)."""
    return path.read_bytes()


def read_record(path: Path, schema: str) -> dict[str, Any] | Skip | None:
    """The record at ``path``, ``None`` if missing, or a :class:`Skip`."""
    try:
        blob = _load_text(path)
    except FileNotFoundError:
        return None
    except OSError as error:
        return Skip(f"unreadable: {error}", UNREADABLE)
    return parse_record(blob, schema)


_Lines = tuple[list[dict[str, Any]], int, int]


def parse_lines(blob: bytes, schema: str | None) -> _Lines:
    """``(records, consumed, skipped)`` of the newline-terminated JSON
    lines in ``blob``; ``blob[consumed:]`` is the unterminated rest.  A
    bad complete line is skipped and counted under ``obs.torn_lines``."""
    end = blob.rfind(b"\n") + 1
    found: list[dict[str, Any]] = []
    skipped = 0
    for line in blob[:end].split(b"\n"):
        if not line.strip():
            continue
        record = parse_record(line, schema)
        if isinstance(record, Skip):
            skipped += 1
            probe.counter("obs.torn_lines")
        else:
            found.append(record)
    return found, end, skipped


def tail_jsonl(path: Path, offset: int, schema: str | None) -> _Lines:
    """``(records, new_offset, skipped)`` of the complete lines after
    ``offset`` (:func:`parse_lines`); an unreadable file has none."""
    try:
        with path.open("rb") as stream:
            stream.seek(offset)
            blob = stream.read()
    except OSError:
        return [], offset, 0
    found, end, skipped = parse_lines(blob, schema)
    return found, offset + end, skipped


__all__ = [
    "COUNTERS", "CORRUPT", "FOREIGN", "UNREADABLE", "Skip", "dumps",
    "parse_lines", "parse_record", "read_record", "tail_jsonl", "write_atomic",
]
