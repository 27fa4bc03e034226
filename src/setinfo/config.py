"""Flat ``key = value`` config files, and the JSONL files a config names.

One assignment per line; ``#`` starts a comment; values are plain strings
that typed accessors interpret.  This is deliberately the dumbest format
that survives diffing and hand editing.  The corpus manifests and gold
triples that configs name are JSONL, read and written here too.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence


class ConfigInvalid(ValueError):
    """A config file or value could not be interpreted."""


class MalformedLine(ValueError):
    """A line of a JSONL or trajectory CSV file could not be read; the message names the file and line."""

    def __init__(self, path: str | Path, line_no: int, message: str) -> None:
        super().__init__(f"{path}: line {line_no}: {message}")
        self.path = Path(path)
        self.line_no = line_no


def parse_config_text(text: str) -> dict[str, str]:
    """The ``key = value`` pairs of ``text``; ConfigInvalid for a malformed line or a key set twice."""
    values: dict[str, str] = {}
    lines: dict[str, int] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigInvalid(f"line {line_no}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if not key:
            raise ConfigInvalid(f"line {line_no}: empty key")
        if key in lines:
            raise ConfigInvalid(f"{key}: set on line {lines[key]} and again on line {line_no}")
        lines[key] = line_no
        values[key] = value.strip()
    return values


def load_config(path: str | Path) -> dict[str, str]:
    p = Path(path)
    if not p.exists():
        raise ConfigInvalid(f"config file does not exist: {p}")
    return parse_config_text(p.read_text(encoding="utf-8"))


def require_file(path: str | Path, key: str, dir_ok: bool = False) -> Path:
    """``path`` as a Path; ConfigInvalid naming ``key`` if it is not a file
    (nor, with ``dir_ok``, a directory)."""
    p = Path(path)
    if not (p.is_file() or dir_ok and p.is_dir()):
        raise ConfigInvalid(f"{key}: no such file: {p}")
    return p


def read_jsonl(
    path: str | Path, fields: Sequence[str], optional: Sequence[str] = ()
) -> Iterator[tuple[int, dict]]:
    """Each nonblank line of the JSONL file at ``path``, as its line number and object.

    MalformedLine for a line that is not a JSON object, lacks a string in
    one of ``fields``, or holds a non-string in one of ``optional``.
    """
    with open(path, "rb") as fh:  # decoded line by line, so that a bad byte is named by its line
        for line_no, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise MalformedLine(path, line_no, f"invalid UTF-8 ({exc.reason})") from exc
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise MalformedLine(path, line_no, f"invalid JSON ({exc.msg})") from exc
            if not isinstance(obj, dict):
                raise MalformedLine(path, line_no, "line is not a JSON object")
            for name in fields:
                if not isinstance(obj.get(name), str):
                    raise MalformedLine(path, line_no, f"missing or non-string {name!r} field")
            for name in optional:
                if not isinstance(obj.get(name, ""), str):
                    raise MalformedLine(path, line_no, f"non-string {name!r} field")
            yield line_no, obj


def write_jsonl(records: Iterable[Mapping[str, str]], path: str | Path) -> None:
    """Write each record as one line of sorted-key JSON, in UTF-8, making the parent directory."""
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    with open(p, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")


def as_bool(value: str, key: str = "") -> bool:
    lowered = value.strip().lower()
    if lowered in ("true", "yes", "on", "1"):
        return True
    if lowered in ("false", "no", "off", "0"):
        return False
    raise ConfigInvalid(f"{key or 'value'}: expected a boolean, got {value!r}")


def as_int(value: str, key: str = "") -> int:
    try:
        return int(value.strip())
    except ValueError as exc:
        raise ConfigInvalid(f"{key or 'value'}: expected an integer, got {value!r}") from exc


def as_float(value: str, key: str = "") -> float:
    try:
        return float(value.strip())
    except ValueError as exc:
        raise ConfigInvalid(f"{key or 'value'}: expected a number, got {value!r}") from exc


def as_list(value: str) -> list[str]:
    """Comma-separated list; surrounding whitespace per item stripped."""
    return [item.strip() for item in value.split(",") if item.strip()]


def as_phrases(value: str) -> list[str]:
    """Pipe-separated list for values whose items contain spaces."""
    return [item.strip() for item in value.split("|") if item.strip()]
