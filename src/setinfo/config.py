"""Flat ``key = value`` config files.

One assignment per line; ``#`` starts a comment; values are plain strings
that typed accessors interpret.  This is deliberately the dumbest format
that survives diffing and hand editing.
"""

from __future__ import annotations

from pathlib import Path


class ConfigInvalid(ValueError):
    """A config file or value could not be interpreted."""


def parse_config_text(text: str) -> dict[str, str]:
    values: dict[str, str] = {}
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
