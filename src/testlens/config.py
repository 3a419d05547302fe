"""Tool configuration: defaults, file loading, flag merging.

The config file is a flat TOML-style key/value document. Supported value
forms are quoted strings, booleans, numbers, and single-line arrays of
quoted strings, each optionally followed by a ``#`` comment. Unknown keys
and values of the wrong type are rejected. Command-line flags always win
over file values.
"""

from __future__ import annotations

import math
import os
import re
from typing import NamedTuple

from . import _data
from .lint import DEFAULT_COLLECTION_VOCABULARY
from .renamedetect import DEFAULT_THRESHOLD

ENV_CONFIG = "TESTLENS_CONFIG"


class ConfigError(ValueError):
    pass


class Config(NamedTuple):
    lexicon: str | None = None
    catalog: str | None = None
    rules: tuple[str, ...] | None = None
    collection_vocabulary: tuple[str, ...] = DEFAULT_COLLECTION_VOCABULARY
    threshold: float = DEFAULT_THRESHOLD
    format: str | None = None
    not_rule_boolean_asserts: bool = False


_STRING = ((str,), str, "a quoted string")
_STRINGS = ((tuple, str), lambda v: v if isinstance(v, tuple) else (v,),
            "an array of quoted strings")
# per key: the parsed value types it takes, what it is stored as, and
# what the error says it must be
_EXPECTED = {
    "lexicon": _STRING,
    "catalog": _STRING,
    "rules": _STRINGS,
    "collection_vocabulary": _STRINGS,
    "threshold": ((int, float), float, "a number"),
    "format": _STRING,
    "not_rule_boolean_asserts": ((bool,), bool, "true or false"),
}

# a value, then an optional comment; a '#' inside quotes is text
_VALUE_RE = re.compile(r'((?:[^"#]|"[^"]*")*)(?:#.*)?')


def _parse_value(raw: str, lineno: int):
    match = _VALUE_RE.fullmatch(raw)
    raw = (match.group(1) if match else raw).strip()
    if raw.startswith('"') and raw.endswith('"') and len(raw) >= 2:
        return raw[1:-1]
    if raw in ("true", "false"):
        return raw == "true"
    if raw.startswith("[") and raw.endswith("]"):
        inner = raw[1:-1].strip()
        if not inner:
            return ()
        items = []
        for part in inner.split(","):
            part = part.strip()
            if not (part.startswith('"') and part.endswith('"') and len(part) >= 2):
                raise ConfigError(f"line {lineno}: array items must be quoted strings")
            items.append(part[1:-1])
        return tuple(items)
    for number in (int, float):  # an int if int() takes it, else a finite float
        try:
            value = number(raw)
        except ValueError:
            continue
        if math.isfinite(value):
            return value
    raise ConfigError(f"line {lineno}: cannot parse value {raw!r}")


def parse_config_text(text: str) -> Config:
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in _EXPECTED:
            raise ConfigError(f"line {lineno}: unknown config key {key!r}")
        value = _parse_value(raw, lineno)
        types, convert, expected = _EXPECTED[key]
        if type(value) not in types:
            raise ConfigError(f"line {lineno}: {key} must be {expected}")
        values[key] = convert(value)
    return Config(**values)


def load_config() -> Config:
    """Config from $TESTLENS_CONFIG, else defaults."""
    path = os.environ.get(ENV_CONFIG)
    if not path:
        return Config()
    return parse_config_text(_data.read_input(path))
