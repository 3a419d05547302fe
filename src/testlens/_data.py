"""Readers of the data files bundled with the package and of every input file."""

from __future__ import annotations

import json
from functools import lru_cache
from importlib import resources


def _read_text(filename: str) -> str:
    return (resources.files("testlens.data") / filename).read_text(encoding="utf-8")


@lru_cache(maxsize=None)
def common_words() -> frozenset[str]:
    return frozenset(_read_text("words.txt").split())


@lru_cache(maxsize=None)
def lexicon_dict() -> dict:
    return json.loads(_read_text("lexicon.json"))


@lru_cache(maxsize=None)
def catalog_list() -> list:
    return json.loads(_read_text("catalog.json"))


@lru_cache(maxsize=None)
def relations_dict() -> dict:
    return json.loads(_read_text("relations.json"))


def read_file(path: str) -> str:
    """The text of ``path``; one that cannot be opened or decoded is an OSError naming it."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as err:
        raise OSError(f"cannot read {path}: {err}") from err


def load_json(path: str, text: str | None = None):
    """The JSON in ``text``, else in ``path``; invalid or too deep is a ValueError naming it."""
    try:
        return json.loads(read_file(path) if text is None else text)
    except (ValueError, RecursionError) as err:
        raise ValueError(f"{path}: invalid JSON: {err}") from err
