"""Readers of the data files bundled with the package and of every input file."""

from __future__ import annotations

import json
import os
import stat
from functools import lru_cache
from importlib import resources


def _read_text(filename: str) -> str:
    return (resources.files("testlens.data") / filename).read_text(encoding="utf-8")


@lru_cache(maxsize=None)
def common_words() -> frozenset[str]:
    return frozenset(_read_text("words.txt").split())


def lexicon_dict() -> dict:
    return json.loads(_read_text("lexicon.json"))


def catalog_list() -> list:
    return json.loads(_read_text("catalog.json"))


def relations_dict() -> dict:
    return json.loads(_read_text("relations.json"))


def read_file(path: str) -> str:
    """The text of ``path`` as it is, each CR kept so that spans are file offsets; one
    that is not a regular file or cannot be opened or decoded is an OSError naming it."""
    try:
        with open(path, encoding="utf-8", newline="", opener=_open_regular) as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as err:
        raise OSError(f"cannot read {path}: {err}") from err


def _open_regular(path: str, flags: int) -> int:
    """A descriptor of ``path`` if it is a regular file, opened without blocking on a FIFO."""
    fd = os.open(path, flags | getattr(os, "O_NONBLOCK", 0))
    if not stat.S_ISREG(os.fstat(fd).st_mode):
        os.close(fd)
        raise OSError("not a regular file")
    return fd


def read_input(path: str) -> str:
    """``read_file`` less one leading byte order mark, with each CR LF or CR
    read as LF: any input but a Java source, whose spans count both."""
    text = read_file(path).removeprefix("\ufeff")
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


def load_json(path: str, text: str | None = None):
    """The JSON in ``text``, else in ``path``; invalid or too deep is a ValueError naming it."""
    try:
        return json.loads(read_input(path) if text is None else text)
    except (ValueError, RecursionError) as err:
        raise ValueError(f"{path}: invalid JSON: {err}") from err
