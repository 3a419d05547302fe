"""Grammar patterns, prefixes, and the naming-template catalog."""

from __future__ import annotations

from collections import namedtuple
from enum import Enum
from functools import lru_cache
from typing import NamedTuple

from . import _data
from .tagger import PosTag, TaggedName, parse_tag


class GrammarPattern(namedtuple("GrammarPattern", "tags")):
    """An ordered, non-empty sequence of POS tags."""

    __slots__ = ()

    def __new__(cls, tags: tuple[PosTag, ...]) -> "GrammarPattern":
        if not tags:
            raise ValueError("grammar pattern must contain at least one tag")
        return tuple.__new__(cls, (tags,))

    def __str__(self) -> str:
        return " ".join(t.value for t in self.tags)

    @classmethod
    def parse(cls, text: str) -> "GrammarPattern":
        return cls(tuple(parse_tag(part) for part in text.split()))


class PatternTemplate(namedtuple("PatternTemplate", "tags leading_wildcard trailing_wildcard")):
    """Catalog template: concrete tags plus optional '+' wildcards.

    With both wildcards (+X+) the tags only need to occur contiguously
    somewhere in the pattern.
    """

    __slots__ = ()

    def __new__(cls, tags: tuple[PosTag, ...], leading_wildcard: bool = False,
                trailing_wildcard: bool = False) -> "PatternTemplate":
        if not tags:
            raise ValueError("pattern template needs at least one concrete tag")
        return tuple.__new__(cls, (tags, leading_wildcard, trailing_wildcard))

    def __str__(self) -> str:
        core = " ".join(t.value for t in self.tags)
        lead = "+" if self.leading_wildcard else ""
        trail = "+" if self.trailing_wildcard else ""
        return f"{lead}{core}{trail}"

    @property
    def specificity(self) -> int:
        return len(self.tags)


class CatalogOrigin(Enum):
    WU_CLAUSE = "wu_clause"
    EXTENDED = "extended"


class CatalogEntry(NamedTuple):
    name: str
    template: PatternTemplate
    origin: CatalogOrigin = CatalogOrigin.EXTENDED


def pattern_of(name: TaggedName) -> GrammarPattern:
    """The grammar pattern of a tagged name is its tag sequence verbatim."""
    return GrammarPattern(name.tags)


def prefix(p: GrammarPattern, k: int) -> GrammarPattern:
    """First min(k, len) tags of ``p``; ``k`` must be positive."""
    if k < 1:
        raise ValueError("prefix length must be >= 1")
    return GrammarPattern(p.tags[: min(k, len(p.tags))])


def matches(template: PatternTemplate, p: GrammarPattern) -> bool:
    t = template.tags
    q = p.tags
    if template.leading_wildcard and template.trailing_wildcard:
        return any(q[i : i + len(t)] == t for i in range(len(q) - len(t) + 1))
    if template.trailing_wildcard:
        return q[: len(t)] == t
    if template.leading_wildcard:
        return len(q) >= len(t) and q[len(q) - len(t) :] == t
    return q == t


def catalog_match(p: GrammarPattern, catalog: list[CatalogEntry]) -> list[CatalogEntry]:
    """All catalog entries matching ``p``, most specific template first."""
    if not catalog:
        raise ValueError("catalog must not be empty")
    hits = [e for e in catalog if matches(e.template, p)]
    hits.sort(key=lambda e: (-e.template.specificity, e.name))
    return hits


_FLAG_KEYS = ("leading_wildcard", "trailing_wildcard", "containment")


def _entry_from_dict(data) -> CatalogEntry:
    """One catalog entry; a malformed field is a ValueError naming it."""
    if not isinstance(data, dict):
        raise ValueError("must be a JSON object")
    name, tags = data.get("name"), data.get("tags")
    if not isinstance(name, str):
        raise ValueError("name must be a string")
    if not isinstance(tags, list) or not all(isinstance(t, str) for t in tags):
        raise ValueError("tags must be an array of strings")
    flags = [data.get(key, False) for key in _FLAG_KEYS]
    for key, flag in zip(_FLAG_KEYS, flags):
        if not isinstance(flag, bool):
            raise ValueError(f"{key} must be true or false")
    try:
        parsed = tuple(parse_tag(t) for t in tags)
    except ValueError as verr:
        raise ValueError(f"tags: {verr}") from None
    leading, trailing, containment = flags
    template = PatternTemplate(parsed, leading, trailing)
    # both wildcards already match by containment, so the key adds nothing
    if containment and not (leading and trailing):
        raise ValueError("containment templates imply wildcards on both sides")
    try:
        origin = CatalogOrigin(data.get("origin", "extended"))
    except ValueError as verr:
        raise ValueError(f"origin: {verr}") from None
    return CatalogEntry(name, template, origin)


def load_catalog(path: str) -> list[CatalogEntry]:
    return _catalog_from_list(_data.load_json(path))


def _catalog_from_list(raw) -> list[CatalogEntry]:
    if not isinstance(raw, list):
        raise ValueError("a catalog must be a JSON array of entries")
    entries = []
    for index, item in enumerate(raw):
        try:
            entries.append(_entry_from_dict(item))
        except ValueError as verr:
            raise ValueError(f"catalog entry {index}: {verr}") from None
    names = [e.name for e in entries]
    if len(names) != len(set(names)):
        raise ValueError("catalog entry names must be unique")
    return entries


@lru_cache(maxsize=None)
def _default_entries() -> tuple[CatalogEntry, ...]:
    return tuple(_catalog_from_list(_data.catalog_list()))


def default_catalog() -> list[CatalogEntry]:
    """The bundled catalog, as a fresh list the caller may change."""
    return list(_default_entries())
