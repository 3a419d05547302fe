"""Part-of-speech tagging for split identifier names.

Each term receives one of ten tags: noun (N), determiner (DT), conjunction
(CJ), preposition (P), plural noun (NPL), noun modifier (NM), verb (V),
verb modifier/adverb (VM), pronoun (PR), digit (D). Tagging is a
deterministic rule cascade over layered lexicons plus positional
heuristics, followed by a rewrite that turns every noun of a noun run
except the head into a modifier.
"""

from __future__ import annotations

import json
from collections import namedtuple
from enum import Enum
from functools import lru_cache

from . import _data
from .splitter import TermSequence, normalize


class PosTag(Enum):
    NOUN = "N"
    DETERMINER = "DT"
    CONJUNCTION = "CJ"
    PREPOSITION = "P"
    NOUN_PLURAL = "NPL"
    NOUN_MODIFIER = "NM"
    VERB = "V"
    VERB_MODIFIER = "VM"
    PRONOUN = "PR"
    DIGIT = "D"

    def __str__(self) -> str:
        return self.value


_TAG_BY_VALUE = {t.value: t for t in PosTag}


def parse_tag(text: str) -> PosTag:
    try:
        return _TAG_BY_VALUE[text]
    except KeyError:
        raise ValueError(f"unknown POS tag {text!r}") from None


_CLOSED_CLASS_FIELDS = ("prepositions", "determiners", "conjunctions", "pronouns")
_LEXICON_FIELDS = _CLOSED_CLASS_FIELDS + ("adverbs", "verbs", "known_nouns")


class Lexicon(namedtuple("Lexicon", _LEXICON_FIELDS)):
    """Word lists backing the tag cascade. All entries are lowercase."""

    __slots__ = ()

    def __new__(cls, prepositions: frozenset[str], determiners: frozenset[str],
                conjunctions: frozenset[str], pronouns: frozenset[str],
                adverbs: frozenset[str], verbs: frozenset[str],
                known_nouns: frozenset[str]) -> "Lexicon":
        self = tuple.__new__(cls, (prepositions, determiners, conjunctions, pronouns,
                                   adverbs, verbs, known_nouns))
        for field, words in zip(_LEXICON_FIELDS, self):
            bad = [w for w in words if w != w.lower() or not w]
            if bad:
                raise ValueError(f"lexicon {field} entries must be lowercase: {bad[:3]}")
        closed = self[:len(_CLOSED_CLASS_FIELDS)]
        for i, a in enumerate(closed):
            for b in closed[i + 1:]:
                overlap = a & b
                if overlap:
                    raise ValueError(f"closed-class lexicons overlap: {sorted(overlap)[:3]}")
        if not {"not", "when", "exactly"} <= adverbs:
            raise ValueError("adverb lexicon must contain at least: not, when, exactly")
        if not {"the", "no", "all"} <= determiners:
            raise ValueError("determiner lexicon must contain at least: the, no, all")
        return self

    @classmethod
    def from_dict(cls, data: dict) -> "Lexicon":
        if not isinstance(data, dict):
            raise ValueError("a lexicon must be a JSON object of word lists")
        unknown = set(data) - set(_LEXICON_FIELDS)
        if unknown:
            raise ValueError(f"unknown lexicon keys: {sorted(unknown)}")
        lists = {f: data.get(f, []) for f in _LEXICON_FIELDS}
        for f, words in lists.items():
            if not isinstance(words, list) or not all(isinstance(w, str) for w in words):
                raise ValueError(f"lexicon key {f!r} must be a list of strings")
        return cls(**{f: frozenset(words) for f, words in lists.items()})

    @classmethod
    def from_file(cls, path: str) -> "Lexicon":
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    @classmethod
    def default(cls) -> "Lexicon":
        return _default_lexicon()


@lru_cache(maxsize=None)
def _default_lexicon() -> Lexicon:
    return Lexicon.from_dict(_data.lexicon_dict())


class TaggedName(namedtuple("TaggedName", "terms tags")):
    """Terms of a split identifier aligned with their POS tags."""

    __slots__ = ()

    def __new__(cls, terms: TermSequence, tags: tuple[PosTag, ...]) -> "TaggedName":
        if len(tags) != len(terms.terms):
            raise ValueError("tag count must equal term count")
        for term, tag in zip(terms.terms, tags):
            if term.surface.isdigit() != (tag is PosTag.DIGIT):
                raise ValueError(f"digit tag mismatch on term {term.surface!r}")
        return tuple.__new__(cls, (terms, tags))

    def pattern_string(self) -> str:
        return " ".join(t.value for t in self.tags)

    def pairs(self) -> list[tuple[str, PosTag]]:
        return [(t.surface, tag) for t, tag in zip(self.terms.terms, self.tags)]


def inflected_match(word: str, words: frozenset[str], suffixes: tuple[str, ...]) -> bool:
    """``word`` is in ``words``, or is one with one of ``suffixes`` added.

    A base must keep at least 3 letters; a doubled final consonant may be
    dropped from it (stopped -> stop).
    """
    if word in words:
        return True
    for suffix in suffixes:
        if word.endswith(suffix) and len(word) > len(suffix):
            base = word[: -len(suffix)]
            if len(base) >= 3 and base in words:
                return True
            if len(base) >= 4 and base[-1] == base[-2] and base[:-1] in words:
                return True
    return False


_VERB_SUFFIXES = ("s", "es", "ed", "d", "ing")
_NOUN_SUFFIXES = ("s", "es")


def _is_verb_form(word: str, lexicon: Lexicon) -> bool:
    return inflected_match(word, lexicon.verbs, _VERB_SUFFIXES)


def _is_known_noun(word: str, lexicon: Lexicon) -> bool:
    return inflected_match(word, lexicon.known_nouns, _NOUN_SUFFIXES)


def _looks_plural(word: str) -> bool:
    return (
        len(word) >= 3
        and word.endswith("s")
        and not word.endswith(("ss", "us", "is"))
    )


def _tag_term(word: str, index: int, prior: list[PosTag], lexicon: Lexicon) -> PosTag:
    if word.isdigit():
        return PosTag.DIGIT
    if word in lexicon.prepositions:
        return PosTag.PREPOSITION
    if word in lexicon.determiners:
        return PosTag.DETERMINER
    if word in lexicon.conjunctions:
        return PosTag.CONJUNCTION
    if word in lexicon.pronouns:
        return PosTag.PRONOUN
    if word in lexicon.adverbs:
        return PosTag.VERB_MODIFIER
    if _is_verb_form(word, lexicon):
        # verb/noun ambiguity resolves positionally: nouns win right after
        # a preposition or determiner, verbs everywhere else
        after_p_dt = index > 0 and prior[index - 1] in (
            PosTag.PREPOSITION,
            PosTag.DETERMINER,
        )
        if not (after_p_dt and _is_known_noun(word, lexicon)):
            return PosTag.VERB
    if _looks_plural(word):
        return PosTag.NOUN_PLURAL
    return PosTag.NOUN


def noun_run_rewrite(tags: list[PosTag]) -> list[PosTag]:
    """Within each maximal N/NPL run of length >= 2, demote all but the last to NM."""
    out = list(tags)
    nounish = (PosTag.NOUN, PosTag.NOUN_PLURAL)
    i = 0
    while i < len(out):
        if out[i] in nounish:
            j = i
            while j + 1 < len(out) and out[j + 1] in nounish:
                j += 1
            for k in range(i, j):
                out[k] = PosTag.NOUN_MODIFIER
            i = j + 1
        else:
            i += 1
    return out


def tag(terms: TermSequence, lexicon: Lexicon | None = None) -> TaggedName:
    """Assign one POS tag per term of a split identifier."""
    if not terms.terms:
        raise ValueError("cannot tag an empty term sequence")
    if lexicon is None:
        lexicon = Lexicon.default()
    raw_tags: list[PosTag] = []
    for i, term in enumerate(terms.terms):
        raw_tags.append(_tag_term(normalize(term.surface), i, raw_tags, lexicon))
    return TaggedName(terms, tuple(noun_run_rewrite(raw_tags)))
