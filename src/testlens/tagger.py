"""Part-of-speech tagging for split identifier names.

Each term receives one of ten tags: noun (N), determiner (DT), conjunction
(CJ), preposition (P), plural noun (NPL), noun modifier (NM), verb (V),
verb modifier/adverb (VM), pronoun (PR), digit (D). Tagging is a
deterministic rule cascade over layered lexicons plus positional
heuristics, followed by a rewrite that turns every noun of a noun run
except the head into a modifier.
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum
from functools import lru_cache

from . import _data
from .splitter import TermSequence


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
# members as module names: a read through the class costs several times more
_N, _DT, _CJ, _P, _NPL, _NM, _V, _VM, _PR, _D = PosTag
_NOUNISH = (_N, _NPL)


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
        return cls.from_dict(_data.load_json(path))

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
            if term.surface.isdigit() != (tag is _D):
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
    for suffix in _suffixes_by_last_letter(suffixes).get(word[-1:], ()):
        if word.endswith(suffix) and len(word) > len(suffix):
            base = word[: -len(suffix)]
            if len(base) >= 3 and base in words:
                return True
            if len(base) >= 4 and base[-1] == base[-2] and base[:-1] in words:
                return True
    return False


@lru_cache(maxsize=16)
def _suffixes_by_last_letter(suffixes: tuple[str, ...]) -> dict[str, tuple[str, ...]]:
    """The suffixes grouped by their last letter: a word can end only with those of its own."""
    lasts = {s[-1:] for s in suffixes}
    return {last: tuple(s for s in suffixes if s[-1:] == last) for last in lasts}


_VERB_SUFFIXES = ("s", "es", "ed", "d", "ing")
_NOUN_SUFFIXES = ("s", "es")


@lru_cache(maxsize=8)
def _closed_class_tags(lexicon: Lexicon) -> dict[str, PosTag]:
    """Each closed-class word or adverb of ``lexicon`` -> its tag. A word in
    two lists keeps the first: preposition, determiner, conjunction,
    pronoun, adverb."""
    table: dict[str, PosTag] = {}
    for words, pos in zip(lexicon, (_P, _DT, _CJ, _PR, _VM)):
        for word in words:
            table.setdefault(word, pos)
    return table


def noun_run_rewrite(tags: list[PosTag]) -> list[PosTag]:
    """Within each maximal N/NPL run of length >= 2, demote all but the last to NM."""
    out = list(tags)
    for i in range(len(out) - 1):
        # out[i + 1] is still as given
        if out[i] in _NOUNISH and out[i + 1] in _NOUNISH:
            out[i] = _NM
    return out


def tag(terms: TermSequence, lexicon: Lexicon | None = None) -> TaggedName:
    """Assign one POS tag per term of a split identifier.

    Digits are D and closed-class words and adverbs take their list's tag.
    A verb form is V unless it is also a known noun right after a P or DT
    (verb/noun ambiguity resolves by position). Anything else is NPL when
    it looks plural, else N.
    """
    if not terms.terms:
        raise ValueError("cannot tag an empty term sequence")
    if lexicon is None:
        lexicon = Lexicon.default()
    closed = _closed_class_tags(lexicon)
    verbs, nouns = lexicon.verbs, lexicon.known_nouns
    raw_tags: list[PosTag] = []
    prior = None
    for term in terms.terms:
        word = term.surface.lower()
        pos = _D if word.isdigit() else closed.get(word)
        if pos is None:
            if inflected_match(word, verbs, _VERB_SUFFIXES) and not (
                    (prior is _P or prior is _DT)
                    and inflected_match(word, nouns, _NOUN_SUFFIXES)):
                pos = _V
            elif len(word) >= 3 and word.endswith("s") and not word.endswith(("ss", "us", "is")):
                pos = _NPL
            else:
                pos = _N
        raw_tags.append(pos)
        prior = pos
    return TaggedName(terms, tuple(noun_run_rewrite(raw_tags)))
