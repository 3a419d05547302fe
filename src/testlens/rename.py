"""Classify method renames: structural form, semantic category, term pairs.

``classify`` splits a rename into added/removed term multisets once. Its
form is formatting, reordering, simple, or complex; its semantic category
is preserve, change, narrow, broaden, add, or remove. Every (added,
removed) term pair carries a lexical relation (synonym, antonym,
specialization, generalization, same stem, tense or plurality change,
spelling fix, or unrelated). ``classify_form``, ``classify_semantics``
and ``term_pairs`` each project one field of its record.
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum
from functools import lru_cache
from typing import NamedTuple

from . import _data
from .patterns import GrammarPattern
from .splitter import TermSequence, _split_valid, validate_identifier
from .tagger import _NOUNISH, Lexicon, PosTag, inflected_match, tag


class FormCategory(Enum):
    FORMATTING = "formatting"
    REORDERING = "reordering"
    SIMPLE = "simple"
    COMPLEX = "complex"


class SemanticCategory(Enum):
    PRESERVE = "preserve"
    CHANGE = "change"
    NARROW = "narrow"
    BROADEN = "broaden"
    ADD = "add"
    REMOVE = "remove"


class TermRelation(Enum):
    SYNONYM = "synonym"
    ANTONYM = "antonym"
    SPECIALIZATION = "specialization"
    GENERALIZATION = "generalization"
    SAME_STEM = "same_stem"
    TENSE_CHANGE = "tense_change"
    PLURALITY_CHANGE = "plurality_change"
    SPELLING_FIX = "spelling_fix"
    UNRELATED = "unrelated"


# members as module names for the per-event code: a read through the class costs more
_FORMATTING, _REORDERING, _SIMPLE, _COMPLEX = FormCategory
_PRESERVE, _CHANGE, _NARROW, _BROADEN, _ADD, _REMOVE = SemanticCategory
(_SYNONYM, _ANTONYM, _SPECIALIZATION, _GENERALIZATION, _SAME_STEM, _TENSE_CHANGE,
 _PLURALITY_CHANGE, _SPELLING_FIX, _UNRELATED) = TermRelation


def validate_rename(old_name: str, new_name: str) -> None:
    """Raise ValueError unless both names are identifiers and they differ."""
    validate_identifier(old_name)
    validate_identifier(new_name)
    if old_name == new_name:
        raise ValueError("a rename requires the old and new names to differ")


class RenameEvent(namedtuple("RenameEvent", "old_name new_name file commit")):
    __slots__ = ()

    def __new__(cls, old_name: str, new_name: str, file: str | None = None,
                commit: str | None = None) -> "RenameEvent":
        validate_rename(old_name, new_name)
        for field, value in (("file", file), ("commit", commit)):
            if value is not None and not isinstance(value, str):
                raise TypeError(f"{field} must be a string or None, not {type(value).__name__}")
        return tuple.__new__(cls, (old_name, new_name, file, commit))


class RenameClassification(NamedTuple):
    """One classified rename. ``old_pattern`` and ``new_pattern`` are the
    grammar patterns of the two names, ``None`` for a name made only of
    separators, which has no terms to tag."""

    event: RenameEvent
    form: FormCategory
    semantics: SemanticCategory
    pairs: tuple[tuple[str, str, TermRelation], ...]
    old_pattern: GrammarPattern | None
    new_pattern: GrammarPattern | None


# ---------------------------------------------------------------------------
# Porter-style suffix stripping (rule table documented in the README)

_VOWELS = "aeiou"


def _is_cons(word: str, i: int) -> bool:
    ch = word[i]
    if ch in _VOWELS:
        return False
    if ch == "y":
        return i == 0 or not _is_cons(word, i - 1)
    return True


def _measure(stem: str) -> int:
    # number of vowel->consonant alternations in [C](VC)^m[V]
    m = 0
    i = 0
    n = len(stem)
    while i < n and _is_cons(stem, i):
        i += 1
    while i < n:
        while i < n and not _is_cons(stem, i):
            i += 1
        if i < n:
            m += 1
            while i < n and _is_cons(stem, i):
                i += 1
    return m


def _has_vowel(stem: str) -> bool:
    return any(not _is_cons(stem, i) for i in range(len(stem)))


def _ends_double_cons(word: str) -> bool:
    return len(word) >= 2 and word[-1] == word[-2] and _is_cons(word, len(word) - 1)


def _ends_cvc(word: str) -> bool:
    if len(word) < 3:
        return False
    n = len(word)
    if not (_is_cons(word, n - 3) and not _is_cons(word, n - 2) and _is_cons(word, n - 1)):
        return False
    return word[-1] not in "wxy"


def _step1a(w: str) -> str:
    if w.endswith("sses"):
        return w[:-2]
    if w.endswith("ies"):
        return w[:-2]
    if w.endswith("s") and not w.endswith("ss"):
        return w[:-1]
    return w


def _step1b(w: str) -> str:
    if w.endswith("eed"):
        if _measure(w[:-3]) > 0:
            return w[:-1]
        return w
    if w.endswith("ed") and _has_vowel(w[:-2]):
        w = w[:-2]
    elif w.endswith("ing") and _has_vowel(w[:-3]):
        w = w[:-3]
    else:
        return w
    if w.endswith(("at", "bl", "iz")):
        return w + "e"
    if _ends_double_cons(w) and not w.endswith(("l", "s", "z")):
        return w[:-1]
    if _measure(w) == 1 and _ends_cvc(w):
        return w + "e"
    return w


def _step1c(w: str) -> str:
    if w.endswith("y") and _has_vowel(w[:-1]):
        return w[:-1] + "i"
    return w


_STEP2 = {
    "a": (("ational", "ate"), ("tional", "tion")),
    "c": (("enci", "ence"), ("anci", "ance")),
    "e": (("izer", "ize"),),
    "l": (("bli", "ble"), ("alli", "al"), ("entli", "ent"), ("eli", "e"), ("ousli", "ous")),
    "o": (("ization", "ize"), ("ation", "ate"), ("ator", "ate")),
    "s": (("alism", "al"), ("iveness", "ive"), ("fulness", "ful"), ("ousness", "ous")),
    "t": (("aliti", "al"), ("iviti", "ive"), ("biliti", "ble")),
    "g": (("logi", "log"),),
}

_STEP3 = {
    "e": (("icate", "ic"), ("ative", ""), ("alize", "al")),
    "i": (("iciti", "ic"),),
    "l": (("ical", "ic"), ("ful", "")),
    "s": (("ness", ""),),
}

_STEP4 = {
    "a": ("al",),
    "c": ("ance", "ence"),
    "e": ("er",),
    "i": ("ic",),
    "l": ("able", "ible"),
    "n": ("ant", "ement", "ment", "ent"),
    "o": ("ion", "ou"),
    "s": ("ism",),
    "t": ("ate", "iti"),
    "u": ("ous",),
    "v": ("ive",),
    "z": ("ize",),
}


def _apply_rules(w: str, table: dict, key: int) -> str:
    """Apply the first rule of ``table`` (keyed by ``w[key]``) whose suffix ``w`` has."""
    if len(w) < 2:
        return w
    for suffix, repl in table.get(w[key], ()):
        if w.endswith(suffix):
            stem = w[: -len(suffix)]
            return stem + repl if _measure(stem) > 0 else w
    return w


def _step2(w: str) -> str:
    return _apply_rules(w, _STEP2, -2)


def _step3(w: str) -> str:
    return _apply_rules(w, _STEP3, -1)


def _step4(w: str) -> str:
    if len(w) < 2:
        return w
    for suffix in _STEP4.get(w[-2], ()):
        if w.endswith(suffix):
            stem = w[: -len(suffix)]
            if suffix == "ion" and not stem.endswith(("s", "t")):
                return w
            if _measure(stem) > 1:
                return stem
            return w
    return w


def _step5(w: str) -> str:
    if w.endswith("e"):
        stem = w[:-1]
        m = _measure(stem)
        if m > 1 or (m == 1 and not _ends_cvc(stem)):
            w = stem
    if w.endswith("ll") and _measure(w) > 1:
        w = w[:-1]
    return w


def _porter_once(w: str) -> str:
    """One pass of the suffix-stripping rule table (see README for the rules)."""
    if len(w) <= 2:
        return w
    for step in (_step1a, _step1b, _step1c, _step2, _step3, _step4, _step5):
        w = step(w)
    return w


@lru_cache(maxsize=4096)
def stem(term: str) -> str:
    """Suffix-stripping stem of a digit-free term, lowercased.

    The rule table is applied repeatedly until it stops changing the word,
    which makes stemming idempotent (a single pass is not: it maps
    "cause" to "caus" and "caus" to "cau"). Results are kept in a bounded
    cache.
    """
    if not term:
        raise ValueError("cannot stem an empty term")
    if any(map(str.isdigit, term)):
        raise ValueError(f"cannot stem a term containing digits: {term!r}")
    w = term.lower()
    while True:
        reduced = _porter_once(w)
        if reduced == w:
            return w
        w = reduced


# ---------------------------------------------------------------------------
# Word relations


_INFLECTIONS = ("s", "es", "ed", "d", "ing", "er")


def _relations_from(data: dict, words: frozenset[str]) -> tuple[dict, frozenset[str], dict]:
    """The relations of a ``relations.json``-shaped ``data``: a ``(removed,
    added) -> TermRelation`` table, the spelling-fix dictionary (``words``
    plus the single words ``data`` relates), and the phrases as term tuples
    by first term, longest first.

    Synonyms and antonyms hold both ways; a word specializes each of its
    hypernyms, direct or not. A pair related more than one way keeps the
    first of synonym, antonym, specialization, generalization.
    """
    pairs: dict = {}
    vocab = set(words)
    for key, relation in (("synonyms", _SYNONYM), ("antonyms", _ANTONYM)):
        for a, b in data[key]:
            pairs.setdefault((a, b), relation)
            pairs.setdefault((b, a), relation)
            vocab.update(w for w in (a, b) if " " not in w)
    hypernyms = data["hypernyms"]
    ancestry = []
    for word, direct in hypernyms.items():
        vocab.add(word)
        vocab.update(direct)
        seen, frontier = set(), [word]
        while frontier:
            for hyper in hypernyms.get(frontier.pop(), ()):
                if hyper not in seen:
                    seen.add(hyper)
                    frontier.append(hyper)
        ancestry.extend((word, hyper) for hyper in seen)
    for word, hyper in ancestry:
        pairs.setdefault((hyper, word), _SPECIALIZATION)
    for word, hyper in ancestry:
        pairs.setdefault((word, hyper), _GENERALIZATION)
    phrases: dict = {}
    for phrase in sorted((tuple(p.split()) for p in data["phrases"]), key=len, reverse=True):
        phrases.setdefault(phrase[0], []).append(phrase)
    return pairs, frozenset(vocab), phrases


@lru_cache(maxsize=None)
def _bundled_relations() -> tuple[dict, frozenset[str], dict]:
    return _relations_from(_data.relations_dict(), _data.common_words())


def _within_edits(a: str, b: str, k: int) -> bool:
    """Levenshtein distance (unit costs) of ``a`` and ``b`` is at most ``k``.

    Each edit changes the length by at most one. After the common prefix
    the first characters differ, so one edit (substitution, deletion or
    insertion) is spent on them; the budget bounds the recursion to
    1 + 3 + ... + 3**k calls.
    """
    if abs(len(a) - len(b)) > k:
        return False
    n = 0
    shorter = min(len(a), len(b))
    while n < shorter and a[n] == b[n]:
        n += 1
    a, b = a[n:], b[n:]
    if not a or not b:
        return len(a) + len(b) <= k
    if k == 0:
        return False
    return (_within_edits(a[1:], b[1:], k - 1)
            or _within_edits(a[1:], b, k - 1)
            or _within_edits(a, b[1:], k - 1))


def relate(removed: str, added: str) -> TermRelation:
    """Lexical relation between a removed term and its added counterpart.

    Categories are tried in fixed precedence: spelling fix, stem-based
    relations, synonym, antonym, specialization, generalization, unrelated.
    """
    for term in (removed, added):
        if any(map(str.isdigit, term)):
            raise ValueError(f"relate requires digit-free terms: {term!r}")
    pairs, words, _ = _bundled_relations()
    removed = removed.lower()
    added = added.lower()

    single_words = " " not in removed and " " not in added
    if single_words:
        if _within_edits(removed, added, 2):
            if inflected_match(removed, words, _INFLECTIONS) \
                    != inflected_match(added, words, _INFLECTIONS):
                return _SPELLING_FIX
        if stem(removed) == stem(added):
            if added == removed + "s" or removed == added + "s":
                return _PLURALITY_CHANGE
            if added == removed + "ed" or removed == added + "ed" \
                    or added == removed + "d" or removed == added + "d":
                return _TENSE_CHANGE
            return _SAME_STEM
    return pairs.get((removed, added), _UNRELATED)


# ---------------------------------------------------------------------------
# Term diffing and classification


def _collapse_phrases(terms: list[str]) -> list[str]:
    """Rewrite known multi-term phrases into single space-joined tokens.

    At each position the longest known phrase starting there wins.
    """
    _, _, by_first = _bundled_relations()
    out: list[str] = []
    i = 0
    while i < len(terms):
        for phrase in by_first.get(terms[i], ()):
            if tuple(terms[i : i + len(phrase)]) == phrase:
                out.append(" ".join(phrase))
                i += len(phrase)
                break
        else:
            out.append(terms[i])
            i += 1
    return out


def _extra(terms: list[str], other: list[str]) -> list[str]:
    """The terms of ``terms`` beyond their count in ``other``, the multiset
    difference: of each term, its first occurrences, in name order."""
    unmatched: dict[str, int] = {}
    for term in other:
        unmatched[term] = unmatched.get(term, 0) + 1
    extra = []
    for term in reversed(terms):  # ``other`` matches the last occurrences
        if unmatched.get(term):
            unmatched[term] -= 1
        else:
            extra.append(term)
    return extra[::-1]


def _form(old_terms: list[str], new_terms: list[str], added: list[str],
          removed: list[str]) -> FormCategory:
    if [t for t in old_terms if not t.isdigit()] == [t for t in new_terms if not t.isdigit()]:
        return _FORMATTING
    if not added and not removed:
        return _REORDERING
    if len(added) <= 1 and len(removed) <= 1:
        return _SIMPLE
    return _COMPLEX


_PRESERVING_RELATIONS = frozenset({_SYNONYM, _SAME_STEM, _PLURALITY_CHANGE, _TENSE_CHANGE,
                                   _SPELLING_FIX})


def _pair_relation(added: str, removed: str) -> TermRelation:
    if any(map(str.isdigit, added)) or any(map(str.isdigit, removed)):
        return _UNRELATED
    return relate(removed, added)


def _preserving_swap(added: list[str], removed: list[str], relations: dict) -> bool:
    """True when removed and added terms match one-to-one via meaning-keeping relations.

    A bipartite matching by augmenting paths (Kuhn's algorithm), in time
    polynomial in the number of terms; each term pair's relation is read once."""
    if len(added) != len(removed):
        return False
    keeps = [[j for j, a in enumerate(added) if relations[a, r] in _PRESERVING_RELATIONS] for r in removed]
    owners: list[int | None] = [None] * len(added)
    return all(_augment(i, keeps, owners, set()) for i in range(len(removed)))


def _augment(i: int, keeps: list[list[int]], owners: list[int | None], seen: set[int]) -> bool:
    """Give removed term ``i`` an added term of ``keeps[i]`` not in ``seen``,
    moving the terms that own one along to another of theirs if need be."""
    for j in keeps[i]:
        if j not in seen:
            seen.add(j)
            if owners[j] is None or _augment(owners[j], keeps, owners, seen):
                owners[j] = i
                return True
    return False


def _changed_before_head(
    name_terms: list[str], tags: tuple[PosTag, ...], other_terms: list[str]
) -> bool:
    """All changed-term occurrences in ``name_terms`` sit before a preserved head noun.

    The diff against ``other_terms`` is taken without phrase collapsing so
    positions stay aligned with the tag sequence.
    """
    nouns = [i for i, t in enumerate(tags) if t in _NOUNISH]
    if not nouns or name_terms[nouns[-1]] not in other_terms:
        return False
    head = nouns[-1]
    changed = set(_extra(name_terms, other_terms))
    return all(i < head for i, term in enumerate(name_terms) if term in changed)


def _semantics(form: FormCategory, added: list[str], removed: list[str], relations: dict,
               old_terms: list[str], old_tags: tuple[PosTag, ...],
               new_terms: list[str], new_tags: tuple[PosTag, ...]) -> SemanticCategory:
    if form in (_FORMATTING, _REORDERING):
        return _PRESERVE
    # any other form has added or removed terms
    if not removed:
        if _changed_before_head(new_terms, new_tags, old_terms):
            return _NARROW
        return _ADD
    if not added:
        if _changed_before_head(old_terms, old_tags, new_terms):
            return _BROADEN
        return _REMOVE
    if _preserving_swap(added, removed, relations):
        return _PRESERVE

    found = set(relations.values())
    has_spec = _SPECIALIZATION in found
    has_gen = _GENERALIZATION in found
    if has_spec and not has_gen:
        return _NARROW
    if has_gen and not has_spec:
        return _BROADEN
    return _CHANGE


def _tags(terms: TermSequence, lexicon: Lexicon | None) -> tuple[PosTag, ...]:
    """POS tags of a split name; a name without terms has none."""
    return tag(terms, lexicon).tags if terms.terms else ()


def classify_form(event: RenameEvent) -> FormCategory:
    """Structural class of a rename: formatting, reordering, simple, complex."""
    return classify(event).form


def term_pairs(event: RenameEvent) -> list[tuple[str, str]]:
    """Cross product of added x removed normalized terms.

    Pairs are ordered by the added term's position in the new name, then
    the removed term's position in the old name; of a repeated term, the
    first occurrences are the added or removed ones.
    """
    return [(a, r) for a, r, _ in classify(event).pairs]


def classify_semantics(event: RenameEvent, lexicon: Lexicon | None = None) -> SemanticCategory:
    """Meaning-level class of a rename."""
    return classify(event, lexicon).semantics


def classify(event: RenameEvent, lexicon: Lexicon | None = None) -> RenameClassification:
    """Full classification record for a rename event.

    Both names are split and tagged once and every distinct (added,
    removed) term relation is computed once; form, semantics, pairs and
    the two grammar patterns share them.
    """
    # RenameEvent validated both names on construction
    old = _split_valid(event.old_name)
    new = _split_valid(event.new_name)
    old_terms = old.normalized()
    new_terms = new.normalized()
    old_collapsed = _collapse_phrases(old_terms)
    new_collapsed = _collapse_phrases(new_terms)
    added = _extra(new_collapsed, old_collapsed)
    removed = _extra(old_collapsed, new_collapsed)
    form = _form(old_terms, new_terms, added, removed)
    relations = {(a, r): _pair_relation(a, r)
                 for a in dict.fromkeys(added) for r in dict.fromkeys(removed)}
    pairs = tuple((a, r, relations[a, r]) for a in added for r in removed)
    old_tags = _tags(old, lexicon)
    # tags depend only on the normalized terms, so a reformatted name shares them
    new_tags = old_tags if new_terms == old_terms else _tags(new, lexicon)
    return RenameClassification(
        event, form,
        _semantics(form, added, removed, relations, old_terms, old_tags, new_terms, new_tags),
        pairs, GrammarPattern(old_tags) if old_tags else None,
        GrammarPattern(new_tags) if new_tags else None,
    )
