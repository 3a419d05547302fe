"""Classify method renames: structural form, semantic category, term pairs.

A rename first splits into added/removed term multisets. Its form is
formatting, reordering, simple, or complex; its semantic category is
preserve, change, narrow, broaden, add, or remove. Every (added, removed)
term pair additionally carries a lexical relation (synonym, antonym,
specialization, generalization, same stem, tense or plurality change,
spelling fix, or unrelated).
"""

from __future__ import annotations

from collections import Counter, namedtuple
from enum import Enum
from functools import lru_cache
from typing import NamedTuple, Protocol

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


class WordRelationProvider(Protocol):
    """Lookup capability for lexical relations between lowercase words."""

    def synonyms(self, word: str) -> frozenset[str]: ...

    def antonyms(self, word: str) -> frozenset[str]: ...

    def hypernyms(self, word: str) -> frozenset[str]: ...

    def in_dictionary(self, word: str) -> bool: ...


class CuratedRelationProvider:
    """Bundled provider backed by a small curated relation table.

    Synonym and antonym pairs are stored symmetrically; hypernym lookups
    return direct hypernyms only (callers take the transitive closure).
    Dictionary membership checks the bundled word list with light
    inflection stripping (-s/-es/-ed/-d/-ing/-er).
    """

    _INFLECTIONS = ("s", "es", "ed", "d", "ing", "er")

    def __init__(self, synonyms=(), antonyms=(), hypernyms=None, words=frozenset()):
        self._syn: dict[str, set[str]] = {}
        self._ant: dict[str, set[str]] = {}
        self._hyper: dict[str, frozenset[str]] = {
            k: frozenset(v) for k, v in (hypernyms or {}).items()
        }
        for a, b in synonyms:
            self._syn.setdefault(a, set()).add(b)
            self._syn.setdefault(b, set()).add(a)
        for a, b in antonyms:
            self._ant.setdefault(a, set()).add(b)
            self._ant.setdefault(b, set()).add(a)
        self._words = frozenset(words)

    @classmethod
    def default(cls) -> "CuratedRelationProvider":
        return _default_provider()

    def synonyms(self, word: str) -> frozenset[str]:
        return frozenset(self._syn.get(word, ()))

    def antonyms(self, word: str) -> frozenset[str]:
        return frozenset(self._ant.get(word, ()))

    def hypernyms(self, word: str) -> frozenset[str]:
        return self._hyper.get(word, frozenset())

    def in_dictionary(self, word: str) -> bool:
        return inflected_match(word, self._words, self._INFLECTIONS)


@lru_cache(maxsize=None)
def _default_provider() -> CuratedRelationProvider:
    data = _data.relations_dict()
    vocab = set(_data.common_words())
    for pair_list in (data["synonyms"], data["antonyms"]):
        for a, b in pair_list:
            vocab.update(w for w in (a, b) if " " not in w)
    for word, hypers in data["hypernyms"].items():
        vocab.add(word)
        vocab.update(hypers)
    return CuratedRelationProvider(
        synonyms=[tuple(p) for p in data["synonyms"]],
        antonyms=[tuple(p) for p in data["antonyms"]],
        hypernyms=data["hypernyms"],
        words=frozenset(vocab),
    )


@lru_cache(maxsize=None)
def _phrases_by_first_term() -> dict[str, tuple[tuple[str, ...], ...]]:
    """Known multi-term phrases as normalized term tuples, grouped by their
    first term, longest first within each group."""
    phrases = (tuple(p.split()) for p in _data.relations_dict()["phrases"])
    groups: dict[str, list[tuple[str, ...]]] = {}
    for phrase in sorted(phrases, key=len, reverse=True):
        groups.setdefault(phrase[0], []).append(phrase)
    return {first: tuple(group) for first, group in groups.items()}


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


def _transitive_hypernyms(word: str, provider: WordRelationProvider) -> set[str]:
    seen: set[str] = set()
    frontier = [word]
    while frontier:
        current = frontier.pop()
        for hyper in provider.hypernyms(current):
            if hyper not in seen:
                seen.add(hyper)
                frontier.append(hyper)
    return seen


def relate(removed: str, added: str, provider: WordRelationProvider | None = None) -> TermRelation:
    """Lexical relation between a removed term and its added counterpart.

    Categories are tried in fixed precedence: spelling fix, stem-based
    relations, synonym, antonym, specialization, generalization, unrelated.
    """
    for term in (removed, added):
        if any(map(str.isdigit, term)):
            raise ValueError(f"relate requires digit-free terms: {term!r}")
    if provider is None:
        provider = CuratedRelationProvider.default()
    removed = removed.lower()
    added = added.lower()

    single_words = " " not in removed and " " not in added
    if single_words:
        if _within_edits(removed, added, 2):
            if provider.in_dictionary(removed) != provider.in_dictionary(added):
                return _SPELLING_FIX
        if stem(removed) == stem(added):
            if added == removed + "s" or removed == added + "s":
                return _PLURALITY_CHANGE
            if added == removed + "ed" or removed == added + "ed" \
                    or added == removed + "d" or removed == added + "d":
                return _TENSE_CHANGE
            return _SAME_STEM

    if added in provider.synonyms(removed):
        return _SYNONYM
    if added in provider.antonyms(removed):
        return _ANTONYM
    if removed in _transitive_hypernyms(added, provider):
        return _SPECIALIZATION
    if added in _transitive_hypernyms(removed, provider):
        return _GENERALIZATION
    return _UNRELATED


# ---------------------------------------------------------------------------
# Term diffing and classification


def collapse_phrases(terms: list[str]) -> list[str]:
    """Rewrite known multi-term phrases into single space-joined tokens.

    At each position the longest known phrase starting there wins.
    """
    by_first = _phrases_by_first_term()
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


class _RenameDiff(NamedTuple):
    """Both names of one rename event, split and diffed once; never mutated."""

    old: TermSequence
    new: TermSequence
    old_terms: list[str]  # normalized, one per split term
    new_terms: list[str]
    old_collapsed: list[str]  # normalized, phrases collapsed
    new_collapsed: list[str]
    added: Counter  # new_collapsed - old_collapsed
    removed: Counter  # old_collapsed - new_collapsed


def _diff(event: RenameEvent) -> _RenameDiff:
    # RenameEvent validated both names on construction
    old = _split_valid(event.old_name)
    new = _split_valid(event.new_name)
    old_terms = old.normalized()
    new_terms = new.normalized()
    old_collapsed = collapse_phrases(old_terms)
    new_collapsed = collapse_phrases(new_terms)
    old_counts = Counter(old_collapsed)
    new_counts = Counter(new_collapsed)
    return _RenameDiff(old, new, old_terms, new_terms, old_collapsed, new_collapsed,
                       new_counts - old_counts, old_counts - new_counts)


def _form(d: _RenameDiff) -> FormCategory:
    if [t for t in d.old_terms if not t.isdigit()] == [t for t in d.new_terms if not t.isdigit()]:
        return _FORMATTING
    if not d.added and not d.removed:
        return _REORDERING
    if sum(d.added.values()) <= 1 and sum(d.removed.values()) <= 1:
        return _SIMPLE
    return _COMPLEX


def _pairs(d: _RenameDiff) -> list[tuple[str, str]]:
    added = _in_name_order(d.new_collapsed, d.added)
    removed = _in_name_order(d.old_collapsed, d.removed)
    return [(a, r) for a in added for r in removed]


def _in_name_order(name_terms: list[str], counts: Counter) -> list[str]:
    remaining = dict(counts)
    ordered: list[str] = []
    for term in name_terms:
        if remaining.get(term, 0) > 0:
            ordered.append(term)
            remaining[term] -= 1
    return ordered


_PRESERVING_RELATIONS = frozenset({_SYNONYM, _SAME_STEM, _PLURALITY_CHANGE, _TENSE_CHANGE,
                                   _SPELLING_FIX})


def _pair_relation(added: str, removed: str, provider: WordRelationProvider) -> TermRelation:
    if any(map(str.isdigit, added)) or any(map(str.isdigit, removed)):
        return _UNRELATED
    return relate(removed, added, provider)


def _relations(d: _RenameDiff, provider: WordRelationProvider) -> dict:
    """``(added, removed) -> TermRelation`` for every distinct term pair of the event."""
    return {(a, r): _pair_relation(a, r, provider) for a in d.added for r in d.removed}


def _preserving_swap(added: list[str], removed: list[str], relations: dict) -> bool:
    """True when removed and added terms match one-to-one via meaning-keeping relations."""
    if len(added) != len(removed) or len(removed) > 8:
        return False
    return _match_from(0, set(), added, removed, relations)


def _match_from(i: int, used: set[int], added: list[str], removed: list[str],
                relations: dict) -> bool:
    """``removed[i:]`` each keep their meaning with a distinct added term
    outside ``used``. A module-level function: a nested recursive one is a
    reference cycle, left as garbage by every event that reaches it."""
    if i == len(removed):
        return True
    for j, a in enumerate(added):
        if j in used:
            continue
        if relations[a, removed[i]] in _PRESERVING_RELATIONS:
            if _match_from(i + 1, used | {j}, added, removed, relations):
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
    counts = Counter(name_terms)
    other_counts = Counter(other_terms)
    return all(i < head for i, term in enumerate(name_terms) if counts[term] > other_counts[term])


def _semantics(
    d: _RenameDiff,
    form: FormCategory,
    relations: dict,
    old_tags: tuple[PosTag, ...],
    new_tags: tuple[PosTag, ...],
) -> SemanticCategory:
    if form in (_FORMATTING, _REORDERING):
        return _PRESERVE
    # any other form has added or removed terms
    if not d.removed:
        if _changed_before_head(d.new_terms, new_tags, d.old_terms):
            return _NARROW
        return _ADD
    if not d.added:
        if _changed_before_head(d.old_terms, old_tags, d.new_terms):
            return _BROADEN
        return _REMOVE
    if _preserving_swap(list(d.added.elements()), list(d.removed.elements()), relations):
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
    return _form(_diff(event))


def term_pairs(event: RenameEvent) -> list[tuple[str, str]]:
    """Cross product of added x removed normalized terms.

    Pairs are ordered by the added term's position in the new name, then
    the removed term's position in the old name.
    """
    return _pairs(_diff(event))


def classify_semantics(
    event: RenameEvent,
    provider: WordRelationProvider | None = None,
    lexicon: Lexicon | None = None,
) -> SemanticCategory:
    """Meaning-level class of a rename."""
    if provider is None:
        provider = CuratedRelationProvider.default()
    d = _diff(event)
    return _semantics(d, _form(d), _relations(d, provider),
                      _tags(d.old, lexicon), _tags(d.new, lexicon))


def classify(
    event: RenameEvent,
    provider: WordRelationProvider | None = None,
    lexicon: Lexicon | None = None,
) -> RenameClassification:
    """Full classification record for a rename event.

    Both names are split and tagged once and every distinct (added,
    removed) term relation is computed once; form, semantics, pairs and
    the two grammar patterns share them.
    """
    if provider is None:
        provider = CuratedRelationProvider.default()
    d = _diff(event)
    form = _form(d)
    relations = _relations(d, provider)
    pairs = tuple((a, r, relations[a, r]) for a, r in _pairs(d))
    old_tags = _tags(d.old, lexicon)
    # tags depend only on the normalized terms, so a reformatted name shares them
    new_tags = old_tags if d.new_terms == d.old_terms else _tags(d.new, lexicon)
    return RenameClassification(
        event, form, _semantics(d, form, relations, old_tags, new_tags), pairs,
        GrammarPattern(old_tags) if old_tags else None,
        GrammarPattern(new_tags) if new_tags else None,
    )
