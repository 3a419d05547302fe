import gc
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from testlens import _data, rename
from testlens.rename import (
    FormCategory,
    RenameEvent,
    SemanticCategory,
    TermRelation,
    _collapse_phrases,
    _porter_once,
    _relations_from,
    _within_edits,
    classify,
    classify_form,
    classify_semantics,
    relate,
    stem,
    term_pairs,
)
from testlens.splitter import split
from testlens.tagger import inflected_match, tag

# Single-pass outputs of the classic suffix-stripping algorithm, frozen from
# the published vocabulary/output samples and cross-checked against an
# independent reference implementation of the same algorithm.
PORTER_VECTORS = {
    "caresses": "caress",
    "ponies": "poni",
    "ties": "ti",
    "caress": "caress",
    "cats": "cat",
    "feed": "feed",
    "agreed": "agre",
    "plastered": "plaster",
    "bled": "bled",
    "motoring": "motor",
    "sing": "sing",
    "conflated": "conflat",
    "troubled": "troubl",
    "sized": "size",
    "hopping": "hop",
    "tanned": "tan",
    "falling": "fall",
    "hissing": "hiss",
    "fizzed": "fizz",
    "failing": "fail",
    "filing": "file",
    "happy": "happi",
    "sky": "sky",
    "relational": "relat",
    "conditional": "condit",
    "rational": "ration",
    "valency": "valenc",
    "hesitancy": "hesit",
    "digitizer": "digit",
    "sensibility": "sensibl",
    "callousness": "callous",
    "formality": "formal",
    "sensitivity": "sensit",
    "triplicate": "triplic",
    "formative": "form",
    "formalize": "formal",
    "electricity": "electr",
    "electrical": "electr",
    "hopeful": "hope",
    "goodness": "good",
    "revival": "reviv",
    "allowance": "allow",
    "inference": "infer",
    "airliner": "airlin",
    "gyroscopic": "gyroscop",
    "adjustable": "adjust",
    "defensible": "defens",
    "irritant": "irrit",
    "replacement": "replac",
    "adjustment": "adjust",
    "dependent": "depend",
    "adoption": "adopt",
    "homologous": "homolog",
    "communism": "commun",
    "activate": "activ",
    "angularity": "angular",
    "effective": "effect",
    "bowdlerize": "bowdler",
    "probate": "probat",
    "controlling": "control",
    "rolling": "roll",
    "generalizations": "gener",
    "oscillators": "oscil",
}


class TestStem:
    def test_single_pass_matches_published_vectors(self):
        for word, want in PORTER_VECTORS.items():
            assert _porter_once(word) == want, word

    def test_same_stem_example(self):
        assert stem("uploader") == "upload"

    def test_fixpoint(self):
        assert stem("upload") == "upload"

    def test_plural(self):
        assert stem("jobs") == "job"

    def test_lowercases(self):
        assert stem("Uploader") == "upload"

    def test_short_words_unchanged(self):
        assert stem("go") == "go"
        assert stem("a") == "a"

    def test_digits_rejected(self):
        with pytest.raises(ValueError):
            stem("abc1")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            stem("")

    def test_iterates_where_one_pass_is_not_idempotent(self):
        assert _porter_once("cause") == "caus"
        assert _porter_once("caus") == "cau"
        assert stem("cause") == "cau"
        assert stem(stem("cause")) == stem("cause")

    @given(st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=14))
    def test_idempotent(self, word):
        assert stem(stem(word)) == stem(word)


def edit_distance(a: str, b: str) -> int:
    """Reference Levenshtein distance (unit costs), full table."""
    if len(a) < len(b):
        a, b = b, a
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        cur = [i]
        for j, cb in enumerate(b, start=1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


class TestEditDistance:
    def test_identity(self):
        assert edit_distance("abc", "abc") == 0

    def test_single_insert(self):
        assert edit_distance("inkvoked", "invoked") == 1

    def test_substitution(self):
        assert edit_distance("string", "strong") == 1

    @given(st.text(max_size=8), st.text(max_size=8))
    def test_symmetric(self, a, b):
        assert edit_distance(a, b) == edit_distance(b, a)

    @given(st.text(alphabet="abcde", max_size=9), st.text(alphabet="abcde", max_size=9),
           st.integers(min_value=0, max_value=3))
    @settings(max_examples=500)
    def test_bounded_check_equals_distance_at_most_two(self, a, b, k):
        assert _within_edits(a, b, 2) == (edit_distance(a, b) <= 2)
        assert _within_edits(a, b, k) == (edit_distance(a, b) <= k)


class TestRelate:
    @pytest.mark.parametrize("removed,added,want", [
        ("cube", "box", TermRelation.SYNONYM),
        ("generic", "specific", TermRelation.ANTONYM),
        ("list", "collection", TermRelation.GENERALIZATION),
        ("test", "validate", TermRelation.SPECIALIZATION),
        ("uploader", "upload", TermRelation.SAME_STEM),
        ("job", "jobs", TermRelation.PLURALITY_CHANGE),
        ("inkvoked", "invoked", TermRelation.SPELLING_FIX),
        ("log", "eigen", TermRelation.UNRELATED),
        ("has", "contains", TermRelation.SYNONYM),
        ("order", "ordered", TermRelation.TENSE_CHANGE),
        ("all of", "at least", TermRelation.SYNONYM),
    ])
    def test_fixtures(self, removed, added, want):
        assert relate(removed, added) is want

    def test_dictionary_words_never_spelling_fixes(self):
        # edit distance 1 but both are words
        assert relate("string", "strong") is TermRelation.UNRELATED

    def test_digit_terms_rejected(self):
        with pytest.raises(ValueError):
            relate("a1", "b")

    def test_synonym_symmetry_fixture(self):
        assert relate("box", "cube") is TermRelation.SYNONYM

    def test_spec_gen_inverse_fixture(self):
        assert relate("collection", "list") is TermRelation.SPECIALIZATION
        assert relate("validate", "test") is TermRelation.GENERALIZATION


provider_vocab = ["cube", "box", "generic", "specific", "list", "collection",
                  "test", "validate", "accept", "reject", "has", "contains",
                  "can", "should", "map", "set", "array", "verify", "upload",
                  "uploader", "job", "jobs", "open", "close", "log", "eigen"]


class TestRelateProperties:
    @given(st.sampled_from(provider_vocab), st.sampled_from(provider_vocab))
    def test_synonym_symmetry(self, a, b):
        if a == b:
            return
        left = relate(a, b)
        right = relate(b, a)
        assert (left is TermRelation.SYNONYM) == (right is TermRelation.SYNONYM)

    @given(st.sampled_from(provider_vocab), st.sampled_from(provider_vocab))
    def test_specialization_generalization_inverse(self, a, b):
        if a == b:
            return
        assert (relate(a, b) is TermRelation.SPECIALIZATION) == (
            relate(b, a) is TermRelation.GENERALIZATION
        )


def _term_diff(old: str, new: str) -> tuple[Counter, Counter]:
    """Reference multiset difference over normalized, phrase-collapsed
    terms: (added, removed)."""
    old_counts = Counter(_collapse_phrases(split(old).normalized()))
    new_counts = Counter(_collapse_phrases(split(new).normalized()))
    return new_counts - old_counts, old_counts - new_counts


class TestDiffTerms:
    """The term diff of a rename, as ``classify`` reports it."""

    def test_paper_example(self):
        c = classify(RenameEvent("getEmployeeName", "testEmployeeLastName"))
        # preserved terms (employee, name) pair with nothing
        assert [(a, r) for a, r, _ in c.pairs] == [("test", "get"), ("last", "get")]
        assert c.form is FormCategory.COMPLEX

    def test_pure_removal(self):
        c = classify(RenameEvent("findAllWithGivenIds", "findAllWithIds"))
        # one term removed, none added: no pairs; "given" sat before the kept head noun
        assert c.pairs == ()
        assert (c.form, c.semantics) == (FormCategory.SIMPLE, SemanticCategory.BROADEN)

    def test_no_op(self):
        c = classify(RenameEvent("abc", "ABC"))
        assert c.pairs == ()
        assert (c.form, c.semantics) == (FormCategory.FORMATTING, SemanticCategory.PRESERVE)

    def test_phrases_collapse_before_diffing(self):
        event = RenameEvent("checkAllOfItems", "checkAtLeastItems")
        assert term_pairs(event) == [("at least", "all of")]
        assert classify(event).form is FormCategory.SIMPLE

    def test_repeated_term_adds_its_first_occurrence(self):
        # "value" is kept once; the added one is its first, before "check"
        assert term_pairs(RenameEvent("getValue", "valueCheckValue")) == [
            ("value", "get"), ("check", "get")]

    @pytest.mark.parametrize("old,new,want", [
        # every occurrence of the added term counts, the kept one too: in
        # testItemItem one "item" is the head noun, so the term is not all before it
        ("testItem", "testItemItem", SemanticCategory.ADD),
        ("testCacheParser", "testCacheCacheParser", SemanticCategory.NARROW),
    ])
    def test_every_occurrence_of_a_repeated_term_counts(self, old, new, want):
        assert classify_semantics(RenameEvent(old, new)) is want


def _collapse_by_scan(terms: list[str]) -> list[str]:
    """Reference: at each position try every known phrase, longest first."""
    phrases = sorted((tuple(p.split()) for p in _data.relations_dict()["phrases"]),
                     key=len, reverse=True)
    out: list[str] = []
    i = 0
    while i < len(terms):
        for phrase in phrases:
            if tuple(terms[i : i + len(phrase)]) == phrase:
                out.append(" ".join(phrase))
                i += len(phrase)
                break
        else:
            out.append(terms[i])
            i += 1
    return out


_PHRASE_WORDS = sorted({w for p in _data.relations_dict()["phrases"] for w in p.split()})


class TestCollapsePhrases:
    def test_collapses(self):
        assert _collapse_phrases(["all", "of", "items"]) == ["all of", "items"]

    def test_leaves_plain_terms(self):
        assert _collapse_phrases(["all", "items"]) == ["all", "items"]

    @given(st.lists(st.sampled_from(_PHRASE_WORDS)
                    | st.deferred(lambda: st.sampled_from(_lexicon_words())), max_size=10))
    @settings(max_examples=500)
    def test_agrees_with_longest_first_scan(self, terms):
        assert _collapse_phrases(terms) == _collapse_by_scan(terms)


class TestClassifyForm:
    @pytest.mark.parametrize("old,new,want", [
        ("test_13", "test13", FormCategory.FORMATTING),
        ("test15_6_5", "test16_9_5", FormCategory.FORMATTING),
        ("fooBar", "FOO_BAR", FormCategory.FORMATTING),
        ("fooBar", "barFoo", FormCategory.REORDERING),
        ("testStringEncryption", "testStrongEncryption", FormCategory.SIMPLE),
        ("testPinnedExternals", "pinnedExternals", FormCategory.SIMPLE),
        ("testLog", "testEigenSingularValues", FormCategory.COMPLEX),
        ("getEmployeeName", "testEmployeeLastName", FormCategory.COMPLEX),
    ])
    def test_fixtures(self, old, new, want):
        assert classify_form(RenameEvent(old, new)) is want

    def test_total_over_random_pairs(self):
        for old, new in [("a", "b"), ("aB", "a_b"), ("x1", "x2")]:
            assert classify_form(RenameEvent(old, new)) in FormCategory


class TestClassifySemantics:
    @pytest.mark.parametrize("old,new,want", [
        ("test_13", "test13", SemanticCategory.PRESERVE),
        ("testPinnedExternals", "pinnedExternals", SemanticCategory.BROADEN),
        ("shouldAcceptRaxProtocols", "shouldRejectRaxProtocols", SemanticCategory.CHANGE),
        ("testStringEncryption", "testStrongEncryption", SemanticCategory.CHANGE),
        ("testLog", "testEigenSingularValues", SemanticCategory.CHANGE),
        ("testHasItem", "testContainsItem", SemanticCategory.PRESERVE),
        ("testPredictions", "validatePredictions", SemanticCategory.NARROW),
        ("listContains", "collectionContains", SemanticCategory.BROADEN),
        ("testEncryption", "testStringEncryption", SemanticCategory.NARROW),
        ("testFoo", "testFooMonday", SemanticCategory.ADD),
        ("testStringEncryption", "stringEncryption", SemanticCategory.BROADEN),
        ("testFooMonday", "testFoo", SemanticCategory.REMOVE),
    ])
    def test_fixtures(self, old, new, want):
        assert classify_semantics(RenameEvent(old, new)) is want


class TestTermPairs:
    def test_paper_example(self):
        pairs = term_pairs(RenameEvent("getEmployeeName", "testEmployeeLastName"))
        assert pairs == [("test", "get"), ("last", "get")]

    def test_case_change_has_no_pairs(self):
        assert term_pairs(RenameEvent("abc", "ABC")) == []

    def test_single_swap(self):
        assert term_pairs(RenameEvent("testHasItem", "testContainsItem")) == [
            ("contains", "has"),
        ]

    def test_phrase_pair(self):
        assert term_pairs(RenameEvent("checkAllOfItems", "checkAtLeastItems")) == [
            ("at least", "all of"),
        ]


class TestClassify:
    def test_antonym_pair_exposed(self):
        c = classify(RenameEvent("shouldAcceptRaxProtocols", "shouldRejectRaxProtocols"))
        assert c.form is FormCategory.SIMPLE
        assert c.semantics is SemanticCategory.CHANGE
        assert c.pairs == (("reject", "accept", TermRelation.ANTONYM),)

    def test_digit_pairs_marked_unrelated(self):
        c = classify(RenameEvent("test15_6_5", "test16_9_5"))
        assert all(rel is TermRelation.UNRELATED for _, _, rel in c.pairs)

    def test_pair_count_invariant(self):
        c = classify(RenameEvent("testLog", "testEigenSingularValues"))
        assert len(c.pairs) == 3 * 1

    def test_identical_names_rejected(self):
        with pytest.raises(ValueError):
            RenameEvent("same", "same")

    def test_leaves_no_reference_cycles(self):
        # a cycle per event is garbage that piles up until the collector runs
        events = [RenameEvent("testHasItem", "testContainsItem"),
                  RenameEvent("shouldAcceptRaxProtocols", "shouldRejectRaxProtocols"),
                  RenameEvent("testStringEncryption", "testStrongEncryption")]
        for event in events:
            classify(event)  # fill caches
        gc.collect()
        gc.disable()
        try:
            for event in events:
                classify(event)
            assert gc.collect() == 0
        finally:
            gc.enable()


words = st.sampled_from([
    "test", "get", "set", "check", "value", "item", "user", "list", "all",
    "not", "file", "load", "save", "name", "count", "order", "key", "map",
])
digit_runs = st.integers(min_value=0, max_value=99).map(str)


def _camel(parts: list[str]) -> str:
    if not parts:
        return "x"
    head, *tail = parts
    return head + "".join(p.capitalize() if not p.isdigit() else p for p in tail)


name_parts = st.lists(words | digit_runs, min_size=1, max_size=6)
# few words, one phrase among them, so that terms repeat
repeating_parts = st.lists(st.sampled_from(["get", "value", "check", "all", "of"]),
                           min_size=1, max_size=6)


def _first_occurrences(terms: list[str], extra: Counter) -> list[str]:
    """Of each term of ``extra``, its first ``extra[term]`` occurrences in
    ``terms``, in name order."""
    positions = sorted(i for term, n in extra.items()
                       for i in [j for j, t in enumerate(terms) if t == term][:n])
    return [terms[i] for i in positions]


class TestClassificationProperties:
    @given(name_parts, name_parts)
    @settings(max_examples=300)
    def test_pair_count_is_product_of_diff_sizes(self, old_parts, new_parts):
        old, new = _camel(old_parts), _camel(new_parts)
        if old == new:
            return
        added, removed = _term_diff(old, new)
        pairs = term_pairs(RenameEvent(old, new))
        assert len(pairs) == sum(added.values()) * sum(removed.values())
        assert set(pairs) == {(a, r) for a in added for r in removed}

    @given(repeating_parts, repeating_parts)
    @settings(max_examples=300)
    def test_pairs_are_the_counter_diff_in_name_order(self, old_parts, new_parts):
        old, new = _camel(old_parts), _camel(new_parts)
        if old == new:
            return
        added, removed = _term_diff(old, new)
        added_terms = _first_occurrences(_collapse_phrases(split(new).normalized()), added)
        removed_terms = _first_occurrences(_collapse_phrases(split(old).normalized()), removed)
        assert term_pairs(RenameEvent(old, new)) == [
            (a, r) for a in added_terms for r in removed_terms]

    @given(name_parts, name_parts)
    @settings(max_examples=200)
    def test_form_is_total_and_single_valued(self, old_parts, new_parts):
        old, new = _camel(old_parts), _camel(new_parts)
        if old == new:
            return
        assert classify_form(RenameEvent(old, new)) in FormCategory

    @given(
        st.lists(words, min_size=1, max_size=4, unique=True),
        st.sampled_from(["snake", "upper_snake", "camel", "pascal"]),
        st.sampled_from(["snake", "upper_snake", "camel", "pascal"]),
        st.integers(min_value=0, max_value=99),
        st.booleans(),
    )
    @settings(max_examples=300)
    def test_formatting_only_changes_preserve_meaning(
        self, parts, style_old, style_new, digits, add_digits
    ):
        def render(style: str) -> str:
            if style == "snake":
                return "_".join(parts)
            if style == "upper_snake":
                return "_".join(p.upper() for p in parts)
            if style == "pascal":
                return "".join(p.capitalize() for p in parts)
            return parts[0] + "".join(p.capitalize() for p in parts[1:])

        old = render(style_old)
        new = render(style_new)
        if add_digits:
            new = f"{new}_{digits}"
        if old == new:
            return
        event = RenameEvent(old, new)
        assert classify_form(event) is FormCategory.FORMATTING
        assert classify_semantics(event) is SemanticCategory.PRESERVE


def _ancestors(word: str, hypernyms: dict) -> set[str]:
    seen: set[str] = set()
    frontier = [word]
    while frontier:
        for hyper in hypernyms.get(frontier.pop(), ()):
            if hyper not in seen:
                seen.add(hyper)
                frontier.append(hyper)
    return seen


def _cascade_relation(removed: str, added: str, data: dict) -> TermRelation:
    """Reference: the relations of ``data`` looked up per call, synonyms and
    antonyms either way round, hypernyms walked transitively."""
    for key, relation in (("synonyms", TermRelation.SYNONYM),
                          ("antonyms", TermRelation.ANTONYM)):
        if [removed, added] in data[key] or [added, removed] in data[key]:
            return relation
    if removed in _ancestors(added, data["hypernyms"]):
        return TermRelation.SPECIALIZATION
    if added in _ancestors(removed, data["hypernyms"]):
        return TermRelation.GENERALIZATION
    return TermRelation.UNRELATED


def _relation_words(data: dict) -> set[str]:
    """Every word and phrase ``data`` relates."""
    words = {w for key in ("synonyms", "antonyms") for pair in data[key] for w in pair}
    words.update(data["hypernyms"])
    words.update(h for hypers in data["hypernyms"].values() for h in hypers)
    return words


_BUNDLED = _data.relations_dict()
_DICTIONARY = _data.common_words() | {w for w in _relation_words(_BUNDLED) if " " not in w}


def _cascade_relate(removed: str, added: str) -> TermRelation:
    """Reference: ``relate`` as a cascade over the bundled relations."""
    removed, added = removed.lower(), added.lower()
    if " " not in removed and " " not in added:
        inflections = ("s", "es", "ed", "d", "ing", "er")
        if _within_edits(removed, added, 2) and (
                inflected_match(removed, _DICTIONARY, inflections)
                != inflected_match(added, _DICTIONARY, inflections)):
            return TermRelation.SPELLING_FIX
        if stem(removed) == stem(added):
            if added == removed + "s" or removed == added + "s":
                return TermRelation.PLURALITY_CHANGE
            if added in (removed + "ed", removed + "d") or removed in (added + "ed", added + "d"):
                return TermRelation.TENSE_CHANGE
            return TermRelation.SAME_STEM
    return _cascade_relation(removed, added, _BUNDLED)


_TABLE_WORDS = ["a", "b", "c", "d", "e"]
word_pairs = st.lists(st.lists(st.sampled_from(_TABLE_WORDS), min_size=2, max_size=2),
                      max_size=4)
relation_data = st.fixed_dictionaries({
    "synonyms": word_pairs,
    "antonyms": word_pairs,
    "hypernyms": st.dictionaries(st.sampled_from(_TABLE_WORDS),
                                 st.lists(st.sampled_from(_TABLE_WORDS), max_size=2), max_size=4),
    "phrases": st.just([]),
})


class TestRelationTable:
    def test_dictionary_checks_inflections(self):
        # "invoked" and "uploads" are inflected dictionary words, "inkvoked" is none
        assert relate("inkvoked", "invoked") is TermRelation.SPELLING_FIX
        assert relate("uploads", "inkvoked") is TermRelation.UNRELATED
        assert relate("upluads", "uploads") is TermRelation.SPELLING_FIX

    def test_symmetric_storage(self):
        data = {"synonyms": [["a", "b"]], "antonyms": [], "hypernyms": {}, "phrases": []}
        pairs, _, _ = _relations_from(data, frozenset())
        assert pairs == {("a", "b"): TermRelation.SYNONYM, ("b", "a"): TermRelation.SYNONYM}

    def test_transitive_hypernyms(self):
        data = {"synonyms": [], "antonyms": [], "phrases": [],
                "hypernyms": {"beagle": ["dog"], "dog": ["animal"]}}
        pairs, words, _ = _relations_from(data, frozenset({"cat"}))
        assert pairs[("animal", "beagle")] is TermRelation.SPECIALIZATION
        assert pairs[("beagle", "animal")] is TermRelation.GENERALIZATION
        assert pairs[("dog", "beagle")] is TermRelation.SPECIALIZATION
        assert words == {"animal", "beagle", "cat", "dog"}

    @given(relation_data)
    @settings(max_examples=300)
    def test_table_equals_cascade(self, data):
        pairs, _, _ = _relations_from(data, frozenset())
        for removed in _TABLE_WORDS:
            for added in _TABLE_WORDS:
                assert pairs.get((removed, added), TermRelation.UNRELATED) \
                    is _cascade_relation(removed, added, data)

    def test_relate_equals_cascade_on_every_vocabulary_pair(self):
        outside = ["upload", "uploader", "uploads", "job", "jobs", "invoked", "inkvoked",
                   "lists", "collections", "Box", "verifyed", "eigen"]
        vocabulary = sorted(_relation_words(_BUNDLED)) + outside
        for removed in vocabulary:
            for added in vocabulary:
                assert relate(removed, added) is _cascade_relate(removed, added), \
                    (removed, added)


class TestEachNameAnalyzedOnce:
    EVENTS = [
        ("testGetValue", "test_get_value"),                  # formatting
        ("testValueGet", "testGetValue"),                    # reordering
        ("testValue", "testDefaultValue"),                   # narrow
        ("testDefaultValue", "testValue"),                   # broaden
        ("testFoo", "testFooMonday"),                        # add
        ("testFooMonday", "testFoo"),                        # remove
        ("listContains", "collectionContains"),              # generalization
        ("shouldAcceptRaxProtocols", "shouldRejectRaxProtocols"),  # change
        ("testJob", "testJobs"),                             # preserving swap
        ("testAllOfItems", "testAtLeastItems"),              # phrase pair
        ("test15_6_5", "test16_9_5"),                        # digit pairs
    ]

    def test_classify_splits_each_name_once(self, monkeypatch):
        calls = []

        def counting_split(name):
            calls.append(name)
            return split(name)

        monkeypatch.setattr(rename, "_split_valid", counting_split)
        for old, new in self.EVENTS:
            calls.clear()
            classify(RenameEvent(old, new))
            assert sorted(calls) == sorted([old, new])

    def test_classify_tags_each_name_once(self, monkeypatch):
        calls = []

        def counting_tag(terms, lexicon=None):
            calls.append(terms.raw)
            return tag(terms, lexicon)

        monkeypatch.setattr(rename, "tag", counting_tag)
        for old, new in self.EVENTS:
            calls.clear()
            classify(RenameEvent(old, new))
            # a name with the other's normalized terms shares its tags
            same_terms = split(old).normalized() == split(new).normalized()
            assert sorted(calls) == ([old] if same_terms else sorted([old, new]))

    def test_name_without_terms_has_no_pattern(self):
        c = classify(RenameEvent("_", "testFoo"))
        assert c.old_pattern is None
        assert str(c.new_pattern) == "V N"
        assert c.semantics is SemanticCategory.ADD


def _reference_match_from(i: int, used: set[int], added: list[str], removed: list[str],
                          relations: dict) -> bool:
    """The recursive matcher ``_preserving_swap`` used, as the reference:
    ``removed[i:]`` each keep their meaning with a distinct added term
    outside ``used``, tried in every order, in time exponential in the
    number of terms."""
    if i == len(removed):
        return True
    for j, a in enumerate(added):
        if j not in used and relations[a, removed[i]] in rename._PRESERVING_RELATIONS:
            if _reference_match_from(i + 1, used | {j}, added, removed, relations):
                return True
    return False


def reference_preserving_swap(added: list[str], removed: list[str], relations: dict) -> bool:
    if len(added) != len(removed):
        return False
    return _reference_match_from(0, set(), added, removed, relations)


@st.composite
def swap_cases(draw):
    """Added and removed term lists over a small pool, so terms repeat,
    mostly of one length, and a relation for each distinct term pair."""
    n = draw(st.integers(0, 9))
    removed = draw(st.lists(st.sampled_from("abcde"), min_size=n, max_size=n))
    m = draw(st.one_of(st.just(n), st.integers(0, 9)))
    added = draw(st.lists(st.sampled_from("vwxyz"), min_size=m, max_size=m))
    relations = {(a, r): draw(st.sampled_from(TermRelation)) for a in added for r in removed}
    return added, removed, relations


class CountingRelations(dict):
    """A relation table that counts the lookups of its entries."""

    lookups = 0

    def __getitem__(self, key):
        self.lookups += 1
        return super().__getitem__(key)


class TestPreservingSwap:
    @given(swap_cases())
    @settings(max_examples=500, deadline=None)
    def test_matches_the_recursive_reference(self, case):
        added, removed, relations = case
        assert rename._preserving_swap(added, removed, relations) is \
            reference_preserving_swap(added, removed, relations)

    def test_each_term_pair_is_looked_up_at_most_once(self):
        # every pair keeps its meaning but the last removed term matches
        # nothing: the recursive matcher tried every order of the others
        added, removed = list("stuvwxyz"), list("abcdefgh")
        relations = CountingRelations(
            {(a, r): TermRelation.UNRELATED if r == "h" else TermRelation.SYNONYM
             for a in added for r in removed})
        assert rename._preserving_swap(added, removed, relations) is False
        assert relations.lookups <= len(added) * len(removed)

    def test_more_than_eight_terms_swap(self):
        added, removed = list("rstuvwxyz"), list("abcdefghi")
        relations = {(a, r): TermRelation.SYNONYM for a in added for r in removed}
        assert rename._preserving_swap(added[:8], removed[:8], relations) is True
        assert rename._preserving_swap(added, removed, relations) is True

    @pytest.mark.parametrize("old, new", [
        ("testItemUserTokenRoleGroupOrderCartPage", "testItemsUsersTokensRolesGroupsOrdersCartsPages"),
        ("testItemUserTokenRoleGroupOrderCartPageFile",
         "testItemsUsersTokensRolesGroupsOrdersCartsPagesFiles"),
    ], ids=["8 plurals", "9 plurals"])
    def test_plural_swaps_of_any_length_preserve(self, old, new):
        assert classify(RenameEvent(old, new)).semantics is SemanticCategory.PRESERVE


def _lexicon_words() -> list[str]:
    lexicon = _data.lexicon_dict()
    relations = _data.relations_dict()
    pool = {w for entries in lexicon.values() for w in entries}
    pool.update(w for phrase in relations["phrases"] for w in phrase.split())
    pool.update(relations["hypernyms"])
    return sorted(w for w in pool if w.isalpha() and w.isascii())


name_terms = st.lists(
    st.sampled_from(_lexicon_words()) | digit_runs, min_size=1, max_size=5
)


def _styled(terms: list[str], style: str) -> str:
    if style == "snake":
        return "_".join(terms)
    if style == "upper":
        return "_".join(t.upper() for t in terms)
    return terms[0] + "".join(t.capitalize() for t in terms[1:])


class TestClassifyAgreesWithParts:
    @given(name_terms, name_terms, st.sampled_from(["camel", "snake", "upper"]),
           st.sampled_from(["camel", "snake", "upper"]))
    @settings(max_examples=300, deadline=None)
    def test_classify_matches_public_parts(self, old_terms, new_terms, old_style, new_style):
        old, new = _styled(old_terms, old_style), _styled(new_terms, new_style)
        if old == new:
            return
        event = RenameEvent(old, new)
        c = classify(event)
        assert c.form is classify_form(event)
        assert c.semantics is classify_semantics(event)
        assert [(a, r) for a, r, _ in c.pairs] == term_pairs(event)
        assert str(c.old_pattern) == tag(split(old)).pattern_string()
        assert str(c.new_pattern) == tag(split(new)).pattern_string()
        for a, r, relation in c.pairs:
            if any(ch.isdigit() for ch in a + r):
                assert relation is TermRelation.UNRELATED
            else:
                assert relation is relate(r, a)


_MIRRORED_SEMANTICS = {
    SemanticCategory.NARROW: SemanticCategory.BROADEN,
    SemanticCategory.BROADEN: SemanticCategory.NARROW,
    SemanticCategory.ADD: SemanticCategory.REMOVE,
    SemanticCategory.REMOVE: SemanticCategory.ADD,
    SemanticCategory.PRESERVE: SemanticCategory.PRESERVE,
    SemanticCategory.CHANGE: SemanticCategory.CHANGE,
}
_MIRRORED_RELATION = {
    TermRelation.SPECIALIZATION: TermRelation.GENERALIZATION,
    TermRelation.GENERALIZATION: TermRelation.SPECIALIZATION,
}


class TestRenameMirror:
    @given(name_terms, name_terms, st.sampled_from(["camel", "snake", "upper"]),
           st.sampled_from(["camel", "snake", "upper"]))
    @settings(max_examples=300, deadline=None)
    def test_reversed_event_mirrors_classification(self, old_terms, new_terms, old_style, new_style):
        old, new = _styled(old_terms, old_style), _styled(new_terms, new_style)
        if old == new:
            return
        forward = classify(RenameEvent(old, new))
        backward = classify(RenameEvent(new, old))
        assert backward.form is forward.form
        assert (backward.old_pattern, backward.new_pattern) == (
            forward.new_pattern, forward.old_pattern)
        assert backward.semantics is _MIRRORED_SEMANTICS[forward.semantics]
        assert Counter(backward.pairs) == Counter(
            (r, a, _MIRRORED_RELATION.get(relation, relation)) for a, r, relation in forward.pairs
        )
