import pytest
from hypothesis import assume, given, settings, strategies as st

from testlens import _data
from testlens.rename import CuratedRelationProvider
from testlens.splitter import TermSequence, split
from testlens.tagger import Lexicon, PosTag, TaggedName, inflected_match, noun_run_rewrite, tag

N = PosTag.NOUN
NM = PosTag.NOUN_MODIFIER
NPL = PosTag.NOUN_PLURAL
V = PosTag.VERB
VM = PosTag.VERB_MODIFIER
P = PosTag.PREPOSITION
DT = PosTag.DETERMINER


def pattern(name: str) -> str:
    return tag(split(name)).pattern_string()


class TestTagFixtures:
    """Tagged patterns for every annotated fixture name."""

    def test_verb_phrase_with_modifier(self):
        assert pattern("testStringEncryption") == "V NM N"

    def test_plain_verb_phrase(self):
        assert pattern("testParser") == "V N"

    def test_fixture_method_is_bare_verb(self):
        assert pattern("setup") == "V"

    def test_main_is_noun(self):
        assert pattern("main") == "N"

    def test_noun_then_verb(self):
        assert pattern("projectClosed") == "N V"

    def test_preposition_phrase(self):
        assert pattern("testReadFileFromClasspath") == "V V N P N"

    def test_unknown_term_defaults_to_noun(self):
        assert pattern("frobnicate") == "N"

    def test_dual_verb_prefix(self):
        assert pattern("testGetActions").startswith("V V")

    def test_find_resource_prefix(self):
        assert pattern("testFindResourceByName").startswith("V V N")

    def test_form_upload_prefix(self):
        assert pattern("testFormUploadLargerFile").startswith("V N V")

    def test_uid_fetch_prefix(self):
        assert pattern("testUidFetchBodyPeek").startswith("V N V N")

    def test_not_is_adverb(self):
        tagged = tag(split("test_get_NotExisting"))
        by_term = dict(zip(tagged.terms.normalized(), tagged.tags))
        assert by_term["not"] is VM

    def test_all_is_determiner(self):
        tagged = tag(split("findAllWithGivenIds"))
        by_term = dict(zip(tagged.terms.normalized(), tagged.tags))
        assert by_term["all"] is DT

    def test_multi_modifier_noun_phrase(self):
        assert pattern("testEmployeeLastName") == "V NM NM N"

    def test_digits_tagged_d(self):
        assert pattern("test15_6_5") == "V D D D"

    def test_plural_head(self):
        assert pattern("testGetActions") == "V V NPL"

    def test_past_participle_verb(self):
        # verb recognized through its -ed form
        assert pattern("isOrderedFailure") == "V V N"


class TestNounRunRewrite:
    def test_run_of_three(self):
        assert noun_run_rewrite([V, N, N, N]) == [V, NM, NM, N]

    def test_run_of_one_untouched(self):
        assert noun_run_rewrite([V, N]) == [V, N]

    def test_runs_broken_by_preposition(self):
        assert noun_run_rewrite([N, P, N]) == [N, P, N]

    def test_plural_run(self):
        assert noun_run_rewrite([N, NPL]) == [NM, NPL]
        assert noun_run_rewrite([NPL, N]) == [NM, N]

    def test_does_not_mutate_input(self):
        tags = [V, N, N]
        noun_run_rewrite(tags)
        assert tags == [V, N, N]


class TestLexicon:
    def test_default_loads(self):
        lex = Lexicon.default()
        assert "from" in lex.prepositions
        assert "all" in lex.determiners
        assert "not" in lex.adverbs

    def test_closed_class_overlap_rejected(self):
        with pytest.raises(ValueError):
            Lexicon.from_dict({
                "prepositions": ["of", "the"],
                "determiners": ["the", "no", "all"],
                "conjunctions": [],
                "pronouns": [],
                "adverbs": ["not", "when", "exactly"],
                "verbs": [],
                "known_nouns": [],
            })

    def test_required_seed_words(self):
        with pytest.raises(ValueError):
            Lexicon.from_dict({
                "prepositions": [],
                "determiners": ["the", "no", "all"],
                "conjunctions": [],
                "pronouns": [],
                "adverbs": ["not"],  # missing when/exactly
                "verbs": [],
                "known_nouns": [],
            })

    def test_uppercase_entries_rejected(self):
        with pytest.raises(ValueError):
            Lexicon.from_dict({
                "prepositions": ["Of"],
                "determiners": ["the", "no", "all"],
                "conjunctions": [],
                "pronouns": [],
                "adverbs": ["not", "when", "exactly"],
                "verbs": [],
                "known_nouns": [],
            })

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError):
            Lexicon.from_dict({"bogus": []})

    @pytest.mark.parametrize("data", [["verbs"], "verbs", None])
    def test_lexicon_must_be_an_object(self, data):
        with pytest.raises(ValueError, match="a lexicon must be a JSON object of word lists"):
            Lexicon.from_dict(data)

    @pytest.mark.parametrize("words", ["test", ["test", 7], {"test": 1}, None])
    def test_field_must_be_list_of_strings(self, words):
        # a string used to become its set of letters: {"e", "s", "t"}
        with pytest.raises(ValueError, match="lexicon key 'verbs' must be a list of strings"):
            Lexicon.from_dict({**_data.lexicon_dict(), "verbs": words})

    def test_verb_noun_ambiguity_is_positional(self):
        lex = Lexicon.default()
        # "set" is both; verb up front, noun after a determiner
        assert tag(split("setValue"), lex).tags[0] is V
        assert tag(split("checkAllSets"), lex).pattern_string() == "V DT NPL"


identifiers = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_",
    min_size=1,
    max_size=20,
).filter(lambda s: s.strip("_0123456789"))


class TestTagProperties:
    @given(identifiers)
    def test_length_preserved(self, name):
        tagged = tag(split(name))
        assert len(tagged.tags) == len(tagged.terms.terms)

    @given(identifiers)
    def test_digit_terms_carry_d(self, name):
        tagged = tag(split(name))
        for term, t in zip(tagged.terms.terms, tagged.tags):
            assert term.surface.isdigit() == (t is PosTag.DIGIT)

    @given(identifiers)
    def test_no_two_consecutive_nounish_tags(self, name):
        tags = tag(split(name)).tags
        nounish = (N, NPL)
        for a, b in zip(tags, tags[1:]):
            assert not (a in nounish and b in nounish)

    @given(identifiers)
    def test_determinism(self, name):
        assert tag(split(name)).tags == tag(split(name)).tags

    @given(identifiers)
    def test_closed_class_dominance(self, name):
        lex = Lexicon.default()
        tagged = tag(split(name), lex)
        for term, t in zip(tagged.terms.normalized(), tagged.tags):
            if term in lex.prepositions:
                assert t is P
            elif term in lex.determiners:
                assert t is DT
            elif term in lex.pronouns:
                assert t is PosTag.PRONOUN
            elif term in lex.conjunctions:
                assert t is PosTag.CONJUNCTION

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError):
            tag(split("_"))

    def test_tagged_name_validates_lengths(self):
        seq = split("testFoo")
        with pytest.raises(ValueError):
            TaggedName(seq, (V,))


# ---------------------------------------------------------------------------
# Reference tagger: the per-term rule cascade, trying every suffix


def reference_inflected_match(word: str, words, suffixes: tuple[str, ...]) -> bool:
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


def _reference_tag_term(word: str, index: int, prior: list[PosTag], lexicon: Lexicon) -> PosTag:
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
    if reference_inflected_match(word, lexicon.verbs, ("s", "es", "ed", "d", "ing")):
        after_p_dt = index > 0 and prior[index - 1] in (PosTag.PREPOSITION, PosTag.DETERMINER)
        if not (after_p_dt
                and reference_inflected_match(word, lexicon.known_nouns, ("s", "es"))):
            return PosTag.VERB
    if len(word) >= 3 and word.endswith("s") and not word.endswith(("ss", "us", "is")):
        return PosTag.NOUN_PLURAL
    return PosTag.NOUN


def _reference_noun_runs(tags: list[PosTag]) -> list[PosTag]:
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


def reference_tags(terms: TermSequence, lexicon: Lexicon) -> tuple[PosTag, ...]:
    raw: list[PosTag] = []
    for i, term in enumerate(terms.terms):
        raw.append(_reference_tag_term(term.surface.lower(), i, raw, lexicon))
    return tuple(_reference_noun_runs(raw))


_BUNDLED = _data.lexicon_dict()
# words in an adverb list and in one closed class each: the closed class wins
_SHARED = {"pronouns": "zork", "prepositions": "blip", "determiners": "quux",
           "conjunctions": "frob"}
ADVERB_ALSO_PRONOUN = Lexicon.from_dict({
    **_BUNDLED,
    **{field: _BUNDLED[field] + [word] for field, word in _SHARED.items()},
    "adverbs": _BUNDLED["adverbs"] + list(_SHARED.values()),
    "verbs": _BUNDLED["verbs"] + list(_SHARED.values()),
})
# closed classes may not overlap in a checked lexicon; ``_make`` skips the
# check, so this one pins the precedence among them too: every two of the
# five lists share a word
_OVERLAPS = {"prepositions": {"plok", "mixa", "mixb", "mixc"},
             "determiners": {"plok", "mixa", "mixd", "mixe"},
             "conjunctions": {"plok", "mixb", "mixd", "mixf"},
             "pronouns": {"plok", "mixc", "mixe", "mixf"},
             "adverbs": {"plok", "mixa", "mixf"}}
OVERLAPPING = Lexicon._make(words | _OVERLAPS.get(field, set())
                            for field, words in zip(Lexicon._fields, ADVERB_ALSO_PRONOUN))

_LEXICON_WORDS = sorted({w for words in OVERLAPPING for w in words})
# the words whose tag depends on precedence, drawn as often as all the others
_SHARED_WORDS = sorted(set(_SHARED.values()).union(*_OVERLAPS.values()))


@st.composite
def inflected_words(draw):
    """A lexicon word, its last letter maybe doubled, with a suffix or none."""
    word = draw(st.sampled_from(_LEXICON_WORDS) | st.sampled_from(_SHARED_WORDS))
    if draw(st.booleans()):
        word += word[-1]
    return word + draw(st.sampled_from(["", "", "s", "es", "ed", "d", "ing", "er"]))


name_parts = st.one_of(
    inflected_words().map(str.capitalize),
    inflected_words(),
    inflected_words().map(str.upper),
    st.text("0123456789", min_size=1, max_size=3),
    st.just("_"),
)
lexicon_names = st.lists(name_parts, min_size=1, max_size=6).map("".join)


class TestTagEqualsReference:
    @pytest.mark.parametrize("lexicon", [Lexicon.default(), ADVERB_ALSO_PRONOUN, OVERLAPPING],
                             ids=["bundled", "adverb-also-pronoun", "overlapping"])
    @given(name=lexicon_names)
    @settings(max_examples=400)
    def test_tags_equal_reference_cascade(self, lexicon, name):
        seq = split(name)
        assume(seq.terms)
        assert tag(seq, lexicon).tags == reference_tags(seq, lexicon)

    def test_closed_class_precedence(self):
        cases = {"zork": PosTag.PRONOUN, "blip": PosTag.PREPOSITION, "quux": PosTag.DETERMINER,
                 "frob": PosTag.CONJUNCTION}
        for word, expected in cases.items():
            assert tag(split(word), ADVERB_ALSO_PRONOUN).tags == (expected,)
        assert tag(split("plok"), OVERLAPPING).tags == (PosTag.PREPOSITION,)
        assert tag(split("mixd"), OVERLAPPING).tags == (PosTag.DETERMINER,)
        assert tag(split("mixf"), OVERLAPPING).tags == (PosTag.CONJUNCTION,)

    @given(st.lists(st.sampled_from(list(PosTag)), max_size=8))
    def test_noun_run_rewrite_equals_reference(self, tags):
        assert noun_run_rewrite(tags) == _reference_noun_runs(tags)

    def test_default_lexicon_when_none_given(self):
        seq = split("testStoppedItemsForAllUsers")
        assert tag(seq).tags == tag(seq, Lexicon.default()).tags

    @given(word=inflected_words() | st.text("abcdes", max_size=6),
           suffixes=st.sampled_from([("s", "es", "ed", "d", "ing"), ("s", "es"),
                                     CuratedRelationProvider._INFLECTIONS, ("ing", "g"), ()]))
    @settings(max_examples=400)
    def test_inflected_match_equals_all_suffix_loop(self, word, suffixes):
        for words in (Lexicon.default().verbs, Lexicon.default().known_nouns):
            assert inflected_match(word, words, suffixes) == \
                reference_inflected_match(word, words, suffixes)
