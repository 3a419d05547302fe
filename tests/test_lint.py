from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from test_extraction_properties import TokenKind, _seconds_per_char, reference_kind
from testlens import extraction, rename
from testlens.extraction import SourceFile, extract_methods
from testlens.lint import DEFAULT_COLLECTION_VOCABULARY, Rule, cue_filter, default_rules, lint
from testlens.rename import stem
from testlens.splitter import split
from testlens.tagger import Lexicon, tag

RULES = default_rules()


def extract_one(method_source: str):
    src = SourceFile("Fixture.java", f"class Fixture {{\n{method_source}\n}}\n")
    methods = extract_methods(src)
    assert len(methods) == 1, methods
    return methods[0]


def run_lint(method_source: str, rules=RULES):
    method = extract_one(method_source)
    tagged = tag(split(method.name))
    return lint(method, tagged, rules, file="Fixture.java")


class TestR1Fail:
    def test_satisfied(self):
        diags = run_lint("""
            public void failPrefixMissing() {
                try { parse(); Assert.fail("expected"); } catch (Error e) {}
            }
        """)
        assert [d.rule_id for d in diags if d.rule_id == "R1"] == []

    def test_violated(self):
        diags = run_lint("""
            public void failPrefixMissing() {
                assertEquals(1, parse());
            }
        """)
        assert [d.rule_id for d in diags] == ["R1"]

    def test_not_applicable(self):
        diags = run_lint("""
            public void testParser() {
                assertEquals(1, parse());
            }
        """)
        assert diags == []

    def test_failure_form_triggers(self):
        diags = run_lint("""
            public void testFailureHandling() {
                assertEquals(1, parse());
            }
        """)
        assert [d.rule_id for d in diags] == ["R1"]


class TestR2Bool:
    def test_satisfied(self):
        diags = run_lint("""
            public void testUntilTrueDefinitionOnReducedPath() {
                assertTrue(path.reduced());
            }
        """)
        assert diags == []

    def test_violated_false_without_assert_false(self):
        diags = run_lint("""
            public void testReturnsFalseOnEmpty() {
                assertTrue(x.isEmpty());
            }
        """)
        assert [d.rule_id for d in diags] == ["R2"]

    def test_no_boolean_term(self):
        diags = run_lint("""
            public void testParser() { assertTrue(ok); }
        """)
        assert diags == []


class TestR3Not:
    def test_satisfied_assert_null(self):
        diags = run_lint("""
            public void test_get_NotExisting() {
                assertNull(repo.get("nope"));
            }
        """)
        assert diags == []

    def test_satisfied_assert_not_null(self):
        diags = run_lint("""
            public void deleteindexNotExists() {
                assertNotNull(index.status());
            }
        """)
        assert diags == []

    def test_violated(self):
        diags = run_lint("""
            public void test_get_NotExisting() {
                assertEquals(0, repo.size());
            }
        """)
        assert [d.rule_id for d in diags] == ["R3"]

    def test_boolean_asserts_allowed_when_configured(self):
        rules = default_rules(not_rule_boolean_asserts=True)
        diags = run_lint("""
            public void test_get_NotExisting() {
                assertFalse(repo.contains("nope"));
            }
        """, rules)
        assert diags == []


class TestR4Collection:
    def test_satisfied_list_declaration(self):
        diags = run_lint("""
            public void testExecuteAll() {
                List<Long> ids = runner.execute();
                assertEquals(3, ids.size());
            }
        """)
        assert diags == []

    def test_satisfied_array_brackets(self):
        diags = run_lint("""
            public void findAllWithGivenIds() {
                long[] ids = repo.find();
                assertEquals(2, ids.length);
            }
        """)
        assert diags == []

    def test_violated(self):
        diags = run_lint("""
            public void testExecuteAll() {
                assertEquals(3, runner.count());
            }
        """)
        assert [d.rule_id for d in diags] == ["R4"]

    def test_custom_vocabulary(self):
        rules = default_rules(collection_vocabulary=("Bag",))
        diags = run_lint("""
            public void testExecuteAll() {
                Bag items = runner.execute();
                check(items);
            }
        """, rules)
        assert diags == []

    def test_phrase_trigger(self):
        diags = run_lint("""
            public void checkAtLeastOneResult() {
                assertEquals(1, count);
            }
        """)
        assert [d.rule_id for d in diags] == ["R4"]

    def test_expectation_matches_the_token_kind_reference(self):
        # the reference reads each body token's kind, as R4 once did; the rule
        # keeps only the vocabulary entries that lex as words
        def reference(vocabulary, texts):
            return "[" in texts or any(reference_kind(t) is TokenKind.WORD
                                       for t in texts if t in vocabulary)

        vocabularies = [("",), ('"Bag"',), ("1List",), ("[",), ("Größe",), ("½x",),
                        ("", '"Bag"', "1List", "[", "Größe", "½x", "List")]
        bodies = ['log("Bag", \'[\', "");', "int n = 1List + 0x1F;", "x = ½x;",
                  "Größe g = new Größe();", "int[] a = {};", "List<Größe> xs;", "",
                  "a½x = 2;"]
        seen = set()
        for vocabulary, body in product(vocabularies, bodies):
            method = extract_one(f"void testAllItems() {{ {body} }}")
            r4 = default_rules(collection_vocabulary=vocabulary)[3]
            want = reference(vocabulary, method.body)
            assert r4.expectation(method, ("all", "items")) is want, (vocabulary, body)
            seen.add(want)
        assert seen == {True, False}


class TestR5Exception:
    def test_satisfied_assertion_in_catch(self):
        diags = run_lint("""
            public void invokingStaticMethodQuietlyShouldWrapIllegalArgumentException() {
                try {
                    target.invoke();
                } catch (RuntimeException e) {
                    assertTrue(e.getCause() instanceof IllegalArgumentException);
                }
            }
        """)
        assert diags == []

    def test_satisfied_expected_annotation(self):
        diags = run_lint("""
            @Test(expected = FooException.class)
            public void testException() {
                target.explode();
            }
        """)
        assert diags == []

    def test_satisfied_fail_in_catch(self):
        diags = run_lint("""
            public void testWrapsException() {
                try { go(); } catch (Error e) { Assert.fail("boom"); }
            }
        """)
        assert diags == []

    def test_violated_plain_body(self):
        diags = run_lint("""
            public void testException() {
                target.explode();
            }
        """)
        assert [d.rule_id for d in diags] == ["R5"]

    def test_assertion_outside_catch_does_not_satisfy(self):
        diags = run_lint("""
            public void testException() {
                assertTrue(target.explodes());
            }
        """)
        assert [d.rule_id for d in diags] == ["R5"]


def reference_r5(method, terms) -> bool:
    """R5 as it scanned forward from each `catch` to the next '{' and then
    through that block, in time quadratic in the number of `catch`es."""
    if any("expected" in annotation for annotation in method.annotations):
        return True
    texts = method.body
    for i, text in enumerate(texts):
        if text != "catch":
            continue
        j = i + 1
        while j < len(texts) and texts[j] != "{":
            j += 1
        depth = 0
        for k in range(j, len(texts)):
            if texts[k] == "{":
                depth += 1
            elif texts[k] == "}":
                depth -= 1
                if depth == 0:
                    break
            elif depth > 0 and (texts[k].startswith(("assert", "Assert"))
                                or texts[k] == "fail" and texts[k + 1:k + 2] == ("(",)):
                return True
    return False


R5 = next(r for r in RULES if r.id == "R5")
_R5_TERMS = ("throws", "exception")
_R5_TOKENS = ["catch", "catch", "{", "{", "}", "}", "(", ")", ";", "x", "fail", "assertTrue",
              "Assert", "asserted", '"assert"']
_R5_ANNOTATIONS = [(), ("@Test",), ("@Test(expected = E.class)",)]


def _method_of(texts, annotations=()):
    return extraction.TestMethod("throwsException", annotations, tuple(texts), (0, 1), (0, 1))


class TestR5Reference:
    @settings(max_examples=500, deadline=None)
    @given(st.lists(st.sampled_from(_R5_TOKENS), max_size=40), st.data())
    def test_matches_the_quadratic_reference(self, texts, data):
        method = _method_of(texts, data.draw(st.sampled_from(_R5_ANNOTATIONS)))
        assert R5.expectation(method, _R5_TERMS) is reference_r5(method, _R5_TERMS)

    # catches whose '{' comes only at the end or never, and catch blocks
    # nested 2000 deep: the old scan went from each `catch` to the end
    _SHAPES = {
        "brace-less catches": "catch (E e) x; " * 2000,
        "brace-less catches, one block": "catch (E e) x; " * 2000 + "{ y(); }",
        "nested catch blocks": "try { x(); } catch (E e) { " * 2000 + "}" * 2000,
    }

    @staticmethod
    def _seconds_per_char(body: str) -> float:
        method = _method_of(extraction.tokenize(body).texts)
        assert R5.expectation(method, _R5_TERMS) is False
        return _seconds_per_char(lambda _: R5.expectation(method, _R5_TERMS), body)

    @pytest.mark.parametrize("shape", _SHAPES)
    def test_time_is_linear(self, shape):
        """Per character, against catch blocks that each close, with the
        bound of the extraction's linear-time tests."""
        plain = "try { x(); } catch (E e) { y(); } " * 1000
        assert self._seconds_per_char(self._SHAPES[shape]) <= 50 * self._seconds_per_char(plain)


class TestLintMechanics:
    def test_disabled_rules_produce_nothing(self):
        only_r3 = tuple(r for r in RULES if r.id == "R3")
        diags = run_lint("""
            public void failPrefixMissing() { assertEquals(1, x); }
        """, only_r3)
        assert diags == []

    def test_diagnostic_fields(self):
        diags = run_lint("""
            public void failPrefixMissing() { assertEquals(1, x); }
        """)
        d = diags[0]
        assert d.rule_id == "R1"
        assert d.method_name == "failPrefixMissing"
        assert d.file == "Fixture.java"
        assert d.severity == "warning"
        assert d.name_span[0] < d.name_span[1]

    def test_trigger_recheckable_from_name_alone(self):
        # soundness: the reported name re-fires the reported rule's trigger
        by_id = {r.id: r for r in RULES}
        diags = run_lint("""
            public void failPrefixMissing() { assertEquals(1, x); }
        """)
        for d in diags:
            tagged = tag(split(d.method_name))
            assert by_id[d.rule_id].trigger(tuple(tagged.terms.normalized()), tagged.tags)

    def test_monotonicity_adding_satisfying_tokens(self):
        violating = """
            public void testExecuteAll() { assertEquals(3, runner.count()); }
        """
        satisfied = """
            public void testExecuteAll() {
                List<Long> ids = runner.execute();
                assertEquals(3, runner.count());
            }
        """
        assert len(run_lint(violating)) == 1
        assert run_lint(satisfied) == []

    def test_literals_never_satisfy_word_expectations(self):
        # a string literal keeps its quotes, so its text never equals a word
        rules = default_rules(collection_vocabulary=("Bag", '"Bag"'))
        diags = run_lint("""
            public void testFailsReturnsFalseForAllItems() {
                log("fail", "assertFalse", "Bag", '[');
                fail2();
            }
        """, rules)
        assert [d.rule_id for d in diags] == ["R1", "R2", "R4"]

    def test_default_vocabulary_contents(self):
        assert set(DEFAULT_COLLECTION_VOCABULARY) == {
            "List", "Map", "Set", "Collection", "Iterable",
        }


# name fragments: the bundled lexicon's words, each cue and words that hold
# it, and the separators and digits split cuts at
_LEXICON_WORDS = sorted(set().union(*Lexicon.default()))
_CUE_RELATIVES = ["fail", "fails", "failure", "failing", "failed", "true", "false", "not",
                  "all", "at", "least", "of", "except", "exception", "exceptions", "excepted",
                  "Nothing", "allOf", "atLeast", "TRUE", "Falsey", "notAll", "unfailing"]
_SEPARATORS_AND_DIGITS = list("0123456789_$")


@st.composite
def _random_case(draw, word: str) -> str:
    upper = draw(st.lists(st.booleans(), min_size=len(word), max_size=len(word)))
    return "".join(c.upper() if up else c.lower() for c, up in zip(word, upper))


_names = st.lists(
    st.sampled_from(_LEXICON_WORDS + _CUE_RELATIVES + _SEPARATORS_AND_DIGITS).flatmap(_random_case),
    min_size=1, max_size=6,
).map("".join)


class TestCues:
    def test_bundled_cues(self):
        assert {r.id: r.cues for r in RULES} == {
            "R1": ("fail",), "R2": ("true", "false"), "R3": ("not",),
            "R4": ("all", "least"), "R5": ("except",),
        }

    @settings(max_examples=500, deadline=None)
    @given(_names)
    def test_a_rule_fires_only_on_a_name_holding_one_of_its_cues(self, name):
        seq = split(name)
        if not seq.terms:
            return
        tagged = tag(seq)
        terms = tuple(tagged.terms.normalized())
        for rule in RULES:
            if rule.trigger(terms, tagged.tags):
                assert any(cue in name.lower() for cue in rule.cues), (rule.id, name)
                assert cue_filter((rule,))(name)

    def test_stemming_to_fail_or_except_keeps_the_word(self):
        """Every one-edit variant and truncation of "fail" and "except"
        with one suffix of the stemmer's rule tables, and the two words
        with two: whatever stems to "fail" or "except" holds it."""
        suffixes = {"", "s", "es", "sses", "ies", "ed", "eed", "ing", "y", "e"}
        for table in (rename._STEP2, rename._STEP3):
            suffixes.update(*(pair for rules in table.values() for pair in rules))
        suffixes.update(*rename._STEP4.values())
        letters = "abcdefghijklmnopqrstuvwxyz"
        for word in ("fail", "except"):
            variants = {word[:i] + c + word[j:] for i in range(len(word) + 1)
                        for j in (i, i + 1) if j <= len(word) for c in ["", *letters]}
            variants.update(word[:i] for i in range(1, len(word)))
            words = {v + s for v in variants for s in suffixes}
            words.update(word + s + t for s in suffixes for t in suffixes)
            words.discard("")
            for w in words:
                if stem(w) in ("fail", "except"):
                    assert stem(w) in w, w

    def test_filter_takes_the_cues_of_the_rules_given(self):
        only_r2 = cue_filter(tuple(r for r in RULES if r.id == "R2"))
        assert only_r2("testReturnsFALSE") and only_r2("trueOrNot")
        assert not only_r2("testFailsNotAll")
        every = cue_filter(RULES)
        assert every("testFailure") and every("atLeastOnce") and every("test_EXCEPTION")
        assert not every("testParser")

    def test_a_rule_without_cues_may_fire_on_any_name(self):
        r1 = RULES[0]
        legacy = Rule(r1.id, r1.trigger, r1.expectation, r1.message)
        assert legacy.cues is None
        assert cue_filter((legacy,))("testParser")
        assert cue_filter((*RULES, legacy))("testParser")

    def test_no_rules_or_no_cues_pass_no_name(self):
        assert not cue_filter(())("testFailure")
        assert not cue_filter((RULES[0]._replace(cues=()),))("testFailure")
