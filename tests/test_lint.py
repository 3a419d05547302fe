from testlens.extraction import SourceFile, extract_methods
from testlens.lint import DEFAULT_COLLECTION_VOCABULARY, default_rules, lint
from testlens.splitter import split
from testlens.tagger import tag

RULES = default_rules()


def run_lint(method_source: str, rules=RULES):
    src = SourceFile("Fixture.java", f"class Fixture {{\n{method_source}\n}}\n")
    methods = extract_methods(src)
    assert len(methods) == 1, methods
    method = methods[0]
    tagged = tag(split(method.name))
    return lint(method, tagged, rules, file=src.path)


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
