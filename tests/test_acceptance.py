"""Acceptance gate: one test per release criterion, exact tolerances.

Each test prints a single PASS line on success (visible with pytest -s or
in the captured output summary), so the gate reads as a checklist.
"""

import io
import json
import random
import time
from collections import Counter
from pathlib import Path

import pytest

from testlens.cli import EXIT_FINDINGS, EXIT_OK, run
from testlens.extraction import SourceFile, extract_methods
from testlens.lint import default_rules, lint
from testlens.patterns import catalog_match, default_catalog, pattern_of
from testlens.rename import (
    FormCategory,
    RenameEvent,
    SemanticCategory,
    TermRelation,
    _collapse_phrases,
    classify,
    classify_form,
    classify_semantics,
    relate,
    term_pairs,
)
from testlens.renamedetect import FileVersionPair, body_similarity, detect_renames
from testlens.report import CorpusStats, accumulate, merge
from testlens.splitter import split
from testlens.tagger import PosTag, tag

DATA = Path(__file__).parent / "data"


def ok(criterion: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS")


def pattern(name: str) -> str:
    return tag(split(name)).pattern_string()


def tag_of(name: str, term: str) -> PosTag:
    tagged = tag(split(name))
    return dict(zip(tagged.terms.normalized(), tagged.tags))[term]


class TestCriterion1Tagger:
    def test_tagger_fixture_suite(self):
        started = time.monotonic()
        assert pattern("testStringEncryption") == "V NM N"
        assert pattern("testParser") == "V N"
        assert pattern("setup") == "V"
        assert pattern("main") == "N"
        assert pattern("testGetActions").startswith("V V")
        assert pattern("projectClosed") == "N V"
        assert pattern("testReadFileFromClasspath") == "V V N P N"
        assert pattern("testFindResourceByName").startswith("V V N")
        assert pattern("testFormUploadLargerFile").startswith("V N V")
        assert pattern("testUidFetchBodyPeek").startswith("V N V N")
        assert tag_of("test_get_NotExisting", "not") is PosTag.VERB_MODIFIER
        assert tag_of("findAllWithGivenIds", "all") is PosTag.DETERMINER
        elapsed = time.monotonic() - started
        assert elapsed < 1.0, f"fixture suite took {elapsed:.3f}s"
        ok("1 tagger fixtures")


class TestCriterion2Catalog:
    def test_catalog_matching(self):
        catalog = default_catalog()

        hits = catalog_match(pattern_of(tag(split("testGetActions"))), catalog)
        assert [e.name for e in hits] == ["Is and Past Principle Phrase"]

        hits = catalog_match(pattern_of(tag(split("testReadFileFromClasspath"))), catalog)
        names = [e.name for e in hits]
        assert names.index("V V N P+") < names.index("Dual Verb Phrase")
        assert names[:2] == ["V V N P+", "Dual Verb Phrase"]

        digit_only = pattern_of(tag(split("7")))
        assert str(digit_only) == "D"
        assert catalog_match(digit_only, catalog) == []
        ok("2 catalog matching")


class TestCriterion3RenameClassification:
    def test_form_and_semantics_fixtures(self):
        cases = [
            ("test_13", "test13", FormCategory.FORMATTING, SemanticCategory.PRESERVE),
            ("testStringEncryption", "testStrongEncryption",
             FormCategory.SIMPLE, SemanticCategory.CHANGE),
            ("shouldAcceptRaxProtocols", "shouldRejectRaxProtocols",
             FormCategory.SIMPLE, SemanticCategory.CHANGE),
            ("testLog", "testEigenSingularValues",
             FormCategory.COMPLEX, SemanticCategory.CHANGE),
        ]
        for old, new, form, semantics in cases:
            event = RenameEvent(old, new)
            assert classify_form(event) is form, (old, new)
            assert classify_semantics(event) is semantics, (old, new)

        assert classify_semantics(
            RenameEvent("testPinnedExternals", "pinnedExternals")
        ) is SemanticCategory.BROADEN

        antonym_case = classify(
            RenameEvent("shouldAcceptRaxProtocols", "shouldRejectRaxProtocols"))
        assert antonym_case.pairs == (("reject", "accept", TermRelation.ANTONYM),)

        relations = [
            ("cube", "box", TermRelation.SYNONYM),
            ("generic", "specific", TermRelation.ANTONYM),
            ("list", "collection", TermRelation.GENERALIZATION),
            ("test", "validate", TermRelation.SPECIALIZATION),
            ("uploader", "upload", TermRelation.SAME_STEM),
            ("job", "jobs", TermRelation.PLURALITY_CHANGE),
            ("inkvoked", "invoked", TermRelation.SPELLING_FIX),
        ]
        for removed, added, want in relations:
            assert relate(removed, added) is want, (removed, added)
        ok("3 rename classification")


class TestCriterion4TermPairs:
    def test_exact_pairs_and_count_invariant(self):
        pairs = term_pairs(RenameEvent("getEmployeeName", "testEmployeeLastName"))
        assert set(pairs) == {("test", "get"), ("last", "get")}
        assert len(pairs) == 2

        vocabulary = [
            "test", "get", "set", "check", "value", "item", "user", "list",
            "all", "not", "file", "load", "save", "name", "count", "order",
        ]
        rng = random.Random(0xACCE)
        checked = 0
        while checked < 1000:
            old_parts = [rng.choice(vocabulary)
                         for _ in range(rng.randint(1, 5))]
            new_parts = [rng.choice(vocabulary)
                         for _ in range(rng.randint(1, 5))]
            if rng.random() < 0.3:
                old_parts.append(str(rng.randint(0, 99)))
            if rng.random() < 0.3:
                new_parts.append(str(rng.randint(0, 99)))
            old = old_parts[0] + "".join(
                p if p.isdigit() else p.capitalize() for p in old_parts[1:])
            new = new_parts[0] + "".join(
                p if p.isdigit() else p.capitalize() for p in new_parts[1:])
            if old == new:
                continue
            event = RenameEvent(old, new)
            old_terms = Counter(_collapse_phrases(split(old).normalized()))
            new_terms = Counter(_collapse_phrases(split(new).normalized()))
            expected = sum((new_terms - old_terms).values()) * sum((old_terms - new_terms).values())
            assert len(term_pairs(event)) == expected, (old, new)
            checked += 1
        ok("4 term pairs")


LINT_FIXTURES = {
    "R1": (
        """public void failPrefixMissing() {
               try { parse(); Assert.fail("boom"); } catch (Error e) {}
           }""",
        """public void failPrefixMissing() {
               assertEquals(1, parse());
           }""",
    ),
    "R2": (
        """public void testUntilTrueDefinitionOnReducedPath() {
               assertTrue(path.reduced());
           }""",
        """public void testUntilTrueDefinitionOnReducedPath() {
               assertEquals(1, path.size());
           }""",
    ),
    "R3": (
        """public void test_get_NotExisting() {
               assertNull(repo.get("nope"));
           }""",
        """public void test_get_NotExisting() {
               assertEquals(0, repo.size());
           }""",
    ),
    "R4": (
        """public void testExecuteAll() {
               List<Long> ids = runner.execute();
               assertEquals(3, ids.size());
           }""",
        """public void testExecuteAll() {
               assertEquals(3, runner.count());
           }""",
    ),
    "R5": (
        """public void invokingStaticMethodQuietlyShouldWrapIllegalArgumentException() {
               try { target.invoke(); }
               catch (RuntimeException e) { assertTrue(e.getCause() != null); }
           }""",
        """public void invokingStaticMethodQuietlyShouldWrapIllegalArgumentException() {
               target.invoke();
           }""",
    ),
}


class TestCriterion5Lint:
    def lint_one(self, method_source):
        src = SourceFile("F.java", f"class F {{\n{method_source}\n}}\n")
        methods = extract_methods(src)
        assert len(methods) == 1
        return lint(methods[0], tag(split(methods[0].name)), default_rules())

    def test_rules_satisfied_and_violated(self):
        for rule_id, (satisfied, violated) in LINT_FIXTURES.items():
            assert self.lint_one(satisfied) == [], rule_id
            diags = self.lint_one(violated)
            assert len(diags) == 1, rule_id
            assert diags[0].rule_id == rule_id

    def test_exit_codes(self, tmp_path):
        clean = tmp_path / "clean"
        clean.mkdir()
        (clean / "CleanTest.java").write_text(
            "import org.junit.Test;\n"
            "class CleanTest { @Test public void testParser() { ok(); } }\n"
        )
        dirty = tmp_path / "dirty"
        dirty.mkdir()
        (dirty / "FailTest.java").write_text(
            "import org.junit.Test;\n"
            "class FailTest { @Test public void failPrefixMissing() { ok(); } }\n"
        )
        out, err = io.StringIO(), io.StringIO()
        assert run(["lint", str(clean)], out, err) == EXIT_OK
        assert run(["lint", str(dirty)], out, err) == EXIT_FINDINGS
        ok("5 lint rules")


class TestCriterion6RenameDetection:
    @staticmethod
    def java(methods: dict[str, str]) -> SourceFile:
        body = "\n".join(
            f"@Test public void {name}() {{ {code} }}"
            for name, code in methods.items()
        )
        return SourceFile("T.java",
                          f"import org.junit.Test;\nclass T {{\n{body}\n}}\n")

    def test_detection(self):
        before = self.java({"testOld": "a(); b(); c(); d();"})
        after = self.java({"testNew": "a(); b(); c(); d();"})
        b = extract_methods(before)[0]
        a = extract_methods(after)[0]
        assert body_similarity(b.body, a.body) == 1.0
        events = detect_renames(FileVersionPair(before, after), 1.0)
        assert [(e.old_name, e.new_name) for e in events] == [("testOld", "testNew")]

        before = self.java({"testOld": "alpha(); beta(); gamma();"})
        after = self.java({"testNew": "delta(1); epsilon(2); zeta(3);"})
        assert detect_renames(FileVersionPair(before, after), 0.6) == []

        # 2x2 crossed-similarity fixture: greedy must equal exhaustive
        before = self.java({
            "testAlpha": "a(); b(); c(); d(); e();",
            "testBeta": "p(); q(); r(); s();",
        })
        after = self.java({
            "testGamma": "a(); b(); c(); d(); x();",
            "testDelta": "p(); q(); r(); y();",
        })
        events = detect_renames(FileVersionPair(before, after), 0.5)
        got = sorted((e.old_name, e.new_name) for e in events)

        before_methods = {m.name: m for m in extract_methods(before)}
        after_methods = {m.name: m for m in extract_methods(after)}
        best, best_total = None, -1.0
        import itertools
        removed = sorted(before_methods)
        for perm in itertools.permutations(sorted(after_methods)):
            pairs = list(zip(removed, perm))
            scores = [
                body_similarity(before_methods[r].body, after_methods[a].body)
                for r, a in pairs
            ]
            if any(s < 0.5 for s in scores):
                continue
            if sum(scores) > best_total:
                best, best_total = sorted(pairs), sum(scores)
        assert got == best
        ok("6 rename detection")


class TestCriterion7ReportOracle:
    def test_oracle_equivalence_and_partitions(self):
        rows = json.loads((DATA / "corpus_events.json").read_text())
        assert len(rows) == 50
        corpus = []
        for row in rows:
            event = RenameEvent(row["old_name"], row["new_name"],
                                row["file"], row["commit"])
            corpus.append((
                classify(event),
                (pattern_of(tag(split(event.old_name))),
                 pattern_of(tag(split(event.new_name)))),
            ))

        single = CorpusStats()
        for c, _ in corpus:
            accumulate(single, c)

        from test_report import naive_recount, rendered_counts
        assert rendered_counts(single) == naive_recount(corpus)
        prefix_lens = tuple(range(1, 8))
        assert (rendered_counts(single, prefix_lens)["prefix"]
                == naive_recount(corpus, prefix_lens)["prefix"])

        rng = random.Random(7)
        for _ in range(100):
            shard_a, shard_b = CorpusStats(), CorpusStats()
            for c, _ in corpus:
                accumulate(shard_a if rng.random() < 0.5 else shard_b, c)
            assert merge(shard_a, shard_b) == single
        ok("7 report oracle equivalence")


class TestCriterion8EndToEnd:
    def test_determinism_and_speed_over_synthetic_tree(self, tmp_path):
        rng = random.Random(8)
        verbs = ["test", "check", "verify", "should"]
        nouns = ["Parser", "Cache", "Index", "User", "File", "Queue"]
        tails = ["", "NotFound", "ReturnsTrue", "All", "Exception", "FromDisk"]
        tree = tmp_path / "tree"
        for i in range(1000):
            sub = tree / f"pkg{i % 20:02d}"
            sub.mkdir(parents=True, exist_ok=True)
            name = f"{rng.choice(verbs)}{rng.choice(nouns)}{rng.choice(tails)}"
            body = rng.choice([
                "assertEquals(1, x);",
                "assertTrue(ok);",
                "List<Long> xs = go(); assertEquals(2, xs.size());",
                "assertNull(miss);",
                'try { go(); } catch (Error e) { Assert.fail("no"); }',
            ])
            (sub / f"Case{i:04d}Test.java").write_text(
                "import org.junit.Test;\n"
                f"public class Case{i:04d}Test {{\n"
                f"    @Test\n    public void {name}() {{ {body} }}\n"
                "}\n"
            )
        events = tmp_path / "events.csv"
        events.write_text(
            "old_name,new_name,file,commit\n"
            "testStringEncryption,testStrongEncryption,,\n"
            "testPinnedExternals,pinnedExternals,,\n"
            "test_13,test13,,\n"
        )

        def full_run():
            outputs = []
            for argv in (
                ["scan", str(tree)],
                ["lint", str(tree), "--format", "json"],
            ):
                out, err = io.StringIO(), io.StringIO()
                code = run(argv, out, err)
                assert code in (EXIT_OK, EXIT_FINDINGS)
                outputs.append(out.getvalue())
                outputs.append(err.getvalue())
            out, err = io.StringIO(), io.StringIO()
            assert run(["rename", "classify", "--input", str(events)],
                       out, err) == EXIT_OK
            classified = tmp_path / "classified.json"
            classified.write_text(out.getvalue())
            outputs.append(out.getvalue())
            for table in ("full", "pairs", "prefix", "semantic", "terms"):
                out, err = io.StringIO(), io.StringIO()
                assert run(["report", "--input", str(classified),
                            "--table", table], out, err) == EXIT_OK
                outputs.append(out.getvalue())
            return outputs

        started = time.monotonic()
        first = full_run()
        second = full_run()
        elapsed = time.monotonic() - started
        assert first == second, "outputs differ between identical runs"
        assert elapsed < 60.0, f"two full runs took {elapsed:.1f}s"
        ok(f"8 end-to-end determinism and speed ({elapsed:.1f}s for two runs)")
