import itertools
import tracemalloc
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from testlens import renamedetect
from testlens.extraction import (
    SourceFile,
    extract_methods,
    is_test_method,
    recover_methods,
    tokenize,
)
from testlens.rename import RenameEvent
from testlens.renamedetect import (
    DEFAULT_THRESHOLD,
    FileVersionPair,
    _bigrams,
    _similar_pairs,
    body_similarity,
    detect_renames,
)


def texts(text: str) -> tuple[str, ...]:
    return tokenize(text).texts


def brute_force_dice(a: str, b: str) -> float:
    """Independent oracle: enumerate bigrams pairwise, count greedy matches."""
    ta = tokenize(a).texts
    tb = tokenize(b).texts
    ga = list(zip(ta, ta[1:]))
    gb = list(zip(tb, tb[1:]))
    if not ga and not gb:
        return 1.0
    remaining = list(gb)
    shared = 0
    for gram in ga:
        if gram in remaining:
            remaining.remove(gram)
            shared += 1
    return 2.0 * shared / (len(ga) + len(gb))


class TestBodySimilarity:
    def test_identical(self):
        s = texts("a(); b(); c();")
        assert body_similarity(s, s) == 1.0

    def test_disjoint(self):
        assert body_similarity(texts("a b c"), texts("x y z")) == 0.0

    def test_empty_vs_empty(self):
        assert body_similarity(texts(""), texts("")) == 1.0

    def test_half_overlap_fixture(self):
        # bigram multisets sized 4 and 4 sharing 2
        a = texts("p q r s t")
        b = texts("p q r x y")
        got = body_similarity(a, b)
        assert got == 0.5
        assert got == brute_force_dice("p q r s t", "p q r x y")

    @pytest.mark.parametrize("a,b", [
        ("int x = 1; use(x);", "int x = 1; use(y);"),
        ("foo(); bar();", "foo();"),
        ("a b a b", "a b"),
        ("", "x y"),
    ])
    def test_matches_brute_force(self, a, b):
        assert body_similarity(texts(a), texts(b)) == pytest.approx(
            brute_force_dice(a, b))


def java_file(path: str, methods: dict[str, str]) -> SourceFile:
    body = "\n".join(
        f"    @Test public void {name}() {{ {code} }}" for name, code in methods.items()
    )
    return SourceFile(path, f"import org.junit.Test;\nclass T {{\n{body}\n}}\n")


class TestDetectRenames:
    def test_unchanged_body_detected_at_one(self):
        before = java_file("T.java", {"testOld": "a(); b(); c(); d();"})
        after = java_file("T.java", {"testNew": "a(); b(); c(); d();"})
        events = detect_renames(FileVersionPair(before, after), threshold=1.0)
        assert [(e.old_name, e.new_name) for e in events] == [("testOld", "testNew")]

    def test_disjoint_bodies_rejected_at_default_threshold(self):
        before = java_file("T.java", {"testOld": "alpha(); beta(); gamma();"})
        after = java_file("T.java", {"testNew": "delta(1); epsilon(2); zeta(3);"})
        events = detect_renames(FileVersionPair(before, after), DEFAULT_THRESHOLD)
        assert events == []

    def test_unchanged_methods_not_considered(self):
        before = java_file("T.java", {"testSame": "a();", "testOld": "b(); c(); d();"})
        after = java_file("T.java", {"testSame": "a();", "testNew": "b(); c(); d();"})
        events = detect_renames(FileVersionPair(before, after), 1.0)
        assert [(e.old_name, e.new_name) for e in events] == [("testOld", "testNew")]

    def test_one_to_one(self):
        before = java_file("T.java", {"testA": "x(); y();"})
        after = java_file("T.java", {"testB": "x(); y();", "testC": "x(); y();"})
        events = detect_renames(FileVersionPair(before, after), 0.5)
        assert len(events) == 1

    def test_threshold_validated(self):
        pair = FileVersionPair(java_file("T.java", {}), java_file("T.java", {}))
        with pytest.raises(ValueError):
            detect_renames(pair, 0.0)
        with pytest.raises(ValueError):
            detect_renames(pair, 1.5)

    def test_events_carry_file(self):
        before = java_file("Before.java", {"testOld": "a(); b();"})
        after = java_file("After.java", {"testNew": "a(); b();"})
        events = detect_renames(FileVersionPair(before, after), 0.9)
        assert events[0].file == "After.java"

    def test_threshold_one_requires_identical_bodies(self):
        before = java_file("T.java", {"testOld": "a(); b(); c(); d();"})
        after = java_file("T.java", {"testNew": "a(); b(); c(); e();"})
        assert detect_renames(FileVersionPair(before, after), 1.0) == []
        assert detect_renames(FileVersionPair(before, after), 0.5) != []

    def test_partial_parses_are_collected(self):
        text = java_file("Before.java", {"testOld": "a(); b();"}).text
        before = SourceFile("Before.java", text + "class U { void testOpen() { x();\n")
        after = java_file("After.java", {"testNew": "a(); b();"})
        errors = []
        events = detect_renames(FileVersionPair(before, after), 0.9, errors)
        assert [(e.old_name, e.new_name) for e in events] == [("testOld", "testNew")]
        assert errors == ["Before.java: unbalanced braces after method 'testOpen'; "
                          "recovered 1 method(s)"]
        assert detect_renames(FileVersionPair(before, after), 0.9) == events



def brute_force_assignment(scores: dict[tuple[str, str], float], threshold: float):
    """Exhaustive best assignment: max total score, all pairs >= threshold."""
    removed = sorted({r for r, _ in scores})
    added = sorted({a for _, a in scores})
    best, best_total = [], -1.0
    k = min(len(removed), len(added))
    for size in range(k, -1, -1):
        for r_subset in itertools.permutations(removed, size):
            for a_subset in itertools.permutations(added, size):
                pairs = list(zip(r_subset, a_subset))
                if any(scores[p] < threshold for p in pairs):
                    continue
                total = sum(scores[p] for p in pairs)
                if total > best_total:
                    best, best_total = pairs, total
    return sorted(best)


class TestGreedyVersusExhaustive:
    def test_two_by_two_crossed_fixture(self):
        # two removed, two added, similarities crossed so ordering matters
        before = java_file("T.java", {
            "testAlpha": "a(); b(); c(); d(); e();",
            "testBeta": "p(); q(); r(); s();",
        })
        after = java_file("T.java", {
            "testGamma": "a(); b(); c(); d(); x();",
            "testDelta": "p(); q(); r(); y();",
        })
        pair = FileVersionPair(before, after)

        before_methods = {m.name: m for m in extract_methods(before)}
        after_methods = {m.name: m for m in extract_methods(after)}
        scores = {
            (r, a): body_similarity(
                before_methods[r].body, after_methods[a].body
            )
            for r in ("testAlpha", "testBeta")
            for a in ("testGamma", "testDelta")
        }
        # the fixture really is crossed: each removed method overlaps both added
        assert scores[("testAlpha", "testGamma")] > scores[("testAlpha", "testDelta")]
        assert scores[("testBeta", "testDelta")] > scores[("testBeta", "testGamma")]
        assert all(0.0 < s for s in scores.values())

        threshold = 0.5
        events = detect_renames(pair, threshold)
        greedy = sorted((e.old_name, e.new_name) for e in events)
        assert greedy == brute_force_assignment(scores, threshold)

    def test_every_reported_score_meets_threshold(self):
        before = java_file("T.java", {
            "testAlpha": "a(); b(); c();",
            "testBeta": "x(); y(); z();",
        })
        after = java_file("T.java", {
            "testGamma": "a(); b(); c();",
            "testDelta": "unrelated(0);",
        })
        events = detect_renames(FileVersionPair(before, after), 0.9)
        before_methods = {m.name: m for m in extract_methods(before)}
        after_methods = {m.name: m for m in extract_methods(after)}
        for e in events:
            score = body_similarity(
                before_methods[e.old_name].body,
                after_methods[e.new_name].body,
            )
            assert score >= 0.9
        assert [(e.old_name, e.new_name) for e in events] == [("testAlpha", "testGamma")]


def reference_detect(pair: FileVersionPair, threshold: float):
    """All-pairs greedy matcher: every removed x added pair scored with
    body_similarity, sorted stably, used sets keyed by method index. The
    methods of a name held as often in both versions are neither removed
    nor added, and a matched pair of two equal names is a kept method."""
    def test_methods(src):
        return [m for m in recover_methods(src)[0] if is_test_method(m)]

    before, after = test_methods(pair.before), test_methods(pair.after)
    counts = Counter(m.name for m in before)
    counts.subtract(m.name for m in after)
    removed = [m for m in before if counts[m.name]]
    added = [m for m in after if counts[m.name]]
    candidates = [
        (body_similarity(r.body, a.body), i, j)
        for i, r in enumerate(removed)
        for j, a in enumerate(added)
    ]
    candidates.sort(key=lambda c: (-c[0], removed[c[1]].name, added[c[2]].name))
    events, used_removed, used_added = [], set(), set()
    for score, i, j in candidates:
        if score < threshold:
            break
        if i in used_removed or j in used_added:
            continue
        used_removed.add(i)
        used_added.add(j)
        if removed[i].name != added[j].name:
            events.append((removed[i].name, added[j].name, pair.after.path))
    return events


def listed_file(path: str, methods: list[tuple[str, str]]) -> SourceFile:
    """A test class whose methods may share names (overloads)."""
    body = "\n".join(
        f"    @Test public void {name}({', '.join(f'int p{k}' for k in range(n))}) {{ {code} }}"
        for n, (name, code) in enumerate(methods)
    )
    return SourceFile(path, f"import org.junit.Test;\nclass T {{\n{body}\n}}\n")


def events_of(pair: FileVersionPair, threshold: float):
    return [(e.old_name, e.new_name, e.file) for e in detect_renames(pair, threshold)]


class TestOverloadsAndExactness:
    def test_overloaded_renames_both_detected(self):
        before = listed_file("T.java", [("testA", "a(); b(); c();"), ("testA", "p(); q(); r();")])
        after = listed_file("T.java", [("testB", "a(); b(); c();"), ("testC", "p(); q(); r();")])
        events = detect_renames(FileVersionPair(before, after), DEFAULT_THRESHOLD)
        assert [(e.old_name, e.new_name) for e in events] == [("testA", "testB"), ("testA", "testC")]

    @pytest.mark.parametrize("after, expected", [
        # the last overload renamed, the first keeps the name
        ([("testA", "a(); b(); c();"), ("testB", "p(); q(); r();")], [("testA", "testB")]),
        # the first overload renamed, the last keeps the name
        ([("testB", "a(); b(); c();"), ("testA", "p(); q(); r();")], [("testA", "testB")]),
        # both renamed: one event each
        ([("testB", "a(); b(); c();"), ("testC", "p(); q(); r();")],
         [("testA", "testB"), ("testA", "testC")]),
    ], ids=["last", "first", "both"])
    def test_each_renamed_overload_gives_one_event(self, after, expected):
        before = listed_file("T.java", [("testA", "a(); b(); c();"), ("testA", "p(); q(); r();")])
        pair = FileVersionPair(before, listed_file("T.java", after))
        expected = [(*names, "T.java") for names in expected]
        assert events_of(pair, DEFAULT_THRESHOLD) == reference_detect(pair, DEFAULT_THRESHOLD) == expected

    def test_overload_kept_under_its_name_is_no_rename(self):
        # testA(int) deleted, and testX copies testA(): testA() matches its kept self
        before = listed_file("T.java", [("testA", "a(); b(); c();"), ("testA", "p(); q(); r();")])
        after = listed_file("T.java", [("testA", "a(); b(); c();"), ("testX", "a(); b(); c();")])
        pair = FileVersionPair(before, after)
        assert events_of(pair, DEFAULT_THRESHOLD) == reference_detect(pair, DEFAULT_THRESHOLD) == []

    def test_score_exactly_at_threshold_is_kept(self):
        # 5 + 5 bigrams sharing 3: Dice is exactly 0.6
        before = listed_file("T.java", [("testOld", "a b c d e f")])
        after = listed_file("T.java", [("testNew", "a b c d x y")])
        pair = FileVersionPair(before, after)
        assert body_similarity(extract_methods(before)[0].body,
                               extract_methods(after)[0].body) == 0.6
        assert events_of(pair, 0.6) == reference_detect(pair, 0.6) == [("testOld", "testNew", "T.java")]
        assert events_of(pair, 0.61) == []

    def test_bodies_without_bigrams_pair_only_with_each_other(self):
        # "" and "x" have no bigram, so both score 1.0 against "y"
        before = listed_file("T.java", [("testOld", ""), ("testGone", "x"), ("testKept", "a b c")])
        after = listed_file("T.java", [("testNew", "y"), ("testOther", "a b c")])
        pair = FileVersionPair(before, after)
        assert events_of(pair, 1.0) == reference_detect(pair, 1.0) == [
            ("testGone", "testNew", "T.java"),
            ("testKept", "testOther", "T.java"),
        ]

    def test_equal_bags_in_another_token_order_tie_by_name(self):
        # "a b a" and "b a b" both hold the bigrams (a, b) and (b, a) once
        before = listed_file("T.java", [("testB", "a b a"), ("testA", "b a b")])
        after = listed_file("T.java", [("testW", "a b a"), ("testX", "b a b")])
        pair = FileVersionPair(before, after)
        assert events_of(pair, DEFAULT_THRESHOLD) == reference_detect(pair, DEFAULT_THRESHOLD) == [
            ("testA", "testW", "T.java"),
            ("testB", "testX", "T.java"),
        ]

    def test_method_left_over_by_equal_bodies_goes_to_the_similarity_join(self):
        shared = "a b c d e"
        before = listed_file("T.java", [("testC", shared), ("testA", shared), ("testB", shared)])
        after = listed_file("T.java", [("testY", shared), ("testX", shared), ("testZ", "a b c d x")])
        pair = FileVersionPair(before, after)
        assert events_of(pair, DEFAULT_THRESHOLD) == reference_detect(pair, DEFAULT_THRESHOLD) == [
            ("testA", "testX", "T.java"),
            ("testB", "testY", "T.java"),
            ("testC", "testZ", "T.java"),
        ]

    def test_bulk_rename_of_one_shared_body_keeps_memory_small(self):
        body = "assertEquals(v17, compute(x)); verify(mock).run();"
        n = 1000
        before = java_file("Old.java", {f"testCase{k}": body for k in range(n)})
        after = java_file("New.java", {f"shouldCase{k}": body for k in range(n)})
        tracemalloc.start()
        try:
            events = detect_renames(FileVersionPair(before, after))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(events) == n
        assert events[0] == RenameEvent("testCase0", "shouldCase0", "New.java")
        assert peak < 16 * 2**20


_BODY_TOKENS = ["a", "b", "c", "d", "x", "(", ")", ";", "1", "=", "."]
_bodies = st.lists(st.sampled_from(_BODY_TOKENS), max_size=14).map(" ".join)
_names = st.sampled_from(["testA", "testB", "testC", "testD", "testE"])
_methods = st.lists(st.tuples(_names, _bodies), max_size=7)
# both versions draw their bodies from one small pool, so equal bodies across
# the versions and within one (overloads) are common
_methods_sharing_bodies = st.lists(_bodies, min_size=1, max_size=3).flatmap(
    lambda pool: st.tuples(*[st.lists(st.tuples(_names, st.sampled_from(pool)), max_size=7)] * 2))
_thresholds = st.one_of(
    st.sampled_from([0.1, 0.25, 0.5, 0.6, 0.7, 0.75, 0.8, 0.9, 1.0]),
    st.floats(min_value=0.01, max_value=1.0),
)


@settings(max_examples=300, deadline=None)
@given(_methods, _methods, _thresholds)
def test_detect_matches_all_pairs_reference(before, after, threshold):
    assert_matches_reference(before, after, threshold)


@settings(max_examples=300, deadline=None)
@given(_methods_sharing_bodies, _thresholds)
def test_detect_matches_all_pairs_reference_on_shared_bodies(versions, threshold):
    assert_matches_reference(*versions, threshold)


@settings(max_examples=300, deadline=None)
@given(_methods_sharing_bodies, _thresholds)
def test_similarity_join_never_sees_equal_bags(versions, threshold):
    # _similar_pairs scores no pair of two empty bags: equal bags, empty
    # ones too, are paired by hashing before the join
    calls = []

    def spy(left, right, threshold):
        calls.append((left, right))
        return _similar_pairs(left, right, threshold)

    pair = FileVersionPair(listed_file("Old.java", versions[0]), listed_file("New.java", versions[1]))
    with mock.patch.object(renamedetect, "_similar_pairs", spy):
        detect_renames(pair, threshold)
    assert not [(a, b) for left, right in calls for a in left for b in right if a == b]


def assert_matches_reference(before, after, threshold):
    pair = FileVersionPair(listed_file("Old.java", before), listed_file("New.java", after))
    assert events_of(pair, threshold) == reference_detect(pair, threshold)


@settings(max_examples=300, deadline=None)
@given(st.lists(_bodies, max_size=8), st.lists(_bodies, max_size=8), _thresholds)
def test_similar_pairs_are_exactly_the_pairs_at_or_above_threshold(left, right, threshold):
    def bags(bodies):
        return [_bigrams(texts(body)) for body in bodies]

    # two empty bags are equal, and detect_renames pairs equal bags by hashing
    expected = sorted(
        (score, i, j)
        for i, a in enumerate(left)
        for j, b in enumerate(right)
        if (score := body_similarity(texts(a), texts(b))) >= threshold
        and (_bigrams(texts(a)) or _bigrams(texts(b)))
    )
    assert sorted(_similar_pairs(bags(left), bags(right), threshold)) == expected
