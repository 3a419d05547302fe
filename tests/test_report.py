import json
import random
from collections import Counter
from pathlib import Path

import pytest

from testlens.patterns import (
    CatalogEntry,
    PatternTemplate,
    default_catalog,
    matches,
    pattern_of,
)
from testlens.rename import RenameEvent, classify
from testlens.report import (
    CorpusStats,
    PREFIX_LENGTHS,
    TABLE_KINDS,
    _top_k,
    accumulate,
    merge,
    render_table,
)
from testlens.splitter import split
from testlens.tagger import PosTag, tag

DATA = Path(__file__).parent / "data"


def load_corpus():
    rows = json.loads((DATA / "corpus_events.json").read_text())
    out = []
    for row in rows:
        event = RenameEvent(row["old_name"], row["new_name"], row["file"], row["commit"])
        c = classify(event)
        old_p = pattern_of(tag(split(event.old_name)))
        new_p = pattern_of(tag(split(event.new_name)))
        out.append((c, (old_p, new_p)))
    return out


def naive_recount(corpus, prefix_lens=PREFIX_LENGTHS):
    """Independent recount: plain dictionary loops, no accumulate/merge."""
    catalog = default_catalog()
    counts = {
        "old": {}, "new": {}, "pairs": {}, "prefix": {}, "forms": {},
        "semantics": {}, "sem_by_pair": {}, "terms": {}, "catalog": {},
    }

    def bump(table, key):
        counts[table][key] = counts[table].get(key, 0) + 1

    for c, (old_p, new_p) in corpus:
        old_s, new_s = str(old_p), str(new_p)
        bump("old", old_s)
        bump("new", new_s)
        bump("pairs", (old_s, new_s))
        for k in prefix_lens:
            bump("prefix", (k, " ".join(old_s.split()[:k]), " ".join(new_s.split()[:k])))
        bump("forms", c.form.value)
        bump("semantics", c.semantics.value)
        bump("sem_by_pair", (old_s, new_s, c.semantics.value))
        for a, r, _ in c.pairs:
            bump("terms", (a, r))
        for entry in catalog:
            old_hit = matches(entry.template, old_p)
            new_hit = matches(entry.template, new_p)
            if old_hit or new_hit:
                inst, pres = counts["catalog"].get(entry.name, (0, 0))
                counts["catalog"][entry.name] = (
                    inst + int(old_hit) + int(new_hit),
                    pres + int(old_hit and new_hit),
                )
    return counts


def rendered_counts(stats, prefix_lens=PREFIX_LENGTHS, catalog=None):
    """Every table of ``render_table`` read back as plain counts, shaped
    like ``naive_recount``. ``k`` exceeds every table, so each counted
    section must end in an Others row of 0."""

    def sections(table):
        return json.loads(render_table(stats, table, "json", k=10**9,
                                       prefix_lens=prefix_lens, catalog=catalog))

    def counts(section):
        rows = section["rows"]
        if rows and section["columns"][0] not in ("Category", "Form"):
            others = rows.pop()
            assert others[0] == "Others" and others[-2] == "0", others
        keys = [row[0] if len(row) == 3 else tuple(row[:-2]) for row in rows]
        assert len(set(keys)) == len(keys)
        return {key: int(row[-2]) for key, row in zip(keys, rows)}

    full = sections("full")
    semantic = sections("semantic")
    return {
        "old": counts(full[0]),
        "new": counts(full[1]),
        "pairs": counts(sections("pairs")[0]),
        "prefix": {
            (n,) + key: count
            for n, section in zip(prefix_lens, sections("prefix"))
            for key, count in counts(section).items()
        },
        "forms": counts(sections("forms")[0]),
        "semantics": counts(semantic[0]),
        "sem_by_pair": counts(semantic[1]),
        "terms": counts(sections("terms")[0]),
        "catalog": {
            row[0]: (int(row[1]), int(row[2])) for row in sections("catalog")[0]["rows"]
        },
    }


@pytest.fixture(scope="module")
def corpus():
    return load_corpus()


@pytest.fixture(scope="module")
def accumulated(corpus):
    stats = CorpusStats()
    for c, _ in corpus:
        accumulate(stats, c)
    return stats


class TestAccumulate:
    def test_every_table_equals_naive_recount(self, corpus, accumulated):
        assert rendered_counts(accumulated) == naive_recount(corpus)
        lens = (1, 2, 6, 7, 20)
        assert rendered_counts(accumulated, lens) == naive_recount(corpus, lens)

    def test_event_total(self, accumulated):
        assert accumulated.event_count() == 50

    def test_prefix_totals_equal_event_count(self, accumulated):
        lens = tuple(range(1, 9))
        prefix_counts = rendered_counts(accumulated, lens)["prefix"]
        for n in lens:
            assert sum(c for key, c in prefix_counts.items() if key[0] == n) == 50

    def test_semantic_counts_sum_to_events(self, accumulated):
        assert sum(rendered_counts(accumulated)["semantics"].values()) == 50

    def test_catalog_preserved_bounded_by_instances(self, accumulated):
        for instances, preserved in rendered_counts(accumulated)["catalog"].values():
            assert 0 <= preserved <= instances

    def test_catalog_argument_is_tallied(self, corpus, accumulated):
        template = PatternTemplate((PosTag.VERB,), trailing_wildcard=True)
        catalog = [CatalogEntry("Leading verb", template)]
        expected = (
            sum(matches(template, old_p) + matches(template, new_p) for _, (old_p, new_p) in corpus),
            sum(matches(template, old_p) and matches(template, new_p)
                for _, (old_p, new_p) in corpus),
        )
        tally = rendered_counts(accumulated, catalog=catalog)["catalog"]
        assert tally == {"Leading verb": expected}
        assert expected[0] > 0

    def test_name_without_pattern_rejected(self):
        stats = CorpusStats()
        with pytest.raises(ValueError):
            accumulate(stats, classify(RenameEvent("_", "testFoo")))
        assert stats == CorpusStats()

    def test_pattern_pair_example(self):
        stats = CorpusStats()
        event = RenameEvent("testStringEncryption", "testStrongEncryption")
        c = classify(event)
        accumulate(stats, c)
        accumulate(stats, c)
        counts = rendered_counts(stats)
        assert counts["pairs"] == {("V NM N", "V NM N"): 2}
        assert counts["sem_by_pair"] == {("V NM N", "V NM N", "change"): 2}


class TestMerge:
    def test_identity(self, accumulated):
        merged = merge(CorpusStats(), accumulated)
        assert merged == accumulated

    def test_commutative_and_associative(self, corpus):
        third = len(corpus) // 3
        parts = [corpus[:third], corpus[third:2 * third], corpus[2 * third:]]
        shards = []
        for part in parts:
            s = CorpusStats()
            for c, _ in part:
                accumulate(s, c)
            shards.append(s)
        a, b, c = shards
        assert merge(a, b) == merge(b, a)
        assert merge(merge(a, b), c) == merge(a, merge(b, c))

    def test_random_partitions_match_single_pass(self, corpus, accumulated):
        rng = random.Random(20260810)
        for _ in range(100):
            assignment = [rng.randrange(2) for _ in corpus]
            shard_a, shard_b = CorpusStats(), CorpusStats()
            for pick, (c, _) in zip(assignment, corpus):
                accumulate(shard_a if pick == 0 else shard_b, c)
            assert merge(shard_a, shard_b) == accumulated


class TestTopK:
    def test_tie_break_lexicographic(self):
        rows, others = _top_k(Counter({"A": 3, "B": 3, "C": 1}), 2)
        assert rows == [("A", 3), ("B", 3)]
        assert others == 1

    def test_empty(self):
        rows, others = _top_k(Counter(), 3)
        assert rows == [] and others == 0

    def test_k_larger_than_map(self):
        rows, others = _top_k(Counter({"A": 1}), 9)
        assert rows == [("A", 1)] and others == 0

    def test_k_validated(self):
        with pytest.raises(ValueError):
            _top_k(Counter({"A": 1}), 0)

    def test_matches_naive_sort(self, corpus):
        counts = Counter(str(old_p) for _, (old_p, _) in corpus)
        rows, others = _top_k(counts, 5)
        ordered = sorted(counts.items(), key=lambda i: (-i[1], i[0]))
        assert rows == ordered[:5]
        assert others == sum(n for _, n in ordered[5:])


class TestRender:
    def test_single_event_is_hundred_percent(self):
        stats = CorpusStats()
        event = RenameEvent("testFoo", "testBar")
        accumulate(stats, classify(event))
        doc = render_table(stats, "pairs", "md")
        assert "100.00%" in doc

    def test_semantic_block_sums_to_hundred(self, accumulated):
        doc = json.loads(render_table(accumulated, "semantic", "json"))
        category_section = doc[0]
        total = sum(float(row[-1].rstrip("%")) for row in category_section["rows"])
        assert total == pytest.approx(100.0, abs=0.05)

    def test_percentages_recompute_from_counts(self, accumulated):
        doc = json.loads(render_table(accumulated, "full", "json", k=5))
        total = accumulated.event_count()
        for section in doc:
            for row in section["rows"]:
                count = int(row[-2])
                shown = float(row[-1].rstrip("%"))
                assert abs(shown - 100.0 * count / total) <= 0.01

    def test_unsupported_format_rejected(self, accumulated):
        with pytest.raises(ValueError):
            render_table(accumulated, "full", "xml")

    def test_unsupported_table_rejected(self, accumulated):
        with pytest.raises(ValueError):
            render_table(accumulated, "bogus", "md")

    @pytest.mark.parametrize("table", TABLE_KINDS)
    def test_k_below_one_rejected_for_every_table_and_any_stats(self, accumulated, table):
        for stats in (CorpusStats(), accumulated):
            with pytest.raises(ValueError, match="k must be >= 1"):
                render_table(stats, table, k=0)

    @pytest.mark.parametrize("prefix_lens", [(0,), (2, -1)])
    def test_prefix_length_below_one_rejected(self, accumulated, prefix_lens):
        with pytest.raises(ValueError, match="prefix length must be >= 1"):
            render_table(accumulated, "prefix", prefix_lens=prefix_lens)

    def test_term_pairs_without_events_read_zero_percent(self):
        stats = CorpusStats(term_pairs=Counter({("a", "b"): 1}))
        assert "| a | b | 1 | 0.00% |\n" in render_table(stats, "terms")

    def test_empty_stats_render_headers_only(self):
        assert render_table(CorpusStats(), "pairs", "md", k=1) == (
            "## Grammar pattern pairs\n\n"
            "| Old Pattern | New Pattern | Count | Percentage |\n"
            "| --- | --- | --- | --- |\n\n")

    @pytest.mark.parametrize("fmt", ["md", "csv", "json"])
    def test_golden_files(self, accumulated, fmt):
        """Every table kind in turn: md and csv concatenated, json as one
        array of their sections."""
        tables = [render_table(accumulated, table, fmt) for table in TABLE_KINDS]
        if fmt == "json":
            sections = [section for doc in tables for section in json.loads(doc)]
            got = json.dumps(sections, indent=2) + "\n"
        else:
            got = "".join(tables)
        assert got == (DATA / f"golden_report.{fmt}").read_text()

    def test_render_deterministic(self, accumulated):
        for table in TABLE_KINDS:
            assert render_table(accumulated, table) == render_table(accumulated, table)
