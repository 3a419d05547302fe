import json

import pytest
from hypothesis import given, strategies as st

from testlens.patterns import (
    CatalogOrigin,
    GrammarPattern,
    PatternTemplate,
    catalog_match,
    default_catalog,
    load_catalog,
    matches,
    pattern_of,
    prefix,
)
from testlens.splitter import split
from testlens.tagger import PosTag, tag

V = PosTag.VERB
N = PosTag.NOUN
NM = PosTag.NOUN_MODIFIER
P = PosTag.PREPOSITION
VM = PosTag.VERB_MODIFIER
D = PosTag.DIGIT


def gp(text: str) -> GrammarPattern:
    return GrammarPattern.parse(text)


class TestPatternOf:
    def test_returns_tags_verbatim(self):
        tagged = tag(split("testStringEncryption"))
        assert str(pattern_of(tagged)) == "V NM N"

    def test_single_verb(self):
        assert str(pattern_of(tag(split("setup")))) == "V"

    def test_noun(self):
        assert str(pattern_of(tag(split("main")))) == "N"

    def test_round_trips_through_parse(self):
        p = gp("V NM NM N")
        assert GrammarPattern.parse(str(p)) == p

    def test_empty_pattern_rejected(self):
        with pytest.raises(ValueError):
            GrammarPattern(())

    def test_unknown_tag_rejected(self):
        with pytest.raises(ValueError):
            GrammarPattern.parse("V XYZ")


class TestPrefix:
    def test_definition(self):
        assert str(prefix(gp("V NM NM N"), 2)) == "V NM"

    def test_full_length(self):
        assert str(prefix(gp("V V NM N P"), 5)) == "V V NM N P"

    def test_k_exceeding_length_caps(self):
        assert str(prefix(gp("V"), 3)) == "V"

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            prefix(gp("V"), 0)


class TestMatches:
    def test_trailing_wildcard_empty_suffix(self):
        t = PatternTemplate((V, V), trailing_wildcard=True)
        assert matches(t, gp("V V"))

    def test_trailing_wildcard_longer(self):
        t = PatternTemplate((V, V, N), trailing_wildcard=True)
        assert matches(t, gp("V V N P N"))

    def test_containment(self):
        t = PatternTemplate((VM,), leading_wildcard=True, trailing_wildcard=True)
        assert matches(t, gp("V V VM V"))
        assert not matches(t, gp("V V"))

    def test_prefix_mismatch(self):
        t = PatternTemplate((V, N, V, N), trailing_wildcard=True)
        assert not matches(t, gp("V NM N"))

    def test_exact_template(self):
        t = PatternTemplate((N,))
        assert matches(t, gp("N"))
        assert not matches(t, gp("N V"))

    def test_leading_wildcard(self):
        t = PatternTemplate((N,), leading_wildcard=True)
        assert matches(t, gp("V N"))
        assert not matches(t, gp("N V"))

    def test_containment_requires_wildcards(self, tmp_path):
        path = tmp_path / "catalog.json"
        for wildcards in ({}, {"leading_wildcard": True}, {"trailing_wildcard": True}):
            path.write_text(json.dumps([{"name": "Not", "tags": ["VM"], "containment": True,
                                         **wildcards}]))
            with pytest.raises(ValueError, match="containment templates imply wildcards"):
                load_catalog(str(path))

    def test_needs_concrete_tag(self):
        with pytest.raises(ValueError):
            PatternTemplate(())


class TestCatalog:
    def test_default_catalog_is_a_fresh_list(self):
        first = default_catalog()
        first.clear()
        assert default_catalog()

    def test_bundled_catalog_names_unique(self):
        names = [e.name for e in default_catalog()]
        assert len(names) == len(set(names))

    def test_v_v_matches_only_is_and_past(self):
        hits = catalog_match(gp("V V"), default_catalog())
        assert [e.name for e in hits] == ["Is and Past Principle Phrase"]

    def test_specificity_ordering_on_preposition_pattern(self):
        hits = catalog_match(gp("V V N P N"), default_catalog())
        names = [e.name for e in hits]
        # hand count of concrete tags: 4 > 3 > 2
        assert names[0] == "V V N P+"
        assert names[1] == "Dual Verb Phrase"
        assert names == ["V V N P+", "Dual Verb Phrase", "Is and Past Principle Phrase"]

    def test_bare_digit_matches_nothing(self):
        assert catalog_match(gp("D"), default_catalog()) == []

    def test_empty_catalog_rejected(self):
        with pytest.raises(ValueError):
            catalog_match(gp("V"), [])

    def test_origins(self):
        by_name = {e.name: e for e in default_catalog()}
        assert by_name["Noun Phrase"].origin is CatalogOrigin.WU_CLAUSE
        assert by_name["+DT+"].origin is CatalogOrigin.EXTENDED

    def test_every_template_covered_by_a_fixture_name(self):
        """Each bundled template matches at least one annotated name."""
        fixtures = [
            "testGetActions",            # V V+
            "testFindResourceByName",    # V V N+
            "testFormUploadLargerFile",  # V N V+
            "testUidFetchBodyPeek",      # V N V N+
            "main",                      # N
            "testEmployeeLastName",      # V NM NM N
            "testReadFileFromClasspath", # V V N P+
            "projectClosed",             # N V+
            "test_get_NotExisting",      # +VM+
            "findAllWithGivenIds",       # +DT+
        ]
        patterns = [pattern_of(tag(split(name))) for name in fixtures]
        for entry in default_catalog():
            assert any(matches(entry.template, p) for p in patterns), entry.name


tags_strategy = st.lists(st.sampled_from(list(PosTag)), min_size=1, max_size=8)


VALID_ENTRY = {"name": "Verb Start", "tags": ["V"], "trailing_wildcard": True}

# (catalog JSON, the one ValueError message loading it gives)
MALFORMED_CATALOGS = {
    "flag-as-string": ([{"name": "Verb", "tags": ["V"], "trailing_wildcard": "false"}],
                       "catalog entry 0: trailing_wildcard must be true or false"),
    "leading-flag-as-number": ([VALID_ENTRY, {"name": "Noun", "tags": ["N"],
                                              "leading_wildcard": 1}],
                               "catalog entry 1: leading_wildcard must be true or false"),
    "containment-as-null": ([{"name": "Not", "tags": ["VM"], "containment": None}],
                            "catalog entry 0: containment must be true or false"),
    "contain-one-side": ([VALID_ENTRY, {"name": "Not", "tags": ["VM"], "containment": True,
                                        "trailing_wildcard": True}],
                         "catalog entry 1: containment templates imply wildcards on both sides"),
    "tags-as-string": ([{"name": "Verb Noun", "tags": "VN"}],
                       "catalog entry 0: tags must be an array of strings"),
    "tags-missing": ([{"name": "Verb"}], "catalog entry 0: tags must be an array of strings"),
    "tag-unknown": ([{"name": "Verb", "tags": ["X"]}],
                    "catalog entry 0: tags: unknown POS tag 'X'"),
    "catalog-as-object": (VALID_ENTRY, "a catalog must be a JSON array of entries"),
    "entry-as-string": (["Verb Start"], "catalog entry 0: must be a JSON object"),
    "name-missing": ([VALID_ENTRY, {"tags": ["N"]}], "catalog entry 1: name must be a string"),
    "name-as-number": ([{"name": 7, "tags": ["N"]}], "catalog entry 0: name must be a string"),
    "origin-unknown": ([{"name": "Verb", "tags": ["V"], "origin": "mined"}],
                       "catalog entry 0: origin: 'mined' is not a valid CatalogOrigin"),
}


class TestLoadCatalog:
    def test_entry_fields_and_defaults(self, tmp_path):
        path = tmp_path / "catalog.json"
        path.write_text(json.dumps([VALID_ENTRY, {"name": "Not", "tags": ["VM"],
                                                  "leading_wildcard": True,
                                                  "trailing_wildcard": True,
                                                  "containment": True,
                                                  "origin": "wu_clause"}]))
        first, second = load_catalog(str(path))
        assert (first.name, first.template, first.origin) == (
            "Verb Start", PatternTemplate((V,), trailing_wildcard=True), CatalogOrigin.EXTENDED)
        assert second.template == PatternTemplate((VM,), True, True)
        assert second.origin is CatalogOrigin.WU_CLAUSE

    @pytest.mark.parametrize("case", sorted(MALFORMED_CATALOGS))
    def test_malformed_catalog_names_entry_and_field(self, tmp_path, case):
        raw, message = MALFORMED_CATALOGS[case]
        path = tmp_path / "catalog.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(ValueError) as raised:
            load_catalog(str(path))
        assert type(raised.value) is ValueError
        assert str(raised.value) == message


class TestPatternProperties:
    @given(tags_strategy, st.integers(min_value=1, max_value=10))
    def test_prefix_is_prefix(self, tags, k):
        p = GrammarPattern(tuple(tags))
        q = prefix(p, k)
        assert len(q.tags) == min(k, len(p.tags))
        assert p.tags[: len(q.tags)] == q.tags

    @given(tags_strategy)
    def test_catalog_match_deterministic(self, tags):
        p = GrammarPattern(tuple(tags))
        catalog = default_catalog()
        assert catalog_match(p, catalog) == catalog_match(p, catalog)
