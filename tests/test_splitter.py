import pytest
from hypothesis import given, strategies as st

from testlens.splitter import InvalidIdentifierError, normalize, split


class TestSplitFixtures:
    def test_camel_case(self):
        assert split("testStringEncryption").surfaces() == ["test", "String", "Encryption"]

    def test_single_term_identity(self):
        assert split("x").surfaces() == ["x"]

    def test_digit_runs_and_separators(self):
        assert split("test15_6_5").surfaces() == ["test", "15", "6", "5"]

    def test_preamble_acronym_with_lowercase_word(self):
        assert split("IGNOREtestHttpsCheckOut").surfaces() == [
            "IGNORE", "test", "Https", "Check", "Out",
        ]

    def test_acronym_run_last_capital_starts_next_term(self):
        assert split("HTTPSServer").surfaces() == ["HTTPS", "Server"]

    def test_interior_acronym(self):
        assert split("XMLHttpRequest").surfaces() == ["XML", "Http", "Request"]

    def test_snake_case(self):
        assert split("test_get_NotExisting").surfaces() == ["test", "get", "Not", "Existing"]

    def test_dollar_separator(self):
        assert split("foo$bar").surfaces() == ["foo", "bar"]

    def test_same_case_run_never_split(self):
        # no dictionary-based splitting of flat words
        assert split("deleteindexNotExists").surfaces() == ["deleteindex", "Not", "Exists"]

    def test_plural_acronym_stays_one_term(self):
        assert split("testIDs").surfaces() == ["test", "IDs"]

    def test_separator_only_identifier_yields_no_terms(self):
        assert split("_").surfaces() == []
        assert split("$_$").surfaces() == []

    def test_spans_point_into_raw(self):
        seq = split("IGNOREtestHttpsCheckOut")
        for term in seq.terms:
            assert seq.raw[term.start:term.end] == term.surface

    def test_empty_rejected(self):
        with pytest.raises(InvalidIdentifierError):
            split("")

    def test_malformed_rejected(self):
        with pytest.raises(InvalidIdentifierError):
            split("foo-bar")
        with pytest.raises(InvalidIdentifierError):
            split("foo bar")


class TestNormalize:
    def test_lowercases(self):
        assert normalize("String") == "string"
        assert normalize("IGNORE") == "ignore"

    def test_digits_unchanged(self):
        assert normalize("15") == "15"

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            normalize("")


identifiers = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_$",
    min_size=1,
    max_size=24,
)

# letters, decimal and other digits (Arabic-Indic, superscripts, circled)
# and title-case letters: every class split tells apart
unicode_identifiers = st.text(
    alphabet=st.characters(categories=("Lu", "Ll", "Lt", "Lo", "Nd", "No"))
    | st.sampled_from("aZ09_$\u0663\u00b2\u2460\u01c5"),
    min_size=1,
    max_size=24,
).filter(lambda name: all(ch.isalpha() or ch.isdigit() or ch in "_$" for ch in name))


class TestSplitProperties:
    @given(identifiers)
    def test_reconstruction(self, name):
        seq = split(name)
        assert seq.reconstruct() == name

    @given(identifiers)
    def test_spans_non_overlapping_and_increasing(self, name):
        seq = split(name)
        pos = -1
        for term in seq.terms:
            assert term.start < term.end
            assert term.start > pos
            pos = term.end - 1
            assert seq.raw[term.start:term.end] == term.surface

    @given(identifiers)
    def test_digit_isolation(self, name):
        for term in split(name).surfaces():
            assert term.isdigit() or not any(ch.isdigit() for ch in term)

    @given(unicode_identifiers)
    def test_terms_are_all_digits_or_have_none(self, name):
        # lint's stem guard tests term.isdigit() alone and relies on this,
        # also for the normalized (lowercased) terms it actually reads
        seq = split(name)
        for term in seq.surfaces() + seq.normalized():
            assert term.isdigit() or not any(ch.isdigit() for ch in term)

    @given(identifiers)
    def test_idempotence_per_term(self, name):
        for term in split(name).surfaces():
            assert split(term).surfaces() == [term]

    @given(identifiers)
    def test_determinism(self, name):
        assert split(name) == split(name)

    @given(identifiers)
    def test_no_empty_terms(self, name):
        assert all(t for t in split(name).surfaces())
