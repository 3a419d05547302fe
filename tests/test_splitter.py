from itertools import groupby

import pytest
from hypothesis import given, settings, strategies as st

from testlens import _data
from testlens.splitter import (
    InvalidIdentifierError,
    Term,
    TermSequence,
    normalize,
    split,
    validate_identifier,
)


def _char_class(ch: str) -> str:
    if ch.isdigit():
        return "digit"
    if ch.isupper():
        return "upper"
    return "lower"


def _split_segment(raw: str, runs: list[tuple[str, int, int]], words: frozenset[str]) -> list[Term]:
    """Terms of one separator-free segment from its maximal class runs."""
    terms: list[Term] = []

    def emit(start: int, end: int) -> None:
        terms.append(Term(raw[start:end], start, end))

    i = 0
    while i < len(runs):
        kind, start, end = runs[i]
        nxt = runs[i + 1] if i + 1 < len(runs) else None
        if kind == "upper" and nxt is not None and nxt[0] == "lower":
            _, lo_start, lo_end = nxt
            lower_text = raw[lo_start:lo_end]
            if end - start == 1:
                # single capital starts a capitalized word: "String"
                emit(start, lo_end)
            elif lower_text == "s":
                # plural acronym: "IDs", "URLs"
                emit(start, lo_end)
            elif lower_text in words:
                # acronym or preamble followed by a real lowercase word
                emit(start, end)
                emit(lo_start, lo_end)
            else:
                # last capital of the run begins the next word: "HTTPSServer"
                emit(start, end - 1)
                emit(end - 1, lo_end)
            i += 2
        else:
            emit(start, end)
            i += 1
    return terms


def reference_split(name: str) -> TermSequence:
    """Per-character reference: cut segments at separators, group each
    segment's characters into maximal runs of one class, then apply the
    acronym rules run by run."""
    words = _data.common_words()
    terms = []
    seg_start = 0
    for i in range(len(name) + 1):
        if i == len(name) or name[i] in "_$":
            if i > seg_start:
                runs, offset = [], seg_start
                for kind, chars in groupby(name[seg_start:i], _char_class):
                    end = offset + len(list(chars))
                    runs.append((kind, offset, end))
                    offset = end
                terms.extend(_split_segment(name, runs, words))
            seg_start = i + 1
    return TermSequence(name, tuple(terms))


def surfaces(name: str) -> list[str]:
    return [t.surface for t in split(name).terms]


class TestSplitFixtures:
    def test_camel_case(self):
        assert surfaces("testStringEncryption") == ["test", "String", "Encryption"]

    def test_single_term_identity(self):
        assert surfaces("x") == ["x"]

    def test_digit_runs_and_separators(self):
        assert surfaces("test15_6_5") == ["test", "15", "6", "5"]

    def test_preamble_acronym_with_lowercase_word(self):
        assert surfaces("IGNOREtestHttpsCheckOut") == [
            "IGNORE", "test", "Https", "Check", "Out",
        ]

    def test_acronym_run_last_capital_starts_next_term(self):
        assert surfaces("HTTPSServer") == ["HTTPS", "Server"]

    def test_interior_acronym(self):
        assert surfaces("XMLHttpRequest") == ["XML", "Http", "Request"]

    def test_snake_case(self):
        assert surfaces("test_get_NotExisting") == ["test", "get", "Not", "Existing"]

    def test_dollar_separator(self):
        assert surfaces("foo$bar") == ["foo", "bar"]

    def test_same_case_run_never_split(self):
        # no dictionary-based splitting of flat words
        assert surfaces("deleteindexNotExists") == ["deleteindex", "Not", "Exists"]

    def test_plural_acronym_stays_one_term(self):
        assert surfaces("testIDs") == ["test", "IDs"]

    def test_separator_only_identifier_yields_no_terms(self):
        assert surfaces("_") == []
        assert surfaces("$_$") == []

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


# runs the acronym rules see: upper runs (ASCII and not) before lower-case
# text and common words, title-case letters, and non-decimal digits
_COMMON_WORDS = sorted(_data.common_words())
composed_identifiers = st.lists(
    st.one_of(
        st.text(st.characters(categories=("Lu",)) | st.sampled_from("AZÉẞǄΣ"),
                min_size=1, max_size=4),
        st.text(st.characters(categories=("Ll", "Lo")) | st.sampled_from("azéßσ一"),
                min_size=1, max_size=3),
        st.sampled_from(_COMMON_WORDS).map(lambda w: w.capitalize() if len(w) % 3 == 0 else w),
        st.characters(categories=("Lt",)) | st.sampled_from("ǅǈǋǲ"),
        st.sampled_from("²³¹⁴①⑨"),
        st.text("0123456789٣", min_size=1, max_size=3),
        st.just("s"),
        st.sampled_from("_$"),
    ),
    min_size=1,
    max_size=6,
).map("".join).filter(lambda name: all(ch.isalpha() or ch.isdigit() or ch in "_$" for ch in name))


class TestValidateIdentifier:
    @given(st.text(alphabet=st.sampled_from("aZ09_$-. \n\t\u00e9\u00bd\u00b2\u0663\u2460\u01c5")
                   | st.characters(), max_size=12))
    @settings(max_examples=500)
    def test_accepts_exactly_letters_digits_and_separators(self, text):
        valid = bool(text) and all(ch.isalpha() or ch.isdigit() or ch in "_$" for ch in text)
        if valid:
            assert validate_identifier(text) is text
        else:
            with pytest.raises(InvalidIdentifierError):
                validate_identifier(text)


class TestSplitProperties:
    @given(identifiers)
    def test_reconstruction(self, name):
        """The term spans, with the separators between them, rebuild the name."""
        pieces, pos = [], 0
        for term in split(name).terms:
            assert set(name[pos:term.start]) <= set("_$")
            pieces += [name[pos:term.start], term.surface]
            pos = term.end
        assert set(name[pos:]) <= set("_$")
        assert "".join(pieces) + name[pos:] == name

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
        for term in surfaces(name):
            assert term.isdigit() or not any(ch.isdigit() for ch in term)

    @given(unicode_identifiers)
    def test_terms_are_all_digits_or_have_none(self, name):
        # lint's stem guard tests term.isdigit() alone and relies on this,
        # also for the normalized (lowercased) terms it actually reads
        seq = split(name)
        for term in [t.surface for t in seq.terms] + seq.normalized():
            assert term.isdigit() or not any(ch.isdigit() for ch in term)

    @given(identifiers | unicode_identifiers | composed_identifiers)
    @settings(max_examples=1000)
    def test_equals_per_character_reference(self, name):
        assert split(name) == reference_split(name)

    @given(identifiers)
    def test_idempotence_per_term(self, name):
        for term in surfaces(name):
            assert surfaces(term) == [term]

    @given(identifiers)
    def test_determinism(self, name):
        assert split(name) == split(name)

    @given(identifiers)
    def test_no_empty_terms(self, name):
        assert all(t for t in surfaces(name))
