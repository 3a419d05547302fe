"""The contract of the public value types: field equality and hashing,
immutability, keyword construction with defaults, and the checks the
validating constructors run. Also the cold-start import guard."""

import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import testlens
from testlens.config import Config
from testlens import extraction
from testlens.extraction import SourceFile, TokenStream, extract_methods, tokenize
from testlens.lint import Diagnostic, Rule
from testlens.patterns import CatalogEntry, CatalogOrigin, GrammarPattern, PatternTemplate
from testlens.rename import (
    FormCategory,
    RenameClassification,
    RenameEvent,
    SemanticCategory,
    TermRelation,
)
from testlens.renamedetect import FileVersionPair
from testlens.report import CorpusStats, CountedRename
from testlens.splitter import InvalidIdentifierError, Term, TermSequence, split
from testlens.tagger import Lexicon, PosTag, TaggedName

V, N, NM, D = PosTag.VERB, PosTag.NOUN, PosTag.NOUN_MODIFIER, PosTag.DIGIT

SRC = str(Path(testlens.__file__).parents[1])


def lexicon_fields(**changes) -> dict:
    fields = dict(
        prepositions=frozenset({"of"}), determiners=frozenset({"the", "no", "all"}),
        conjunctions=frozenset({"and"}), pronouns=frozenset({"it"}),
        adverbs=frozenset({"not", "when", "exactly"}), verbs=frozenset({"test"}),
        known_nouns=frozenset({"parser"}),
    )
    fields.update(changes)
    return fields


def _always(*_):
    return True


def _never(*_):
    return False


_STREAM = tokenize("class T { void a() { x(); } }")
_OTHER_STREAM = tokenize("class T { void a() { y(); } }")
_EVENT = RenameEvent("testOld", "testNew")

# per public value type: its fields, and the same fields with one changed
VALUES = {
    "Term": (Term, dict(surface="test", start=0, end=4), dict(end=5)),
    "TermSequence": (TermSequence, dict(raw="testFoo", terms=split("testFoo").terms),
                     dict(raw="test_Foo")),
    "Lexicon": (Lexicon, lexicon_fields(), dict(verbs=frozenset({"run"}))),
    "TaggedName": (TaggedName, dict(terms=split("testFoo"), tags=(V, N)),
                   dict(tags=(NM, N))),
    "GrammarPattern": (GrammarPattern, dict(tags=(V, N)), dict(tags=(V,))),
    "PatternTemplate": (PatternTemplate, dict(tags=(V,), trailing_wildcard=True),
                        dict(trailing_wildcard=False)),
    "CatalogEntry": (CatalogEntry,
                     dict(name="Verb", template=PatternTemplate((V,), trailing_wildcard=True)),
                     dict(origin=CatalogOrigin.WU_CLAUSE)),
    "RenameEvent": (RenameEvent, dict(old_name="testOld", new_name="testNew"),
                    dict(commit="abc123")),
    "RenameClassification": (
        RenameClassification,
        dict(event=_EVENT, form=FormCategory.SIMPLE, semantics=SemanticCategory.CHANGE,
             pairs=(("new", "old", TermRelation.UNRELATED),),
             old_pattern=GrammarPattern((V, N)), new_pattern=GrammarPattern((V, N))),
        dict(new_pattern=None)),
    "CountedRename": (CountedRename,
                      dict(old_pattern="V N", new_pattern="V N", form="simple",
                           semantics="change", term_pairs=(("new", "old"),)),
                      dict(semantics="preserve")),
    "TokenStream": (TokenStream, dict(texts=_STREAM.texts, ends=_STREAM.ends),
                    dict(texts=_OTHER_STREAM.texts)),
    "SourceFile": (SourceFile, dict(path="T.java", text="class T {}"), dict(text="")),
    "TestMethod": (extraction.TestMethod,
                   dict(name="a", annotations=(), file_tokens=_STREAM, body_range=(8, 11),
                        name_span=(15, 16), body_span=(19, 27)),
                   dict(file_tokens=_OTHER_STREAM)),
    "Rule": (Rule, dict(id="R9", trigger=_always, expectation=_always, message="m"),
             dict(expectation=_never)),
    "Diagnostic": (Diagnostic,
                   dict(rule_id="R1", method_name="a", file="T.java", name_span=(1, 2),
                        message="m", severity="warning"),
                   dict(severity="error")),
    "FileVersionPair": (FileVersionPair,
                        dict(before=SourceFile("B.java", "b"), after=SourceFile("A.java", "a")),
                        dict(after=SourceFile("A.java", "c"))),
    "Config": (Config, dict(threshold=0.7), dict(threshold=0.8)),
}


@pytest.mark.parametrize("name", sorted(VALUES))
class TestValueTypes:
    def test_equal_fields_equal_objects_and_hashes(self, name):
        cls, fields, _ = VALUES[name]
        a, b = cls(**fields), cls(**fields)
        assert a == b and not a != b
        assert hash(a) == hash(b)

    def test_different_fields_unequal(self, name):
        cls, fields, changes = VALUES[name]
        assert cls(**fields) != cls(**{**fields, **changes})

    def test_fields_read_back(self, name):
        cls, fields, _ = VALUES[name]
        value = cls(**fields)
        for field, given in fields.items():
            assert getattr(value, field) is given

    def test_assigning_an_attribute_raises(self, name):
        cls, fields, _ = VALUES[name]
        value = cls(**fields)
        for field in (*fields, "extra"):
            with pytest.raises(AttributeError):
                setattr(value, field, None)


class TestDefaults:
    def test_keyword_construction_fills_defaults(self):
        assert RenameEvent(old_name="testA", new_name="testB") == RenameEvent(
            "testA", "testB", None, None)
        assert PatternTemplate(tags=(V,)) == PatternTemplate((V,), False, False)
        assert CatalogEntry("Verb", PatternTemplate((V,))).origin is CatalogOrigin.EXTENDED
        assert Rule("R9", _always, _always, "m").severity == "warning"
        assert Config().threshold == 0.6 and Config().rules is None

    def test_token_stream_length_counts_tokens(self):
        assert len(_STREAM) == len(_STREAM.texts) == 14
        assert _STREAM.tokens is _STREAM.texts


class TestValidatingConstructors:
    """The five validating types raise the errors and messages they always did."""

    @pytest.mark.parametrize("build, error, message", [
        (lambda: GrammarPattern(()), ValueError,
         "grammar pattern must contain at least one tag"),
        (lambda: PatternTemplate(()), ValueError,
         "pattern template needs at least one concrete tag"),
        (lambda: RenameEvent("testA", "testA"), ValueError,
         "a rename requires the old and new names to differ"),
        (lambda: RenameEvent("", "testA"), InvalidIdentifierError, "identifier is empty"),
        (lambda: RenameEvent("testA", "test-B"), InvalidIdentifierError,
         "identifier 'test-B' contains unsupported character '-'"),
        (lambda: Lexicon(**lexicon_fields(verbs=frozenset({"Run"}))), ValueError,
         "lexicon verbs entries must be lowercase: ['Run']"),
        (lambda: Lexicon(**lexicon_fields(pronouns=frozenset({""}))), ValueError,
         "lexicon pronouns entries must be lowercase: ['']"),
        (lambda: Lexicon(**lexicon_fields(conjunctions=frozenset({"of"}))), ValueError,
         "closed-class lexicons overlap: ['of']"),
        (lambda: Lexicon(**lexicon_fields(adverbs=frozenset({"not"}))), ValueError,
         "adverb lexicon must contain at least: not, when, exactly"),
        (lambda: Lexicon(**lexicon_fields(determiners=frozenset({"the"}))), ValueError,
         "determiner lexicon must contain at least: the, no, all"),
        (lambda: TaggedName(split("testFoo"), (V,)), ValueError,
         "tag count must equal term count"),
        (lambda: TaggedName(split("test2"), (V, N)), ValueError,
         "digit tag mismatch on term '2'"),
        (lambda: TaggedName(split("testFoo"), (V, D)), ValueError,
         "digit tag mismatch on term 'Foo'"),
    ], ids=["pattern-empty", "template-empty", "event-same",
            "event-empty", "event-bad-char", "lexicon-case", "lexicon-empty-word",
            "lexicon-overlap", "lexicon-adverbs", "lexicon-determiners",
            "tagged-count", "tagged-digit", "tagged-non-digit"])
    def test_error_and_message(self, build, error, message):
        with pytest.raises(error) as raised:
            build()
        assert type(raised.value) is error
        assert str(raised.value) == message

    def test_missing_field_is_type_error(self):
        with pytest.raises(TypeError):
            RenameEvent(old_name="testA")
        with pytest.raises(TypeError):
            Lexicon(**{k: v for k, v in lexicon_fields().items() if k != "verbs"})


class TestCorpusStats:
    def test_instances_do_not_share_counters(self):
        a, b = CorpusStats(), CorpusStats()
        assert a.events is not b.events and a.term_pairs is not b.term_pairs
        a.events["k"] += 1
        a.term_pairs["p"] += 1
        assert b == CorpusStats() and a != b

    def test_equality_by_counters(self):
        assert CorpusStats(Counter(a=1), Counter(b=2)) == CorpusStats(Counter(a=1), Counter(b=2))
        assert CorpusStats(Counter(a=1)) != CorpusStats(Counter(a=2))
        assert CorpusStats() != Counter()

    def test_mutable_and_unhashable(self):
        stats = CorpusStats()
        stats.events = Counter(a=1)
        assert stats.event_count() == 1
        with pytest.raises(TypeError):
            hash(stats)


def test_test_method_repr_leaves_out_file_tokens():
    [method] = extract_methods(SourceFile("T.java", "class T { void a() { x(); } }"))
    text = repr(method)
    assert text == ("TestMethod(name='a', annotations=(), body_range=(8, 12), "
                    "name_span=(15, 16), body_span=(19, 27))")
    assert "file_tokens" not in text and "'x'" not in text


def test_every_public_name_imports():
    namespace = {}
    exec("from testlens import *", namespace)
    assert set(testlens.__all__) <= set(namespace)


def test_cli_import_loads_no_dataclasses_machinery():
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, testlens.cli; "
         "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"],
        capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")
