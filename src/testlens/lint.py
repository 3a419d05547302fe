"""Name-versus-body consistency rules for test methods.

Each rule pairs a trigger on the tagged method name with an expectation on
the method body tokens: a name that promises failing assertions, boolean
asserts, null checks, collection handling, or exception handling should
have a body that shows it.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from .extraction import TestMethod, TokenKind
from .rename import stem
from .tagger import PosTag, TaggedName

DEFAULT_COLLECTION_VOCABULARY = ("List", "Map", "Set", "Collection", "Iterable")

_FAIL_FORMS = frozenset({"fail", "fails", "failure", "failing"})


class Rule(NamedTuple):
    """A lint rule. A trigger sees only the name: its normalized terms and
    their tags. An expectation sees the method body, plus the normalized
    terms, so it can mirror the exact terms that fired."""

    id: str
    trigger: Callable[[tuple[str, ...], tuple[PosTag, ...]], bool]
    expectation: Callable[[TestMethod, tuple[str, ...]], bool]
    message: str
    severity: str = "warning"


class Diagnostic(NamedTuple):
    rule_id: str
    method_name: str
    file: str
    name_span: tuple[int, int]
    message: str
    severity: str


_VERB_MODIFIER, _DETERMINER = PosTag.VERB_MODIFIER, PosTag.DETERMINER


def _stem_safe(term: str) -> str:
    # split puts digits in runs of their own: a term is all digits or has none
    if term.isdigit():
        return term
    return stem(term)


# Only a word token's text can equal an identifier (literals keep their quotes, numbers
# start with a digit, punctuation is one non-word character), so texts alone decide.
def _has_word(method: TestMethod, word: str) -> bool:
    return word in method.body_tokens.texts


# R1: a "fail" term promises an explicit fail(...) call

def _r1_trigger(terms: tuple[str, ...], tags: tuple[PosTag, ...]) -> bool:
    return any(t in _FAIL_FORMS or _stem_safe(t) == "fail" for t in terms)


def _r1_expectation(method: TestMethod, terms: tuple[str, ...]) -> bool:
    texts = method.body_tokens.texts
    return ("fail", "(") in zip(texts, texts[1:])


# R2: "true"/"false" terms promise the matching boolean assert

def _r2_trigger(terms: tuple[str, ...], tags: tuple[PosTag, ...]) -> bool:
    return "true" in terms or "false" in terms


def _r2_expectation(method: TestMethod, terms: tuple[str, ...]) -> bool:
    if "true" in terms and not _has_word(method, "assertTrue"):
        return False
    if "false" in terms and not _has_word(method, "assertFalse"):
        return False
    return True


# R3: an adverbial "not" promises null-based checking

def _r3_trigger(terms: tuple[str, ...], tags: tuple[PosTag, ...]) -> bool:
    return "not" in terms and ("not", _VERB_MODIFIER) in zip(terms, tags)


def _make_r3_expectation(allow_boolean: bool) -> Callable[[TestMethod, tuple[str, ...]], bool]:
    def expectation(method: TestMethod, terms: tuple[str, ...]) -> bool:
        if _has_word(method, "assertNull") or _has_word(method, "assertNotNull"):
            return True
        if allow_boolean and (
            _has_word(method, "assertTrue") or _has_word(method, "assertFalse")
        ):
            return True
        return False

    return expectation


# R4: "all" (or the phrases "all of"/"at least") promises collection-based data

def _r4_trigger(terms: tuple[str, ...], tags: tuple[PosTag, ...]) -> bool:
    if "all" in terms and (("all", _DETERMINER) in zip(terms, tags)
                           or ("all", "of") in zip(terms, terms[1:])):
        return True
    return "at" in terms and ("at", "least") in zip(terms, terms[1:])


def _make_r4_expectation(
        vocabulary: tuple[str, ...]) -> Callable[[TestMethod, tuple[str, ...]], bool]:
    vocab = frozenset(vocabulary)

    def expectation(method: TestMethod, terms: tuple[str, ...]) -> bool:
        body = method.body_tokens
        return "[" in body.texts or any(
            kind is TokenKind.WORD for kind, text in zip(body.kinds, body.texts) if text in vocab
        )

    return expectation


# R5: an "exception" term promises expected-exception handling

def _r5_trigger(terms: tuple[str, ...], tags: tuple[PosTag, ...]) -> bool:
    return any(_stem_safe(t) == "except" for t in terms)


def _assertion_token(texts: tuple[str, ...], i: int) -> bool:
    if texts[i].startswith(("assert", "Assert")):
        return True
    return texts[i] == "fail" and i + 1 < len(texts) and texts[i + 1] == "("


def _r5_expectation(method: TestMethod, terms: tuple[str, ...]) -> bool:
    if any("expected" in annotation for annotation in method.annotations):
        return True
    texts = method.body_tokens.texts
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
            elif depth > 0 and _assertion_token(texts, k):
                return True
    return False


def default_rules(
    collection_vocabulary: tuple[str, ...] = DEFAULT_COLLECTION_VOCABULARY,
    not_rule_boolean_asserts: bool = False,
) -> tuple[Rule, ...]:
    """The five bundled rules, R1 through R5."""
    return (
        Rule("R1", _r1_trigger, _r1_expectation,
             "name mentions failing but the body never calls fail()"),
        Rule("R2", _r2_trigger, _r2_expectation,
             "name mentions true/false but the matching boolean assert is missing"),
        Rule("R3", _r3_trigger, _make_r3_expectation(not_rule_boolean_asserts),
             "name contains adverbial 'not' but the body has no null-based assert"),
        Rule("R4", _r4_trigger, _make_r4_expectation(tuple(collection_vocabulary)),
             "name quantifies over all items but the body references no collection"),
        Rule("R5", _r5_trigger, _r5_expectation,
             "name mentions an exception but the body neither expects nor catches one"),
    )


def lint(
    method: TestMethod,
    name: TaggedName,
    rules: tuple[Rule, ...],
    file: str = "",
) -> list[Diagnostic]:
    """One diagnostic per rule whose trigger fires and whose expectation fails."""
    terms = tuple(name.terms.normalized())
    diagnostics: list[Diagnostic] = []
    for rule in rules:
        if rule.trigger(terms, name.tags) and not rule.expectation(method, terms):
            diagnostics.append(
                Diagnostic(
                    rule_id=rule.id,
                    method_name=method.name,
                    file=file,
                    name_span=method.name_span,
                    message=rule.message,
                    severity=rule.severity,
                )
            )
    return diagnostics
