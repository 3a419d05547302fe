"""Name-versus-body consistency rules for test methods.

Each rule pairs a trigger on the tagged method name with an expectation on
the method body tokens: a name that promises failing assertions, boolean
asserts, null checks, collection handling, or exception handling should
have a body that shows it.
"""

from __future__ import annotations

import re
from typing import Callable, NamedTuple

from .extraction import TestMethod, _shape
from .rename import stem
from .tagger import PosTag, TaggedName

DEFAULT_COLLECTION_VOCABULARY = ("List", "Map", "Set", "Collection", "Iterable")

_FAIL_FORMS = frozenset({"fail", "fails", "failure", "failing"})


class Rule(NamedTuple):
    """A lint rule. A trigger sees only the name: its normalized terms and
    their tags. An expectation sees the method body, plus the normalized
    terms, so it can mirror the exact terms that fired. ``cues`` are
    lowercase strings, one of which the lowercased method name holds
    whenever the trigger fires; None means the rule may fire on any name."""

    id: str
    trigger: Callable[[tuple[str, ...], tuple[PosTag, ...]], bool]
    expectation: Callable[[TestMethod, tuple[str, ...]], bool]
    message: str
    cues: tuple[str, ...] | None = None


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


# R1: a "fail" term promises an explicit fail(...) call

def _r1_trigger(terms: tuple[str, ...], tags: tuple[PosTag, ...]) -> bool:
    return any(t in _FAIL_FORMS or _stem_safe(t) == "fail" for t in terms)


def _r1_expectation(method: TestMethod, terms: tuple[str, ...]) -> bool:
    body = method.body
    return ("fail", "(") in zip(body, body[1:])


# R2: "true"/"false" terms promise the matching boolean assert. Only a word
# token's text can equal an identifier (literals keep their quotes, numbers
# start with a digit, punctuation is one non-word character), so R2 and R3
# look the assert up among the body's texts.

def _r2_trigger(terms: tuple[str, ...], tags: tuple[PosTag, ...]) -> bool:
    return "true" in terms or "false" in terms


def _r2_expectation(method: TestMethod, terms: tuple[str, ...]) -> bool:
    body = method.body
    if "true" in terms and "assertTrue" not in body:
        return False
    return "false" not in terms or "assertFalse" in body


# R3: an adverbial "not" promises null-based checking

def _r3_trigger(terms: tuple[str, ...], tags: tuple[PosTag, ...]) -> bool:
    return "not" in terms and ("not", _VERB_MODIFIER) in zip(terms, tags)


def _make_r3_expectation(allow_boolean: bool) -> Callable[[TestMethod, tuple[str, ...]], bool]:
    def expectation(method: TestMethod, terms: tuple[str, ...]) -> bool:
        body = method.body
        if "assertNull" in body or "assertNotNull" in body:
            return True
        return allow_boolean and ("assertTrue" in body or "assertFalse" in body)

    return expectation


# R4: "all", a determiner in every valid lexicon, or "at least" promises collection-based data

def _r4_trigger(terms: tuple[str, ...], tags: tuple[PosTag, ...]) -> bool:
    if "all" in terms and ("all", _DETERMINER) in zip(terms, tags):
        return True
    return "at" in terms and ("at", "least") in zip(terms, terms[1:])


def _make_r4_expectation(
        vocabulary: tuple[str, ...]) -> Callable[[TestMethod, tuple[str, ...]], bool]:
    # only a word token can match, and a token is a word by its first
    # character alone: keep the entries that start as a word does
    vocab = frozenset(v for v in vocabulary if v and _shape((v,)) == "w")

    def expectation(method: TestMethod, terms: tuple[str, ...]) -> bool:
        body = method.body
        return "[" in body or not vocab.isdisjoint(body)

    return expectation


# R5: an "exception" term promises expected-exception handling

def _r5_trigger(terms: tuple[str, ...], tags: tuple[PosTag, ...]) -> bool:
    return any(_stem_safe(t) == "except" for t in terms)


def _assertion_token(texts: tuple[str, ...], i: int) -> bool:
    if texts[i].startswith(("assert", "Assert")):
        return True
    return texts[i] == "fail" and i + 1 < len(texts) and texts[i + 1] == "("


def _r5_expectation(method: TestMethod, terms: tuple[str, ...]) -> bool:
    """An assertion strictly inside a catch block: the block that opens at
    the first '{' after a `catch` and closes at that brace's partner, or
    runs to the end of the body if it never closes. One pass pairs the
    braces on a stack of flags, one per open '{' that starts a catch
    block, so a token is inside while any flag on the stack is set."""
    if any("expected" in annotation for annotation in method.annotations):
        return True
    body = method.body
    if "catch" not in body:
        return False
    texts = tuple(body)  # indexed below, which a tuple does faster than a view
    opens_catch_block, open_catch_blocks, stack = False, 0, []
    for k, text in enumerate(texts):
        if text == "{":
            stack.append(opens_catch_block)
            open_catch_blocks += opens_catch_block
            opens_catch_block = False
        elif text == "}":
            if stack:
                open_catch_blocks -= stack.pop()
        elif text == "catch":
            opens_catch_block = True
        elif open_catch_blocks and _assertion_token(texts, k):
            return True
    return False


def default_rules(
    collection_vocabulary: tuple[str, ...] = DEFAULT_COLLECTION_VOCABULARY,
    not_rule_boolean_asserts: bool = False,
) -> tuple[Rule, ...]:
    """The five bundled rules, R1 through R5. Each cue is a word that a
    term must hold for the trigger to fire, and a term's lowercased text is
    a slice of the lowercased name; a term that stems to "fail" or "except"
    holds the word, since the stemmer rewrites only what follows it."""
    return (
        Rule("R1", _r1_trigger, _r1_expectation,
             "name mentions failing but the body never calls fail()", ("fail",)),
        Rule("R2", _r2_trigger, _r2_expectation,
             "name mentions true/false but the matching boolean assert is missing",
             ("true", "false")),
        Rule("R3", _r3_trigger, _make_r3_expectation(not_rule_boolean_asserts),
             "name contains adverbial 'not' but the body has no null-based assert", ("not",)),
        Rule("R4", _r4_trigger, _make_r4_expectation(tuple(collection_vocabulary)),
             "name quantifies over all items but the body references no collection",
             ("all", "least")),
        Rule("R5", _r5_trigger, _r5_expectation,
             "name mentions an exception but the body neither expects nor catches one",
             ("except",)),
    )


def cue_filter(rules: tuple[Rule, ...]) -> Callable[[str], bool]:
    """A test of a method name that is False only when no rule of ``rules``
    can fire on it: its lowercased text holds no cue of any of them."""
    if any(rule.cues is None for rule in rules):
        return lambda name: True
    cues = sorted({cue for rule in rules for cue in rule.cues})
    if not cues:
        return lambda name: False
    search = re.compile("|".join(map(re.escape, cues))).search
    return lambda name: search(name.lower()) is not None


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
                    severity="warning",
                )
            )
    return diagnostics
