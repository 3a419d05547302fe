"""Tolerant extraction of test methods from Java-style source text.

One regex pass tokenizes the source (comments dropped, string literals
kept as single tokens) and one stack pass pairs its parentheses and
braces; then a signature heuristic finds method declarations and captures
their brace-balanced bodies. No compiler front-end is involved, so
non-compiling snapshots still scan, in time linear in the token count.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple


class TokenKind(Enum):
    WORD = "word"
    PUNCTUATION = "punctuation"
    STRING = "string-literal"
    NUMBER = "number"


class Token(NamedTuple):
    kind: TokenKind
    text: str
    start: int
    end: int


@dataclass(frozen=True)
class TokenStream:
    tokens: tuple[Token, ...]


@dataclass(frozen=True)
class SourceFile:
    path: str
    text: str


@dataclass(frozen=True)
class TestMethod:
    name: str
    annotations: tuple[str, ...]
    body_tokens: TokenStream
    name_span: tuple[int, int]
    body_span: tuple[int, int]


class PartialParseError(Exception):
    """Unbalanced braces at end of input; carries the methods recovered so far."""

    def __init__(self, message: str, methods: list[TestMethod]):
        super().__init__(message)
        self.methods = methods


# Whitespace and comments, then one token whose group number indexes
# _GROUP_KINDS. Unterminated comments and literals run to the end of the text.
# The empty last alternative takes trailing whitespace, so no match fails.
_TOKEN_RE = re.compile(
    r"""
    (?: \s+ | //[^\n]* | /\*(?:.*?\*/|.*) )*
    (?: ( "[^"\\]*(?:\\.[^"\\]*)*(?:"|\\?\Z) | '[^'\\]*(?:\\.[^'\\]*)*(?:'|\\?\Z) )
      | ( [A-Za-z_$][A-Za-z0-9_$]* )
      | ( \d[\w.]* )
      | ( \S )
      | \Z
    )""",
    re.DOTALL | re.VERBOSE,
)
_GROUP_KINDS = (None, TokenKind.STRING, TokenKind.WORD, TokenKind.NUMBER, TokenKind.PUNCTUATION)

_MODIFIERS = frozenset({
    "public", "private", "protected", "static", "final", "abstract",
    "synchronized", "native", "strictfp", "default", "transient", "volatile",
})

# words that look like `name (` but never start a method declaration
_NOT_METHOD_NAMES = frozenset({
    "if", "for", "while", "switch", "catch", "do", "else", "try", "return",
    "new", "super", "this", "assert", "throw", "synchronized",
})

# words that cannot be a return type right before a method name; after
# `record` the name and parameters are a record header
_NOT_RETURN_TYPES = _MODIFIERS | _NOT_METHOD_NAMES | {"record"}

_OPENER_OF = {")": "(", "}": "{"}
_TYPE_OPENER_OF = {">": "<", "]": "["}
# punctuation that can appear in a type (`@` starts a type annotation); any
# other punctuation, a literal or a number ends a type back-scan
_TYPE_PUNCT = frozenset({".", ",", "?", "&", "<", ">", "[", "]", "@"})


def tokenize(text: str) -> TokenStream:
    """Lex Java-ish source. Comments are skipped; literals are single tokens."""
    return TokenStream(tuple([
        Token(_GROUP_KINDS[g], m[g], m.start(g), m.end())
        for m in _TOKEN_RE.finditer(text)
        if (g := m.lastindex)
    ]))


def _pair_brackets(tokens: tuple[Token, ...]) -> list[int | None]:
    """Index of the partner of every matched '(' ')' '{' '}', else None.

    One stack per bracket kind, so a ')' never closes a '{': each pair is
    the one a depth count over that kind alone finds.
    """
    partner: list[int | None] = [None] * len(tokens)
    stacks: dict[str, list[int]] = {"(": [], "{": []}
    for i, tok in enumerate(tokens):
        text = tok.text
        if text in stacks:
            stacks[text].append(i)
        elif text in _OPENER_OF:
            stack = stacks[_OPENER_OF[text]]
            if stack:
                j = stack.pop()
                partner[i], partner[j] = j, i
    return partner


def _annotation_at(tokens: tuple[Token, ...], partner: list[int | None], close: int) -> int | None:
    """Index of the '@' of the annotation whose argument list ends at ``close``."""
    open_idx = partner[close]
    if (
        open_idx is not None
        and open_idx >= 2
        and tokens[open_idx - 1].kind is TokenKind.WORD
        and tokens[open_idx - 2].text == "@"
    ):
        return open_idx - 2
    return None


def _type_open(tokens: tuple[Token, ...], partner: list[int | None], i: int) -> int | None:
    """Index of the '<' or '[' matching the '>' or ']' at ``i``, or None.

    The scan stops with None at the first token that cannot appear in a
    type, so a '>' of a lambda arrow or a comparison costs a few steps.
    """
    close = tokens[i].text
    opener = _TYPE_OPENER_OF[close]
    depth = 0
    while i >= 0:
        tok = tokens[i]
        text = tok.text
        if tok.kind is TokenKind.PUNCTUATION:
            if text == close:
                depth += 1
            elif text == opener:
                depth -= 1
                if depth == 0:
                    return i
            elif text == ")" and (at := _annotation_at(tokens, partner, i)) is not None:
                i = at
            elif text not in _TYPE_PUNCT:
                return None
        elif tok.kind is not TokenKind.WORD:
            return None
        i -= 1
    return None


def _scan_return_type_back(tokens: tuple[Token, ...], partner: list[int | None], i: int) -> int | None:
    """Index of the first token of the return type ending at ``i``, or None."""
    if i < 0:
        return None
    tok = tokens[i]
    if tok.kind is TokenKind.PUNCTUATION and tok.text in _TYPE_OPENER_OF:
        start = _type_open(tokens, partner, i)
        if start is None or start == 0:
            return None
        base = tokens[start - 1]
        if base.kind is TokenKind.WORD and base.text not in _NOT_METHOD_NAMES:
            return start - 1
        return None
    if tok.kind is TokenKind.WORD and tok.text not in _NOT_RETURN_TYPES:
        return i
    return None


def _collect_annotations(tokens: tuple[Token, ...], partner: list[int | None], before: int, text: str) -> tuple[str, ...]:
    """Annotation texts preceding token index ``before``, across modifiers
    and a type-parameter list (`@Test public <T> void`)."""
    annotations: list[str] = []
    i = before
    while i >= 0:
        tok = tokens[i]
        if tok.kind is TokenKind.WORD and tok.text in _MODIFIERS:
            i -= 1
            continue
        # remainder of a dotted return type: java.util.List
        if (
            tok.kind is TokenKind.PUNCTUATION
            and tok.text == "."
            and i >= 1
            and tokens[i - 1].kind is TokenKind.WORD
        ):
            i -= 2
            continue
        if tok.kind is TokenKind.PUNCTUATION and tok.text == ")":
            at = _annotation_at(tokens, partner, i)
            if at is None:
                break
            annotations.append(text[tokens[at].start : tok.end])
            i = at - 1
            continue
        if tok.kind is TokenKind.PUNCTUATION and tok.text == ">":
            start = _type_open(tokens, partner, i)
            if start is None:
                break
            i = start - 1
            continue
        if tok.kind is TokenKind.WORD and i >= 1 and tokens[i - 1].text == "@":
            annotations.append(text[tokens[i - 1].start : tok.end])
            i -= 2
            continue
        break
    annotations.reverse()
    return tuple(annotations)


def _body_open(tokens: tuple[Token, ...], i: int) -> int | None:
    """Index of the '{' at ``i`` or after a throws clause starting at ``i``."""
    n = len(tokens)
    if i < n and tokens[i].kind is TokenKind.WORD and tokens[i].text == "throws":
        i += 1
        while i < n and (tokens[i].kind is TokenKind.WORD or tokens[i].text in (",", ".")):
            i += 1
    return i if i < n and tokens[i].text == "{" else None


def extract_methods(src: SourceFile) -> list[TestMethod]:
    """All method declarations found by the signature heuristic.

    Methods inside nested or anonymous classes are extracted too and
    attributed to the file. Raises PartialParseError when a method body
    never closes before end of input; the exception lists every method
    recovered before the failure. Runs in time linear in the token count.
    """
    tokens = tokenize(src.text).tokens
    partner = _pair_brackets(tokens)
    methods: list[TestMethod] = []
    for i, tok in enumerate(tokens[:-1]):
        if tok.kind is not TokenKind.WORD or tok.text in _NOT_METHOD_NAMES:
            continue
        if tokens[i + 1].text != "(" or (close := partner[i + 1]) is None:
            continue
        type_start = _scan_return_type_back(tokens, partner, i - 1)
        if type_start is None:
            continue
        brace = _body_open(tokens, close + 1)
        if brace is None:
            continue
        body_close = partner[brace]
        if body_close is None:
            raise PartialParseError(
                f"{src.path}: unbalanced braces after method {tok.text!r}; "
                f"recovered {len(methods)} method(s)",
                methods,
            )
        methods.append(
            TestMethod(
                name=tok.text,
                annotations=_collect_annotations(tokens, partner, type_start - 1, src.text),
                body_tokens=TokenStream(tokens[brace + 1 : body_close]),
                name_span=(tok.start, tok.end),
                body_span=(tokens[brace].start, tokens[body_close].end),
            )
        )
    return methods


def recover_methods(src: SourceFile) -> tuple[list[TestMethod], PartialParseError | None]:
    """The methods of ``src`` and the partial-parse error, or None; after
    an error the methods are the ones recovered before it."""
    try:
        return extract_methods(src), None
    except PartialParseError as err:
        return err.methods, err


_IMPORT_RE = re.compile(r"^\s*import\s+(?:static\s+)?([\w.]+(?:\.\*)?)\s*;", re.MULTILINE)


def has_junit_import(src: SourceFile) -> bool:
    return any(
        name == "org.junit" or name.startswith(("org.junit.", "junit."))
        for name in _IMPORT_RE.findall(src.text)
    )


def _annotation_name(annotation: str) -> str:
    body = annotation.lstrip("@")
    return body.split("(", 1)[0].strip()


def is_test_method(m: TestMethod) -> bool:
    """JUnit 4 style @Test annotation, or a JUnit 3 style test* name."""
    if any(_annotation_name(a) == "Test" for a in m.annotations):
        return True
    return m.name.lower().startswith("test")


def is_test_file(src: SourceFile) -> bool:
    """A JUnit import plus at least one test method."""
    if not has_junit_import(src):
        return False
    methods, _ = recover_methods(src)
    return any(is_test_method(m) for m in methods)
