"""Tolerant extraction of test methods from Java-style source text.

One regex pass tokenizes the source into parallel kind, text and span
columns (comments dropped, string literals kept as single tokens). Each
match has two groups, the skipped whitespace and comments and the token
after them; the spans are running sums of their lengths, and a token's
kind follows from its first character (a quote, a word character, a
decimal digit or anything else). One stack pass then pairs the
parentheses and braces, and a signature heuristic finds method
declarations at each '(' and marks their brace-balanced bodies. No
compiler front-end is involved, so non-compiling snapshots still scan,
in time linear in the token count.
"""

from __future__ import annotations

import re
from enum import Enum
from itertools import accumulate, compress, count
from operator import add, itemgetter, sub
from typing import NamedTuple


class TokenKind(Enum):
    WORD = "word"
    PUNCTUATION = "punctuation"
    STRING = "string-literal"
    NUMBER = "number"


class TokenStream(NamedTuple):
    """Tokens as four parallel columns: token ``i`` has kind ``kinds[i]``,
    text ``texts[i]`` and source span ``starts[i]:ends[i]``. ``len`` counts
    the tokens, not the four columns."""

    kinds: tuple[TokenKind, ...]
    texts: tuple[str, ...]
    starts: tuple[int, ...]
    ends: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.texts)

    @property
    def tokens(self) -> tuple[str, ...]:
        """Alias of ``texts`` for the benchmark tracer; drop it once the tracer counts ``len(stream)``."""
        return self.texts


class SourceFile(NamedTuple):
    path: str
    text: str


class TestMethod(NamedTuple):
    name: str
    annotations: tuple[str, ...]
    file_tokens: TokenStream  # left out of repr
    body_range: tuple[int, int]  # token indexes strictly between the body's braces
    name_span: tuple[int, int]
    body_span: tuple[int, int]

    def __repr__(self) -> str:
        return (f"TestMethod(name={self.name!r}, annotations={self.annotations!r}, "
                f"body_range={self.body_range!r}, name_span={self.name_span!r}, "
                f"body_span={self.body_span!r})")

    @property
    def body_tokens(self) -> TokenStream:
        """The body's tokens, sliced from the file's columns on each call."""
        s, body = self.file_tokens, slice(*self.body_range)
        return TokenStream(s.kinds[body], s.texts[body], s.starts[body], s.ends[body])


class PartialParseError(Exception):
    """Unbalanced braces at end of input; carries the methods recovered so far."""

    def __init__(self, message: str, methods: list[TestMethod]):
        super().__init__(message)
        self.methods = methods


# Two groups per match: the skip (whitespace and comments) and the token.
# Unterminated comments and literals run to the end of the text. The empty
# last alternative matches at the end, so no match fails and each match
# starts where the previous one ended; only the last one or two matches
# have an empty token.
_TOKEN_RE = re.compile(
    r"""
    ( \s* (?: (?: //[^\n]* | /\*(?:.*?\*/|.*) ) \s* )* )
    ( [A-Za-z_$][A-Za-z0-9_$]*
    | "[^"\\]*(?:\\.[^"\\]*)*(?:"|\\?\Z) | '[^'\\]*(?:\\.[^'\\]*)*(?:'|\\?\Z)
    | \d[\w.]*
    | \S
    | \Z
    )""",
    re.DOTALL | re.VERBOSE,
)


class _KindOfFirst(dict):
    """A token's kind by its first character, which decides it because the
    branches of _TOKEN_RE start with disjoint characters. Every ASCII
    character is stored; a token starting with any other character is a
    non-ASCII decimal digit's number or a single punctuation character."""

    def __missing__(self, first: str) -> TokenKind:
        return TokenKind.NUMBER if first.isdecimal() else TokenKind.PUNCTUATION


_KIND_OF_FIRST = _KindOfFirst({
    **dict.fromkeys(map(chr, range(128)), TokenKind.PUNCTUATION),
    **dict.fromkeys("0123456789", TokenKind.NUMBER),
    **dict.fromkeys("\"'", TokenKind.STRING),
    **dict.fromkeys("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_$", TokenKind.WORD),
})

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
_BRACKETS = frozenset("(){}")
_TYPE_OPENER_OF = {">": "<", "]": "["}
# punctuation that can appear in a type (`@` starts a type annotation); any
# other punctuation, a literal or a number ends a type back-scan
_TYPE_PUNCT = frozenset({".", ",", "?", "&", "<", ">", "[", "]", "@"})


def tokenize(text: str) -> TokenStream:
    """Lex Java-ish source. Comments are skipped; literals are single tokens.

    One ``findall`` yields a (skip, token) pair per token, where the skip
    is the whitespace and comments before the token; the trailing pairs
    with an empty token are dropped. The columns are built from the pairs
    by ``map`` and ``accumulate``, with no Python loop per token: a token
    ends at the running sum of skip and token lengths and starts its
    length before that. Its kind follows from its first character: a
    quote is STRING, an ASCII letter, ``_`` or ``$`` is WORD, a decimal
    digit (``str.isdecimal``, which is what ``\\d`` matches) is NUMBER, and
    anything else is PUNCTUATION.
    """
    rows = _TOKEN_RE.findall(text)
    while rows and not rows[-1][1]:
        rows.pop()
    texts = tuple(map(itemgetter(1), rows))
    ends = tuple(accumulate(map(add, map(len, map(itemgetter(0), rows)), map(len, texts))))
    del rows
    starts = tuple(map(sub, ends, map(len, texts)))
    kinds = tuple(map(_KIND_OF_FIRST.__getitem__, map(itemgetter(0), texts)))
    return TokenStream(kinds, texts, starts, ends)


def _pair_brackets(texts: tuple[str, ...]) -> list[int | None]:
    """Index of the partner of every matched '(' ')' '{' '}', else None.

    One stack per bracket kind, so a ')' never closes a '{': each pair is
    the one a depth count over that kind alone finds.
    """
    partner: list[int | None] = [None] * len(texts)
    stacks: dict[str, list[int]] = {"(": [], "{": []}
    for i in compress(count(), map(_BRACKETS.__contains__, texts)):
        text = texts[i]
        if text in stacks:
            stacks[text].append(i)
        else:
            stack = stacks[_OPENER_OF[text]]
            if stack:
                j = stack.pop()
                partner[i], partner[j] = j, i
    return partner


def _annotation_at(s: TokenStream, partner: list[int | None], close: int) -> int | None:
    """Index of the '@' of the annotation whose argument list ends at ``close``."""
    open_idx = partner[close]
    if (
        open_idx is not None
        and open_idx >= 2
        and s.kinds[open_idx - 1] is TokenKind.WORD
        and s.texts[open_idx - 2] == "@"
    ):
        return open_idx - 2
    return None


def _type_open(s: TokenStream, partner: list[int | None], i: int) -> int | None:
    """Index of the '<' or '[' matching the '>' or ']' at ``i``, or None.

    The scan stops with None at the first token that cannot appear in a
    type, so a '>' of a lambda arrow or a comparison costs a few steps.
    """
    kinds, texts = s.kinds, s.texts
    close = texts[i]
    opener = _TYPE_OPENER_OF[close]
    depth = 0
    while i >= 0:
        kind = kinds[i]
        text = texts[i]
        if kind is TokenKind.PUNCTUATION:
            if text == close:
                depth += 1
            elif text == opener:
                depth -= 1
                if depth == 0:
                    return i
            elif text == ")" and (at := _annotation_at(s, partner, i)) is not None:
                i = at
            elif text not in _TYPE_PUNCT:
                return None
        elif kind is not TokenKind.WORD:
            return None
        i -= 1
    return None


def _scan_return_type_back(s: TokenStream, partner: list[int | None], i: int) -> int | None:
    """Index of the first token of the return type ending at ``i``, or None."""
    if i < 0:
        return None
    kinds, texts = s.kinds, s.texts
    if texts[i] in _TYPE_OPENER_OF:
        start = _type_open(s, partner, i)
        if start is None or start == 0:
            return None
        if kinds[start - 1] is TokenKind.WORD and texts[start - 1] not in _NOT_METHOD_NAMES:
            return start - 1
        return None
    if kinds[i] is TokenKind.WORD and texts[i] not in _NOT_RETURN_TYPES:
        return i
    return None


def _collect_annotations(s: TokenStream, partner: list[int | None], before: int, text: str) -> tuple[str, ...]:
    """Annotation texts preceding token index ``before``, across modifiers
    and a type-parameter list (`@Test public <T> void`)."""
    kinds, texts, starts, ends = s.kinds, s.texts, s.starts, s.ends
    annotations: list[str] = []
    i = before
    while i >= 0:
        tok = texts[i]
        if tok in _MODIFIERS:
            i -= 1
            continue
        # remainder of a dotted return type: java.util.List
        if tok == "." and i >= 1 and kinds[i - 1] is TokenKind.WORD:
            i -= 2
            continue
        if tok == ")":
            at = _annotation_at(s, partner, i)
            if at is None:
                break
            annotations.append(text[starts[at] : ends[i]])
            i = at - 1
            continue
        if tok == ">":
            start = _type_open(s, partner, i)
            if start is None:
                break
            i = start - 1
            continue
        if kinds[i] is TokenKind.WORD and i >= 1 and texts[i - 1] == "@":
            annotations.append(text[starts[i - 1] : ends[i]])
            i -= 2
            continue
        break
    annotations.reverse()
    return tuple(annotations)


def _body_open(s: TokenStream, i: int) -> int | None:
    """Index of the '{' at ``i`` or after a throws clause starting at ``i``."""
    kinds, texts = s.kinds, s.texts
    n = len(texts)
    if i < n and texts[i] == "throws":
        i += 1
        while i < n and (kinds[i] is TokenKind.WORD or texts[i] in (",", ".")):
            i += 1
    return i if i < n and texts[i] == "{" else None


def extract_methods(src: SourceFile) -> list[TestMethod]:
    """All method declarations found by the signature heuristic.

    Methods inside nested or anonymous classes are extracted too and
    attributed to the file. Raises PartialParseError when a method body
    never closes before end of input; the exception lists every method
    recovered before the failure. Runs in time linear in the token count.
    """
    s = tokenize(src.text)
    kinds, texts, starts, ends = s.kinds, s.texts, s.starts, s.ends
    partner = _pair_brackets(texts)
    methods: list[TestMethod] = []
    # a declaration is a name token followed by a matched '('
    for paren in compress(count(), map("(".__eq__, texts)):
        i = paren - 1
        if i < 0 or kinds[i] is not TokenKind.WORD or texts[i] in _NOT_METHOD_NAMES:
            continue
        if (close := partner[paren]) is None:
            continue
        type_start = _scan_return_type_back(s, partner, i - 1)
        if type_start is None:
            continue
        brace = _body_open(s, close + 1)
        if brace is None:
            continue
        body_close = partner[brace]
        if body_close is None:
            raise PartialParseError(
                f"{src.path}: unbalanced braces after method {texts[i]!r}; "
                f"recovered {len(methods)} method(s)",
                methods,
            )
        methods.append(
            TestMethod(
                name=texts[i],
                annotations=_collect_annotations(s, partner, type_start - 1, src.text),
                file_tokens=s,
                body_range=(brace + 1, body_close),
                name_span=(starts[i], ends[i]),
                body_span=(starts[brace], ends[body_close]),
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

