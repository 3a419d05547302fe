"""Tolerant extraction of test methods from Java-style source text.

One regex pass tokenizes the source into two parallel columns, token
texts and token end offsets (comments dropped, string literals kept as
single tokens). Each match has two groups, the skipped whitespace and
comments and the token after them; the ends are running sums of their
lengths. A token's start is its end minus its length, and its kind
follows from its first character (a quote, a letter, ``_`` or ``$``, a
decimal digit or anything else), so neither is stored. One stack pass
then pairs the parentheses and braces, and a signature heuristic finds
method declarations at each '(' and marks their brace-balanced bodies. No
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
    """Tokens as two parallel columns: token ``i`` has text ``texts[i]``
    and ends at source offset ``ends[i]``. ``kinds`` and ``starts`` are
    derived on each read. ``len`` counts the tokens, not the columns."""

    texts: tuple[str, ...]
    ends: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.texts)

    @property
    def kinds(self) -> tuple[TokenKind, ...]:
        return tuple(map(_KIND_OF_FIRST.__getitem__, map(itemgetter(0), self.texts)))

    @property
    def starts(self) -> tuple[int, ...]:
        return tuple(map(sub, self.ends, map(len, self.texts)))

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
        return TokenStream(s.texts[body], s.ends[body])


class PartialParseError(Exception):
    """Unbalanced braces at end of input; carries the methods recovered so far."""

    def __init__(self, message: str, methods: list[TestMethod]):
        super().__init__(message)
        self.methods = methods


# Two groups per match: the skip (whitespace and comments) and the token.
# Unterminated comments and literals run to the end of the text. The empty
# last alternative matches at the end, so no match fails and each match
# starts where the previous one ended; only the last one or two matches
# have an empty token. WORD stands for the word branch.
_TOKEN_PATTERN = r"""
    ( \s* (?: (?: //[^\n]* | /\*(?:.*?\*/|.*) ) \s* )* )
    ( WORD
    | "[^"\\]*(?:\\.[^"\\]*)*(?:"|\\?\Z) | '[^'\\]*(?:\\.[^'\\]*)*(?:'|\\?\Z)
    | \d[\w.]*
    | \S
    | \Z
    )"""


def _compile_tokens(word: str) -> re.Pattern:
    return re.compile(_TOKEN_PATTERN.replace("WORD", word), re.DOTALL | re.VERBOSE)


_TOKEN_RE = _compile_tokens("[A-Za-z_$][A-Za-z0-9_$]*")
_ASCII_RUNS = re.compile(r"[\x00-\x7f]+")


def _token_re(text: str) -> re.Pattern:
    """``_TOKEN_RE`` if ``text`` is ASCII, else that regex with a Unicode
    word branch. A word holds the characters ``splitter.validate_identifier``
    accepts (letters, digits, ``_`` and ``$``) and does not start with a
    digit. ``re`` has no letter class, and ``\\w`` also holds numerics such
    as '½', so the branch takes ``\\w`` less the text's own characters that
    are numerics, or at the start also non-decimal digits such as '²'.
    ``re`` caches the compiled patterns."""
    if text.isascii():
        return _TOKEN_RE
    odd = "".join(sorted(c for c in set(_ASCII_RUNS.sub("", text))
                         if c.isalnum() and not c.isalpha() and not c.isdecimal()))
    numerics = "".join(c for c in odd if not c.isdigit())
    rest = rf"[A-Za-z0-9_$]*(?:[^\W{numerics}][A-Za-z0-9_$]*)*"
    return _compile_tokens(rf"[A-Za-z_$]{rest}|[^\W\d{odd}]{rest}")


class _KindOfFirst(dict):
    """A token's kind by its first character, which decides it because the
    branches of the token regex start with disjoint characters. Every ASCII
    character is stored; a token starting with any other character is a
    word if that is a letter, a number if it is a decimal digit, and else a
    single punctuation character."""

    def __missing__(self, first: str) -> TokenKind:
        if first.isalpha():
            return TokenKind.WORD
        return TokenKind.NUMBER if first.isdecimal() else TokenKind.PUNCTUATION


_KIND_OF_FIRST = _KindOfFirst({
    **dict.fromkeys(map(chr, range(128)), TokenKind.PUNCTUATION),
    **dict.fromkeys("0123456789", TokenKind.NUMBER),
    **dict.fromkeys("\"'", TokenKind.STRING),
    **dict.fromkeys("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_$", TokenKind.WORD),
})
# module names for the members the scans test: a member read through the
# enum class is several times slower on CPython 3.11
_WORD, _PUNCTUATION = TokenKind.WORD, TokenKind.PUNCTUATION

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
    with an empty token are dropped. The two columns are built from the
    pairs by ``map`` and ``accumulate``, with no Python loop per token: a
    token ends at the running sum of skip and token lengths. Its kind
    follows from its first character: a quote is STRING, a letter, ``_``
    or ``$`` is WORD, a decimal digit (``str.isdecimal``, which is what
    ``\\d`` matches) is NUMBER, and anything else is PUNCTUATION.
    """
    rows = _token_re(text).findall(text)
    while rows and not rows[-1][1]:
        rows.pop()
    texts = tuple(map(itemgetter(1), rows))
    return TokenStream(texts, tuple(accumulate(map(add, map(len, map(itemgetter(0), rows)), map(len, texts)))))


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


def _annotation_at(texts: tuple[str, ...], partner: list[int | None], close: int) -> int | None:
    """Index of the '@' of the annotation whose argument list ends at ``close``."""
    open_idx = partner[close]
    if (
        open_idx is not None
        and open_idx >= 2
        and texts[open_idx - 2] == "@"
        and _KIND_OF_FIRST[texts[open_idx - 1][0]] is _WORD
    ):
        return open_idx - 2
    return None


def _type_open(texts: tuple[str, ...], partner: list[int | None], i: int) -> int | None:
    """Index of the '<' or '[' matching the '>' or ']' at ``i``, or None.

    The scan stops with None at the first token that cannot appear in a
    type, so a '>' of a lambda arrow or a comparison costs a few steps.
    """
    close = texts[i]
    opener = _TYPE_OPENER_OF[close]
    depth = 0
    while i >= 0:
        text = texts[i]
        kind = _KIND_OF_FIRST[text[0]]
        if kind is _PUNCTUATION:
            if text == close:
                depth += 1
            elif text == opener:
                depth -= 1
                if depth == 0:
                    return i
            elif text == ")" and (at := _annotation_at(texts, partner, i)) is not None:
                i = at
            elif text not in _TYPE_PUNCT:
                return None
        elif kind is not _WORD:
            return None
        i -= 1
    return None


def _scan_return_type_back(texts: tuple[str, ...], partner: list[int | None], i: int) -> int | None:
    """Index of the first token of the return type ending at ``i``, or None."""
    if i < 0:
        return None
    if texts[i] in _TYPE_OPENER_OF:
        start = _type_open(texts, partner, i)
        if start is None or start == 0:
            return None
        word = texts[start - 1]
        if _KIND_OF_FIRST[word[0]] is _WORD and word not in _NOT_METHOD_NAMES:
            return start - 1
        return None
    if _KIND_OF_FIRST[texts[i][0]] is _WORD and texts[i] not in _NOT_RETURN_TYPES:
        return i
    return None


def _collect_annotations(s: TokenStream, partner: list[int | None], before: int, text: str) -> tuple[str, ...]:
    """Annotation texts preceding token index ``before``, across modifiers
    and a type-parameter list (`@Test public <T> void`). Each runs from
    its one-character '@' to the end of its last token."""
    texts, ends = s
    annotations: list[str] = []
    i = before
    while i >= 0:
        tok = texts[i]
        if tok in _MODIFIERS:
            i -= 1
            continue
        # remainder of a dotted return type: java.util.List
        if tok == "." and i >= 1 and _KIND_OF_FIRST[texts[i - 1][0]] is _WORD:
            i -= 2
            continue
        if tok == ")":
            at = _annotation_at(texts, partner, i)
            if at is None:
                break
            annotations.append(text[ends[at] - 1 : ends[i]])
            i = at - 1
            continue
        if tok == ">":
            start = _type_open(texts, partner, i)
            if start is None:
                break
            i = start - 1
            continue
        if i >= 1 and texts[i - 1] == "@" and _KIND_OF_FIRST[tok[0]] is _WORD:
            annotations.append(text[ends[i - 1] - 1 : ends[i]])
            i -= 2
            continue
        break
    annotations.reverse()
    return tuple(annotations)


def _body_open(texts: tuple[str, ...], i: int) -> int | None:
    """Index of the '{' at ``i`` or after a throws clause starting at ``i``."""
    n = len(texts)
    if i < n and texts[i] == "throws":
        i += 1
        while i < n and (texts[i] in (",", ".") or _KIND_OF_FIRST[texts[i][0]] is _WORD):
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
    texts, ends = s
    partner = _pair_brackets(texts)
    methods: list[TestMethod] = []
    # a declaration is a name token followed by a matched '('
    for paren in compress(count(), map("(".__eq__, texts)):
        i = paren - 1
        if i < 0 or (name := texts[i]) in _NOT_METHOD_NAMES or _KIND_OF_FIRST[name[0]] is not _WORD:
            continue
        if (close := partner[paren]) is None:
            continue
        type_start = _scan_return_type_back(texts, partner, i - 1)
        if type_start is None:
            continue
        brace = _body_open(texts, close + 1)
        if brace is None:
            continue
        body_close = partner[brace]
        if body_close is None:
            raise PartialParseError(
                f"{src.path}: unbalanced braces after method {name!r}; "
                f"recovered {len(methods)} method(s)",
                methods,
            )
        methods.append(
            TestMethod(
                name=name,
                annotations=_collect_annotations(s, partner, type_start - 1, src.text),
                file_tokens=s,
                body_range=(brace + 1, body_close),
                name_span=(ends[i] - len(name), ends[i]),
                body_span=(ends[brace] - 1, ends[body_close]),
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

