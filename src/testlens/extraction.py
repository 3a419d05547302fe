"""Tolerant extraction of test methods from Java-style source text.

One ``re.split`` tokenizes the source into two parallel columns, token
texts and end offsets (comments dropped; literals and text blocks kept
as single tokens); a token's start is its end minus its length. One
``str.translate`` of the tokens' first characters, which decide their
kinds, gives the file's shape: ``w`` per word, ``0`` per number, ``"``
per literal and ASCII punctuation as itself. One stack pass pairs the
parentheses and braces. One regex over the shape finds each word followed
by '(' after a word, '>' or ']', where a return type can end; a signature
heuristic checks each and marks its brace-balanced body. No compiler
front-end is involved, so non-compiling snapshots still scan, in time
linear in the token count.
"""

from __future__ import annotations

import re
from enum import Enum
from bisect import bisect_right
from itertools import accumulate, compress, count, islice
from operator import itemgetter, sub
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
        return tuple(_KIND_OF_SHAPE.get(c, TokenKind.PUNCTUATION) for c in _shape(self.texts))

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


# One group, so ``re.split`` returns the whitespace before each token, the
# token, and last the trailing whitespace. Comments are tokens, dropped
# after the split. Unterminated comments, text blocks and literals run to
# the end of the text. WORD stands for the word branch.
_TOKEN_PATTERN = r"""
    ( //[^\n]* | /\*(?:.*?\*/|.*)
    | WORD
    | \"\"\"(?:[^"\\]|\\.|"(?!\"\"))*(?:\"\"\"|\\?\Z)
    | "[^"\\]*(?:\\.[^"\\]*)*(?:"|\\?\Z) | '[^'\\]*(?:\\.[^'\\]*)*(?:'|\\?\Z)
    | \d[\w.]*
    | \S
    )"""


def _compile_tokens(word: str) -> re.Pattern:
    return re.compile(_TOKEN_PATTERN.replace("WORD", word), re.DOTALL | re.VERBOSE)


_TOKEN_RE = _compile_tokens("[A-Za-z_$][A-Za-z0-9_$]*")
_ASCII_RUNS = re.compile(r"[\x00-\x7f]+")
# overlapping, so that `/* a *//* b */` yields both starts
_COMMENT_START = re.compile(r"/(?=[/*])")


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


class _Shape(dict):
    """A token's shape by the code of its first character, which decides
    its kind because the token regex's branches start with disjoint
    characters. Every ASCII code is stored; any other first character is
    a word if it is a letter, a number if it is a decimal digit, and else
    punctuation shaped ``#``, which no scan looks for."""

    def __missing__(self, code: int) -> str:
        first = chr(code)
        if first.isalpha():
            return "w"
        return "0" if first.isdecimal() else "#"


_SHAPE = _Shape({
    **{code: chr(code) for code in range(128)},
    **dict.fromkeys(map(ord, "0123456789"), "0"),
    **dict.fromkeys(map(ord, "\"'"), '"'),
    **dict.fromkeys(map(ord, "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_$"), "w"),
})
_KIND_OF_SHAPE = {"w": TokenKind.WORD, "0": TokenKind.NUMBER, '"': TokenKind.STRING}


def _shape(texts: tuple[str, ...]) -> str:
    """One shape character per token, by ``_SHAPE``."""
    return "".join(map(itemgetter(0), texts)).translate(_SHAPE)


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
# shapes a type can hold: words and some punctuation (`@` starts a type
# annotation); any other shape ends a type back-scan
_TYPE_SHAPES = frozenset("w.,?&<>[]@")
# a name and its '(' after a word, '>' or ']', the shapes a return type ends in
_SIGNATURE_RE = re.compile(r"(?<=[w>\]])w\(")


def tokenize(text: str) -> TokenStream:
    """Lex Java-ish source. Comments are dropped; string and character
    literals and text blocks are single tokens.

    One ``re.split`` with a one-group pattern returns the whitespace before
    each token and the token in turn, so the tokens are every second part
    and a token ends at the running sum of the part lengths. Comments are
    tokens too; a '//' or '/*' that starts a token is found by bisection
    and dropped from both columns. No Python code runs per token.
    """
    parts = _token_re(text).split(text)
    texts, ends = parts[1::2], tuple(islice(accumulate(map(len, parts)), 1, None, 2))
    comments = []
    for match in _COMMENT_START.finditer(text):
        i = bisect_right(ends, match.start())  # the token that holds the '/'
        if ends[i] - len(texts[i]) == match.start():
            comments.append(i)
    if not comments:
        return TokenStream(tuple(texts), ends)
    keep = [True] * len(texts)
    for i in comments:
        keep[i] = False
    return TokenStream(tuple(compress(texts, keep)), tuple(compress(ends, keep)))


def _pair_brackets(shape: str) -> list[int | None]:
    """Index of the partner of every matched '(' ')' '{' '}', else None.

    One stack per bracket kind, so a ')' never closes a '{': each pair is
    the one a depth count over that kind alone finds.
    """
    partner: list[int | None] = [None] * len(shape)
    stacks: dict[str, list[int]] = {"(": [], "{": []}
    for i in compress(count(), map(_BRACKETS.__contains__, shape)):
        c = shape[i]
        if c in stacks:
            stacks[c].append(i)
        else:
            stack = stacks[_OPENER_OF[c]]
            if stack:
                j = stack.pop()
                partner[i], partner[j] = j, i
    return partner


def _at_sign(shape: str, i: int) -> int | None:
    """Index of the '@' of the annotation whose name, maybe dotted
    (`@org.junit.Test`), ends at the word ``i``, or None."""
    while i >= 2 and shape[i - 2 : i] == "w.":
        i -= 2
    return i - 1 if i >= 1 and shape[i - 1] == "@" else None


def _annotation_at(shape: str, partner: list[int | None], close: int) -> int | None:
    """Index of the '@' of the annotation whose argument list ends at ``close``."""
    open_idx = partner[close]
    if open_idx is not None and open_idx >= 2 and shape[open_idx - 2 : open_idx] in ("@w", ".w"):
        return _at_sign(shape, open_idx - 1)
    return None


def _type_open(shape: str, partner: list[int | None], i: int) -> int | None:
    """Index of the '<' or '[' matching the '>' or ']' at ``i``, or None.

    The scan stops with None at the first token that cannot appear in a
    type, so a '>' of a lambda arrow or a comparison costs a few steps.
    """
    close = shape[i]
    opener = _TYPE_OPENER_OF[close]
    depth = 0
    while i >= 0:
        c = shape[i]
        if c == close:
            depth += 1
        elif c == opener:
            depth -= 1
            if depth == 0:
                return i
        elif c == ")" and (at := _annotation_at(shape, partner, i)) is not None:
            i = at
        elif c not in _TYPE_SHAPES:
            return None
        i -= 1
    return None


def _return_type_start(texts: tuple[str, ...], shape: str, partner: list[int | None], i: int) -> int | None:
    """Index of the first token of the return type ending at the word,
    '>' or ']' at ``i``, or None."""
    if shape[i] == "w":
        return None if texts[i] in _NOT_RETURN_TYPES else i
    start = _type_open(shape, partner, i)
    if start is None or start == 0 or shape[start - 1] != "w" or texts[start - 1] in _NOT_METHOD_NAMES:
        return None
    return start - 1


def _collect_annotations(s: TokenStream, shape: str, partner: list[int | None], before: int,
                         text: str) -> tuple[str, ...]:
    """Annotation texts preceding token index ``before``, across modifiers
    and a type-parameter list (`@Test public <T> void`). Each runs from
    its one-character '@' to the end of its last token."""
    texts, ends = s
    annotations: list[str] = []
    i = before
    while i >= 0:
        c = shape[i]
        if texts[i] in _MODIFIERS:
            i -= 1
            continue
        # remainder of a dotted return type: java.util.List
        if c == "." and i >= 1 and shape[i - 1] == "w":
            i -= 2
            continue
        if c == ")":
            at = _annotation_at(shape, partner, i)
            if at is None:
                break
            annotations.append(text[ends[at] - 1 : ends[i]])
            i = at - 1
            continue
        if c == ">":
            start = _type_open(shape, partner, i)
            if start is None:
                break
            i = start - 1
            continue
        if c == "w" and (at := _at_sign(shape, i)) is not None:
            annotations.append(text[ends[at] - 1 : ends[i]])
            i = at - 1
            continue
        break
    annotations.reverse()
    return tuple(annotations)


def _body_open(texts: tuple[str, ...], shape: str, i: int) -> int | None:
    """Index of the '{' at ``i`` or after a throws clause starting at ``i``."""
    n = len(shape)
    if i < n and texts[i] == "throws":
        i += 1
        while i < n and shape[i] in ",.w":
            i += 1
    return i if i < n and shape[i] == "{" else None


def extract_methods(src: SourceFile) -> list[TestMethod]:
    """All method declarations found by the signature heuristic.

    Methods inside nested or anonymous classes are extracted too and
    attributed to the file. Raises PartialParseError when a method body
    never closes before end of input; the exception lists every method
    recovered before the failure. Runs in time linear in the token count.
    """
    s = tokenize(src.text)
    texts, ends = s
    shape = _shape(texts)
    partner = _pair_brackets(shape)
    methods: list[TestMethod] = []
    for match in _SIGNATURE_RE.finditer(shape):
        i = match.start()
        if (name := texts[i]) in _NOT_METHOD_NAMES or (close := partner[i + 1]) is None:
            continue
        type_start = _return_type_start(texts, shape, partner, i - 1)
        if type_start is None:
            continue
        brace = _body_open(texts, shape, close + 1)
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
                annotations=_collect_annotations(s, shape, partner, type_start - 1, src.text),
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
    """The last segment of the name: ``Test`` of ``@org.junit.Test(timeout = 5)``."""
    return annotation.split("(", 1)[0].rsplit(".", 1)[-1].lstrip("@").strip()


def is_test_method(m: TestMethod) -> bool:
    """A ``@Test`` annotation (JUnit 4 or 5) or a JUnit 3 style test* name;
    JUnit 5's ``@ParameterizedTest`` and the like do not count."""
    if any(_annotation_name(a) == "Test" for a in m.annotations):
        return True
    return m.name.lower().startswith("test")

