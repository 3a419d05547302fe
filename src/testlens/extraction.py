"""Tolerant extraction of test methods from Java-style source text.

One regex pass tokenizes the source into parallel kind, text and span
columns (comments dropped, string literals kept as single tokens) and one
stack pass pairs its parentheses and braces; then a signature heuristic
finds method declarations at each '(' and marks their brace-balanced
bodies. No compiler front-end is involved, so non-compiling snapshots
still scan, in time linear in the token count.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from itertools import compress, count


class TokenKind(Enum):
    WORD = "word"
    PUNCTUATION = "punctuation"
    STRING = "string-literal"
    NUMBER = "number"


@dataclass(frozen=True)
class TokenStream:
    """Tokens as four parallel columns: token ``i`` has kind ``kinds[i]``,
    text ``texts[i]`` and source span ``starts[i]:ends[i]``."""

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


@dataclass(frozen=True)
class SourceFile:
    path: str
    text: str


@dataclass(frozen=True)
class TestMethod:
    name: str
    annotations: tuple[str, ...]
    file_tokens: TokenStream = field(repr=False)
    body_range: tuple[int, int]  # token indexes strictly between the body's braces
    name_span: tuple[int, int]
    body_span: tuple[int, int]

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
_BRACKETS = frozenset("(){}")
_TYPE_OPENER_OF = {">": "<", "]": "["}
# punctuation that can appear in a type (`@` starts a type annotation); any
# other punctuation, a literal or a number ends a type back-scan
_TYPE_PUNCT = frozenset({".", ",", "?", "&", "<", ">", "[", "]", "@"})


def tokenize(text: str) -> TokenStream:
    """Lex Java-ish source. Comments are skipped; literals are single tokens."""
    kinds, texts, starts, ends = [], [], [], []
    add_kind, add_text, add_start, add_end = kinds.append, texts.append, starts.append, ends.append
    for m in _TOKEN_RE.finditer(text):
        if g := m.lastindex:
            add_kind(_GROUP_KINDS[g])
            add_text(m[g])
            add_start(m.start(g))
            add_end(m.end())
    return TokenStream(tuple(kinds), tuple(texts), tuple(starts), tuple(ends))


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

