"""Tolerant extraction of test methods from Java-style source text.

One ``re.findall`` cuts the source into chunks of a token and the
whitespace before it, which give two parallel columns, token texts and
end offsets (comments dropped; literals and text blocks kept as single
tokens); a token's start is its end minus its length. One
``str.translate`` of the tokens' first characters gives the file's
shape: ``w`` per word, ``0`` per number, ``"`` per literal and ASCII
punctuation as itself. One stack pass over the braces that one regex
finds in the shape pairs them; a parenthesis is paired only when a
signature or an annotation asks for its partner. One regex over the
shape finds each word followed by '(' after a word, '>' or ']', where a
return type can end. A signature heuristic reads each backward: the
return type to its first token, then type parameters, modifiers and
annotations; a constructor has no return type, so it is never a method.
Each method found keeps its brace-balanced body as a view of the file's
texts column, so that bodies nested in bodies copy nothing. No compiler
front-end is involved, so non-compiling snapshots still scan, in time
linear in the token count.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from collections.abc import Iterator, Sequence
from itertools import accumulate, compress, count
from operator import itemgetter
from typing import NamedTuple


class TokenStream(NamedTuple):
    """Tokens as two parallel columns: token ``i`` has text ``texts[i]``
    and ends at source offset ``ends[i]``, so it starts at ``ends[i] -
    len(texts[i])``. ``len`` counts the tokens, not the columns."""

    texts: tuple[str, ...]
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


class BodyTexts(Sequence):
    """The texts ``texts[start:stop]`` of a body's tokens, kept as its
    file's texts column and the two indexes, so that a body that holds
    nested declarations copies nothing. It reads, compares and hashes as
    that tuple; a slice of it is a tuple."""

    __slots__ = ("_texts", "_start", "_stop")

    def __init__(self, texts: tuple[str, ...], start: int, stop: int):
        self._texts, self._start, self._stop = texts, start, stop

    def __len__(self) -> int:
        return self._stop - self._start

    def __getitem__(self, i: int | slice) -> str | tuple[str, ...]:
        if isinstance(i, slice) or not -len(self) <= i < len(self):
            return self._texts[self._start:self._stop][i]  # a tuple, or IndexError
        return self._texts[self._start + i % len(self)]

    def __iter__(self) -> Iterator[str]:
        return iter(self[:])

    def __contains__(self, text: object) -> bool:
        return text in self[:]

    def __eq__(self, other: object) -> bool:
        return self[:] == (other[:] if isinstance(other, BodyTexts) else other)

    def __hash__(self) -> int:
        return hash(self[:])

    def __repr__(self) -> str:
        return repr(self[:])


class TestMethod(NamedTuple):
    name: str
    annotations: tuple[str, ...]
    body: Sequence[str]  # texts of the tokens strictly between the body's braces
    name_span: tuple[int, int]
    body_span: tuple[int, int]


class PartialParseError(Exception):
    """Unbalanced braces at end of input; carries the methods recovered so far."""

    def __init__(self, message: str, methods: list[TestMethod]):
        super().__init__(message)
        self.methods = methods


# Each match is one chunk: a token and the whitespace before it, or last
# the trailing whitespace. The ``\s+\Z`` branch takes that in one match;
# without it ``\s*`` would retry the trailing run from each of its
# characters, in time quadratic in its length. Comments are tokens,
# dropped after the match. Unterminated comments, text blocks and literals
# run to the end of the text. WORD stands for the word branch; it comes
# first because most tokens are words, and the branches before ``\S``
# start with disjoint characters, so their order changes no match.
_TOKEN_PATTERN = r"""
    \s*(?: WORD
    | //[^\r\n]* | /\*(?:.*?\*/|.*)
    | \"\"\"(?:[^"\\]|\\.|"(?!\"\"))*(?:\"\"\"|\\?\Z)
    | "[^"\\]*(?:\\.[^"\\]*)*(?:"|\\?\Z) | '[^'\\]*(?:\\.[^'\\]*)*(?:'|\\?\Z)
    | \d[\w.]*
    | \S
    ) | \s+\Z"""


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
    """A token's shape by the code of its first character, which is
    enough because the token regex's branches start with disjoint
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

# words that are no return type: after a modifier, `<T> Name(` starts a
# generic constructor, and after `record`, a record header
_NOT_RETURN_TYPES = _MODIFIERS | _NOT_METHOD_NAMES | {"record"}

_TYPE_OPENER_OF = {">": "<", "]": "["}
# shapes a type can hold: words and some punctuation (`@` starts a type
# annotation); any other shape ends a type back-scan
_TYPE_SHAPES = frozenset("w.,?&<>[]@")
# a name and its '(' after a word, '>' or ']', the shapes a return type ends in
_SIGNATURE_RE = re.compile(r"(?<=[w>\]])w\(")


def tokenize(text: str) -> TokenStream:
    """Lex Java-ish source. Comments are dropped; string and character
    literals and text blocks are single tokens.

    One ``re.findall`` returns each token with the whitespace before it,
    so a token is its chunk with that whitespace stripped (``\\s`` and
    ``str.isspace`` agree on every character) and ends at the running sum
    of the chunk lengths; a last chunk of whitespace alone is dropped.
    Comments are tokens too; a '//' or '/*' that starts a token is found
    by bisection and dropped from both columns. No Python code runs per
    token.
    """
    chunks = _token_re(text).findall(text)
    if chunks and chunks[-1].isspace():
        chunks.pop()
    texts, ends = tuple(map(str.lstrip, chunks)), tuple(accumulate(map(len, chunks)))
    comments = []
    for match in _COMMENT_START.finditer(text):
        i = bisect_right(ends, match.start())  # the token that holds the '/'
        if ends[i] - len(texts[i]) == match.start():
            comments.append(i)
    if not comments:
        return TokenStream(texts, ends)
    keep = [True] * len(texts)
    for i in comments:
        keep[i] = False
    return TokenStream(tuple(compress(texts, keep)), tuple(compress(ends, keep)))


def _stack_pairs(shape: str, kind: str) -> tuple[list[int], dict[int, int], list[int]]:
    """The indexes of the brackets of ``kind`` (``"{}"`` or ``"()"``) in
    ``shape``, found by one regex scan; the partner of each matched one,
    by the index of either; and the openers still open at the end. Each
    pair is the one a depth count over that kind alone finds, so a ')'
    never closes a '{'."""
    positions = [match.start() for match in re.finditer(f"[{kind}]", shape)]
    partner: dict[int, int] = {}
    stack: list[int] = []
    for i in positions:
        if shape[i] == kind[0]:
            stack.append(i)
        elif stack:
            partner[i] = j = stack.pop()
            partner[j] = i
    return positions, partner, stack


class _Brackets:
    """The partners of one file's braces and parentheses.

    The braces are paired at once, from the positions of one regex scan
    (``braces``), which ``_end_runaway_bodies`` reads too. A parenthesis
    is paired only when asked. When no parenthesis of its own kind lies
    between it and the first one of the other kind in the asked
    direction, that one is the partner the stack pass would give, and
    when there is none, it has none. Otherwise one stack pass pairs every
    parenthesis of the file, and this and every later lookup reads it.
    The stretches that lookups scan without the pass hold no other
    parenthesis, so they do not overlap, and the time stays linear."""

    __slots__ = ("_shape", "braces", "brace", "open_braces", "_parens")

    def __init__(self, shape: str):
        self._shape = shape
        self.braces, self.brace, self.open_braces = _stack_pairs(shape, "{}")
        self._parens: dict[int, int] | None = None

    def close_paren(self, i: int) -> int | None:
        """Index of the ')' that closes the '(' at ``i``, or None."""
        if self._parens is None:
            shape = self._shape
            j = shape.find(")", i + 1)
            stop = len(shape) if j < 0 else j
            if shape.find("(", i + 1, stop) < 0:
                return None if j < 0 else j
        return self._paired().get(i)

    def open_paren(self, j: int) -> int | None:
        """Index of the '(' that the ')' at ``j`` closes, or None."""
        if self._parens is None:
            i = self._shape.rfind("(", 0, j)
            if self._shape.find(")", i + 1, j) < 0:
                return None if i < 0 else i
        return self._paired().get(j)

    def _paired(self) -> dict[int, int]:
        if self._parens is None:
            self._parens = _stack_pairs(self._shape, "()")[1]
        return self._parens


def _annotation_start(shape: str, brackets: _Brackets, i: int) -> int | None:
    """Index of the '@' of the annotation that ends at token ``i``, or
    None: ``i`` is the last word of its name, maybe dotted
    (`@org.junit.Test`), or the ')' of its arguments, whose '(' it asks
    ``brackets`` for."""
    if shape[i] == ")":
        i = (brackets.open_paren(i) or 0) - 1  # -1: no '(', or none before it
    if i < 0 or shape[i] != "w":
        return None
    while i >= 2 and shape[i - 2 : i] == "w.":
        i -= 2
    return i - 1 if i >= 1 and shape[i - 1] == "@" else None


def _type_open(shape: str, brackets: _Brackets, i: int) -> int | None:
    """Index of the '<' or '[' matching the '>' or ']' at ``i``, or None.

    The scan stops with None at the first token that cannot appear in a
    type, so a '>' of a lambda arrow or a comparison costs a few steps; it
    steps over an annotation with arguments (`List<@Size(max = 3) T>`)
    from its ')' to its '@', and asks no other parenthesis for a partner.
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
        elif c == ")" and (at := _annotation_start(shape, brackets, i)) is not None:
            i = at
        elif c not in _TYPE_SHAPES:
            return None
        i -= 1
    return None


def _return_type_start(texts: tuple[str, ...], shape: str, brackets: _Brackets, i: int) -> int | None:
    """Index of the first token of the return type ending at the word,
    '>' or ']' at ``i``, or None: back over its ``[]`` and ``<…>`` groups
    and the annotations right before a '[' (`Map<K, V> @A [][]`) to the
    word they follow, then over that word's qualifier (`java.util.Map`).
    A keyword or an annotation's name is no type, so an annotated or
    generic constructor (`@Inject T()`, `public <T> T()`) is no method."""
    while shape[i] in ">]":
        i = _type_open(shape, brackets, i)
        if not i:
            return None
        if shape[i] == "[":
            # an '@' at 0 ends this loop on an annotation, then rejected
            while (at := _annotation_start(shape, brackets, i - 1)):
                i = at
        i -= 1
    if shape[i] != "w" or texts[i] in _NOT_RETURN_TYPES:
        return None
    while i >= 2 and shape[i - 2 : i] == "w.":
        i -= 2
    return None if i >= 1 and shape[i - 1] == "@" else i  # an annotation's name


def _collect_annotations(s: TokenStream, shape: str, brackets: _Brackets, before: int,
                         text: str) -> tuple[tuple[str, ...], int]:
    """Annotation texts preceding token index ``before``, across modifiers
    and a type-parameter list (`@Test public <T> void`), and the index of
    the first token so crossed, where the declaration starts. Each
    annotation runs from its one-character '@' to the end of its last
    token."""
    texts, ends = s
    annotations: list[str] = []
    i = before
    while i >= 0:
        if texts[i] in _MODIFIERS:
            i -= 1
        elif shape[i] == ">" and (start := _type_open(shape, brackets, i)) is not None:
            i = start - 1
        elif shape[i] in "w)" and (at := _annotation_start(shape, brackets, i)) is not None:
            annotations.append(text[ends[at] - 1 : ends[i]])
            i = at - 1
        else:
            break
    annotations.reverse()
    return tuple(annotations), i + 1


def _body_open(texts: tuple[str, ...], shape: str, i: int) -> int | None:
    """Index of the '{' at ``i``, or after the array dimensions
    (`int legacy()[] {`, JLS 8.4) and the throws clause that start at ``i``."""
    n = len(shape)
    while shape.startswith("[]", i):
        i += 2
    if i < n and texts[i] == "throws":
        i += 1
        while i < n and shape[i] in ",.w":
            i += 1
    return i if i < n and shape[i] == "{" else None


def extract_methods(src: SourceFile) -> list[TestMethod]:
    """All method declarations (not constructors) the signature heuristic finds.

    Methods inside nested or anonymous classes are extracted too and
    attributed to the file. Raises PartialParseError when a method body
    never closes before end of input, with every method recovered before
    that body, or when any other '{' never closes, with every method found.
    Runs in time linear in the token count.
    """
    s = tokenize(src.text)
    texts, ends = s
    shape = _shape(texts)
    brackets = _Brackets(shape)
    methods: list[TestMethod] = []
    # the first token of each method's declaration, by the index of its name
    starts: dict[int, int] = {}
    # the index in ``methods`` of each method, by the index of its body's '{'
    body_of: dict[int, int] = {}
    where = "at end of input"
    for match in _SIGNATURE_RE.finditer(shape):
        i = match.start()
        if (name := texts[i]) in _NOT_METHOD_NAMES:
            continue
        type_start = _return_type_start(texts, shape, brackets, i - 1)
        if type_start is None or (close := brackets.close_paren(i + 1)) is None:
            continue
        brace = _body_open(texts, shape, close + 1)
        if brace is None:
            continue
        body_close = brackets.brace.get(brace)
        if body_close is None:
            where = f"after method {name!r}"
            break
        annotations, start = _collect_annotations(s, shape, brackets, type_start - 1, src.text)
        starts[i] = start
        body_of[brace] = len(methods)
        # by position: keywords cost about a microsecond more per method
        methods.append(TestMethod(name, annotations, BodyTexts(texts, brace + 1, body_close),
                                  (ends[i] - len(name), ends[i]),
                                  (ends[brace] - 1, ends[body_close])))
    if brackets.open_braces:
        _end_runaway_bodies(s, shape, brackets, methods, starts, body_of, src.text)
        raise PartialParseError(
            f"{src.path}: unbalanced braces {where}; recovered {len(methods)} method(s)", methods)
    return methods


# modifiers no local class or local variable may carry (JLS 14.3, 14.4), so
# one directly in a method body starts a member of the class around it
_MEMBER_MODIFIERS = frozenset({"public", "protected", "private", "static"})


def _end_runaway_bodies(s: TokenStream, shape: str, brackets: _Brackets,
                        methods: list[TestMethod], starts: dict[int, int],
                        body_of: dict[int, int], text: str) -> None:
    """End each body in ``methods`` that holds a declaration directly in
    it, one whose name or member modifier has the body's '{' as the
    innermost '{' open, just before the first such declaration: a method,
    or a member that a ``_MEMBER_MODIFIERS`` word starts, from its first
    annotation or modifier. With a '{' left open at the end, a method that
    misses its own '}' takes the one meant for what holds it, and so runs
    over the members declared after it; a method of a class declared in
    a body, anonymous or local, is not one of them."""
    texts, ends = s
    stack: list[int] = []
    for i in sorted({*starts, *compress(count(), map(_MEMBER_MODIFIERS.__contains__, texts)),
                     *brackets.braces}):
        if shape[i] == "{":
            stack.append(i)
        elif shape[i] == "}":
            if stack:
                stack.pop()
        elif stack and (outer := body_of.pop(brace := stack[-1], None)) is not None:
            m = methods[outer]
            start = starts[i] if i in starts else _collect_annotations(s, shape, brackets, i, text)[1]
            end = max(start, brace + 1)
            methods[outer] = m._replace(body=BodyTexts(texts, brace + 1, end),
                                        body_span=(m.body_span[0], ends[end - 1]))


def recover_methods(src: SourceFile) -> tuple[list[TestMethod], PartialParseError | None]:
    """The methods of ``src`` and the partial-parse error, or None; after
    an error the methods are the ones recovered before it."""
    try:
        return extract_methods(src), None
    except PartialParseError as err:
        return err.methods, err


# an import at a line start, from the last '\n' before it; a search for
# that literal '\n' tries each line once, where a `^\s*` would rescan a
# run of blank lines from each of its line starts
_IMPORT_RE = re.compile(r"\n[^\S\n]*import\s+(?:static\s+)?([\w.]+(?:\.\*)?)\s*;")


def _import_names(text: str) -> list[str]:
    """The names of the imports that start a line (ended by CR, LF or CR LF)
    after optional whitespace, in text order; a newline put before the text
    makes its first line start as the others do."""
    return _IMPORT_RE.findall("\n" + text.replace("\r", "\n"))


def has_junit_import(src: SourceFile) -> bool:
    return any(
        name == "org.junit" or name.startswith(("org.junit.", "junit."))
        for name in _import_names(src.text)
    )


def _annotation_name(annotation: str) -> str:
    """The last segment of the name: ``Test`` of ``@org.junit.Test(timeout = 5)``."""
    return annotation.split("(", 1)[0].rsplit(".", 1)[-1].lstrip("@").strip()


def is_test_method(m: TestMethod) -> bool:
    """A ``@Test`` annotation (JUnit 4 or 5) or a JUnit 3 style test* name;
    JUnit 5's ``@ParameterizedTest`` and the like do not count."""
    if "@Test" in m.annotations or any(_annotation_name(a) == "Test" for a in m.annotations):
        return True
    return m.name.lower().startswith("test")

