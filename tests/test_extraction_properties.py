"""Property tests for the tolerant extractor: the regex tokenizer against
the character-at-a-time scanner it replaced, the signature search against
the extractor that tried every '(', the extractor's invariants on random
token soup, linear running time on adversarial shapes, and the JUnit
import search against the anchored regex it replaced."""

import re
import time
from enum import Enum
from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

from testlens import extraction
from testlens.extraction import (
    PartialParseError,
    SourceFile,
    TokenStream,
    extract_methods,
    has_junit_import,
    tokenize,
)
from testlens.splitter import InvalidIdentifierError, split

_NUMBER_RE = re.compile(r"\d[\w.]*")


class TokenKind(Enum):
    WORD = "word"
    PUNCTUATION = "punctuation"
    STRING = "string-literal"
    NUMBER = "number"


def reference_kind(token: str) -> TokenKind:
    """A token's kind by the first-character rule the lexer's branches follow."""
    first = token[0]
    if first in "\"'":
        return TokenKind.STRING
    if first.isalpha() or first in "_$":
        return TokenKind.WORD
    return TokenKind.NUMBER if first.isdecimal() else TokenKind.PUNCTUATION


def kinds(stream) -> tuple[TokenKind, ...]:
    return tuple(map(reference_kind, stream.texts))


def starts(stream) -> tuple[int, ...]:
    return tuple(end - len(text) for text, end in zip(stream.texts, stream.ends))


_SHAPE_OF_KIND = {TokenKind.WORD: "w", TokenKind.NUMBER: "0", TokenKind.STRING: '"'}


def reference_shape(token: str) -> str:
    """The shape character the signature search reads for ``token``."""
    kind = reference_kind(token)
    if kind is TokenKind.PUNCTUATION:
        return token if token.isascii() else "#"
    return _SHAPE_OF_KIND[kind]


Row = tuple[TokenKind, str, int, int]  # kind, text, start, end


def reference_tokenize(text: str) -> tuple[Row, ...]:
    """The character-at-a-time scanner the regex tokenizer replaced, with
    words widened from ASCII to the characters ``split`` accepts."""
    tokens: list[Row] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "/" and i + 1 < n:
            nxt = text[i + 1]
            if nxt == "/":
                # CR, LF and CR LF each end a line (JLS 3.4)
                i = next((k for k in range(i, n) if text[k] in "\r\n"), n)
                continue
            if nxt == "*":
                end = text.find("*/", i + 2)
                i = n if end == -1 else end + 2
                continue
        if text.startswith('"""', i):
            # a text block: it ends at the first unescaped '"""'
            j = i + 3
            while j < n:
                if text[j] == "\\":
                    j += 2
                    continue
                if text.startswith('"""', j):
                    j += 3
                    break
                j += 1
            else:
                j = n
            tokens.append((TokenKind.STRING, text[i:j], i, j))
            i = j
            continue
        if ch in "\"'":
            j = i + 1
            while j < n:
                if text[j] == "\\":
                    j += 2
                    continue
                if text[j] == ch:
                    j += 1
                    break
                j += 1
            else:
                j = n
            tokens.append((TokenKind.STRING, text[i:j], i, j))
            i = j
            continue
        if ch.isalpha() or ch in "_$":
            # what splitter.validate_identifier accepts, from a non-digit
            j = i + 1
            while j < n and (text[j].isalpha() or text[j].isdigit() or text[j] in "_$"):
                j += 1
            tokens.append((TokenKind.WORD, text[i:j], i, j))
            i = j
            continue
        m = _NUMBER_RE.match(text, i)
        if m:
            tokens.append((TokenKind.NUMBER, m.group(), i, m.end()))
            i = m.end()
            continue
        tokens.append((TokenKind.PUNCTUATION, ch, i, i + 1))
        i += 1
    return tuple(tokens)


def rows(text: str) -> tuple[Row, ...]:
    stream = tokenize(text)
    return tuple(zip(kinds(stream), stream.texts, starts(stream), stream.ends))


# the token regex with the word branch after the comment branches: the
# order of the branches must change no match
_REFERENCE_TOKEN_RE = re.compile(r"""
    \s*(?: //[^\r\n]* | /\*(?:.*?\*/|.*)
    | [A-Za-z_$][A-Za-z0-9_$]*
    | \"\"\"(?:[^"\\]|\\.|"(?!\"\"))*(?:\"\"\"|\\?\Z)
    | "[^"\\]*(?:\\.[^"\\]*)*(?:"|\\?\Z) | '[^'\\]*(?:\\.[^'\\]*)*(?:'|\\?\Z)
    | \d[\w.]*
    | \S
    ) | \s+\Z""", re.DOTALL | re.VERBOSE)


# characters that open or close every lexical state, plus non-ASCII
# digits, letters, numerics and whitespace: '\u00b2' and '\u2460' are
# digits but not decimal, so they continue a word but do not start one;
# '\u00bd' and '\u216b' are numeric but neither digits nor letters, so they
# are punctuation outside a number; '\u01c5' is a title-case letter and
# '\u4e00' a letter with a numeric value
_JAVA_CHARS = ("aZ_$09.x \t\n\r/*\"'\\{}()<>@;,-=\u0663\u00e9\u00a0\u2028\x1c"
               "\u00b2\u2460\x0b\x0c\u3000\u01c5\u00bd\u216b\u4e00")
_FRAGMENTS = [
    "/*", "*/", "//", "\n", '"', "'", "\\", '\\"', "\\'", "x", "Foo", "42", "4.2e3",
    "{", "}", "(", ")", "<", ">", "@", " ", "->", '"a b"', "'c'", '"""', '\\"""',
    '"""\nhe said "hi\n"""',
]


_java_text = st.one_of(
    st.text(alphabet=_JAVA_CHARS, max_size=60),
    st.lists(st.sampled_from(_FRAGMENTS), max_size=30).map("".join),
)


@settings(max_examples=400, deadline=None)
@given(_java_text)
def test_tokenizer_matches_reference_scanner(text):
    assert rows(text) == reference_tokenize(text)
    if text.isascii():
        assert extraction._TOKEN_RE.findall(text) == _REFERENCE_TOKEN_RE.findall(text)


def test_tokenizer_edge_cases_match_reference_scanner():
    for text in ["", "   ", "/", "a/", "/* open", "// open", '"open', "'open",
                 '"ends in backslash\\', "x '\\", '"\\\n"', "/*/ x */ y", "1.2.3abc",
                 # whitespace or a comment after the last token
                 "x\n", "x \n", "x // c", "x /* c", "//\r0", "// c\r\nx",
                 # text blocks, closed, open, with quotes and escapes inside
                 '"""\na "b" ""c\n"""', '""""', '"""\\"""x', '"""x\\', '""" open "" ',
                 # comments that touch, nest or sit in literals
                 "/* a *//* b */ x", "// a // b\n/* c */", "a ///* b\n c", 's = "/*"; t // u',
                 "x / *p /**/"]:
        assert rows(text) == reference_tokenize(text), text


@settings(max_examples=200, deadline=None)
@given(_java_text)
def test_columns_are_parallel_and_slice_the_text(text):
    stream = tokenize(text)
    assert len(stream.texts) == len(stream.ends) == len(stream)
    assert stream.tokens == stream.texts
    for start, token, end in zip(starts(stream), stream.texts, stream.ends):
        assert text[start:end] == token
    assert extraction._shape(stream.texts) == "".join(map(reference_shape, stream.texts))


def _split_accepts(name: str) -> bool:
    try:
        split(name)
    except InvalidIdentifierError:
        return False
    return True


@settings(max_examples=300, deadline=None)
@given(_java_text | st.text(max_size=40))
def test_every_word_is_an_identifier_split_accepts(text):
    stream = tokenize(text)
    for kind, word in zip(kinds(stream), stream.texts):
        if kind is TokenKind.WORD:
            assert _split_accepts(word), word


# statement keywords, which never name a method
_KEYWORDS = {"if", "for", "while", "switch", "catch", "do", "else", "try", "return",
             "new", "super", "this", "assert", "throw", "synchronized"}
_identifiers = st.text(
    st.characters(categories=("Lu", "Ll", "Lt", "Lm", "Lo", "Nd", "Nl", "No"))
    | st.sampled_from("_$aZ09"),
    min_size=1, max_size=12,
).filter(lambda name: _split_accepts(name) and not name[0].isdigit() and name not in _KEYWORDS)


@settings(max_examples=300, deadline=None)
@given(_identifiers)
def test_every_identifier_split_accepts_is_extracted(name):
    text = f"import org.junit.Test;\nclass T {{\n    void {name}() {{}}\n}}\n"
    methods = extract_methods(SourceFile("T.java", text))
    assert [m.name for m in methods] == [name]
    assert text[slice(*methods[0].name_span)] == name


_SOUP = [
    "@", "Test", "@Test", "public", "static", "<", ">", "T", "extends", "super", "?",
    "&", "[", "]", ",", ".", "void", "int", "List", "foo", "bar", "record", "throws",
    "new", "if", "return", "(", ")", "{", "}", ";", "=", "->", "-", "!", "x", "1",
    '"s"', "'c'", "/* c */", "// c\n",
]


def _innermost_open_before(texts: tuple[str, ...]) -> list[int | None]:
    """Per token, the index of the innermost '{' still open before it."""
    stack: list[int] = []
    innermost: list[int | None] = []
    for i, text in enumerate(texts):
        innermost.append(stack[-1] if stack else None)
        if text == "{":
            stack.append(i)
        elif text == "}" and stack:
            stack.pop()
    return innermost


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(_SOUP), max_size=60), st.sampled_from([" ", "", "\n"]))
@example("{ void a ( ) { void b ( ) { } }".split(" "), " ")
def test_extractor_invariants_on_token_soup(words, sep):
    """Each body of a file that parses whole runs from its '{' to its own
    '}'. With a '{' left open, a body that holds a declaration directly in
    it is cut: it ends at the end of a token, before the start of the first
    such declaration, a method or a member with a member modifier."""
    text = sep.join(words)
    assert extraction._TOKEN_RE.findall(text) == _REFERENCE_TOKEN_RE.findall(text)
    methods, err = extraction.recover_methods(SourceFile("Soup.java", text))
    stream = tokenize(text)
    texts = stream.texts
    partner = _reference_pairs(texts)
    innermost = _innermost_open_before(texts)
    names = {stream.ends.index(m.name_span[1]) for m in methods}
    for m in methods:
        assert text[m.name_span[0]:m.name_span[1]] == m.name
        start, end = m.body_span
        assert 0 <= start < end <= len(text)
        assert text[start] == "{"
        brace = starts(stream).index(start)
        lo, hi = brace + 1, stream.ends.index(end)
        if partner[hi] == brace:
            # whole: the token columns strictly between its braces
            assert text[end - 1] == "}"
            body = slice(lo, hi)
        else:
            assert err is not None, m.name
            # cut: through its last token, before the first declaration in it
            body = slice(lo, hi + 1)
            declared = [k for k in range(lo, len(texts)) if innermost[k] == brace
                        and (k in names or texts[k] in extraction._MEMBER_MODIFIERS)]
            assert declared and declared[0] > hi, (m.name, declared, hi)
        assert m.body == texts[body]


def _is_word(token: str) -> bool:
    return reference_kind(token) is TokenKind.WORD


def _reference_pairs(texts: tuple[str, ...]) -> list[int | None]:
    partner: list[int | None] = [None] * len(texts)
    stacks: dict[str, list[int]] = {"(": [], "{": []}
    for i, text in enumerate(texts):
        if text in stacks:
            stacks[text].append(i)
        elif text in (")", "}") and (stack := stacks["(" if text == ")" else "{"]):
            j = stack.pop()
            partner[i], partner[j] = j, i
    return partner


@settings(max_examples=400, deadline=None)
@given(st.text("(){}w;.", max_size=40), st.data())
def test_bracket_lookup_gives_the_stack_pass_partner(shape, data):
    """Braces at once, and each parenthesis asked alone or in any order on
    one lookup, after its stack pass has run or not, get the partner a
    stack pass per kind gives, also in unbalanced shapes."""
    want = _reference_pairs(tuple(shape))
    brackets = extraction._Brackets(shape)
    assert brackets.braces == [i for i, c in enumerate(shape) if c in "{}"]
    assert brackets.open_braces == [i for i, c in enumerate(shape) if c == "{" and want[i] is None]

    def partner(lookup, i):
        if shape[i] == "(":
            return lookup.close_paren(i)
        return lookup.open_paren(i) if shape[i] == ")" else lookup.brace.get(i)

    brackets_at = [i for i, c in enumerate(shape) if c in "(){}"]
    assert [partner(extraction._Brackets(shape), i) for i in brackets_at] == [want[i] for i in brackets_at]
    order = data.draw(st.permutations(brackets_at))
    assert {i: partner(brackets, i) for i in order} == {i: want[i] for i in order}


def _reference_annotation_start(texts, partner, i):
    """The '@' of the annotation that ends at token ``i``: the last word of
    its name, maybe dotted, or the ')' of its arguments."""
    if texts[i] == ")":
        if partner[i] is None or partner[i] < 1:
            return None
        i = partner[i] - 1
    if not _is_word(texts[i]):
        return None
    while i >= 2 and texts[i - 1] == "." and _is_word(texts[i - 2]):
        i -= 2
    return i - 1 if i >= 1 and texts[i - 1] == "@" else None


def _reference_type_open(texts, partner, i):
    close = texts[i]
    opener = {">": "<", "]": "["}[close]
    depth = 0
    while i >= 0:
        text = texts[i]
        kind = reference_kind(text)
        if kind is TokenKind.PUNCTUATION:
            if text == close:
                depth += 1
            elif text == opener:
                depth -= 1
                if depth == 0:
                    return i
            elif text == ")" and (at := _reference_annotation_start(texts, partner, i)) is not None:
                i = at
            elif text not in {".", ",", "?", "&", "<", ">", "[", "]", "@"}:
                return None
        elif kind is not TokenKind.WORD:
            return None
        i -= 1
    return None


def _reference_return_type_start(texts, partner, i):
    """Back over the type's `[]` and `<…>` groups, and the annotations
    before each '[', to the word they follow, then over its qualifier; no
    keyword and no annotation's name is a type."""
    while i >= 0 and texts[i] in (">", "]"):
        i = _reference_type_open(texts, partner, i)
        if i is None:
            return None
        if texts[i] == "[":
            while i >= 1 and (at := _reference_annotation_start(texts, partner, i - 1)) is not None:
                i = at
        i -= 1
    if i < 0 or not _is_word(texts[i]) or texts[i] in extraction._NOT_RETURN_TYPES:
        return None
    if _reference_annotation_start(texts, partner, i) is not None:
        return None
    while i >= 2 and texts[i - 1] == "." and _is_word(texts[i - 2]):
        i -= 2
    return i


def _reference_annotations(texts, ends, partner, i, text):
    """The annotations before token ``i`` and the index where the declaration starts."""
    annotations = []
    while i >= 0:
        if texts[i] in extraction._MODIFIERS:
            i -= 1
        elif texts[i] == ">" and (start := _reference_type_open(texts, partner, i)) is not None:
            i = start - 1
        elif (at := _reference_annotation_start(texts, partner, i)) is not None:
            annotations.append(text[ends[at] - 1 : ends[i]])
            i = at - 1
        else:
            break
    return tuple(reversed(annotations)), i + 1


def _reference_body_open(texts, i):
    """Past array dimensions after the parameters (JLS 8.4) and a throws clause."""
    n = len(texts)
    while texts[i:i + 2] == ("[", "]"):
        i += 2
    if i < n and texts[i] == "throws":
        i += 1
        while i < n and (texts[i] in (",", ".") or _is_word(texts[i])):
            i += 1
    return i if i < n and texts[i] == "{" else None


def reference_extract(src: SourceFile) -> tuple[list[extraction.TestMethod], str | None]:
    """The extractor that tried a signature at every '(' (and tested kinds
    by first character), as methods and the partial-parse message; any
    '{' left open at the end makes the parse partial, and then a method
    body ends before the first method, or member modifier, whose innermost
    open '{' at its name, or at that modifier, is that body's."""
    texts, ends = tokenize(src.text)
    partner = _reference_pairs(texts)
    methods: list[extraction.TestMethod] = []
    declarations = []  # per method, the indexes of its name and of its first token
    braces = []  # per method, the index of its body's '{'
    where = "at end of input"
    for paren in [i for i, t in enumerate(texts) if t == "("]:
        i = paren - 1
        if i < 0 or (name := texts[i]) in extraction._NOT_METHOD_NAMES or not _is_word(name):
            continue
        if (close := partner[paren]) is None:
            continue
        type_start = _reference_return_type_start(texts, partner, i - 1)
        brace = None if type_start is None else _reference_body_open(texts, close + 1)
        if brace is None:
            continue
        if partner[brace] is None:
            where = f"after method {name!r}"
            break
        annotations, start = _reference_annotations(texts, ends, partner, type_start - 1, src.text)
        declarations.append((i, start))
        braces.append(brace)
        methods.append(extraction.TestMethod(
            name, annotations, texts[brace + 1 : partner[brace]], (ends[i] - len(name), ends[i]),
            (ends[brace] - 1, ends[partner[brace]])))
    if not any(t == "{" and partner[i] is None for i, t in enumerate(texts)):
        return methods, None
    named = {name for name, _ in declarations}
    declarations += [(k, _reference_annotations(texts, ends, partner, k, src.text)[1])
                     for k, t in enumerate(texts)
                     if t in ("public", "protected", "private", "static") and k not in named]
    body_ends: dict[int, int] = {}
    for name, start in sorted(declarations):
        innermost = max((j for j in range(name) if texts[j] == "{"
                         and (partner[j] is None or partner[j] > name)), default=None)
        for k, brace in enumerate(braces):
            if brace == innermost:
                body_ends.setdefault(k, max(start, brace + 1))
    for k, end in body_ends.items():
        methods[k] = methods[k]._replace(body=texts[braces[k] + 1 : end],
                                         body_span=(methods[k].body_span[0], ends[end - 1]))
    return methods, f"{src.path}: unbalanced braces {where}; recovered {len(methods)} method(s)"


# fragments of Java whose shapes the signature search must tell apart from
# declarations: lambdas, comparisons before calls, generic and array types,
# calls after `new` and `return`, and annotations with arguments or dotted names
_JAVA_SOUP = [
    "@Test", "@Test(timeout = 100)", '@SuppressWarnings({"a", "b"})', "@Nested", "@",
    "@org.junit.Test", "@org.junit.Test(timeout = 5)",
    "public", "static", "final", "private", "void", "int", "int[]", "String[][]",
    "List<String>", "Map<K, List<V>>", "<T extends Comparable<? super T>>", "java.util.List",
    "testA", "name", "f", "x", "a", "record", "throws", "IOException,", "E", "new Foo(x)",
    "return f(x);", "() -> f(x)", "s -> g(s, y)", "a > f(x)", "a < b", "xs[0]", "(", ")",
    "{", "}", "[", "]", "<", ">", ";", ",", ".", "?", "&", "->", "=", "1", "'c'", '"s"',
    '"""\n"q\n"""', "/* c */", "// c\n", "été", "½", "٣", "f(x)", "void testB()", "{ }",
    "@Test public void testA() { f(x); }", "void helper() { return; }",
    "<T> List<T> gen(T t) { return null; }", "int[] arr() { return a; }",
    "<T extends A & B> void both() { }", "List<@NonNull(x) String> tagged() { }",
    "throws java.io.IOException", "@1", "void thrower() throws java.io.IOException { }",
    "@Test java.util.List<T> listed() { }", ") . void dotted() { }", "; <T> bare() { }",
    "@Inject Ctor() { }", "public <T> Ctor(T t) { }", "String @A [] dims() { }", "@A(1) [] ",
    "java.util.@A List<T> qualified() { }", "a.@B",
]


@settings(max_examples=500, deadline=None)
@given(st.lists(st.sampled_from(_JAVA_SOUP), max_size=40), st.sampled_from([" ", "\n", ""]))
def test_signature_search_matches_every_paren_reference(words, sep):
    text = sep.join(words)
    src = SourceFile("Soup.java", text)
    try:
        methods, message = extract_methods(src), None
    except PartialParseError as err:
        methods, message = err.methods, str(err)
    assert (methods, message) == reference_extract(src)


_SHAPES = {
    "plain": "assertEquals({i}, compute({i}));",
    "lambda": "run(() -> f(x{i})); items.forEach(s -> g(s, {i}));",
    "comparison": "if (a{i} > b(c)) {{ ok(); }} assertTrue(x > y({i}));",
}


def _seconds_per_token(body: str) -> float:
    methods = "".join(
        f"    @Test public void test{i}() {{ {body.format(i=i)} }}\n" for i in range(1000)
    )
    src = SourceFile("T.java", "import org.junit.Test;\nclass T {\n" + methods + "}\n")
    best = float("inf")
    for _ in range(3):
        start = time.process_time()
        assert len(extract_methods(src)) == 1000
        best = min(best, time.process_time() - start)
    return best / len(tokenize(src.text))


def test_extraction_time_is_linear_on_lambdas_and_comparisons():
    per_token = {name: _seconds_per_token(body) for name, body in _SHAPES.items()}
    for shape in ("lambda", "comparison"):
        assert per_token[shape] <= 3 * per_token["plain"], per_token


def test_extraction_time_is_linear_on_nested_declarations():
    """Each body of ``d`` declarations nested in one another holds the
    rest: a body that copied its texts would copy on the order of ``d**2``
    of them, over twenty times the plain file's cost per token at this ``d``."""
    depth = 3000
    nested = "".join(f"void a{i}() {{ " for i in range(depth)) + "}" * depth
    src = SourceFile("T.java", "class T {\n" + nested + "\n}\n")
    best = float("inf")
    for _ in range(3):
        start = time.process_time()
        methods = extract_methods(src)
        best = min(best, time.process_time() - start)
    assert len(methods) == depth and len(methods[0].body) == 6 * (depth - 1)
    assert best / len(tokenize(src.text)) <= 3 * _seconds_per_token(_SHAPES["plain"])


@pytest.mark.parametrize("members", [
    "void a( " * 4000,
    "void a(int " * 2000 + ")" * 2000 + " { }",
    "void f(" + "g(h(" * 2000 + ")" * 4001 + " { }",
], ids=["unclosed", "nested-declarations", "nested-calls"])
def test_extraction_time_is_linear_where_the_parenthesis_lookup_misses(members):
    """Each '(' here is asked for its partner by a candidate whose first
    ')' is far away or missing, with other '(' between: one stack pass
    over the parentheses must answer them all."""
    src = SourceFile("T.java", "class T {\n" + members + "\n}\n")
    best = float("inf")
    for _ in range(3):
        start = time.process_time()
        extract_methods(src)
        best = min(best, time.process_time() - start)
    assert best / len(tokenize(src.text)) <= 3 * _seconds_per_token(_SHAPES["plain"])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from("ab{}"), max_size=8).map(tuple), st.integers(0, 8),
       st.integers(0, 8), st.integers(-10, 10), st.sampled_from("ab{}x"),
       st.slices(10))
def test_body_texts_read_as_the_tuple_they_view(texts, start, stop, i, text, part):
    stop = min(stop, len(texts))
    start = min(start, stop)
    view, want = extraction.BodyTexts(texts, start, stop), texts[start:stop]
    assert len(view) == len(want) and tuple(view) == want and list(reversed(view)) == list(reversed(want))
    assert view[part] == want[part] and type(view[part]) is tuple
    if -len(want) <= i < len(want):
        assert view[i] == want[i]
    else:
        with pytest.raises(IndexError):
            view[i]
    assert (text in view) == (text in want) and view.count(text) == want.count(text)
    assert view == want and want == view and not view != want and view != list(want)
    assert view == extraction.BodyTexts(("x", *texts), start + 1, stop + 1)
    assert view != texts[start:stop + 1] or stop == len(texts)
    assert hash(view) == hash(want) and repr(view) == repr(want)


def _junit_import(text: str) -> bool:
    return has_junit_import(SourceFile("T.java", text))


_PLAIN_FILE = "import org.junit.Test;\n\nclass T {\n" + (
    '    @Test public void testParse() { assertEquals(1, parse("a")); }\n' * 8000)

# a run of whitespace that a `\s*` before each token rescans from each of
# its characters, a run of blank lines that a `^\s*` import regex rescans
# from each line start, and one long line of imports that a backward
# search for the line's start rescans from each import
_WHITESPACE_AND_IMPORT_SHAPES = {
    "trailing-spaces": (tokenize, "x" + " " * 100_000),
    "trailing-tabs": (tokenize, "x" + "\t" * 100_000),
    "trailing-newlines": (tokenize, "x" + "\n" * 100_000),
    "whitespace-only": (tokenize, " " * 100_000),
    "blank-lines": (_junit_import, "\n" * 20_000 + "x"),
    "one-import-line": (_junit_import, "x " + "import a; " * 40_000),
}


def _seconds_per_char(fn, text: str) -> float:
    best = float("inf")
    for _ in range(5):
        start = time.process_time()
        fn(text)
        best = min(best, time.process_time() - start)
    return best / len(text)


@pytest.mark.parametrize("shape", _WHITESPACE_AND_IMPORT_SHAPES)
def test_time_is_linear_on_whitespace_runs_and_import_lines(shape):
    """Against a plain file of the same length. The bound is loose, as a
    blank line costs the import search what a whole plain line does, but
    each quadratic pass named above exceeds it twentyfold or more."""
    fn, text = _WHITESPACE_AND_IMPORT_SHAPES[shape]
    plain = _PLAIN_FILE[:len(text)]
    assert len(plain) == len(text)
    assert _seconds_per_char(fn, text) <= 50 * _seconds_per_char(fn, plain)


# the `^\s*` import regex `has_junit_import` used before, with a line start
# after CR, LF or CR LF (JLS 3.4), as the reference: the names of the
# imports whose line holds only whitespace before them
_REFERENCE_IMPORT_RE = re.compile(
    r"(?:\A|(?<=[\r\n]))\s*import\s+(?:static\s+)?([\w.]+(?:\.\*)?)\s*;")
_IMPORT_FRAGMENTS = ["import", "static", "org.junit", "junit.", "org.junitx", ";", ".*", "/*", "*/",
                     '"""', "x", ".", "import org.junit.Test;", "import static junit.framework.Assert.*;"]
# the gap before each fragment: '\u2028' and '\x1c' are whitespace that
# does not end a line
_IMPORT_GAPS = ["", " ", "\n", "\r", "\t", "\f", "\r\n", " \n\t", "\u2028", "\x1c"]


@settings(max_examples=400, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(_IMPORT_GAPS), st.sampled_from(_IMPORT_FRAGMENTS)),
                max_size=30).map(lambda parts: "".join(gap + fragment for gap, fragment in parts)))
def test_import_names_match_the_anchored_reference(text):
    names = _REFERENCE_IMPORT_RE.findall(text)
    assert extraction._import_names(text) == names
    assert _junit_import(text) == any(
        name == "org.junit" or name.startswith(("org.junit.", "junit.")) for name in names)


# a small grammar of legal JUnit test classes: statements and fields whose
# literals and comments hold braces, parentheses, quotes and fake
# declarations; test annotations plain, dotted or with arguments beside
# other annotations with arguments; lambdas, anonymous classes and nested
# classes. Only the planted names may come out as test methods.
_STATEMENTS = [
    'String block = """\n    a " b "" { } ( ) @Test void testFake() {\n    """;',
    "char open = '{';", "char quote = '\"';", "char tick = '\\'';", "char paren = '(';",
    'assertEquals("}", parse("{ ) void testFake() {"));',
    "// } @Test public void testFake() {\n",
    "/* @Test public void testFake() { } */",
    "Runnable r = () -> { helper(); };",
    "items.forEach(s -> check(s, 1));",
    "if (a > b(c)) { return; }",
    "Object o = new Object() { @Override public String toString() { return \"}\"; } };",
    "int[] xs = {1, 2};",
    "java.util.List<String> names = new java.util.ArrayList<>();",
]
_FIELDS = [
    'private static final String BRACE = "}";',
    "private final char open = '{';",
    'private static final String BLOCK = """\n    } ( "\n    """;',
    "private int count;",
    "private final Runnable task = new Runnable() { public void run() { count++; } };",
]
_TEST_ANNOTATIONS = ["@Test", "@org.junit.Test", "@Test(timeout = 100)",
                     "@org.junit.Test(expected = IllegalStateException.class)",
                     "@org.junit.jupiter.api.Test"]
_OTHER_ANNOTATIONS = ['@SuppressWarnings({"unchecked", "rawtypes"})', '@DisplayName("a ) { b")',
                      "@Timeout(value = 5, unit = TimeUnit.SECONDS)", "@Disabled", "@Override"]
_MODIFIERS = ["", "public ", "public static ", "protected ", "private ", "public <T> "]
_THROWS = ["", " throws Exception", " throws java.io.IOException, InterruptedException"]
_WORDS = ["Parse", "Empty", "List", "Value", "Ok", "Name"]
_HELPER_NAMES = ["helper", "setUp", "check", "build", "apply", "parseAll"]


@st.composite
def _method(draw, planted: list[str], words: list[str]) -> str:
    """A test method named from ``words``, recording its name in
    ``planted``, or a helper."""
    body = "\n        ".join(draw(st.lists(st.sampled_from(_STATEMENTS), max_size=4)))
    others = draw(st.lists(st.sampled_from(_OTHER_ANNOTATIONS), max_size=2, unique=True))
    signature = f"{draw(st.sampled_from(_MODIFIERS))}void"
    kind = draw(st.sampled_from(["annotated", "junit3", "helper"]))
    if kind == "helper":
        name = draw(st.sampled_from(_HELPER_NAMES))
    else:
        tail = "".join(draw(st.lists(st.sampled_from(words), min_size=1, max_size=3)))
        prefix = "test" if kind == "junit3" else draw(st.sampled_from(["should", "it", "test"]))
        name = prefix + tail
        planted.append(name)
        if kind == "annotated":
            others.insert(draw(st.integers(0, len(others))), draw(st.sampled_from(_TEST_ANNOTATIONS)))
    lines = [*others, f"{signature} {name}(){draw(st.sampled_from(_THROWS))} {{", f"    {body}", "}"]
    return "\n    ".join(lines)


@st.composite
def _members(draw, planted: list[str], depth: int, words: list[str]) -> str:
    members = []
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["method", "method", "field", "nested"] if depth else
                                    ["method", "method", "field"]))
        if kind == "method":
            members.append(draw(_method(planted, words)))
        elif kind == "field":
            members.append(draw(st.sampled_from(_FIELDS)))
        else:
            header = draw(st.sampled_from(["static class Inner", "@Nested class Inner",
                                           "private interface Helper"]))
            inner = draw(_members(planted, depth - 1, words)) if "interface" not in header else ""
            members.append(f"{header} {{\n{inner}\n}}")
    return "\n\n    ".join(members)


@st.composite
def planted_test_classes(draw, words: list[str] = _WORDS) -> tuple[str, list[str]]:
    """A test class and its test methods' names, in text order."""
    planted: list[str] = []
    annotation = draw(st.sampled_from(["", "@RunWith(JUnit4.class)\n", '@DisplayName("x { y")\n']))
    members = draw(_members(planted, 1, words))
    text = (f"import org.junit.Test;\n\n{annotation}public class GeneratedTest {{\n"
            f"    {members}\n}}\n")
    return text, planted


@settings(max_examples=300, deadline=None)
@given(planted_test_classes())
def test_exactly_the_planted_test_methods_are_found(generated):
    text, planted = generated
    methods = extract_methods(SourceFile("GeneratedTest.java", text))
    assert [m.name for m in methods if extraction.is_test_method(m)] == planted


def _method_fields(m: extraction.TestMethod) -> tuple:
    return m.name, m.annotations, m.name_span, m.body_span


def _innermost_open_braces(stream: TokenStream) -> dict[int, int | None]:
    """Each token's end offset, mapped to the index of the innermost '{'
    still open after that token."""
    stack: list[int] = []
    innermost: dict[int, int | None] = {}
    for i, (text, end) in enumerate(zip(stream.texts, stream.ends)):
        if text == "{":
            stack.append(i)
        elif text == "}" and stack:
            stack.pop()
        innermost[end] = stack[-1] if stack else None
    return innermost


@settings(max_examples=200, deadline=None)
@given(planted_test_classes(), st.data())
def test_a_dropped_closing_brace_makes_the_file_partial(generated, data):
    """Any '}' dropped leaves a '{' open, so the file is partial. The '{'
    left open is the outermost one open at the drop, a class's, so no
    method body is cut short: every method is found, and each that ends
    before the dropped brace or is declared after it is found exactly. A
    method whose body held the dropped brace runs on, but ends before the
    next method declared in its class."""
    text, _ = generated
    intact = extract_methods(SourceFile("GeneratedTest.java", text))
    stream = tokenize(text)
    closers = [end - 1 for t, end in zip(stream.texts, stream.ends) if t == "}"]
    dropped = data.draw(st.sampled_from(closers))
    methods, err = extraction.recover_methods(
        SourceFile("GeneratedTest.java", text[:dropped] + text[dropped + 1:]))
    assert err is not None

    def moved(offset: int) -> int:
        return offset - (offset > dropped)

    recovered = {m.name_span[0]: m for m in methods}
    assert len(recovered) == len(intact)
    pairs = [(m, recovered[moved(m.name_span[0])]) for m in intact]
    for m, found in pairs:
        # a declaration starts at its first annotation, which can hold braces
        declared = (text.rfind(m.annotations[0], 0, m.name_span[0]) if m.annotations
                    else m.name_span[0])
        if m.body_span[1] <= dropped or declared > dropped:
            assert _method_fields(found) == (m.name, m.annotations, tuple(map(moved, m.name_span)),
                                             tuple(map(moved, m.body_span)))
    innermost = _innermost_open_braces(stream)
    for (m, found), (later, later_found) in combinations(pairs, 2):
        if innermost[m.name_span[1]] == innermost[later.name_span[1]]:
            assert found.body_span[1] <= later_found.name_span[0], (m.name, later.name)
