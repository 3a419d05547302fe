"""Property tests for the tolerant extractor: the regex tokenizer against
the character-at-a-time scanner it replaced, the signature search against
the extractor that tried every '(', the extractor's invariants on random
token soup, and linear running time on adversarial shapes."""

import re
import time

from hypothesis import given, settings, strategies as st

from testlens import extraction
from testlens.extraction import (
    PartialParseError,
    SourceFile,
    TokenKind,
    extract_methods,
    tokenize,
)
from testlens.splitter import InvalidIdentifierError, split

_NUMBER_RE = re.compile(r"\d[\w.]*")


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
                end = text.find("\n", i)
                i = n if end == -1 else end + 1
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
    return tuple(zip(stream.kinds, stream.texts, stream.starts, stream.ends))


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


def test_tokenizer_edge_cases_match_reference_scanner():
    for text in ["", "   ", "/", "a/", "/* open", "// open", '"open', "'open",
                 '"ends in backslash\\', "x '\\", '"\\\n"', "/*/ x */ y", "1.2.3abc",
                 # whitespace or a comment after the last token
                 "x\n", "x \n", "x // c", "x /* c",
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
    n = len(stream)
    assert len(stream.kinds) == len(stream.texts) == len(stream.starts) == len(stream.ends) == n
    assert stream.tokens == stream.texts
    for i in range(n):
        assert text[stream.starts[i]:stream.ends[i]] == stream.texts[i]


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
    for kind, word in zip(stream.kinds, stream.texts):
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


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(_SOUP), max_size=60), st.sampled_from([" ", "", "\n"]))
def test_extractor_invariants_on_token_soup(words, sep):
    text = sep.join(words)
    try:
        methods = extract_methods(SourceFile("Soup.java", text))
    except PartialParseError as err:
        methods = err.methods
    stream = tokenize(text)
    for m in methods:
        assert text[m.name_span[0]:m.name_span[1]] == m.name
        start, end = m.body_span
        assert 0 <= start < end <= len(text)
        assert text[start] == "{" and text[end - 1] == "}"
        # the body is the file's token columns strictly between its braces
        lo, hi = stream.starts.index(start) + 1, stream.ends.index(end)
        body = m.body_tokens
        assert body.kinds == stream.kinds[lo:hi]
        assert body.texts == stream.texts[lo:hi]
        assert body.starts == stream.starts[lo:hi]
        assert body.ends == stream.ends[lo:hi]


def reference_kind(token: str) -> TokenKind:
    """A token's kind by the first-character rule the kind table replaced."""
    first = token[0]
    if first in "\"'":
        return TokenKind.STRING
    if first.isalpha() or first in "_$":
        return TokenKind.WORD
    return TokenKind.NUMBER if first.isdecimal() else TokenKind.PUNCTUATION


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


def _reference_at_sign(texts, i):
    """The '@' before the annotation name, maybe dotted, that ends at the word ``i``."""
    while i >= 2 and texts[i - 1] == "." and _is_word(texts[i - 2]):
        i -= 2
    return i - 1 if i >= 1 and texts[i - 1] == "@" else None


def _reference_annotation_at(texts, partner, close):
    open_idx = partner[close]
    if open_idx is not None and open_idx >= 1 and _is_word(texts[open_idx - 1]):
        return _reference_at_sign(texts, open_idx - 1)
    return None


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
            elif text == ")" and (at := _reference_annotation_at(texts, partner, i)) is not None:
                i = at
            elif text not in {".", ",", "?", "&", "<", ">", "[", "]", "@"}:
                return None
        elif kind is not TokenKind.WORD:
            return None
        i -= 1
    return None


def _reference_return_type_start(texts, partner, i):
    if i < 0:
        return None
    if texts[i] in (">", "]"):
        start = _reference_type_open(texts, partner, i)
        if start is None or start == 0:
            return None
        word = texts[start - 1]
        return start - 1 if _is_word(word) and word not in extraction._NOT_METHOD_NAMES else None
    return i if _is_word(texts[i]) and texts[i] not in extraction._NOT_RETURN_TYPES else None


def _reference_annotations(texts, ends, partner, i, text):
    annotations = []
    while i >= 0:
        tok = texts[i]
        if tok in extraction._MODIFIERS:
            i -= 1
        elif tok == "." and i >= 1 and _is_word(texts[i - 1]):
            i -= 2
        elif tok == ")":
            at = _reference_annotation_at(texts, partner, i)
            if at is None:
                break
            annotations.append(text[ends[at] - 1 : ends[i]])
            i = at - 1
        elif tok == ">":
            start = _reference_type_open(texts, partner, i)
            if start is None:
                break
            i = start - 1
        elif _is_word(tok) and (at := _reference_at_sign(texts, i)) is not None:
            annotations.append(text[ends[at] - 1 : ends[i]])
            i = at - 1
        else:
            break
    return tuple(reversed(annotations))


def _reference_body_open(texts, i):
    n = len(texts)
    if i < n and texts[i] == "throws":
        i += 1
        while i < n and (texts[i] in (",", ".") or _is_word(texts[i])):
            i += 1
    return i if i < n and texts[i] == "{" else None


def reference_extract(src: SourceFile) -> tuple[list[extraction.TestMethod], str | None]:
    """The extractor that tried a signature at every '(' (and tested kinds
    by first character), as methods and the partial-parse message."""
    s = tokenize(src.text)
    texts, ends = s
    partner = _reference_pairs(texts)
    methods: list[extraction.TestMethod] = []
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
            return methods, (f"{src.path}: unbalanced braces after method {name!r}; "
                             f"recovered {len(methods)} method(s)")
        methods.append(extraction.TestMethod(
            name, _reference_annotations(texts, ends, partner, type_start - 1, src.text), s,
            (brace + 1, partner[brace]), (ends[i] - len(name), ends[i]),
            (ends[brace] - 1, ends[partner[brace]])))
    return methods, None


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
    stream = tokenize(text)
    assert stream.kinds == tuple(map(reference_kind, stream.texts))


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
