"""Property tests for the tolerant extractor: the regex tokenizer against
the character-at-a-time scanner it replaced, the extractor's invariants on
random token soup, and linear running time on adversarial shapes."""

import re
import time

from hypothesis import given, settings, strategies as st

from testlens.extraction import (
    PartialParseError,
    SourceFile,
    TokenKind,
    extract_methods,
    tokenize,
)

_WORD_RE = re.compile(r"[A-Za-z_$][A-Za-z0-9_$]*")
_NUMBER_RE = re.compile(r"\d[\w.]*")


Row = tuple[TokenKind, str, int, int]  # kind, text, start, end


def reference_tokenize(text: str) -> tuple[Row, ...]:
    """The character-at-a-time scanner the regex tokenizer replaced."""
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
        m = _WORD_RE.match(text, i)
        if m:
            tokens.append((TokenKind.WORD, m.group(), i, m.end()))
            i = m.end()
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
# digits, letters and whitespace, which the two scanners classify alike
_JAVA_CHARS = "aZ_$09.x \t\n\r/*\"'\\{}()<>@;,-=\u0663\u00e9\u00a0\u2028\x1c"
_FRAGMENTS = [
    "/*", "*/", "//", "\n", '"', "'", "\\", '\\"', "\\'", "x", "Foo", "42", "4.2e3",
    "{", "}", "(", ")", "<", ">", "@", " ", "->", '"a b"', "'c'",
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
                 '"ends in backslash\\', "x '\\", '"\\\n"', "/*/ x */ y", "1.2.3abc"]:
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
