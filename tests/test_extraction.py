import pytest

from testlens.extraction import (
    PartialParseError,
    SourceFile,
    TokenKind,
    extract_methods,
    has_junit_import,
    is_test_method,
    recover_methods,
    tokenize,
)

SIMPLE = """\
import org.junit.Test;

public class ParserTest {
    @Test
    public void testParser() {
        Parser p = new Parser();
        assertEquals(1, p.parse("x"));
    }
}
"""

JUNIT3 = """\
import junit.framework.TestCase;

public class LegacyTest extends TestCase {
    public void testParser() {
        assertTrue(true);
    }

    public void helper() {
        int x = 1;
    }
}
"""

TRICKY_STRING = """\
class T {
    void testBraces() {
        String s = "}";
        String t = "{ not a brace }";
        char c = '}';
        use(s, t, c);
    }
}
"""

NESTED = """\
import org.junit.Test;
class Outer {
    @Test
    public void testOuter() {
        Runnable r = new Runnable() {
            public void run() {
                doWork();
            }
        };
        r.run();
    }
}
"""

UNBALANCED = """\
import org.junit.Test;
class Broken {
    @Test
    public void testOk() {
        assertTrue(true);
    }
    public void testBroken() {
        if (x) {
"""


class TestTokenize:
    def test_comments_excluded(self):
        stream = tokenize("a // line\n/* block */ b")
        assert stream.texts == ("a", "b")
        assert (stream.starts, stream.ends) == ((0, 22), (1, 23))

    def test_string_literal_single_token(self):
        stream = tokenize('call("a b { }");')
        assert stream.kinds.count(TokenKind.STRING) == 1
        literal = stream.kinds.index(TokenKind.STRING)
        assert stream.texts[literal] == '"a b { }"'

    def test_escaped_quote(self):
        stream = tokenize(r'"a\"b" x')
        assert stream.texts == (r'"a\"b"', "x")
        assert stream.kinds == (TokenKind.STRING, TokenKind.WORD)

    def test_spans_strictly_increasing(self):
        stream = tokenize(SIMPLE)
        assert len(stream) == len(stream.kinds) == len(stream.starts) == len(stream.ends)
        for start, end in zip(stream.starts, stream.ends):
            assert start < end
        for end, next_start in zip(stream.ends, stream.starts[1:]):
            assert end <= next_start

    def test_numbers(self):
        stream = tokenize("int x = 42;")
        kinds = dict(zip(stream.texts, stream.kinds))
        assert kinds["42"] is TokenKind.NUMBER

    def test_non_ascii_letters_make_words(self):
        stream = tokenize("testGrößeAfterClear(_é, $ü, ǅx2, x²)")
        words = [t for k, t in zip(stream.kinds, stream.texts) if k is TokenKind.WORD]
        assert words == ["testGrößeAfterClear", "_é", "$ü", "ǅx2", "x²"]

    def test_characters_no_identifier_holds_are_punctuation(self):
        # '½' is numeric but neither a letter nor a digit; '²' is a digit,
        # which cannot start a word; '٣' is a decimal digit and starts a number
        stream = tokenize("a½b ²c ٣x")
        assert list(zip(stream.kinds, stream.texts)) == [
            (TokenKind.WORD, "a"), (TokenKind.PUNCTUATION, "½"), (TokenKind.WORD, "b"),
            (TokenKind.PUNCTUATION, "²"), (TokenKind.WORD, "c"), (TokenKind.NUMBER, "٣x")]

    def test_kinds_and_starts_are_derived_from_texts_and_ends(self):
        stream = tokenize("é = 'c' + 1;")
        assert stream._fields == ("texts", "ends")
        assert stream.kinds == (TokenKind.WORD, TokenKind.PUNCTUATION, TokenKind.STRING,
                                TokenKind.PUNCTUATION, TokenKind.NUMBER, TokenKind.PUNCTUATION)
        assert stream.starts == (0, 2, 4, 8, 10, 11)


class TestExtractMethods:
    def test_single_method(self):
        src = SourceFile("ParserTest.java", SIMPLE)
        methods = extract_methods(src)
        assert [m.name for m in methods] == ["testParser"]
        m = methods[0]
        assert src.text[m.name_span[0]:m.name_span[1]] == "testParser"
        assert m.annotations == ("@Test",)

    def test_no_methods(self):
        assert extract_methods(SourceFile("X.java", "class X { int f; }")) == []

    def test_brace_in_string_literal(self):
        src = SourceFile("T.java", TRICKY_STRING)
        methods = extract_methods(src)
        assert [m.name for m in methods] == ["testBraces"]
        body_start, body_end = methods[0].body_span
        # independent check: a hand scan that tracks quote state
        assert (body_start, body_end) == _reference_body_span(src.text)

    def test_annotation_arguments_captured(self):
        text = """
        class T {
            @Test(expected = IllegalStateException.class)
            public void testThrows() { go(); }
        }
        """
        methods = extract_methods(SourceFile("T.java", text))
        assert methods[0].annotations == ("@Test(expected = IllegalStateException.class)",)

    def test_nested_anonymous_class_methods_extracted(self):
        methods = extract_methods(SourceFile("Outer.java", NESTED))
        assert [m.name for m in methods] == ["testOuter", "run"]

    def test_throws_clause(self):
        text = "class T { void testIo() throws java.io.IOException, Error { x(); } }"
        methods = extract_methods(SourceFile("T.java", text))
        assert [m.name for m in methods] == ["testIo"]

    def test_control_flow_not_methods(self):
        text = """
        class T {
            void testFlow() {
                if (a) { b(); }
                while (c) { d(); }
                for (int i = 0; i < 3; i++) { e(); }
                switch (x) { default: break; }
                try { f(); } catch (Exception ex) { g(); }
            }
        }
        """
        methods = extract_methods(SourceFile("T.java", text))
        assert [m.name for m in methods] == ["testFlow"]

    def test_calls_are_not_methods(self):
        text = "class T { void a() { b(1); c.d(e); } }"
        methods = extract_methods(SourceFile("T.java", text))
        assert [m.name for m in methods] == ["a"]

    def test_generic_return_type(self):
        for return_type in ("List<String>", "Map<String, List<? extends Number>>", "int[]",
                            "List<@NonNull String>", "List<@Size(max = 3) String>"):
            text = f"class T {{ @Test {return_type} names() {{ return x; }} }}"
            methods = extract_methods(SourceFile("T.java", text))
            assert [(m.name, m.annotations) for m in methods] == [("names", ("@Test",))], return_type

    def test_generic_test_method_keeps_annotations(self):
        for header in ("public <T> void", "public static <T extends Comparable<T>> java.util.List<T>"):
            text = f"class T {{ @Test {header} sorted() {{ go(); }} }}"
            m = extract_methods(SourceFile("T.java", text))[0]
            assert m.annotations == ("@Test",), header
            assert is_test_method(m)

    def test_record_header_is_not_a_method(self):
        text = "class T { record P(int x, int y) { int sum() { return x + y; } } void record() { } }"
        methods = extract_methods(SourceFile("T.java", text))
        assert [m.name for m in methods] == ["sum", "record"]

    def test_unbalanced_braces_raise_with_recovered(self):
        src = SourceFile("Broken.java", UNBALANCED)
        with pytest.raises(PartialParseError) as err:
            extract_methods(src)
        assert [m.name for m in err.value.methods] == ["testOk"]
        methods, perr = recover_methods(src)
        assert [m.name for m in methods] == ["testOk"]
        assert "unbalanced" in str(perr)
        assert recover_methods(SourceFile("Ok.java", SIMPLE))[1] is None

    def test_text_block_with_odd_quotes_is_one_token(self):
        # lexed as ordinary strings, the odd '"' swallowed the rest of the
        # file and the first method's body never closed
        text = (
            "import org.junit.Test;\nclass T {\n"
            '    @Test public void testQuote() {\n        String s = """\n'
            '            he said "hi\n            """;\n        use(s);\n    }\n'
            "    @Test public void testAfter() { ok(); }\n}\n"
        )
        methods, err = recover_methods(SourceFile("T.java", text))
        assert err is None
        assert [m.name for m in methods] == ["testQuote", "testAfter"]
        assert methods[0].body_tokens.texts[3] == '"""\n            he said "hi\n            """'

    def test_concatenation_equals_per_fixture_extraction(self):
        a = SourceFile("A.java", SIMPLE)
        b = SourceFile("B.java", TRICKY_STRING)
        combined = SourceFile("AB.java", SIMPLE + TRICKY_STRING)
        names = [m.name for m in extract_methods(combined)]
        assert names == (
            [m.name for m in extract_methods(a)]
            + [m.name for m in extract_methods(b)]
        )

    def test_non_ascii_method_name(self):
        text = "class T {\n    @Test void testGrößeAfterClear() { größe(); }\n}\n"
        [m] = extract_methods(SourceFile("T.java", text))
        assert m.name == "testGrößeAfterClear" and m.annotations == ("@Test",)
        assert text[slice(*m.name_span)] == m.name
        assert m.body_tokens.texts == ("größe", "(", ")", ";")

    def test_body_tokens_within_body_span(self):
        methods = extract_methods(SourceFile("ParserTest.java", SIMPLE))
        m = methods[0]
        lo, hi = m.body_span
        body = m.body_tokens
        assert body.texts[0] == "Parser" and body.texts[-1] == ";"
        for start, end in zip(body.starts, body.ends):
            assert lo < start and end < hi


def _reference_body_span(text: str) -> tuple[int, int]:
    """Brace counter for the TRICKY_STRING fixture: skips quoted regions."""
    i = text.index("testBraces")
    depth = 0
    start = None
    quote = None
    while i < len(text):
        ch = text[i]
        if quote:
            if ch == "\\":
                i += 2
                continue
            if ch == quote:
                quote = None
        elif ch in "\"'":
            quote = ch
        elif ch == "{":
            if start is None:
                start = i
            depth += 1
        elif ch == "}":
            depth -= 1
            if depth == 0:
                return (start, i + 1)
        i += 1
    raise AssertionError("unbalanced fixture")


class TestJUnitDetection:
    def test_org_junit_import(self):
        assert has_junit_import(SourceFile("a.java", SIMPLE))

    def test_junit3_import(self):
        assert has_junit_import(SourceFile("a.java", JUNIT3))

    def test_unrelated_import(self):
        assert not has_junit_import(SourceFile("a.java", "import org.junitx.Foo;\n"))

    def test_static_import(self):
        text = "import static org.junit.Assert.assertEquals;\n"
        assert has_junit_import(SourceFile("a.java", text))


class TestIsTestMethod:
    def test_annotated(self):
        text = "class T { @Test public void whenFooThenBar() { x(); } }"
        m = extract_methods(SourceFile("a.java", text))[0]
        assert is_test_method(m)

    def test_annotated_with_arguments(self):
        text = "class T { @Test(timeout = 100) public void anyName() { x(); } }"
        m = extract_methods(SourceFile("a.java", text))[0]
        assert is_test_method(m)

    def test_junit3_name_prefix(self):
        methods = extract_methods(SourceFile("a.java", JUNIT3))
        by_name = {m.name: m for m in methods}
        assert is_test_method(by_name["testParser"])
        assert not is_test_method(by_name["helper"])

    def test_test_factory_annotation_does_not_count(self):
        text = "class T { @TestFactory public void makeCases() { x(); } }"
        m = extract_methods(SourceFile("a.java", text))[0]
        assert not is_test_method(m)

    @pytest.mark.parametrize("annotation, is_test", [
        ("@Test", True),
        ("@org.junit.Test", True),
        ("@org.junit.jupiter.api.Test", True),
        ("@org.junit.Test(expected = IllegalStateException.class)", True),
        ("@ org . junit . Test", True),
        ("@org.junit.jupiter.api.TestFactory", False),
    ], ids=["plain", "dotted", "jupiter", "dotted-arguments", "spaced", "dotted-factory"])
    def test_fully_qualified_annotation(self, annotation, is_test):
        text = f"class T {{ {annotation} public void checksParser() {{ x(); }} }}"
        [m] = extract_methods(SourceFile("a.java", text))
        assert m.annotations == (annotation,)
        assert is_test_method(m) is is_test
