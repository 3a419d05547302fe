"""Every malformed input file is one ``error:`` line and exit 2, never a traceback.

Hypothesis writes lexicon, config, catalog, rename-event and classified-record
files, each either arbitrary bytes, arbitrary JSON, or a valid file with one
field replaced or removed, and runs the commands that read them in process.
An exception escaping ``cli.run`` fails the test as a traceback would.
"""

import io
import json
import os
import tempfile
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from testlens import _data, cli
from testlens.cli import EXIT_ERROR, EXIT_FINDINGS, EXIT_OK
from testlens.config import ENV_CONFIG
from testlens.report import FORMATS, TABLE_KINDS

CLEAN_TEST = """\
import org.junit.Test;
public class CleanTest {
    @Test
    public void testParser() {
        assertEquals(1, parse());
    }
}
"""

VALID_EVENTS = [
    {"old_name": "testHasItem", "new_name": "testContainsItem", "file": "A.java", "commit": "c1"},
    {"old_name": "getUserIDs", "new_name": "getAllUserIds"},
]

VALID_RECORDS = [
    {"commit": "", "file": "", "form": "simple", "new_name": "testContainsItem",
     "new_pattern": "V V N", "old_name": "testHasItem", "old_pattern": "V V N",
     "pairs": [{"added": "contains", "relation": "synonym", "removed": "has"}],
     "semantics": "preserve"},
    {"commit": "", "file": "", "form": "simple", "new_name": "testRemoveItems",
     "old_name": "testRemoveItem", "pairs": [], "semantics": "preserve"},
]

json_leaves = (st.none() | st.booleans() | st.integers() | st.floats()
               | st.text(max_size=8) | st.sampled_from(["", "V N", "testFoo", "_", "R1"]))
json_values = st.recursive(
    json_leaves,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)


def _objects(value):
    """Every JSON object in ``value``, outermost first."""
    if isinstance(value, dict):
        yield value
        value = list(value.values())
    if isinstance(value, list):
        for item in value:
            yield from _objects(item)


@st.composite
def near_valid(draw, document):
    """``document`` with one field of one of its objects, at any depth,
    replaced, wrapped in a list, removed or added."""
    doc = json.loads(json.dumps(document))
    target = draw(st.sampled_from(list(_objects(doc))))
    key = draw(st.sampled_from(sorted(target)) | st.text(max_size=6))
    action = draw(st.sampled_from(["replace", "replace", "remove", "wrap"]))
    if action == "remove":
        target.pop(key, None)
    elif action == "wrap":
        target[key] = [target.get(key)]
    else:
        target[key] = draw(json_values)
    return json.dumps(doc).encode()


def files(valid):
    """Bytes of a file: arbitrary, arbitrary JSON, nested too deeply to
    decode, or ``valid`` with one fault (drawn most often)."""
    return st.one_of(
        st.binary(max_size=40),
        st.text(max_size=40).map(str.encode),
        json_values.map(lambda v: json.dumps(v).encode()),
        st.just(b"[" * 100_000 + b"]" * 100_000),
        near_valid(valid), near_valid(valid), near_valid(valid),
    )


config_values = (st.sampled_from(['"x"', "true", "1", "0.5", "[]", '["R1"]', '["a", 1]', '"',
                                  "nan", "[", '"a" # c', "-1", "1e400", "9" * 30])
                 | st.text(max_size=10))
config_lines = st.tuples(
    st.sampled_from(["lexicon", "catalog", "rules", "collection_vocabulary", "threshold",
                     "format", "not_rule_boolean_asserts"]) | st.text(max_size=6),
    st.sampled_from([" = ", "=", " "]),
    config_values,
).map("".join)
configs = (st.lists(config_lines, max_size=4).map(lambda ls: "\n".join(ls).encode())
           | st.binary(max_size=40))


def run_with_config(workdir, argv, config: bytes | None = None) -> tuple[int, str]:
    """Exit code and stderr of ``cli.run(argv)`` with ``config`` as the config file."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ):
        os.environ.pop(ENV_CONFIG, None)
        if config is not None:
            os.environ[ENV_CONFIG] = write(workdir, "testlens.toml", config)
        code = cli.run(argv, out, err)
    return code, err.getvalue()


def run_in(workdir, argv, config: bytes | None = None):
    """``run_with_config``, checking the outcome."""
    code, text = run_with_config(workdir, argv, config)
    allowed = (EXIT_OK, EXIT_ERROR, EXIT_FINDINGS) if argv[0] == "lint" else (EXIT_OK, EXIT_ERROR)
    assert code in allowed, (argv, code, text)
    assert "Traceback" not in text
    if "error:" in text:
        assert code == EXIT_ERROR
        assert text.startswith("error: ") and text.count("\n") == 1 and text.endswith("\n"), text
    if code == EXIT_ERROR:
        assert text.startswith("error: "), (argv, text)
    return code


def write(workdir, name, content: bytes) -> str:
    path = os.path.join(workdir, name)
    with open(path, "wb") as fh:
        fh.write(content)
    return path


def commands(workdir):
    """Each command that reads a lexicon, a config or a catalog, on valid inputs."""
    tree = os.path.join(workdir, "tree")
    os.makedirs(tree)
    write(tree, "CleanTest.java", CLEAN_TEST.encode())
    events = write(workdir, "events.json", json.dumps(VALID_EVENTS).encode())
    records = write(workdir, "records.json", json.dumps(VALID_RECORDS).encode())
    return [
        ["tag", "testReadFileFromClasspath"],
        ["pattern", "testReadFileFromClasspath", "--catalog"],
        ["lint", tree, "--format", "json"],
        ["rename", "classify", "--input", events],
        ["report", "--input", records, "--table", "catalog"],
        ["report", "--input", records, "--table", "full"],
    ]


class TestMalformedInputs:
    @given(files(_data.lexicon_dict()), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_lexicon(self, content, via_config):
        with tempfile.TemporaryDirectory() as workdir:
            path = write(workdir, "lexicon.json", content)
            if via_config:
                config = f'lexicon = "{path}"'.encode()
                for argv in commands(workdir):
                    run_in(workdir, argv, config)
            else:
                run_in(workdir, ["tag", "testReadFileFromClasspath", "--lexicon", path])

    @given(configs)
    @settings(max_examples=150, deadline=None)
    def test_config(self, config):
        with tempfile.TemporaryDirectory() as workdir:
            for argv in commands(workdir):
                run_in(workdir, argv, config)

    @given(files(_data.catalog_list()))
    @settings(max_examples=150, deadline=None)
    def test_catalog(self, content):
        with tempfile.TemporaryDirectory() as workdir:
            config = f'catalog = "{write(workdir, "catalog.json", content)}"'.encode()
            for argv in commands(workdir):
                run_in(workdir, argv, config)

    @given(files(VALID_EVENTS), st.sampled_from(["json", "csv", "md"]))
    @settings(max_examples=200, deadline=None)
    def test_events(self, content, fmt):
        with tempfile.TemporaryDirectory() as workdir:
            path = write(workdir, "events.json", content)
            run_in(workdir, ["rename", "classify", "--input", path, "--format", fmt])

    @given(files(VALID_RECORDS), st.sampled_from(TABLE_KINDS), st.sampled_from(FORMATS))
    @settings(max_examples=200, deadline=None)
    def test_records(self, content, table, fmt):
        with tempfile.TemporaryDirectory() as workdir:
            path = write(workdir, "records.json", content)
            run_in(workdir, ["report", "--input", path, "--table", table, "--format", fmt])


DEEP = "[" * 100_000 + "]" * 100_000


class TestRegressions:
    """Faults the properties above found, each one line and exit 2 now."""

    def run_file(self, argv, content: str | bytes, config: str | None = None):
        with tempfile.TemporaryDirectory() as workdir:
            raw = content.encode() if isinstance(content, str) else content
            path = write(workdir, "in.json", raw)
            argv = [path if arg == "IN" else arg for arg in argv]
            config_bytes = None if config is None else config.replace("IN", path).encode()
            code, err = run_with_config(workdir, argv, config_bytes)
            return code, err.replace(path, "IN")

    @pytest.mark.parametrize("argv, config", [
        (["tag", "testFoo", "--lexicon", "IN"], None),
        (["pattern", "testFoo", "--catalog"], 'catalog = "IN"'),
        (["rename", "classify", "--input", "IN"], None),
        (["report", "--input", "IN"], None),
    ])
    def test_json_nested_too_deeply(self, argv, config):
        code, err = self.run_file(argv, DEEP, config)
        assert code == EXIT_ERROR
        assert err.startswith("error: IN: invalid JSON: ") and err.count("\n") == 1
        assert "maximum recursion depth exceeded while decoding a JSON array" in err

    @pytest.mark.parametrize("argv, config", [
        (["tag", "testFoo", "--lexicon", "IN"], None),
        (["tag", "testFoo"], 'lexicon = "IN"'),
        (["pattern", "testFoo", "--catalog"], 'catalog = "IN"'),
    ], ids=["lexicon-flag", "lexicon-config", "catalog-config"])
    @pytest.mark.parametrize("content, message", [
        (b"not json", "error: IN: invalid JSON: Expecting value: line 1 column 1 (char 0)\n"),
        (b"\xff", "error: cannot read IN: 'utf-8' codec can't decode byte 0xff in position 0: "
                  "invalid start byte\n"),
    ], ids=["syntax", "undecodable"])
    def test_json_file_error_names_the_file(self, argv, config, content, message):
        assert self.run_file(argv, content, config) == (EXIT_ERROR, message)

    @pytest.mark.parametrize("content", [
        "old_name,new_name\ntestA," + "b" * 200_000 + "\n",
        "old_name,new_name," + "x" * 200_000 + "\ntestA,testB,c\n",
    ], ids=["row", "header"])
    def test_csv_field_over_the_size_limit(self, content):
        # the csv module's field limit used to end the run with a traceback
        code, err = self.run_file(["rename", "classify", "--input", "IN"], content)
        assert (code, err) == (EXIT_ERROR, "error: IN: invalid CSV: field larger than "
                                           "field limit (131072)\n")

    @pytest.mark.parametrize("field", ["old_name", "new_name"])
    def test_event_name_that_is_a_list_of_letters(self, field):
        # each item passed the per-character identifier check
        event = {"old_name": "testA", "new_name": "testB", field: ["t", "e", "s", "t"]}
        code, err = self.run_file(["rename", "classify", "--input", "IN"], json.dumps([event]))
        assert (code, err) == (EXIT_ERROR, "error: IN: record 0: identifier must be a string, "
                                           "not list\n")

    def test_record_name_that_is_a_list_of_letters(self):
        record = {**VALID_RECORDS[1], "old_name": ["t", "e", "s", "t"]}
        code, err = self.run_file(["report", "--input", "IN"], json.dumps([record]))
        assert (code, err) == (EXIT_ERROR, "error: IN: record 0: identifier must be a string, "
                                           "not list\n")

    @pytest.mark.parametrize("argv, first", [
        (["rename", "classify", "--input", "IN"], VALID_EVENTS[0]),
        (["report", "--input", "IN"], VALID_RECORDS[0]),
    ], ids=["events", "records"])
    @pytest.mark.parametrize("row, shown", [
        (5, "5"), ([1, 2], "[1, 2]"), (None, "null"), ("testA", '"testA"'), ([], "[]"),
    ], ids=["number", "array", "null", "string", "empty-array"])
    def test_record_that_is_not_an_object(self, argv, first, row, shown):
        # was Python's own text: 'int' object is not subscriptable, list indices
        # must be integers or slices, not str, and the like
        code, err = self.run_file(argv, json.dumps([first, row]))
        assert (code, err) == (EXIT_ERROR, "error: IN: record 1: expected a JSON object, "
                                           f"not {shown}\n")

    @pytest.mark.parametrize("pairs, message", [
        ({}, "pairs must be an array of term pairs, not {}"),
        ("", 'pairs must be an array of term pairs, not ""'),
        (None, "pairs must be an array of term pairs, not null"),
        ("ab", 'pairs must be an array of term pairs, not "ab"'),
        ({"added": "a", "removed": "b", "relation": "synonym"},
         'pairs must be an array of term pairs, not {"added": "a", "removed": "b", '
         '"relation": "synonym"}'),
        ([5], "pair must be a JSON object, not 5"),
        ([{"added": "a", "removed": "b", "relation": "synonym"}, ["a", "b"]],
         'pair must be a JSON object, not ["a", "b"]'),
    ], ids=["object", "empty-string", "null", "string", "one-pair", "number-pair",
            "array-pair"])
    def test_record_pairs_must_be_an_array_of_objects(self, pairs, message):
        # {} and "" were counted as no pairs with exit 0; the others were
        # Python's own text, such as string indices must be integers
        record = {**VALID_RECORDS[0], "pairs": pairs}
        code, err = self.run_file(["report", "--input", "IN"], json.dumps([record]))
        assert (code, err) == (EXIT_ERROR, f"error: IN: record 0: {message}\n")

    def test_record_without_pairs_has_no_pairs(self):
        record = {key: value for key, value in VALID_RECORDS[0].items() if key != "pairs"}
        with tempfile.TemporaryDirectory() as workdir:
            path = write(workdir, "in.json", json.dumps([record]).encode())
            out, err = io.StringIO(), io.StringIO()
            code = cli.run(["report", "--input", path, "--table", "terms", "--format", "csv"],
                           out, err)
        assert (code, out.getvalue(), err.getvalue()) == (
            EXIT_OK, "section,Added,Removed,Count,Percentage\n", "")

    @pytest.mark.parametrize("fmt", ["json", "csv", "md"])
    @pytest.mark.parametrize("field, value, kind", [
        ("file", 1.5, "float"), ("file", [1], "list"), ("commit", {"a": 1}, "dict"),
        ("file", 0, "int"), ("file", False, "bool"), ("file", [], "list"), ("commit", {}, "dict"),
    ])
    def test_event_file_and_commit_must_be_strings(self, fmt, field, value, kind):
        # a float file used to raise from the JSON writer; a dict was written as its
        # repr; a falsy value such as 0 or [] was read as no file or commit
        event = {"old_name": "testA", "new_name": "testB", field: value}
        code, err = self.run_file(["rename", "classify", "--input", "IN", "--format", fmt],
                                  json.dumps([event]))
        assert (code, err) == (EXIT_ERROR, f"error: IN: record 0: {field} must be a string "
                                           f"or None, not {kind}\n")

    def test_absent_null_or_empty_file_and_commit_are_none(self):
        events = [{"old_name": "testA", "new_name": "testB"},
                  {"old_name": "testA", "new_name": "testB", "file": None, "commit": None},
                  {"old_name": "testA", "new_name": "testB", "file": "", "commit": ""}]
        with tempfile.TemporaryDirectory() as workdir:
            path = os.path.join(workdir, "events.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(events, fh)
            out, err = io.StringIO(), io.StringIO()
            code = cli.run(["rename", "classify", "--input", path], out, err)
        assert (code, err.getvalue()) == (EXIT_OK, "")
        assert [(r["file"], r["commit"]) for r in json.loads(out.getvalue())] == [("", "")] * 3

    @pytest.mark.parametrize("argv, config, content", [
        (["rename", "classify", "--input", "IN"], None, "old_name,new_name\ntestA,testB\n"),
        (["rename", "classify", "--input", "IN"], None, json.dumps(VALID_EVENTS)),
        (["report", "--input", "IN"], None, json.dumps(VALID_RECORDS[:1])),
        (["tag", "testFoo", "--lexicon", "IN"], None, json.dumps(_data.lexicon_dict())),
        (["pattern", "testFoo", "--catalog"], 'catalog = "IN"', json.dumps(_data.catalog_list())),
        (["tag", "testFoo"], '\ufefflexicon = "IN"', json.dumps(_data.lexicon_dict())),
    ], ids=["events-csv", "events-json", "records", "lexicon", "catalog", "config"])
    def test_leading_byte_order_mark_is_dropped(self, argv, config, content):
        # each used to fail: a CSV header error, an unexpected BOM, an unknown config key
        assert self.run_file(argv, "\ufeff" + content, config) == (EXIT_OK, "")

    def test_java_source_keeps_its_byte_order_mark(self):
        with tempfile.TemporaryDirectory() as workdir:
            spans = []
            for prefix in ("", "\ufeff"):
                path = write(workdir, "CleanTest.java", (prefix + CLEAN_TEST).encode())
                out = io.StringIO()
                assert cli.run(["scan", path], out, io.StringIO()) == EXIT_OK
                [method] = json.loads(out.getvalue())["files"][0]["methods"]
                spans.append(method["name_span"])
        plain, marked = spans
        assert marked == [plain[0] + 1, plain[1] + 1]
