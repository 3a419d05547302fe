import io
import json
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import testlens
from testlens import _data, _records, cli, tagger
from testlens.cli import EXIT_ERROR, EXIT_FINDINGS, EXIT_OK, run
from testlens.config import Config, ConfigError, parse_config_text
from testlens.rename import RenameEvent, classify
from testlens.report import FORMATS, TABLE_KINDS, CorpusStats, accumulate, render_table

CLEAN_TEST = """\
import org.junit.Test;
public class CleanTest {
    @Test
    public void testParser() {
        assertEquals(1, parse());
    }
}
"""

R1_VIOLATION = """\
import org.junit.Test;
public class FailTest {
    @Test
    public void failPrefixMissing() {
        assertEquals(1, parse());
    }
}
"""


DATA = Path(__file__).parent / "data"


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, out, err)
    return code, out.getvalue(), err.getvalue()


PATTERN_KEYS = ("old_pattern", "new_pattern")

CORPUS_NAMES = sorted({
    record[key] for record in json.loads((DATA / "corpus_events.json").read_text())
    for key in ("old_name", "new_name")
})


class _DiscardingSink:
    """An output stream that keeps nothing it is given."""

    def write(self, text: str) -> int:
        return len(text)


class TestSplitCommand:
    def test_one_term_per_line(self):
        code, out, err = invoke(["split", "testStringEncryption"])
        assert code == EXIT_OK
        assert out.splitlines() == ["test", "String", "Encryption"]

    def test_json_spans(self):
        code, out, _ = invoke(["split", "fooBar", "--json"])
        doc = json.loads(out)
        assert doc == [
            {"surface": "foo", "start": 0, "end": 3},
            {"surface": "Bar", "start": 3, "end": 6},
        ]

    def test_malformed_is_usage_error(self):
        code, out, err = invoke(["split", "no-good"])
        assert code == EXIT_ERROR
        assert "error" in err


class TestTagCommand:
    def test_pairs_then_pattern(self):
        code, out, _ = invoke(["tag", "testParser"])
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == "test/V Parser/N"
        assert lines[1] == "V N"

    def test_lexicon_override(self, tmp_path):
        lexicon = {
            "prepositions": [], "determiners": ["the", "no", "all"],
            "conjunctions": [], "pronouns": [],
            "adverbs": ["not", "when", "exactly"],
            "verbs": ["frobnicate"], "known_nouns": [],
        }
        path = tmp_path / "lex.json"
        path.write_text(json.dumps(lexicon))
        code, out, _ = invoke(["tag", "frobnicate", "--lexicon", str(path)])
        assert code == EXIT_OK
        assert out.splitlines()[0] == "frobnicate/V"

    def test_lexicon_field_not_a_list_is_error(self, tmp_path):
        path = tmp_path / "lex.json"
        path.write_text(json.dumps({**_data.lexicon_dict(), "verbs": "test"}))
        assert invoke(["tag", "testParser", "--lexicon", str(path)]) == (
            EXIT_ERROR, "", "error: lexicon key 'verbs' must be a list of strings\n")


class TestPatternCommand:
    def test_pattern(self):
        code, out, _ = invoke(["pattern", "testStringEncryption"])
        assert (code, out.strip()) == (EXIT_OK, "V NM N")

    def test_prefix(self):
        code, out, _ = invoke(["pattern", "testStringEncryption", "--prefix", "2"])
        assert out.strip() == "V NM"

    def test_catalog_listing(self):
        code, out, _ = invoke(["pattern", "testReadFileFromClasspath", "--catalog"])
        lines = out.splitlines()
        assert lines[0] == "V V N P N"
        assert lines[1].startswith("V V N P+")


class TestScanCommand:
    def test_scan_file(self, tmp_path):
        target = tmp_path / "CleanTest.java"
        target.write_text(CLEAN_TEST)
        code, out, err = invoke(["scan", str(target)])
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["files"][0]["is_test_file"] is True
        assert doc["files"][0]["methods"][0]["name"] == "testParser"
        assert doc["files"][0]["methods"][0]["is_test_method"] is True

    def test_scan_non_ascii_names(self, tmp_path):
        target = tmp_path / "GrößeTest.java"
        target.write_text(CLEAN_TEST.replace(
            "testParser()", "testGrößeAfterClear() { x(); }\n    @Test public void testÉtat()"),
            encoding="utf-8")
        code, out, _ = invoke(["scan", str(target)])
        assert code == EXIT_OK
        names = [m["name"] for m in json.loads(out)["files"][0]["methods"]]
        assert names == ["testGrößeAfterClear", "testÉtat"]

    @staticmethod
    def _is_test_file(tmp_path, text):
        target = tmp_path / "T.java"
        target.write_text(text)
        code, out, _ = invoke(["scan", str(target)])
        assert code == EXIT_OK
        return json.loads(out)["files"][0]["is_test_file"]

    def test_is_test_file_requires_both(self, tmp_path):
        assert self._is_test_file(tmp_path, CLEAN_TEST) is True
        no_methods = "import org.junit.Test;\nclass T { int x; }\n"
        assert self._is_test_file(tmp_path, no_methods) is False
        no_import = CLEAN_TEST.replace("import org.junit.Test;\n", "")
        assert self._is_test_file(tmp_path, no_import) is False
        assert self._is_test_file(tmp_path, "") is False

    def test_jupiter_included_by_prefix_rule(self, tmp_path):
        text = (
            "import org.junit.jupiter.api.Test;\n"
            "class T { @Test void whenReady() { ok(); } }\n"
        )
        assert self._is_test_file(tmp_path, text) is True

    def test_scan_directory_sorted(self, tmp_path):
        (tmp_path / "b").mkdir()
        (tmp_path / "a").mkdir()
        (tmp_path / "b" / "B.java").write_text(CLEAN_TEST)
        (tmp_path / "a" / "A.java").write_text(CLEAN_TEST)
        code, out, _ = invoke(["scan", str(tmp_path)])
        paths = [f["path"] for f in json.loads(out)["files"]]
        assert paths == sorted(paths)

    def test_missing_target(self):
        code, out, err = invoke(["scan", "/nonexistent/path"])
        assert code == EXIT_ERROR
        assert out == ""
        assert "error" in err

    def test_directory_without_java_files(self, tmp_path):
        (tmp_path / "notes.txt").write_text("class NotJava {}\n")
        assert invoke(["scan", str(tmp_path)]) == (EXIT_OK, '{\n  "files": []\n}\n', "")

    def test_golden_tree(self, monkeypatch):
        # nested directory, a file without methods, a generic test method,
        # escaped and non-ASCII annotation text, and a partial parse
        monkeypatch.chdir(DATA)
        code, out, err = invoke(["scan", "scan_tree"])
        assert code == EXIT_ERROR
        assert out.encode() == (DATA / "golden_scan.json").read_bytes()
        assert err == ("scan_tree/BrokenTest.java: unbalanced braces after method "
                       "'neverCloses'; recovered 1 method(s)\n")

    @staticmethod
    def _scan_peak_bytes(root: Path, copies: int) -> int:
        text = (DATA / "scan_tree" / "GenericTest.java").read_text(encoding="utf-8")
        target = root / str(copies)
        target.mkdir()
        for i in range(copies):
            (target / f"Generic{i}Test.java").write_text(text, encoding="utf-8")
        err = io.StringIO()
        tracemalloc.start()
        try:
            code = run(["scan", str(target)], _DiscardingSink(), err)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, err.getvalue()) == (EXIT_OK, "")
        return peak

    def test_memory_does_not_grow_with_file_count(self, tmp_path):
        self._scan_peak_bytes(tmp_path, 1)  # compile regexes, fill caches
        few, many = self._scan_peak_bytes(tmp_path, 10), self._scan_peak_bytes(tmp_path, 40)
        assert many < 1.5 * few, (few, many)

    def test_partial_parse_reported(self, tmp_path):
        target = tmp_path / "Broken.java"
        target.write_text("import org.junit.Test;\nclass B { @Test void t() { if (x) {\n")
        code, out, err = invoke(["scan", str(target)])
        assert code == EXIT_ERROR
        assert "unbalanced" in err

    def test_unreadable_file_reported_and_skipped(self, tmp_path):
        (tmp_path / "Bad.java").write_bytes(b"class X { \xff\xfe }")
        (tmp_path / "FailTest.java").write_text(R1_VIOLATION)
        code, out, err = invoke(["scan", str(tmp_path)])
        assert code == EXIT_ERROR
        assert [f["path"] for f in json.loads(out)["files"]] == [str(tmp_path / "FailTest.java")]
        assert err.startswith(f"cannot read {tmp_path / 'Bad.java'}: ")
        code, out, err = invoke(["lint", str(tmp_path), "--format", "json"])
        assert code == EXIT_ERROR
        assert [d["rule"] for d in json.loads(out)] == ["R1"]
        assert err.startswith(f"cannot read {tmp_path / 'Bad.java'}: ")


class TestLintCommand:
    def test_clean_exit_zero(self, tmp_path):
        (tmp_path / "CleanTest.java").write_text(CLEAN_TEST)
        code, out, err = invoke(["lint", str(tmp_path)])
        assert code == EXIT_OK
        assert err == ""

    def test_violation_exit_one(self, tmp_path):
        (tmp_path / "FailTest.java").write_text(R1_VIOLATION)
        code, out, err = invoke(["lint", str(tmp_path)])
        assert code == EXIT_FINDINGS
        assert "R1" in err

    def test_rule_selection(self, tmp_path):
        (tmp_path / "FailTest.java").write_text(R1_VIOLATION)
        code, _, err = invoke(["lint", str(tmp_path), "--rules", "R3"])
        assert code == EXIT_OK

    def test_unknown_rule_rejected(self, tmp_path):
        (tmp_path / "FailTest.java").write_text(R1_VIOLATION)
        code, _, err = invoke(["lint", str(tmp_path), "--rules", "R9"])
        assert code == EXIT_ERROR

    def test_json_format_on_stdout(self, tmp_path):
        (tmp_path / "FailTest.java").write_text(R1_VIOLATION)
        code, out, _ = invoke(["lint", str(tmp_path), "--format", "json"])
        doc = json.loads(out)
        assert code == EXIT_FINDINGS
        assert doc[0]["rule"] == "R1"

    def test_non_test_files_ignored(self, tmp_path):
        (tmp_path / "Util.java").write_text(
            "public class Util { public void failPrefixMissing() { x(); } }")
        code, _, err = invoke(["lint", str(tmp_path)])
        assert code == EXIT_OK


class TestRenameCommands:
    BEFORE = """\
import org.junit.Test;
class T {
    @Test public void testOldName() { a(); b(); c(); d(); }
}
"""
    AFTER = """\
import org.junit.Test;
class T {
    @Test public void testNewName() { a(); b(); c(); d(); }
}
"""

    def test_detect_then_classify_roundtrip(self, tmp_path):
        before = tmp_path / "Before.java"
        after = tmp_path / "After.java"
        before.write_text(self.BEFORE)
        after.write_text(self.AFTER)
        code, out, _ = invoke([
            "rename", "detect", "--before", str(before), "--after", str(after),
        ])
        assert code == EXIT_OK
        events = json.loads(out)
        assert events == [{
            "old_name": "testOldName", "new_name": "testNewName",
            "file": str(after), "commit": "",
        }]
        detected = tmp_path / "detected.json"
        detected.write_text(out)
        code, out, _ = invoke(["rename", "classify", "--input", str(detected)])
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc[0]["form"] == "simple"
        assert (doc[0]["old_pattern"], doc[0]["new_pattern"]) == ("V NM N", "V NM N")
        assert doc[0]["pairs"] == [{"added": "new", "removed": "old",
                                    "relation": "unrelated"}]

    def test_detect_non_ascii_rename(self, tmp_path):
        before = tmp_path / "Before.java"
        after = tmp_path / "After.java"
        before.write_text(self.BEFORE.replace("testOldName", "testGrößeAfterClear"), encoding="utf-8")
        after.write_text(self.AFTER.replace("testNewName", "testSizeAfterClear"), encoding="utf-8")
        code, out, _ = invoke([
            "rename", "detect", "--before", str(before), "--after", str(after),
        ])
        assert code == EXIT_OK
        assert json.loads(out) == [{
            "old_name": "testGrößeAfterClear", "new_name": "testSizeAfterClear",
            "file": str(after), "commit": "",
        }]

    def test_detect_threshold_rejects(self, tmp_path):
        before = tmp_path / "Before.java"
        after = tmp_path / "After.java"
        before.write_text(self.BEFORE)
        after.write_text(self.AFTER.replace("a(); b(); c(); d();", "x(1); y(2); z(3);"))
        code, out, _ = invoke([
            "rename", "detect", "--before", str(before), "--after", str(after),
        ])
        assert json.loads(out) == []

    def test_detect_reports_partial_parse(self, tmp_path):
        before = tmp_path / "Before.java"
        after = tmp_path / "After.java"
        before.write_text(self.BEFORE + "class U {\n    @Test public void testOpen() { x();\n")
        after.write_text(self.AFTER)
        code, out, err = invoke([
            "rename", "detect", "--before", str(before), "--after", str(after),
        ])
        assert code == EXIT_ERROR
        assert err == (f"{before}: unbalanced braces after method 'testOpen'; "
                       "recovered 1 method(s)\n")
        # the events of the methods recovered before the unclosed body
        assert json.loads(out) == [{
            "old_name": "testOldName", "new_name": "testNewName",
            "file": str(after), "commit": "",
        }]
        _, scan_err = invoke(["scan", str(before)])[1:]
        assert scan_err == err

    def test_classify_csv_input(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_text(
            "old_name,new_name,file,commit\n"
            "testHasItem,testContainsItem,,\n"
        )
        code, out, _ = invoke(["rename", "classify", "--input", str(path)])
        doc = json.loads(out)
        assert doc[0]["semantics"] == "preserve"

    def test_classify_markdown_output(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_text("old_name,new_name,file,commit\ntest_13,test13,,\n")
        code, out, _ = invoke([
            "rename", "classify", "--input", str(path), "--format", "md",
        ])
        assert out.splitlines()[0].startswith("| Old Name | New Name |")
        assert "formatting" in out

    def test_classify_invalid_record(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_text("old_name,new_name,file,commit\nsame,same,,\n")
        code, _, err = invoke(["rename", "classify", "--input", str(path)])
        assert code == EXIT_ERROR

    def test_classify_json_object_input_is_error(self, tmp_path):
        path = tmp_path / "events.json"
        path.write_text('{"old_name": "testFoo", "new_name": "testBar"}\n')
        assert invoke(["rename", "classify", "--input", str(path)]) == (
            EXIT_ERROR, "", f"error: {path}: expected a JSON array of rename events\n")

    @staticmethod
    def _write_events(path: Path, count: int) -> None:
        corpus = json.loads((DATA / "corpus_events.json").read_text())
        path.write_text(json.dumps([corpus[i % len(corpus)] for i in range(count)]))

    def _classify_peak_bytes(self, tmp_path, count: int) -> int:
        """tracemalloc's peak while ``rename classify`` writes ``count``
        records, above the memory held once the events are read."""
        events = tmp_path / f"{count}.json"
        self._write_events(events, count)
        held = []

        def read_then_reset_peak(path, read_events=_records.read_events):
            result = read_events(path)
            held.append(tracemalloc.get_traced_memory()[0])
            tracemalloc.reset_peak()
            return result

        err = io.StringIO()
        tracemalloc.start()
        try:
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(_records, "read_events", read_then_reset_peak)
                code = run(["rename", "classify", "--input", str(events), "--format", "json"],
                           _DiscardingSink(), err)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, err.getvalue()) == (EXIT_OK, "")
        return peak - held[0]

    def test_classify_memory_does_not_grow_with_event_count(self, tmp_path):
        self._classify_peak_bytes(tmp_path, 250)  # fill caches
        few = self._classify_peak_bytes(tmp_path, 50)
        many = self._classify_peak_bytes(tmp_path, 250)
        # Holding every record costs about 4 KB per event. Holding none still
        # reads some 40 B per event, as a bare loop over classify() does:
        # tracemalloc counts the blocks CPython keeps on free lists for reuse.
        assert (many - few) / 200 < 256, (few, many)

    def test_classify_malformed_last_record_writes_nothing(self, tmp_path):
        path = tmp_path / "events.json"
        self._write_events(path, 200)
        rows = json.loads(path.read_text())
        rows[-1]["new_name"] = rows[-1]["old_name"]
        path.write_text(json.dumps(rows))
        code, out, err = invoke(["rename", "classify", "--input", str(path), "--format", "json"])
        assert (code, out) == (EXIT_ERROR, "")
        assert err.startswith(f"error: {path}: record 199: ")


class TestReportCommand:
    def make_classified(self, tmp_path):
        events = tmp_path / "events.csv"
        events.write_text(
            "old_name,new_name,file,commit\n"
            "testStringEncryption,testStrongEncryption,,\n"
            "testPinnedExternals,pinnedExternals,,\n"
        )
        code, out, _ = invoke(["rename", "classify", "--input", str(events)])
        assert code == EXIT_OK
        classified = tmp_path / "classified.json"
        classified.write_text(out)
        return classified

    def test_tables(self, tmp_path):
        classified = self.make_classified(tmp_path)
        for table in ("full", "pairs", "prefix", "semantic", "terms"):
            code, out, _ = invoke([
                "report", "--input", str(classified), "--table", table,
            ])
            assert code == EXIT_OK, table
            assert out

    def test_prefix_len_range(self, tmp_path):
        classified = self.make_classified(tmp_path)
        code, out, _ = invoke([
            "report", "--input", str(classified), "--table", "prefix",
            "--prefix-len", "2..3",
        ])
        assert "length 2" in out and "length 3" in out and "length 4" not in out
        for raw, lens in (("2..3", [2, 3]), ("1", [1]), ("6..7", [6, 7])):
            code, out, _ = invoke([
                "report", "--input", str(classified), "--table", "prefix",
                "--prefix-len", raw, "--format", "json",
            ])
            assert code == EXIT_OK, raw
            sections = json.loads(out)
            assert [s["title"] for s in sections] == [
                f"Prefix pattern pairs (length {n})" for n in lens]
            for section in sections:
                assert sum(int(row[-2]) for row in section["rows"]) == 2, raw

    def test_catalog_from_config(self, tmp_path, monkeypatch):
        classified = self.make_classified(tmp_path)
        catalog = tmp_path / "catalog.json"
        catalog.write_text(json.dumps([
            {"name": "Verb Start", "tags": ["V"], "trailing_wildcard": True},
            {"name": "Dual Verb", "tags": ["V", "V"], "trailing_wildcard": True},
        ]))
        config = tmp_path / "testlens.toml"
        config.write_text(f'catalog = "{catalog}"\n')
        monkeypatch.setenv("TESTLENS_CONFIG", str(config))
        code, out, _ = invoke([
            "report", "--input", str(classified), "--table", "catalog",
            "--format", "json",
        ])
        assert code == EXIT_OK
        [section] = json.loads(out)
        assert section["rows"] == [
            ["Dual Verb", "1", "0", "0.00%"],
            ["Verb Start", "4", "2", "100.00%"],
        ]

    def test_bad_prefix_len(self, tmp_path):
        classified = self.make_classified(tmp_path)
        code, _, err = invoke([
            "report", "--input", str(classified), "--table", "prefix",
            "--prefix-len", "x..y",
        ])
        assert code == EXIT_ERROR

    def test_csv_format(self, tmp_path):
        classified = self.make_classified(tmp_path)
        code, out, _ = invoke([
            "report", "--input", str(classified), "--table", "terms",
            "--format", "csv",
        ])
        assert out.splitlines()[0] == "section,Added,Removed,Count,Percentage"

    def classify_corpus(self):
        code, out, _ = invoke(["rename", "classify", "--input",
                               str(DATA / "corpus_events.json")])
        assert code == EXIT_OK
        return json.loads(out)

    def test_classified_patterns_are_pattern_command_output(self):
        for record in self.classify_corpus():
            for name_key, pattern_key in (("old_name", "old_pattern"),
                                          ("new_name", "new_pattern")):
                code, out, _ = invoke(["pattern", record[name_key]])
                assert code == EXIT_OK
                assert record[pattern_key] == out.rstrip("\n")

    def test_report_reads_no_lexicon_and_tags_nothing(self, tmp_path, monkeypatch):
        """``report`` counts the patterns the records carry: a configured
        lexicon that is missing is never read, and no name is tagged."""
        classified = tmp_path / "classified.json"
        classified.write_text(json.dumps(self.classify_corpus()))
        runs = [["report", "--input", str(classified), "--table", table, "--format", fmt]
                for table in TABLE_KINDS for fmt in FORMATS]
        expected = [invoke(argv) for argv in runs]
        (tmp_path / "testlens.toml").write_text(f'lexicon = "{tmp_path / "missing.json"}"\n')
        monkeypatch.setenv("TESTLENS_CONFIG", str(tmp_path / "testlens.toml"))

        def no_tag(*_):
            raise AssertionError("report tagged a name")

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "testlens" and getattr(module, "tag", None) is tagger.tag:
                monkeypatch.setattr(module, "tag", no_tag)
        for argv, want in zip(runs, expected):
            assert want[0] == EXIT_OK and want[1], argv
            assert invoke(argv) == want, argv

    def test_record_patterns_win_over_report_lexicon(self, tmp_path, monkeypatch):
        events = tmp_path / "events.csv"
        events.write_text("old_name,new_name,file,commit\nverifyValue,value,,\n")
        code, out, _ = invoke(["rename", "classify", "--input", str(events)])
        assert code == EXIT_OK
        [record] = json.loads(out)
        assert (record["old_pattern"], record["new_pattern"]) == ("V N", "N")
        classified = tmp_path / "classified.json"
        classified.write_text(json.dumps([record]))

        lexicon = {key: [w for w in words if w != "verify"]
                   for key, words in _data.lexicon_dict().items()}
        (tmp_path / "lex.json").write_text(json.dumps(lexicon))
        (tmp_path / "testlens.toml").write_text(f'lexicon = "{tmp_path / "lex.json"}"\n')
        monkeypatch.setenv("TESTLENS_CONFIG", str(tmp_path / "testlens.toml"))
        assert invoke(["pattern", "verifyValue"]) == (EXIT_OK, "NM N\n", "")

        code, out, _ = invoke(["report", "--input", str(classified), "--table", "pairs",
                               "--format", "json"])
        assert code == EXIT_OK
        assert [row[:2] for row in json.loads(out)[0]["rows"][:-1]] == [["V N", "N"]]

    GOOD_RECORD = {"old_name": "testFoo", "new_name": "testBar", "form": "simple",
                   "semantics": "change", "pairs": [], "old_pattern": "V N",
                   "new_pattern": "V N"}

    def report_error(self, tmp_path, bad_record):
        path = tmp_path / "classified.json"
        path.write_text(json.dumps([self.GOOD_RECORD, bad_record]))
        code, out, err = invoke(["report", "--input", str(path)])
        assert code == EXIT_ERROR
        assert out == ""
        prefix = f"error: {path}: record 1: "
        assert err.startswith(prefix)
        assert "Traceback" not in err
        return err[len(prefix):]

    @pytest.mark.parametrize("patterns, message", [
        ({"old_pattern": 7, "new_pattern": "V N"},
         "old_pattern must be a string of POS tags, not 7"),
        ({"old_pattern": "V N", "new_pattern": ["V", "N"]},
         'new_pattern must be a string of POS tags, not ["V", "N"]'),
        ({"old_pattern": None, "new_pattern": "V N"},
         "old_pattern must be a string of POS tags, not null"),
        ({"old_pattern": "V N", "new_pattern": ""},
         "new_pattern: grammar pattern must contain at least one tag"),
        ({"old_pattern": "V XX", "new_pattern": "V N"}, "old_pattern: unknown POS tag 'XX'"),
        ({"old_pattern": "V N"}, "'new_pattern'"),
        ({}, "'old_pattern'"),
    ], ids=["number", "list", "null", "empty", "unknown-tag", "one-key", "no-key"])
    def test_malformed_pattern_is_record_error(self, tmp_path, patterns, message):
        bad = {k: v for k, v in self.GOOD_RECORD.items() if k not in PATTERN_KEYS}
        assert self.report_error(tmp_path, dict(bad, **patterns)) == message + "\n"

    @pytest.mark.parametrize("fields, message", [
        ({"form": "bogus"}, "'bogus' is not a valid FormCategory"),
        ({"form": ["simple"]}, "['simple'] is not a valid FormCategory"),
        ({"semantics": {}}, "{} is not a valid SemanticCategory"),
        ({"pairs": [{"added": "a", "removed": "b", "relation": "akin"}]},
         "'akin' is not a valid TermRelation"),
        ({"pairs": [{"relation": "akin"}]}, "'added'"),
        ({"old_name": "testBar"}, "a rename requires the old and new names to differ"),
        ({"old_name": "test Foo"}, "identifier 'test Foo' contains unsupported character ' '"),
        ({"new_name": ""}, "identifier is empty"),
        ({"pairs": [{"added": ["a"], "removed": "b", "relation": "unrelated"}]},
         'pair added must be a string, not ["a"]'),
        ({"pairs": [{"added": 5, "removed": "b", "relation": "unrelated"}]},
         "pair added must be a string, not 5"),
        ({"pairs": [{"added": "a", "removed": None, "relation": "unrelated"}]},
         "pair removed must be a string, not null"),
    ], ids=["form", "form-list", "semantics", "relation", "pair-key", "same-names",
            "bad-name", "empty-name", "unhashable-term", "number-term", "null-term"])
    def test_malformed_field_is_record_error(self, tmp_path, fields, message):
        assert self.report_error(tmp_path, dict(self.GOOD_RECORD, **fields)) == message + "\n"

    def test_pattern_spacing_counts_as_written_by_classify(self, tmp_path):
        spaced = dict(self.GOOD_RECORD, old_pattern=" V\t N ")
        path = tmp_path / "classified.json"
        path.write_text(json.dumps([self.GOOD_RECORD, spaced]))
        code, out, _ = invoke(["report", "--input", str(path), "--table", "pairs",
                               "--format", "csv"])
        assert code == EXIT_OK
        assert out.splitlines()[1] == "Grammar pattern pairs,V N,V N,2,100.00%"

    def test_name_without_terms_is_record_error(self, tmp_path):
        events = tmp_path / "events.csv"
        events.write_text("old_name,new_name,file,commit\n_,testFoo,,\n")
        code, out, _ = invoke(["rename", "classify", "--input", str(events)])
        assert code == EXIT_OK
        [record] = json.loads(out)
        assert (record["old_pattern"], record["new_pattern"]) == (None, "V N")
        classified = tmp_path / "classified.json"
        classified.write_text(json.dumps([record]))
        code, _, err = invoke(["report", "--input", str(classified)])
        assert code == EXIT_ERROR
        assert "record 0: " in err


renames = st.lists(
    st.tuples(st.sampled_from(CORPUS_NAMES), st.sampled_from(CORPUS_NAMES))
    .filter(lambda r: r[0] != r[1]),
    min_size=1, max_size=12,
)


@given(renames)
@settings(max_examples=25, deadline=None)
def test_report_of_classified_json_equals_library_counts(renames):
    """``report`` on ``rename classify``'s JSON renders what ``render_table``
    renders from ``accumulate``d ``classify()`` results, for every table and
    format."""
    stats = CorpusStats()
    for old_name, new_name in renames:
        accumulate(stats, classify(RenameEvent(old_name, new_name)))
    with tempfile.TemporaryDirectory() as tmp:
        events = Path(tmp) / "events.json"
        events.write_text(json.dumps([{"old_name": o, "new_name": n} for o, n in renames]))
        code, out, _ = invoke(["rename", "classify", "--input", str(events)])
        assert code == EXIT_OK
        classified = Path(tmp) / "classified.json"
        classified.write_text(out)
        for table in TABLE_KINDS:
            for fmt in FORMATS:
                got = invoke(["report", "--input", str(classified), "--table", table,
                              "--format", fmt])
                assert got == (EXIT_OK, render_table(stats, table, fmt), ""), (table, fmt)


class TestCatalogErrors:
    """A malformed configured catalog is one ``error:`` line and exit 2,
    with nothing on stdout, for each command that loads it."""

    @pytest.mark.parametrize("raw, message", [
        ([{"name": "Verb", "tags": ["V"], "trailing_wildcard": "false"}],
         "catalog entry 0: trailing_wildcard must be true or false"),
        ([{"name": "Verb Noun", "tags": "VN"}],
         "catalog entry 0: tags must be an array of strings"),
        ({"name": "Verb", "tags": ["V"]}, "a catalog must be a JSON array of entries"),
        ([["V"]], "catalog entry 0: must be a JSON object"),
        ([{"name": "Verb", "tags": ["V"]}, {"tags": ["N"]}],
         "catalog entry 1: name must be a string"),
    ], ids=["flag-as-string", "tags-as-string", "catalog-as-object", "entry-not-object",
            "name-missing"])
    def test_one_error_line(self, tmp_path, monkeypatch, raw, message):
        catalog = tmp_path / "catalog.json"
        catalog.write_text(json.dumps(raw))
        config = tmp_path / "testlens.toml"
        config.write_text(f'catalog = "{catalog}"\n')
        monkeypatch.setenv("TESTLENS_CONFIG", str(config))
        classified = tmp_path / "classified.json"
        classified.write_text(json.dumps([TestReportCommand.GOOD_RECORD]))
        for argv in (["pattern", "testFoo", "--catalog"],
                     ["report", "--input", str(classified), "--table", "catalog"]):
            assert invoke(argv) == (EXIT_ERROR, "", f"error: {message}\n"), argv

    def test_only_the_catalog_table_loads_the_catalog(self, tmp_path, monkeypatch):
        classified = tmp_path / "classified.json"
        classified.write_text(json.dumps([TestReportCommand.GOOD_RECORD]))
        argv = ["report", "--input", str(classified)]
        expected = invoke([*argv, "--table", "full"])
        assert expected[0] == EXIT_OK and expected[1]
        catalog = tmp_path / "catalog.json"
        catalog.write_text(json.dumps([["V"]]))
        config = tmp_path / "testlens.toml"
        config.write_text(f'catalog = "{catalog}"\n')
        monkeypatch.setenv("TESTLENS_CONFIG", str(config))
        assert invoke([*argv, "--table", "full"]) == expected
        assert invoke([*argv, "--table", "catalog"]) == (
            EXIT_ERROR, "", "error: catalog entry 0: must be a JSON object\n")


class TestConfig:
    def test_parse_full(self):
        cfg = parse_config_text(
            "# comment\n"
            'lexicon = "lex.json"\n'
            "threshold = 0.75\n"
            'rules = ["R1", "R3"]\n'
            'collection_vocabulary = ["List", "Bag"]\n'
            "not_rule_boolean_asserts = true\n"
            'format = "json"\n'
        )
        assert cfg.lexicon == "lex.json"
        assert cfg.threshold == 0.75
        assert cfg.rules == ("R1", "R3")
        assert cfg.collection_vocabulary == ("List", "Bag")
        assert cfg.not_rule_boolean_asserts is True
        assert cfg.format == "json"

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("bogus = 1\n")

    def test_bad_line_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("just some words\n")

    def test_defaults(self):
        cfg = Config()
        assert cfg.threshold == 0.6
        assert cfg.rules is None

    def test_env_config_used(self, tmp_path, monkeypatch):
        config = tmp_path / "testlens.toml"
        config.write_text('rules = ["R3"]\n')
        (tmp_path / "FailTest.java").write_text(R1_VIOLATION)
        monkeypatch.setenv("TESTLENS_CONFIG", str(config))
        code, _, err = invoke(["lint", str(tmp_path)])
        assert code == EXIT_OK  # R1 disabled by config

    def test_flags_win_over_config(self, tmp_path, monkeypatch):
        config = tmp_path / "testlens.toml"
        config.write_text('rules = ["R3"]\n')
        (tmp_path / "FailTest.java").write_text(R1_VIOLATION)
        monkeypatch.setenv("TESTLENS_CONFIG", str(config))
        code, _, err = invoke(["lint", str(tmp_path), "--rules", "R1"])
        assert code == EXIT_FINDINGS

    def test_invalid_config_is_usage_error(self, tmp_path, monkeypatch):
        config = tmp_path / "bad.toml"
        config.write_text("nonsense == yes\n")
        monkeypatch.setenv("TESTLENS_CONFIG", str(config))
        code, _, err = invoke(["split", "fooBar"])
        assert code == EXIT_ERROR

    @pytest.mark.parametrize("line, message", [
        ("rules = 5", "line 2: rules must be an array of quoted strings"),
        ("collection_vocabulary = true",
         "line 2: collection_vocabulary must be an array of quoted strings"),
        ("lexicon = 7", "line 2: lexicon must be a quoted string"),
        ('catalog = ["a.json"]', "line 2: catalog must be a quoted string"),
        ('format = false', "line 2: format must be a quoted string"),
        ('threshold = "0.6"', "line 2: threshold must be a number"),
        ("threshold = true", "line 2: threshold must be a number"),
        ("not_rule_boolean_asserts = 1", "line 2: not_rule_boolean_asserts must be true or false"),
    ])
    def test_wrong_value_type_names_key(self, line, message):
        with pytest.raises(ConfigError) as raised:
            parse_config_text(f"# testlens\n{line}\n")
        assert str(raised.value) == message

    def test_number_lexicon_is_config_error(self, tmp_path, monkeypatch):
        # an int path was once opened as a file descriptor
        config = tmp_path / "testlens.toml"
        config.write_text("lexicon = 987654\n")
        monkeypatch.setenv("TESTLENS_CONFIG", str(config))
        assert invoke(["tag", "testParser"]) == (
            EXIT_ERROR, "", "error: line 1: lexicon must be a quoted string\n")

    def test_comment_after_value(self):
        cfg = parse_config_text(
            "threshold = 0.7  # x\n"
            'format = "a#b" # quoted # is text\n'
            'rules = ["R1", "R#2"]# no space\n'
            "not_rule_boolean_asserts = true #\n"
        )
        assert (cfg.threshold, cfg.format, cfg.rules, cfg.not_rule_boolean_asserts) == (
            0.7, "a#b", ("R1", "R#2"), True)

    def test_unclosed_quote_is_not_a_comment(self):
        with pytest.raises(ConfigError, match="cannot parse value"):
            parse_config_text('format = "json # x\n')


    def readme_sample(self):
        readme = (Path(testlens.__file__).parents[2] / "README.md").read_text(encoding="utf-8")
        [sample] = re.findall(r"```toml\n(# every supported key.*?)```", readme, re.DOTALL)
        return parse_config_text(sample)

    def test_readme_sample_format_works_for_every_command(self, tmp_path, monkeypatch):
        fmt = self.readme_sample().format
        assert fmt == "json"
        config = tmp_path / "testlens.toml"
        config.write_text(f'format = "{fmt}"\n')
        monkeypatch.setenv("TESTLENS_CONFIG", str(config))
        (tmp_path / "FailTest.java").write_text(R1_VIOLATION)
        code, out, _ = invoke(["lint", str(tmp_path)])
        assert code == EXIT_FINDINGS
        assert [d["rule"] for d in json.loads(out)] == ["R1"]
        events = tmp_path / "events.csv"
        events.write_text("old_name,new_name,file,commit\ntestHasItem,testContainsItem,,\n")
        code, out, _ = invoke(["rename", "classify", "--input", str(events)])
        assert code == EXIT_OK
        assert json.loads(out)[0]["semantics"] == "preserve"
        classified = tmp_path / "classified.json"
        classified.write_text(out)
        code, out, _ = invoke(["report", "--input", str(classified), "--table", "forms"])
        assert code == EXIT_OK
        assert json.loads(out)[0]["rows"] == [["simple", "1", "100.00%"]]


class TestDeterminism:
    def test_identical_invocations_byte_identical(self, tmp_path):
        (tmp_path / "FailTest.java").write_text(R1_VIOLATION)
        (tmp_path / "CleanTest.java").write_text(CLEAN_TEST)
        first = invoke(["scan", str(tmp_path)])
        second = invoke(["scan", str(tmp_path)])
        assert first == second
        first = invoke(["lint", str(tmp_path), "--format", "json"])
        second = invoke(["lint", str(tmp_path), "--format", "json"])
        assert first == second


class TestGoldenJson:
    """Each JSON-writing command's stdout, byte for byte, run from
    ``tests/data``; ``scan`` and ``report`` have golden tests of their own."""

    BROKEN = ("scan_tree/BrokenTest.java: unbalanced braces after method "
              "'neverCloses'; recovered 1 method(s)\n")

    @pytest.mark.parametrize("argv, golden, code, err", [
        (["split", "--json", "testÜber2HTTPServer_ok"], "golden_split.json", EXIT_OK, ""),
        (["lint", "scan_tree", "--format", "json"], "golden_lint.json", EXIT_ERROR, BROKEN),
        (["rename", "detect", "--before", "rename_pair/Before.java",
          "--after", "rename_pair/After.java"], "golden_detect.json", EXIT_OK, ""),
        (["rename", "classify", "--input", "corpus_events.json", "--format", "json"],
         "golden_classify.json", EXIT_OK, ""),
    ], ids=["split", "lint", "detect", "classify"])
    def test_stdout_equals_golden_bytes(self, monkeypatch, argv, golden, code, err):
        monkeypatch.chdir(DATA)
        got_code, out, got_err = invoke(argv)
        assert (got_code, got_err) == (code, err)
        assert out.encode() == (DATA / golden).read_bytes()


class TestInProcessReuse:
    BEFORE = """\
import org.junit.Test;
class T {
    @Test public void testOldName() { a(); b(); c(); d(); }
    @Test public void testKept() { k(); }
}
"""

    def test_repeated_commands_byte_identical_with_one_parser(self, tmp_path, monkeypatch):
        builds = []

        def counting_build_parser():
            builds.append(1)
            return real_build_parser()

        real_build_parser = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", counting_build_parser)
        cli._parser.cache_clear()
        before, after = tmp_path / "Before.java", tmp_path / "After.java"
        before.write_text(self.BEFORE)
        after.write_text(self.BEFORE.replace("testOldName", "testNewNames"))
        detected, classified = tmp_path / "detected.json", tmp_path / "classified.json"
        malformed = tmp_path / "malformed.json"
        malformed.write_text(json.dumps([{"old_name": "testFoo", "new_name": "testFoo"}]))
        commands = [
            (["rename", "detect", "--before", str(before), "--after", str(after)], detected),
            (["rename", "classify", "--input", str(detected)], classified),
            (["report", "--input", str(classified), "--table", "pairs"], None),
            (["report", "--table", "pairs"], None),
            (["report", "--input", str(malformed)], None),
        ]

        def session():
            results = []
            for argv, save in commands:
                results.append(invoke(argv))
                if save is not None:
                    save.write_text(results[-1][1])
            return results

        first = session()
        try:
            assert [code for code, _, _ in first] == [EXIT_OK] * 3 + [EXIT_ERROR] * 2
            assert "testNewNames" in first[0][1]
            assert "| V NM N | V NM NPL | 1 | 100.00% |" in first[2][1]
            assert first[3][2].startswith("usage: testlens report")
            assert first[4][2].startswith(f"error: {malformed}: record 0: ")
            assert session() == first
            assert len(builds) == 1
        finally:
            cli._parser.cache_clear()


class TestEntryPoint:
    """``python -m testlens``, which calls ``cli.main``, in a subprocess."""

    def run_module(self, *argv):
        src = str(Path(testlens.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
        return subprocess.run([sys.executable, "-m", "testlens", *argv],
                              capture_output=True, text=True, env=env, timeout=60)

    def test_help_on_stdout(self):
        proc = self.run_module("--help")
        assert proc.returncode == EXIT_OK
        assert proc.stdout.startswith("usage: testlens")
        assert proc.stderr == ""

    def test_missing_target_usage_on_stderr(self):
        proc = self.run_module("scan")
        assert proc.returncode == EXIT_ERROR
        assert proc.stdout == ""
        assert proc.stderr.startswith("usage: testlens scan")

    @pytest.mark.parametrize("unbuffered", ["1", ""])
    def test_reader_closing_stdout_early_is_quiet(self, tmp_path, unbuffered):
        # far more output than a pipe holds, so the writer meets the closed pipe
        methods = "".join(f"    @Test\n    public void testParser{i}() {{ }}\n" for i in range(2000))
        (tmp_path / "BigTest.java").write_text(
            f"import org.junit.Test;\npublic class BigTest {{\n{methods}}}\n")
        src = str(Path(testlens.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=src, PYTHONUNBUFFERED=unbuffered)
        proc = subprocess.Popen([sys.executable, "-m", "testlens", "scan", str(tmp_path)],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        try:
            assert proc.stdout.read(10) == b'{\n  "files"'[:10]
            proc.stdout.close()
            assert proc.stderr.read() == b""
            assert proc.wait(timeout=60) == EXIT_ERROR
        finally:
            proc.kill()
            proc.stderr.close()


class TestUsage:
    def test_usage_error_written_to_err_stream(self, capsys):
        code, out, err = invoke(["scan"])
        assert (code, out) == (EXIT_ERROR, "")
        assert err == ("usage: testlens scan [-h] target\ntestlens scan: error: "
                       "the following arguments are required: target\n")
        assert capsys.readouterr() == ("", "")

    def test_help_written_to_out_stream(self, capsys):
        code, out, err = invoke(["--help"])
        assert (code, err) == (EXIT_OK, "")
        assert out.startswith("usage: testlens")
        assert capsys.readouterr() == ("", "")

    def test_no_command_is_error(self):
        code, _, _ = invoke([])
        assert code == EXIT_ERROR

    def test_unknown_command_is_error(self):
        code, _, _ = invoke(["frob"])
        assert code == EXIT_ERROR

    def test_separator_only_name_is_usage_error(self):
        code, _, err = invoke(["tag", "_"])
        assert code == EXIT_ERROR
        assert "error" in err

    def test_non_utf8_file_is_io_error(self, tmp_path):
        bad = tmp_path / "Bad.java"
        bad.write_bytes(b"class X { \xff\xfe }")
        code, _, err = invoke(["scan", str(bad)])
        assert code == EXIT_ERROR

    def test_config_format_invalid_for_lint(self, tmp_path, monkeypatch):
        config = tmp_path / "cfg.toml"
        config.write_text('format = "md"\n')
        (tmp_path / "T.java").write_text(CLEAN_TEST)
        monkeypatch.setenv("TESTLENS_CONFIG", str(config))
        code, _, err = invoke(["lint", str(tmp_path)])
        assert code == EXIT_ERROR

    def test_extension_tables(self, tmp_path):
        events = tmp_path / "events.csv"
        events.write_text("old_name,new_name,file,commit\ntest_13,test13,,\n")
        code, out, _ = invoke(["rename", "classify", "--input", str(events)])
        classified = tmp_path / "classified.json"
        classified.write_text(out)
        for table in ("forms", "catalog"):
            code, out, _ = invoke(["report", "--input", str(classified),
                                   "--table", table])
            assert code == EXIT_OK
            assert out
