import io
import json

import pytest

from testlens.cli import EXIT_ERROR, EXIT_FINDINGS, EXIT_OK, run
from testlens.config import Config, ConfigError, parse_config_text

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


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, out, err)
    return code, out.getvalue(), err.getvalue()


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
        code, _, err = invoke(["scan", "/nonexistent/path"])
        assert code == EXIT_ERROR
        assert "error" in err

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
        assert doc[0]["pairs"] == [{"added": "new", "removed": "old",
                                    "relation": "unrelated"}]

    def test_detect_threshold_rejects(self, tmp_path):
        before = tmp_path / "Before.java"
        after = tmp_path / "After.java"
        before.write_text(self.BEFORE)
        after.write_text(self.AFTER.replace("a(); b(); c(); d();", "x(1); y(2); z(3);"))
        code, out, _ = invoke([
            "rename", "detect", "--before", str(before), "--after", str(after),
        ])
        assert json.loads(out) == []

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


class TestUsage:
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
