import io
import json

from hypothesis import example, given, settings, strategies as st

from testlens import _records, cli, extraction
from testlens._jsonout import write_array
from testlens.lint import Diagnostic
from testlens.patterns import GrammarPattern
from testlens.rename import (FormCategory, RenameClassification, RenameEvent, SemanticCategory,
                             TermRelation)
from testlens.tagger import PosTag

# the leaves and containers of the commands' JSON documents
json_values = st.recursive(
    st.text() | st.booleans() | st.integers() | st.none(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner,
                                                                  max_size=4),
    max_leaves=12,
)


def nested(value, indent: str) -> str:
    """``value`` as JSON text nested at ``indent``."""
    return json.dumps(value, indent=2).replace("\n", "\n" + indent)


def written(records) -> str:
    """The array document ``write_array`` writes of ``records``."""
    pieces: list[str] = []
    write_array(iter(records), pieces.append)
    return "".join(pieces)


def scan_document(records) -> str:
    """``scan``'s document of the file records ``records``."""
    pieces = [cli._FILES_HEAD]
    cli._write_files(iter(records), pieces.append)
    return "".join(pieces) + cli._FILES_TAIL + "\n"


class TestListWriter:
    @given(st.lists(json_values, max_size=4))
    @example([])
    @settings(max_examples=200)
    def test_array_document_equals_json_dumps(self, values):
        assert written([nested(v, "  ") for v in values]) == json.dumps(values, indent=2) + "\n"

    @given(st.lists(json_values, max_size=4))
    @example([])
    @settings(max_examples=200)
    def test_files_document_equals_json_dumps(self, values):
        assert scan_document([nested(v, " " * 4) for v in values]) == (
            json.dumps({"files": values}, indent=2) + "\n")

    def test_each_record_is_one_write_before_the_next_is_pulled(self):
        pulled, writes = [], []

        def records():
            for i in range(3):
                pulled.append(i)
                yield nested({"i": i}, "  ")

        write_array(records(), lambda piece: writes.append((piece, len(pulled))))
        assert writes == [
            ('[\n  {\n    "i": 0\n  }', 1),
            (',\n  {\n    "i": 1\n  }', 2),
            (',\n  {\n    "i": 2\n  }', 3),
            ("\n]\n", 3),
        ]


# strings that need escaping: quotes, backslashes, control characters,
# non-ASCII (in and beyond the BMP) and the '%' of the format strings
texts = st.text(st.sampled_from('a"\\\x00\x1f\n\t%é 😀'), max_size=5) | st.text(max_size=5)
spans = st.tuples(st.integers(0, 10**9), st.integers(0, 10**9))
identifiers = st.text(st.sampled_from("aZ_$é9"), min_size=1, max_size=4)
events = st.tuples(identifiers, identifiers, st.none() | texts, st.none() | texts).filter(
    lambda fields: fields[0] != fields[1]).map(lambda fields: RenameEvent(*fields))


class TestRecordTemplates:
    """Each command's records, filled into templates and nested as the
    command nests them, against ``json.dumps`` of the dicts they stand for."""

    @given(st.lists(st.tuples(
        texts, st.lists(st.tuples(texts, st.lists(texts, max_size=3), spans, spans, st.booleans()),
                        max_size=3),
        st.booleans(), st.booleans()), max_size=3))
    @settings(max_examples=200)
    def test_scan_file_records(self, files):
        records, want = [], []
        for path, methods, is_test_file, partial in files:
            found = [extraction.TestMethod(name, tuple(annotations), (), name_span, body_span)
                     for name, annotations, name_span, body_span, _ in methods]
            flags = [flag for *_, flag in methods]
            records.append(cli._scan_json(extraction.SourceFile(path, ""), found, flags, is_test_file,
                                          partial))
            want.append({
                "is_test_file": is_test_file,
                "methods": [{"annotations": annotations, "body_span": body_span,
                             "is_test_method": flag, "name": name, "name_span": name_span}
                            for name, annotations, name_span, body_span, flag in methods],
                "partial": partial, "path": path})
        assert scan_document(records) == json.dumps({"files": want}, indent=2) + "\n"

    @given(st.lists(st.tuples(texts, texts, texts, spans, texts, texts), max_size=3))
    @settings(max_examples=200)
    def test_lint_diagnostics(self, diagnostics):
        want = [{"file": file, "message": message, "method": method, "name_span": span,
                 "rule": rule, "severity": severity}
                for rule, method, file, span, message, severity in diagnostics]
        assert written(map(cli._diagnostic_json, map(Diagnostic._make, diagnostics))) == (
            json.dumps(want, indent=2) + "\n")

    @given(st.lists(events, max_size=3))
    @settings(max_examples=200)
    def test_detected_events(self, detected):
        want = [{"commit": e.commit or "", "file": e.file or "", "new_name": e.new_name,
                 "old_name": e.old_name} for e in detected]
        out = io.StringIO()
        _records.write_events(iter(detected), out)
        assert out.getvalue() == json.dumps(want, indent=2) + "\n"

    @given(st.lists(st.builds(
        RenameClassification, events, st.sampled_from(FormCategory),
        st.sampled_from(SemanticCategory),
        st.lists(st.tuples(texts, texts, st.sampled_from(TermRelation)), max_size=3).map(tuple),
        *[st.none() | st.lists(st.sampled_from(PosTag), min_size=1, max_size=3).map(
            lambda tags: GrammarPattern(tuple(tags)))] * 2), max_size=3))
    @settings(max_examples=200)
    def test_classified_records(self, results):
        want = [{"commit": c.event.commit or "", "file": c.event.file or "",
                 "form": c.form.value, "new_name": c.event.new_name,
                 "new_pattern": None if c.new_pattern is None else str(c.new_pattern),
                 "old_name": c.event.old_name,
                 "old_pattern": None if c.old_pattern is None else str(c.old_pattern),
                 "pairs": [{"added": a, "relation": rel.value, "removed": r}
                           for a, r, rel in c.pairs],
                 "semantics": c.semantics.value} for c in results]
        out = io.StringIO()
        _records.write_classified(iter(results), "json", out)
        assert out.getvalue() == json.dumps(want, indent=2) + "\n"
