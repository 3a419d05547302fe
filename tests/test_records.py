"""The classified-record format round-trips: what ``rename classify --format
json`` writes, ``report``'s reader counts as ``accumulate`` counts the
classifications themselves. ``report`` checks and counts records in one
pass; the reader it replaced, which built a ``CountedRename`` per record
and added it through ``accumulate``, is kept here as the reference for
every malformed record."""

import io
import json
import tempfile
from pathlib import Path
from typing import NamedTuple

from hypothesis import example, given, settings, strategies as st

from testlens import _data, _records, patterns, rename as rename_mod
from testlens.cli import EXIT_ERROR, EXIT_OK, run
from testlens.rename import RenameEvent, classify
from testlens.report import FORMATS, TABLE_KINDS, CorpusStats, accumulate, render_table

DATA = Path(__file__).parent / "data"
CORPUS = json.loads((DATA / "corpus_events.json").read_text())
NAMES = sorted({record[key] for record in CORPUS for key in ("old_name", "new_name")})
GOLDEN = json.loads((DATA / "golden_classify.json").read_text())

events = st.lists(
    st.tuples(st.sampled_from(NAMES), st.sampled_from(NAMES), st.sampled_from([None, "A.java"]))
    .filter(lambda t: t[0] != t[1])
    .map(lambda t: RenameEvent(*t)),
    max_size=12,
)


@given(events)
@settings(max_examples=40, deadline=None)
def test_written_records_count_as_their_classifications(events):
    expected = CorpusStats()
    for event in events:
        accumulate(expected, classify(event))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "events.json"
        path.write_text(json.dumps([
            {"old_name": e.old_name, "new_name": e.new_name, "file": e.file} for e in events]))
        out, err = io.StringIO(), io.StringIO()
        code = run(["rename", "classify", "--input", str(path), "--format", "json"], out, err)
        assert (code, err.getvalue()) == (EXIT_OK, "")
        path.write_text(out.getvalue())
        counted = _records.count_renames(str(path), _records.load_classified(str(path)))
    assert counted == expected


# -- the reference: the two-step reader, a CountedRename per record --------

class CountedRename(NamedTuple):
    old_pattern: str
    new_pattern: str
    form: str
    semantics: str
    term_pairs: tuple[tuple[str, str], ...]


def reference_counted_renames(path: str):
    rows = _data.load_json(path)
    if not isinstance(rows, list):
        raise ValueError(f"{path}: expected a JSON array of classifications")
    pattern_texts: dict[str, str] = {}
    for i, row in enumerate(rows):
        try:
            counted = _reference_counted_record(row, pattern_texts)
        except (KeyError, ValueError, TypeError) as verr:
            raise ValueError(f"{path}: record {i}: {verr}") from verr
        yield counted


_ENUM_VALUES = {
    enum: tuple(member.value for member in enum)
    for enum in (rename_mod.FormCategory, rename_mod.SemanticCategory, rename_mod.TermRelation)
}


def _reference_known(enum, value):
    return value if value in _ENUM_VALUES[enum] else enum(value).value


def _reference_counted_record(row, pattern_texts: dict[str, str]) -> CountedRename:
    _fixed_record(row)
    old_name, new_name = row["old_name"], row["new_name"]
    rename_mod.validate_rename(old_name, new_name)
    old_pattern, new_pattern = _reference_patterns(row, pattern_texts)
    return CountedRename(
        old_pattern, new_pattern,
        _reference_known(rename_mod.FormCategory, row["form"]),
        _reference_known(rename_mod.SemanticCategory, row["semantics"]),
        tuple(_reference_term_pair(_fixed_pair(pair)) for pair in _fixed_pairs(row)),
    )


def _reference_term_pair(pair: dict) -> tuple[str, str]:
    counted = pair["added"], pair["removed"]
    _reference_known(rename_mod.TermRelation, pair["relation"])
    if not (isinstance(counted[0], str) and isinstance(counted[1], str)):
        key = "removed" if isinstance(counted[0], str) else "added"
        raise TypeError(f"pair {key} must be a string, not {json.dumps(pair[key])}")
    return counted


def _reference_patterns(row: dict, pattern_texts: dict[str, str]) -> list[str]:
    found = []
    for key in ("old_pattern", "new_pattern"):
        text = row[key]
        if not isinstance(text, str):
            raise TypeError(f"{key} must be a string of POS tags, not {json.dumps(text)}")
        if text not in pattern_texts:
            try:
                pattern_texts[text] = str(patterns.GrammarPattern.parse(text))
            except ValueError as verr:
                raise ValueError(f"{key}: {verr}") from verr
        found.append(pattern_texts[text])
    return found


def reference_accumulate(stats: CorpusStats, counted: CountedRename) -> None:
    stats.events[counted[:4]] += 1
    stats.term_pairs.update(counted.term_pairs)


# The two messages the one-pass reader changed on purpose, each where the
# reference met the value. Before, a record that is not an object, a
# ``pairs`` that is not an array and a pair that is not an object gave
# Python's own text ('int' object is not subscriptable, ...), or, for a
# ``pairs`` of ``{}`` or ``""``, no pairs.

def _fixed_record(row):
    if not isinstance(row, dict):
        raise TypeError(f"expected a JSON object, not {json.dumps(row)}")


def _fixed_pairs(row: dict) -> list:
    pairs = row.get("pairs", [])
    if not isinstance(pairs, list):
        raise TypeError(f"pairs must be an array of term pairs, not {json.dumps(pairs)}")
    return pairs


def _fixed_pair(pair):
    if not isinstance(pair, dict):
        raise TypeError(f"pair must be a JSON object, not {json.dumps(pair)}")
    return pair


def reference_report(path: str, table: str, fmt: str) -> tuple[int, str, str]:
    """What ``report --input path --table table --format fmt`` printed
    with the reference reader."""
    try:
        stats = CorpusStats()
        for counted in reference_counted_renames(path):
            reference_accumulate(stats, counted)
    except ValueError as verr:
        return EXIT_ERROR, "", f"error: {verr}\n"
    return EXIT_OK, render_table(stats, table, fmt), ""


# -- malformed records ------------------------------------------------------

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=6,
)
NAME_VALUES = ["testÄpfel", "tést", "名前Test", "test Foo", "a-b", "", "_", "__init", "test1"]
PATTERN_VALUES = ["V N", " V\tN ", "NM  N", "", "V XX", "v n", ["V", "N"], {"V": "N"}, 7, None]
ENUM_VALUES = ["bogus", "Simple", ["simple"], {"simple": 1}, "preserve", "synonym", "simple",
               "change", "unrelated", 0, None]
PAIRS_VALUES = [[], {}, "", "ab", None, 5, [5], [[1, 2]], ["ab"], [None], [{}],
                [{"relation": "akin"}], {"added": "a", "removed": "b", "relation": "synonym"}]
FIELD_VALUES = {
    "old_name": NAME_VALUES, "new_name": NAME_VALUES,
    "old_pattern": PATTERN_VALUES, "new_pattern": PATTERN_VALUES,
    "form": ENUM_VALUES, "semantics": ENUM_VALUES, "pairs": PAIRS_VALUES,
    "added": NAME_VALUES + [["a"], {"a": 1}, 5, None],
    "removed": NAME_VALUES + [["a"], {"a": 1}, 5, None],
    "relation": ENUM_VALUES,
}


def _change(draw, record: dict):
    """``record`` with one change: a key dropped, a value swapped for
    another JSON value, a pair changed or equal names; or, returned in
    its place, a value that is not an object."""
    action = draw(st.sampled_from(["drop", "swap", "swap", "pair", "same-names", "not-object"]))
    if action == "not-object":
        return draw(json_values.filter(lambda v: not isinstance(v, dict)))
    if action == "same-names" and "old_name" in record:
        record["new_name"] = record["old_name"]
    elif action == "pair" and isinstance(record.get("pairs"), list) and record["pairs"]:
        pairs = record["pairs"]
        j = draw(st.integers(0, len(pairs) - 1))
        if isinstance(pairs[j], dict) and pairs[j]:
            key = draw(st.sampled_from(sorted(pairs[j])))
            change = draw(st.sampled_from(["drop", "swap", "swap", "not-object"]))
            if change == "drop":
                del pairs[j][key]
                return record
            if change == "swap":
                pairs[j][key] = draw(st.sampled_from(FIELD_VALUES[key]) | json_values)
                return record
        pairs[j] = draw(json_values.filter(lambda v: not isinstance(v, dict)))
    elif record:
        key = draw(st.sampled_from(sorted(record)))
        if action == "drop":
            del record[key]
        else:
            record[key] = draw(st.sampled_from(FIELD_VALUES.get(key, [None])) | json_values)
    return record


@st.composite
def malformed_records(draw) -> list:
    """A few classified records of the golden corpus, one of them changed
    one to three times, so that two faults of one record meet too."""
    records = json.loads(json.dumps(draw(st.lists(st.sampled_from(GOLDEN), min_size=1,
                                                  max_size=4))))
    i = draw(st.integers(0, len(records) - 1))
    for _ in range(draw(st.integers(1, 3))):
        if isinstance(records[i], dict):
            records[i] = _change(draw, records[i])
    return records


@given(malformed_records(), st.sampled_from(TABLE_KINDS), st.sampled_from(FORMATS))
@settings(max_examples=300, deadline=None)
@example([{**GOLDEN[0], "old_pattern": ["V", "N"]}], "full", "md")
@example([{**GOLDEN[0], "pairs": {}}], "terms", "csv")
@example([{**GOLDEN[0], "pairs": [5]}], "terms", "csv")
@example([5], "full", "json")
@example([{**GOLDEN[1], "pairs": [{"relation": "akin"}]}], "terms", "md")
def test_report_counts_as_the_two_step_reader(records, table, fmt):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "classified.json"
        path.write_text(json.dumps(records))
        out, err = io.StringIO(), io.StringIO()
        code = run(["report", "--input", str(path), "--table", table, "--format", fmt], out, err)
        assert (code, out.getvalue(), err.getvalue()) == reference_report(str(path), table, fmt)


# per checked field: dropped, a value of the wrong type, a wrong value of
# the right type (an absent ``pairs`` is no pairs, not a fault)
FAULTS = {
    "old_name": (None, 5, "test Foo"), "new_name": (None, 5, "test Foo"),
    "old_pattern": (None, ["V"], "V XX"), "new_pattern": (None, ["V"], "V XX"),
    "form": (None, ["simple"], "bogus"), "semantics": (None, ["simple"], "bogus"),
    "pairs": (None, {}, [{"relation": "akin"}]),
}


def test_two_faults_of_a_record_report_as_the_two_step_reader():
    """Every two faulty fields of one record give the reference's message:
    the fields are checked in the reference's order."""
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "classified.json")
        for first in FAULTS:
            for second in FAULTS:
                if first == second:
                    continue
                for a in FAULTS[first]:
                    for b in FAULTS[second]:
                        record = dict(GOLDEN[1])
                        for key, value in ((first, a), (second, b)):
                            if value is None:
                                del record[key]
                            else:
                                record[key] = value
                        Path(path).write_text(json.dumps([GOLDEN[0], record]))
                        out, err = io.StringIO(), io.StringIO()
                        code = run(["report", "--input", path], out, err)
                        got = code, out.getvalue(), err.getvalue()
                        assert got == reference_report(path, "full", "md"), (first, a, second, b)
