"""The classified-record format round-trips: what ``rename classify --format
json`` writes, ``report``'s reader counts as ``accumulate`` counts the
classifications themselves."""

import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from testlens import _records
from testlens.cli import EXIT_OK, run
from testlens.rename import RenameEvent, classify
from testlens.report import CorpusStats, accumulate

DATA = Path(__file__).parent / "data"
CORPUS = json.loads((DATA / "corpus_events.json").read_text())
NAMES = sorted({record[key] for record in CORPUS for key in ("old_name", "new_name")})

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
        rows = _records.read_classified(str(path))
    counted = CorpusStats()
    for record in _records.counted_renames(str(path), rows):
        accumulate(counted, record)
    assert counted == expected
