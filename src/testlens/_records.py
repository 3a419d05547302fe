"""The rename file formats: the events ``rename classify`` reads, and the
classified records it writes and ``report`` counts, writer beside reader."""

from __future__ import annotations

import csv
import io
import json
from collections.abc import Iterable, Iterator

from . import _data, patterns, rename as rename_mod
from ._jsonout import dump
from .report import CountedRename


def read_events(path: str) -> list[rename_mod.RenameEvent]:
    """The rename events of the CSV or JSON file ``path``, all checked."""
    text = _data.read_file(path)
    if text.lstrip().startswith(("[", "{")):
        rows = _data.load_json(path, text)
        if not isinstance(rows, list):
            raise ValueError(f"{path}: expected a JSON array of rename events")
        return list(_parsed(path, rows, _event_of))
    rows = csv.DictReader(io.StringIO(text))
    try:
        if not rows.fieldnames or not {"old_name", "new_name"} <= set(rows.fieldnames):
            raise ValueError(f"{path}: CSV header must include old_name,new_name")
        return list(_parsed(path, rows, _event_of))
    except csv.Error as err:  # such as a field over the csv module's size limit
        raise ValueError(f"{path}: invalid CSV: {err}") from err


def _parsed(path: str, rows: Iterable, parse) -> Iterator:
    """``parse(row)`` per row, lazily; a malformed row is an error naming its index."""
    for i, row in enumerate(rows):
        try:
            parsed = parse(row)
        except (KeyError, ValueError, TypeError) as verr:
            raise ValueError(f"{path}: record {i}: {verr}") from verr
        yield parsed


def _event_of(row: dict) -> rename_mod.RenameEvent:
    return rename_mod.RenameEvent(row["old_name"], row["new_name"],
                                  row.get("file") or None, row.get("commit") or None)


def write_classified(results: Iterable[rename_mod.RenameClassification], fmt: str, out):
    """Write each of ``results`` to ``out`` as a json, csv or md record as it comes."""
    if fmt == "json":
        dump(map(_classification_doc, results), out.write)
    elif fmt == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["old_name", "new_name", "file", "commit", "form", "semantics", "pairs"])
        for c in results:
            pairs = ";".join(f"{a}->{r}:{rel.value}" for a, r, rel in c.pairs)
            writer.writerow([c.event.old_name, c.event.new_name,
                             c.event.file or "", c.event.commit or "",
                             c.form.value, c.semantics.value, pairs])
    elif fmt == "md":
        out.write("| Old Name | New Name | Form | Semantics | Pairs |\n")
        out.write("| --- | --- | --- | --- | --- |\n")
        for c in results:
            pairs = ", ".join(f"{a}/{r} ({rel.value})" for a, r, rel in c.pairs)
            out.write(f"| {c.event.old_name} | {c.event.new_name} "
                      f"| {c.form.value} | {c.semantics.value} | {pairs} |\n")
    else:
        raise ValueError(f"unsupported classify format {fmt!r}")


def _classification_doc(c: rename_mod.RenameClassification) -> dict:
    return {
        "commit": c.event.commit or "",
        "file": c.event.file or "",
        "form": c.form.value,
        "new_name": c.event.new_name,
        "new_pattern": None if c.new_pattern is None else str(c.new_pattern),
        "old_name": c.event.old_name,
        "old_pattern": None if c.old_pattern is None else str(c.old_pattern),
        "pairs": [{"added": a, "relation": rel.value, "removed": r} for a, r, rel in c.pairs],
        "semantics": c.semantics.value,
    }


def read_classified(path: str) -> list:
    """The records of the classified JSON file ``path``, not yet checked."""
    rows = _data.load_json(path)
    if not isinstance(rows, list):
        raise ValueError(f"{path}: expected a JSON array of classifications")
    return rows


def counted_renames(path: str, rows: list) -> Iterator[CountedRename]:
    """Each record of ``rows``, read from ``path``, checked and counted as it is reached."""
    pattern_texts: dict[str, str] = {}
    return _parsed(path, rows, lambda row: _counted_record(row, pattern_texts))


_PATTERN_KEYS = ("old_pattern", "new_pattern")
# tuples, not sets, so that an unhashable value gets the enum's own error
_ENUM_VALUES = {
    enum: tuple(member.value for member in enum)
    for enum in (rename_mod.FormCategory, rename_mod.SemanticCategory, rename_mod.TermRelation)
}


def _counted_record(row: dict, pattern_texts: dict[str, str]) -> CountedRename:
    """One classified record as ``report`` counts it, its fields checked in
    the order, and with the errors, of building its ``RenameClassification``;
    ``pattern_texts`` caches the parse of each pattern string for the run."""
    old_name, new_name = row["old_name"], row["new_name"]
    rename_mod.validate_rename(old_name, new_name)
    old_pattern, new_pattern = _record_patterns(row, pattern_texts)
    return CountedRename(
        old_pattern, new_pattern,
        _known(rename_mod.FormCategory, row["form"]),
        _known(rename_mod.SemanticCategory, row["semantics"]),
        tuple(map(_term_pair, row.get("pairs", ()))),
    )


def _known(enum, value):
    """``value`` if it is a value of ``enum``, else the error ``enum(value)`` raises."""
    return value if value in _ENUM_VALUES[enum] else enum(value).value


def _term_pair(pair: dict) -> tuple[str, str]:
    """``(added, removed)`` of one pair record, checked after its relation."""
    counted = pair["added"], pair["removed"]
    _known(rename_mod.TermRelation, pair["relation"])
    if not (isinstance(counted[0], str) and isinstance(counted[1], str)):
        key = "removed" if isinstance(counted[0], str) else "added"
        raise TypeError(f"pair {key} must be a string, not {json.dumps(pair[key])}")
    return counted


def _record_patterns(row: dict, pattern_texts: dict[str, str]) -> list[str]:
    """The record's two grammar patterns as written, spaced as ``pattern``
    prints them."""
    found = []
    for key in _PATTERN_KEYS:
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
