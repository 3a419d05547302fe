"""The rename file formats, writer beside reader: the events ``rename
detect`` writes and ``rename classify`` reads, and the classified records
``rename classify`` writes and ``report`` counts.

A JSON input is one array of objects, and each record is checked as it
is reached: the first malformed one is an error that names its index.
``report`` checks and counts its records in one pass, straight into a
``report.CorpusStats``, with no value built per record."""

from __future__ import annotations

import csv
import io
import json
from collections.abc import Iterable, Iterator
from functools import lru_cache

from . import _data, patterns, rename as rename_mod
from ._jsonout import SLOT, STR, list_of, template, write_array
from .report import CorpusStats


def read_events(path: str) -> list[rename_mod.RenameEvent]:
    """The rename events of the CSV or JSON file ``path``, all checked."""
    text = _data.read_input(path)
    if text.lstrip().startswith(("[", "{")):
        return list(_parsed(path, _json_array(path, "rename events", text), _event_of))
    rows = csv.DictReader(io.StringIO(text))
    try:
        if not rows.fieldnames or not {"old_name", "new_name"} <= set(rows.fieldnames):
            raise ValueError(f"{path}: CSV header must include old_name,new_name")
        return list(_parsed(path, rows, _event_of))
    except csv.Error as err:  # such as a field over the csv module's size limit
        raise ValueError(f"{path}: invalid CSV: {err}") from err


def _json_array(path: str, what: str, text: str | None = None) -> list:
    """The JSON array in ``text``, else in the file ``path``, of ``what``."""
    rows = _data.load_json(path, text)
    if not isinstance(rows, list):
        raise ValueError(f"{path}: expected a JSON array of {what}")
    return rows


def _parsed(path: str, rows: Iterable, parse) -> Iterator:
    """``parse(row)`` per row, lazily; a malformed row is an error naming its index."""
    for i, row in enumerate(rows):
        try:
            parsed = parse(_object(row))
        except (KeyError, ValueError, TypeError) as verr:
            raise _record_error(path, i, verr) from verr
        yield parsed


def _object(row) -> dict:
    """``row`` if it is a JSON object: what a record of either format must be."""
    if row.__class__ is not dict:
        raise TypeError(f"expected a JSON object, not {json.dumps(row)}")
    return row


def _record_error(path: str, index: int, err: Exception) -> ValueError:
    return ValueError(f"{path}: record {index}: {err}")


def _event_of(row: dict) -> rename_mod.RenameEvent:
    return rename_mod.RenameEvent(row["old_name"], row["new_name"],
                                  _none_if_empty(row.get("file")),
                                  _none_if_empty(row.get("commit")))


def _none_if_empty(value):
    """None for an absent, null or empty field; any other value is kept for
    ``RenameEvent`` to check."""
    return None if value == "" else value


# the layout of an event, an item of the array ``write_events`` writes
_EVENT = template({"commit": SLOT, "file": SLOT, "new_name": SLOT, "old_name": SLOT}, " " * 2)


def write_events(events: Iterable[rename_mod.RenameEvent], out) -> None:
    """Write ``events`` to ``out`` as the JSON array ``read_events`` reads."""
    write_array((_EVENT % (STR(e.commit or ""), STR(e.file or ""), STR(e.new_name),
                           STR(e.old_name)) for e in events), out.write)


def write_classified(results: Iterable[rename_mod.RenameClassification], fmt: str, out):
    """Write each of ``results`` to ``out`` as a json, csv or md record as it comes."""
    if fmt == "json":
        write_array(map(_classified_json, results), out.write)
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


# the layout of a classified record, an item of the array ``write_classified`` writes
_CLASSIFIED = template({"commit": SLOT, "file": SLOT, "form": SLOT, "new_name": SLOT,
                        "new_pattern": SLOT, "old_name": SLOT, "old_pattern": SLOT,
                        "pairs": SLOT, "semantics": SLOT}, " " * 2)
_PAIRS = list_of(" " * 4)
_PAIR = template({"added": SLOT, "relation": SLOT, "removed": SLOT}, " " * 6)


def _classified_json(c: rename_mod.RenameClassification) -> str:
    e = c.event
    return _CLASSIFIED % (
        STR(e.commit or ""), STR(e.file or ""), STR(c.form.value), STR(e.new_name),
        _pattern_json(c.new_pattern), STR(e.old_name), _pattern_json(c.old_pattern),
        _PAIRS([_PAIR % (STR(a), STR(rel.value), STR(r)) for a, r, rel in c.pairs]),
        STR(c.semantics.value))


@lru_cache(maxsize=1024)
def _pattern_json(pattern: patterns.GrammarPattern | None) -> str:
    """The JSON text of a record's grammar pattern: its string, or null."""
    return "null" if pattern is None else STR(str(pattern))


def load_classified(path: str) -> list:
    """The records of the classified JSON file ``path``, unchecked: the
    file is read, and checked to be an array, at once."""
    return _json_array(path, "classifications")


def count_renames(path: str, rows: list) -> CorpusStats:
    """The ``CorpusStats`` of the classified records ``rows`` of ``path``,
    each checked and counted in one pass. Its fields are checked in the
    order, and with the errors, of building its ``RenameClassification``;
    an absent ``pairs`` is no pairs."""
    stats = CorpusStats()
    events, term_pairs = stats.events, stats.term_pairs
    pattern_texts: dict[str, str] = {}
    for i, row in enumerate(rows):
        try:
            _object(row)
            rename_mod.validate_rename(row["old_name"], row["new_name"])
            # a cached pattern costs no call; a list must not reach the cache
            old = row["old_pattern"]
            old = (old.__class__ is str and pattern_texts.get(old)
                   or _pattern_text("old_pattern", old, pattern_texts))
            new = row["new_pattern"]
            new = (new.__class__ is str and pattern_texts.get(new)
                   or _pattern_text("new_pattern", new, pattern_texts))
            form = row["form"]
            if form not in _FORMS:
                rename_mod.FormCategory(form)
            semantics = row["semantics"]
            if semantics not in _SEMANTICS:
                rename_mod.SemanticCategory(semantics)
            key = old, new, form, semantics
            events[key] = events.get(key, 0) + 1
            pairs = row.get("pairs", [])
            if pairs.__class__ is not list:
                raise TypeError(f"pairs must be an array of term pairs, not {json.dumps(pairs)}")
            for pair in pairs:
                pair = _term_pair(pair)
                term_pairs[pair] = term_pairs.get(pair, 0) + 1
        except (KeyError, ValueError, TypeError) as verr:
            raise _record_error(path, i, verr) from verr
    return stats


# tuples, not sets, so that an unhashable value gets the enum's own error
_FORMS, _SEMANTICS, _RELATIONS = (
    tuple(member.value for member in enum)
    for enum in (rename_mod.FormCategory, rename_mod.SemanticCategory, rename_mod.TermRelation))


def _pattern_text(key: str, text, pattern_texts: dict[str, str]) -> str:
    """The grammar pattern ``text`` of the field ``key`` spaced as
    ``pattern`` prints it, parsed and kept in ``pattern_texts``."""
    if text.__class__ is not str:
        raise TypeError(f"{key} must be a string of POS tags, not {json.dumps(text)}")
    try:
        spaced = pattern_texts[text] = str(patterns.GrammarPattern.parse(text))
    except ValueError as verr:
        raise ValueError(f"{key}: {verr}") from verr
    return spaced


def _term_pair(pair) -> tuple[str, str]:
    """``(added, removed)`` of one pair record, checked after its relation."""
    if pair.__class__ is not dict:
        raise TypeError(f"pair must be a JSON object, not {json.dumps(pair)}")
    counted = pair["added"], pair["removed"]
    relation = pair["relation"]
    if relation not in _RELATIONS:
        rename_mod.TermRelation(relation)
    if not (counted[0].__class__ is str and counted[1].__class__ is str):
        key = "removed" if counted[0].__class__ is str else "added"
        raise TypeError(f"pair {key} must be a string, not {json.dumps(pair[key])}")
    return counted
