"""Corpus statistics over classified renames, with mergeable counters.

Stats are two counters that merge pointwise, so shards built in any
order or grouping produce identical totals. ``accumulate`` adds one
``RenameClassification``; the ``report`` command fills them from its
JSON records directly (``_records.count_renames``). Every table is a
marginal of them, derived at render time and emitted as pattern / count
/ percentage rows in markdown, CSV, or JSON.
"""

from __future__ import annotations

import csv
import json
from collections import Counter
from collections.abc import Iterable
from io import StringIO
from typing import NamedTuple

from .patterns import CatalogEntry, GrammarPattern, default_catalog, matches
from .rename import RenameClassification

PREFIX_LENGTHS = (2, 3, 4, 5)

TABLE_KINDS = ("full", "pairs", "prefix", "semantic", "terms", "forms", "catalog")

FORMATS = ("md", "csv", "json")


class CorpusStats:
    """The two counters every rename-analysis summary table is derived from.

    ``events`` is keyed by ``(old pattern, new pattern, form value,
    semantics value)``, all text, the patterns as ``str(GrammarPattern)``
    writes them; ``term_pairs`` by ``(added, removed)``. Each instance
    gets counters of its own unless they are given.
    """

    __slots__ = ("events", "term_pairs")

    def __init__(self, events: Counter | None = None, term_pairs: Counter | None = None):
        self.events = Counter() if events is None else events
        self.term_pairs = Counter() if term_pairs is None else term_pairs

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.events == other.events and self.term_pairs == other.term_pairs

    def __repr__(self) -> str:
        return f"CorpusStats(events={self.events!r}, term_pairs={self.term_pairs!r})"

    def event_count(self) -> int:
        return sum(self.events.values())


def accumulate(stats: CorpusStats, classification: RenameClassification) -> CorpusStats:
    """Fold one classified event into ``stats`` (mutated and returned).

    Raises ValueError when a name has no grammar pattern (it is made only
    of separators).
    """
    old_pattern, new_pattern = classification.old_pattern, classification.new_pattern
    if old_pattern is None or new_pattern is None:
        raise ValueError("a name without terms has no grammar pattern to count")
    stats.events[str(old_pattern), str(new_pattern), classification.form.value,
                 classification.semantics.value] += 1
    stats.term_pairs.update((added, removed) for added, removed, _ in classification.pairs)
    return stats


def merge(a: CorpusStats, b: CorpusStats) -> CorpusStats:
    """Pointwise sum of two stats values; inputs are left untouched."""
    return CorpusStats(a.events + b.events, a.term_pairs + b.term_pairs)


def _marginal(counts: Counter, key) -> Counter:
    """``counts`` summed over the entries that share ``key(entry)``."""
    out: Counter = Counter()
    for entry, count in counts.items():
        out[key(entry)] += count
    return out


def _key_text(key) -> str:
    if isinstance(key, tuple):
        return " | ".join(str(part) for part in key)
    return str(key)


def _top_k(counts: Counter, k: int) -> tuple[list[tuple[object, int]], int]:
    """Top entries by count (ties broken by key text) plus the residual count."""
    if k < 1:
        raise ValueError("k must be >= 1")
    ordered = sorted(counts.items(), key=lambda item: (-item[1], _key_text(item[0])))
    head = ordered[:k]
    residual = sum(count for _, count in ordered[k:])
    return head, residual


def _pct(count: int, total: int) -> str:
    if total == 0:
        return "0.00%"
    return f"{100.0 * count / total:.2f}%"


class _Section(NamedTuple):
    title: str
    columns: tuple[str, ...]
    rows: list[tuple]  # final column values are pre-rendered strings


def _counter_section(title: str, key_columns: tuple[str, ...], counts: Counter,
                     k: int, total: int) -> _Section:
    rows: list[tuple] = []
    head, residual = _top_k(counts, k)
    for key, count in head:
        key_parts = key if isinstance(key, tuple) else (key,)
        rows.append(tuple(str(p) for p in key_parts) + (str(count), _pct(count, total)))
    if counts:
        blanks = ("",) * (len(key_columns) - 1)
        rows.append(("Others",) + blanks + (str(residual), _pct(residual, total)))
    return _Section(title, key_columns + ("Count", "Percentage"), rows)


def _share_section(title: str, column: str, counts: Counter, total: int) -> _Section:
    """Every entry, largest first, with no top-k cut and no Others row."""
    ordered = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
    rows = [(name, str(count), _pct(count, total)) for name, count in ordered]
    return _Section(title, (column, "Count", "Percentage"), rows)


def _catalog_section(pattern_pairs: Counter, catalog: list[CatalogEntry]) -> _Section:
    """Per entry: instances counts old and new names matching its template
    (an event can contribute twice), preserved counts events where both
    sides match. Each distinct pattern pair is matched once."""
    tally: dict[str, list[int]] = {}
    texts = {text for pair in pattern_pairs for text in pair}
    parsed = {text: GrammarPattern.parse(text) for text in texts}
    for (old_text, new_text), count in pattern_pairs.items():
        old_pattern, new_pattern = parsed[old_text], parsed[new_text]
        for entry in catalog:
            old_hit = matches(entry.template, old_pattern)
            new_hit = matches(entry.template, new_pattern)
            if old_hit or new_hit:
                counts = tally.setdefault(entry.name, [0, 0])
                counts[0] += count * (old_hit + new_hit)
                counts[1] += count * (old_hit and new_hit)
    rows = [
        (name, str(instances), str(preserved), _pct(2 * preserved, instances))
        for name, (instances, preserved) in sorted(tally.items())
    ]
    return _Section("Naming template tally",
                    ("Template", "Instances", "Preserved Events", "Preserved"), rows)


def _sections(stats: CorpusStats, table: str, k: int, prefix_lens: tuple[int, ...],
              catalog: list[CatalogEntry] | None) -> list[_Section]:
    """Derive one table kind's sections from the event counter."""
    events = stats.events
    total = stats.event_count()
    if table == "full":
        return [
            _counter_section("Grammar patterns before rename", ("Pattern",),
                             _marginal(events, lambda e: e[0]), k, total),
            _counter_section("Grammar patterns after rename", ("Pattern",),
                             _marginal(events, lambda e: e[1]), k, total),
        ]
    if table == "pairs":
        return [
            _counter_section("Grammar pattern pairs", ("Old Pattern", "New Pattern"),
                             _marginal(events, lambda e: e[:2]), k, total),
        ]
    if table == "prefix":
        if min(prefix_lens, default=1) < 1:
            raise ValueError("prefix length must be >= 1")
        # a pattern text is its tags joined by single spaces (str(GrammarPattern))
        pattern_pairs = _marginal(events, lambda e: e[:2])
        return [
            _counter_section(
                f"Prefix pattern pairs (length {n})", ("Old Prefix", "New Prefix"),
                _marginal(pattern_pairs, lambda p: (" ".join(p[0].split()[:n]),
                                                    " ".join(p[1].split()[:n]))),
                k, total,
            )
            for n in prefix_lens
        ]
    if table == "semantic":
        return [
            _share_section("Semantic categories", "Category",
                           _marginal(events, lambda e: e[3]), total),
            _counter_section("Semantic categories by pattern pair",
                             ("Old Pattern", "New Pattern", "Category"),
                             _marginal(events, lambda e: (e[0], e[1], e[3])),
                             k, total),
        ]
    if table == "terms":
        return [
            _counter_section("Added/removed term pairs", ("Added", "Removed"),
                             stats.term_pairs, k, total),
        ]
    if table == "forms":
        return [_share_section("Rename forms", "Form", _marginal(events, lambda e: e[2]), total)]
    # render_table admits no other kind: this is the catalog table
    return [_catalog_section(_marginal(events, lambda e: e[:2]),
                             default_catalog() if catalog is None else catalog)]


def _write_md_table(columns: tuple[str, ...], rows: Iterable[tuple[str, ...]], write) -> None:
    """Write a markdown table through ``write``: its header, the ``| --- |``
    separator, then each of ``rows`` as it comes."""
    write("| " + " | ".join(columns) + " |\n")
    write("|" + "|".join(" --- " for _ in columns) + "|\n")
    for row in rows:
        write("| " + " | ".join(row) + " |\n")


def _render_md(sections: list[_Section]) -> str:
    out = StringIO()
    for section in sections:
        out.write(f"## {section.title}\n\n")
        _write_md_table(section.columns, section.rows, out.write)
        out.write("\n")
    return out.getvalue()


def _render_csv(sections: list[_Section]) -> str:
    out = StringIO()
    writer = csv.writer(out, lineterminator="\n")
    for section in sections:
        writer.writerow(["section"] + list(section.columns))
        for row in section.rows:
            writer.writerow([section.title] + list(row))
    return out.getvalue()


def _render_json(sections: list[_Section]) -> str:
    return json.dumps([{"columns": section.columns, "rows": section.rows, "title": section.title}
                       for section in sections], indent=2) + "\n"


def render_table(
    stats: CorpusStats,
    table: str,
    fmt: str = "md",
    k: int = 5,
    prefix_lens: tuple[int, ...] = PREFIX_LENGTHS,
    catalog: list[CatalogEntry] | None = None,
) -> str:
    """Render one table kind in the requested format.

    The catalog table tallies ``catalog``, by default the bundled one.
    """
    if table not in TABLE_KINDS:
        raise ValueError(f"unsupported table {table!r}; choose from {TABLE_KINDS}")
    if k < 1:
        raise ValueError("k must be >= 1")
    sections = _sections(stats, table, k, prefix_lens, catalog)
    if fmt == "md":
        return _render_md(sections)
    if fmt == "csv":
        return _render_csv(sections)
    if fmt == "json":
        return _render_json(sections)
    raise ValueError(f"unsupported format {fmt!r}; choose from {FORMATS}")
