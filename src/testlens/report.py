"""Corpus statistics over classified renames, with mergeable counters.

Stats accumulate per event and merge pointwise, so shards built in any
order or grouping produce identical totals. Rendering emits pattern /
count / percentage tables in markdown, CSV, or JSON.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from io import StringIO

from .patterns import CatalogEntry, GrammarPattern, default_catalog, matches
from .rename import RenameClassification

PREFIX_LENGTHS = (2, 3, 4, 5)

TABLE_KINDS = ("full", "pairs", "prefix", "semantic", "terms", "forms", "catalog")

FORMATS = ("md", "csv", "json")


@dataclass
class CorpusStats:
    """Counters shaped like the rename-analysis summary tables.

    catalog_tally maps entry name to [instances, preserved]: instances
    counts old and new names matching the entry's template (an event can
    contribute twice), preserved counts events where both sides match.
    """

    full_pattern_counts_old: Counter = field(default_factory=Counter)
    full_pattern_counts_new: Counter = field(default_factory=Counter)
    pattern_pair_counts: Counter = field(default_factory=Counter)
    prefix_pair_counts: Counter = field(default_factory=Counter)
    form_counts: Counter = field(default_factory=Counter)
    semantic_counts: Counter = field(default_factory=Counter)
    semantic_by_pattern_pair: Counter = field(default_factory=Counter)
    term_pair_counts: Counter = field(default_factory=Counter)
    catalog_tally: dict = field(default_factory=dict)

    def event_count(self) -> int:
        return sum(self.semantic_counts.values())


def accumulate(
    stats: CorpusStats,
    classification: RenameClassification,
    patterns: tuple[GrammarPattern, GrammarPattern],
    catalog: list[CatalogEntry] | None = None,
) -> CorpusStats:
    """Fold one classified event into ``stats`` (mutated and returned)."""
    if catalog is None:
        catalog = default_catalog()
    old_pattern, new_pattern = patterns
    old_tags = [t.value for t in old_pattern.tags]
    new_tags = [t.value for t in new_pattern.tags]
    old_str = " ".join(old_tags)
    new_str = " ".join(new_tags)

    stats.full_pattern_counts_old[old_str] += 1
    stats.full_pattern_counts_new[new_str] += 1
    stats.pattern_pair_counts[(old_str, new_str)] += 1
    for k in PREFIX_LENGTHS:
        stats.prefix_pair_counts[(k, " ".join(old_tags[:k]), " ".join(new_tags[:k]))] += 1
    stats.form_counts[classification.form.value] += 1
    stats.semantic_counts[classification.semantics.value] += 1
    stats.semantic_by_pattern_pair[(old_str, new_str, classification.semantics.value)] += 1
    for added, removed, _relation in classification.pairs:
        stats.term_pair_counts[(added, removed)] += 1
    for entry in catalog:
        old_hit = matches(entry.template, old_pattern)
        new_hit = matches(entry.template, new_pattern)
        if old_hit or new_hit:
            tally = stats.catalog_tally.setdefault(entry.name, [0, 0])
            tally[0] += int(old_hit) + int(new_hit)
            tally[1] += int(old_hit and new_hit)
    return stats


def merge(a: CorpusStats, b: CorpusStats) -> CorpusStats:
    """Pointwise sum of two stats values; inputs are left untouched."""
    out = CorpusStats()
    for name in (
        "full_pattern_counts_old",
        "full_pattern_counts_new",
        "pattern_pair_counts",
        "prefix_pair_counts",
        "form_counts",
        "semantic_counts",
        "semantic_by_pattern_pair",
        "term_pair_counts",
    ):
        merged = Counter(getattr(a, name))
        merged.update(getattr(b, name))
        setattr(out, name, merged)
    for source in (a.catalog_tally, b.catalog_tally):
        for key, (instances, preserved) in source.items():
            tally = out.catalog_tally.setdefault(key, [0, 0])
            tally[0] += instances
            tally[1] += preserved
    return out


def _key_text(key) -> str:
    if isinstance(key, tuple):
        return " | ".join(str(part) for part in key)
    return str(key)


def top_k(counts: Counter, k: int) -> tuple[list[tuple[object, int]], int]:
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


@dataclass(frozen=True)
class _Section:
    title: str
    columns: tuple[str, ...]
    rows: list[tuple]  # final column values are pre-rendered strings


def _counter_section(title: str, key_columns: tuple[str, ...], counts: Counter,
                     k: int, total: int) -> _Section:
    rows: list[tuple] = []
    head, residual = (top_k(counts, k) if counts else ([], 0))
    for key, count in head:
        key_parts = key if isinstance(key, tuple) else (key,)
        rows.append(tuple(str(p) for p in key_parts) + (str(count), _pct(count, total)))
    if counts:
        blanks = ("",) * (len(key_columns) - 1)
        rows.append(("Others",) + blanks + (str(residual), _pct(residual, total)))
    return _Section(title, key_columns + ("Count", "Percentage"), rows)


def _sections(stats: CorpusStats, table: str, k: int,
              prefix_lens: tuple[int, ...]) -> list[_Section]:
    total = stats.event_count()
    if table == "full":
        return [
            _counter_section("Grammar patterns before rename", ("Pattern",),
                             stats.full_pattern_counts_old, k, total),
            _counter_section("Grammar patterns after rename", ("Pattern",),
                             stats.full_pattern_counts_new, k, total),
        ]
    if table == "pairs":
        return [
            _counter_section("Grammar pattern pairs", ("Old Pattern", "New Pattern"),
                             stats.pattern_pair_counts, k, total),
        ]
    if table == "prefix":
        sections = []
        for n in prefix_lens:
            selected = Counter({
                key[1:]: count
                for key, count in stats.prefix_pair_counts.items()
                if key[0] == n
            })
            sections.append(
                _counter_section(f"Prefix pattern pairs (length {n})",
                                 ("Old Prefix", "New Prefix"), selected, k, total)
            )
        return sections
    if table == "semantic":
        category = _Section(
            "Semantic categories",
            ("Category", "Count", "Percentage"),
            [
                (name, str(count), _pct(count, total))
                for name, count in sorted(
                    stats.semantic_counts.items(), key=lambda i: (-i[1], i[0])
                )
            ],
        )
        by_pair = _counter_section(
            "Semantic categories by pattern pair",
            ("Old Pattern", "New Pattern", "Category"),
            stats.semantic_by_pattern_pair, k, total,
        )
        return [category, by_pair]
    if table == "terms":
        return [
            _counter_section("Added/removed term pairs", ("Added", "Removed"),
                             stats.term_pair_counts, k, total),
        ]
    if table == "forms":
        return [
            _Section(
                "Rename forms",
                ("Form", "Count", "Percentage"),
                [
                    (name, str(count), _pct(count, total))
                    for name, count in sorted(
                        stats.form_counts.items(), key=lambda i: (-i[1], i[0])
                    )
                ],
            )
        ]
    if table == "catalog":
        rows = []
        for name in sorted(stats.catalog_tally):
            instances, preserved = stats.catalog_tally[name]
            pct = _pct(2 * preserved, instances)
            rows.append((name, str(instances), str(preserved), pct))
        return [
            _Section(
                "Naming template tally",
                ("Template", "Instances", "Preserved Events", "Preserved"),
                rows,
            )
        ]
    raise ValueError(f"unknown table kind {table!r}")


def _render_md(sections: list[_Section]) -> str:
    out = StringIO()
    for section in sections:
        out.write(f"## {section.title}\n\n")
        out.write("| " + " | ".join(section.columns) + " |\n")
        out.write("|" + "|".join(" --- " for _ in section.columns) + "|\n")
        for row in section.rows:
            out.write("| " + " | ".join(row) + " |\n")
        out.write("\n")
    return out.getvalue()


def _render_csv(sections: list[_Section]) -> str:
    import csv

    out = StringIO()
    writer = csv.writer(out, lineterminator="\n")
    for section in sections:
        writer.writerow(["section"] + list(section.columns))
        for row in section.rows:
            writer.writerow([section.title] + list(row))
    return out.getvalue()


def _render_json(sections: list[_Section]) -> str:
    doc = [
        {
            "title": section.title,
            "columns": list(section.columns),
            "rows": [list(row) for row in section.rows],
        }
        for section in sections
    ]
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def render_table(
    stats: CorpusStats,
    table: str,
    fmt: str = "md",
    k: int = 5,
    prefix_lens: tuple[int, ...] = PREFIX_LENGTHS,
) -> str:
    """Render one table kind in the requested format."""
    if table not in TABLE_KINDS:
        raise ValueError(f"unsupported table {table!r}; choose from {TABLE_KINDS}")
    sections = _sections(stats, table, k, prefix_lens)
    return _render(sections, fmt)


def _render(sections: list[_Section], fmt: str) -> str:
    if fmt == "md":
        return _render_md(sections)
    if fmt == "csv":
        return _render_csv(sections)
    if fmt == "json":
        return _render_json(sections)
    raise ValueError(f"unsupported format {fmt!r}; choose from {FORMATS}")


def render(stats: CorpusStats, fmt: str = "md", k: int = 5) -> str:
    """Render every table as one document."""
    sections: list[_Section] = []
    for table in TABLE_KINDS:
        sections.extend(_sections(stats, table, k, PREFIX_LENGTHS))
    return _render(sections, fmt)
