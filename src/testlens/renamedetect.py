"""Detect test-method renames between two versions of a file.

A name whose count of test methods differs between the two versions
may have been renamed: each of its old methods may be matched to a new
method of such a name when their bodies are similar enough, measured as
the Dice coefficient over multisets of bigrams of the body's token texts
(``TestMethod.body``). Matching is greedy, highest similarity first,
one-to-one by method, so overloads that share a name are matched
separately, and a match of two equal names is a kept method, no rename.

Each body's bigram multiset is built once. A pair scores exactly 1.0 if
and only if its two multisets are equal, so equal multisets are paired by
hashing, as RefactoringMiner (Tsantalis et al., ICSE 2018) matches
identical statements first. Only the methods left over are joined, where
pairs that cannot reach the threshold are never scored: an exact
similarity-join prefix filter (Chaudhuri et al., ICDE 2006; Xiao et al.,
WWW 2008) over bigram occurrences ordered rarest first, then the Dice
length bound, leave only candidates that share a rare bigram and have
compatible sizes; each candidate's overlap is one set intersection.
Hashed pairs (1.0) and joined pairs (below 1.0) go through one greedy, as
if every removed x added pair were scored and sorted.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Sequence
from typing import NamedTuple

from .extraction import SourceFile, is_test_method, recover_methods
from .rename import RenameEvent

DEFAULT_THRESHOLD = 0.6


class FileVersionPair(NamedTuple):
    before: SourceFile
    after: SourceFile


def _bigrams(texts: Sequence[str]) -> Counter:
    return Counter(zip(texts, texts[1:]))


def body_similarity(a: Sequence[str], b: Sequence[str]) -> float:
    """Dice coefficient over the bigram multisets of two token-text
    sequences, such as two methods' ``body``; empty vs empty is 1."""
    ga = _bigrams(a)
    gb = _bigrams(b)
    total = sum(ga.values()) + sum(gb.values())
    if total == 0:
        return 1.0
    shared = sum((ga & gb).values())
    return 2.0 * shared / total


def _similar_pairs(left: list[Counter], right: list[Counter], threshold: float) -> list[tuple[float, int, int]]:
    """Every (score, i, j) whose Dice score of left[i] and right[j] is at
    least ``threshold``, as ``body_similarity`` computes it; two empty bags never pair.

    A bigram's k-th occurrence in a bag is its own element (gram, k), so
    the multiset overlap is the overlap of these element sets. Each bag
    becomes the sorted ranks of its elements, rarest first. A partner
    scoring at least t needs an overlap of at least t*n/(2-t) of a bag's n
    elements, so it shares one of the first n - ceil(t*n/(2-t)) + 1 ranks;
    one more is kept, so float rounding in that bound never drops a pair.
    """
    elements = [[(gram, k) for gram, count in bag.items() for k in range(count)] for bag in (*left, *right)]
    freq: Counter = Counter()
    for elems in elements:
        freq.update(elems)
    rank = {elem: r for r, elem in enumerate(sorted(freq, key=freq.__getitem__))}
    ranked = [sorted(map(rank.__getitem__, elems)) for elems in elements]
    del elements, freq, rank
    ranked_l, ranked_r = ranked[:len(left)], ranked[len(left):]

    def prefix(ranks: list[int]) -> list[int]:
        n = len(ranks)
        return ranks[: n - max(math.ceil(threshold * n / (2.0 - threshold)) - 1, 1) + 1]

    pairs: list[tuple[float, int, int]] = []
    index: dict[int, list[int]] = {}
    for j, b in enumerate(ranked_r):
        for r in prefix(b):
            index.setdefault(r, []).append(j)
    for i, a in enumerate(ranked_l):
        candidates = {j for r in prefix(a) for j in index.get(r, ())}
        if not candidates:
            continue
        na, mine = len(a), set(a)
        for j in candidates:
            b = ranked_r[j]
            nb = len(b)
            total = na + nb
            # the overlap is at most the smaller size (Dice length bound)
            if 2.0 * min(na, nb) / total < threshold:
                continue
            score = 2.0 * len(mine.intersection(b)) / total
            if score >= threshold:
                pairs.append((score, i, j))
    return pairs


def _test_methods(src: SourceFile, parse_errors: list[str] | None):
    methods, err = recover_methods(src)
    if err is not None and parse_errors is not None:
        parse_errors.append(str(err))
    return [m for m in methods if is_test_method(m)]


def detect_renames(pair: FileVersionPair, threshold: float = DEFAULT_THRESHOLD,
                   parse_errors: list[str] | None = None) -> list[RenameEvent]:
    """Greedy one-to-one matching of disappeared to appeared test methods.

    A version whose braces never close contributes the methods recovered
    before that point; its partial-parse message is appended to
    ``parse_errors`` when that list is given.
    """
    if not 0.0 < threshold <= 1.0:
        raise ValueError(f"threshold must lie in (0, 1], got {threshold}")
    before = _test_methods(pair.before, parse_errors)
    after = _test_methods(pair.after, parse_errors)
    counts = Counter(m.name for m in before)
    counts.subtract(m.name for m in after)
    removed = [m for m in before if counts[m.name]]
    added = [m for m in after if counts[m.name]]
    removed_bags = [_bigrams(m.body) for m in removed]
    added_bags = [_bigrams(m.body) for m in added]

    # Equal bags form disjoint groups of 1.0 pairs. The greedy takes a
    # group's removed and added methods each in (name, index) order, and
    # the indices were appended in order, so a stable sort by name will do.
    by_bag: dict[frozenset, tuple[list[int], list[int]]] = {}
    for side, bags in enumerate((removed_bags, added_bags)):
        for k, bag in enumerate(bags):
            by_bag.setdefault(frozenset(bag.items()), ([], []))[side].append(k)
    scored: list[tuple[float, int, int]] = []
    left, right = [], []
    for olds, news in by_bag.values():
        olds.sort(key=lambda i: removed[i].name)
        news.sort(key=lambda j: added[j].name)
        scored += ((1.0, i, j) for i, j in zip(olds, news))
        left += olds[len(news):]
        right += news[len(olds):]
    if left and right:
        joined = _similar_pairs([removed_bags[i] for i in left], [added_bags[j] for j in right], threshold)
        scored += ((score, left[i], right[j]) for score, i, j in joined)
    scored.sort(key=lambda c: (-c[0], removed[c[1]].name, added[c[2]].name, c[1], c[2]))
    used_removed, used_added = set(), set()
    events: list[RenameEvent] = []
    for _score, i, j in scored:
        if i not in used_removed and j not in used_added:
            used_removed.add(i)
            used_added.add(j)
            if removed[i].name != added[j].name:
                events.append(RenameEvent(removed[i].name, added[j].name, pair.after.path))
    return events
