"""Detect test-method renames between two versions of a file.

A removed method (present only in the old version) is matched to an added
method (present only in the new version) when their bodies are similar
enough, measured as the Dice coefficient over multisets of token bigrams.
Matching is greedy, highest similarity first, one-to-one by method, so
overloads that share a name are matched separately.

Each body's bigram multiset is built once. Pairs that cannot reach the
threshold are never scored: an exact similarity-join prefix filter
(Chaudhuri et al., ICDE 2006; Xiao et al., WWW 2008) over bigram
occurrences ordered rarest first, then the Dice length bound, leave only
candidates that share a rare bigram and have compatible sizes; each
candidate's overlap is one set intersection. The result is the same as
scoring and sorting every removed x added pair.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import NamedTuple

from .extraction import SourceFile, TokenStream, is_test_method, recover_methods
from .rename import RenameEvent

DEFAULT_THRESHOLD = 0.6


class FileVersionPair(NamedTuple):
    before: SourceFile
    after: SourceFile


def _bigrams(stream: TokenStream) -> Counter:
    texts = stream.texts
    return Counter(zip(texts, texts[1:]))


def body_similarity(a: TokenStream, b: TokenStream) -> float:
    """Dice coefficient over token-bigram multisets; empty vs empty is 1."""
    ga = _bigrams(a)
    gb = _bigrams(b)
    total = sum(ga.values()) + sum(gb.values())
    if total == 0:
        return 1.0
    shared = sum((ga & gb).values())
    return 2.0 * shared / total


def _similar_pairs(left: list[Counter], right: list[Counter], threshold: float) -> list[tuple[float, int, int]]:
    """Every (score, i, j) whose Dice score of left[i] and right[j] is at
    least ``threshold``, computed as ``body_similarity`` computes it.

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

    pairs = [
        (1.0, i, j)
        for i, a in enumerate(ranked_l) if not a
        for j, b in enumerate(ranked_r) if not b
    ]
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
    before_names = {m.name for m in before}
    after_names = {m.name for m in after}
    removed = [m for m in before if m.name not in after_names]
    added = [m for m in after if m.name not in before_names]

    scored = _similar_pairs(
        [_bigrams(m.body_tokens) for m in removed],
        [_bigrams(m.body_tokens) for m in added],
        threshold,
    )
    scored.sort(key=lambda c: (-c[0], removed[c[1]].name, added[c[2]].name, c[1], c[2]))

    events: list[RenameEvent] = []
    used_removed: set[int] = set()
    used_added: set[int] = set()
    for _score, i, j in scored:
        if i in used_removed or j in used_added:
            continue
        used_removed.add(i)
        used_added.add(j)
        events.append(
            RenameEvent(
                old_name=removed[i].name,
                new_name=added[j].name,
                file=pair.after.path,
                commit=None,
            )
        )
    return events
