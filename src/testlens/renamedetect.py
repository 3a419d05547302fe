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
candidates that share a rare bigram and have compatible sizes. The result
is the same as scoring and sorting every removed x added pair.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from .extraction import SourceFile, TokenStream, is_test_method, recover_methods
from .rename import RenameEvent

DEFAULT_THRESHOLD = 0.6


@dataclass(frozen=True)
class FileVersionPair:
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


def _prefixes(bags: list[Counter], rank: dict, threshold: float) -> list[list[int]]:
    """Per bag, the ranks of its rarest bigram occurrences that any partner
    scoring at least ``threshold`` must share at least one of.

    A partner needs an overlap of at least t*n/(2-t) occurrences, so the
    first n - ceil(t*n/(2-t)) + 1 ranks suffice; one more is kept, so float
    rounding in that bound never drops a pair.
    """
    out = []
    for bag in bags:
        ranks = sorted(rank[gram, k] for gram, count in bag.items() for k in range(count))
        n = len(ranks)
        need = math.ceil(threshold * n / (2.0 - threshold)) - 1
        out.append(ranks[: n - max(need, 1) + 1])
    return out


def _similar_pairs(left: list[Counter], right: list[Counter], threshold: float) -> list[tuple[float, int, int]]:
    """Every (score, i, j) whose Dice score of left[i] and right[j] is at
    least ``threshold``, computed as ``body_similarity`` computes it."""
    sizes_l = [sum(bag.values()) for bag in left]
    sizes_r = [sum(bag.values()) for bag in right]
    pairs = [
        (1.0, i, j)
        for i, nl in enumerate(sizes_l) if nl == 0
        for j, nr in enumerate(sizes_r) if nr == 0
    ]
    # a bigram's k-th occurrence in a bag is its own element, so the
    # multiset overlap is the overlap of these element sets
    freq: Counter = Counter()
    for bag in (*left, *right):
        for gram, count in bag.items():
            for k in range(count):
                freq[gram, k] += 1
    rank = {elem: r for r, elem in enumerate(sorted(freq, key=freq.__getitem__))}

    index: dict[int, list[int]] = {}
    for j, prefix in enumerate(_prefixes(right, rank, threshold)):
        for r in prefix:
            index.setdefault(r, []).append(j)
    for i, prefix in enumerate(_prefixes(left, rank, threshold)):
        candidates = {j for r in prefix for j in index.get(r, ())}
        a, na = left[i], sizes_l[i]
        for j in candidates:
            b, nb = right[j], sizes_r[j]
            total = na + nb
            # the overlap is at most the smaller size (Dice length bound)
            if 2.0 * min(na, nb) / total < threshold:
                continue
            small, big = (a, b) if len(a) <= len(b) else (b, a)
            shared = 0
            for gram, count in small.items():
                other = big.get(gram)
                if other:
                    shared += count if count < other else other
            score = 2.0 * shared / total
            if score >= threshold:
                pairs.append((score, i, j))
    return pairs


def _test_methods(src: SourceFile):
    methods, _ = recover_methods(src)
    return [m for m in methods if is_test_method(m)]


def detect_renames(pair: FileVersionPair, threshold: float = DEFAULT_THRESHOLD) -> list[RenameEvent]:
    """Greedy one-to-one matching of disappeared to appeared test methods."""
    if not 0.0 < threshold <= 1.0:
        raise ValueError(f"threshold must lie in (0, 1], got {threshold}")
    before = _test_methods(pair.before)
    after = _test_methods(pair.after)
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
