"""Detect test-method renames between two versions of a file.

A removed method (present only in the old version) is matched to an added
method (present only in the new version) when their bodies are similar
enough, measured as the Dice coefficient over multisets of token bigrams.
Matching is greedy, highest similarity first, one-to-one.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .extraction import SourceFile, TokenStream, is_test_method, recover_methods
from .rename import RenameEvent

DEFAULT_THRESHOLD = 0.6


@dataclass(frozen=True)
class FileVersionPair:
    before: SourceFile
    after: SourceFile


@dataclass(frozen=True)
class SimilarityScore:
    value: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.value <= 1.0:
            raise ValueError(f"similarity must lie in [0, 1], got {self.value}")


def _bigrams(stream: TokenStream) -> Counter:
    texts = [t.text for t in stream.tokens]
    return Counter(zip(texts, texts[1:]))


def body_similarity(a: TokenStream, b: TokenStream) -> SimilarityScore:
    """Dice coefficient over token-bigram multisets; empty vs empty is 1."""
    ga = _bigrams(a)
    gb = _bigrams(b)
    total = sum(ga.values()) + sum(gb.values())
    if total == 0:
        return SimilarityScore(1.0)
    shared = sum((ga & gb).values())
    return SimilarityScore(2.0 * shared / total)


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

    candidates = [
        (body_similarity(r.body_tokens, a.body_tokens).value, r, a)
        for r in removed
        for a in added
    ]
    candidates.sort(key=lambda c: (-c[0], c[1].name, c[2].name))

    events: list[RenameEvent] = []
    used_removed: set[str] = set()
    used_added: set[str] = set()
    for score, r, a in candidates:
        if score < threshold:
            break
        if r.name in used_removed or a.name in used_added:
            continue
        used_removed.add(r.name)
        used_added.add(a.name)
        events.append(
            RenameEvent(
                old_name=r.name,
                new_name=a.name,
                file=pair.after.path,
                commit=None,
            )
        )
    return events
