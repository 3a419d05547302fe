"""Split identifier names into ordered terms.

Boundaries fall at separators (underscore, dollar sign), at lower-to-upper
case transitions, at letter/digit transitions, and inside all-caps acronym
runs followed by lowercase text. Separators are dropped but their positions
are retained so the original identifier can be reconstructed exactly.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from . import _data

_SEPARATORS = frozenset("_$")

# Pieces of one character class: an ASCII run matches whole, any other
# character alone (its class comes from ``_char_class``).
_PIECE = re.compile(r"[0-9]+|[A-Z]+|[a-z]+|[_$]+|.", re.DOTALL)


class InvalidIdentifierError(ValueError):
    """Raised for empty identifiers or identifiers with unsupported characters."""


# A name made only of these passes the per-character check at C speed.
_ASCII_IDENTIFIER = re.compile(r"[A-Za-z0-9_$]+")


def validate_identifier(text: str) -> str:
    """Return ``text`` unchanged if it is a well-formed identifier."""
    if isinstance(text, str) and _ASCII_IDENTIFIER.fullmatch(text):
        return text
    if not text:
        raise InvalidIdentifierError("identifier is empty")
    for ch in text:
        if not (ch.isalpha() or ch.isdigit() or ch in _SEPARATORS):
            raise InvalidIdentifierError(
                f"identifier {text!r} contains unsupported character {ch!r}"
            )
    return text


class Term(NamedTuple):
    """One term of a split identifier with its [start, end) source span."""

    surface: str
    start: int
    end: int


class TermSequence(NamedTuple):
    """Ordered terms of one identifier, spans indexing into ``raw``."""

    raw: str
    terms: tuple[Term, ...]

    def surfaces(self) -> list[str]:
        return [t.surface for t in self.terms]

    def normalized(self) -> list[str]:
        return [normalize(t.surface) for t in self.terms]

    def reconstruct(self) -> str:
        """Re-interleave term spans with the skipped separator characters."""
        out: list[str] = []
        pos = 0
        for term in self.terms:
            out.append(self.raw[pos:term.start])
            out.append(term.surface)
            pos = term.end
        out.append(self.raw[pos:])
        return "".join(out)


def normalize(term: str) -> str:
    """Lowercased lexicon-lookup form of a term; digits pass through."""
    if not term:
        raise ValueError("cannot normalize an empty term")
    return term.lower()


def _char_class(ch: str) -> str:
    if ch.isdigit():
        return "digit"
    if ch.isupper():
        return "upper"
    return "lower"


def _split_segment(raw: str, runs: list[tuple[str, int, int]], words: frozenset[str]) -> list[Term]:
    terms: list[Term] = []

    def emit(start: int, end: int) -> None:
        terms.append(Term(raw[start:end], start, end))

    i = 0
    while i < len(runs):
        kind, start, end = runs[i]
        nxt = runs[i + 1] if i + 1 < len(runs) else None
        if kind == "upper" and nxt is not None and nxt[0] == "lower":
            _, lo_start, lo_end = nxt
            lower_text = raw[lo_start:lo_end]
            if end - start == 1:
                # single capital starts a capitalized word: "String"
                emit(start, lo_end)
            elif lower_text == "s":
                # plural acronym: "IDs", "URLs"
                emit(start, lo_end)
            elif lower_text in words:
                # acronym or preamble followed by a real lowercase word
                emit(start, end)
                emit(lo_start, lo_end)
            else:
                # last capital of the run begins the next word: "HTTPSServer"
                emit(start, end - 1)
                emit(end - 1, lo_end)
            i += 2
        else:
            emit(start, end)
            i += 1
    return terms


def split(name: str) -> TermSequence:
    """Decompose ``name`` into ordered terms.

    Raises InvalidIdentifierError for empty or malformed input. An
    identifier made only of separators yields an empty term sequence.
    """
    return _split_valid(validate_identifier(name))


def _split_valid(name: str) -> TermSequence:
    """``split`` of a name the caller has already validated."""
    words = _data.common_words()
    terms: list[Term] = []
    runs: list[tuple[str, int, int]] = []  # maximal (class, start, end) runs of a segment
    for piece in _PIECE.finditer(name):
        start, end = piece.span()
        first = name[start]
        if first in _SEPARATORS:
            if runs:
                terms.extend(_split_segment(name, runs, words))
                runs = []
            continue
        kind = _char_class(first)
        if runs and runs[-1][0] == kind:
            runs[-1] = (kind, runs[-1][1], end)
        else:
            runs.append((kind, start, end))
    if runs:
        terms.extend(_split_segment(name, runs, words))
    return TermSequence(name, tuple(terms))
