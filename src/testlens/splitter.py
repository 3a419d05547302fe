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


class InvalidIdentifierError(ValueError):
    """Raised for empty identifiers or identifiers with unsupported characters."""


# A name made only of these passes the per-character check at C speed.
_ASCII_IDENTIFIER = re.compile(r"[A-Za-z0-9_$]+")


def validate_identifier(text: str) -> str:
    """Return ``text`` unchanged if it is a well-formed identifier."""
    if not isinstance(text, str):
        # a list of letters would pass the per-character check below
        raise InvalidIdentifierError(f"identifier must be a string, not {type(text).__name__}")
    if _ASCII_IDENTIFIER.fullmatch(text):
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

    def normalized(self) -> list[str]:
        return [normalize(t.surface) for t in self.terms]


def normalize(term: str) -> str:
    """Lowercased lexicon-lookup form of a term; digits pass through."""
    if not term:
        raise ValueError("cannot normalize an empty term")
    return term.lower()


def split(name: str) -> TermSequence:
    """Decompose ``name`` into ordered terms.

    Raises InvalidIdentifierError for empty or malformed input. An
    identifier made only of separators yields an empty term sequence.
    """
    return _split_valid(validate_identifier(name))


class _CharClasses(dict):
    """``str.translate`` table giving each character one class letter: ``d``
    a digit, ``u`` upper case, ``s`` a separator, ``l`` anything else.
    A character is classified, and kept, on first sight; split sees only
    validated names, so that is one entry per letter or digit at most."""

    def __missing__(self, code: int) -> str:
        ch = chr(code)
        kind = "s" if ch in _SEPARATORS else "d" if ch.isdigit() else "u" if ch.isupper() else "l"
        self[code] = kind
        return kind


_CLASS_OF = _CharClasses()
"".join(map(chr, range(128))).translate(_CLASS_OF)  # ASCII is classified up front

# One term per match over the class string; separators match nothing. Only
# an upper run of two or more followed by lower case (the groups) is cut by
# the acronym rules.
_TERM = re.compile(r"d+|u(?!u)l*|(u+)(l*)|l+")


def _split_valid(name: str) -> TermSequence:
    """``split`` of a name the caller has already validated."""
    words = _data.common_words()
    terms: list[Term] = []
    for match in _TERM.finditer(name.translate(_CLASS_OF)):
        start, end = match.span()
        cut = match.end(1)  # upper run [start, cut), lower run [cut, end)
        if cut == -1 or cut == end or name[cut:end] == "s":
            # one term; "s" after an upper run is a plural acronym: "IDs", "URLs"
            terms.append(Term(name[start:end], start, end))
            continue
        if name[cut:end] not in words:
            # the last capital begins the next word: "HTTPSServer"; else an
            # acronym or preamble precedes a real lowercase word
            cut -= 1
        terms.append(Term(name[start:cut], start, cut))
        terms.append(Term(name[cut:end], cut, end))
    return TermSequence(name, tuple(terms))
