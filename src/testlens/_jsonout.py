"""The JSON layout of every command's output. ``split --json`` and
``report --format json`` write their small documents with ``dump``; the
record streams of ``scan``, ``lint --format json``, ``rename detect`` and
``rename classify`` fill each record into a ``%`` format string that
``template`` derives from ``dump``, and ``dump`` writes the array around.
"""

from __future__ import annotations

import json
from collections.abc import Callable, Iterator

STR = json.encoder.encode_basestring_ascii
BOOL = ("false", "true")
# a skeleton's leaf that ``template`` turns into a ``%s``
SLOT = "\0"


class Encoded(str):
    """Text that is already JSON: ``dump`` writes it as it is."""


_LEAF = {str: STR, int: int.__repr__, bool: BOOL.__getitem__, type(None): lambda _: "null",
         Encoded: str}


def dump(value, write: Callable[[str], object], indent: str = "") -> None:
    """Write ``value``, a dict, list, tuple or iterator, through ``write``
    in pieces, as ``json.dumps(value, indent=2)`` writes it nested at
    ``indent``; a whole document (no ``indent``) ends with a newline. Dict
    keys keep the order the caller built them in. Leaves are of the exact
    types str, int, bool, None or ``Encoded``; any other value must be
    iterable.

    An iterator is written one item at a time, so a stream of records is
    never held whole; any other item is one piece, so that a stream that
    keeps what it is given (``io.StringIO`` does) holds one string per
    record, not one per leaf. Unlike the pure-Python encoder that
    ``indent`` selects in ``json.dumps``, this escapes strings in C and
    leaves no reference cycle behind. It still runs Python per leaf, so
    the commands that stream records pass each one as ``Encoded`` text
    filled from a ``template``; only ``split --json`` and ``report
    --format json`` give it their whole documents."""
    inner = indent + "  "
    is_dict = isinstance(value, dict)
    opening, closing = "{}" if is_dict else "[]"
    separator = opening + "\n" + inner
    for item in value.items() if is_dict else value:
        head = separator
        if is_dict:
            key, item = item
            head += STR(key) + ": "
        separator = ",\n" + inner
        leaf = _LEAF.get(type(item))
        if leaf is not None:
            write(head + leaf(item))
        elif isinstance(item, Iterator):
            write(head)
            dump(item, write, inner)
        else:
            parts = [head]
            dump(item, parts.append, inner)
            write("".join(parts))
    end = opening + closing if separator[0] == opening else "\n" + indent + closing
    write(end if indent else end + "\n")


def template(skeleton, indent: str) -> str:
    """The ``%`` format string that lays out a record shaped like
    ``skeleton`` nested at ``indent`` as ``dump`` does, with one ``%s``
    per ``SLOT`` leaf in layout order. Fill each slot with JSON text:
    ``STR`` of a string, ``BOOL`` of a bool, an int as it is, or the
    ``list_of`` a variable-length list."""
    parts: list[str] = []
    dump(skeleton, parts.append, indent)
    return "".join(parts).replace("%", "%%").replace(STR(SLOT), "%s")


def list_of(indent: str) -> Callable[[list[str]], str]:
    """The function that lays out a list (or tuple) of JSON texts nested
    at ``indent`` as ``dump`` does."""
    opening, separator, closing = template([SLOT, SLOT], indent).split("%s")
    empty = template([], indent)
    return lambda texts: opening + separator.join(texts) + closing if texts else empty
