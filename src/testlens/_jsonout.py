"""The one JSON writer of every command's output."""

from __future__ import annotations

import json
from collections.abc import Callable, Iterator

_STR = json.encoder.encode_basestring_ascii
_LEAF = {str: _STR, int: int.__repr__, bool: {False: "false", True: "true"}.get,
         type(None): lambda _: "null"}


def dump(value, write: Callable[[str], object], indent: str = "") -> None:
    """Write ``value``, a dict, list, tuple or iterator, through ``write``
    in pieces, as ``json.dumps(value, indent=2)`` writes it nested at
    ``indent``; a whole document (no ``indent``) ends with a newline. Dict
    keys keep the order the caller built them in. Leaves are of the exact
    types str, int, bool or None; any other value must be iterable.

    An iterator is written one item at a time, so a stream of records is
    never held whole; any other item is one piece, so that a stream that
    keeps what it is given (``io.StringIO`` does) holds one string per
    record, not one per leaf. Unlike the pure-Python encoder that
    ``indent`` selects in ``json.dumps``, this escapes strings in C and
    leaves no reference cycle behind."""
    inner = indent + "  "
    is_dict = isinstance(value, dict)
    opening, closing = "{}" if is_dict else "[]"
    separator = opening + "\n" + inner
    for item in value.items() if is_dict else value:
        head = separator
        if is_dict:
            key, item = item
            head += _STR(key) + ": "
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
