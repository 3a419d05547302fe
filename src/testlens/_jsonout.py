"""The JSON layout of every command's output: the one of
``json.dumps(value, indent=2)``. ``split --json`` and ``report --format
json`` write their small documents with ``json.dumps`` itself. The
commands that stream records (``scan``, ``lint --format json``, ``rename
detect`` and ``rename classify``) take their layouts from it once, at
import: ``template`` gives each record kind a ``%`` format string,
``list_of`` lays out a record's variable-length lists, and
``list_writer`` writes the array of records one record at a time. Per
record, ``json.dumps`` would run Python per leaf, since ``indent`` selects
its pure-Python encoder, and leave a reference cycle behind.
"""

from __future__ import annotations

import json
from collections.abc import Callable, Iterable

STR = json.encoder.encode_basestring_ascii
BOOL = ("false", "true")
# a skeleton's leaf that ``template`` turns into a ``%s``
SLOT = "\0"


def template(skeleton, indent: str) -> str:
    """The ``%`` format string that lays out a value shaped like
    ``skeleton`` nested at ``indent``, with one ``%s`` per ``SLOT`` leaf in
    layout order. Fill each slot with JSON text: ``STR`` of a string,
    ``BOOL`` of a bool, an int as it is, or the ``list_of`` a
    variable-length list."""
    laid_out = json.dumps(skeleton, indent=2).replace("%", "%%").replace("\n", "\n" + indent)
    return laid_out.replace(STR(SLOT), "%s")


def list_of(indent: str) -> Callable[[list[str]], str]:
    """The function that lays out a list (or tuple) of JSON texts nested
    at ``indent``."""
    opening, separator, closing = template([SLOT, SLOT], indent).split("%s")
    return lambda texts: opening + separator.join(texts) + closing if texts else "[]"


def list_writer(indent: str, end: str) -> Callable[[Iterable[str], Callable[[str], object]], None]:
    """The function that writes the list of its JSON texts nested at
    ``indent``, then ``end``, through its ``write``: one ``write`` per text,
    made before the next text is pulled, so that a stream of records is
    never held whole, and one for the closing."""
    opening, separator, closing = template([SLOT, SLOT], indent).split("%s")
    empty, closing = "[]" + end, closing + end

    def write_list(texts: Iterable[str], write: Callable[[str], object]) -> None:
        before = opening
        for text in texts:
            write(before + text)
            before = separator
        write(closing if before == separator else empty)

    return write_list


# a whole document that is an array of records
write_array = list_writer("", "\n")
