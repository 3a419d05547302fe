import json

from hypothesis import given, settings, strategies as st

from testlens._jsonout import dump

# the leaves and containers of the commands' JSON documents
json_values = st.recursive(
    st.text() | st.booleans() | st.integers() | st.none(),
    lambda inner: (st.lists(inner, max_size=4) | st.tuples(inner, inner)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=4)),
    max_leaves=12,
)
json_documents = st.lists(json_values, max_size=4) | st.dictionaries(
    st.text(max_size=6), json_values, max_size=4)


def _lazy(value):
    """``value`` with every list replaced by an iterator over its items."""
    if isinstance(value, dict):
        return {key: _lazy(item) for key, item in value.items()}
    if isinstance(value, list):
        return iter([_lazy(item) for item in value])
    return value


def encoded(value, indent: str = "") -> str:
    pieces: list[str] = []
    dump(value, pieces.append, indent)
    return "".join(pieces)


class TestDump:
    @given(json_documents, st.sampled_from(["", "  ", "    "]))
    @settings(max_examples=300)
    def test_record_layout_equals_json_dumps(self, value, indent):
        want = json.dumps(value, indent=2).replace("\n", "\n" + indent)
        if not indent:
            want += "\n"
        assert encoded(value, indent) == want

    @given(json_documents)
    @settings(max_examples=200)
    def test_iterator_writes_the_bytes_of_its_list(self, value):
        assert encoded(_lazy(value)) == encoded(value)

    def test_iterator_is_pulled_one_item_at_a_time(self):
        pulled, writes = [], []

        def records():
            for i in range(3):
                pulled.append(i)
                yield {"i": i}

        dump({"files": records()}, lambda piece: writes.append((piece, len(pulled))))
        # each record is one piece, written before the next record is pulled
        assert writes == [
            ('{\n  "files": ', 0),
            ('[\n    {\n      "i": 0\n    }', 1),
            (',\n    {\n      "i": 1\n    }', 2),
            (',\n    {\n      "i": 2\n    }', 3),
            ("\n  ]", 3),
            ("\n}\n", 3),
        ]
