"""Unit tests for the object model and size estimation."""

import subprocess
import sys
from enum import IntEnum

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.objects import (
    END_OF_STREAM,
    SyntheticArray,
    TaggedObject,
    size_of,
)


class TestEndOfStream:
    def test_singleton(self):
        from repro.engine.objects import _EndOfStream

        assert _EndOfStream() is END_OF_STREAM

    def test_size_is_zero(self):
        assert size_of(END_OF_STREAM) == 0

    def test_repr(self):
        assert "END_OF_STREAM" in repr(END_OF_STREAM)


class TestSizeOf:
    def test_synthetic_array(self):
        assert size_of(SyntheticArray(nbytes=3_000_000, sequence=5)) == 3_000_000

    def test_numpy_array(self):
        array = np.zeros(1000, dtype=np.float64)
        assert size_of(array) == 8000

    def test_scalars(self):
        assert size_of(7) == 8
        assert size_of(7.5) == 8
        assert size_of(1 + 2j) == 16
        assert size_of(True) == 1
        assert size_of(None) == 1

    def test_strings_and_bytes(self):
        assert size_of("abc") == 3
        assert size_of("åäö") == 6  # UTF-8
        assert size_of(b"12345") == 5

    def test_containers_recursive(self):
        assert size_of([1, 2, 3]) == 8 + 24
        assert size_of({"a": 1}) == 8 + 1 + 8

    def test_tagged_object_adds_header(self):
        inner = np.zeros(10)
        tagged = TaggedObject(tag="odd", sequence=3, payload=inner)
        assert size_of(tagged) == 16 + inner.nbytes

    def test_unknown_type_fallback(self):
        class Strange:
            pass

        assert size_of(Strange()) == 64

    def test_nbytes_attribute_alone_is_not_an_array(self):
        class NotAnArray:
            nbytes = 1000

        assert size_of(NotAnArray()) == 64

    def test_numpy_imported_after_the_object_model(self):
        """The object model loads without numpy; arrays made once numpy is
        imported size as before, bare and tagged."""
        script = (
            "import sys\n"
            "from repro.engine.objects import TaggedObject, size_of\n"
            "assert 'numpy' not in sys.modules\n"
            "import numpy as np\n"
            "array = np.zeros(1000)\n"
            "print(size_of(array), size_of(TaggedObject('odd', 3, array)))\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == ["8000", "8016"]


def reference_size_of(obj):
    """``size_of`` as a plain ``isinstance`` chain, before exact scalar types
    were looked up in a table first: the reference the table must match."""
    if obj is END_OF_STREAM:
        return 0
    if isinstance(obj, SyntheticArray):
        return obj.nbytes
    if isinstance(obj, TaggedObject):
        return 16 + reference_size_of(obj.payload)
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    if isinstance(obj, bool):
        return 1
    if isinstance(obj, int):
        return 8
    if isinstance(obj, float):
        return 8
    if isinstance(obj, complex):
        return 16
    if isinstance(obj, str):
        return len(obj.encode("utf-8"))
    if isinstance(obj, bytes):
        return len(obj)
    if isinstance(obj, (list, tuple)):
        return 8 + sum(reference_size_of(item) for item in obj)
    if isinstance(obj, dict):
        return 8 + sum(reference_size_of(k) + reference_size_of(v) for k, v in obj.items())
    if obj is None:
        return 1
    return 64


class Level(IntEnum):
    LOW = 1
    HIGH = 2


class Name(str):
    """A ``str`` subclass: sized by the chain, like ``str``."""


_KEYS = st.one_of(st.booleans(), st.integers(), st.text(max_size=8), st.none())
_LEAVES = st.one_of(
    _KEYS,
    st.floats(),
    st.complex_numbers(),
    st.binary(max_size=8),
    st.sampled_from(list(Level)),
    st.text(max_size=8).map(Name),
    st.floats().map(np.float64),
    st.integers(-(2**31), 2**31 - 1).map(np.int32),
    st.integers(0, 16).map(np.zeros),
    st.builds(SyntheticArray, st.integers(0, 10**7), st.integers(0, 99)),
    st.just(END_OF_STREAM),
)
_OBJECTS = st.recursive(
    _LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_KEYS, children, max_size=4),
        st.builds(TaggedObject, st.text(max_size=4), st.integers(0, 9), children),
    ),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_OBJECTS)
def test_size_of_matches_the_isinstance_chain(obj):
    assert size_of(obj) == reference_size_of(obj)


def test_the_scalar_table_covers_exact_types_only():
    """Exact scalar types hit the table; their subclasses take the chain
    and size as their base type does."""
    for obj, size in [(True, 1), (7, 8), (7.5, 8), (1j, 16), (None, 1),
                      (Level.HIGH, 8), (np.float64(2.5), 8), (Name("ab"), 2),
                      (np.int32(3), 64)]:
        assert size_of(obj) == reference_size_of(obj) == size, obj
