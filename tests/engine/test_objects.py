"""Unit tests for the object model and size estimation."""

import subprocess
import sys

import numpy as np

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
