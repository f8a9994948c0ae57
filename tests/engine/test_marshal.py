"""Unit tests and roundtrip properties for stream marshaling."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.marshal import StreamDemarshaller, StreamMarshaller
from repro.engine.objects import SyntheticArray
from repro.util.errors import SimulationError


def roundtrip(objects, buffer_bytes):
    """Marshal objects into buffers and de-marshal them back."""
    marshaller = StreamMarshaller("s", "src", buffer_bytes)
    demarshaller = StreamDemarshaller()
    received = []
    buffer_sizes = []
    for obj in objects:
        for buffer in marshaller.add(obj):
            buffer_sizes.append(buffer.nbytes)
            received.extend(demarshaller.accept(buffer))
    tail = marshaller.flush()
    if tail is not None:
        buffer_sizes.append(tail.nbytes)
        received.extend(demarshaller.accept(tail))
    demarshaller.accept(marshaller.end_of_stream())
    return received, buffer_sizes


class TestMarshaller:
    def test_small_objects_share_a_buffer(self):
        marshaller = StreamMarshaller("s", "src", 100)
        buffers = list(marshaller.add(1))  # 8 bytes, fits
        assert buffers == []
        tail = marshaller.flush()  # the open buffer holds the 8 bytes
        assert tail is not None and tail.nbytes == 8

    def test_large_object_fragments(self):
        objects = [SyntheticArray(nbytes=3000)]
        received, sizes = roundtrip(objects, buffer_bytes=1000)
        assert received == objects
        assert sizes == [1000, 1000, 1000]

    def test_fragment_counts(self):
        marshaller = StreamMarshaller("s", "src", 1000)
        buffers = list(marshaller.add(SyntheticArray(nbytes=2500)))
        fragments = [f for b in buffers for f in b.fragments]
        assert all(f.total == 3 for f in fragments)
        tail = marshaller.flush()
        assert tail is not None and tail.nbytes == 500

    def test_buffer_size_validation(self):
        with pytest.raises(SimulationError):
            StreamMarshaller("s", "src", 0)

    def test_eos_with_pending_data_rejected(self):
        marshaller = StreamMarshaller("s", "src", 100)
        list(marshaller.add(5))
        with pytest.raises(SimulationError):
            marshaller.end_of_stream()

    def test_zero_size_objects_still_occupy_a_byte(self):
        received, _ = roundtrip(["", ""], buffer_bytes=10)
        assert received == ["", ""]


class TestDemarshaller:
    def test_eos_with_partial_object_rejected(self):
        marshaller = StreamMarshaller("s", "src", 1000)
        demarshaller = StreamDemarshaller()
        buffers = list(marshaller.add(SyntheticArray(nbytes=2500)))
        demarshaller.accept(buffers[0])  # only the first fragment arrives
        from repro.net.message import WireBuffer

        with pytest.raises(SimulationError):
            demarshaller.accept(WireBuffer.end_of_stream("s", "src"))

    def test_counters(self):
        objects = [SyntheticArray(nbytes=5000), 7, "hello"]
        marshaller = StreamMarshaller("s", "src", 1000)
        demarshaller = StreamDemarshaller()
        for obj in objects:
            for buffer in marshaller.add(obj):
                demarshaller.accept(buffer)
        tail = marshaller.flush()
        if tail:
            demarshaller.accept(tail)
        assert demarshaller.objects_out == 3


# Objects whose identity survives a roundtrip comparison.
_objects = st.one_of(
    st.integers(),
    st.floats(allow_nan=False),
    st.text(max_size=20),
    st.builds(SyntheticArray, nbytes=st.integers(1, 10_000), sequence=st.integers(0, 99)),
)


@given(
    objects=st.lists(_objects, max_size=30),
    buffer_bytes=st.integers(1, 5000),
)
@settings(max_examples=150, deadline=None)
def test_roundtrip_preserves_objects_and_order(objects, buffer_bytes):
    received, sizes = roundtrip(objects, buffer_bytes)
    assert received == objects
    assert all(size <= buffer_bytes for size in sizes)


@given(
    objects=st.lists(_objects, min_size=1, max_size=30),
    buffer_bytes=st.integers(1, 5000),
)
@settings(max_examples=100, deadline=None)
def test_wire_volume_matches_object_sizes(objects, buffer_bytes):
    from repro.engine.objects import size_of

    _, sizes = roundtrip(objects, buffer_bytes)
    expected = sum(max(1, size_of(o)) for o in objects)
    assert sum(sizes) == expected
