"""Unit tests for wire-level message types."""

from repro.net.message import Fragment, WireBuffer


class TestWireBuffer:
    def test_data_buffers_get_unique_ids(self):
        a = WireBuffer.data("s", "n", 10, [])
        b = WireBuffer.data("s", "n", 10, [])
        assert a.buffer_id != b.buffer_id
        assert not a.eos

    def test_end_of_stream_marker(self):
        eos = WireBuffer.end_of_stream("s", "n")
        assert eos.eos
        assert eos.nbytes == 0
        assert eos.fragments == ()

    def test_fragments_are_preserved(self):
        fragments = [Fragment(object_id=1, index=0, total=2, nbytes=5)]
        buffer = WireBuffer.data("s", "n", 5, fragments)
        assert buffer.fragments[0].object_id == 1


class TestFragment:
    def test_is_last(self):
        assert Fragment(object_id=1, index=1, total=2, nbytes=5).is_last
        assert not Fragment(object_id=1, index=0, total=2, nbytes=5).is_last

    def test_payload_defaults_to_none(self):
        assert Fragment(object_id=1, index=0, total=1, nbytes=5).payload is None

