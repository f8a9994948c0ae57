"""Wire-level message types exchanged by the stream-carrier drivers.

A :class:`WireBuffer` is the unit the sender driver flushes: the marshaled
bytes of one send buffer, possibly containing several small objects or one
*fragment* of a large object (a 3 MB array sent with 1 KB buffers travels as
3000 fragments).  The receiving driver reassembles fragments back into
objects with :mod:`repro.engine.marshal`.

The paper's RPs "regularly exchange control messages, which are used to
regulate the stream flow between them and to terminate execution upon a stop
condition" (section 2.2).  No control message type exists here: flow
regulation is carried by the bounded buffers themselves (back-pressure) and
end-of-stream by the :attr:`WireBuffer.eos` marker buffer.
"""

from __future__ import annotations

import itertools
from typing import Any, Tuple

from repro.util.record import Frozen, setters

_buffer_ids = itertools.count()


class Fragment(Frozen):
    """A slice of one marshaled object.

    Attributes:
        object_id: Identifier of the object being fragmented, unique per
            sending channel.
        index: 0-based fragment number within the object.
        total: Total number of fragments of the object.
        nbytes: Payload bytes carried by this fragment.
        payload: The materialized object, attached to the final fragment
            only (the simulation ships metadata, not copies of the bytes).
    """

    object_id: int
    index: int
    total: int
    nbytes: int
    payload: Any
    __slots__ = ("object_id", "index", "total", "nbytes", "payload")

    def __init__(self, object_id: int, index: int, total: int, nbytes: int,
                 payload: Any = None) -> None:
        _fragment_object_id(self, object_id)
        _fragment_index(self, index)
        _fragment_total(self, total)
        _fragment_nbytes(self, nbytes)
        _fragment_payload(self, payload)

    @property
    def is_last(self) -> bool:
        return self.index == self.total - 1


class WireBuffer(Frozen):
    """One flushed send buffer travelling through a network model.

    Attributes:
        buffer_id: Globally unique id (diagnostics / determinism checks).
        stream_id: Identifier of the logical stream (sender RP output).
        source: Node id of the sending node.
        nbytes: Marshaled payload size of this buffer, in bytes.
        fragments: The object fragments packed into the buffer.
        eos: True for the final, empty buffer announcing end-of-stream.
    """

    buffer_id: int
    stream_id: str
    source: str
    nbytes: int
    fragments: Tuple[Fragment, ...]
    eos: bool
    __slots__ = ("buffer_id", "stream_id", "source", "nbytes", "fragments", "eos")

    def __init__(self, buffer_id: int, stream_id: str, source: str, nbytes: int,
                 fragments: Tuple[Fragment, ...] = (), eos: bool = False) -> None:
        _wire_buffer_buffer_id(self, buffer_id)
        _wire_buffer_stream_id(self, stream_id)
        _wire_buffer_source(self, source)
        _wire_buffer_nbytes(self, nbytes)
        _wire_buffer_fragments(self, fragments)
        _wire_buffer_eos(self, eos)

    @staticmethod
    def data(stream_id: str, source: str, nbytes: int, fragments) -> "WireBuffer":
        """Build a data buffer."""
        return WireBuffer(
            buffer_id=next(_buffer_ids),
            stream_id=stream_id,
            source=source,
            nbytes=nbytes,
            fragments=tuple(fragments),
        )

    @staticmethod
    def end_of_stream(stream_id: str, source: str) -> "WireBuffer":
        """Build the end-of-stream marker buffer."""
        return WireBuffer(
            buffer_id=next(_buffer_ids),
            stream_id=stream_id,
            source=source,
            nbytes=0,
            eos=True,
        )


# A network model builds one of each per buffer: store through the slots.
(_fragment_object_id, _fragment_index, _fragment_total, _fragment_nbytes,
 _fragment_payload) = setters(Fragment)
(_wire_buffer_buffer_id, _wire_buffer_stream_id, _wire_buffer_source, _wire_buffer_nbytes,
 _wire_buffer_fragments, _wire_buffer_eos) = setters(WireBuffer)
