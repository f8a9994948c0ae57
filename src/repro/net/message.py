"""Wire-level message types exchanged by the stream-carrier drivers.

A :class:`WireBuffer` is the unit the sender driver flushes: the marshaled
bytes of one send buffer, possibly containing several small objects or one
*fragment* of a large object (a 3 MB array sent with 1 KB buffers travels as
3000 fragments).  The receiving driver reassembles fragments back into
objects with :mod:`repro.engine.marshal`.

The paper's RPs "regularly exchange control messages, which are used to
regulate the stream flow between them and to terminate execution upon a stop
condition" (section 2.2).  No control message type exists here: flow
regulation is carried by the bounded buffers themselves (back-pressure),
end-of-stream by the :attr:`WireBuffer.eos` marker buffer, and stop by
:mod:`repro.engine.control`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Tuple

_buffer_ids = itertools.count()


@dataclass(frozen=True)
class Fragment:
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
    payload: Any = None

    @property
    def is_last(self) -> bool:
        return self.index == self.total - 1


@dataclass(frozen=True)
class WireBuffer:
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
    fragments: Tuple[Fragment, ...] = ()
    eos: bool = False

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

