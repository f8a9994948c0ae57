"""Marshaling of object streams into wire buffers, and back.

The paper's running process (section 2.3): "the objects resulting from the
operators are passed on to the sender driver, which marshals them and sends
the buffer contents to subscribers"; incoming data "is buffered in a
receiver driver and de-marshaled (materialized) into objects".

:class:`StreamMarshaller` packs a sequence of objects into fixed-size
:class:`~repro.net.message.WireBuffer` instances.  An object larger than
the buffer is split into *fragments* (a 3 MB array sent with 1 KB buffers
becomes 3000 fragments); several small objects share one buffer.  The
symmetric :class:`StreamDemarshaller` reassembles objects, tolerating
fragment arrival in any order within a stream.

These classes are pure bookkeeping — the *time* cost of marshaling is
charged by the drivers via :class:`~repro.net.params.CpuCostParams`.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, Iterator, List, Optional

from repro.engine.objects import size_of
from repro.net.message import Fragment, WireBuffer
from repro.util.errors import SimulationError


class StreamMarshaller:
    """Packs stream objects into wire buffers of at most ``buffer_bytes``."""

    def __init__(self, stream_id: str, source: str, buffer_bytes: int):
        if buffer_bytes < 1:
            raise SimulationError(f"buffer size must be >= 1 byte, got {buffer_bytes}")
        self.stream_id = stream_id
        self.source = source
        self.buffer_bytes = buffer_bytes
        self._object_ids = itertools.count()
        self._pending: List[Fragment] = []
        self._pending_bytes = 0

    def add(self, obj: Any) -> Iterator[WireBuffer]:
        """Add one object; yields every buffer that fills up as a result."""
        object_id = next(self._object_ids)
        remaining = size_of(obj)
        if remaining == 0:
            remaining = 1  # every object occupies at least one byte on the wire
        total_fragments = self._count_fragments(remaining)
        index = 0
        while remaining > 0:
            room = self.buffer_bytes - self._pending_bytes
            take = min(room, remaining)
            remaining -= take
            is_last = remaining == 0
            self._pending.append(
                Fragment(
                    object_id=object_id,
                    index=index,
                    total=total_fragments,
                    nbytes=take,
                    payload=obj if is_last else None,
                )
            )
            self._pending_bytes += take
            index += 1
            if self._pending_bytes >= self.buffer_bytes:
                yield self._flush()

    def _count_fragments(self, nbytes: int) -> int:
        """How many fragments an object of ``nbytes`` will span."""
        room = self.buffer_bytes - self._pending_bytes
        if nbytes <= room:
            return 1
        return 1 + -(-(nbytes - room) // self.buffer_bytes)

    def flush(self) -> Optional[WireBuffer]:
        """Emit the partially filled buffer, if any."""
        if not self._pending:
            return None
        return self._flush()

    def end_of_stream(self) -> WireBuffer:
        """The end-of-stream marker buffer (flush any remainder first)."""
        if self._pending:
            raise SimulationError("flush() the marshaller before ending the stream")
        return WireBuffer.end_of_stream(self.stream_id, self.source)

    def _flush(self) -> WireBuffer:
        buffer = WireBuffer.data(
            self.stream_id, self.source, self._pending_bytes, self._pending
        )
        self._pending = []
        self._pending_bytes = 0
        return buffer


class StreamDemarshaller:
    """Reassembles objects from the wire buffers of one stream."""

    def __init__(self):
        self._received: Dict[int, int] = {}  # object_id -> fragments seen
        self._payloads: Dict[int, Any] = {}
        self.objects_out = 0
        self.bytes_in = 0

    def accept(self, buffer: WireBuffer) -> List[Any]:
        """Consume one buffer; returns the objects completed by it, in order."""
        if buffer.eos:
            if self._received:
                raise SimulationError(
                    f"stream {buffer.stream_id!r} ended with "
                    f"{len(self._received)} partially received objects"
                )
            return []
        self.bytes_in += buffer.nbytes
        completed: List[Any] = []
        for fragment in buffer.fragments:
            seen = self._received.get(fragment.object_id, 0) + 1
            self._received[fragment.object_id] = seen
            if fragment.payload is not None or fragment.is_last:
                self._payloads[fragment.object_id] = fragment.payload
            if seen == fragment.total:
                completed.append(self._payloads.pop(fragment.object_id))
                del self._received[fragment.object_id]
                self.objects_out += 1
        return completed
