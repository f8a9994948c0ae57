"""The SCSQ object model: what flows through streams.

"All data in SCSQ is represented by objects" (paper section 2.4).  In this
reproduction a stream element can be any Python object; what the engine
needs from it is a *size* (for communication costs) and optionally a
*payload* (for computing operators such as FFT).  Large numeric arrays —
the paper's workload — are usually represented by :class:`SyntheticArray`,
which carries only metadata so simulating a 3 MB transfer does not allocate
3 MB; workloads that need real data (FFT, grep) use real numpy arrays or
strings.

End-of-stream is signalled in-band with the :data:`END_OF_STREAM` sentinel,
mirroring the control messages the paper's RPs exchange "to terminate
execution upon a stop condition".
"""

from __future__ import annotations

import sys
from typing import Any

from repro.util.record import Frozen, setters


class _EndOfStream:
    """Singleton sentinel marking the end of a finite stream: constructing
    (or unpickling) it again returns :data:`END_OF_STREAM`."""

    def __new__(cls):
        return END_OF_STREAM

    def __repr__(self) -> str:
        return "<END_OF_STREAM>"


END_OF_STREAM = object.__new__(_EndOfStream)


class SyntheticArray(Frozen):
    """A numeric array represented by metadata only.

    The paper's bandwidth experiments stream "arrays of numerical data" of
    3 MB each; their *contents* never matter (they are only counted), so the
    simulation ships size + sequence number instead of real bytes.

    Attributes:
        nbytes: Size of the represented array in bytes.
        sequence: Position of this array in its generated stream.
    """

    nbytes: int
    sequence: int
    __slots__ = ("nbytes", "sequence")

    def __init__(self, nbytes: int, sequence: int = 0) -> None:
        _synthetic_array_nbytes(self, nbytes)
        _synthetic_array_sequence(self, sequence)


class TaggedObject(Frozen):
    """An object annotated with its originating stream and sequence number.

    Used where downstream operators must pair elements from parallel
    streams, e.g. ``radixcombine()`` matching the k-th odd-FFT with the
    k-th even-FFT result.
    """

    tag: str
    sequence: int
    payload: Any
    __slots__ = ("tag", "sequence", "payload")

    def __init__(self, tag: str, sequence: int, payload: Any) -> None:
        _tagged_object_tag(self, tag)
        _tagged_object_sequence(self, sequence)
        _tagged_object_payload(self, payload)


# Sources build one per stream element: store through the slots.
_synthetic_array_nbytes, _synthetic_array_sequence = setters(SyntheticArray)
_tagged_object_tag, _tagged_object_sequence, _tagged_object_payload = setters(TaggedObject)


#: Sizes of the exact scalar types, found before :func:`size_of`'s
#: ``isinstance`` chain (a subclass, e.g. ``numpy.float64``, takes the chain).
_SCALAR_SIZES = {bool: 1, int: 8, float: 8, complex: 16, type(None): 1}


def size_of(obj: Any) -> int:
    """Marshaled size in bytes of a stream object.

    The estimates are intentionally simple and deterministic: they feed the
    communication cost model, not a real wire format.
    """
    if type(obj) in _SCALAR_SIZES:
        return _SCALAR_SIZES[type(obj)]
    if obj is END_OF_STREAM:
        return 0
    if isinstance(obj, SyntheticArray):
        return obj.nbytes
    if isinstance(obj, TaggedObject):
        return 16 + size_of(obj.payload)
    # An ndarray exists only once numpy is loaded: a run without arrays never loads it.
    np = sys.modules.get("numpy")
    if np is not None and isinstance(obj, np.ndarray):
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
        return 8 + sum(size_of(item) for item in obj)
    if isinstance(obj, dict):
        return 8 + sum(size_of(k) + size_of(v) for k, v in obj.items())
    if obj is None:
        return 1
    # Fallback for unanticipated types: a fixed conservative size.
    return 64
