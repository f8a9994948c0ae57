"""First-class stream-process values of the SCSQL evaluator.

"The function sp(s, c) assigns the subquery s to a new stream process to be
run in cluster c" and returns a handle; ``spv`` returns "a set (bag) of
handles to the assigned stream processes" (paper section 2.4).  These
handle objects are what SCSQL variables of type ``sp`` / ``bag of sp`` are
bound to during query compilation, and what ``extract()`` / ``merge()``
consume.
"""

from __future__ import annotations

from typing import Iterator, Tuple

from repro.util.record import Frozen, setters


class SPHandle(Frozen):
    """A handle to one assigned stream process."""

    sp_id: str
    __slots__ = ("sp_id",)

    def __init__(self, sp_id: str) -> None:
        _sp_handle_sp_id(self, sp_id)

    def __str__(self) -> str:
        return self.sp_id


_sp_handle_sp_id, = setters(SPHandle)


class SPVHandle(Frozen):
    """A bag of handles to parallel stream processes (the result of spv)."""

    handles: Tuple[SPHandle, ...]
    __slots__ = ("handles",)

    def __init__(self, handles: Tuple[SPHandle, ...]) -> None:
        self._set_fields(handles)

    def __iter__(self) -> Iterator[SPHandle]:
        return iter(self.handles)

    def __len__(self) -> int:
        return len(self.handles)

    def __str__(self) -> str:
        return "{" + ", ".join(str(h) for h in self.handles) + "}"
